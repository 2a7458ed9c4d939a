"""Full-batch reweighted gradient descent with trace recording.

One training step is

    theta <- theta - eta * ( J(theta) @ (q * dloss) + mu * (theta - theta0) )

where J is the p x n Jacobian of the model outputs, q the current simplex
weights and mu an optional L2 penalty centered at the starting parameters
(not at zero; for networks the distinction matters).  Dynamic schemes
recompute q from the current per-sample losses before each step, so the step
toward theta^{t+1} uses the weights derived from the model at step t.

The step is a vector-Jacobian product: one call to ``model.vjp`` runs a
single forward pass for the outputs, and its pullback backpropagates
q * dloss from that pass.  J itself is never formed.  The data are validated
once, when ``train`` is entered (finite inputs, the unit-ball warning, +-1
labels for the classification losses); the step runs the loss's unchecked
value-and-gradient kernel, which gives the losses and dloss in one call.

Runs go in lock step.  ``train`` takes one TrainConfig or a list of R of
them that share the model, the data, the loss, eta, epochs and record_every;
scheme, mu, stop_risk and record_params may differ from run to run, and so
may the starts, given as one p x R array.  Every run is measured against the
same theta_ref and ref_direction.  The parameters of the runs form one p x R
array with a column per run, and losses, weights and targets are n x R, so
each step is one vjp and one loss kernel call for all runs.  The targets are
repeated into that block rather than broadcast from one n x 1 column: the
kernel's elementwise operations then see operands of one shape, which
numpy runs with less overhead, and each entry is still the same operation
on the same two numbers.  The p x R array takes the memory order of the
model's first pullback result and keeps it.

Adjacent runs whose configs hold one scheme object form a block with one
stepper, built once by the scheme's ``stepper(groups, runs)``, which maps
the block's n x r losses to its n x r weights on every step; they are
written into q only when it hands back a new array, which a settled Group DRO
stepper does not.  A static scheme has no stepper.  A run that stops leaves
the working set: its columns are dropped, its stepper drops it with
``keep``, and its trace stops changing.  A single run is the R = 1 case.
Probe points ride in every forward pass after the training points; the
losses and the pullback take the leading n outputs only.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from .errors import DivergedError, InvalidArgumentError, as_int
from .linalg import as_matrix, as_vector, gram, require_full_rank
from .losses import LossKind, loss_kernels, require_labels
from .models import warn_outside_unit_ball
from .reweighting import GroupInfo


@dataclass
class TrainConfig:
    """Hyperparameters for one training run.

    epochs and record_every are ints >= 1; a numpy integer is taken, a bool,
    a float or a string is not.
    """

    eta: float
    epochs: int
    loss: LossKind
    scheme: object
    mu: float = 0.0
    stop_risk: float = 1e-12
    record_every: int = 1
    record_params: bool = False

    def __post_init__(self):
        self.epochs = as_int(self.epochs, "epochs")
        self.record_every = as_int(self.record_every, "record_every")
        if not (self.eta > 0) or not math.isfinite(self.eta):
            raise InvalidArgumentError("eta must be a positive finite float")
        if not (self.mu >= 0) or not math.isfinite(self.mu):
            # An infinite mu would surface as a divergence (0 * inf is NaN)
            # instead of as the invalid input it is.
            raise InvalidArgumentError(f"mu must be a finite float >= 0, got {self.mu!r}")
        if self.epochs < 1:
            raise InvalidArgumentError("epochs must be >= 1")
        if self.record_every < 1:
            raise InvalidArgumentError("record_every must be >= 1")
        if not (self.stop_risk >= 0):
            raise InvalidArgumentError(f"stop_risk must be >= 0, got {self.stop_risk!r}")


@dataclass
class TrainTrace:
    """Per-recorded-epoch quantities of one run.

    ``theta_norm`` is the L2 distance of the parameters from the starting
    point theta0.  ``theta_gap_ref`` / ``cos_ref`` are filled only when a
    reference parameter vector / unit direction is supplied; the cosine is
    measured between theta/||theta|| and the reference direction.
    ``stop_reason`` is "stop_risk" when the risk reached the config's
    stop_risk, "epoch_budget" when the run made all its epochs and
    "diverged" on a non-finite risk; ``epochs_run`` counts the steps made.
    ``probe_outputs`` is None without probe points, else (epochs_run + 1)
    x T: row t holds the outputs at the T probe points at epoch t.  It is a
    view of the batch's epochs x T x R buffer, not a copy.
    """

    scheme: str
    theta0: np.ndarray
    n_groups: int
    epochs: list[int] = field(default_factory=list)
    weighted_risk: list[float] = field(default_factory=list)
    risk: list[float] = field(default_factory=list)
    group_risks: list[np.ndarray] = field(default_factory=list)
    q_group: list[np.ndarray] = field(default_factory=list)
    q_snapshots: list[np.ndarray] = field(default_factory=list)
    theta_norm: list[float] = field(default_factory=list)
    theta_gap_ref: list[float] = field(default_factory=list)
    cos_ref: list[float] = field(default_factory=list)
    theta_snapshots: list[np.ndarray] = field(default_factory=list)
    config_hash: str = ""
    stop_reason: str = ""
    epochs_run: int = 0
    probe_outputs: np.ndarray | None = None

    @property
    def diverged(self) -> bool:
        return self.stop_reason == "diverged"

    def __len__(self) -> int:
        return len(self.epochs)


def _starts(model, theta0, runs: int) -> np.ndarray:
    """The p x R starts from theta0: None, one (p,) start or a p x R array."""
    if isinstance(theta0, (list, tuple)) and any(np.ndim(t) for t in theta0):
        # As an array, R starts would be R rows: transposed, silently when R = p.
        raise InvalidArgumentError("theta0 is a list of starts; pass np.column_stack(starts)")
    start = np.asarray(model.init_params() if theta0 is None else theta0, dtype=np.float64)
    p = model.n_params
    if start.shape == (p,):
        return np.repeat(start[:, None], runs, axis=1)
    if start.shape != (p, runs):
        raise InvalidArgumentError(f"theta0 of shape {start.shape}: need ({p},) or ({p}, {runs})")
    return np.ascontiguousarray(start)


def _reference(value, p: int, name: str):
    """None, or the (p,) vector that every run is measured against."""
    ref = None if value is None else as_vector(value, name)
    if ref is not None and ref.shape != (p,):
        raise InvalidArgumentError(f"{name} has {ref.shape[0]} entries for {p} parameters")
    return ref


def _blocks(cfgs: list, groups: GroupInfo) -> list:
    """(first, stop, stepper) of each block of adjacent runs that hold one
    scheme object and have a stepper; the block is columns first:stop."""
    blocks, stop = [], 0
    for _, block in groupby(cfgs, key=lambda c: id(c.scheme)):
        scheme, first, stop = cfgs[stop].scheme, stop, stop + len(list(block))
        step = scheme.stepper(groups) if stop - first == 1 else scheme.stepper(groups, stop - first)
        if step is not None:
            blocks.append((first, stop, step))
    return blocks


def _kept(blocks: list, keep: np.ndarray) -> list:
    """The blocks of the runs the boolean mask keeps, renumbered; steppers drop the rest."""
    column = np.concatenate(([0], np.cumsum(keep))).tolist()
    for first, stop, step in blocks:
        if 0 < column[stop] - column[first] < stop - first:
            step.keep(keep[first:stop])
    return [(column[first], column[stop], step) for first, stop, step in blocks
            if column[stop] > column[first]]


def train(model, data, cfg, theta0=None, theta_ref=None, ref_direction=None, probe=None):
    """Run full-batch reweighted GD.

    ``cfg`` is one TrainConfig, which gives (final_params, trace), or a list
    of R configs, which gives a list of R (final_params, trace) pairs in
    order, trained in lock step.  theta0 is None, which starts every run at
    model.init_params(), one (p,) start shared by every run, or a p x R
    array with one start per column (``np.column_stack(starts)``); a list
    of starts is an error.  theta_ref and ref_direction are each None or one
    (p,) vector that every run's trace is measured against.  Each run's
    scheme gives ``name``, ``init_state(groups)`` and ``stepper(groups)``;
    a scheme without ``stepper`` is refused before any step, and adjacent
    runs that hold one scheme object share ``stepper(groups, runs)``, which
    also gives ``keep(mask)``.  ``probe`` is None or a d x T matrix of
    points whose outputs each trace keeps (``TrainTrace.probe_outputs``).

    Each run stops once its unweighted risk drops to its stop_risk, or after
    epochs steps; its final epoch is always recorded.  A non-finite risk in
    any run aborts the call by raising DivergedError carrying that run's
    partial trace and last parameters.

    A run's risk in a batch can differ in the last bit from its risk when it
    is trained alone, because a p x R product rounds differently from a
    p x 1 one.  So a stop_risk that equals one of the run's risks exactly
    can stop it one epoch apart in a batch and alone.  So can a Group DRO
    stepper shared by r runs: its group means are one n x r product.
    """
    single = isinstance(cfg, TrainConfig)
    cfgs = [cfg] if single else list(cfg)
    runs = len(cfgs)
    if runs < 1:
        raise InvalidArgumentError("need at least one run")
    head = cfgs[0]
    shared = (head.eta, head.epochs, head.loss, head.record_every)
    if any((c.eta, c.epochs, c.loss, c.record_every) != shared for c in cfgs[1:]):
        raise InvalidArgumentError("runs trained together must share eta, epochs, loss and record_every")
    if not all(hasattr(c.scheme, "stepper") for c in cfgs):
        raise InvalidArgumentError("every run's scheme needs a stepper(groups), None for fixed weights")
    xs = as_matrix(data.X, "data matrix")
    ys = as_vector(data.Y, "targets")
    if ys.shape[0] != xs.shape[1]:
        raise InvalidArgumentError(f"{ys.shape[0]} targets for {xs.shape[1]} data columns")
    require_labels(head.loss, ys)
    probe = None if probe is None else as_matrix(probe, "probe")
    if probe is not None and probe.shape[0] != xs.shape[0]:
        raise InvalidArgumentError(f"probe needs {xs.shape[0]} rows, got {probe.shape[0]}")
    points = xs if probe is None else np.hstack([xs, probe])
    groups: GroupInfo = data.groups
    warn_outside_unit_ball(points)
    loss_fn = loss_kernels(head.loss)
    start = _starts(model, theta0, runs)
    ref = _reference(theta_ref, start.shape[0], "theta_ref")
    direction = _reference(ref_direction, start.shape[0], "ref_direction")
    traces = [TrainTrace(scheme=getattr(c.scheme, "name", "?"), theta0=start[:, r].copy(),
                         n_groups=groups.n_groups) for r, c in enumerate(cfgs)]
    finals: list = [None] * runs

    # Working set: column j of every array and list below belongs to run ids[j].
    ids = np.arange(runs)
    blocks = _blocks(cfgs, groups)
    # The block each stepper returned last, already copied into q.
    written = [None] * len(blocks)
    origin = start
    theta = origin.copy()
    mu = np.array([c.mu for c in cfgs])
    penalized = bool(mu.any())
    # Per-run scalars that are read every step stay Python floats: with a
    # handful of runs a list comparison costs less than a numpy call.
    stop_risk = [c.stop_risk for c in cfgs]
    q = np.column_stack([c.scheme.init_state(groups).q for c in cfgs])
    ycol = np.repeat(ys[:, None], runs, axis=1)
    n, eta, epochs, record_every = groups.n, head.eta, head.epochs, head.record_every
    # Probe outputs by epoch, point and run.  A trace's probe_outputs is a view of
    # its run's column, whose rows are not written again once the run stops.
    probed = None if probe is None else np.empty((epochs + 1, probe.shape[1], runs))

    def record(j: int, t: int, risk: float, losses: np.ndarray) -> None:
        r = ids[j]
        trace, th, qj, lj = traces[r], theta[:, j], q[:, j], losses[:, j]
        trace.epochs.append(t)
        trace.risk.append(risk)
        # Diverged rows keep their non-finite values verbatim.
        trace.weighted_risk.append(float(qj @ lj) if math.isfinite(risk) else risk)
        sums = np.bincount(groups.labels, weights=lj, minlength=groups.n_groups)
        trace.group_risks.append(sums / groups.sizes)
        trace.q_group.append(np.bincount(groups.labels, weights=qj, minlength=groups.n_groups))
        trace.q_snapshots.append(qj.copy())
        trace.theta_norm.append(float(np.linalg.norm(th - origin[:, j])))
        trace.theta_gap_ref.append(float(np.linalg.norm(th - ref)) if ref is not None else float("nan"))
        norm = float(np.linalg.norm(th)) if direction is not None else 0.0
        trace.cos_ref.append(float(th @ direction) / norm if norm > 0 else float("nan"))
        if cfgs[r].record_params:
            trace.theta_snapshots.append(th.copy())

    t = 0
    # Overflow on the way to divergence is expected; it is detected on the
    # risk and reported through DivergedError rather than as warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            yhat, pullback = model.vjp(theta, points)
            if probe is not None:
                probed[t][:, ids] = yhat[n:]
                yhat = yhat[:n]
            losses, dloss = loss_fn(yhat, ycol)
            risks = [total / n for total in np.add.reduce(losses).tolist()]
            if not all(map(math.isfinite, risks)):
                j = next(j for j, risk in enumerate(risks) if not math.isfinite(risk))
                record(j, t, risks[j], losses)
                trace = traces[ids[j]]
                trace.stop_reason, trace.epochs_run = "diverged", t
                trace.probe_outputs = None if probe is None else probed[: t + 1, :, ids[j]]
                raise DivergedError(f"run {ids[j]}: non-finite risk at epoch {t}",
                                    trace=trace, params=theta[:, j].copy())
            for i, (first, stop, step) in enumerate(blocks):
                qb = step(losses[:, first:stop])
                if qb is not written[i]:
                    q[:, first:stop] = written[i] = qb
            stopping = t >= epochs or any(map(operator.le, risks, stop_risk))
            if stopping:
                reached = [risk <= stop for risk, stop in zip(risks, stop_risk)]
                done = [True] * len(risks) if t >= epochs else reached
            recording = t % record_every == 0
            if recording or stopping:
                for j, risk in enumerate(risks):
                    if recording or done[j]:
                        record(j, t, risk, losses)
            if stopping:
                for j in np.flatnonzero(done):
                    r = ids[j]
                    finals[r] = theta[:, j].copy()
                    traces[r].stop_reason = "stop_risk" if reached[j] else "epoch_budget"
                    traces[r].epochs_run = t
                    traces[r].probe_outputs = None if probe is None else probed[: t + 1, :, r]
                if all(done):
                    break
            step = pullback(q * dloss)
            if t == 0 and step.flags.f_contiguous:
                # Keep theta in the order of the model's pullback, so that
                # the step reads both in one order and a WideNet reads its
                # weights as views.  No copy when R = 1.
                theta, origin = np.asfortranarray(theta), np.asfortranarray(origin)
            if stopping:
                keep = ~np.array(done)
                blocks = _kept(blocks, keep)
                written = [None] * len(blocks)
                ids, theta, origin, step = ids[keep], theta[:, keep], origin[:, keep], step[:, keep]
                q, mu, ycol = q[:, keep], mu[keep], ycol[:, keep]
                penalized = bool(mu.any())
                stop_risk = [stop for stop, d in zip(stop_risk, done) if not d]
            if penalized:
                penalty = np.subtract(theta, origin)
                penalty *= mu
                step += penalty
            step *= eta
            theta -= step
            t += 1
    pairs = list(zip(finals, traces))
    return pairs[0] if single else pairs


def safe_learning_rate(x_or_features, q_star: float) -> float:
    """Conservative step size q* lambda_min / (4 A^2), A = sum of column norms^2.

    This is the dynamic-scheme bound: with any weight sequence settling at
    minimum weight q*, reweighted GD on the squared loss contracts the
    weighted risk at every step for eta at or below this value.  lambda_min
    is the smallest eigenvalue of X^T X; rank deficiency is an error because
    the contraction argument needs linearly independent columns.
    """
    if not (0 < q_star <= 1):
        raise InvalidArgumentError("q_star must be in (0, 1]")
    x = as_matrix(x_or_features, "data matrix")
    g = gram(x)
    _, lam_min = require_full_rank(g)
    a = float(np.trace(g))
    return q_star * lam_min / (4.0 * a * a)


def compare_runs(traces: list[TrainTrace], finals: list[np.ndarray]) -> dict:
    """Pairwise final-parameter gaps and displacement-direction cosines.

    All runs must share the same starting parameters.  Cosines are between
    the normalized displacements theta - theta0 of each pair of runs.
    """
    if len(traces) != len(finals) or not traces:
        raise InvalidArgumentError("need one final parameter vector per trace")
    dims = {f.shape for f in map(np.asarray, finals)}
    if len(dims) != 1:
        raise InvalidArgumentError("mismatched parameter dimensions across runs")
    theta0 = traces[0].theta0
    for tr in traces[1:]:
        if tr.theta0.shape != theta0.shape or not np.array_equal(tr.theta0, theta0):
            raise InvalidArgumentError("runs do not share the same starting parameters")
    k = len(finals)
    gaps = np.zeros((k, k))
    cosines = np.eye(k)
    for i in range(k):
        for j in range(i + 1, k):
            gaps[i, j] = gaps[j, i] = float(np.linalg.norm(finals[i] - finals[j]))
            di, dj = finals[i] - theta0, finals[j] - theta0
            ni, nj = np.linalg.norm(di), np.linalg.norm(dj)
            c = float(di @ dj / (ni * nj)) if ni > 0 and nj > 0 else float("nan")
            cosines[i, j] = cosines[j, i] = c
    return {
        "schemes": [tr.scheme for tr in traces],
        "pairwise_gap": gaps.tolist(),
        "pairwise_cos": cosines.tolist(),
        "final_risk": [tr.risk[-1] for tr in traces],
    }
