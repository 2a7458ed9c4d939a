"""Full-batch reweighted gradient descent with trace recording.

One update step is

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
array with a column per run, and losses and weights are n x R, so
each step is one vjp and one loss kernel call for all runs.  The p x R
array takes the memory order of the model's first pullback result and keeps
it.  Each run keeps its own scheme state, which its scheme's ``update``
advances on that run's n x 1 column of losses; a ``StaticScheme`` run keeps
its weights, so its ``update`` is not called.  A run that stops leaves the
working set: its parameters, scheme state and trace no longer change while
the others go on.
A single run is the R = 1 case of the same loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergedError, InvalidArgumentError
from .linalg import as_matrix, as_vector, gram, require_full_rank
from .losses import LossKind, loss_kernels, require_labels
from .models import warn_outside_unit_ball
from .reweighting import GroupInfo, StaticScheme, repeat_state


@dataclass
class TrainConfig:
    """Hyperparameters for one training run."""

    eta: float
    epochs: int
    loss: LossKind
    scheme: object
    mu: float = 0.0
    stop_risk: float = 1e-12
    record_every: int = 1
    record_params: bool = False

    def __post_init__(self):
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
    "diverged" on a non-finite risk; ``epochs_run`` counts the updates made.
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


def _dynamic_columns(schemes: list) -> list[int]:
    """Columns whose scheme moves the weights; a StaticScheme's never change."""
    return [j for j, s in enumerate(schemes) if not isinstance(s, StaticScheme)]


def train(model, data, cfg, theta0=None, theta_ref=None, ref_direction=None):
    """Run full-batch reweighted GD.

    ``cfg`` is one TrainConfig, which gives (final_params, trace), or a list
    of R configs, which gives a list of R (final_params, trace) pairs in
    order, trained in lock step.  theta0 is None, which starts every run at
    model.init_params(), one (p,) start shared by every run, or a p x R
    array with one start per column (``np.column_stack(starts)``); a list
    of starts is an error.  theta_ref and ref_direction are each None or one
    (p,) vector that every run's trace is measured against.

    Each run stops once its unweighted risk drops to its stop_risk, or after
    epochs updates; its final epoch is always recorded.  A non-finite risk in
    any run aborts the call by raising DivergedError carrying that run's
    partial trace and last parameters.

    A run's risk in a batch can differ in the last bit from its risk when it
    is trained alone, because a p x R product rounds differently from a
    p x 1 one.  So a stop_risk that equals one of the run's risks exactly
    can stop it one epoch apart in a batch and alone.
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
    xs = as_matrix(data.X, "data matrix")
    ys = as_vector(data.Y, "targets")
    if ys.shape[0] != xs.shape[1]:
        raise InvalidArgumentError(f"{ys.shape[0]} targets for {xs.shape[1]} data columns")
    require_labels(head.loss, ys)
    groups: GroupInfo = data.groups
    warn_outside_unit_ball(xs)
    loss_fn = loss_kernels(head.loss)
    start = _starts(model, theta0, runs)
    ref = _reference(theta_ref, start.shape[0], "theta_ref")
    direction = _reference(ref_direction, start.shape[0], "ref_direction")
    traces = [TrainTrace(scheme=getattr(c.scheme, "name", "?"), theta0=start[:, r].copy(),
                         n_groups=groups.n_groups) for r, c in enumerate(cfgs)]
    finals: list = [None] * runs

    # Working set: column j of every array and list below belongs to run ids[j].
    ids = np.arange(runs)
    schemes = [c.scheme for c in cfgs]
    states = [repeat_state(s.init_state(groups), 1) for s in schemes]
    dynamic = _dynamic_columns(schemes)
    origin = start
    theta = origin.copy()
    mu = np.array([c.mu for c in cfgs])
    penalized = bool(mu.any())
    # Per-run scalars that are read every step stay Python floats: with a
    # handful of runs a list comparison costs less than a numpy call.
    stop_risk = [c.stop_risk for c in cfgs]
    q = np.hstack([state.q for state in states])
    ycol = ys[:, None]
    n, eta, epochs, record_every = groups.n, head.eta, head.epochs, head.record_every

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
            yhat, pullback = model.vjp(theta, xs)
            losses, dloss = loss_fn(yhat, ycol)
            risks = (np.add.reduce(losses) / n).tolist()
            if not all(map(math.isfinite, risks)):
                j = next(j for j, risk in enumerate(risks) if not math.isfinite(risk))
                record(j, t, risks[j], losses)
                trace = traces[ids[j]]
                trace.stop_reason, trace.epochs_run = "diverged", t
                raise DivergedError(f"run {ids[j]}: non-finite risk at epoch {t}",
                                    trace=trace, params=theta[:, j].copy())
            for j in dynamic:
                new = schemes[j].update(states[j], losses[:, j : j + 1], groups)
                if new is not states[j]:
                    states[j] = new
                    q[:, j : j + 1] = new.q
            reached = [risk <= stop for risk, stop in zip(risks, stop_risk)]
            done = [True] * len(risks) if t >= epochs else reached
            stopping = any(done)
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
                if all(done):
                    break
            step = pullback(q * dloss)
            if t == 0 and step.flags.f_contiguous:
                # Keep theta in the order of the model's pullback, so that
                # the update reads both in one order and a WideNet reads its
                # weights as views.  No copy when R = 1.
                theta, origin = np.asfortranarray(theta), np.asfortranarray(origin)
            if stopping:
                keep = ~np.array(done)
                schemes = [s for s, d in zip(schemes, done) if not d]
                states = [s for s, d in zip(states, done) if not d]
                dynamic = _dynamic_columns(schemes)
                ids, theta, origin, step = ids[keep], theta[:, keep], origin[:, keep], step[:, keep]
                q, mu = q[:, keep], mu[keep]
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
