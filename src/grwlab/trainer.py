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
labels for the classification losses); the step runs unchecked kernels.

A single run is strictly sequential; independent runs share only immutable
data and may execute concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergedError, InvalidArgumentError
from .linalg import as_matrix, as_vector, extreme_eigenvalues, gram
from .losses import LossKind, loss_kernels, require_labels
from .reweighting import GroupInfo, group_means

_BALL_TOL = 1e-9


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
    seed: int = 0

    def __post_init__(self):
        if not (self.eta > 0) or not math.isfinite(self.eta):
            raise InvalidArgumentError("eta must be a positive finite float")
        if self.mu < 0:
            raise InvalidArgumentError("mu must be >= 0")
        if self.epochs < 1:
            raise InvalidArgumentError("epochs must be >= 1")
        if self.record_every < 1:
            raise InvalidArgumentError("record_every must be >= 1")
        if self.stop_risk < 0:
            raise InvalidArgumentError("stop_risk must be >= 0")


@dataclass
class TrainTrace:
    """Per-recorded-epoch quantities of one run.

    ``theta_norm`` is the L2 distance of the parameters from the starting
    point theta0.  ``theta_gap_ref`` / ``cos_ref`` are filled only when a
    reference parameter vector / unit direction is supplied; the cosine is
    measured between theta/||theta|| and the reference direction.
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
    diverged: bool = False

    def __len__(self) -> int:
        return len(self.epochs)


def _check_ball(xs: np.ndarray) -> None:
    import warnings

    norms = np.linalg.norm(xs, axis=0)
    if norms.max(initial=0.0) > 1.0 + _BALL_TOL:
        warnings.warn(
            f"data column norm {norms.max():.6g} exceeds the unit ball", stacklevel=3
        )


def train(model, data, cfg: TrainConfig, theta0=None, theta_ref=None, ref_direction=None):
    """Run full-batch reweighted GD; returns (final_params, trace).

    Stops early once the unweighted risk drops to cfg.stop_risk.  The final
    epoch is always recorded.  A non-finite risk aborts the run by raising
    DivergedError carrying the partial trace and last parameters.
    """
    xs = as_matrix(data.X, "data matrix")
    ys = as_vector(data.Y, "targets")
    if ys.shape[0] != xs.shape[1]:
        raise InvalidArgumentError(f"{ys.shape[0]} targets for {xs.shape[1]} data columns")
    require_labels(cfg.loss, ys)
    groups: GroupInfo = data.groups
    _check_ball(xs)
    value_fn, grad_fn = loss_kernels(cfg.loss)
    theta = (model.init_params(cfg.seed) if theta0 is None else np.array(theta0, dtype=np.float64)).copy()
    start = theta.copy()
    state = cfg.scheme.init_state(groups)
    trace = TrainTrace(scheme=getattr(cfg.scheme, "name", "?"), theta0=start, n_groups=groups.n_groups)

    def record(t: int, risk: float, wrisk: float, losses: np.ndarray, q: np.ndarray) -> None:
        trace.epochs.append(t)
        trace.risk.append(risk)
        trace.weighted_risk.append(wrisk)
        if math.isfinite(risk):
            trace.group_risks.append(group_means(losses, groups))
        else:
            # Diverged rows keep their non-finite values verbatim.
            sums = np.bincount(groups.labels, weights=losses, minlength=groups.n_groups)
            trace.group_risks.append(sums / groups.sizes)
        trace.q_group.append(np.bincount(groups.labels, weights=q, minlength=groups.n_groups))
        trace.q_snapshots.append(q.copy())
        disp = theta - start
        trace.theta_norm.append(float(np.linalg.norm(disp)))
        if theta_ref is not None:
            trace.theta_gap_ref.append(float(np.linalg.norm(theta - theta_ref)))
        else:
            trace.theta_gap_ref.append(float("nan"))
        if ref_direction is not None:
            norm = float(np.linalg.norm(theta))
            trace.cos_ref.append(float(theta @ ref_direction) / norm if norm > 0 else float("nan"))
        else:
            trace.cos_ref.append(float("nan"))
        if cfg.record_params:
            trace.theta_snapshots.append(theta.copy())

    last_recorded = -1
    t = 0
    # Overflow on the way to divergence is expected; it is detected on the
    # risk and reported through DivergedError rather than as warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            yhat, pullback = model.vjp(theta, xs)
            losses = value_fn(yhat, ys)
            risk = float(losses.mean())
            finite = math.isfinite(risk)
            if finite:
                state = cfg.scheme.update(state, losses, groups)
            q = state.q
            wrisk = float(q @ losses) if finite else risk
            stop = (not finite) or risk <= cfg.stop_risk or t >= cfg.epochs
            if t % cfg.record_every == 0 or stop:
                if t != last_recorded:
                    record(t, risk, wrisk, losses, q)
                    last_recorded = t
            if stop:
                if not finite:
                    trace.diverged = True
                    raise DivergedError(f"non-finite risk at epoch {t}", trace=trace, params=theta)
                break
            step = pullback(q * grad_fn(yhat, ys))
            if cfg.mu > 0:
                step = step + cfg.mu * (theta - start)
            theta = theta - cfg.eta * step
            t += 1
    return theta, trace


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
    lam_max, lam_min = extreme_eigenvalues(g, 1e-12)
    from .errors import RankDeficientError

    if lam_max <= 0 or lam_min < 1e-12 * lam_max:
        raise RankDeficientError("columns are not linearly independent")
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
