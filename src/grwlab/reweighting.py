"""Sample reweighting schemes and diagnostics.

Static schemes (uniform ERM weights, group-balancing importance weights) and
dynamic ones (exponentiated-gradient group weights, worst-alpha-fraction CVaR
weights).  Every update returns weights on the probability simplex.  Group
DRO keeps its group weights in log space, shifted so that the largest is 0:
each step adds nu times the group risks to these logits and rebuilds g and q
from them.  Nothing is carried over from the last step's g or q, so rounding
drift cannot build up, and a group whose weight underflows to 0 keeps a
finite logit and regains weight once its risk leads again.

A scheme's ``update`` takes the per-sample losses of one run (n,) or of a
block of r runs (n x r, one column per run) and returns weights of the same
shape.  The trainer steps each run on its own n x 1 column; the paired
study in ``experiments`` steps its seeds as one block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, parse_number
from .linalg import as_vector


@dataclass(frozen=True)
class GroupInfo:
    """Per-sample group indices in {0, ..., K-1} with every group nonempty."""

    labels: np.ndarray
    sizes: np.ndarray = field(init=False)
    mean_map: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.ndim != 1 or labels.shape[0] < 1:
            raise InvalidArgumentError("group labels must be a non-empty 1-D sequence")
        if labels.min() < 0:
            raise InvalidArgumentError("group labels must be non-negative")
        k = int(labels.max()) + 1
        sizes = np.bincount(labels, minlength=k)
        if np.any(sizes == 0):
            raise InvalidArgumentError("every group must be nonempty")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "sizes", sizes)
        # n x K one-hot matrix scaled by 1/n_k: mean_map.T @ losses gives the
        # group means of every run at once, mean_map @ g spreads group
        # weights to samples as g_k / n_k.
        onehot = labels[:, None] == np.arange(k)
        object.__setattr__(self, "mean_map", onehot / sizes)

    @property
    def n(self) -> int:
        return int(self.labels.shape[0])

    @property
    def n_groups(self) -> int:
        return int(self.sizes.shape[0])


def group_means(values, groups: GroupInfo) -> np.ndarray:
    """Per-group means of a per-sample vector."""
    values = as_vector(values, "per-sample values")
    if values.shape[0] != groups.n:
        raise InvalidArgumentError("value length does not match the group labels")
    sums = np.bincount(groups.labels, weights=values, minlength=groups.n_groups)
    return sums / groups.sizes


@dataclass(frozen=True)
class WeightState:
    """Simplex weights over samples, plus group weights for Group DRO runs.

    A Group DRO state holds its group weights g and their logits: log g
    shifted so that the largest is 0, from which each update works.  A state
    built from g alone takes its logits from g.  For a block of r runs, q is
    n x r and gdro_g and gdro_logits are K x r.
    """

    q: np.ndarray
    gdro_g: np.ndarray | None = None
    gdro_logits: np.ndarray | None = None

    def __post_init__(self):
        if self.gdro_g is not None and self.gdro_logits is None:
            with np.errstate(divide="ignore"):  # a zero weight is a logit of -inf
                logits = np.log(self.gdro_g)
            object.__setattr__(self, "gdro_logits", logits - np.maximum.reduce(logits))


def _map_state(state: WeightState, fn) -> WeightState:
    return WeightState(*(None if a is None else fn(a)
                         for a in (state.q, state.gdro_g, state.gdro_logits)))


def repeat_state(state: WeightState, runs: int) -> WeightState:
    """The joint state of ``runs`` runs that start at one run's state."""
    return _map_state(state, lambda a: np.repeat(a[:, None], runs, axis=1))


def take_runs(state: WeightState, runs) -> WeightState:
    """The joint state restricted to some of its runs (columns)."""
    return _map_state(state, lambda a: a[:, runs])


def _renormalized(q: np.ndarray) -> np.ndarray:
    if np.any(q < 0) or not np.all(np.isfinite(q)):
        raise InvalidArgumentError("weights must be finite and non-negative")
    total = q.sum()
    if total <= 0:
        raise InvalidArgumentError("weights must have positive mass")
    return q / total


def erm_weights(n: int) -> WeightState:
    """Uniform weights 1/n."""
    if n < 1:
        raise InvalidArgumentError("n must be >= 1")
    return WeightState(q=np.full(n, 1.0 / n))


def iw_weights(groups: GroupInfo) -> WeightState:
    """Importance weights 1/(K * n_k): every group carries the same total mass."""
    q = 1.0 / (groups.n_groups * groups.sizes[groups.labels])
    return WeightState(q=_renormalized(q))


def gdro_init(groups: GroupInfo) -> WeightState:
    """Starting state for Group DRO: uniform group weights."""
    g = np.full(groups.n_groups, 1.0 / groups.n_groups)
    return WeightState(q=groups.mean_map @ g, gdro_g=g)


def _gdro_core(logits: np.ndarray, risks: np.ndarray, nu: float, groups: GroupInfo) -> WeightState:
    # Subtracting the largest logit makes the update exactly invariant to
    # adding a constant to all group risks, and keeps every exponent <= 0.
    # Columns are runs, and the reductions run down each column.  q sums to
    # sum(g) = 1 up to rounding, so it needs no renormalization of its own.
    logits = logits + nu * risks
    logits -= np.maximum.reduce(logits)
    g = np.exp(logits)
    g /= np.add.reduce(g)
    return WeightState(q=groups.mean_map @ g, gdro_g=g, gdro_logits=logits)


def _check_nu(nu: float) -> None:
    # An infinite step size would surface as a divergence of the training
    # run instead of as the invalid input it is.
    if not (nu > 0) or not math.isfinite(nu):
        raise InvalidArgumentError(f"nu must be a positive finite float, got {nu!r}")


def gdro_step(state: WeightState, group_risks, nu: float, groups: GroupInfo) -> WeightState:
    """One exponentiated-gradient update of the group weights.

    g_k <- g_k * exp(nu * risk_k), renormalized onto the simplex, and the
    sample weights become q_i = g_k / n_k for sample i in group k.  The
    update runs on the state's logits: log g_k + nu * risk_k, shifted so that
    the largest is 0.
    """
    _check_nu(nu)
    risks = as_vector(group_risks, "group risks")
    if risks.shape[0] != groups.n_groups:
        raise InvalidArgumentError("group risk length does not match the number of groups")
    if state.gdro_logits is None:
        raise InvalidArgumentError("state has no group weights; initialize with gdro_init")
    return _gdro_core(state.gdro_logits, risks, nu, groups)


def cvar_weights(per_sample_losses, alpha: float) -> WeightState:
    """Uniform weight on the ceil(alpha*n) largest losses, zero elsewhere.

    Ties at the cutoff are broken toward the lowest sample index, which keeps
    golden traces deterministic.  This top-m rule lives only in
    ``_cvar_core``: CvarScheme's updates and the cvar summary of
    ``oracles.robust_risks`` both take it from there.
    """
    losses = as_vector(per_sample_losses, "per-sample losses")
    if not (0.0 < alpha <= 1.0):
        raise InvalidArgumentError("alpha must be in (0, 1]")
    return WeightState(q=_cvar_core(losses, alpha))


def _cvar_core(losses: np.ndarray, alpha: float) -> np.ndarray:
    n = losses.shape[0]
    m = math.ceil(alpha * n)
    # Stable sort on -losses keeps the original order among equal losses,
    # column by column for a block of runs.
    block = losses.reshape(n, -1)
    order = np.argsort(-block, axis=0, kind="stable")
    q = np.zeros(block.shape)
    q[order[:m], np.arange(block.shape[1])] = 1.0 / m
    q /= np.add.reduce(q)
    return q.reshape(losses.shape)


def check_assumption1(weight_history, window: int = 1000, tol: float = 1e-4):
    """Diagnose whether the weights have settled at a strictly positive point.

    Over the trailing ``window`` steps, the per-coordinate oscillation
    (max minus min) must stay within ``tol`` and the trailing mean must have a
    strictly positive minimum coordinate.  Returns (satisfied, q_star, t_eps)
    where q_star is that minimum and t_eps is the first history step such
    that every window ending at or after it oscillates at most ``tol``
    (0 when every window is settled, len(history) when the last one is not).
    """
    hist = np.asarray(weight_history, dtype=np.float64)
    if hist.ndim != 2 or hist.shape[0] < window:
        raise InvalidArgumentError(
            f"need a 2-D history with at least window={window} rows, got shape {hist.shape}"
        )
    steps = hist.shape[0]
    osc = (_sliding(np.maximum, hist, window, -np.inf)
           - _sliding(np.minimum, hist, window, np.inf)).max(axis=1)
    tail_mean = hist[-window:].mean(axis=0)
    q_star = max(float(tail_mean.min()), 0.0)
    settled = osc <= tol
    satisfied = bool(settled[-1]) and q_star > 0.0
    if np.all(settled):
        t_eps = 0
    elif bool(settled[-1]):
        t_eps = int(np.nonzero(~settled)[0][-1] + window)
    else:
        t_eps = steps
    return satisfied, q_star, t_eps


def _sliding(op, hist: np.ndarray, window: int, fill: float) -> np.ndarray:
    """op (np.maximum or np.minimum) over every window of consecutive rows.

    van Herk / Gil-Werman: cut the rows into blocks of ``window`` rows; a
    window then spans the tail of one block and the head of the next, so its
    result is op(suffix scan at its start, prefix scan at its end).  O(steps)
    instead of O(steps * window), and exact since op only selects values.
    ``fill`` pads the last block with op's identity.
    """
    steps, n = hist.shape
    blocks = -(-steps // window)
    padded = np.full((blocks * window, n), fill)
    padded[:steps] = hist
    padded = padded.reshape(blocks, window, n)
    prefix = op.accumulate(padded, axis=1).reshape(-1, n)
    suffix = op.accumulate(padded[:, ::-1], axis=1)[:, ::-1].reshape(-1, n)
    count = steps - window + 1
    return op(suffix[:count], prefix[window - 1 : window - 1 + count])


class StaticScheme:
    """Weights fixed for the whole run (ERM or importance weighting).

    ``kind`` is "erm" or "iw", and is also the scheme's name.  ``update``
    returns its state unchanged, so ``train`` skips the call.
    """

    def __init__(self, kind: str):
        self.name = kind

    def init_state(self, groups: GroupInfo) -> WeightState:
        if self.name == "erm":
            return erm_weights(groups.n)
        return iw_weights(groups)

    def update(self, state: WeightState, per_sample_losses, groups: GroupInfo) -> WeightState:
        return state


class GroupDroScheme:
    """Exponentiated-gradient group weights recomputed from full-batch risks."""

    def __init__(self, nu: float):
        _check_nu(nu)
        self.nu = nu
        self.name = f"gdro:{nu:g}"

    def init_state(self, groups: GroupInfo) -> WeightState:
        return gdro_init(groups)

    def update(self, state: WeightState, per_sample_losses, groups: GroupInfo) -> WeightState:
        # Hot path of the training loop: the update of gdro_step on the group
        # means, without the argument checks.  The caller has checked that
        # the risk, and so every group risk, is finite.
        return _gdro_core(state.gdro_logits, groups.mean_map.T @ per_sample_losses, self.nu, groups)


class CvarScheme:
    """Uniform weight on the worst alpha-fraction of sample losses each epoch."""

    def __init__(self, alpha: float):
        if not (0.0 < alpha <= 1.0):
            raise InvalidArgumentError("alpha must be in (0, 1]")
        self.alpha = alpha
        self.name = f"cvar:{alpha:g}"

    def init_state(self, groups: GroupInfo) -> WeightState:
        return erm_weights(groups.n)

    def update(self, state: WeightState, per_sample_losses, groups: GroupInfo) -> WeightState:
        # Hot path: cvar_weights without the argument re-validation.
        return WeightState(q=_cvar_core(per_sample_losses, self.alpha))


def parse_scheme(text: str):
    """Parse "erm", "iw", "gdro:<nu>" or "cvar:<alpha>"."""
    parts = text.strip().lower().split(":")
    if parts[0] in ("erm", "iw") and len(parts) == 1:
        return StaticScheme(parts[0])
    if parts[0] == "gdro" and len(parts) == 2:
        return GroupDroScheme(parse_number(parts[1], float, f"scheme spec {text!r}"))
    if parts[0] == "cvar" and len(parts) == 2:
        return CvarScheme(parse_number(parts[1], float, f"scheme spec {text!r}"))
    raise InvalidArgumentError(f"unknown scheme spec: {text!r}")
