"""Sample reweighting schemes and diagnostics.

Static schemes (uniform ERM weights, group-balancing importance weights) and
dynamic ones (exponentiated-gradient group weights, worst-alpha-fraction CVaR
weights).  Every update returns weights on the probability simplex.  Group
DRO keeps its group weights in log space, shifted so that the largest is 0:
each step adds nu times the group risks to these logits and rebuilds g and q
from them.  Nothing is carried over from the last step's g or q, so rounding
drift cannot build up, and a group whose weight underflows to 0 keeps a
finite logit and regains weight once its risk leads again.  That step is
written once, on Python floats, in two halves: ``_gdro_logits`` steps the
logits and ``_gdro_weights`` turns logits into group weights.  The weights
depend on the logit values alone, so a stepper whose logits come out of a
step unchanged, as they do once Group DRO's weights settle in floating
point, hands back the block of weights it returned last.

A dynamic scheme's ``stepper(groups, runs)`` is built once for r runs that
step together and maps their n x r block of losses to their n x r block of
weights on every step; its ``keep(mask)`` drops the runs that stopped.  The
trainer builds one stepper for each block of adjacent runs that hold one
scheme object, such as the seeds of the paired study in ``experiments``,
and calls nothing else per step.  A static scheme's stepper is None.  A
scheme's ``update`` takes one run's ``WeightState`` and its (n,) per-sample
losses and returns the next state.  Training never calls it: it is the
one-run form that the steppers are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, as_int, parse_number
from .linalg import as_matrix, as_vector


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
    built from g alone takes its logits from g.  A state is one run's: q is
    (n,) and gdro_g and gdro_logits are (K,).
    """

    q: np.ndarray
    gdro_g: np.ndarray | None = None
    gdro_logits: np.ndarray | None = None

    def __post_init__(self):
        if self.gdro_g is not None and self.gdro_logits is None:
            with np.errstate(divide="ignore"):  # a zero weight is a logit of -inf
                logits = np.log(self.gdro_g)
            object.__setattr__(self, "gdro_logits", logits - np.maximum.reduce(logits))


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


def _gdro_logits(logits: list, risks: list, nu: float) -> list:
    """One exponentiated-gradient step of r runs' logits, on Python floats.

    ``logits`` holds each run's K max-shifted log group weights and
    ``risks`` its K group risks, one list per run.  Returns the runs' new
    logits, again one list of K per run.  Subtracting the largest logit
    makes the step exactly invariant to adding a constant to all of a run's
    risks, and keeps every exponent <= 0.
    """
    shifted = []
    for run_logits, run_risks in zip(logits, risks):
        z = [a + nu * r for a, r in zip(run_logits, run_risks)]
        top = max(z)
        shifted.append([v - top for v in z])
    return shifted


def _gdro_weights(logits: list) -> list:
    """The group weights g of r runs from their max-shifted logits.

    One np.exp call covers every run.  Each run's exponentials are summed in
    group order, one addition at a time, as numpy sums fewer than 8 numbers;
    q sums to sum(g) = 1 up to rounding and needs no renormalization of its
    own.
    """
    weights = []
    for e in np.exp(logits).tolist():
        total = 0.0
        for v in e:
            total += v
        weights.append([v / total for v in e])
    return weights


def _gdro_state(logits: np.ndarray, risks: np.ndarray, nu: float, groups: GroupInfo) -> WeightState:
    """One Group DRO step of one run's (K,) logits and (K,) group risks."""
    k = groups.n_groups
    if logits.shape != (k,) or risks.shape != (k,):
        raise InvalidArgumentError(
            f"one run's group logits and risks must be ({k},), got {logits.shape} and {risks.shape}")
    [new] = _gdro_logits([logits.tolist()], [risks.tolist()], nu)
    [g] = _gdro_weights([new])
    return WeightState(q=groups.mean_map.dot(g), gdro_g=np.array(g), gdro_logits=np.array(new))


class _GroupDroStepper:
    """The Group DRO weights of r runs that step together.

    Each run's K logits stay Python floats between steps; a step replaces
    the lists and never changes one in place.  A call takes the runs' n x r
    block of losses and returns their n x r block of weights.  The block is
    read-only: a step whose new logits compare equal to the old ones returns
    the same block object again, without recomputing it.
    """

    def __init__(self, nu: float, groups: GroupInfo, runs: int):
        self.nu = nu
        self._means, self._spread = groups.mean_map.T, groups.mean_map
        self.logits = [gdro_init(groups).gdro_logits.tolist()] * runs
        self._q = self._block(self.logits)

    def _block(self, logits: list) -> np.ndarray:
        q = self._spread.dot(np.array(_gdro_weights(logits)).T)
        q.flags.writeable = False
        return q

    def __call__(self, losses: np.ndarray) -> np.ndarray:
        logits = _gdro_logits(self.logits, self._means.dot(losses).T.tolist(), self.nu)
        if logits != self.logits:
            self.logits, self._q = logits, self._block(logits)
        return self._q

    def keep(self, runs: np.ndarray) -> None:
        """Go on with the runs whose entry of the boolean mask is True."""
        self.logits = [z for z, kept in zip(self.logits, runs) if kept]
        self._q = self._q[:, runs]
        self._q.flags.writeable = False


def _check_nu(nu: float) -> None:
    # An infinite step size would surface as a divergence of the training
    # run instead of as the invalid input it is.
    if not (nu > 0) or not math.isfinite(nu):
        raise InvalidArgumentError(f"nu must be a positive finite float, got {nu!r}")


def gdro_step(state: WeightState, group_risks, nu: float, groups: GroupInfo) -> WeightState:
    """One exponentiated-gradient update of one run's group weights.

    g_k <- g_k * exp(nu * risk_k), renormalized onto the simplex, and the
    sample weights become q_i = g_k / n_k for sample i in group k.  The
    update runs on the state's logits: log g_k + nu * risk_k, shifted so that
    the largest is 0.
    """
    _check_nu(nu)
    risks = as_vector(group_risks, "group risks")
    if state.gdro_logits is None:
        raise InvalidArgumentError("state has no group weights; initialize with gdro_init")
    return _gdro_state(state.gdro_logits, risks, nu, groups)


def cvar_weights(per_sample_losses, alpha: float) -> WeightState:
    """Weight 1/m on each of the m = ceil(alpha*n) largest losses, zero elsewhere.

    When losses tie at the cut, the weight left after the losses above the
    m-th largest is split evenly among every sample whose loss equals it, so
    the weights follow the samples under any reordering.  This top-m rule
    lives only in ``_cvar_core``: CvarScheme's updates and steppers and the
    cvar summary of ``oracles.robust_risks`` all take it from there.
    """
    losses = as_vector(per_sample_losses, "per-sample losses")
    if not (0.0 < alpha <= 1.0):
        raise InvalidArgumentError("alpha must be in (0, 1]")
    return WeightState(q=_cvar_core(losses, alpha))


def _cvar_core(losses: np.ndarray, alpha: float) -> np.ndarray:
    n = losses.shape[0]
    m = math.ceil(alpha * n)
    # Column by column for a block of runs: the m-th largest loss is the cut,
    # and every loss at or above it gets 1/m.
    block = losses.reshape(n, -1)
    ranked = np.sort(block, axis=0)
    cut = ranked[n - m]
    q = np.zeros(block.shape)
    q[block >= cut] = 1.0 / m
    if m < n:
        # A tie across the cut (the (m+1)-th largest equals the m-th) gives
        # more than m losses at or above it: those at the cut share what the
        # losses above it leave.
        for j, (below, at) in enumerate(zip(ranked[n - m - 1].tolist(), cut.tolist())):
            if below == at:
                column = block[:, j]
                tied = column == at
                q[tied, j] = (m - np.count_nonzero(column > at)) / (m * np.count_nonzero(tied))
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

    The sliding max and min are van Herk's and Gil & Werman's: cut the rows
    into blocks of ``window`` rows; a window then spans the tail of one block
    and the head of the next, so its max is the max of the block's suffix max
    at its start and the next block's prefix max at its end.  The blocks are
    taken one at a time, so besides the finiteness check's boolean copy of
    the history the scratch is a few window x n blocks.  Max and min only
    select values, so the oscillations are exact.  The history must be a
    finite 2-D array with at least ``window`` rows, ``window`` an integer
    >= 1 and ``tol`` a finite number >= 0; anything else raises
    InvalidArgumentError naming the argument.
    """
    window = as_int(window, "window")
    if window < 1:
        raise InvalidArgumentError(f"window must be >= 1, got {window}")
    if not (tol >= 0) or not math.isfinite(tol):
        raise InvalidArgumentError(f"tol must be a finite float >= 0, got {tol!r}")
    hist = as_matrix(weight_history, "weight history")
    steps = hist.shape[0]
    if steps < window:
        raise InvalidArgumentError(
            f"weight history needs at least window={window} rows, got shape {hist.shape}"
        )
    osc = np.empty(steps - window + 1)
    for start in range(0, osc.size, window):
        # Windows starting in rows start .. start + k - 1 end in the next
        # block's first k - 1 rows.
        k = min(window, osc.size - start)
        block = hist[start : start + window][::-1]
        head = hist[start + window : start + window + k - 1]
        hi = np.maximum.accumulate(block)[::-1][:k]
        np.maximum(hi[1:], np.maximum.accumulate(head), out=hi[1:])
        lo = np.minimum.accumulate(block)[::-1][:k]
        np.minimum(lo[1:], np.minimum.accumulate(head), out=lo[1:])
        np.subtract(hi, lo, out=hi)
        hi.max(axis=1, out=osc[start : start + k])
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


class StaticScheme:
    """Weights fixed for the whole run (ERM or importance weighting).

    ``kind`` is "erm" or "iw", and is also the scheme's name.  It has no
    stepper, and ``update`` returns its state unchanged.
    """

    def __init__(self, kind: str):
        self.name = kind

    def init_state(self, groups: GroupInfo) -> WeightState:
        if self.name == "erm":
            return erm_weights(groups.n)
        return iw_weights(groups)

    def stepper(self, groups: GroupInfo, runs: int = 1) -> None:
        return None

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

    def stepper(self, groups: GroupInfo, runs: int = 1) -> _GroupDroStepper:
        return _GroupDroStepper(self.nu, groups, runs)

    def update(self, state: WeightState, per_sample_losses, groups: GroupInfo) -> WeightState:
        # The step of gdro_step on the group means of one run's (n,) losses.
        return _gdro_state(state.gdro_logits, groups.mean_map.T.dot(per_sample_losses), self.nu, groups)


class _CvarStepper:
    """CVaR weights of r runs: each step's weights depend on its losses only."""

    def __init__(self, alpha: float):
        self.alpha = alpha

    def __call__(self, losses: np.ndarray) -> np.ndarray:
        return _cvar_core(losses, self.alpha)

    def keep(self, runs: np.ndarray) -> None:
        pass


class CvarScheme:
    """Uniform weight on the worst alpha-fraction of sample losses each epoch."""

    def __init__(self, alpha: float):
        if not (0.0 < alpha <= 1.0):
            raise InvalidArgumentError("alpha must be in (0, 1]")
        self.alpha = alpha
        self.name = f"cvar:{alpha:g}"

    def init_state(self, groups: GroupInfo) -> WeightState:
        return erm_weights(groups.n)

    def stepper(self, groups: GroupInfo, runs: int = 1) -> _CvarStepper:
        return _CvarStepper(self.alpha)

    def update(self, state: WeightState, per_sample_losses, groups: GroupInfo) -> WeightState:
        # cvar_weights without the argument re-validation.
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
