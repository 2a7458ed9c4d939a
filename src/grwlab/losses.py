"""Scalar losses and their derivatives in the prediction.

Three families: squared error for regression, the canonical logistic loss and
a polynomially-tailed classification loss whose right tail decays like a
power law instead of an exponential.  All functions are vectorized over
``yhat``/``y`` and stateless.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import InvalidArgumentError, parse_number


@dataclass(frozen=True)
class Squared:
    """loss(yhat, y) = (yhat - y)^2 / 2."""


@dataclass(frozen=True)
class Logistic:
    """loss(yhat, y) = log(1 + exp(-yhat * y)) with labels y in {-1, +1}."""


@dataclass(frozen=True)
class PolyTailed:
    """Power-law-tailed classification loss with labels in {-1, +1}.

    For margin m = yhat * y:
      m >= beta: 1 / (m - (beta - 1))**alpha
      m <  beta: logistic(m) shifted by (1 - log(1 + exp(-beta))) so that the
                 two branches meet continuously at m = beta.

    The shift gives C0 continuity only; the derivative jumps at beta.
    """

    alpha: float
    beta: float = 0.0

    def __post_init__(self):
        if not (self.alpha > 0):
            raise InvalidArgumentError(f"alpha must be positive, got {self.alpha}")
        if not np.isfinite(self.alpha) or not np.isfinite(self.beta):
            raise InvalidArgumentError("alpha and beta must be finite")


LossKind = Union[Squared, Logistic, PolyTailed]


def parse_loss(text: str) -> LossKind:
    """Parse "squared", "logistic" or "polytailed:<alpha>:<beta>"."""
    parts = text.strip().lower().split(":")
    if parts[0] == "squared" and len(parts) == 1:
        return Squared()
    if parts[0] == "logistic" and len(parts) == 1:
        return Logistic()
    if parts[0] == "polytailed" and len(parts) == 3:
        what = f"loss spec {text!r}"
        alpha, beta = (parse_number(v, float, what) for v in parts[1:])
        return PolyTailed(alpha=alpha, beta=beta)
    raise InvalidArgumentError(f"unknown loss spec: {text!r}")


def loss_name(kind: LossKind) -> str:
    if isinstance(kind, Squared):
        return "squared"
    if isinstance(kind, Logistic):
        return "logistic"
    return f"polytailed:{kind.alpha:g}:{kind.beta:g}"


def require_labels(kind: LossKind, y: np.ndarray) -> None:
    """Raise unless the classification labels are exactly -1 or +1.

    Squared-loss targets may be any real numbers.
    """
    if not isinstance(kind, Squared) and not np.all(np.abs(y) == 1.0):
        raise InvalidArgumentError("classification labels must be exactly -1 or +1")


def _logistic_value(m: np.ndarray) -> np.ndarray:
    # log(1 + exp(-m)) = log1p(exp(-|m|)) + max(0, -m); stable for |m| up to 1e6+.
    return np.log1p(np.exp(-np.abs(m))) + np.maximum(0.0, -m)


def _squared(yhat, y):
    r = yhat - y
    value = r * r
    value *= 0.5
    return value, r


def loss_kernels(kind: LossKind):
    """The value-and-gradient kernel of a loss: one function of float64
    arrays (yhat, y) returning (loss, dloss/dyhat), without checks.

    For callers that validated the labels once up front with
    ``require_labels``; ``loss_value`` and ``loss_grad`` are the checked
    entry points and each return their half of the same kernel.  Both halves
    share the work they have in common: the residual for the squared loss,
    the margin m for the logistic one, and m, the branch mask and the power
    base for the polynomially-tailed one, which skips its logistic branch
    when no margin is below beta.

    SciPy's ``expit`` is imported here, once per call, for the two
    classification losses only: a squared-loss run never loads SciPy.
    """
    if isinstance(kind, Squared):
        return _squared
    from scipy.special import expit

    if isinstance(kind, Logistic):

        def logistic(yhat, y):
            m = yhat * y
            return _logistic_value(m), -y * expit(-m)

        return logistic
    alpha, beta = kind.alpha, kind.beta
    shift = 1.0 - _logistic_value(np.asarray(beta))

    def value_and_grad(yhat, y):
        m = yhat * y
        below = m < beta
        base = np.maximum(m - (beta - 1.0), 1.0)
        if not below.any():
            # What the np.where calls below give when no margin is below beta.
            return np.power(base, -alpha), -y * (alpha * np.power(base, -(alpha + 1.0)))
        value = np.where(below, _logistic_value(m) + shift, np.power(base, -alpha))
        # -dloss/dm on each branch.  Labels are exactly -1 or +1, so taking
        # the factor -y out of the np.where changes no bit.
        slope = np.where(below, expit(-m), alpha * np.power(base, -(alpha + 1.0)))
        return value, -y * slope

    return value_and_grad


def _checked(kind: LossKind, yhat, y, half: int):
    y = np.asarray(y, dtype=np.float64)
    require_labels(kind, y)
    out = loss_kernels(kind)(np.asarray(yhat, dtype=np.float64), y)[half]
    return out if out.ndim else float(out)


def loss_value(kind: LossKind, yhat, y):
    """Pointwise loss; scalar in, scalar out; arrays broadcast elementwise."""
    return _checked(kind, yhat, y, 0)


def loss_grad(kind: LossKind, yhat, y):
    """Derivative of loss_value with respect to yhat."""
    return _checked(kind, yhat, y, 1)
