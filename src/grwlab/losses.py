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
from scipy.special import expit

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
    return 0.5 * (yhat - y) ** 2


def _squared_grad(yhat, y):
    return yhat - y


def _logistic(yhat, y):
    return _logistic_value(yhat * y)


def _logistic_grad(yhat, y):
    return -y * expit(-(yhat * y))


def loss_kernels(kind: LossKind):
    """(value, grad) functions of (yhat, y) float64 arrays, without checks.

    For callers that validated the labels once up front with
    ``require_labels``; ``loss_value`` and ``loss_grad`` are the checked
    entry points and compute the same numbers.
    """
    if isinstance(kind, Squared):
        return _squared, _squared_grad
    if isinstance(kind, Logistic):
        return _logistic, _logistic_grad
    alpha, beta = kind.alpha, kind.beta
    shift = 1.0 - _logistic_value(np.asarray(beta))

    def value(yhat, y):
        m = yhat * y
        left = _logistic_value(m) + shift
        right = np.power(np.maximum(m - (beta - 1.0), 1.0), -alpha)
        return np.where(m < beta, left, right)

    def grad(yhat, y):
        m = yhat * y
        left = -y * expit(-m)
        base = np.maximum(m - (beta - 1.0), 1.0)
        right = -y * alpha * np.power(base, -(alpha + 1.0))
        return np.where(m < beta, left, right)

    return value, grad


def loss_value(kind: LossKind, yhat, y):
    """Pointwise loss; scalar in, scalar out; arrays broadcast elementwise."""
    y = np.asarray(y, dtype=np.float64)
    require_labels(kind, y)
    out = loss_kernels(kind)[0](np.asarray(yhat, dtype=np.float64), y)
    return out if out.ndim else float(out)


def loss_grad(kind: LossKind, yhat, y):
    """Derivative of loss_value with respect to yhat."""
    y = np.asarray(y, dtype=np.float64)
    require_labels(kind, y)
    out = loss_kernels(kind)[1](np.asarray(yhat, dtype=np.float64), y)
    return out if out.ndim else float(out)
