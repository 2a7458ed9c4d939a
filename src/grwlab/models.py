"""Model classes: linear, wide NTK-parameterized MLP, and its linearization.

The MLP follows the width-scaled recursion

    h^{l+1} = W^l x^l / sqrt(d_l) + beta * b^l,   x^{l+1} = sigma(h^{l+1})

for l = 0..L with scalar output f(x) = h^{L+1}.  Initialization draws every
entry of W^0..W^{L-1} and b^0..b^L from N(0, 1) and sets the output-layer
weight block W^L to exactly zero, so the initial function is the constant
beta * b^L.  Parameters live in one flat float64 vector with a per-layer
layout map, so the trainer and oracles treat every model uniformly as a
point in R^p.

Every scaling by 1/sqrt(d_l), forward and backward, goes through one
helper, ``_div_sqrt``.  It multiplies by 1/sqrt(d_l) when sqrt(d_l) is a
power of two, as at widths 64, 256 and 1024: the reciprocal is then exact
and the product is the same float64 as the quotient for every input.  At
any other width it divides, since a rounded reciprocal would move the last
bit of some results.  So the outputs are the bits of plain division at
every width.

Activations are restricted to erf and tanh: both are everywhere
differentiable with Lipschitz derivative, and erf admits a closed-form
infinite-width kernel.  ``_erf`` evaluates SciPy's erf on |z| and restores
the sign with ``np.copysign``.  SciPy computes erf(x) for x < 0 as
-erf(-x), and on pre-activations of random sign that branch mispredicts:
about 7.7 ns per element at width 1024 against about 4 ns on |z|, for
1 ns of abs and copysign.  So the result is SciPy's, bit for bit, for every
input but NaN, which stays NaN but keeps its own sign bit where SciPy's is
always clear.

The trainer sees three model types: ``LinearModel``, ``WideNet`` (the MLP)
and ``LinearizedNet``, the MLP's first-order Taylor model around frozen
parameters, which ``linearize`` builds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidArgumentError, as_int, parse_number
from .linalg import as_matrix

_BALL_TOL = 1e-9


def _erf(z):
    # erf(z) = copysign(erf(|z|), z), which SciPy computes for z < 0 as
    # -erf(-z): the same bits, -0.0 included, but with no sign branch to
    # mispredict (see the module docstring).  A NaN keeps its own sign bit.
    # SciPy is imported on first use: runs without an erf net never load it.
    from scipy.special import erf

    out = np.abs(z)
    erf(out, out=out)
    return np.copysign(out, z, out=out)


def _erf_prime(z):
    # Flush the underflow region to exact zero: exp(-z^2) below 1e-300 would
    # otherwise produce subnormals, which cost 10-100x on the hot path.  One
    # float buffer, in the order of 2/sqrt(pi) * exp(-min(z^2, 690)).  The
    # clamp and the zero-fill run only when some z^2 exceeds 690, which one
    # reduction tells; fmax skips NaN, so a NaN entry cannot hide the others.
    out = np.square(z)
    flush = np.fmax.reduce(out, axis=None) > 690.0
    if flush:
        flushed = out > 690.0
        np.minimum(out, 690.0, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out *= 2.0 / np.sqrt(np.pi)
    if flush:
        np.copyto(out, 0.0, where=flushed)
    return out


def _tanh_prime(z):
    return 1.0 - np.square(np.tanh(z))


ACTIVATIONS = {
    "erf": (_erf, _erf_prime),
    "tanh": (np.tanh, _tanh_prime),
}


@dataclass(frozen=True)
class Architecture:
    """Shape of the fully-connected net: input_dim -> hidden_widths -> 1.

    input_dim and the widths are ints >= 1; a numpy integer is taken, a bool
    or a float is not.
    """

    input_dim: int
    hidden_widths: tuple[int, ...]
    beta: float = 0.1
    activation: str = "erf"

    def __post_init__(self):
        object.__setattr__(self, "input_dim", as_int(self.input_dim, "input_dim"))
        object.__setattr__(self, "hidden_widths",
                           tuple(as_int(w, "hidden width") for w in self.hidden_widths))
        if self.input_dim < 1:
            raise InvalidArgumentError("input_dim must be >= 1")
        if len(self.hidden_widths) < 1 or any(w < 1 for w in self.hidden_widths):
            raise InvalidArgumentError("need at least one hidden layer, all widths >= 1")
        if not (0 <= self.beta < np.inf):
            raise InvalidArgumentError(f"beta must be finite and >= 0, got {self.beta!r}")
        if self.activation not in ACTIVATIONS:
            raise InvalidArgumentError(f"unknown activation {self.activation!r}")

    @property
    def depth(self) -> int:
        """Number of hidden layers L."""
        return len(self.hidden_widths)

    @property
    def layer_dims(self) -> tuple[int, ...]:
        """(d_0, d_1, ..., d_L, 1)."""
        return (self.input_dim, *self.hidden_widths, 1)


@dataclass(frozen=True)
class ParamLayout:
    """Offsets of the flattened W^0..W^L, b^0..b^L blocks inside the flat vector."""

    weight_shapes: tuple[tuple[int, int], ...]
    weight_offsets: tuple[int, ...]
    bias_offsets: tuple[int, ...]
    size: int


def layout_for(arch: Architecture) -> ParamLayout:
    dims = arch.layer_dims
    shapes, woff, boff = [], [], []
    pos = 0
    for l in range(arch.depth + 1):
        d_in, d_out = dims[l], dims[l + 1]
        shapes.append((d_out, d_in))
        woff.append(pos)
        pos += d_out * d_in
        boff.append(pos)
        pos += d_out
    return ParamLayout(tuple(shapes), tuple(woff), tuple(boff), pos)


@dataclass
class ModelParams:
    """Flat parameter vector plus the layout needed to slice it into layers."""

    flat: np.ndarray
    layout: ParamLayout

    def weight(self, l: int) -> np.ndarray:
        """W^l as (d_out, d_in), or (R, d_out, d_in) for a p x R stack of runs.

        A view into ``flat`` when each run's block is contiguous (a vector or
        a column-major stack), a copy for a row-major stack.
        """
        shape = self.layout.weight_shapes[l]
        off = self.layout.weight_offsets[l]
        block = self.flat[off : off + shape[0] * shape[1]]
        if block.ndim == 1:
            return block.reshape(shape)
        runs = block.T
        if runs.strides[1] != runs.itemsize:  # row-major: gather each run's block
            runs = np.ascontiguousarray(runs)
        return runs.reshape(-1, *shape)

    def bias(self, l: int) -> np.ndarray:
        """b^l as (d_out,), or (R, d_out) for a p x R stack of runs."""
        off = self.layout.bias_offsets[l]
        return self.flat[off : off + self.layout.weight_shapes[l][0]].T


def nn_init(arch: Architecture, seed: int) -> ModelParams:
    """Draw standard-normal parameters, zeroing the output-layer weights.

    Deterministic given the seed; blocks are drawn in the fixed order
    W^0, b^0, W^1, b^1, ..., with the W^L draw skipped (zeros) and b^L drawn.
    """
    layout = layout_for(arch)
    rng = np.random.default_rng(seed)
    flat = np.empty(layout.size, dtype=np.float64)
    last = arch.depth
    for l in range(last + 1):
        n_w = layout.weight_shapes[l][0] * layout.weight_shapes[l][1]
        off_w, off_b = layout.weight_offsets[l], layout.bias_offsets[l]
        if l == last:
            flat[off_w : off_w + n_w] = 0.0
        else:
            flat[off_w : off_w + n_w] = rng.standard_normal(n_w)
        flat[off_b : off_b + layout.weight_shapes[l][0]] = rng.standard_normal(
            layout.weight_shapes[l][0]
        )
    return ModelParams(flat, layout)


def warn_outside_unit_ball(xs: np.ndarray) -> None:
    """One UserWarning, attributed to the caller's caller, when a column of
    xs lies outside the unit ball."""
    norms = np.linalg.norm(xs, axis=0)
    if norms.max(initial=0.0) > 1.0 + _BALL_TOL:
        warnings.warn(
            f"input norm {norms.max():.6g} exceeds the unit ball; width-scaling "
            "guarantees assume ||x|| <= 1",
            stacklevel=3,
        )


# Every network routine below takes either one flat parameter vector (p,) or
# a p x R stack whose columns are R independent runs.  Stacked layers carry
# a leading run axis, (R, d_out, m), and go through batched ``np.matmul``;
# per-input outputs come back as (m,) or (m, R).  A stack may be stored
# either way.  Column-major (Fortran order) keeps each run's parameters in
# one block, so the layers read their weights as views and ``nn_pullback``
# writes its column-major p x R result run by run; a row-major stack costs
# one weight copy per ``ModelParams.weight`` call.  Results are the same
# bits in either order.


def _div_sqrt(x: np.ndarray, d: int, out: np.ndarray | None = None) -> np.ndarray:
    """x / sqrt(d), written to ``out`` (to x itself when out is None).

    When s = sqrt(d) is a power of two (d = 1, 4, 16, ..., 1024), 1/s is
    exact and x * (1/s) is the same correctly rounded float64 as x / s for
    every x, ±0, subnormals, ±inf and NaN included; a multiply costs about
    a third of a divide.  For any other d, 1/s is rounded and the product
    would differ from the quotient in the last bit for some x, so x is
    divided.
    """
    s = math.sqrt(d)
    if out is None:
        out = x
    if math.frexp(s)[0] == 0.5:
        return np.multiply(x, 1.0 / s, out=out)
    return np.divide(x, s, out=out)


@dataclass
class ForwardCache:
    """Pre-activations h^1..h^{L+1} and activations x^1..x^L for one batch."""

    preacts: list[np.ndarray]
    acts: list[np.ndarray]


def nn_forward_batch(arch: Architecture, params: ModelParams, xs,
                     check: bool = True) -> tuple[np.ndarray, ForwardCache]:
    """Forward pass on a d0 x m batch; returns (values (m,) or (m, R), cache).

    ``check=False`` skips the finite-entry scan and the unit-ball warning, for
    callers that validated ``xs`` once up front.
    """
    if check:
        xs = as_matrix(xs, "inputs")
    if xs.shape[0] != arch.input_dim:
        raise InvalidArgumentError(
            f"input dimension {xs.shape[0]} does not match architecture d0={arch.input_dim}"
        )
    if check:
        warn_outside_unit_ball(xs)
    act, _ = ACTIVATIONS[arch.activation]
    dims = arch.layer_dims
    preacts, acts = [], []
    a = xs
    for l in range(arch.depth + 1):
        h = _div_sqrt(params.weight(l) @ a, dims[l])
        h += arch.beta * params.bias(l)[..., None]
        preacts.append(h)
        if l < arch.depth:
            a = act(h)
            acts.append(a)
    return preacts[-1][..., 0, :].T.copy(), ForwardCache(preacts, acts)


def nn_grad_batch(arch: Architecture, params: ModelParams, xs) -> tuple[np.ndarray, np.ndarray]:
    """Outputs and exact reverse-mode Jacobian d f(x_j) / d theta from one
    forward pass: (values, jac) with jac p x m, one column per input, or
    R x p x m for a p x R parameter stack."""
    xs = as_matrix(xs, "inputs")
    values, cache = nn_forward_batch(arch, params, xs)
    _, act_prime = ACTIVATIONS[arch.activation]
    dims = arch.layer_dims
    m = xs.shape[1]
    lead = params.flat.shape[1:][::-1]
    jac = np.empty(lead + (params.layout.size, m), dtype=np.float64)
    # alpha^{l+1} = d h^{L+1} / d h^{l+1}, started at the scalar output.
    alpha = np.ones(lead + (1, m), dtype=np.float64)
    for l in range(arch.depth, -1, -1):
        a_prev = xs if l == 0 else cache.acts[l - 1]
        shape = params.layout.weight_shapes[l]
        off_w, off_b = params.layout.weight_offsets[l], params.layout.bias_offsets[l]
        dw = _div_sqrt(alpha[..., :, None, :] * a_prev[..., None, :, :], dims[l])
        jac[..., off_w : off_w + shape[0] * shape[1], :] = dw.reshape(lead + (shape[0] * shape[1], m))
        jac[..., off_b : off_b + shape[0], :] = arch.beta * alpha
        if l > 0:
            back = _div_sqrt(params.weight(l).swapaxes(-1, -2) @ alpha, dims[l])
            alpha = act_prime(cache.preacts[l - 1]) * back
    return values, jac


def _leading(cols: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The leading columns of ``cols`` that the k cotangents in v cover."""
    k, m = v.shape[0], cols.shape[-1]
    if k > m:
        raise InvalidArgumentError(f"{k} cotangents for {m} outputs")
    return cols[..., :k]


@lru_cache(maxsize=16)
def _ones(k: int) -> np.ndarray:
    """A read-only vector of k ones, shared by the pullbacks over k columns."""
    ones = np.ones(k)
    ones.flags.writeable = False
    return ones


def nn_pullback(arch: Architecture, params: ModelParams, xs: np.ndarray, cache: ForwardCache,
                v: np.ndarray) -> np.ndarray:
    """J @ v for the batch behind ``cache``, by backpropagating the output
    cotangents v through that forward pass; J is never formed.

    v, (k,) or (k, R), holds cotangents for the leading k <= m columns of the
    batch; the trailing columns count as zero and cost nothing, since every
    backward product runs over the leading k columns only.  The result has
    the shape of ``params.flat``, column-major for a stack.  The cache is
    only read.
    """
    _, act_prime = ACTIVATIONS[arch.activation]
    dims = arch.layer_dims
    layout = params.layout
    out = np.empty(params.flat.shape, dtype=np.float64, order="F")
    xs = _leading(xs, v)
    k = xs.shape[1]
    ones = _ones(k)

    def flat(block):  # (d_out, d_in) -> (d_out * d_in,); (R, d_out, d_in) -> (d_out * d_in, R)
        return block.ravel() if block.ndim < 3 else block.reshape(block.shape[0], -1).T

    # alpha^{l+1} = v-weighted d h^{L+1} / d h^{l+1}, one column per input.
    alpha = v.T[..., None, :]
    for l in range(arch.depth, -1, -1):
        a_prev = xs if l == 0 else cache.acts[l - 1][..., :k]
        shape = layout.weight_shapes[l]
        off_w, off_b = layout.weight_offsets[l], layout.bias_offsets[l]
        _div_sqrt(flat(alpha @ a_prev.swapaxes(-1, -2)), dims[l],
                  out=out[off_w : off_w + shape[0] * shape[1]])
        np.multiply(arch.beta, (alpha @ ones).T, out=out[off_b : off_b + shape[0]])
        if l > 0:
            back = _div_sqrt(params.weight(l).swapaxes(-1, -2) @ alpha, dims[l])
            back *= act_prime(cache.preacts[l - 1][..., :k])
            alpha = back
    return out


def parse_model(text: str):
    """Parse "linear" or "mlp:<d0>:<width>x<depth>:<beta>:<erf|tanh>".

    Returns the string "linear" or an Architecture.
    """
    parts = text.strip().lower().split(":")
    if parts[0] == "linear" and len(parts) == 1:
        return "linear"
    if parts[0] == "mlp" and len(parts) == 5:
        what = f"model spec {text!r}"
        d0 = parse_number(parts[1], int, what)
        w, sep, depth = parts[2].partition("x")
        if not sep:
            raise InvalidArgumentError(f"bad width spec {parts[2]!r}, expected <w>x<L>")
        return Architecture(
            input_dim=d0,
            hidden_widths=(parse_number(w, int, what),) * parse_number(depth, int, what),
            beta=parse_number(parts[3], float, what),
            activation=parts[4],
        )
    raise InvalidArgumentError(f"unknown model spec: {text!r}")


# Every trainer-facing model below offers the same four methods:
#
#   init_params(seed)     -> theta0, the flat starting parameters;
#   predict(theta, xs)    -> outputs at the columns of xs;
#   jacobian(theta, xs)   -> the p x m matrix of output gradients;
#   vjp(theta, xs)        -> (outputs, pullback) from one forward pass, where
#                            pullback(v) = jacobian(theta, xs)[:, :k] @ v.
#
# v holds cotangents for the leading k <= m columns of xs, so a caller whose
# cotangents vanish at trailing columns (test points evaluated in the same
# pass) passes only the leading k rows; k > m raises InvalidArgumentError.
# vjp is the training step's only model call.  It expects xs validated
# already (train() checks the data once on entry), so it skips the checks.
# vjp also takes a p x R stack of runs: outputs are then m x R, cotangents
# k x R, and the pullback returns p x R.  The models keep no per-run state,
# so the runs of a stack share one model.  WideNet's pullback returns a
# column-major stack and reads either order; LinearModel's and
# LinearizedNet's return row-major ones.  train keeps its parameters in the
# order the pullback returns.
#
# LinearModel forms its products with ndarray.dot.  For C- or F-contiguous
# float64 operands dot calls the same BLAS routine as @, so the bits are the
# same, and it skips the matmul ufunc's dispatch: on arrays of a few entries,
# as in a linear training step, dispatch is most of the cost.  On other
# strided views the two can round differently in the last bits.


class LinearModel:
    """f(x) = <theta, x>; the degenerate model whose features are x itself."""

    def __init__(self, dim: int):
        dim = as_int(dim, "dim")
        if dim < 1:
            raise InvalidArgumentError("dim must be >= 1")
        self.dim = dim

    @property
    def n_params(self) -> int:
        return self.dim

    def init_params(self, seed: int = 0) -> np.ndarray:
        return np.zeros(self.dim, dtype=np.float64)

    def predict(self, theta: np.ndarray, xs: np.ndarray) -> np.ndarray:
        return xs.T.dot(theta)

    def jacobian(self, theta: np.ndarray, xs: np.ndarray) -> np.ndarray:
        return xs

    def vjp(self, theta: np.ndarray, xs: np.ndarray):
        return xs.T.dot(theta), lambda v: _leading(xs, v).dot(v)


class WideNet:
    """Trainer-facing adapter around the NTK-parameterized MLP."""

    def __init__(self, arch: Architecture):
        self.arch = arch
        self.layout = layout_for(arch)

    @property
    def n_params(self) -> int:
        return self.layout.size

    def init_params(self, seed: int = 0) -> np.ndarray:
        return nn_init(self.arch, seed).flat

    def _wrap(self, theta: np.ndarray) -> ModelParams:
        return ModelParams(theta, self.layout)

    def predict(self, theta: np.ndarray, xs: np.ndarray) -> np.ndarray:
        values, _ = nn_forward_batch(self.arch, self._wrap(theta), xs)
        return values

    def jacobian(self, theta: np.ndarray, xs: np.ndarray) -> np.ndarray:
        return nn_grad_batch(self.arch, self._wrap(theta), xs)[1]

    def vjp(self, theta: np.ndarray, xs: np.ndarray):
        params = self._wrap(theta)
        values, cache = nn_forward_batch(self.arch, params, xs, check=False)
        return values, lambda v: nn_pullback(self.arch, params, xs, cache, v)




@dataclass(eq=False)  # equality and hashing by identity: the fields are arrays
class LinearizedNet:
    """First-order Taylor model of the MLP around frozen params0:

        f_lin(x; theta) = f0(x) + <theta - theta0, grad_theta f(x; theta0)>.

    Built by ``linearize``, which caches f0 and the features at ``points``;
    the caches are never mutated, and queries at other points are computed
    afresh.  Training this model with any weight sequence is exactly
    linear-model training over the frozen feature map.  There is one base
    point; a p x R stack of parameters gives R runs around it.
    """

    arch: Architecture
    params0: ModelParams
    points: np.ndarray
    f0: np.ndarray
    features: np.ndarray

    @property
    def theta0(self) -> np.ndarray:
        return self.params0.flat

    @property
    def n_params(self) -> int:
        return self.theta0.shape[0]

    def init_params(self, seed: int = 0) -> np.ndarray:
        return self.theta0.copy()

    def _f0_and_features(self, xs):
        """Cached at the construction points, computed afresh elsewhere."""
        if xs is self.points:
            return self.f0, self.features
        return nn_grad_batch(self.arch, self.params0, xs)

    def predict(self, theta: np.ndarray, xs: np.ndarray) -> np.ndarray:
        return self.vjp(theta, xs)[0]

    def jacobian(self, theta: np.ndarray, xs: np.ndarray) -> np.ndarray:
        return self._f0_and_features(xs)[1]

    def vjp(self, theta: np.ndarray, xs: np.ndarray):
        f0, feats = self._f0_and_features(xs)
        theta0 = self.theta0 if theta.ndim == 1 else self.theta0[:, None]
        f0 = f0 if theta.ndim == 1 else f0[:, None]
        return f0 + feats.T @ (theta - theta0), lambda v: _leading(feats, v) @ v


def linearize(arch: Architecture, params0: ModelParams, points) -> LinearizedNet:
    """The linearization at params0, with f0 and the features at the columns
    of ``points`` from one network pass.  params0 is one base point."""
    if params0.flat.ndim != 1:
        raise InvalidArgumentError(
            f"linearize takes one base point, got parameters of shape {params0.flat.shape}")
    points = as_matrix(points, "cache points")
    f0, features = nn_grad_batch(arch, params0, points)
    return LinearizedNet(arch, params0, points, f0, features)
