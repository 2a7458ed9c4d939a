"""A fixed reference computation that measures how fast the machine runs now.

The host this benchmark runs on can run everything up to 1.7 times slower
for minutes at a time, and CPU time moves with wall time, so the slowdown is
slower execution rather than time taken away.  A round's time divided by the
time of this computation, run in the same process right before and right
after it, cancels that drift while still moving with any change to grwlab:
the computation uses only numpy and SciPy, never grwlab.

Its mix follows the workloads': Python dispatch of small-array numpy steps
(as in the training loop and the oracles' iterations), Jacobi-style
rotations with scalar indexing (as in the eigensolver), and elementwise erf
plus matrix products over wide arrays (as in WideNet).
"""

from __future__ import annotations

import time

import numpy as np
from scipy import special

_RNG = np.random.default_rng(20220126)
_X = _RNG.standard_normal((96, 6)) / np.sqrt(96)
_Y = _RNG.standard_normal(6)
_W = _RNG.standard_normal((1024, 4)) / 2.0
_V = _RNG.standard_normal(1024) / 32.0
_S = _RNG.standard_normal((24, 24)) / 24.0 + np.diag(np.arange(1.0, 25.0))
_STEPS = 2000
_SWEEPS = 8
_WIDE = 200


def _small_steps() -> float:
    theta, q = np.zeros(96), np.full(6, 1.0 / 6.0)
    for _ in range(_STEPS):
        r = _X.T @ theta - _Y
        losses = 0.5 * r * r
        q = q * np.exp(1e-3 * losses)
        q /= q.sum()
        theta -= 0.5 * (_X @ (q * r))
    return float(theta @ theta)


def _rotations() -> float:
    a = _S.copy()
    n = a.shape[0]
    for _ in range(_SWEEPS):
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau))
                c = 1.0 / np.hypot(1.0, t)
                sn = t * c
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - sn * rq
                a[q, :] = sn * rp + c * rq
        a = 0.5 * (a + a.T) + _S
    return float(a.trace())


def _wide_steps() -> float:
    total = 0.0
    x = np.linspace(-1.0, 1.0, 4)
    for k in range(_WIDE):
        pre = _W * (x + 0.01 * k)
        act = special.erf(pre)
        slope = np.exp(-pre * pre)
        total += float(_V @ act.sum(axis=1)) + float((slope.T @ slope).trace())
    return total


def once() -> tuple[float, float]:
    """(wall, cpu) seconds of one pass of the reference computation."""
    cpu0, start = time.process_time(), time.perf_counter()
    _small_steps()
    _rotations()
    _wide_steps()
    return time.perf_counter() - start, time.process_time() - cpu0


def measure() -> tuple[float, float]:
    """Least (wall, cpu) seconds over four passes.

    A pass is short (about 0.05 s), so a burst of other work on the host can
    stretch one of them; the least of a few is the machine's speed at the
    time.
    """
    samples = [once() for _ in range(4)]
    return min(s[0] for s in samples), min(s[1] for s in samples)
