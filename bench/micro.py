"""Per-layer micro benchmarks: microseconds per call at fixed sizes.

Inputs are fixed (they do not depend on the run's seed), so the figures
compare across runs and workloads.  Each figure is the median of several
timed batches of calls.
"""

from __future__ import annotations

import statistics
import sys
import tempfile
import time
import traceback

import numpy as np


def _us_per_call(fn, calls: int, batches: int = 5) -> float:
    fn()  # warm caches and lazy set-up
    per_call = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        per_call.append((time.perf_counter() - start) / calls * 1e6)
    return statistics.median(per_call)


def _blobs(grwlab, d: int, sizes, seed: int):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(d)
    u /= np.linalg.norm(u)
    means = np.stack([0.25 * u, -0.25 * u])
    return grwlab.synth_groups(d, sizes, means, 1.0 / np.sqrt(d), seed)


def _cases(grwlab, out_dir):
    """(metric name, zero-argument function giving its value), in run order."""
    rng = np.random.default_rng(12345)
    yhat, y = rng.standard_normal(6), rng.choice([-1.0, 1.0], 6)
    for name, make_loss in (("squared", lambda: grwlab.Squared()), ("logistic", lambda: grwlab.Logistic()),
                            ("polytailed", lambda: grwlab.PolyTailed(alpha=1.0, beta=1.0))):
        def losses(make_loss=make_loss):
            loss = make_loss()
            return _us_per_call(lambda: (grwlab.loss_value(loss, yhat, y), grwlab.loss_grad(loss, yhat, y)),
                                2000)
        yield f"losses.{name}.us", losses

    linear = _blobs(grwlab, 96, (5, 1), 7)
    losses_n6 = rng.random(6)
    for name, spec in (("erm", "erm"), ("gdro", "gdro:0.001"), ("cvar", "cvar:0.5")):
        def update(spec=spec):
            scheme = grwlab.parse_scheme(spec)
            state = scheme.init_state(linear.groups)
            return _us_per_call(lambda: scheme.update(state, losses_n6, linear.groups), 2000)
        yield f"reweighting.{name}.us", update

    theta = rng.standard_normal(linear.dim) * 0.1

    def linear_model():
        model = grwlab.LinearModel(linear.dim)
        return _us_per_call(lambda: (model.predict(theta, linear.X), model.jacobian(theta, linear.X)), 2000)
    yield "models.linear.us", linear_model

    xs = rng.standard_normal((4, 4))
    xs /= np.linalg.norm(xs, axis=0).max()
    for width, calls in ((64, 500), (256, 300), (1024, 100)):
        def widenet(width=width, calls=calls):
            net = grwlab.WideNet(grwlab.Architecture(4, (width,), beta=0.1, activation="erf"))
            params = net.init_params(width)
            return _us_per_call(lambda: (net.predict(params, xs), net.jacobian(params, xs)), calls)
        yield f"models.widenet-{width}.us", widenet

    # trainer: fixed epochs, no early stop, per epoch.
    for name, spec in (("linear-erm", "erm"), ("linear-gdro", "gdro:0.001"), ("linear-cvar", "cvar:0.5")):
        def train_linear(spec=spec):
            model = grwlab.LinearModel(linear.dim)
            cfg = grwlab.TrainConfig(eta=0.05, epochs=1000, loss=grwlab.Squared(),
                                     scheme=grwlab.parse_scheme(spec), stop_risk=0.0, record_every=500)
            return _us_per_call(lambda: grwlab.train(model, linear, cfg, theta0=np.zeros(linear.dim)),
                                1, 5) / 1000
        yield f"trainer.{name}.us_per_epoch", train_linear

    def train_widenet():
        wide_data = _blobs(grwlab, 4, (2, 2), 7)
        net = grwlab.WideNet(grwlab.Architecture(4, (1024,), beta=0.1, activation="erf"))
        cfg = grwlab.TrainConfig(eta=0.25, epochs=100, loss=grwlab.Squared(),
                                 scheme=grwlab.parse_scheme("gdro:0.1"), stop_risk=0.0, record_every=50)
        return _us_per_call(lambda: grwlab.train(net, wide_data, cfg, theta0=net.init_params(1)), 1, 5) / 100
    yield "trainer.widenet-1024.us_per_epoch", train_widenet

    for n, calls in ((8, 20), (64, 1), (96, 1)):
        x = rng.standard_normal((n + 8, n))
        x /= np.linalg.norm(x, axis=0).max()
        gram = x.T @ x
        gram = 0.5 * (gram + gram.T)
        yield f"linalg.eig-n{n}.us", lambda gram=gram, calls=calls: _us_per_call(
            lambda: grwlab.linalg.extreme_eigenvalues(gram, 1e-12), calls, 3)

    x = rng.standard_normal((16, 8))
    x /= np.linalg.norm(x, axis=0).max()
    labels = rng.choice([-1.0, 1.0], 8)
    yield "oracles.max-margin-n8.us", lambda: _us_per_call(lambda: grwlab.max_margin_direction(x, labels), 5, 3)
    a, b = xs[:, 0], xs[:, 1]

    def ntk():
        spec = grwlab.KernelSpec(depth=2, beta=0.5)
        return _us_per_call(lambda: grwlab.ntk_limiting_kernel(spec, a, b), 2000)
    yield "oracles.ntk.us", ntk

    def export():
        cfg = grwlab.TrainConfig(eta=0.05, epochs=1000, loss=grwlab.Squared(),
                                 scheme=grwlab.parse_scheme("gdro:0.001"), stop_risk=0.0, record_every=2)
        _, trace = grwlab.train(grwlab.LinearModel(linear.dim), linear, cfg, theta0=np.zeros(linear.dim))
        with tempfile.NamedTemporaryFile(dir=out_dir, suffix=".csv") as handle:
            return _us_per_call(lambda: grwlab.export_trace(trace, handle.name, "csv"), 5)
    yield "data_io.export_trace.us", export


def run_all(out_dir) -> dict:
    """Every micro metric; one whose target has gone or changed reads None."""
    import grwlab

    out = {}
    cases = _cases(grwlab, out_dir)
    while True:
        name = "inputs"
        try:
            name, measure = next(cases)
            out[name] = measure()
        except StopIteration:
            return out
        except Exception:  # the metrics not in out read None
            print(f"micro benchmark {name} is missing:\n{traceback.format_exc()}", file=sys.stderr)
            if name == "inputs":
                return out
