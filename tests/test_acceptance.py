"""End-to-end acceptance suite.

One test per claim, each printing a single PASS/FAIL line with the measured
values and its wall time.  Expensive runs are shared through module-scoped
fixtures.  Budgets are asserted with the measured wall time of the work that
the claim itself requires.
"""

import time

import mpmath
import numpy as np
import pytest

from grwlab import linalg as la
from grwlab.data_io import margin_probe_set, read_trace_csv, synth_groups
from grwlab.experiments import (
    _group_mean_directions,
    make_config,
    run_approx_scaling,
    run_fig1,
    run_fig2,
    run_ntk_convergence,
)
from grwlab.losses import Logistic, PolyTailed, Squared, loss_grad, loss_value
from grwlab.models import Architecture, LinearModel, ModelParams, nn_forward, nn_grad, nn_init
from grwlab.oracles import max_margin_bruteforce, max_margin_direction, ridge_closed_form
from grwlab.reweighting import WeightState, gdro_step, GroupInfo, parse_scheme
from grwlab.trainer import TrainConfig, train

SIMPLEX_TOL = 1e-12
_ALL_TRACES = []


def _line(criterion, passed, detail, elapsed):
    state = "PASS" if passed else "FAIL"
    print(f"CRITERION {criterion}: {state} ({detail}) [{elapsed:.1f}s]")


@pytest.fixture(scope="module")
def fig1_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig1")
    cfg = make_config("fig1", synthetic=True, out=str(out))
    t0 = time.perf_counter()
    report = run_fig1(cfg)
    elapsed = time.perf_counter() - t0
    return cfg, report, elapsed, out


@pytest.fixture(scope="module")
def margin_runs():
    """Logistic runs of all three schemes on the clean-margin probe set."""
    data = margin_probe_set(24, 7)
    oracle = max_margin_direction(data.X, data.Y)
    t0 = time.perf_counter()
    runs = {}
    for scheme in ("erm", "iw", "gdro:0.01"):
        cfg = TrainConfig(eta=4.0, epochs=200_000, loss=Logistic(),
                          scheme=parse_scheme(scheme), stop_risk=0.0, record_every=5000)
        final, trace = train(LinearModel(data.dim), data, cfg, theta0=np.zeros(data.dim))
        runs[scheme] = (final, trace)
        _ALL_TRACES.append(trace)
    return data, oracle, runs, time.perf_counter() - t0


def test_criterion_1_implicit_bias_equivalence(fig1_result):
    cfg, report, elapsed, _ = fig1_result
    by_name = {a["name"]: a for a in report["assertions"]}
    risks = [a for n, a in by_name.items() if n.startswith("risk_below_1e-10")]
    oracle_gaps = [a for n, a in by_name.items() if n.startswith("oracle_gap_below_1e-3")]
    pairwise = [a for n, a in by_name.items() if n.startswith("pairwise_gap_below_2e-3")]
    assert len(risks) == 3 and len(oracle_gaps) == 3 and len(pairwise) == 3
    ok = all(a["passed"] for a in risks + oracle_gaps + pairwise) and elapsed < 60.0
    _line(1, ok, f"max_risk={max(a['value'] for a in risks):.2e}, "
                 f"max_oracle_gap={max(a['value'] for a in oracle_gaps):.2e}, "
                 f"max_pairwise={max(a['value'] for a in pairwise):.2e}", elapsed)
    for a in risks + oracle_gaps + pairwise:
        assert a["passed"], a
    assert elapsed < 60.0


def test_criterion_2_span_invariant(fig1_result, margin_runs):
    cfg, report, _, _ = fig1_result
    t0 = time.perf_counter()
    worst = report["metrics"]["max_relative_span_residual"]
    # Other losses, every scheme, on a linear model: short dedicated runs.
    data, _, _, _ = margin_runs
    for loss in (Logistic(), PolyTailed(1.0, 0.0)):
        for scheme in ("erm", "iw", "gdro:0.01", "cvar:0.5"):
            tc = TrainConfig(eta=0.5, epochs=2000, loss=loss, scheme=parse_scheme(scheme),
                             stop_risk=0.0, record_every=200, record_params=True)
            _, trace = train(LinearModel(data.dim), data, tc, theta0=np.zeros(data.dim))
            _ALL_TRACES.append(trace)
            for theta in trace.theta_snapshots:
                norm = np.linalg.norm(theta)
                if norm > 0:
                    worst = max(worst, la.span_residual(theta, data.X) / norm)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8
    _line(2, ok, f"worst_relative_span_residual={worst:.2e}", elapsed)
    assert ok


def test_criterion_3_regularized_closed_form():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)

    class FixedWeights:
        name = "static"

        def __init__(self, q):
            self.q = q

        def init_state(self, groups):
            return WeightState(q=self.q)

        def update(self, state, losses, groups):
            return state

    worst = 0.0
    for k in range(20):
        d = int(rng.integers(5, 51))
        n = int(rng.integers(2, 11))
        x = rng.standard_normal((d, n))
        x /= np.linalg.norm(x, axis=0).max()
        y = rng.standard_normal(n)
        q = rng.dirichlet(np.ones(n))
        mu = float((0.01, 0.1, 1.0, 10.0)[k % 4])
        theta0 = 0.1 * rng.standard_normal(d)
        data_like = type("D", (), {})()
        data_like.X, data_like.Y = x, y
        data_like.groups = GroupInfo(np.zeros(n, dtype=int))
        a = float(np.sum(x**2))
        eta = 1.0 / (a + mu)
        epochs = int(np.ceil(40.0 / (eta * mu)))
        cfg = TrainConfig(eta=eta, epochs=epochs, loss=Squared(), scheme=FixedWeights(q),
                          mu=mu, stop_risk=0.0, record_every=max(1, epochs // 4))
        final, _ = train(LinearModel(d), data_like, cfg, theta0=theta0)
        oracle = ridge_closed_form(x, y, q, mu, theta0, x.T @ theta0)
        worst = max(worst, float(np.linalg.norm(final - oracle)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 30.0
    _line(3, ok, f"worst_gap_to_closed_form={worst:.2e}", elapsed)
    assert worst < 1e-6
    assert elapsed < 30.0


def test_criterion_4_regularization_threshold(tmp_path):
    cfg = make_config("fig2", synthetic=True, out=str(tmp_path))
    t0 = time.perf_counter()
    report = run_fig2(cfg)
    elapsed = time.perf_counter() - t0
    by_name = {a["name"]: a for a in report["assertions"]}
    small_risk = by_name["small_mu_risk_below_1e-6"]
    small_gaps = by_name["small_mu_gaps_below_1e-2"]
    large_risk = by_name["large_mu_risk_above_1e-2"]
    ratio = by_name["large_mu_gap_ratio_above_10x"]
    ok = all(a["passed"] for a in (small_risk, small_gaps, large_risk, ratio)) and elapsed < 120
    _line(4, ok,
          f"small_mu_risk={small_risk['value']:.2e} (target <1e-6), "
          f"small_mu_gaps={small_gaps['value']:.2e} (target <1e-2), "
          f"large_mu_risk={large_risk['value']:.2e} (target >1e-2), "
          f"gap_ratio={ratio['value']:.2f} (target >10)", elapsed)
    assert elapsed < 120.0
    assert large_risk["passed"], large_risk
    # The checks below fail on the shipped config, and the cause is measured:
    # at mu_small = 0.1 the ridge optimum itself has risk 1.34e-2 for ERM
    # (the report's ridge_oracle_risk[mu=0.1,erm]), and a run that converges
    # ends there, above the 1e-6 target.
    assert small_risk["passed"], small_risk
    assert small_gaps["passed"], small_gaps
    assert ratio["passed"], ratio


def test_criterion_5_max_margin_convergence(margin_runs):
    data, oracle, runs, elapsed = margin_runs
    details = []
    ok = elapsed < 120.0
    for scheme, (final, trace) in runs.items():
        cos = float(final @ oracle.direction / np.linalg.norm(final))
        norms = trace.theta_norm
        tail = max(2, len(norms) // 10)
        increasing = all(norms[i + 1] > norms[i] for i in range(len(norms) - tail, len(norms) - 1))
        details.append(f"{scheme}: cos={cos:.6f} norm_up={increasing}")
        ok = ok and cos > 0.999 and increasing
    _line(5, ok, "; ".join(details) + f" (budget 2e5 of 1e6 epochs)", elapsed)
    for scheme, (final, trace) in runs.items():
        assert float(final @ oracle.direction / np.linalg.norm(final)) > 0.999, scheme
        norms = trace.theta_norm
        tail = max(2, len(norms) // 10)
        assert all(norms[i + 1] > norms[i] for i in range(len(norms) - tail, len(norms) - 1)), scheme
    assert elapsed < 120.0


def test_criterion_6_polytailed_bias_separation():
    t0 = time.perf_counter()
    d = 32
    means = _group_mean_directions(2, d, 7, 0.45)
    data = synth_groups(d, (5, 1), means, 1.0 / np.sqrt(d), 7, classification=True)
    finals = {}
    for loss, tag in ((Logistic(), "logistic"), (PolyTailed(1.0, 0.0), "polytailed")):
        # One lock-step batch of the ERM and IW runs per loss.
        cfgs = [TrainConfig(eta=1.0, epochs=400_000, loss=loss, scheme=parse_scheme(scheme),
                            stop_risk=0.0, record_every=50_000) for scheme in ("erm", "iw")]
        runs = train(LinearModel(d), data, cfgs, theta0=np.zeros(d))
        for scheme, (final, trace) in zip(("erm", "iw"), runs):
            finals[(tag, scheme)] = final
            _ALL_TRACES.append(trace)

    def unit(v):
        return v / np.linalg.norm(v)

    gap_log = float(np.linalg.norm(unit(finals[("logistic", "erm")]) - unit(finals[("logistic", "iw")])))
    gap_poly = float(np.linalg.norm(unit(finals[("polytailed", "erm")]) - unit(finals[("polytailed", "iw")])))
    ratio = gap_poly / gap_log
    elapsed = time.perf_counter() - t0
    ok = ratio >= 2.0 and elapsed < 300.0
    _line(6, ok, f"gap_logistic={gap_log:.4f}, gap_polytailed={gap_poly:.4f}, ratio={ratio:.2f}",
          elapsed)
    assert ratio >= 2.0
    assert elapsed < 300.0


def test_criterion_7_ntk_convergence(tmp_path):
    cfg = make_config("ntk-convergence", synthetic=True, out=str(tmp_path))
    t0 = time.perf_counter()
    report = run_ntk_convergence(cfg)
    elapsed = time.perf_counter() - t0
    medians = [report["metrics"][f"median_rel_fro_error[width={w}]"] for w in (64, 256, 1024)]
    ok = medians[0] > medians[1] > medians[2] and elapsed < 120.0
    _line(7, ok, "medians " + " > ".join(f"{m:.4f}" for m in medians), elapsed)
    assert medians[0] > medians[1] > medians[2]
    assert elapsed < 120.0


def test_criterion_8_linearization_gap_scaling(tmp_path):
    cfg = make_config("approx-scaling", synthetic=True, out=str(tmp_path))
    t0 = time.perf_counter()
    report = run_approx_scaling(cfg)
    elapsed = time.perf_counter() - t0
    medians = [report["metrics"][f"median_sup_gap[width={w}]"] for w in (64, 256, 1024)]
    slope = report["metrics"]["log_log_slope"]
    ok = medians[0] > medians[1] > medians[2] and slope <= -0.2 and elapsed < 600.0
    _line(8, ok, "medians " + " > ".join(f"{m:.2e}" for m in medians) + f", slope={slope:.2f}",
          elapsed)
    assert medians[0] > medians[1] > medians[2]
    assert slope <= -0.2
    assert elapsed < 600.0


def test_criterion_9_oracle_self_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    # Hard-margin dual vs subset enumeration on 50 random separable sets.
    for _ in range(50):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(2, 11))
        while True:
            w = rng.standard_normal(d)
            w /= np.linalg.norm(w)
            x = rng.standard_normal((d, n))
            x /= max(1.0, np.linalg.norm(x, axis=0).max())
            margins = x.T @ w
            if np.all(np.abs(margins) >= 0.1):
                break
        y = np.sign(margins)
        dual = max_margin_direction(x, y)
        brute = max_margin_bruteforce(x, y)
        assert abs(dual.margin - brute.margin) <= 1e-8
        assert float(dual.direction @ brute.direction) > 1.0 - 1e-8

    # Loss gradients against central differences at 1e-5 relative.
    for kind in (Squared(), Logistic(), PolyTailed(1.0, 0.0)):
        for _ in range(200):
            yhat = float(rng.uniform(-6, 6))
            y = float(rng.choice([-1.0, 1.0])) if not isinstance(kind, Squared) else float(rng.uniform(-2, 2))
            h = 1e-6
            fd = (loss_value(kind, yhat + h, y) - loss_value(kind, yhat - h, y)) / (2 * h)
            g = loss_grad(kind, yhat, y)
            assert g == pytest.approx(fd, rel=1e-5, abs=1e-6)

    # Network gradients against central differences at 1e-5 relative.
    arch = Architecture(4, (9, 7), beta=0.3, activation="erf")
    params = nn_init(arch, 5)
    params.flat[:] += 0.5 * rng.standard_normal(params.flat.shape)
    x = rng.standard_normal(4)
    x /= np.linalg.norm(x) * 1.25
    g = nn_grad(arch, params, x)
    for i in rng.choice(params.layout.size, size=100, replace=False):
        up, down = params.flat.copy(), params.flat.copy()
        up[i] += 1e-5
        down[i] -= 1e-5
        vu, _ = nn_forward(arch, ModelParams(up, params.layout), x)
        vd, _ = nn_forward(arch, ModelParams(down, params.layout), x)
        fd = (vu - vd) / 2e-5
        assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    # Exponentiated-gradient group update against 40-digit arithmetic.
    for _ in range(100):
        k = int(rng.integers(2, 6))
        labels = np.concatenate([[j] * int(rng.integers(1, 4)) for j in range(k)])
        groups = GroupInfo(labels)
        g0 = rng.dirichlet(np.ones(k))
        risks = rng.uniform(0, 2, size=k)
        nu = float(rng.uniform(0.01, 1.0))
        new = gdro_step(WeightState(q=np.ones(groups.n) / groups.n, gdro_g=g0), risks, nu, groups)
        with mpmath.workdps(40):
            unnorm = [mpmath.mpf(float(g0[j])) * mpmath.exp(mpmath.mpf(float(nu)) * mpmath.mpf(float(risks[j])))
                      for j in range(k)]
            total = mpmath.fsum(unnorm)
            ref = np.array([float(u / total) for u in unnorm])
        assert np.allclose(new.gdro_g, ref, atol=1e-12)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 120.0
    _line(9, ok, "dual=enumeration on 50 sets; loss/net grads at 1e-5; 100 group updates at 1e-12",
          elapsed)
    assert elapsed < 120.0


def test_criterion_10_simplex_and_determinism(fig1_result, tmp_path):
    cfg, report, _, out = fig1_result
    t0 = time.perf_counter()
    # Every recorded weight vector from every run above sits on the simplex.
    checked = 0
    for trace in _ALL_TRACES:
        for q in trace.q_snapshots:
            assert np.all(q >= 0)
            assert abs(float(q.sum()) - 1.0) <= SIMPLEX_TOL
            checked += len(q)
    for name in ("erm", "iw", "gdro-0.001"):
        cols = read_trace_csv(out / "fig1" / f"{name}_trace.csv")
        qsum = cols["q_group_1"] + cols["q_group_2"]
        assert np.all(np.abs(qsum - 1.0) <= SIMPLEX_TOL)

    # Bit-identical traces for an identical (config, seed).
    runs = []
    for sub in ("r1", "r2"):
        rcfg = make_config("fig1", synthetic=True, out=str(tmp_path / sub),
                           epochs=3000, record_every=500)
        run_fig1(rcfg)
        runs.append(tmp_path / sub / "fig1")
    identical = all(
        (runs[0] / f"{n}_trace.csv").read_bytes() == (runs[1] / f"{n}_trace.csv").read_bytes()
        for n in ("erm", "iw", "gdro-0.001")
    )
    elapsed = time.perf_counter() - t0
    ok = identical
    _line(10, ok, f"{checked} weight entries on the simplex; reruns byte-identical={identical}",
          elapsed)
    assert identical
