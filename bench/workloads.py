"""The benchmark's workloads: inputs from a seed, one timed round, checks.

A workload has three steps, run in one fresh worker process:

* ``prepare(seed, round_dir)`` makes the inputs (outside the timed span);
* ``run(inputs)`` is the timed span: every call into grwlab of one round;
* ``check(inputs, outputs)`` verifies the outputs apart from the program
  (outside the timed span) and returns (attempted, failed, unexpected),
  where ``unexpected`` lists failures other than the known faults.

grwlab is entered only through ``grwlab.cli.main`` and the oracle and linalg
functions the package exports, looked up at call time so that tracing
wrappers installed beforehand are seen.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import checks

CONFIG_DIR = Path(__file__).resolve().parent / "configs"


def _config_values(path: Path) -> dict:
    values = {}
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def _ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _write_round_config(name: str, round_dir: Path, extra: dict) -> Path:
    path = round_dir / f"{name}.cfg"
    lines = [(CONFIG_DIR / f"{name}.cfg").read_text()]
    lines += [f"{key} = {value}\n" for key, value in extra.items()]
    path.write_text("".join(lines))
    return path


def _run_cli(inputs: dict) -> dict:
    import grwlab.cli

    code = grwlab.cli.main(inputs["argv"])
    return {"exit_code": code}


def _read_report(inputs: dict) -> tuple[dict | None, list[str]]:
    path = Path(inputs["out"]) / inputs["experiment"] / "report.json"
    try:
        return json.loads(path.read_text()), []
    except (OSError, ValueError) as exc:
        return None, [f"cannot read {path.name}: {exc}"]


def _last_trace_row(path: Path) -> dict:
    with path.open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    return {key: float(value) for key, value in rows[-1].items()}


# ---------------------------------------------------------------------------
# fig1-linear


def fig1_prepare(seed: int, round_dir: Path) -> dict:
    out = round_dir / "out"
    cfg = _write_round_config("fig1-linear", round_dir, {"data_seed": seed})
    return {"experiment": "fig1", "config": str(cfg), "out": str(out),
            "argv": ["fig1", "--config", str(cfg), "--out", str(out), "--synthetic"]}


def fig1_check(inputs: dict, outputs: dict) -> tuple[int, int, list[str]]:
    import grwlab.experiments as experiments

    failures = [] if outputs.get("exit_code") == 0 else [f"exit code {outputs.get('exit_code')}"]
    report, errors = _read_report(inputs)
    failures += errors
    if report is not None:
        failures += checks.report_assertions(report)
    cfg = _config_values(Path(inputs["config"]))
    schemes = [s.strip() for s in cfg["schemes"].split(",")]
    traces = sorted((Path(inputs["out"]) / "fig1").glob("*_trace.csv"))
    if len(traces) != len(schemes):
        failures.append(f"{len(traces)} trace files for {len(schemes)} schemes")
    else:
        finals = {}
        for path in traces:
            row = _last_trace_row(path)
            finals[path.name] = (row["risk"], row["theta_norm"])
        data = experiments.load_experiment_dataset(
            experiments.parse_config_file(inputs["config"], synthetic=True), classification=False)
        failures += checks.fig1_final_rows(data.X, data.Y, finals)
    return 1, int(bool(failures)), failures


# ---------------------------------------------------------------------------
# paired-widenet


def paired_prepare(seed: int, round_dir: Path) -> dict:
    rng = np.random.default_rng([seed, 2])
    seeds = ",".join(str(s) for s in rng.choice(10**6, size=5, replace=False))
    out = round_dir / "out"
    cfg = _write_round_config("paired-widenet", round_dir, {"seeds": seeds})
    return {"experiment": "approx-scaling", "config": str(cfg), "out": str(out), "seed": seed,
            "argv": ["approx-scaling", "--config", str(cfg), "--out", str(out), "--synthetic"]}


def paired_check(inputs: dict, outputs: dict) -> tuple[int, int, list[str]]:
    import grwlab

    failures = [] if outputs.get("exit_code") == 0 else [f"exit code {outputs.get('exit_code')}"]
    report, errors = _read_report(inputs)
    failures += errors
    cfg = _config_values(Path(inputs["config"]))
    widths = _ints(cfg["widths"])
    sizes = _ints(cfg["approx_sizes"])
    targets = [float(k) for k, size in enumerate(sizes) for _ in range(size)]
    if report is not None:
        failures += checks.report_assertions(report)
        failures += checks.approx_scaling_report(report, widths, targets)
    # WideNet's Jacobian against central differences, away from the zero
    # output layer of the initialization so that every block is exercised.
    rng = np.random.default_rng([inputs["seed"], 3])
    d0 = int(cfg["approx_d0"])
    xs = rng.standard_normal((d0, 4))
    xs /= np.linalg.norm(xs, axis=0).max()
    for width in widths:
        arch = grwlab.Architecture(d0, (width,) * int(cfg["nn_depth"]), beta=float(cfg["nn_beta"]),
                                   activation=cfg["nn_activation"])
        net = grwlab.WideNet(arch)
        theta = net.init_params(int(rng.integers(10**6))) + 0.3 * rng.standard_normal(net.n_params)
        coords = rng.choice(net.n_params, size=16, replace=False)
        directions = rng.standard_normal((3, net.n_params)) / math.sqrt(net.n_params)
        failures += [f"width {width}: {msg}" for msg in checks.jacobian_matches_fd(
            lambda t: net.predict(t, xs), net.jacobian(theta, xs), theta, coords, directions)]
    return 1, int(bool(failures)), failures


# ---------------------------------------------------------------------------
# oracle-sweep


def _ball(rng, d: int, n: int) -> np.ndarray:
    x = rng.standard_normal((d, n))
    return x / np.linalg.norm(x, axis=0).max()


def _separable(rng, d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    # n <= d columns in general position are separable for any labels.
    return _ball(rng, d, n), rng.choice([-1.0, 1.0], n)


def _gram(x: np.ndarray) -> np.ndarray:
    g = x.T @ x
    return 0.5 * (g + g.T)


# Operations that fail on every run because of known faults in grwlab.  Their
# inputs are fixed, so the share of failed operations does not depend on the
# seed.
KNOWN_FAULTS = {
    # Power iteration (n > 64) stops once successive Rayleigh quotients move by
    # less than tol, long before lambda_min is accurate to tol.
    "eig-n96-fixed",
    # The projected-gradient dual hits its 1e5-iteration cap on this
    # small-margin (2.1e-4) set, which max_margin_bruteforce solves.
    "max-margin-small-margin",
}


def oracle_prepare(seed: int, round_dir: Path) -> dict:
    """Seeded unit-ball inputs for every oracle and linalg entry point."""
    rng = np.random.default_rng([seed, 1])
    ops = []
    for d, n in ((96, 6), (96, 24), (128, 48)):
        x = _ball(rng, d, n)
        theta0 = 0.1 * rng.standard_normal(d)
        f0 = x.T @ theta0
        y = rng.standard_normal(n)
        ops.append((f"min-norm-n{n}", "min_norm_interpolator", (x, y, theta0, f0)))
        for mu in (1e-3, 0.1, 10.0):
            q = rng.dirichlet(np.ones(n))
            ops.append((f"ridge-n{n}-mu{mu:g}", "ridge_closed_form", (x, y, q, mu, theta0, f0)))
    for k, (d, n) in enumerate(((16, 8), (16, 8), (32, 16), (32, 16))):
        ops.append((f"max-margin-n{n}-{k}", "max_margin_direction", _separable(rng, d, n)))
    fixed = np.random.default_rng(2577)
    x = fixed.standard_normal((5, 8))
    x /= np.linalg.norm(x, axis=0).max()
    ops.append(("max-margin-small-margin", "max_margin_direction", (x, fixed.choice([-1.0, 1.0], 8))))
    points = _ball(rng, 4, 12)
    for depth in (1, 2, 3):
        ops.append((f"ntk-depth{depth}", "ntk", (points, depth, 0.5)))
    for k, n in enumerate((8, 8, 8, 8, 32, 32, 64)):
        ops.append((f"eig-n{n}-{k}", "linalg.extreme_eigenvalues", (_gram(_ball(rng, n + 8, n)), 1e-12)))
    ops.append(("eig-n96-fixed", "linalg.extreme_eigenvalues",
                (_gram(_ball(np.random.default_rng(96), 104, 96)), 1e-12)))
    for n in (6, 16, 32):
        x = _ball(rng, 96, n)
        v = x @ rng.standard_normal(n) + 0.1 * rng.standard_normal(96)
        ops.append((f"span-n{n}", "linalg.span_residual", (v, x)))
    if len({name for name, _, _ in ops}) != len(ops):
        raise ValueError("operation names must be unique")
    return {"ops": ops}


def _call(fn_name: str, args):
    import grwlab

    if fn_name == "ntk":
        points, depth, beta = args
        spec = grwlab.KernelSpec(depth=depth, beta=beta)
        m = points.shape[1]
        return np.array([[grwlab.ntk_limiting_kernel(spec, points[:, i], points[:, j])
                          for j in range(m)] for i in range(m)])
    if fn_name.startswith("linalg."):
        return getattr(grwlab.linalg, fn_name.split(".", 1)[1])(*args)
    return getattr(grwlab, fn_name)(*args)


def oracle_run(inputs: dict) -> dict:
    results = {}
    for name, fn_name, args in inputs["ops"]:
        try:
            results[name] = _call(fn_name, args)
        except Exception as exc:  # an operation that raises counts as failed
            results[name] = exc
    return results


def _oracle_check(fn_name: str, args, result) -> list[str]:
    if isinstance(result, Exception):
        return [f"raised {type(result).__name__}: {result}"]
    if fn_name == "min_norm_interpolator":
        return checks.min_norm(result, *args)
    if fn_name == "ridge_closed_form":
        return checks.ridge(result, *args)
    if fn_name == "max_margin_direction":
        return checks.max_margin_kkt(result.direction, result.margin, result.alphas, *args)
    if fn_name == "ntk":
        return checks.ntk_matrix(result, *args)
    if fn_name == "linalg.extreme_eigenvalues":
        return checks.extreme_eigenvalues(result, args[0])
    if fn_name == "linalg.span_residual":
        return checks.span_residual(result, *args)
    raise ValueError(fn_name)


def oracle_check(inputs: dict, outputs: dict) -> tuple[int, int, list[str]]:
    failed, unexpected = 0, []
    for name, fn_name, args in inputs["ops"]:
        failures = _oracle_check(fn_name, args, outputs[name])
        if failures:
            failed += 1
            if name not in KNOWN_FAULTS:
                unexpected += [f"{name}: {msg}" for msg in failures]
    return len(inputs["ops"]), failed, unexpected


WORKLOADS = {
    "fig1-linear": (fig1_prepare, _run_cli, fig1_check),
    "paired-widenet": (paired_prepare, _run_cli, paired_check),
    "oracle-sweep": (oracle_prepare, oracle_run, oracle_check),
}
