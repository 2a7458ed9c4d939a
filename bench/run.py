"""grwlab benchmark: one run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs rounds of one workload, each in a fresh worker process, one after the
other (closed loop), until ``--seconds`` have passed; every round is one
whole execution of the workload on the inputs made from ``--seed``.  BLAS
and OpenMP pools in the workers are pinned to one thread.  Every round's
outputs are checked apart from the program.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics (medians
over rounds) with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Each run writes only under its own directory ``.bench_out/<run>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
ROUND_TIMEOUT_S = 120


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def launch(mode: str, run_dir: Path, tag: str, workload: str = "", seed: int = 0) -> dict | None:
    """Run one worker to completion; its result, or None if it crashed."""
    round_dir = run_dir / tag
    round_dir.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT),
           "--round-dir", str(round_dir), "--mode", mode]
    if workload:
        cmd += ["--workload", workload, "--seed", str(seed)]
    with open(round_dir / "stdout.txt", "w") as out, open(round_dir / "stderr.txt", "w") as err:
        launched = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=_worker_env(), cwd=ROOT)
        try:
            code = proc.wait(timeout=ROUND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = None
    if code != 0:
        return None
    result = json.loads((round_dir / "result.json").read_text())
    result["setup_s"] = result["t_ready"] - launched
    return result


def _median(values):
    return statistics.median(values) if values else None


def layer_metrics(summaries: list[dict], plain: list[dict], traced_walls: list[float],
                  micro: dict) -> dict:
    """Per-layer metrics from the traced rounds (medians), the untraced rounds
    of the same run and the micro run."""

    def agg(name, index):
        present = [s["agg"][name][index] for s in summaries if name in s["agg"]]
        return _median(present)

    def group_self(prefix):
        names = {n for s in summaries for n in s["agg"] if n.startswith(prefix)}
        return sum(agg(n, 2) for n in names) if names else None

    first = summaries[0]
    epochs = first["epochs"] if "trainer.train" in first["agg"] else None
    updates = agg("reweighting.update", 0)
    forward = first["counts"].get("models.forward_passes")
    train_total = agg("trainer.train", 1)
    traced_wall = _median(traced_walls)
    values = {
        "trainer.train.calls": agg("trainer.train", 0),
        "trainer.epochs": epochs,
        "trainer.train.self_s": agg("trainer.train", 2),
        "trainer.us_per_epoch": (train_total / epochs * 1e6 if epochs else 0.0)
        if train_total is not None else None,
        "losses.loss_value.calls": agg("losses.loss_value", 0),
        "losses.loss_value.self_s": agg("losses.loss_value", 2),
        "losses.loss_grad.calls": agg("losses.loss_grad", 0),
        "losses.loss_grad.self_s": agg("losses.loss_grad", 2),
        "reweighting.update.calls": updates,
        "reweighting.update.self_s": agg("reweighting.update", 2),
        "reweighting.check_assumption1.self_s": agg("reweighting.check_assumption1", 2),
        "models.predict.calls": agg("models.predict", 0),
        "models.predict.self_s": agg("models.predict", 2),
        "models.jacobian.calls": agg("models.jacobian", 0),
        "models.jacobian.self_s": agg("models.jacobian", 2),
        "models.linearize.self_s": agg("models.linearize", 2),
        "models.forward_passes": forward,
        "models.forward_passes_per_epoch": (forward / updates if updates else 0.0)
        if forward is not None and updates is not None else None,
        "linalg.extreme_eigenvalues.calls": agg("linalg.extreme_eigenvalues", 0),
        "linalg.extreme_eigenvalues.self_s": agg("linalg.extreme_eigenvalues", 2),
        "linalg.span_residual.calls": agg("linalg.span_residual", 0),
        "linalg.span_residual.self_s": agg("linalg.span_residual", 2),
        "oracles.self_s": group_self("oracles."),
        "oracles.max_margin_direction.self_s": agg("oracles.max_margin_direction", 2),
        "oracles.ntk_limiting_kernel.calls": agg("oracles.ntk_limiting_kernel", 0),
        "data_io.export_trace.calls": agg("data_io.export_trace", 0),
        "data_io.export_trace.self_s": agg("data_io.export_trace", 2),
        "data_io.bytes_written": first["bytes_written"] if "data_io.export_trace" in first["agg"] else None,
        "experiments.self_s": agg("experiments.run_experiment", 2),
        "untraced.wall_s": _median([r["wall_s"] for r in plain]),
        "untraced.cpu_s": _median([r["cpu_s"] for r in plain]),
        "reference.wall_s": _median([r["ref_wall_s"] for r in plain]),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - _median([r["wall_s"] for r in plain]),
        "trace.unattributed_s": _median([w - sum(e[2] for n, e in s["agg"].items() if n != "workload")
                                         for w, s in zip(traced_walls, summaries)]),
    }
    values.update(micro)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "grwlab" / "__init__.py").is_file():
        print(f"error: no grwlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run_dir = ROOT / ".bench_out" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}-{time.time_ns()}")
    run_dir.mkdir(parents=True)
    # The first import may compile grwlab to bytecode; it is not timed.
    if launch("setup", run_dir, "warmup") is None:
        print(f"error: grwlab does not import; see {run_dir / 'warmup'}", file=sys.stderr)
        return 1

    plain, traced, crashed = [], [], 0
    start = time.monotonic()
    while not plain or time.monotonic() - start < args.seconds:
        k = len(plain) + crashed
        modes = ("plain", "trace") if args.trace else ("plain",)
        results = {m: launch(m, run_dir, f"{m}-{k}", args.workload, args.seed) for m in modes}
        if any(r is None for r in results.values()):
            crashed += 1
            if crashed > 2 * len(plain) + 2:
                break
            continue
        plain.append(results["plain"])
        if args.trace:
            traced.append(results["trace"])
    if not plain:
        print(f"error: every round crashed; see {run_dir}", file=sys.stderr)
        return 1

    rounds = plain + traced
    attempted = sum(r["attempted"] for r in rounds) + crashed
    failed = sum(r["failed"] for r in rounds) + crashed
    unexpected = [msg for r in rounds for msg in r["unexpected"]]
    for msg in unexpected[:20]:
        print(f"unexpected failure: {msg}", file=sys.stderr)
    correct = not unexpected and crashed == 0

    if args.trace:
        micro = launch("micro", run_dir, "micro")
        if micro is None:
            print(f"error: micro benchmarks crashed; see {run_dir / 'micro'}", file=sys.stderr)
            return 1
        values = layer_metrics([r["trace"] for r in traced], plain,
                               [r["wall_s"] for r in traced], micro["micro"])
        missing = sorted({m for r in traced for m in r["trace"]["missing"]})
        if missing:
            print(f"missing tracing targets: {', '.join(missing)}", file=sys.stderr)
    else:
        values = {
            "wall_ref": _median([r["wall_s"] / r["ref_wall_s"] for r in plain]),
            "cpu_ref": _median([r["cpu_s"] / r["ref_cpu_s"] for r in plain]),
            "setup_s": _median([r["setup_s"] for r in plain]),
            "peak_rss_mib": _median([r["peak_rss_mib"] for r in plain]),
        }
    # A metric whose layer target has gone reads null.
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
               for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    gone = [name for name, metric in metrics.items() if metric["value"] is None]
    if gone:
        print(f"metrics with no value: {', '.join(gone)}; see {run_dir}", file=sys.stderr)
    summary = {"workload": args.workload, "seed": args.seed, "rounds": len(plain),
               "metrics": metrics, "correct": correct, "attempted": attempted, "failed": failed}
    (run_dir / "summary.json").write_text(json.dumps(summary, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
