"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/collect.py --workloads fig1-linear,oracle-sweep --seeds 1-10 \
        [--sets 2] [--trace 1] [--json OUT]

Runs ``bench/run.py`` once per (seed, workload, set), one run at a time and
for ``run_seconds`` of ``BENCHMARK.json`` each.  The sets take turns run by
run, the first alternating from seed to seed, so every set sees the same
stretch of the host.  For every metric and set it prints the median, the
first and third quartiles (as ``statistics.quantiles(values, n=4)`` gives
them), the quartile spread as a share of the median, and each set's median
over the first set's.  The host's steal share (from ``/proc/stat``, all
CPUs) is shown for every run.
``--json`` also writes every run's result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RUN_SECONDS = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies over all CPUs, or None where /proc/stat is not readable."""
    try:
        fields = [int(v) for v in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    except (OSError, ValueError):
        return None
    # user nice system idle iowait irq softirq steal; guest time is inside user.
    return fields[7], sum(fields[:8])


def environment() -> str:
    """Python, numpy, SciPy, BLAS, CPU count and git SHA of this checkout."""
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        sha = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=BENCH, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown (not a git checkout)"
    return (f"python {platform.python_version()}, numpy {numpy.__version__}, scipy {scipy.__version__}, "
            f"BLAS {blas['name']} {blas['version']}, {os.cpu_count()} CPUs, git {sha}")


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return q1, med, q3


def run_once(workload: str, seed: int, trace: int) -> dict | None:
    before = _cpu_ticks()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(RUN_SECONDS), "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    after = _cpu_ticks()
    if proc.returncode != 0:
        print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
        return None
    result = json.loads(proc.stdout.splitlines()[-1])
    result["seed"] = seed
    if before and after and after[1] > before[1]:
        result["host_steal_share"] = (after[0] - before[0]) / (after[1] - before[1])
    return result


def table(workload: str, sets: list[list[dict]]) -> str:
    first = sets[0]
    shares = sorted({r["failed"] / r["attempted"] for runs in sets for r in runs})
    steal = [r["host_steal_share"] for runs in sets for r in runs if "host_steal_share" in r]
    lines = [f"**{workload}** ({len(first)} runs per set, {RUN_SECONDS} s each; failed share {shares}"
             + (f"; host steal share median {statistics.median(steal):.3f}, max {max(steal):.3f}"
                if steal else "") + ")", ""]
    head = "| metric | unit |" + "".join(
        f" set {k} median | set {k} q1-q3 | set {k} spread |" + (f" set {k} / set 1 |" if k > 1 else "")
        for k in range(1, len(sets) + 1))
    lines += [head, "|" + "---|" * (head.count("|") - 1)]
    for name, spec in first[0]["metrics"].items():
        row = f"| `{name}` | {spec['unit']} |"
        base = None
        for k, runs in enumerate(sets, start=1):
            values = [r["metrics"][name]["value"] for r in runs]
            if any(not isinstance(v, (int, float)) for v in values):
                row += " missing | | |" + (" |" if k > 1 else "")
                continue
            q1, med, q3 = _quartiles(values)
            row += f" {med:.4g} | {q1:.4g}-{q3:.4g} | {(q3 - q1) / med if med else 0.0:.3f} |"
            if k == 1:
                base = med
            else:
                row += f" {med / base:.3f} |" if base else " |"
        lines.append(row)
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--sets", type=int, default=1, help="sets of runs, taking turns run by run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write every run's result here")
    args = parser.parse_args(argv)
    print(environment())
    workloads = args.workloads.split(",")
    runs = {w: [[] for _ in range(args.sets)] for w in workloads}
    for seed in _seeds(args.seeds):
        for workload in workloads:
            # Which set runs first alternates from seed to seed.
            for k in (range(args.sets) if seed % 2 else reversed(range(args.sets))):
                result = run_once(workload, seed, args.trace)
                if result is None:
                    return 1
                runs[workload][k].append(result)
                print(f"{workload} seed {seed} set {k + 1}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']} "
                      f"steal={result.get('host_steal_share', float('nan')):.3f} " + " ".join(
                          f"{n}={v['value']:.4g}" for n, v in result["metrics"].items()
                          if isinstance(v["value"], (int, float))), file=sys.stderr, flush=True)
    for workload in workloads:
        print()
        print(table(workload, runs[workload]))
    if args.json:
        Path(args.json).write_text(json.dumps(runs, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
