"""One benchmark round in a fresh process.

    python3 bench/worker.py --root DIR --round-dir DIR --mode MODE
                            [--workload NAME --seed N]

Modes: ``setup`` imports grwlab and stops; ``plain`` runs one untraced round
of the workload; ``trace`` runs one round with every layer wrapped;
``micro`` runs the per-layer micro benchmarks.  The result goes to
``<round-dir>/result.json``.  ``t_ready`` is read on the monotonic clock,
which the parent shares, once grwlab is imported and the round's inputs are
made: the parent's launch time subtracted from it is the set-up time.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--round-dir", required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "trace", "micro"), required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    round_dir = Path(args.round_dir)
    sys.path.insert(0, str(Path(args.root) / "src"))

    import grwlab.cli  # noqa: F401  (set-up: interpreter, numpy, SciPy, grwlab)

    result = {}
    if args.mode in ("plain", "trace"):
        from workloads import WORKLOADS

        prepare, run, check = WORKLOADS[args.workload]
        inputs = prepare(args.seed, round_dir)
    result["t_ready"] = time.monotonic()
    if args.mode == "micro":
        import micro

        result["micro"] = micro.run_all(round_dir)
    elif args.mode in ("plain", "trace"):
        tracer = None
        if args.mode == "trace":
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        import reference

        errors = []
        ref_before = reference.measure()
        cpu0, start = time.process_time(), time.perf_counter()
        try:
            outputs = tracer.run("workload", run, inputs) if tracer else run(inputs)
        except Exception:  # a crash of the program is a failed round, not a benchmark error
            outputs, errors = None, [traceback.format_exc()]
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu0
        ref_after = reference.measure()
        peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            # Taken before the checks, which call wrapped functions themselves.
            result["trace"] = json.loads(json.dumps(tracer.summary()))
            (round_dir / "spans.json").write_text(json.dumps(tracer.spans))
        if outputs is not None:
            try:
                attempted, failed, unexpected = check(inputs, outputs)
            except Exception:  # a check that cannot run fails the round, as a crash would
                errors = [traceback.format_exc()]
        if errors:
            attempted, failed, unexpected = 1, 1, errors
        result.update(wall_s=wall, cpu_s=cpu, peak_rss_mib=peak_rss_kib / 1024.0,
                      ref_wall_s=(ref_before[0] + ref_after[0]) / 2,
                      ref_cpu_s=(ref_before[1] + ref_after[1]) / 2,
                      attempted=attempted, failed=failed, unexpected=unexpected)
    (round_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
