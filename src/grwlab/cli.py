"""Command-line front end.

    grwlab <experiment> [--config FILE] [--out DIR] [--synthetic]
    grwlab oracle <min-norm|max-margin|ridge|ntk> [options]

Experiments exit with status 0 exactly when every assertion in the emitted
report passes.  Oracle subcommands print their solution as JSON on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import GrwLabError, InvalidArgumentError
from .experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    load_experiment_dataset,
    make_config,
    parse_config_file,
    run_experiment,
)
from .oracles import (
    KernelSpec,
    max_margin_direction,
    min_norm_interpolator,
    ntk_limiting_kernel,
    ridge_closed_form,
)
from .reweighting import parse_scheme


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="grwlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--synthetic", action="store_true",
                       help="force the synthetic dataset even when IDX files exist")
    oracle = sub.add_parser("oracle", help="evaluate a closed-form reference solution")
    osub = oracle.add_subparsers(dest="oracle_command", required=True)
    for name in ("min-norm", "max-margin", "ridge"):
        p = osub.add_parser(name)
        p.add_argument("--config", help="config file describing the dataset")
        p.add_argument("--synthetic", action="store_true")
        if name == "ridge":
            p.add_argument("--mu", type=float, default=0.1)
            p.add_argument("--scheme", default="erm")
    p = osub.add_parser("ntk")
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--d0", type=int, default=4)
    p.add_argument("--points", type=int, default=4)
    p.add_argument("--seed", type=int, default=7)
    return parser


def _experiment_config(args, experiment: str) -> ExperimentConfig:
    overrides = {"synthetic": True} if args.synthetic else {}
    if getattr(args, "out", None):  # the oracle commands have no --out
        overrides["out"] = args.out
    if args.config:
        return parse_config_file(args.config, experiment=experiment, **overrides)
    return make_config(experiment, **overrides)


def _oracle_dataset(args, classification: bool):
    return load_experiment_dataset(_experiment_config(args, "compare"), classification=classification)


def _run_oracle(args) -> int:
    if args.oracle_command == "ntk":
        for name, value, least in (("points", args.points, 1), ("d0", args.d0, 1),
                                   ("seed", args.seed, 0)):
            if value < least:
                raise InvalidArgumentError(f"--{name} must be >= {least}, got {value}")
        rng = np.random.default_rng(args.seed)
        pts = rng.standard_normal((args.d0, args.points))
        pts /= np.maximum(np.linalg.norm(pts, axis=0, keepdims=True), 1.0)
        spec = KernelSpec(depth=args.depth, beta=args.beta)
        kernel = [
            [ntk_limiting_kernel(spec, pts[:, i], pts[:, j]) for j in range(args.points)]
            for i in range(args.points)
        ]
        print(json.dumps({"points": pts.tolist(), "kernel": kernel}, indent=1))
        return 0
    if args.oracle_command == "min-norm":
        data = _oracle_dataset(args, classification=False)
        theta0 = np.zeros(data.dim)
        theta = min_norm_interpolator(data.X, data.Y, theta0, data.X.T @ theta0)
        residual = float(np.linalg.norm(data.X.T @ theta - data.Y))
        print(json.dumps({"norm": float(np.linalg.norm(theta)),
                          "interpolation_residual": residual,
                          "provenance": data.provenance}, indent=1))
        return 0
    if args.oracle_command == "max-margin":
        data = _oracle_dataset(args, classification=True)
        sol = max_margin_direction(data.X, data.Y)
        print(json.dumps({"margin": sol.margin,
                          "support_set": list(sol.support_set),
                          "direction_head": sol.direction[:8].tolist(),
                          "provenance": data.provenance}, indent=1))
        return 0
    if args.oracle_command == "ridge":
        data = _oracle_dataset(args, classification=False)
        theta0 = np.zeros(data.dim)
        q = parse_scheme(args.scheme).init_state(data.groups).q
        theta = ridge_closed_form(data.X, data.Y, q, args.mu, theta0, data.X.T @ theta0)
        delta = theta - theta0
        stat = data.X @ (q * (data.X.T @ delta - data.Y)) + args.mu * delta
        print(json.dumps({"norm": float(np.linalg.norm(theta)),
                          "stationarity_residual": float(np.linalg.norm(stat)),
                          "provenance": data.provenance}, indent=1))
        return 0
    raise AssertionError("unreachable")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "oracle":
            return _run_oracle(args)
        cfg = _experiment_config(args, args.command)
        report = run_experiment(cfg)
        for item in report["assertions"]:
            mark = "PASS" if item["passed"] else "FAIL"
            print(f"[{mark}] {item['name']} (value={item['value']}, target={item['target']})")
        print(f"report: {cfg.out_dir / 'report.json'}")
        return 0 if report["passed"] else 1
    except GrwLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
