"""Config-driven experiment runners.

Each runner wires datasets, schemes, the trainer and the oracles into one
reproducible study.  Its ``Report`` writes every file of the study into
``<out>/<experiment>``: traces (CSV + JSON), panel CSVs, data-only SVG
charts, each listed in ``artifacts`` in the order written, and a
machine-readable ``report.json`` whose ``assertions`` list carries one
pass/fail entry per claim checked.  The runs of one study that share a
model, data and loss are trained in lock step as one batch (see
``trainer``): fig1's schemes, fig2's schemes at each mu, fig3's schemes for
each loss, compare's schemes, and approx-scaling's regularization-tracking
runs and its seeds at each width, whose linearizations then replay the
weights the nets trained with.  Nothing runs concurrently, so results are
bit-identical for a fixed (config, seed) on one platform.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
import time
import warnings
from collections import deque
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

try:
    import resource
except ImportError:  # Windows
    resource = None

from . import linalg
from .data_io import (
    DATA_DIR_ENV,
    Dataset,
    data_dir,
    export_trace,
    find_mnist_files,
    load_mnist_idx,
    margin_probe_set,
    paper_subset,
    synth_groups,
)
from .errors import InvalidArgumentError, UnsupportedError, parse_number
from .losses import Logistic, PolyTailed, Squared, loss_kernels, loss_name, loss_value, parse_loss
from .models import (
    Architecture,
    LinearModel,
    ModelParams,
    WideNet,
    layout_for,
    nn_grad_batch,
    nn_init,
    parse_model,
)
from .oracles import (
    KernelSpec,
    max_margin_direction,
    min_norm_interpolator,
    ntk_limiting_kernel,
    ridge_closed_form,
)
from .reweighting import check_assumption1, iw_weights, parse_scheme
from .trainer import TrainConfig, compare_runs, safe_learning_rate, train

EXPERIMENTS = ("fig1", "fig2", "fig3", "ntk-convergence", "approx-scaling", "compare")


# Keys that end up as a TrainConfig's mu.
_PENALTY_KEYS = ("mu", "mu_small", "mu_large", "reg_tracking_mu", "sign_mu")

# The least value of integer keys: point counts and input dimensions are at
# least 1, and a seed is >= 0, as numpy requires of the seeds it is given.
_LEAST_INTS = {"ntk_points": 1, "test_points": 1, "approx_d0": 1, "synth_d": 1,
               "data_seed": 0, "seeds": 0}


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment description; every field maps to one config-file key."""

    experiment: str
    out: str = "out"
    synthetic: bool = False
    dataset: str = "auto"
    schemes: tuple[str, ...] = ("erm", "iw", "gdro:0.01")
    loss: str = "squared"
    model: str = "linear"
    eta: str = "auto"
    mu: float = 0.0
    mu_small: float = 0.1
    mu_large: float = 10.0
    epochs: int = 1_000_000
    stop_risk: float = 1e-12
    record_every: int = 2000
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    data_seed: int = 7
    synth_d: int = 96
    synth_sizes: tuple[int, ...] = (5, 1)
    synth_noise: float = -1.0
    synth_mean_scale: float = 0.25
    widths: tuple[int, ...] = (64, 256, 1024)
    nn_beta: float = 0.5
    nn_depth: int = 1
    nn_activation: str = "erf"
    ntk_points: int = 8
    test_points: int = 4
    approx_d0: int = 4
    approx_sizes: tuple[int, ...] = (2, 2)
    reg_tracking_check: bool = True
    reg_tracking_mu: float = 0.05
    sign_check: bool = False
    sign_width: int = 128
    sign_mu: float = 1e-3
    sign_epochs: int = 20_000
    permute_check: bool = True

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not _has_type(value, f.type):
                raise InvalidArgumentError(f"config key {f.name!r} needs {f.type}, got {value!r}")
            if f.type == "float" and not isinstance(value, float):
                # One form per key, so that 1 and 1.0 give one config hash.
                object.__setattr__(self, f.name, float(value))
        if self.experiment not in EXPERIMENTS:
            raise InvalidArgumentError(
                f"unknown experiment {self.experiment!r}; pick one of {EXPERIMENTS}"
            )
        if not self.schemes:
            raise InvalidArgumentError("need at least one scheme")
        if self.eta != "auto":
            eta = parse_number(self.eta, float, "config key 'eta'")
            if not 0 < eta < np.inf:
                raise InvalidArgumentError(
                    f"config key 'eta': {self.eta!r} is not 'auto' or a positive finite float")
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and np.isnan(value):
                raise InvalidArgumentError(f"config key {f.name!r} is NaN")
        # Checked up front, so that a bad penalty fails before any training:
        # an infinite one would otherwise surface as a divergence.
        for key in _PENALTY_KEYS:
            value = getattr(self, key)
            if not 0 <= value < np.inf:
                raise InvalidArgumentError(f"config key {key!r}: {value!r} is not a finite float >= 0")
        # Checked up front, so that each fails naming its key before any
        # output: numpy would reject these values inside a run, and an empty
        # widths would leave ntk-convergence with no check to fail.
        for key in ("seeds", "widths"):
            if not getattr(self, key):
                raise InvalidArgumentError(f"config key {key!r} is empty")
        for key, least in _LEAST_INTS.items():
            value = getattr(self, key)
            if (min(value) if isinstance(value, tuple) else value) < least:
                raise InvalidArgumentError(f"config key {key!r} must be >= {least}, got {value}")
        if self.experiment == "approx-scaling" and len(set(self.widths)) < 2:
            # The log-log slope through one width is not a measurement.
            raise InvalidArgumentError(
                f"config key 'widths': approx-scaling fits a slope across widths and needs "
                f"at least two distinct ones, got {self.widths}")

    @property
    def out_dir(self) -> Path:
        """Where the study writes its files and report: ``<out>/<experiment>``."""
        return Path(self.out) / self.experiment


# The values a declared field type takes: a bool is not an int, and a float
# field also takes an int.
_TYPE_VALUES = {"str": str, "bool": bool, "int": int, "float": (int, float)}


def _has_type(value, kind: str) -> bool:
    if kind.startswith("tuple["):  # "tuple[int, ...]"
        item = kind[len("tuple["):-len(", ...]")]
        return isinstance(value, tuple) and all(_has_type(v, item) for v in value)
    return isinstance(value, _TYPE_VALUES[kind]) and (kind == "bool" or not isinstance(value, bool))


_DEFAULTS = {
    "fig1": dict(epochs=1_000_000, record_every=2000, schemes=("erm", "iw", "gdro:0.001")),
    "fig2": dict(epochs=60_000, record_every=200, schemes=("erm", "iw", "gdro:0.001")),
    "fig3": dict(epochs=1_000_000, eta="1.0", record_every=5000, synth_d=32,
                 synth_mean_scale=0.45, stop_risk=0.0),
    "ntk-convergence": dict(seeds=tuple(range(10))),
    "approx-scaling": dict(schemes=("gdro:0.1",), eta="0.25", epochs=30_000,
                           record_every=200, stop_risk=1e-13, nn_beta=0.1),
    "compare": dict(epochs=200_000, record_every=2000),
}

_BOOL_TEXT = {"1": True, "true": True, "yes": True, "on": True,
              "0": False, "false": False, "no": False, "off": False}


# Keys that config files may still carry but that no longer do anything.
_RETIRED_KEYS = {"jobs": "runs of one study are batched automatically"}


def make_config(experiment: str, **overrides) -> ExperimentConfig:
    """Experiment defaults overlaid with explicit overrides."""
    base = dict(_DEFAULTS.get(experiment, {}))
    base.update(overrides)
    return ExperimentConfig(experiment=experiment, **base)


def _coerce(key: str, value: str):
    """Parse ``value`` by the type that ExperimentConfig declares for ``key``."""
    field_types = ExperimentConfig.__dataclass_fields__
    if key not in field_types:
        raise InvalidArgumentError(f"unknown config key {key!r}")
    kind, value, what = field_types[key].type, value.strip(), f"config key {key!r}"
    if kind == "bool":
        if value.lower() not in _BOOL_TEXT:
            raise InvalidArgumentError(
                f"config key {key!r} needs a boolean (1/0, true/false, yes/no, on/off), "
                f"got {value!r}"
            )
        return _BOOL_TEXT[value.lower()]
    if kind == "tuple[str, ...]":
        return tuple(v.strip() for v in value.split(",") if v.strip())
    if kind == "tuple[int, ...]":
        return tuple(parse_number(v, int, what) for v in value.split(",") if v.strip())
    convert = {"int": int, "float": float}.get(kind)
    return value if convert is None else parse_number(value, convert, what)


def parse_config_file(path, experiment: str | None = None, **overrides) -> ExperimentConfig:
    """Read a flat ``key = value`` UTF-8 file ('#' starts a comment).  A file
    that cannot be read or decoded raises InvalidArgumentError naming it."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise InvalidArgumentError(f"cannot read config file {str(path)!r}: {reason}") from None
    values: dict = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidArgumentError(f"bad config line: {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in _RETIRED_KEYS:
            warnings.warn(f"config key {key!r} is ignored: {_RETIRED_KEYS[key]}",
                          DeprecationWarning, stacklevel=2)
            continue
        values[key] = _coerce(key, value)
    exp = experiment or values.pop("experiment", None)
    if exp is None:
        raise InvalidArgumentError("config must name an experiment")
    values.pop("experiment", None)
    values.update(overrides)
    return make_config(exp, **values)


def config_hash(cfg: ExperimentConfig) -> str:
    """Hash of the study a config describes; ``out``, where it is written,
    is left out, so one study gets one hash in every output directory."""
    blob = json.dumps(asdict(replace(cfg, out="")), sort_keys=True, default=list)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# datasets


def _group_mean_directions(k: int, d: int, seed: int, scale: float) -> np.ndarray:
    """Deterministic per-seed group means: opposite directions for two groups."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(d)
    u /= np.linalg.norm(u)
    if k == 2:
        return np.stack([scale * u, -scale * u])
    means = rng.standard_normal((k, d))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    return scale * means


def load_experiment_dataset(cfg: ExperimentConfig, classification: bool) -> Dataset:
    """Resolve the dataset knob.

    "auto" prefers the 6-image IDX subset when files are available (unless
    --synthetic) and falls back to seeded blobs with the same (5, 1) group
    structure; "blobs", "probe" and "mnist" force one source.
    """
    if cfg.dataset not in ("auto", "blobs", "probe", "mnist"):
        raise InvalidArgumentError(f"unknown dataset {cfg.dataset!r}")
    if cfg.dataset == "probe":
        return margin_probe_set(d=cfg.synth_d, seed=cfg.data_seed)
    if cfg.dataset == "mnist" or (cfg.dataset == "auto" and not cfg.synthetic):
        found = find_mnist_files()
        if found is not None:
            raw = load_mnist_idx(*found)
            return paper_subset(raw, classification=classification)
        if cfg.dataset == "mnist":
            raise InvalidArgumentError(
                f"no IDX files under {DATA_DIR_ENV} (default {data_dir()}); "
                "drop dataset=mnist or provide the files"
            )
    d = cfg.synth_d
    noise = cfg.synth_noise if cfg.synth_noise >= 0 else 1.0 / np.sqrt(d)
    means = _group_mean_directions(len(cfg.synth_sizes), d, cfg.data_seed, cfg.synth_mean_scale)
    return synth_groups(
        d, cfg.synth_sizes, means, noise, cfg.data_seed, classification=classification
    )


def _resolve_eta(cfg: ExperimentConfig, data: Dataset, mu: float = 0.0) -> float:
    """eta='auto' uses the conservative contraction bound (plus a ridge cap)."""
    if cfg.eta != "auto":
        return float(cfg.eta)
    if mu > 0:
        a = float(np.sum(data.X**2))
        return 1.0 / (a + mu)
    q_star = min(1.0 / data.n, float(iw_weights(data.groups).q.min()))
    return safe_learning_rate(data.X, q_star)


# ---------------------------------------------------------------------------
# report plumbing


# The source checkout holding this package (src layout), if it is one.
_CHECKOUT = Path(__file__).resolve().parents[2]


def git_sha(root: Path = _CHECKOUT) -> str | None:
    """The commit checked out at ``root``, read from ``root/.git`` without
    running git; None outside a git checkout or when HEAD cannot be read."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def environment() -> dict:
    """What a report ran on: Python, numpy and SciPy versions, numpy's BLAS,
    the CPU count and the git SHA.  It starts no process.  SciPy is imported
    here rather than with the module: a bare ``import scipy`` loads none of
    its subpackages, so a run that needs none of them stays without."""
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
    }


def _peak_rss_mib() -> float | None:
    """The process's peak resident set so far in MiB, or None where there is
    no ``getrusage`` (Windows).  ``ru_maxrss`` counts KiB on Linux and bytes
    on macOS."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return round(peak / (2**20 if sys.platform == "darwin" else 2**10), 2)


class Report:
    """One study's ``report.json`` and the files beside it.  Every file goes
    into ``cfg.out_dir`` through one of the writers below, which lists it in
    ``artifacts`` in the order the files are written."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.doc = {
            "experiment": cfg.experiment,
            "config_hash": config_hash(cfg),
            "assertions": [],
            "metrics": {},
            "artifacts": [],
            "phases_s": {},
            "peak_rss_mib": {},
            "steps_per_s": {},
            "environment": environment(),
        }
        self._t0 = time.perf_counter()

    def check(self, name: str, passed: bool, value=None, target: str = "") -> None:
        self.doc["assertions"].append(
            {"name": name, "passed": bool(passed), "value": value, "target": target}
        )

    def metric(self, name: str, value) -> None:
        self.doc["metrics"][name] = value

    @contextmanager
    def phase(self, name: str):
        """Time the enclosed block into ``phases_s`` and record the process's
        peak resident set when it ends into ``peak_rss_mib``; both are kept
        apart from ``metrics`` so that metrics compare across reruns.  A phase
        entered more than once adds up its blocks."""
        t0 = time.perf_counter()
        yield
        phases = self.doc["phases_s"]
        phases[name] = round(phases.get(name, 0.0) + time.perf_counter() - t0, 3)
        self.doc["peak_rss_mib"][name] = _peak_rss_mib()

    def train(self, batch: str, data, schemes, loss, eta, epochs, record_every, stop_risk=0.0,
              mu=0.0, theta0=None, model=None, record_params=False, theta_ref=None,
              ref_direction=None) -> list:
        """Train one run per scheme (spec text or scheme object) in lock
        step, timed into the ``train`` phase; the (final, trace) pairs come
        back in scheme order.

        Every run has the same stop_risk and mu; model defaults to a
        LinearModel of the data and theta0 to zeros.
        """
        cfgs = [TrainConfig(eta=eta, epochs=epochs, loss=loss, mu=mu, stop_risk=stop_risk,
                            scheme=parse_scheme(scheme) if isinstance(scheme, str) else scheme,
                            record_every=record_every, record_params=record_params)
                for scheme in schemes]
        model = model if model is not None else LinearModel(data.dim)
        theta0 = np.zeros(model.n_params) if theta0 is None else theta0
        with self.phase("train"):
            return self.train_batch(batch, model, data, cfgs, theta0=theta0, theta_ref=theta_ref,
                                    ref_direction=ref_direction)

    def train_batch(self, batch: str, *args, **kwargs) -> list:
        """``trainer.train(*args, **kwargs)`` on a list of configs.
        ``steps_per_s[batch]`` records the batch's rate: the most epochs any
        of its runs made over the seconds the call took.  Like ``phases_s``
        it is kept apart from ``metrics`` and the traces."""
        start = time.perf_counter()
        pairs = train(*args, **kwargs)
        seconds = time.perf_counter() - start
        steps = max(trace.epochs_run for _, trace in pairs)
        self.doc["steps_per_s"][batch] = round(steps / seconds, 1) if seconds > 0 else None
        return pairs

    def _path(self, name: str) -> Path:
        self.cfg.out_dir.mkdir(parents=True, exist_ok=True)
        return self.cfg.out_dir / name

    def _write(self, name: str, write) -> None:
        path = self._path(name)
        write(path)
        self.doc["artifacts"].append(str(path))

    def trace(self, tag: str, trace) -> None:
        """A run's trace as ``<tag>_trace.csv`` and its JSON mirror, stamped
        with the config hash; a ':' in the tag (``gdro:0.01``) becomes '-'."""
        trace.config_hash = self.doc["config_hash"]
        for fmt in ("csv", "json"):
            self._write(f"{tag.replace(':', '-')}_trace.{fmt}", partial(export_trace, trace, fmt=fmt))

    def panel(self, name: str, xname: str, xs, named_columns) -> None:
        """A chart's data as CSV: the x column, then one per (name, ys)."""
        lines = [",".join([xname] + [col for col, _ in named_columns])]
        for i, x in enumerate(xs):
            lines.append(",".join(format(float(v), ".17g")
                                  for v in [x] + [ys[i] for _, ys in named_columns]))
        self._write(name, lambda path: path.write_text("\n".join(lines) + "\n"))

    def chart(self, name: str, series, **labels) -> None:
        """``svg_line_chart`` of series, with its title, axis labels and scales."""
        self._write(name, lambda path: svg_line_chart(path, series, **labels))

    def finish(self) -> dict:
        """Write ``report.json``, the one file ``artifacts`` does not list."""
        self.doc["elapsed_s"] = round(time.perf_counter() - self._t0, 3)
        self.doc["passed"] = all(a["passed"] for a in self.doc["assertions"])
        doc = json.dumps(self.doc, indent=1, default=_json_default)
        self._path("report.json").write_text(doc + "\n")
        return self.doc


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


# ---------------------------------------------------------------------------
# SVG charts (data-only line charts with fixed axes)

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def svg_line_chart(path, series, title="", xlabel="", ylabel="", logy=False, logx=False):
    """Minimal polyline chart; series is a list of (name, xs, ys)."""
    width, height = 640, 420
    ml, mr, mt, mb = 74, 16, 34, 48
    # Each series' points on the axes' scale: finite, and positive on a log axis.
    curves = []
    for _, xs, ys in series:
        curve = []
        for x, y in zip(xs, ys):
            x, y = float(x), float(y)
            if np.isfinite(x) and np.isfinite(y) and not ((logx and x <= 0) or (logy and y <= 0)):
                curve.append((np.log10(x) if logx else x, np.log10(y) if logy else y))
        curves.append(curve)
    pts = [p for curve in curves for p in curve] or [(0.0, 0.0), (1.0, 1.0)]
    xs_all = [p[0] for p in pts]
    ys_all = [p[1] for p in pts]
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if x1 - x0 < 1e-30:
        x1 = x0 + 1.0
    if y1 - y0 < 1e-30:
        y1 = y0 + 1.0

    def px(x):
        return ml + (x - x0) / (x1 - x0) * (width - ml - mr)

    def py(y):
        return height - mb - (y - y0) / (y1 - y0) * (height - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<text x="{width / 2:.0f}" y="{height - 10}" text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="16" y="{height / 2:.0f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {height / 2:.0f})">{ylabel}</text>',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" stroke="black"/>',
    ]
    for i, (lo, hi, horiz) in enumerate([(x0, x1, True), (y0, y1, False)]):
        for frac in (0.0, 0.5, 1.0):
            v = lo + frac * (hi - lo)
            label = f"{10 ** v:.3g}" if (logx if horiz else logy) else f"{v:.3g}"
            if horiz:
                xpix = ml + frac * (width - ml - mr)
                parts.append(
                    f'<text x="{xpix:.0f}" y="{height - mb + 16}" text-anchor="middle" '
                    f'font-size="10">{label}</text>'
                )
            else:
                ypix = height - mb - frac * (height - mt - mb)
                parts.append(
                    f'<text x="{ml - 6}" y="{ypix:.0f}" text-anchor="end" '
                    f'font-size="10">{label}</text>'
                )
    for i, ((name, _, _), curve) in enumerate(zip(series, curves)):
        color = _PALETTE[i % len(_PALETTE)]
        coords = [f"{px(x):.1f},{py(y):.1f}" for x, y in curve]
        if coords:
            parts.append(
                f'<polyline points="{" ".join(coords)}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        parts.append(
            f'<text x="{width - mr - 6}" y="{mt + 14 + 14 * i}" text-anchor="end" '
            f'font-size="11" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# fig1: squared-loss equivalence of the three schemes


class _WeightLogger:
    """Scheme decorator keeping the weights its stepper hands back, one
    block per step: of the last ``tail`` steps, or of all when tail is None.
    fig1's settlement check needs the last 5000; the paired study replays
    every step on the linearizations.  A block drops its stopped runs
    through the inner ``keep``.  A static scheme has no stepper and logs
    nothing.  A Group DRO stepper hands back one read-only block for as long
    as its weights stay unchanged, so the buffer may hold it many times.
    """

    def __init__(self, inner, tail: int | None = 5000):
        self.inner = inner
        self.name = inner.name
        self.q_tail = deque(maxlen=tail)

    def init_state(self, groups):
        return self.inner.init_state(groups)

    def stepper(self, groups, runs: int = 1):
        step = self.inner.stepper(groups, runs)
        if step is None:
            return None

        def logged(losses):
            q = step(losses)
            self.q_tail.append(q)
            return q

        logged.keep = step.keep
        return logged


def run_fig1(cfg: ExperimentConfig) -> dict:
    """Squared-loss runs of every scheme from one start: all must meet at the
    span interpolator."""
    report = Report(cfg)
    with report.phase("data"):
        data = load_experiment_dataset(cfg, classification=False)
        report.metric("provenance", data.provenance)
        eta = _resolve_eta(cfg, data)
        report.metric("eta", eta)
        theta0 = np.zeros(data.dim)
        oracle = min_norm_interpolator(data.X, data.Y, theta0, data.X.T @ theta0)
        oracle_norm = float(np.linalg.norm(oracle))
        report.metric("oracle_norm", oracle_norm)
        # The datasets and targets are only pinned up to scaling choices, so the
        # interpolator norm is checked as an order of magnitude, not a value.
        report.check("oracle_norm_order_one", 0.05 < oracle_norm < 20.0, oracle_norm,
                     "in (0.05, 20)")

    # Dynamic schemes keep their trailing weights for the settlement check.
    loggers = [_WeightLogger(parse_scheme(s)) for s in cfg.schemes]
    runs = report.train("schemes", data, loggers, Squared(), eta, cfg.epochs, cfg.record_every,
                        stop_risk=cfg.stop_risk, record_params=True, theta_ref=oracle)
    finals = [final for final, _ in runs]
    traces = [trace for _, trace in runs]
    with report.phase("export"):
        for scheme_text, trace in zip(cfg.schemes, traces):
            report.trace(scheme_text, trace)

    with report.phase("checks"):
        for scheme_text, final, trace in zip(cfg.schemes, finals, traces):
            risk = trace.risk[-1]
            gap = float(np.linalg.norm(final - oracle))
            report.check(f"risk_below_1e-10[{scheme_text}]", risk < 1e-10, risk, "< 1e-10")
            report.check(f"oracle_gap_below_1e-3[{scheme_text}]", gap < 1e-3, gap, "< 1e-3")
        comparison = compare_runs(traces, finals)
        for i in range(len(finals)):
            for j in range(i + 1, len(finals)):
                gap = comparison["pairwise_gap"][i][j]
                report.check(
                    f"pairwise_gap_below_2e-3[{cfg.schemes[i]}|{cfg.schemes[j]}]",
                    gap < 2e-3, gap, "< 2e-3",
                )

        # Span invariant: parameter displacement never leaves span{x_i}.
        worst = 0.0
        for trace in traces:
            for theta in trace.theta_snapshots:
                disp = theta - trace.theta0
                norm = float(np.linalg.norm(disp))
                if norm > 0:
                    worst = max(worst, linalg.span_residual(disp, data.X) / norm)
        report.check("span_residual_below_1e-8", worst <= 1e-8, worst, "<= 1e-8 relative")
        report.metric("max_relative_span_residual", worst)

        # Weight convergence diagnostic for the dynamic schemes, at full epoch
        # resolution over the trailing buffer.
        for scheme_text, logger in zip(cfg.schemes, loggers):
            if not logger.q_tail:  # static weights
                continue
            # One C-level copy into a C-ordered array: the tail mean's bits
            # depend on the order it sums in.
            hist = np.array(logger.q_tail).reshape(len(logger.q_tail), -1)
            window = min(1000, hist.shape[0])
            ok, q_star, t_eps = check_assumption1(hist, window=window, tol=1e-4)
            report.check(f"weights_settle_positive[{scheme_text}]", ok, q_star,
                         "tail oscillation <= 1e-4, min weight > 0")
            report.metric(f"q_star[{scheme_text}]", q_star)
            report.metric(f"t_eps[{scheme_text}]", t_eps)

    # Panel data: gaps to the first scheme, first-scheme norm, losses, group weights.
    with report.phase("export"):
        steps = min(len(t) for t in traces)
        epochs_axis = traces[0].epochs[:steps]
        gap_series = []
        for scheme_text, trace in zip(cfg.schemes[1:], traces[1:]):
            gaps = [
                float(np.linalg.norm(trace.theta_snapshots[i] - traces[0].theta_snapshots[i]))
                for i in range(steps)
            ]
            gap_series.append((f"{cfg.schemes[0]} vs {scheme_text}", epochs_axis, gaps))
        report.panel("panel_weight_gaps.csv", "epoch", epochs_axis,
                     [(name, ys) for name, _, ys in gap_series])
        report.panel("panel_model_norm.csv", "epoch", epochs_axis,
                     [(f"norm[{cfg.schemes[0]}]", traces[0].theta_norm[:steps])])
        report.panel("panel_losses.csv", "epoch", epochs_axis,
                     [(f"risk[{s}]", t.risk[:steps]) for s, t in zip(cfg.schemes, traces)])
        gdro_traces = [(s, t) for s, t in zip(cfg.schemes, traces) if s.startswith("gdro")]
        if gdro_traces:
            name, tr = gdro_traces[0]
            cols = [(f"g_{k + 1}", [float(qg[k]) for qg in tr.q_group[:steps]])
                    for k in range(tr.n_groups)]
            report.panel("panel_group_weights.csv", "epoch", epochs_axis, cols)
        report.chart("panel_weight_gaps.svg", gap_series,
                     title="parameter gap to first scheme", xlabel="epoch", ylabel="L2 gap", logy=True)
        report.chart(
            "panel_losses.svg",
            [(f"risk[{s}]", epochs_axis, t.risk[:steps]) for s, t in zip(cfg.schemes, traces)],
            title="training risk", xlabel="epoch", ylabel="risk", logy=True,
        )
    report.metric("comparison", comparison)
    return report.finish()


# ---------------------------------------------------------------------------
# fig2: L2 regularization must be large to move the solution


def run_fig2(cfg: ExperimentConfig) -> dict:
    """Small vs large ridge penalty around the shared start."""
    report = Report(cfg)
    with report.phase("data"):
        data = load_experiment_dataset(cfg, classification=False)
        report.metric("provenance", data.provenance)
        theta0 = np.zeros(data.dim)
        f0 = data.X.T @ theta0

    regimes = {}
    for mu in (cfg.mu_small, cfg.mu_large):
        with report.phase("train"):
            eta = _resolve_eta(cfg, data, mu=mu)
        runs = report.train(f"mu={mu:g}", data, cfg.schemes, Squared(), eta, cfg.epochs,
                            cfg.record_every, mu=mu)
        finals = [final for final, _ in runs]
        traces = [trace for _, trace in runs]
        with report.phase("export"):
            for scheme_text, trace in zip(cfg.schemes, traces):
                report.trace(f"mu{mu:g}_{scheme_text}", trace)
        with report.phase("checks"):
            pairwise = compare_runs(traces, finals)["pairwise_gap"]
            gaps = [pairwise[i][j] for i in range(len(finals)) for j in range(i + 1, len(finals))]
            regimes[mu] = {
                "risks": [t.risk[-1] for t in traces],
                "max_pairwise_gap": max(gaps),
                "finals": finals,
                "initial_risk": traces[0].risk[0],
            }
            report.metric(f"mu={mu:g}", {k: v for k, v in regimes[mu].items() if k != "finals"})

            # Fixed-point check against the closed form for the static schemes.
            for scheme_text, final in zip(cfg.schemes, finals):
                if scheme_text in ("erm", "iw"):
                    q = parse_scheme(scheme_text).init_state(data.groups).q
                    ridge = ridge_closed_form(data.X, data.Y, q, mu, theta0, f0)
                    gap = float(np.linalg.norm(final - ridge))
                    report.check(
                        f"gd_limit_matches_ridge_oracle[mu={mu:g},{scheme_text}]",
                        gap < 1e-6, gap, "< 1e-6",
                    )
                    # The trace's risk at the optimum itself, where a converged
                    # run ends: the measured floor for small_mu_risk_below_1e-6.
                    report.metric(
                        f"ridge_oracle_risk[mu={mu:g},{scheme_text}]",
                        float(loss_value(Squared(), data.X.T @ ridge, data.Y).mean()),
                    )

    with report.phase("checks"):
        small, large = regimes[cfg.mu_small], regimes[cfg.mu_large]
        report.check(
            "small_mu_risk_below_1e-6",
            max(small["risks"]) < 1e-6, max(small["risks"]), "< 1e-6",
        )
        report.check(
            "small_mu_gaps_below_1e-2",
            small["max_pairwise_gap"] < 1e-2, small["max_pairwise_gap"], "< 1e-2",
        )
        report.check(
            "large_mu_risk_above_1e-2",
            min(large["risks"]) > 1e-2, min(large["risks"]), "> 1e-2",
        )
        ratio = (
            large["max_pairwise_gap"] / small["max_pairwise_gap"]
            if small["max_pairwise_gap"] > 0
            else float("inf")
        )
        report.check("large_mu_gap_ratio_above_10x", ratio > 10.0, ratio, "> 10x small-mu gaps")
        report.metric("gap_ratio_large_over_small", ratio)
    return report.finish()


# ---------------------------------------------------------------------------
# fig3: logistic vs polynomially-tailed classification


def _direction_gap_curve(trace_a, trace_b) -> tuple[list[int], list[float]]:
    """Gap between the normalized parameter iterates on the shared record grid."""
    steps = min(len(trace_a), len(trace_b))
    epochs, gaps = [], []
    for i in range(steps):
        ta, tb = trace_a.theta_snapshots[i], trace_b.theta_snapshots[i]
        na, nb = np.linalg.norm(ta), np.linalg.norm(tb)
        if na == 0 or nb == 0:
            continue
        epochs.append(trace_a.epochs[i])
        gaps.append(float(np.linalg.norm(ta / na - tb / nb)))
    return epochs, gaps


def run_fig3(cfg: ExperimentConfig) -> dict:
    """Direction agreement under the logistic loss vs persistent, growing
    disagreement under the power-law-tailed loss, same budget."""
    report = Report(cfg)
    with report.phase("data"):
        data = load_experiment_dataset(cfg, classification=True)
        report.metric("provenance", data.provenance)
        eta = float(cfg.eta) if cfg.eta != "auto" else 1.0
        mm = max_margin_direction(data.X, data.Y)
        report.metric("oracle_margin", mm.margin)

    losses = (Logistic(), PolyTailed(1.0, 0.0))
    poly_name = loss_name(PolyTailed(1.0, 0.0))
    runs: dict = {}

    for loss in losses:
        pairs = report.train(loss_name(loss), data, cfg.schemes, loss, eta, cfg.epochs,
                             cfg.record_every, stop_risk=cfg.stop_risk,
                             ref_direction=mm.direction, record_params=True)
        with report.phase("export"):
            for scheme_text, (final, trace) in zip(cfg.schemes, pairs):
                report.trace(f"{loss_name(loss).split(':')[0]}_{scheme_text}", trace)
                runs[(loss_name(loss), scheme_text)] = (final, trace)

    def unit(v):
        return v / np.linalg.norm(v)

    with report.phase("checks"):
        for scheme_text in cfg.schemes:
            final, trace = runs[("logistic", scheme_text)]
            cos = float(unit(final) @ mm.direction)
            report.metric(f"logistic_oracle_cosine[{scheme_text}]", cos)
            if cfg.dataset == "probe":
                # Clean margin geometry: the hard-margin limit is reachable
                # within the budget, so assert it outright.
                report.check(f"logistic_cosine_above_0.999[{scheme_text}]", cos > 0.999, cos, "> 0.999")
            norms = trace.theta_norm
            tail = max(2, len(norms) // 10)
            increasing = all(
                norms[i + 1] > norms[i] - 1e-12 for i in range(len(norms) - tail, len(norms) - 1)
            )
            report.check(f"norm_increasing_final_10pct[{scheme_text}]", increasing, norms[-1],
                         "nondecreasing tail")

        # Normalized-direction gap trajectories for the ERM-vs-IW pair.
        gap_curves = {}
        for name in ("logistic", poly_name):
            epochs_axis, gaps = _direction_gap_curve(runs[(name, "erm")][1], runs[(name, "iw")][1])
            gap_curves[name] = (epochs_axis, gaps)
            report.metric(f"direction_gap_erm_iw[{name}]", gaps[-1] if gaps else float("nan"))
        g_log, g_poly = gap_curves["logistic"][1], gap_curves[poly_name][1]
        half_log, half_poly = g_log[len(g_log) // 2], g_poly[len(g_poly) // 2]
        log_growth = (g_log[-1] - half_log) / max(g_log[-1], 1e-30)
        poly_growth = (g_poly[-1] - half_poly) / max(g_poly[-1], 1e-30)
        report.check("logistic_gap_plateaus", log_growth < 0.35, log_growth,
                     "relative growth over the second half < 0.35")
        report.metric("polytailed_gap_second_half_growth", poly_growth)
        ratio = g_poly[-1] / g_log[-1] if g_log[-1] > 0 else float("inf")
        report.check("polytailed_gap_at_least_2x_logistic", ratio >= 2.0, ratio, ">= 2x")
        report.metric("gap_ratio_poly_over_logistic", ratio)

        # Double-precision saturation flags: exact zero risk means the gradients
        # underflowed and training halted making progress.
        for key, (final, trace) in runs.items():
            report.metric(f"saturated[{key[0]}|{key[1]}]", bool(trace.risk[-1] == 0.0))

    with report.phase("export"):
        report.chart(
            "losses.svg",
            [(f"{ln}|{s}", runs[(ln, s)][1].epochs, runs[(ln, s)][1].risk) for (ln, s) in runs],
            title="training risk", xlabel="epoch", ylabel="risk", logy=True,
        )
        report.chart(
            "direction_gaps.svg",
            [(name, *curve) for name, curve in gap_curves.items()],
            title="normalized direction gap (erm vs iw)", xlabel="epoch", ylabel="gap",
        )
    return report.finish()


# ---------------------------------------------------------------------------
# ntk-convergence: finite-width kernel vs the analytic limit


def _unit_ball_points(d0: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((d0, count))
    pts /= np.linalg.norm(pts, axis=0, keepdims=True)
    pts *= rng.uniform(0.35, 1.0, size=count)
    return pts


def run_ntk_convergence(cfg: ExperimentConfig) -> dict:
    """Relative Frobenius error of the finite-width kernel Gram matrix against
    the infinite-width erf kernel, across widths."""
    report = Report(cfg)
    if cfg.nn_depth < 1:
        raise UnsupportedError("kernel study needs at least one hidden layer")
    if cfg.nn_activation != "erf":
        raise UnsupportedError("analytic limit exists only for erf")
    d0 = cfg.approx_d0
    with report.phase("data"):
        points = _unit_ball_points(d0, cfg.ntk_points, cfg.data_seed)
        spec = KernelSpec(depth=cfg.nn_depth, beta=cfg.nn_beta, activation="erf")
        limit = np.array(
            [
                [ntk_limiting_kernel(spec, points[:, i], points[:, j]) for j in range(cfg.ntk_points)]
                for i in range(cfg.ntk_points)
            ]
        )
        limit_norm = float(np.linalg.norm(limit))
        report.metric("limit_fro_norm", limit_norm)

    def cell(width, seed):
        arch = Architecture(d0, (width,) * cfg.nn_depth, beta=cfg.nn_beta, activation="erf")
        params = nn_init(arch, seed)
        _, feats = nn_grad_batch(arch, params, points)
        emp = linalg.gram(feats)
        err = float(np.linalg.norm(emp - limit)) / limit_norm
        lam_max, lam_min = linalg.extreme_eigenvalues(emp)
        return err, lam_min

    with report.phase("kernels"):
        cells = [[cell(width, 10_000 * width + s) for s in cfg.seeds] for width in cfg.widths]
    medians = []
    with report.phase("checks"):
        for width, out in zip(cfg.widths, cells):
            errs = sorted(e for e, _ in out)
            med = float(np.median(errs))
            medians.append(med)
            report.metric(f"median_rel_fro_error[width={width}]", med)
            min_eig = min(l for _, l in out)
            report.check(f"empirical_gram_psd[width={width}]", min_eig >= -1e-8, min_eig, ">= -1e-8")
        for a, b, wa, wb in zip(medians, medians[1:], cfg.widths, cfg.widths[1:]):
            report.check(f"median_error_decreases[{wa}->{wb}]", b < a, (a, b), "strictly decreasing")
    with report.phase("export"):
        report.panel("kernel_error.csv", "width", list(cfg.widths), [("median_rel_fro_error", medians)])
        report.chart("kernel_error.svg", [("median error", list(cfg.widths), medians)],
                     title="kernel convergence", xlabel="width", ylabel="rel. Frobenius error",
                     logx=True, logy=True)
    return report.finish()


# ---------------------------------------------------------------------------
# approx-scaling: width scaling of the linearization gap


def _tangent_kernels(arch, theta0, points, n):
    """Outputs and empirical tangent kernels at a p x S stack of starts.

    Returns f0, the (n + T) x S outputs at ``points`` (the n training points
    first), and the S x (n + T) x n kernels K[s] = F_s^T F_s[:, :n], with F_s
    the p x (n + T) Jacobian at seed s.  One seed's Jacobian is held at a
    time, not the S x p x (n + T) block of the whole stack; numpy's batched
    matmul makes one BLAS call per slice, so the bits are the same.
    """
    layout, seeds = layout_for(arch), theta0.shape[1]
    f0 = np.empty((points.shape[1], seeds))
    kernel = np.empty((seeds, points.shape[1], n))
    for s in range(seeds):
        f0[:, s], feats = nn_grad_batch(arch, ModelParams(theta0[:, s], layout), points)
        kernel[s] = feats.T @ feats[:, :n]
        del feats  # so that the next seed's Jacobian is not built beside it
    return f0, kernel


def _train_pair_shared_weights(arch, theta0, data, scheme, eta, epochs, stop_risk, probe,
                               train_batch=train):
    """Train nets and their linearizations with shared weight sequences.

    ``theta0`` is a p x S stack of starts, one seed per column.  Returns
    arrays of S: the sup over epochs of the output gap at the probe points
    and the final network risk.  The nets train as one ``train_batch`` call
    (``trainer.train`` or a wrapper) of S runs that hold one scheme object,
    each stopping at stop_risk; a ``_WeightLogger`` keeps the weights that
    their one stepper makes from the *network's* losses.  The linearizations
    replay them in function space (Lee et al. 2019): with F the features at
    the starts, theta_lin - theta0 = F_train @ coef, so their outputs are
    f0 + K @ coef with the tangent kernel K = F^T F_train and their step is
    coef <- coef - eta * q * dloss.  f0 and K come from one network pass per
    seed (``_tangent_kernels``).
    """
    net, n, seeds = WideNet(arch), data.n, theta0.shape[1]
    logger = _WeightLogger(scheme, tail=None)
    cfg = TrainConfig(eta=eta, epochs=epochs, loss=Squared(), scheme=logger, stop_risk=stop_risk,
                      record_every=epochs)
    runs = train_batch(net, data, [cfg] * seeds, theta0=theta0, probe=probe)
    stops = [trace.epochs_run for _, trace in runs]
    # The linearizations' outputs at the probe points by epoch, point and seed;
    # rows past a seed's stop are never written or read.
    lin_out = np.empty((max(stops) + 1, probe.shape[1], seeds))
    f0, kernel = _tangent_kernels(arch, theta0, np.hstack([data.X, probe]), n)
    # Working set: column j (slice j of K) is seed ids[j]'s until its net stopped.
    ids, coef = np.arange(seeds), np.zeros((n, seeds))
    q = np.repeat(scheme.init_state(data.groups).q[:, None], seeds, axis=1)
    logged = iter(logger.q_tail)  # empty for static weights: q stays as it starts
    loss_fn = loss_kernels(Squared())
    y = np.repeat(data.Y[:, None], seeds, axis=1)
    for t in range(max(stops) + 1):
        out_lin = f0 + np.einsum("smn,ns->ms", kernel, coef)
        lin_out[t][:, ids] = out_lin[n:]
        q = next(logged, q)
        step = q * loss_fn(out_lin[:n], y)[1]
        if t in stops:
            keep = np.array(stops)[ids] > t
            ids, q, y, coef = ids[keep], q[:, keep], y[:, keep], coef[:, keep]
            f0, kernel, step = f0[:, keep], kernel[keep], step[:, keep]
        step *= eta
        coef -= step
    sup_gap = [np.abs(trace.probe_outputs - lin_out[: trace.epochs_run + 1, :, s]).max()
               for s, (_, trace) in enumerate(runs)]
    return np.array(sup_gap), np.array([trace.risk[-1] for _, trace in runs])


def run_approx_scaling(cfg: ExperimentConfig) -> dict:
    """Sup-over-epochs output gap between the net and its linearization,
    swept over widths."""
    report = Report(cfg)
    d0 = cfg.approx_d0
    means = _group_mean_directions(len(cfg.approx_sizes), d0, cfg.data_seed, 0.4)
    data = synth_groups(d0, cfg.approx_sizes, means, 0.25, cfg.data_seed, classification=False)
    if data.n > 8:
        raise InvalidArgumentError("keep the paired study at n <= 8 samples")
    test_points = _unit_ball_points(d0, cfg.test_points, cfg.data_seed + 1)
    scheme_text = cfg.schemes[0]
    eta = float(cfg.eta) if cfg.eta != "auto" else 0.25
    report.metric("provenance", data.provenance)
    report.metric("eta", eta)
    if cfg.nn_activation == "erf":
        with report.phase("setup"):  # loading SciPy's erf, not charged to the first width
            import scipy.special  # noqa: F401

    medians = []
    for width in cfg.widths:
        arch = Architecture(d0, (width,) * cfg.nn_depth, beta=cfg.nn_beta,
                            activation=cfg.nn_activation)
        theta0 = np.column_stack([nn_init(arch, 77_000 + 10_000 * width + s).flat for s in cfg.seeds])
        batch = f"paired[width={width}]"
        with report.phase(batch):
            gaps, risks = _train_pair_shared_weights(arch, theta0, data, parse_scheme(scheme_text), eta,
                                                     cfg.epochs, cfg.stop_risk, test_points,
                                                     partial(report.train_batch, batch))
        med = float(np.median(gaps))
        medians.append(med)
        report.metric(f"median_sup_gap[width={width}]", med)
        report.metric(f"final_risks[width={width}]", [float(r) for r in risks])
    for a, b, wa, wb in zip(medians, medians[1:], cfg.widths, cfg.widths[1:]):
        report.check(f"median_gap_decreases[{wa}->{wb}]", b < a, (a, b), "strictly decreasing")
    slope = float(np.polyfit(np.log(cfg.widths), np.log(medians), 1)[0])
    report.check("log_log_slope_at_most_-0.2", slope <= -0.2, slope, "<= -0.2")
    report.metric("log_log_slope", slope)

    if cfg.reg_tracking_check:
        # Tiny-penalty runs track the unregularized uniform-weight run on test
        # points, and tightening the achieved risk shrinks the tracking gap.
        width = max(cfg.widths)
        arch = Architecture(d0, (width,) * cfg.nn_depth, beta=cfg.nn_beta,
                            activation=cfg.nn_activation)
        theta0 = nn_init(arch, cfg.data_seed).flat
        net = WideNet(arch)
        mus = [cfg.reg_tracking_mu, cfg.reg_tracking_mu / 10.0]
        cfgs = [TrainConfig(eta=eta, epochs=cfg.epochs, loss=Squared(), scheme=parse_scheme(text),
                            mu=mu, stop_risk=stop, record_every=cfg.record_every)
                for text, stop, mu in (("erm", cfg.stop_risk, 0.0), (scheme_text, 0.0, mus[0]),
                                       (scheme_text, 0.0, mus[1]))]
        with report.phase("reg_tracking"):
            (erm_final, _), *regs = report.train_batch("reg_tracking", net, data, cfgs, theta0=theta0)
        ref_out = net.predict(erm_final, test_points)
        gaps_mu = [float(np.abs(net.predict(final, test_points) - ref_out).max()) for final, _ in regs]
        risks_mu = [trace.risk[-1] for _, trace in regs]
        report.metric("reg_tracking", {"mus": mus, "risks": risks_mu, "test_gaps": gaps_mu})
        report.check("smaller_residual_risk_with_smaller_mu", risks_mu[1] < risks_mu[0],
                     risks_mu, "risk(mu/10) < risk(mu)")
        report.check("reg_tracking_gap_shrinks_with_risk", gaps_mu[1] < gaps_mu[0],
                     gaps_mu, "gap(mu/10) < gap(mu)")

    with report.phase("export"):
        report.panel("gap_scaling.csv", "width", list(cfg.widths), [("median_sup_gap", medians)])
        report.chart("gap_scaling.svg", [("median sup gap", list(cfg.widths), medians)],
                     title="linearization gap vs width", xlabel="width", ylabel="sup gap",
                     logx=True, logy=True)
    return report.finish()


# ---------------------------------------------------------------------------
# compare: generic scheme matrix plus optional sign-agreement study


def run_compare(cfg: ExperimentConfig) -> dict:
    """Arbitrary scheme/model/loss matrix from one start, with the pairwise
    gap report."""
    report = Report(cfg)
    with report.phase("data"):
        loss = parse_loss(cfg.loss)
        classification = not isinstance(loss, Squared)
        data = load_experiment_dataset(cfg, classification=classification)
        report.metric("provenance", data.provenance)
        model_spec = parse_model(cfg.model)
        if model_spec == "linear":
            model = LinearModel(data.dim)
            theta0 = np.zeros(data.dim)
        else:
            if model_spec.input_dim != data.dim:
                raise InvalidArgumentError("model input_dim does not match the dataset")
            model = WideNet(model_spec)
            theta0 = nn_init(model_spec, cfg.data_seed).flat
        eta = _resolve_eta(cfg, data, mu=cfg.mu)

    runs = report.train("schemes", data, cfg.schemes, loss, eta, cfg.epochs, cfg.record_every,
                        stop_risk=cfg.stop_risk, mu=cfg.mu, theta0=theta0, model=model)
    finals = [final for final, _ in runs]
    traces = [trace for _, trace in runs]
    with report.phase("export"):
        for scheme_text, trace in zip(cfg.schemes, traces):
            report.trace(scheme_text, trace)
    with report.phase("checks"):
        report.metric("comparison", compare_runs(traces, finals))

    if cfg.permute_check:
        # Full-batch sums are order-invariant up to float association, so a
        # run on a permuted sample order must land at the same parameters.
        rng = np.random.default_rng(cfg.data_seed + 99)
        order = rng.permutation(data.n)
        permuted = data.permuted(order)
        [(perm_final, _)] = report.train(
            "permuted", permuted, cfg.schemes[:1], loss, eta, cfg.epochs, cfg.record_every,
            stop_risk=cfg.stop_risk, mu=cfg.mu, theta0=theta0, model=model,
        )
        with report.phase("checks"):
            gap = float(np.linalg.norm(finals[0] - perm_final))
            report.check("sample_order_invariance_below_1e-9", gap <= 1e-9, gap, "<= 1e-9")

    if cfg.sign_check:
        _sign_agreement_study(cfg, report)
    return report.finish()


def _sign_agreement_study(cfg: ExperimentConfig, report: Report) -> None:
    """Regularized wide-net logistic classifier vs the feature-space
    hard-margin rule, on confidently-classified test points: the half of 64
    random points in the unit ball farthest from the rule's boundary."""
    with report.phase("data"):
        data = load_experiment_dataset(cfg, classification=True)
        d0 = data.dim
        arch = Architecture(d0, (cfg.sign_width,) * cfg.nn_depth, beta=cfg.nn_beta,
                            activation=cfg.nn_activation)
        theta0_params = nn_init(arch, cfg.data_seed)
        _, feats_train = nn_grad_batch(arch, theta0_params, data.X)
        mm = max_margin_direction(feats_train, data.Y)
        net = WideNet(arch)
        eta = float(cfg.eta) if cfg.eta != "auto" else 0.5
    [(final, trace)] = report.train(
        "sign_study", data, cfg.schemes[:1], Logistic(), eta, cfg.sign_epochs, cfg.record_every,
        mu=cfg.sign_mu, theta0=theta0_params.flat, model=net,
    )
    with report.phase("checks"):
        report.metric("sign_study_final_risk", trace.risk[-1])
        pts = _unit_ball_points(d0, 64, cfg.data_seed + 5)
        f0_pts, feats_pts = nn_grad_batch(arch, theta0_params, pts)
        f_mm = feats_pts.T @ mm.direction
        threshold = float(np.median(np.abs(f_mm)))
        confident = np.abs(f_mm) > threshold
        net_out = net.predict(final, pts) - f0_pts
        agree = np.sign(net_out[confident]) == np.sign(f_mm[confident])
        rate = float(np.mean(agree)) if agree.size else float("nan")
        report.check("sign_agreement_on_confident_points", bool(np.all(agree)), rate, "= 100%")
        report.metric("sign_study_confident_points", int(confident.sum()))


RUNNERS = {
    "fig1": run_fig1,
    "fig2": run_fig2,
    "fig3": run_fig3,
    "ntk-convergence": run_ntk_convergence,
    "approx-scaling": run_approx_scaling,
    "compare": run_compare,
}


def run_experiment(cfg: ExperimentConfig) -> dict:
    return RUNNERS[cfg.experiment](cfg)
