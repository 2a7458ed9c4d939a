"""Dataset construction and trace serialization.

Datasets hold a d x n input matrix whose columns are globally rescaled by the
reciprocal of the largest column norm, so the largest sample lands exactly on
the unit sphere and relative geometry (hence linear independence) is
preserved.  Sources: MNIST-style IDX files, a fixed 6-image subset (five of
one digit, one of another), and seeded Gaussian group blobs.

Trace files use the fixed schema

    epoch,weighted_risk,risk,group_risk_1..K,theta_gap_ref,theta_norm,cos_ref,q_group_1..K

with floats printed at 17 significant digits so a parse round-trips to the
identical float64 values.  The JSON mirror carries the same fields plus the
config hash of the run that produced it, why the run stopped and how many
epochs it ran.
"""

from __future__ import annotations

import gzip
import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, InvalidArgumentError, TraceIoError
from .linalg import as_matrix, gram, require_full_rank
from .reweighting import GroupInfo
from .trainer import TrainTrace

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801

DATA_DIR_ENV = "GRWLAB_DATA_DIR"
DEFAULT_DATA_DIR = "./data"


@dataclass(frozen=True)
class Dataset:
    """Immutable training set: inputs (d x n), targets, groups, provenance."""

    X: np.ndarray
    Y: np.ndarray
    groups: GroupInfo
    provenance: str
    classification: bool = False

    def __post_init__(self):
        x = as_matrix(self.X, "dataset inputs")
        y = np.asarray(self.Y, dtype=np.float64)
        if y.ndim != 1 or y.shape[0] != x.shape[1]:
            raise InvalidArgumentError("targets must be one per column")
        if self.groups.n != x.shape[1]:
            raise InvalidArgumentError("group labels must be one per column")
        norms = np.linalg.norm(x, axis=0)
        if norms.max() > 1.0 + 1e-9:
            raise InvalidArgumentError("columns must lie in the unit ball after normalization")
        if self.classification and not np.all(np.abs(y) == 1.0):
            raise InvalidArgumentError("classification targets must be -1/+1")
        object.__setattr__(self, "X", x)
        object.__setattr__(self, "Y", y)

    @property
    def n(self) -> int:
        return int(self.X.shape[1])

    @property
    def dim(self) -> int:
        return int(self.X.shape[0])

    def permuted(self, order) -> "Dataset":
        """Same samples in a different column order (full-batch invariant)."""
        order = np.asarray(order, dtype=np.int64)
        return Dataset(
            X=self.X[:, order],
            Y=self.Y[order],
            groups=GroupInfo(self.groups.labels[order]),
            provenance=f"{self.provenance} (permuted)",
            classification=self.classification,
        )


def _scaled_into_ball(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=0)
    top = norms.max()
    if top <= 0:
        raise InvalidArgumentError("cannot normalize an all-zero dataset")
    return x / top


@dataclass(frozen=True)
class RawMnist:
    """Decoded IDX store: images scaled to [0, 1], labels as raw bytes."""

    images: np.ndarray
    labels: np.ndarray


def _read_bytes(path) -> bytes:
    raw = Path(path).read_bytes()
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    return raw


def load_mnist_idx(images_path, labels_path) -> RawMnist:
    """Parse big-endian IDX image/label files (gzip accepted transparently)."""
    img = _read_bytes(images_path)
    if len(img) < 16:
        raise FormatError(f"truncated image file {images_path}")
    magic, count, rows, cols = struct.unpack(">IIII", img[:16])
    if magic != IMAGES_MAGIC:
        raise FormatError(f"bad image magic 0x{magic:08x}, expected 0x{IMAGES_MAGIC:08x}")
    need = 16 + count * rows * cols
    if len(img) < need:
        raise FormatError(f"image file holds {len(img)} bytes, header promises {need}")
    pixels = np.frombuffer(img, dtype=np.uint8, count=count * rows * cols, offset=16)
    images = pixels.reshape(count, rows, cols).astype(np.float64) / 255.0

    lab = _read_bytes(labels_path)
    if len(lab) < 8:
        raise FormatError(f"truncated label file {labels_path}")
    magic, lcount = struct.unpack(">II", lab[:8])
    if magic != LABELS_MAGIC:
        raise FormatError(f"bad label magic 0x{magic:08x}, expected 0x{LABELS_MAGIC:08x}")
    if len(lab) < 8 + lcount:
        raise FormatError(f"label file holds {len(lab)} bytes, header promises {8 + lcount}")
    labels = np.frombuffer(lab, dtype=np.uint8, count=lcount, offset=8).copy()
    if lcount != count:
        raise FormatError(f"{count} images but {lcount} labels")
    return RawMnist(images=images, labels=labels)


def write_idx_images(path, images: np.ndarray) -> None:
    """Write an IDX image file from a (count, rows, cols) uint8 array."""
    arr = np.asarray(images, dtype=np.uint8)
    if arr.ndim != 3:
        raise InvalidArgumentError("images must be (count, rows, cols)")
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", IMAGES_MAGIC, *arr.shape))
        fh.write(arr.tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    arr = np.asarray(labels, dtype=np.uint8)
    if arr.ndim != 1:
        raise InvalidArgumentError("labels must be 1-D")
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", LABELS_MAGIC, arr.shape[0]))
        fh.write(arr.tobytes())


def paper_subset(raw: RawMnist, classification: bool = False) -> Dataset:
    """Six-image set: the first five images labeled 0 and the first labeled 1.

    Images are flattened row-major and globally rescaled so the largest
    column sits on the unit sphere.  Regression targets are the digit value
    (0.0 / 1.0); classification mode maps digit 0 to -1 and digit 1 to +1.
    Linear independence of the six columns is verified at build time.
    """
    zeros = np.nonzero(raw.labels == 0)[0][:5]
    ones = np.nonzero(raw.labels == 1)[0][:1]
    if zeros.shape[0] < 5 or ones.shape[0] < 1:
        raise InvalidArgumentError("store must contain at least five 0s and one 1")
    idx = np.concatenate([zeros, ones])
    x = raw.images[idx].reshape(idx.shape[0], -1).T
    x = _scaled_into_ball(x)
    require_full_rank(gram(x), "dataset columns")
    if classification:
        y = np.array([-1.0] * 5 + [1.0])
    else:
        y = np.array([0.0] * 5 + [1.0])
    return Dataset(
        X=x,
        Y=y,
        groups=GroupInfo(np.array([0] * 5 + [1])),
        provenance="mnist-subset(first five 0s, first 1)",
        classification=classification,
    )


def synth_groups(
    d: int,
    sizes,
    means,
    noise: float,
    seed: int,
    classification: bool = False,
) -> Dataset:
    """Gaussian blob per group, deterministic per seed, rescaled into the ball.

    Group k draws size_k columns mean_k + noise * N(0, I_d).  Classification
    labels alternate -1, +1, -1, ... by group index; regression targets are
    the group index as a float.
    """
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) < 1 or any(s < 1 for s in sizes):
        raise InvalidArgumentError("every group must have size >= 1")
    means = np.asarray(means, dtype=np.float64)
    if means.shape != (len(sizes), d):
        raise InvalidArgumentError(f"means must have shape ({len(sizes)}, {d})")
    if noise < 0:
        raise InvalidArgumentError("noise must be >= 0")
    rng = np.random.default_rng(seed)
    cols, labels = [], []
    for k, size in enumerate(sizes):
        cols.append(means[k][:, None] + noise * rng.standard_normal((d, size)))
        labels.extend([k] * size)
    x = _scaled_into_ball(np.concatenate(cols, axis=1))
    labels = np.array(labels)
    if classification:
        y = np.where(labels % 2 == 0, -1.0, 1.0)
    else:
        y = labels.astype(np.float64)
    return Dataset(
        X=x,
        Y=y,
        groups=GroupInfo(labels),
        provenance=f"synthetic(d={d}, sizes={sizes}, noise={noise:g}, seed={seed})",
        classification=classification,
    )


def margin_probe_set(
    d: int = 24,
    seed: int = 7,
    depth: float = 0.8,
    spread: float = 0.15,
    deep_depth: float = 0.9,
    jitter: float = 0.01,
) -> Dataset:
    """Six-point separable set with groups (5, 1) and clean margin geometry.

    The majority group sits around ``-depth * u`` with a symmetric cross of
    offsets in two orthogonal directions plus one deeper point; the minority
    point sits at ``+u`` with the largest norm.  The margin-critical points
    are then a symmetric subset of the majority group, which keeps every
    reweighting scheme's within-support weights uniform, so normalized
    iterates align with the hard-margin direction quickly instead of on the
    usual O(1/log t) schedule.  A small jitter keeps the instance generic.
    """
    if d < 3:
        raise InvalidArgumentError("need d >= 3 for the probe construction")
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((d, 3)))
    u, v1, v2 = basis.T
    cols = [
        -depth * u + spread * v1,
        -depth * u - spread * v1,
        -depth * u + spread * v2,
        -depth * u - spread * v2,
        -deep_depth * u,
        1.0 * u,
    ]
    x = np.stack(cols, axis=1) + jitter * rng.standard_normal((d, 6)) / np.sqrt(d)
    x = _scaled_into_ball(x)
    return Dataset(
        X=x,
        Y=np.array([-1.0] * 5 + [1.0]),
        groups=GroupInfo(np.array([0] * 5 + [1])),
        provenance=f"margin-probe(d={d}, seed={seed})",
        classification=True,
    )


def data_dir() -> Path:
    return Path(os.environ.get(DATA_DIR_ENV, DEFAULT_DATA_DIR))


def find_mnist_files() -> tuple[Path, Path] | None:
    """Locate train IDX files under the data directory, if present."""
    base = data_dir()
    for img_name, lab_name in [
        ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
        ("train-images-idx3-ubyte.gz", "train-labels-idx1-ubyte.gz"),
    ]:
        img, lab = base / img_name, base / lab_name
        if img.exists() and lab.exists():
            return img, lab
    return None


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def trace_columns(n_groups: int) -> list[str]:
    cols = ["epoch", "weighted_risk", "risk"]
    cols += [f"group_risk_{k + 1}" for k in range(n_groups)]
    cols += ["theta_gap_ref", "theta_norm", "cos_ref"]
    cols += [f"q_group_{k + 1}" for k in range(n_groups)]
    return cols


def _trace_rows(trace: TrainTrace) -> list[list[float]]:
    rows = []
    for i in range(len(trace)):
        row = [float(trace.epochs[i]), trace.weighted_risk[i], trace.risk[i]]
        row += [float(v) for v in trace.group_risks[i]]
        row += [trace.theta_gap_ref[i], trace.theta_norm[i], trace.cos_ref[i]]
        row += [float(v) for v in trace.q_group[i]]
        rows.append(row)
    return rows


def export_trace(trace: TrainTrace, path, fmt: str = "csv") -> None:
    """Write a trace as CSV (exact schema) or as the JSON mirror."""
    if fmt not in ("csv", "json"):
        raise InvalidArgumentError(f"format must be 'csv' or 'json', got {fmt!r}")
    cols = trace_columns(trace.n_groups)
    rows = _trace_rows(trace)
    try:
        if fmt == "csv":
            lines = [",".join(cols)]
            for row in rows:
                lines.append(",".join(_fmt(v) for v in row))
            Path(path).write_text("\n".join(lines) + "\n")
        else:
            payload = {name: [row[j] for row in rows] for j, name in enumerate(cols)}
            payload["epoch"] = [int(e) for e in payload["epoch"]]
            doc = {
                "scheme": trace.scheme,
                "config_hash": trace.config_hash,
                "stop_reason": trace.stop_reason,
                "epochs_run": trace.epochs_run,
                "columns": cols,
                "data": payload,
            }
            Path(path).write_text(json.dumps(doc, indent=1, allow_nan=True) + "\n")
    except OSError as exc:
        raise TraceIoError(f"cannot write trace to {path}: {exc}") from exc


def read_trace_csv(path) -> dict[str, np.ndarray]:
    """Parse a trace CSV back into column arrays (floats are exact)."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise TraceIoError(f"cannot read trace from {path}: {exc}") from exc
    lines = [ln for ln in text.splitlines() if ln]
    if not lines:
        raise FormatError("empty trace file")
    cols = lines[0].split(",")
    data = {c: [] for c in cols}
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(cols):
            raise FormatError("row width does not match the header")
        for c, p in zip(cols, parts):
            data[c].append(float(p))
    return {c: np.array(v) for c, v in data.items()}
