import json
import struct

import numpy as np
import pytest

from grwlab.data_io import (
    Dataset,
    export_trace,
    load_mnist_idx,
    margin_probe_set,
    paper_subset,
    read_trace_csv,
    synth_groups,
    trace_columns,
    write_idx_images,
    write_idx_labels,
)
from grwlab.errors import FormatError, InvalidArgumentError, TraceIoError
from grwlab.losses import Squared
from grwlab.models import LinearModel
from grwlab.reweighting import GroupInfo, parse_scheme
from grwlab.trainer import TrainConfig, TrainTrace, train
from grwlab import linalg as la


def _fake_mnist(tmp_path, n_zeros=6, n_ones=2, rows=9, cols=9, seed=0):
    rng = np.random.default_rng(seed)
    count = n_zeros + n_ones
    images = rng.integers(0, 256, size=(count, rows, cols)).astype(np.uint8)
    labels = np.array([0] * n_zeros + [1] * n_ones, dtype=np.uint8)
    order = rng.permutation(count)
    img_path, lab_path = tmp_path / "imgs", tmp_path / "labs"
    write_idx_images(img_path, images[order])
    write_idx_labels(lab_path, labels[order])
    return img_path, lab_path


def test_idx_round_trip(tmp_path):
    images = np.array([[[0, 255], [128, 1]], [[7, 8], [9, 10]]], dtype=np.uint8)
    labels = np.array([3, 1], dtype=np.uint8)
    write_idx_images(tmp_path / "i", images)
    write_idx_labels(tmp_path / "l", labels)
    raw = load_mnist_idx(tmp_path / "i", tmp_path / "l")
    assert raw.images.shape == (2, 2, 2)
    assert np.array_equal(raw.labels, labels)
    assert np.array_equal((raw.images * 255).round().astype(np.uint8), images)


def test_idx_header_contents(tmp_path):
    img_path, lab_path = _fake_mnist(tmp_path)
    blob = img_path.read_bytes()
    magic, count, rows, cols = struct.unpack(">IIII", blob[:16])
    assert magic == 2051
    assert (count, rows, cols) == (8, 9, 9)
    magic, count = struct.unpack(">II", lab_path.read_bytes()[:8])
    assert magic == 2049
    assert count == 8


def test_idx_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(struct.pack(">IIII", 0xDEAD, 1, 2, 2) + bytes(4))
    lab = tmp_path / "lab"
    write_idx_labels(lab, np.array([0], dtype=np.uint8))
    with pytest.raises(FormatError):
        load_mnist_idx(path, lab)


def test_idx_rejects_truncation(tmp_path):
    path = tmp_path / "trunc"
    path.write_bytes(struct.pack(">IIII", 2051, 2, 3, 3) + bytes(5))
    lab = tmp_path / "lab"
    write_idx_labels(lab, np.array([0, 0], dtype=np.uint8))
    with pytest.raises(FormatError):
        load_mnist_idx(path, lab)


def test_paper_subset_shape_and_scaling(tmp_path):
    raw = load_mnist_idx(*_fake_mnist(tmp_path))
    data = paper_subset(raw)
    assert data.X.shape == (81, 6)
    assert data.n == 6
    assert data.groups.sizes.tolist() == [5, 1]
    norms = np.linalg.norm(data.X, axis=0)
    assert norms.max() == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(data.Y, [0.0] * 5 + [1.0])
    cls = paper_subset(raw, classification=True)
    assert np.array_equal(cls.Y, [-1.0] * 5 + [1.0])
    # Build-time independence check passed, so the Gram matrix is PD.
    _, lam_min = la.extreme_eigenvalues(la.gram(data.X))
    assert lam_min > 0


def test_paper_subset_takes_first_by_file_order(tmp_path):
    raw = load_mnist_idx(*_fake_mnist(tmp_path))
    zeros = np.nonzero(raw.labels == 0)[0][:5]
    ones = np.nonzero(raw.labels == 1)[0][:1]
    data = paper_subset(raw)
    expected = raw.images[np.concatenate([zeros, ones])].reshape(6, -1).T
    expected /= np.linalg.norm(expected, axis=0).max()
    assert np.allclose(data.X, expected)


def test_paper_subset_requires_enough_digits(tmp_path):
    raw = load_mnist_idx(*_fake_mnist(tmp_path, n_zeros=3, n_ones=1))
    with pytest.raises(InvalidArgumentError):
        paper_subset(raw)


def test_synth_groups_determinism_and_ball():
    means = np.zeros((2, 10))
    means[0, 0], means[1, 1] = 0.4, -0.4
    a = synth_groups(10, (5, 1), means, 0.1, 11)
    b = synth_groups(10, (5, 1), means, 0.1, 11)
    assert np.array_equal(a.X, b.X)
    norms = np.linalg.norm(a.X, axis=0)
    assert norms.max() <= 1.0 + 1e-9
    assert norms.max() >= 0.5
    c = synth_groups(10, (5, 1), means, 0.1, 12)
    assert not np.array_equal(a.X, c.X)


def test_synth_groups_classification_labels():
    means = np.zeros((3, 6))
    data = synth_groups(6, (2, 2, 2), means + 0.1, 0.05, 5, classification=True)
    assert np.array_equal(data.Y, [-1, -1, 1, 1, -1, -1])
    reg = synth_groups(6, (2, 2, 2), means + 0.1, 0.05, 5)
    assert np.array_equal(reg.Y, [0, 0, 1, 1, 2, 2])


def test_synth_groups_zero_noise_margin_direction():
    from grwlab.oracles import max_margin_direction

    means = np.zeros((2, 8))
    means[0] = 0.5 / np.sqrt(8)
    means[1] = -means[0]
    data = synth_groups(8, (3, 3), means, 0.0, 1, classification=True)
    sol = max_margin_direction(data.X, data.Y)
    mean_dir = -means[0] / np.linalg.norm(means[0])
    assert abs(float(sol.direction @ mean_dir)) > 1.0 - 1e-9


def test_synth_groups_mean_recovery():
    rng = np.random.default_rng(8)
    d = 16
    means = 0.3 * rng.standard_normal((2, d)) / np.sqrt(d)
    noise = 0.05
    data = synth_groups(d, (400, 400), means, noise, 3)
    # Undo the global scaling to compare against the requested means.
    raw_scale = 1.0
    raw = synth_groups(d, (400, 400), means, noise, 3).X
    # Estimate scale from the fact that scaling preserved direction only;
    # instead verify in the scaled frame: scaled means are column means.
    for k, size, sl in ((0, 400, slice(0, 400)), (1, 400, slice(400, 800))):
        est = data.X[:, sl].mean(axis=1)
        scale = np.linalg.norm(est) / max(np.linalg.norm(means[k]), 1e-12)
        assert np.linalg.norm(est - scale * means[k]) <= 4 * noise * scale / np.sqrt(size) * np.sqrt(d)


def test_margin_probe_set_structure():
    data = margin_probe_set(24, 7)
    assert data.n == 6
    assert data.groups.sizes.tolist() == [5, 1]
    assert data.classification
    assert np.linalg.norm(data.X, axis=0).max() == pytest.approx(1.0, abs=1e-12)
    from grwlab.oracles import max_margin_direction

    sol = max_margin_direction(data.X, data.Y)
    assert sol.margin > 0.5


def test_dataset_rejects_out_of_ball_columns():
    with pytest.raises(InvalidArgumentError):
        Dataset(X=np.array([[2.0], [0.0]]), Y=np.array([1.0]), groups=GroupInfo([0]),
                provenance="bad")


def test_dataset_permuted_preserves_content():
    data = margin_probe_set(12, 3)
    order = np.array([5, 4, 3, 2, 1, 0])
    perm = data.permuted(order)
    assert np.array_equal(perm.X[:, 0], data.X[:, 5])
    assert perm.Y[0] == data.Y[5]


def _tiny_trace():
    data = margin_probe_set(8, 5)
    cfg = TrainConfig(eta=0.1, epochs=7, loss=Squared(), scheme=parse_scheme("iw"),
                      stop_risk=0.0, record_every=2)
    _, trace = train(LinearModel(data.dim), data, cfg, theta0=np.zeros(data.dim))
    trace.config_hash = "cafe"
    return trace


def test_export_trace_csv_schema_and_round_trip(tmp_path):
    trace = _tiny_trace()
    path = tmp_path / "t.csv"
    export_trace(trace, path, "csv")
    text = path.read_text().splitlines()
    assert text[0] == "epoch,weighted_risk,risk,group_risk_1,group_risk_2,theta_gap_ref,theta_norm,cos_ref,q_group_1,q_group_2"
    cols = read_trace_csv(path)
    assert np.array_equal(cols["epoch"], trace.epochs)
    # 17 significant digits: float64 exact round trip.
    assert np.array_equal(cols["risk"], np.array(trace.risk))
    assert np.array_equal(cols["theta_norm"], np.array(trace.theta_norm))


def test_export_trace_json_mirror(tmp_path):
    trace = _tiny_trace()
    path = tmp_path / "t.json"
    export_trace(trace, path, "json")
    doc = json.loads(path.read_text())
    assert doc["config_hash"] == "cafe"
    assert doc["columns"] == trace_columns(2)
    assert doc["data"]["epoch"] == trace.epochs
    assert doc["data"]["risk"] == trace.risk
    assert (doc["stop_reason"], doc["epochs_run"]) == ("epoch_budget", 7)


def test_export_empty_trace_header_only(tmp_path):
    trace = TrainTrace(scheme="erm", theta0=np.zeros(3), n_groups=2)
    path = tmp_path / "empty.csv"
    export_trace(trace, path, "csv")
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("epoch,weighted_risk,risk")


def test_export_trace_io_error():
    trace = _tiny_trace()
    with pytest.raises(TraceIoError):
        export_trace(trace, "/definitely/not/a/dir/x.csv", "csv")
    with pytest.raises(InvalidArgumentError):
        export_trace(trace, "/tmp/x.parquet", "parquet")
