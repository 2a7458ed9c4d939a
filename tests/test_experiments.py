import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from grwlab.cli import main
from grwlab.data_io import write_idx_images, write_idx_labels
from grwlab.errors import DivergedError, InvalidArgumentError, UnsupportedError
from grwlab.experiments import (
    ExperimentConfig,
    config_hash,
    load_experiment_dataset,
    make_config,
    parse_config_file,
    run_compare,
    run_fig1,
    run_fig2,
    run_fig3,
    run_ntk_convergence,
    svg_line_chart,
)


def test_make_config_defaults_and_overrides():
    cfg = make_config("fig1", synthetic=True)
    assert cfg.experiment == "fig1"
    assert cfg.schemes == ("erm", "iw", "gdro:0.001")
    cfg2 = make_config("fig1", synthetic=True, epochs=10)
    assert cfg2.epochs == 10
    with pytest.raises(InvalidArgumentError):
        make_config("fig9")
    with pytest.raises(InvalidArgumentError):
        make_config("fig1", schemes=())


def test_parse_config_file(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text(
        """
        # comment
        experiment = fig1
        epochs = 123            # trailing comment
        schemes = erm, iw
        synthetic = true
        eta = 0.25
        widths = 8,16
        """
    )
    cfg = parse_config_file(path)
    assert cfg.experiment == "fig1"
    assert cfg.epochs == 123
    assert cfg.schemes == ("erm", "iw")
    assert cfg.synthetic is True
    assert cfg.eta == "0.25"
    assert cfg.widths == (8, 16)
    missing = tmp_path / "missing.cfg"
    missing.write_text("epochs = 5\n")
    with pytest.raises(InvalidArgumentError):
        parse_config_file(missing)
    bad = tmp_path / "bad.cfg"
    bad.write_text("epochs: 5\n")
    with pytest.raises(InvalidArgumentError):
        parse_config_file(bad, experiment="fig1")
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("experiment = fig1\nnot_a_key = 3\n")
    with pytest.raises(InvalidArgumentError):
        parse_config_file(unknown)


def test_retired_jobs_key_is_ignored_with_a_warning(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("experiment = fig1\njobs = 4\nepochs = 7\n")
    with pytest.warns(DeprecationWarning, match="jobs"):
        cfg = parse_config_file(path)
    assert cfg.epochs == 7
    assert not hasattr(cfg, "jobs")
    assert cfg == make_config("fig1", epochs=7)


def test_make_config_rejects_jobs_like_any_unknown_field():
    with pytest.raises(TypeError, match="jobs"):
        make_config("fig1", jobs=2)
    with pytest.raises(TypeError, match="not_a_key"):
        make_config("fig1", not_a_key=2)


def test_config_rejects_nan_in_every_float_key():
    floats = [k for k, v in vars(make_config("fig1")).items() if isinstance(v, float)]
    assert "synth_noise" in floats and "nn_beta" in floats
    for key in floats:
        with pytest.raises(InvalidArgumentError, match=key):
            make_config("fig1", **{key: float("nan")})


def test_config_rejects_values_of_the_wrong_type():
    # Each of these used to be accepted and failed later, inside a run.
    with pytest.raises(InvalidArgumentError, match="needs"):
        make_config("fig1", seeds="1,2", epochs=10.5, widths=5)
    for key, value in (("epochs", 10.5), ("epochs", True), ("widths", 5), ("seeds", [1, 2]),
                       ("seeds", (1, 2.0)), ("seeds", (1, False)), ("synthetic", 1),
                       ("mu", True), ("mu", "0.1"), ("eta", 0.5), ("schemes", ("erm", 3)),
                       ("schemes", "erm")):
        with pytest.raises(InvalidArgumentError, match=key):
            make_config("fig1", **{key: value})
    # A float key takes an int, kept as a float: one form, one config hash.
    cfg = make_config("fig2", mu_small=1)
    assert isinstance(cfg.mu_small, float) and cfg.mu_small == 1.0
    assert config_hash(cfg) == config_hash(make_config("fig2", mu_small=1.0))


def test_config_rejects_bad_penalties_up_front():
    # Each of these keys becomes a TrainConfig's mu; an infinite one would
    # fail only at the first epoch of its training, as a divergence.
    for key in ("mu", "mu_small", "mu_large", "reg_tracking_mu", "sign_mu"):
        for value in (float("inf"), -1.0):
            with pytest.raises(InvalidArgumentError, match=key):
                make_config("approx-scaling", **{key: value})


# Small enough that a config which got past the checks would finish quickly.
_SMALL_APPROX = "widths = 8,16\nseeds = 0,1\nepochs = 20\nreg_tracking_check = 0"


@pytest.mark.parametrize("argv,config,name", [
    (["fig1"], "epochs = abc", "epochs"),
    (["fig1"], "eta = abc", "eta"),
    (["approx-scaling"], "eta = -1\n" + _SMALL_APPROX, "eta"),
    (["approx-scaling"], "eta = 0\n" + _SMALL_APPROX, "eta"),
    (["approx-scaling"], "widths = 64,x", "widths"),
    (["compare", "--synthetic"], "model = mlp:4:64xq:0.5:erf", "model spec"),
    (["compare", "--synthetic"], "loss = polytailed:1:b", "loss spec"),
    (["oracle", "ridge", "--synthetic", "--scheme", "gdro:x"], None, "scheme spec"),
    (["fig1", "--synthetic"], "synth_noise = nan", "synth_noise"),
    (["fig1", "--synthetic"], "schemes = erm, gdro:inf", "nu must be a positive finite float"),
], ids=["epochs", "eta", "eta-negative", "eta-zero", "widths", "model", "loss", "scheme", "synth_noise",
        "gdro-inf"])
def test_cli_unparseable_numbers_exit_2(tmp_path, capsys, argv, config, name):
    if config is not None:
        path = tmp_path / "c.cfg"
        path.write_text(config + "\n")
        argv = argv + ["--config", str(path), "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err


@pytest.mark.parametrize("experiment,config,key", [
    ("fig1", "data_seed = -1", "data_seed"),
    ("approx-scaling", "data_seed = -1\n" + _SMALL_APPROX, "data_seed"),
    ("ntk-convergence", "data_seed = -1", "data_seed"),
    ("approx-scaling", _SMALL_APPROX + "\nseeds = 0,-1", "seeds"),
    ("approx-scaling", _SMALL_APPROX + "\nseeds =", "seeds"),
    ("ntk-convergence", "seeds =", "seeds"),
    ("approx-scaling", _SMALL_APPROX + "\nwidths =", "widths"),
    ("ntk-convergence", "widths =", "widths"),
    ("approx-scaling", _SMALL_APPROX + "\nwidths = 8", "widths"),
    ("approx-scaling", _SMALL_APPROX + "\nwidths = 8,8", "widths"),
    ("approx-scaling", _SMALL_APPROX + "\ntest_points = 0", "test_points"),
    ("ntk-convergence", "ntk_points = 0", "ntk_points"),
    ("approx-scaling", _SMALL_APPROX + "\napprox_d0 = 0", "approx_d0"),
    ("ntk-convergence", "approx_d0 = 0", "approx_d0"),
    ("fig1", "synth_d = 0", "synth_d"),
], ids=["fig1-data_seed", "approx-data_seed", "ntk-data_seed", "approx-negative-seed",
        "approx-no-seeds", "ntk-no-seeds", "approx-no-widths", "ntk-no-widths", "approx-one-width",
        "approx-one-distinct-width", "test_points", "ntk_points", "approx-d0", "ntk-d0", "synth_d"])
def test_cli_config_holes_exit_2_naming_the_key(tmp_path, capsys, experiment, config, key):
    # Each of these used to end in a traceback with status 1, in an error
    # that did not name the key, or in a run that passed checks it never
    # made (one width: a slope through one point; no widths: no checks).
    path = tmp_path / "c.cfg"
    path.write_text(config + "\n")
    assert main([experiment, "--synthetic", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config key ") and repr(key) in err
    assert not (tmp_path / "o").exists()


def test_cli_has_no_jobs_option(capsys):
    with pytest.raises(SystemExit):
        main(["fig1", "--jobs", "2"])
    assert "unrecognized arguments: --jobs" in capsys.readouterr().err


@pytest.mark.parametrize("content", [None, b"experiment = fig1\n\xff\xfe = 1\n"],
                         ids=["missing", "not-utf8"])
def test_cli_unreadable_config_exits_2_naming_the_file(tmp_path, capsys, content):
    path = tmp_path / "c.cfg"
    if content is not None:
        path.write_bytes(content)
    assert main(["fig1", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config file") and str(path) in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text,expected", [
    ("1", True), ("0", False), ("true", True), ("false", False), ("yes", True),
    ("no", False), ("on", True), ("off", False), ("TRUE", True), ("No", False), ("oN", True),
])
def test_parse_config_file_boolean_spellings(tmp_path, text, expected):
    path = tmp_path / "c.cfg"
    path.write_text(f"experiment = compare\npermute_check = {text}\n")
    assert parse_config_file(path).permute_check is expected


def test_parse_config_file_rejects_unknown_boolean(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("experiment = compare\npermute_check = maybe\n")
    with pytest.raises(InvalidArgumentError, match="permute_check"):
        parse_config_file(path)


def test_shipped_configs_parse():
    cfg_dir = Path(__file__).resolve().parents[1] / "configs"
    files = sorted(cfg_dir.glob("*.cfg"))
    assert len(files) >= 6
    # Each shipped file describes its experiment's defaults, the ones the
    # acceptance suite runs; compare's file adds one scheme to show CVaR.
    declared = {"compare": dict(schemes=("erm", "iw", "gdro:0.01", "cvar:0.5"))}
    seen = set()
    for path in files:
        cfg = parse_config_file(path)
        seen.add(cfg.experiment)
        assert config_hash(cfg)
        assert path.stem == cfg.experiment
        assert cfg == make_config(cfg.experiment, **declared.get(cfg.experiment, {})), path.name
    assert seen == {"fig1", "fig2", "fig3", "ntk-convergence", "approx-scaling", "compare"}


def test_config_hash_stable_and_sensitive():
    a = make_config("fig1", synthetic=True)
    b = make_config("fig1", synthetic=True)
    c = make_config("fig1", synthetic=True, epochs=77)
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)
    # Where a study is written does not change what it is.
    assert config_hash(make_config("fig1", synthetic=True, out="a")) == config_hash(a)


def test_dataset_knob(tmp_path, monkeypatch):
    cfg = make_config("compare", synthetic=True, dataset="probe")
    data = load_experiment_dataset(cfg, classification=True)
    assert data.provenance.startswith("margin-probe")
    cfg = make_config("compare", synthetic=True)
    data = load_experiment_dataset(cfg, classification=False)
    assert data.provenance.startswith("synthetic")
    with pytest.raises(InvalidArgumentError):
        load_experiment_dataset(make_config("compare", dataset="nope"), False)
    # mnist resolution through the environment variable.
    rng = np.random.default_rng(0)
    write_idx_images(tmp_path / "train-images-idx3-ubyte",
                     rng.integers(0, 256, size=(8, 5, 5)).astype(np.uint8))
    write_idx_labels(tmp_path / "train-labels-idx1-ubyte",
                     np.array([0, 0, 0, 0, 0, 1, 1, 0], dtype=np.uint8))
    monkeypatch.setenv("GRWLAB_DATA_DIR", str(tmp_path))
    data = load_experiment_dataset(make_config("compare", dataset="mnist"), False)
    assert data.provenance.startswith("mnist-subset")
    assert data.n == 6
    # auto prefers the files unless --synthetic forces blobs.
    auto = load_experiment_dataset(make_config("compare"), False)
    assert auto.provenance.startswith("mnist-subset")
    forced = load_experiment_dataset(make_config("compare", synthetic=True), False)
    assert forced.provenance.startswith("synthetic")


def test_fig1_artifacts_and_determinism(tmp_path):
    cfg = make_config("fig1", synthetic=True, out=str(tmp_path / "a"),
                      epochs=4000, record_every=500)
    rep1 = run_fig1(cfg)
    names = {a["name"] for a in rep1["assertions"]}
    assert any(n.startswith("risk_below") for n in names)
    assert any(n.startswith("span_residual") for n in names)
    report_path = tmp_path / "a" / "fig1" / "report.json"
    assert report_path.exists()
    doc = json.loads(report_path.read_text())
    assert doc["config_hash"] == config_hash(cfg)
    trace_csv = tmp_path / "a" / "fig1" / "erm_trace.csv"
    assert trace_csv.exists()
    assert (tmp_path / "a" / "fig1" / "panel_losses.csv").exists()
    assert (tmp_path / "a" / "fig1" / "panel_weight_gaps.svg").exists()
    # Re-running the identical config yields byte-identical traces.
    cfg2 = make_config("fig1", synthetic=True, out=str(tmp_path / "b"),
                       epochs=4000, record_every=500)
    run_fig1(cfg2)
    for name in ("erm_trace.csv", "iw_trace.csv", "gdro-0.001_trace.csv"):
        assert (tmp_path / "a" / "fig1" / name).read_bytes() == \
               (tmp_path / "b" / "fig1" / name).read_bytes()
        mirror = name.replace(".csv", ".json")
        assert (tmp_path / "a" / "fig1" / mirror).read_bytes() == \
               (tmp_path / "b" / "fig1" / mirror).read_bytes()


def test_fig1_batched_traces_match_sequential_runs(tmp_path):
    # fig1 trains its schemes as one lock-step batch; each trace file must
    # match a fig1 run of that scheme alone.
    from grwlab.data_io import read_trace_csv

    schemes = ("erm", "iw", "gdro:0.001")
    run_fig1(make_config("fig1", synthetic=True, out=str(tmp_path / "batch"),
                         epochs=3000, record_every=500, schemes=schemes))
    for scheme in schemes:
        run_fig1(make_config("fig1", synthetic=True, out=str(tmp_path / scheme),
                             epochs=3000, record_every=500, schemes=(scheme,)))
        name = f"{scheme.replace(':', '-')}_trace.csv"
        batched = read_trace_csv(tmp_path / "batch" / "fig1" / name)
        alone = read_trace_csv(tmp_path / scheme / "fig1" / name)
        assert batched.keys() == alone.keys()
        for column, values in alone.items():
            np.testing.assert_allclose(batched[column], values, rtol=1e-12, atol=1e-15,
                                       err_msg=f"{scheme}: {column}")


def test_fig2_ridge_oracle_assertions(tmp_path):
    cfg = make_config("fig2", synthetic=True, out=str(tmp_path), epochs=8000,
                      record_every=1000, schemes=("erm", "iw"))
    rep = run_fig2(cfg)
    oracle_checks = [a for a in rep["assertions"] if a["name"].startswith("gd_limit_matches")]
    assert len(oracle_checks) == 4
    assert all(a["passed"] for a in oracle_checks)
    assert any(a["name"] == "large_mu_risk_above_1e-2" and a["passed"] for a in rep["assertions"])
    # The closed-form optimum's risk is recorded next to the trained risk it
    # bounds from below, and the converged runs reach it.
    for mu in ("0.1", "10"):
        trained = rep["metrics"][f"mu={mu}"]["risks"]
        for scheme, risk in zip(("erm", "iw"), trained):
            floor = rep["metrics"][f"ridge_oracle_risk[mu={mu},{scheme}]"]
            assert floor == pytest.approx(risk, rel=1e-9)


def test_ntk_convergence_guards():
    with pytest.raises(UnsupportedError):
        run_ntk_convergence(make_config("ntk-convergence", synthetic=True, nn_activation="tanh"))
    cfg = ExperimentConfig(experiment="ntk-convergence", nn_depth=1)
    assert cfg.nn_depth == 1
    with pytest.raises(UnsupportedError):
        run_ntk_convergence(make_config("ntk-convergence", synthetic=True, nn_depth=0))


def test_compare_single_run_trivial_report(tmp_path):
    cfg = make_config("compare", synthetic=True, out=str(tmp_path), epochs=500,
                      record_every=100, schemes=("erm",), permute_check=False)
    rep = run_compare(cfg)
    comp = rep["metrics"]["comparison"]
    assert comp["schemes"] == ["erm"]
    assert comp["pairwise_gap"] == [[0.0]]


def test_compare_order_invariance(tmp_path):
    cfg = make_config("compare", synthetic=True, out=str(tmp_path), epochs=2000,
                      record_every=500, schemes=("erm", "iw"))
    rep = run_compare(cfg)
    inv = [a for a in rep["assertions"] if a["name"].startswith("sample_order")]
    assert inv and inv[0]["passed"]


def test_paired_training_gap_zero_at_start():
    from grwlab.experiments import _train_pair_shared_weights
    from grwlab.models import Architecture, nn_init
    from grwlab.reweighting import parse_scheme as ps

    data = load_experiment_dataset(make_config("compare", synthetic=True, synth_d=4), False)
    arch = Architecture(4, (32,), beta=0.1)
    theta0 = nn_init(arch, 0).flat[:, None]
    pts = np.random.default_rng(1).standard_normal((4, 3)) / 4
    # The nets train through train, whose configs need epochs >= 1.
    with pytest.raises(InvalidArgumentError, match="epochs"):
        _train_pair_shared_weights(arch, theta0, data, ps("erm"), 0.2, 0, 0.0, pts)
    # The output layer starts at zero, so the first step moves only that
    # layer, in which the net is linear: net and linearization still agree
    # after it, up to rounding.
    gap, _ = _train_pair_shared_weights(arch, theta0, data, ps("erm"), 0.2, 1, 0.0, pts)
    assert gap.shape == (1,) and 0.0 <= gap[0] < 1e-15


def _paired_inputs():
    from grwlab.models import Architecture, nn_init

    data = load_experiment_dataset(make_config("compare", synthetic=True, synth_d=4,
                                               synth_sizes=(2, 2)), False)
    arch = Architecture(4, (64,), beta=0.1)
    pts = np.random.default_rng(1).standard_normal((4, 3))
    pts /= 1.2 * np.linalg.norm(pts, axis=0).max()
    return arch, nn_init(arch, 0).flat, data, pts


def _paired_reference(arch, theta0, data, scheme, eta, epochs, pts):
    """Two-pass loop: predict for the values, the full Jacobian for the step."""
    from grwlab.losses import Squared, loss_grad, loss_value
    from grwlab.models import WideNet

    net = WideNet(arch)
    theta_nn, theta_lin = theta0.copy(), theta0.copy()
    f0_train, f0_test = net.predict(theta0, data.X), net.predict(theta0, pts)
    feats_train, feats_test = net.jacobian(theta0, data.X), net.jacobian(theta0, pts)
    state = scheme.init_state(data.groups)
    sup_gap, risk = 0.0, float("nan")
    for t in range(epochs + 1):
        lin_test = f0_test + feats_test.T @ (theta_lin - theta0)
        sup_gap = max(sup_gap, float(np.abs(net.predict(theta_nn, pts) - lin_test).max()))
        yhat = net.predict(theta_nn, data.X)
        losses = loss_value(Squared(), yhat, data.Y)
        risk = float(losses.mean())
        if t == epochs:
            break
        state = scheme.update(state, losses, data.groups)
        q = state.q
        theta_nn = theta_nn - eta * (net.jacobian(theta_nn, data.X) @ (q * loss_grad(Squared(), yhat, data.Y)))
        yhat_lin = f0_train + feats_train.T @ (theta_lin - theta0)
        theta_lin = theta_lin - eta * (feats_train @ (q * loss_grad(Squared(), yhat_lin, data.Y)))
    return sup_gap, risk


def test_paired_training_one_forward_pass_per_epoch_and_matches_two_pass_loop(monkeypatch):
    import grwlab.models as models
    from grwlab.experiments import _train_pair_shared_weights
    from grwlab.models import nn_init
    from grwlab.reweighting import parse_scheme as ps

    arch, _, data, pts = _paired_inputs()
    starts = np.column_stack([nn_init(arch, s).flat for s in (0, 1)])
    refs = [_paired_reference(arch, start, data, ps("gdro:0.1"), 0.25, 40, pts) for start in starts.T]
    calls = []
    original = models.nn_forward_batch
    monkeypatch.setattr(models, "nn_forward_batch", lambda *a, **k: calls.append(1) or original(*a, **k))
    for epochs in (20, 40):
        calls.clear()
        got = _train_pair_shared_weights(arch, starts, data, ps("gdro:0.1"), 0.25, epochs, 0.0, pts)
        # One network pass per epoch (epochs + 1 evaluations) for both seeds,
        # plus one per seed for its f0 and tangent kernel at the training and
        # test points; the linearizations then step in function space with
        # no pass.
        assert len(calls) == epochs + 1 + starts.shape[1]
    for s, ref in enumerate(refs):
        assert ref[0] > 1e-6  # the gap is not trivially zero
        assert got[0][s] == pytest.approx(ref[0], rel=1e-10)
        assert got[1][s] == pytest.approx(ref[1], rel=1e-10)


@pytest.mark.parametrize("depth", [1, 2])
def test_tangent_kernels_one_seed_at_a_time_match_the_batched_jacobian_bits(depth):
    from grwlab.experiments import _tangent_kernels
    from grwlab.models import Architecture, ModelParams, layout_for, nn_grad_batch, nn_init

    pts = np.random.default_rng(1).standard_normal((4, 12))
    pts /= 1.2 * np.linalg.norm(pts, axis=0).max()
    for width in (16, 256):
        arch = Architecture(4, (width,) * depth, beta=0.1)
        starts = np.column_stack([nn_init(arch, s).flat for s in range(3)])
        for n in (8, 12):  # with test points, and the training points alone
            f0, kernel = _tangent_kernels(arch, starts, pts, n)
            f0_all, feats = nn_grad_batch(arch, ModelParams(starts, layout_for(arch)), pts)
            np.testing.assert_array_equal(f0, f0_all)
            np.testing.assert_array_equal(kernel, feats.swapaxes(1, 2) @ feats[:, :, :n])


def test_tangent_kernels_hold_one_seeds_jacobian_at_a_time():
    import tracemalloc

    from grwlab.experiments import _tangent_kernels
    from grwlab.models import Architecture, nn_init

    arch = Architecture(4, (1024,), beta=0.1)
    starts = np.column_stack([nn_init(arch, s).flat for s in range(5)])
    pts = np.random.default_rng(1).standard_normal((4, 8))
    pts /= 1.2 * np.linalg.norm(pts, axis=0).max()
    _tangent_kernels(arch, starts, pts, 4)  # SciPy's erf loads on the first call
    tracemalloc.start()
    try:
        _tangent_kernels(arch, starts, pts, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The 5 x p x 8 Jacobian of all seeds at once is 1.97 MB, and building it
    # peaked at 5.05 MB; one seed at a time peaks at about 1.12 MB.
    batched_jacobian = starts.size * pts.shape[1] * 8
    assert peak < 0.7 * batched_jacobian


def test_paired_training_pulls_back_only_the_training_columns(monkeypatch):
    # The test points ride in the forward batch but carry no cotangents.
    import grwlab.models as models
    from grwlab.experiments import _train_pair_shared_weights
    from grwlab.reweighting import parse_scheme as ps

    arch, theta0, data, pts = _paired_inputs()
    rows = []
    original = models.nn_pullback
    monkeypatch.setattr(models, "nn_pullback",
                        lambda arch, params, xs, cache, v: rows.append((xs.shape[1], v.shape))
                        or original(arch, params, xs, cache, v))
    _train_pair_shared_weights(arch, np.column_stack([theta0, theta0]), data, ps("gdro:0.1"), 0.25,
                               5, 0.0, pts)
    assert rows == [(data.n + pts.shape[1], (data.n, 2))] * 5


def test_paired_training_divergence_names_the_seed_and_carries_its_parameters():
    from grwlab.experiments import _train_pair_shared_weights
    from grwlab.models import nn_init
    from grwlab.reweighting import parse_scheme as ps

    arch, _, data, pts = _paired_inputs()
    # At eta 50, seed 0 diverges at epoch 93 and seed 1 at epoch 95: in
    # columns (1, 0), column 1 goes first.
    starts = np.column_stack([nn_init(arch, s).flat for s in (1, 0)])
    # The overflow on the way there is no warning: with warnings turned into
    # errors, the divergence still surfaces as DivergedError.
    errors = []
    for theta0 in (starts, starts[:, 1:]):
        with warnings.catch_warnings(), pytest.raises(DivergedError) as info:
            warnings.simplefilter("error")
            _train_pair_shared_weights(arch, theta0, data, ps("gdro:0.1"), 50.0, 200, 0.0, pts)
        errors.append(info.value)
    pair, alone = errors
    # train's error names the run, which is the seed's column of the starts.
    assert str(pair) == "run 1: non-finite risk at epoch 93"
    assert str(alone) == "run 0: non-finite risk at epoch 93"
    assert pair.params.shape == (starts.shape[0],)
    np.testing.assert_array_equal(pair.params, alone.params)
    assert (pair.trace.stop_reason, pair.trace.epochs_run) == ("diverged", 93)
    assert pair.trace.probe_outputs.shape == (94, pts.shape[1])


def test_paired_training_batched_seeds_match_each_seed_alone():
    from grwlab.experiments import _train_pair_shared_weights
    from grwlab.models import nn_init
    from grwlab.reweighting import parse_scheme as ps

    arch, _, data, pts = _paired_inputs()
    starts = np.column_stack([nn_init(arch, s).flat for s in (0, 1, 2)])
    # The first seed reaches this risk at epoch 30, the others between epochs
    # 30 and 45, so the batch drops its seeds one by one.
    stop = _train_pair_shared_weights(arch, starts[:, :1], data, ps("gdro:0.1"), 0.25, 30, 0.0,
                                      pts)[1][0]
    gaps, final = _train_pair_shared_weights(arch, starts, data, ps("gdro:0.1"), 0.25, 60, stop, pts)
    assert gaps.shape == final.shape == (3,)
    for s in range(3):
        gap, risk = _train_pair_shared_weights(arch, starts[:, s, None], data, ps("gdro:0.1"), 0.25,
                                               60, stop, pts)
        assert gaps[s] == pytest.approx(gap[0], rel=1e-12)
        assert final[s] == pytest.approx(risk[0], rel=1e-12)
    assert np.all(final <= stop)


@pytest.mark.parametrize("spec", ["erm", "cvar:0.5"])
def test_paired_training_static_and_cvar_seeds_match_each_seed_alone(spec):
    # The paired study's one stepper for all seeds: none for static weights,
    # and CVaR's, which keeps nothing from step to step, as seeds drop out.
    from grwlab.experiments import _train_pair_shared_weights
    from grwlab.models import nn_init
    from grwlab.reweighting import parse_scheme as ps

    arch, theta0, data, pts = _paired_inputs()
    ref = _paired_reference(arch, theta0, data, ps(spec), 0.25, 20, pts)
    got = _train_pair_shared_weights(arch, theta0[:, None], data, ps(spec), 0.25, 20, 0.0, pts)
    assert got[0][0] == pytest.approx(ref[0], rel=1e-10)
    assert got[1][0] == pytest.approx(ref[1], rel=1e-10)
    starts = np.column_stack([nn_init(arch, s).flat for s in (0, 1, 2)])
    stop = _train_pair_shared_weights(arch, starts[:, :1], data, ps(spec), 0.25, 30, 0.0,
                                      pts)[1][0]
    gaps, final = _train_pair_shared_weights(arch, starts, data, ps(spec), 0.25, 60, stop, pts)
    for s in range(3):
        gap, risk = _train_pair_shared_weights(arch, starts[:, s, None], data, ps(spec), 0.25,
                                               60, stop, pts)
        assert gaps[s] == pytest.approx(gap[0], rel=1e-12)
        assert final[s] == pytest.approx(risk[0], rel=1e-12)
    assert np.all(final <= stop) and len(set(final.tolist())) == 3


def test_approx_scaling_report_times_its_phases(tmp_path):
    from grwlab.experiments import run_approx_scaling

    cfg = make_config("approx-scaling", synthetic=True, out=str(tmp_path), widths=(8, 16),
                      seeds=(0, 1), epochs=20, record_every=10)
    rep = run_approx_scaling(cfg)
    doc = json.loads((tmp_path / "approx-scaling" / "report.json").read_text())
    phases = doc["phases_s"]
    # setup loads SciPy's erf, which the first width's phase used to pay for.
    assert set(phases) == {"setup", "paired[width=8]", "paired[width=16]", "reg_tracking", "export"}
    assert all(math.isfinite(t) and t >= 0 for t in phases.values())
    # The process's peak resident set as each phase ended: it never falls.
    peaks = [doc["peak_rss_mib"][name] for name in phases]
    assert set(doc["peak_rss_mib"]) == set(phases) and rep["peak_rss_mib"] == doc["peak_rss_mib"]
    assert peaks[0] > 1 and peaks == sorted(peaks)
    # One step rate per training batch: each width's seeds and the
    # regularization-tracking runs.
    rates = doc["steps_per_s"]
    assert set(rates) == {"paired[width=8]", "paired[width=16]", "reg_tracking"}
    assert all(math.isfinite(r) and r > 0 for r in rates.values())
    assert rep["steps_per_s"] == rates
    # Timings stay out of the metrics, whose keys are the same as ever.
    assert set(doc["metrics"]) == {
        "provenance", "eta", "median_sup_gap[width=8]", "final_risks[width=8]",
        "median_sup_gap[width=16]", "final_risks[width=16]", "log_log_slope", "reg_tracking"}
    assert rep["phases_s"] == phases


@pytest.mark.parametrize("experiment", ["fig1", "fig2", "fig3", "compare", "ntk-convergence"])
def test_figure_reports_time_their_phases(tmp_path, experiment):
    run = {"fig1": run_fig1, "fig2": run_fig2, "fig3": run_fig3, "compare": run_compare,
           "ntk-convergence": run_ntk_convergence}[experiment]
    small = {
        "compare": dict(epochs=200, record_every=50, sign_check=True, sign_width=16, sign_epochs=50),
        "ntk-convergence": dict(widths=(16, 64), seeds=(0, 1)),
    }.get(experiment, dict(epochs=200, record_every=50))
    cfg = make_config(experiment, synthetic=True, out=str(tmp_path), **small)
    rep = run(cfg)
    doc = json.loads((tmp_path / experiment / "report.json").read_text())
    phases = doc["phases_s"]
    expected_phases = {"data", "train", "checks", "export"}
    if experiment == "ntk-convergence":  # no training: the finite-width kernels instead
        expected_phases = {"data", "kernels", "checks", "export"}
    assert set(phases) == expected_phases
    assert all(math.isfinite(t) and t >= 0 for t in phases.values())
    assert rep["phases_s"] == phases
    # One step rate per training batch, beside the phases.
    rates = doc["steps_per_s"]
    assert set(rates) == {
        "fig1": {"schemes"},
        "fig2": {"mu=0.1", "mu=10"},
        "fig3": {"logistic", "polytailed:1:0"},
        "compare": {"schemes", "permuted", "sign_study"},
        "ntk-convergence": set(),
    }[experiment]
    assert all(math.isfinite(r) and r > 0 for r in rates.values())
    assert rep["steps_per_s"] == rates
    # Timings stay out of the metrics, whose keys are the same as ever.
    schemes = cfg.schemes
    expected = {
        "fig1": {"provenance", "eta", "oracle_norm", "max_relative_span_residual", "comparison",
                 "q_star[gdro:0.001]", "t_eps[gdro:0.001]"},
        "fig2": {"provenance", "mu=0.1", "mu=10", "gap_ratio_large_over_small",
                 *(f"ridge_oracle_risk[mu={mu},{s}]" for mu in ("0.1", "10") for s in ("erm", "iw"))},
        "fig3": {"provenance", "oracle_margin", "direction_gap_erm_iw[logistic]",
                 "direction_gap_erm_iw[polytailed:1:0]", "gap_ratio_poly_over_logistic",
                 "polytailed_gap_second_half_growth",
                 *(f"logistic_oracle_cosine[{s}]" for s in schemes),
                 *(f"saturated[{loss}|{s}]" for loss in ("logistic", "polytailed:1:0") for s in schemes)},
        "compare": {"provenance", "comparison", "sign_study_final_risk", "sign_study_confident_points"},
        "ntk-convergence": {"limit_fro_norm", "median_rel_fro_error[width=16]",
                            "median_rel_fro_error[width=64]"},
    }[experiment]
    assert set(doc["metrics"]) == expected


_SMALL_RUNS = {
    "fig1": dict(epochs=200, record_every=50),
    "fig2": dict(epochs=200, record_every=50),
    "fig3": dict(epochs=200, record_every=50),
    "ntk-convergence": dict(),
    "approx-scaling": dict(widths=(8, 16), seeds=(0, 1), epochs=20, record_every=10),
    "compare": dict(epochs=500, record_every=100, schemes=("erm",), permute_check=False),
}


@pytest.mark.parametrize("experiment", sorted(_SMALL_RUNS))
def test_every_report_records_its_environment(tmp_path, experiment):
    from grwlab.experiments import run_experiment

    cfg = make_config(experiment, synthetic=True, out=str(tmp_path), **_SMALL_RUNS[experiment])
    rep = run_experiment(cfg)
    doc = json.loads((tmp_path / experiment / "report.json").read_text())
    env = doc["environment"]
    assert set(env) == {"python", "numpy", "scipy", "blas", "cpu_count", "git_sha"}
    assert env["numpy"] == np.__version__ and env["python"].count(".") == 2
    assert env["blas"] and env["cpu_count"] >= 1
    assert env["git_sha"] is None or (len(env["git_sha"]) == 40 and int(env["git_sha"], 16) >= 0)
    assert rep["environment"] == env
    # The block sits beside the metrics, not in them.
    assert not set(env) & set(doc["metrics"]) and "environment" not in doc["metrics"]
    assert set(doc) == {"experiment", "config_hash", "assertions", "metrics", "artifacts",
                        "phases_s", "peak_rss_mib", "steps_per_s", "environment", "elapsed_s",
                        "passed"}


_ARTIFACT_RUNS = {
    "fig1": dict(epochs=300, record_every=100),
    "fig2": dict(epochs=300, record_every=100),
    "fig3": dict(epochs=300, record_every=100),
    "ntk-convergence": dict(widths=(16, 64), seeds=(0, 1, 2)),
    "approx-scaling": dict(widths=(8, 16), seeds=(0, 1, 2), epochs=300, record_every=100),
    "compare": dict(epochs=300, record_every=100, schemes=("erm", "iw", "gdro:0.01", "cvar:0.5")),
}


@pytest.mark.parametrize("experiment", sorted(_ARTIFACT_RUNS))
def test_artifacts_list_every_file_the_study_writes_in_order(tmp_path, monkeypatch, experiment):
    from grwlab.experiments import run_experiment

    written = []
    write_text = Path.write_text

    def logged(path, *args, **kwargs):
        written.append(path)
        return write_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", logged)
    monkeypatch.chdir(tmp_path)  # a file written to a relative path lands in the tree below
    cfg = make_config(experiment, synthetic=True, out=str(tmp_path / "out"),
                      **_ARTIFACT_RUNS[experiment])
    rep = run_experiment(cfg)
    study = tmp_path / "out" / experiment
    assert written[-1] == study / "report.json"
    assert rep["artifacts"] == [str(path) for path in written[:-1]]
    assert len(rep["artifacts"]) >= 2 and all(Path(a).is_file() for a in rep["artifacts"])
    # Every file is in the study's directory, and no other file was made.
    assert all(path.parent == study for path in written)
    assert {path for path in tmp_path.rglob("*") if path.is_file()} == set(written)
    assert json.loads((study / "report.json").read_text())["artifacts"] == rep["artifacts"]


_FRESH_ENVIRONMENT_PROBE = """
import json
import sys
import warnings
from pathlib import Path

from grwlab.experiments import make_config, run_experiment

assert "scipy" not in sys.modules
out = Path(sys.argv[1])
run_experiment(make_config("ntk-convergence", out=str(out)))
doc = json.loads((out / "ntk-convergence" / "report.json").read_text())
import scipy

assert doc["environment"]["scipy"] == scipy.__version__, doc["environment"]
"""


def test_environment_reports_scipy_version_when_scipy_was_not_loaded(tmp_path):
    # The package imports SciPy only where it calls it; the report's version
    # must not depend on whether anything had loaded SciPy before.
    import grwlab

    env = {**os.environ, "PYTHONPATH": str(Path(grwlab.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", _FRESH_ENVIRONMENT_PROBE, str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_git_sha_reads_loose_packed_and_detached_heads(tmp_path):
    from grwlab.experiments import git_sha

    sha = "0123456789abcdef0123456789abcdef01234567"
    git = tmp_path / ".git"
    assert git_sha(tmp_path) is None
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    assert git_sha(tmp_path) is None
    (git / "packed-refs").write_text(f"# pack-refs with: peeled\n{sha} refs/heads/main\n")
    assert git_sha(tmp_path) == sha
    other = sha[::-1]
    (git / "refs" / "heads" / "main").write_text(other + "\n")
    assert git_sha(tmp_path) == other
    (git / "HEAD").write_text(sha + "\n")
    assert git_sha(tmp_path) == sha


def test_environment_block_is_cheap_and_starts_no_process(monkeypatch):
    import time

    from grwlab.experiments import environment

    def refuse(*args, **kwargs):
        raise AssertionError("a process was started")

    monkeypatch.setattr(subprocess, "Popen", refuse)
    times = []
    for _ in range(10):
        t0 = time.perf_counter()
        environment()
        times.append(time.perf_counter() - t0)
    # It runs inside every experiment's timed span.
    assert min(times) < 1e-3


def test_svg_chart_writer(tmp_path):
    path = tmp_path / "chart.svg"
    svg_line_chart(path, [("a", [1, 2, 3], [1.0, 0.5, 0.25]), ("b", [1, 2, 3], [2.0, 2.1, 1.9])],
                   title="t", xlabel="x", ylabel="y", logy=True)
    text = path.read_text()
    assert text.startswith("<svg")
    assert "polyline" in text
    assert "</svg>" in text


def test_compare_sign_agreement_study(tmp_path):
    cfg = make_config("compare", synthetic=True, out=str(tmp_path), epochs=10_000,
                      record_every=2000, schemes=("erm",), permute_check=False,
                      sign_check=True, sign_epochs=15_000)
    rep = run_compare(cfg)
    sign = [a for a in rep["assertions"] if a["name"] == "sign_agreement_on_confident_points"]
    assert sign and sign[0]["passed"]
    # The regularized run must actually have trained into the low-risk regime
    # for the agreement claim to be meaningful.
    assert rep["metrics"]["sign_study_final_risk"] < 0.25
    assert rep["metrics"]["sign_study_confident_points"] >= 8


def test_cli_ntk_and_report_exit_codes(tmp_path, capsys):
    code = main(["ntk-convergence", "--synthetic", "--out", str(tmp_path / "ok")])
    out = capsys.readouterr().out
    assert code == 0
    assert "report:" in out
    assert (tmp_path / "ok" / "ntk-convergence" / "report.json").exists()


def test_cli_config_file_run(tmp_path, capsys):
    cfgfile = tmp_path / "fig1.cfg"
    cfgfile.write_text("experiment = fig1\nepochs = 2000\nrecord_every = 500\nsynthetic = 1\n")
    code = main(["fig1", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    capsys.readouterr()
    # Too few epochs to converge: assertions fail, exit code reports it.
    assert code == 1
    doc = json.loads((tmp_path / "o" / "fig1" / "report.json").read_text())
    assert doc["passed"] is False


def test_cli_oracle_subcommands(capsys):
    assert main(["oracle", "ntk", "--depth", "1", "--beta", "0.5", "--d0", "3", "--points", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["kernel"]) == 2
    assert main(["oracle", "min-norm", "--synthetic"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["interpolation_residual"] < 1e-8
    assert main(["oracle", "max-margin", "--synthetic"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["margin"] > 0
    assert main(["oracle", "ridge", "--synthetic", "--mu", "0.5", "--scheme", "iw"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["stationarity_residual"] < 1e-9


@pytest.mark.parametrize("option,value", [
    ("--d0", "-1"), ("--points", "-1"), ("--d0", "0"), ("--points", "0"), ("--seed", "-1"),
], ids=["-1---d0", "-1---points", "0---d0", "0---points", "-1---seed"])
def test_cli_oracle_ntk_rejects_sizes_below_one(option, value, capsys):
    # A negative size or seed used to end in a ValueError traceback with
    # status 1, and --points 0 printed an empty kernel with status 0.
    assert main(["oracle", "ntk", option, value]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and option in err and value in err


def test_bench_tracing_targets_resolve(monkeypatch):
    # The benchmark's tracer wraps grwlab functions by name and reports a
    # target it cannot find as missing; a rename must fail here instead.
    import importlib
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for name, module_name, attr, _ in tracing.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{name}: {module_name}.{attr} is gone"
            owner = getattr(owner, part)
        assert callable(owner), name


def test_bench_run_time_lookups_resolve(monkeypatch, tmp_path):
    # The per-layer figures and the oracle-sweep workload look grwlab names up
    # when they run; a name that is gone reads as a missing figure or a failed
    # operation there, so a rename must fail here instead.
    import grwlab

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import micro
    import workloads

    monkeypatch.setattr(micro, "_us_per_call", lambda fn, *_: (fn(), 0.0)[1])
    figures = micro.run_all(tmp_path)
    names = [name for name, _ in micro._cases(grwlab, tmp_path)]
    assert names and [name for name in names if figures.get(name) is None] == []
    for _, fn_name, _ in workloads.oracle_prepare(1, tmp_path)["ops"]:
        for name in ("KernelSpec", "ntk_limiting_kernel") if fn_name == "ntk" else (fn_name,):
            owner = grwlab.linalg if name.startswith("linalg.") else grwlab
            assert callable(getattr(owner, name.removeprefix("linalg."), None)), fn_name
