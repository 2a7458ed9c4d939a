import json

import numpy as np
import pytest

from grwlab.cli import main
from grwlab.data_io import write_idx_images, write_idx_labels
from grwlab.errors import InvalidArgumentError, UnsupportedError
from grwlab.experiments import (
    ExperimentConfig,
    config_hash,
    load_experiment_dataset,
    make_config,
    parse_config_file,
    run_compare,
    run_fig1,
    run_fig2,
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


def test_cli_has_no_jobs_option(capsys):
    with pytest.raises(SystemExit):
        main(["fig1", "--jobs", "2"])
    assert "unrecognized arguments: --jobs" in capsys.readouterr().err


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
    from pathlib import Path

    cfg_dir = Path(__file__).resolve().parents[1] / "configs"
    files = sorted(cfg_dir.glob("*.cfg"))
    assert len(files) >= 6
    seen = set()
    for path in files:
        cfg = parse_config_file(path)
        seen.add(cfg.experiment)
        assert config_hash(cfg)
    assert seen == {"fig1", "fig2", "fig3", "ntk-convergence", "approx-scaling", "compare"}


def test_config_hash_stable_and_sensitive():
    a = make_config("fig1", synthetic=True)
    b = make_config("fig1", synthetic=True)
    c = make_config("fig1", synthetic=True, epochs=77)
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)


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

    cfg = make_config("approx-scaling", synthetic=True)
    data = load_experiment_dataset(make_config("compare", synthetic=True, synth_d=4), False)
    arch = Architecture(4, (32,), beta=0.1)
    theta0 = nn_init(arch, 0).flat
    pts = np.random.default_rng(1).standard_normal((4, 3)) / 4
    gap, _ = _train_pair_shared_weights(arch, theta0, data, ps("erm"), 0.2, 0, 0.0, pts)
    assert gap == 0.0


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
    from grwlab.reweighting import parse_scheme as ps

    arch, theta0, data, pts = _paired_inputs()
    ref = _paired_reference(arch, theta0, data, ps("gdro:0.1"), 0.25, 40, pts)
    calls = []
    original = models.nn_forward_batch
    monkeypatch.setattr(models, "nn_forward_batch", lambda *a, **k: calls.append(1) or original(*a, **k))
    for epochs in (20, 40):
        calls.clear()
        got = _train_pair_shared_weights(arch, theta0, data, ps("gdro:0.1"), 0.25, epochs, 0.0, pts)
        # One pass per epoch (epochs + 1 evaluations), plus the one made
        # once to linearize at the training and test points.
        assert len(calls) == epochs + 1 + 1
    assert ref[0] > 1e-6  # the gap is not trivially zero
    assert got[0] == pytest.approx(ref[0], rel=1e-10)
    assert got[1] == pytest.approx(ref[1], rel=1e-10)


def test_paired_training_batched_seeds_match_each_seed_alone():
    from grwlab.experiments import _train_pair_shared_weights
    from grwlab.models import nn_init
    from grwlab.reweighting import parse_scheme as ps

    arch, _, data, pts = _paired_inputs()
    starts = np.column_stack([nn_init(arch, s).flat for s in (0, 1, 2)])
    # The first seed reaches this risk at epoch 30, the others between epochs
    # 30 and 45, so the batch drops its seeds one by one.
    stop = _train_pair_shared_weights(arch, starts[:, 0], data, ps("gdro:0.1"), 0.25, 30, 0.0, pts)[1]
    gaps, final = _train_pair_shared_weights(arch, starts, data, ps("gdro:0.1"), 0.25, 60, stop, pts)
    assert gaps.shape == final.shape == (3,)
    for s in range(3):
        gap, risk = _train_pair_shared_weights(arch, starts[:, s], data, ps("gdro:0.1"), 0.25, 60,
                                               stop, pts)
        assert gaps[s] == pytest.approx(gap, rel=1e-12)
        assert final[s] == pytest.approx(risk, rel=1e-12)
    assert np.all(final <= stop)


def test_feature_gram_equals_empirical_kernel():
    from grwlab.models import Architecture, linearize, nn_init
    from grwlab.oracles import empirical_ntk
    from grwlab import linalg as la

    arch = Architecture(3, (16,), beta=0.3)
    params = nn_init(arch, 4)
    pts = np.random.default_rng(2).standard_normal((3, 5)) / 3
    lin = linearize(arch, params, pts)
    g = la.gram(lin.features)
    for i in range(5):
        for j in range(5):
            assert g[i, j] == pytest.approx(empirical_ntk(lin, i, j), rel=1e-12, abs=1e-15)


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
