import numpy as np
import pytest

from grwlab.data_io import Dataset, synth_groups
from grwlab.errors import DivergedError, InvalidArgumentError, RankDeficientError
from grwlab.losses import Logistic, Squared
from grwlab.models import LinearModel
from grwlab.reweighting import GroupInfo, parse_scheme
from grwlab.trainer import TrainConfig, compare_runs, safe_learning_rate, train
from grwlab import linalg as la


def _one_sample_data():
    return Dataset(
        X=np.array([[1.0], [0.0]]),
        Y=np.array([2.0]),
        groups=GroupInfo([0]),
        provenance="unit",
    )


def _small_blobs(seed=3, classification=False, sizes=(5, 1), d=24):
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((len(sizes), d))
    means = 0.3 * means / np.linalg.norm(means, axis=1, keepdims=True)
    return synth_groups(d, sizes, means, 1.0 / np.sqrt(d), seed, classification=classification)


def _cfg(**kw):
    base = dict(eta=0.5, epochs=10, loss=Squared(), scheme=parse_scheme("erm"),
                stop_risk=1e-12, record_every=1)
    base.update(kw)
    return TrainConfig(**base)


def test_single_sample_scalar_recursion():
    # theta <- theta + eta * (2 - theta) on the first coordinate: risks
    # 2, 0.5, 0.125, ... exactly.
    data = _one_sample_data()
    final, trace = train(LinearModel(2), data, _cfg(epochs=3), theta0=np.zeros(2))
    assert trace.risk[:3] == pytest.approx([2.0, 0.5, 0.125], abs=1e-15)
    assert trace.epochs[1] == 1
    _, one_step = train(LinearModel(2), data, _cfg(epochs=1), theta0=np.zeros(2))
    # After one step theta = (1, 0).
    assert one_step.theta_norm[-1] == pytest.approx(1.0, abs=1e-15)


def test_huge_mu_pins_parameters_near_start():
    data = _small_blobs()
    mu = 1e6
    eta = 5e-7  # eta * mu = 0.5 < 1: the penalty contracts every step
    cfg = _cfg(eta=eta, mu=mu, epochs=2000, stop_risk=0.0, record_every=100)
    theta0 = np.zeros(data.dim)
    final, trace = train(LinearModel(data.dim), data, cfg, theta0=theta0)
    # Contraction oracle: |theta - theta0| <= max gradient norm / mu, since
    # the fixed point of theta <- (1 - eta*mu) theta - eta*grad is grad/mu
    # and the loss gradient norm only shrinks from its initial value here.
    grad0 = data.X @ ((1.0 / data.n) * (data.X.T @ theta0 - data.Y))
    bound = np.linalg.norm(grad0) / mu
    assert np.linalg.norm(final - theta0) <= bound * 1.01
    assert np.linalg.norm(final - theta0) > 0


def test_early_stop_on_unweighted_risk():
    data = _one_sample_data()
    final, trace = train(LinearModel(2), data, _cfg(epochs=10_000, stop_risk=1e-6), theta0=np.zeros(2))
    assert trace.risk[-1] <= 1e-6
    assert trace.epochs[-1] < 10_000


def test_final_epoch_always_recorded():
    data = _small_blobs()
    cfg = _cfg(eta=0.01, epochs=103, stop_risk=0.0, record_every=40)
    _, trace = train(LinearModel(data.dim), data, cfg, theta0=np.zeros(data.dim))
    assert trace.epochs[0] == 0
    assert trace.epochs[-1] == 103
    assert len(trace.epochs) == len(set(trace.epochs))


def test_divergence_raises_with_partial_trace():
    data = _small_blobs()
    cfg = _cfg(eta=1e6, epochs=500, stop_risk=0.0, record_every=10)
    with pytest.raises(DivergedError) as err:
        train(LinearModel(data.dim), data, cfg, theta0=np.zeros(data.dim))
    assert err.value.trace is not None
    assert err.value.trace.diverged
    assert err.value.params is not None
    assert len(err.value.trace.epochs) >= 1


def test_span_invariant_under_all_schemes_and_losses():
    reg = _small_blobs(classification=False)
    cls = _small_blobs(classification=True)
    cases = [(reg, Squared()), (cls, Logistic())]
    for data, loss in cases:
        for scheme in ("erm", "iw", "gdro:0.01", "cvar:0.5"):
            cfg = _cfg(eta=0.05, epochs=300, loss=loss, scheme=parse_scheme(scheme),
                       stop_risk=0.0, record_every=50, record_params=True)
            _, trace = train(LinearModel(data.dim), data, cfg, theta0=np.zeros(data.dim))
            for theta in trace.theta_snapshots:
                norm = np.linalg.norm(theta)
                if norm > 0:
                    assert la.span_residual(theta, data.X) <= 1e-8 * norm


def test_dynamic_weights_recomputed_before_each_step():
    # With CVaR at alpha=1/n the step must follow the single worst sample of
    # the current losses, reproducible by hand.
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    data = Dataset(X=x, Y=np.array([1.0, -2.0]), groups=GroupInfo([0, 1]), provenance="unit")
    cfg = _cfg(eta=0.5, epochs=1, loss=Squared(), scheme=parse_scheme("cvar:0.5"), stop_risk=0.0)
    final, trace = train(LinearModel(2), data, cfg, theta0=np.zeros(2))
    # Losses at zero: (0.5, 2.0); worst is sample 2, so only coordinate 2 moves.
    assert final[0] == 0.0
    assert final[1] == pytest.approx(0.5 * (-(0.0 - (-2.0))), abs=1e-15)
    assert np.allclose(trace.q_snapshots[0], [0.0, 1.0])


def test_weighted_risk_uses_current_weights():
    data = _small_blobs()
    cfg = _cfg(eta=0.01, epochs=5, scheme=parse_scheme("iw"), stop_risk=0.0)
    _, trace = train(LinearModel(data.dim), data, cfg, theta0=np.zeros(data.dim))
    q = parse_scheme("iw").init_state(data.groups).q
    assert trace.weighted_risk[0] == pytest.approx(
        float(q @ np.asarray([0.5 * y**2 for y in data.Y])), rel=1e-12
    )


def test_safe_learning_rate_identity_example():
    assert safe_learning_rate(np.eye(2), 1.0) == pytest.approx(1.0 / 16.0, abs=1e-15)


def test_safe_learning_rate_scaling_homogeneity():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((12, 4))
    base = safe_learning_rate(x, 0.3)
    for c in (0.5, 2.0, 3.0):
        scaled = safe_learning_rate(c * x, 0.3)
        assert scaled == pytest.approx(base / c**2, rel=1e-9)


def test_safe_learning_rate_gives_monotone_weighted_risk():
    data = _small_blobs()
    eta = safe_learning_rate(data.X, 1.0 / data.n)
    cfg = _cfg(eta=eta, epochs=3000, stop_risk=0.0, record_every=1)
    _, trace = train(LinearModel(data.dim), data, cfg, theta0=np.zeros(data.dim))
    diffs = np.diff(trace.weighted_risk)
    assert np.all(diffs <= 1e-15)


def test_safe_learning_rate_rank_deficient():
    with pytest.raises(RankDeficientError):
        safe_learning_rate(np.array([[1.0, 2.0], [2.0, 4.0]]), 0.5)
    with pytest.raises(InvalidArgumentError):
        safe_learning_rate(np.eye(2), 0.0)


def test_compare_runs_identical():
    data = _small_blobs()
    cfg = _cfg(eta=0.05, epochs=200, stop_risk=0.0, record_every=50)
    f1, t1 = train(LinearModel(data.dim), data, cfg, theta0=np.zeros(data.dim))
    f2, t2 = train(LinearModel(data.dim), data, cfg, theta0=np.zeros(data.dim))
    report = compare_runs([t1, t2], [f1, f2])
    assert report["pairwise_gap"][0][1] == 0.0
    assert report["pairwise_cos"][0][1] == pytest.approx(1.0)


def test_compare_runs_one_extra_epoch_near_convergence():
    data = _one_sample_data()
    cfg_a = _cfg(epochs=200, stop_risk=0.0)
    cfg_b = _cfg(epochs=201, stop_risk=0.0)
    fa, ta = train(LinearModel(2), data, cfg_a, theta0=np.zeros(2))
    fb, tb = train(LinearModel(2), data, cfg_b, theta0=np.zeros(2))
    report = compare_runs([ta, tb], [fa, fb])
    assert report["pairwise_gap"][0][1] <= 1e-9


def test_compare_runs_rejects_mismatched_start():
    data = _one_sample_data()
    f1, t1 = train(LinearModel(2), data, _cfg(epochs=3), theta0=np.zeros(2))
    f2, t2 = train(LinearModel(2), data, _cfg(epochs=3), theta0=np.array([0.1, 0.0]))
    with pytest.raises(InvalidArgumentError):
        compare_runs([t1, t2], [f1, f2])


def test_trace_reference_columns():
    data = _one_sample_data()
    ref = np.array([1.0, 0.0])
    final, trace = train(
        LinearModel(2), data, _cfg(epochs=5, stop_risk=0.0),
        theta0=np.zeros(2), theta_ref=np.array([2.0, 0.0]), ref_direction=ref,
    )
    assert trace.theta_gap_ref[-1] == pytest.approx(np.linalg.norm(final - [2.0, 0.0]))
    assert trace.cos_ref[-1] == pytest.approx(1.0)
    assert np.isnan(trace.cos_ref[0])  # theta starts at zero: no direction yet


def test_warns_on_out_of_ball_data():
    data = Dataset.__new__(Dataset)  # bypass normalization check deliberately
    object.__setattr__(data, "X", np.array([[2.0], [0.0]]))
    object.__setattr__(data, "Y", np.array([1.0]))
    object.__setattr__(data, "groups", GroupInfo([0]))
    object.__setattr__(data, "provenance", "raw")
    object.__setattr__(data, "classification", False)
    with pytest.warns(UserWarning):
        train(LinearModel(2), data, _cfg(epochs=1), theta0=np.zeros(2))


class _CountingLinear(LinearModel):
    def __init__(self, dim):
        super().__init__(dim)
        self.vjp_calls = 0

    def vjp(self, theta, xs):
        self.vjp_calls += 1
        return super().vjp(theta, xs)


def test_bad_classification_label_rejected_before_any_step():
    data = _small_blobs(classification=True)
    y = data.Y.copy()
    y[0] = 0.5
    bad = Dataset(X=data.X, Y=y, groups=data.groups, provenance="unit")
    model = _CountingLinear(data.dim)
    with pytest.raises(InvalidArgumentError):
        train(model, bad, _cfg(loss=Logistic(), epochs=5), theta0=np.zeros(data.dim))
    assert model.vjp_calls == 0


@pytest.mark.parametrize("kind", ["linear", "widenet"])
def test_out_of_ball_data_warns_once_per_run(kind):
    import warnings

    from grwlab.models import Architecture, WideNet

    data = Dataset.__new__(Dataset)  # bypass normalization check deliberately
    object.__setattr__(data, "X", np.array([[2.0, 0.0], [0.0, 0.5]]))
    object.__setattr__(data, "Y", np.array([1.0, -1.0]))
    object.__setattr__(data, "groups", GroupInfo([0, 1]))
    model = LinearModel(2) if kind == "linear" else WideNet(Architecture(2, (8,), beta=0.1))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, trace = train(model, data, _cfg(eta=0.01, epochs=20, stop_risk=0.0))
    assert trace.epochs[-1] == 20
    assert [w.category for w in caught] == [UserWarning]


# ---------------------------------------------------------------------------
# lock-step batches: every column of a batch is its own run


def _assert_same_run(batched, alone, rel=1e-12):
    (fb, tb), (fa, ta) = batched, alone
    assert tb.scheme == ta.scheme
    assert tb.epochs == ta.epochs
    assert (tb.stop_reason, tb.epochs_run) == (ta.stop_reason, ta.epochs_run)
    np.testing.assert_allclose(tb.risk, ta.risk, rtol=rel, atol=rel)
    np.testing.assert_allclose(tb.weighted_risk, ta.weighted_risk, rtol=rel, atol=rel)
    np.testing.assert_allclose(np.array(tb.q_snapshots), np.array(ta.q_snapshots), rtol=rel, atol=rel)
    np.testing.assert_allclose(tb.theta_norm, ta.theta_norm, rtol=rel, atol=rel)
    np.testing.assert_array_equal(tb.theta0, ta.theta0)
    scale = max(1.0, float(np.abs(fa).max()))
    np.testing.assert_allclose(fb, fa, rtol=rel, atol=rel * scale)
    assert len(tb.theta_snapshots) == len(ta.theta_snapshots)
    for sb, sa in zip(tb.theta_snapshots, ta.theta_snapshots):
        np.testing.assert_allclose(sb, sa, rtol=rel, atol=rel * max(1.0, float(np.abs(sa).max())))


def _solo_runs(model, data, cfgs, starts, **refs):
    return [train(model, data, c, theta0=s, **refs) for c, s in zip(cfgs, starts)]


@pytest.mark.parametrize("loss_name", ["squared", "logistic", "polytailed"])
def test_linear_batch_matches_solo_runs_for_every_scheme(loss_name):
    from grwlab.losses import PolyTailed

    loss = {"squared": Squared(), "logistic": Logistic(), "polytailed": PolyTailed(1.0, 0.0)}[loss_name]
    data = _small_blobs(classification=loss_name != "squared")
    specs = ("erm", "iw", "gdro:0.05", "cvar:0.5", "gdro:0.05", "erm")
    mus = (0.0, 0.0, 0.0, 0.0, 0.01, 0.3)
    rng = np.random.default_rng(5)
    starts = [0.05 * rng.standard_normal(data.dim) for _ in specs]
    cfgs = [_cfg(eta=0.3, epochs=400, loss=loss, scheme=parse_scheme(s), mu=mu, stop_risk=0.0,
                 record_every=37, record_params=True) for s, mu in zip(specs, mus)]
    model = LinearModel(data.dim)
    ref = np.full(data.dim, 0.1)
    batch = train(model, data, cfgs, theta0=np.column_stack(starts), theta_ref=ref,
                  ref_direction=ref / np.linalg.norm(ref))
    alone = _solo_runs(model, data, cfgs, starts, theta_ref=ref, ref_direction=ref / np.linalg.norm(ref))
    assert len(batch) == len(specs)
    for b, a in zip(batch, alone):
        _assert_same_run(b, a)
        np.testing.assert_allclose(b[1].theta_gap_ref, a[1].theta_gap_ref, rtol=1e-12)
        np.testing.assert_allclose(b[1].cos_ref, a[1].cos_ref, rtol=1e-12, atol=1e-15)


def _net_cases():
    from grwlab.models import Architecture

    for activation in ("erf", "tanh"):
        for depth in (1, 2):
            arch = Architecture(3, (16,) * depth, beta=0.3, activation=activation)
            yield f"widenet-{activation}-{depth}", arch
            yield f"linearized-{activation}-{depth}", arch


@pytest.mark.parametrize("case", list(_net_cases()), ids=lambda c: c[0])
def test_network_batch_matches_solo_runs(case):
    from grwlab.models import WideNet, linearize, nn_init

    name, arch = case
    data = _small_blobs(sizes=(3, 2), d=3)
    net = WideNet(arch)
    rng = np.random.default_rng(8)
    starts = [net.init_params(s) + 0.1 * rng.standard_normal(net.n_params) for s in (1, 2, 3)]
    # The linearized runs start at three points around one shared base point.
    model = net if name.startswith("widenet") else linearize(arch, nn_init(arch, 1), data.X)
    specs = ("gdro:0.1", "erm", "gdro:0.1")
    # The first run stops early, at the risk it reaches at epoch 28 alone.
    probe = _cfg(eta=0.2, epochs=60, scheme=parse_scheme(specs[0]), stop_risk=0.0, record_every=7)
    stop = train(model, data, probe, theta0=starts[0])[1].risk[4]
    cfgs = [_cfg(eta=0.2, epochs=60, scheme=parse_scheme(s), mu=mu, stop_risk=sr, record_every=7,
                 record_params=True) for s, mu, sr in zip(specs, (0.0, 0.0, 0.05), (stop, 0.0, 0.0))]
    batch = train(model, data, cfgs, theta0=np.column_stack(starts))
    alone = [train(model, data, c, theta0=s) for c, s in zip(cfgs, starts)]
    for b, a in zip(batch, alone):
        _assert_same_run(b, a, rel=1e-11)
    assert [t.stop_reason for _, t in batch] == ["stop_risk", "epoch_budget", "epoch_budget"]
    assert 0 < batch[0][1].epochs_run <= 28  # the risk need not fall monotonically


def test_stop_mask_freezes_a_run_while_the_others_go_on():
    from grwlab.experiments import _WeightLogger

    data = _small_blobs()
    model = LinearModel(data.dim)

    def cfgs():
        # The first run stops at risk 1e-3 (epoch 81), the third at 1e-8
        # (epoch 410), the second runs its whole budget.
        return [_cfg(eta=0.5, epochs=1000, scheme=_WeightLogger(parse_scheme("gdro:0.01")),
                     stop_risk=stop, record_every=250) for stop in (1e-3, 0.0, 1e-8)]

    batch_cfgs, solo_cfgs = cfgs(), cfgs()
    batch = train(model, data, batch_cfgs, theta0=np.zeros(data.dim))
    alone = [train(model, data, c, theta0=np.zeros(data.dim)) for c in solo_cfgs]
    for b, a in zip(batch, alone):
        _assert_same_run(b, a)
    assert [t.stop_reason for _, t in batch] == ["stop_risk", "epoch_budget", "stop_risk"]
    assert 0 < batch[0][1].epochs_run < batch[2][1].epochs_run < batch[1][1].epochs_run == 1000
    assert all(t.epochs[-1] == t.epochs_run for _, t in batch)
    # Each logger saw exactly the updates of its own run, one per epoch
    # including the last, and the stopped run's tail stopped there.
    for cb, ca, (_, trace) in zip(batch_cfgs, solo_cfgs, batch):
        assert cb.scheme.updates == ca.scheme.updates == trace.epochs_run + 1
        tail_b = np.stack(cb.scheme.q_tail)[:, :, 0]
        np.testing.assert_allclose(tail_b, np.stack(ca.scheme.q_tail)[:, :, 0], rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(tail_b[-1], trace.q_snapshots[-1], rtol=0, atol=0)


def test_diverging_column_raises_with_its_own_trace():
    data = _small_blobs()
    model = LinearModel(data.dim)
    # eta * mu = 500: the penalty step overshoots and the third run blows up.
    cfgs = [_cfg(eta=0.5, epochs=500, scheme=parse_scheme(s), mu=mu, stop_risk=0.0, record_every=3)
            for s, mu in (("erm", 0.0), ("gdro:0.01", 0.0), ("cvar:0.5", 1e3))]
    with pytest.raises(DivergedError) as batch_err:
        train(model, data, cfgs, theta0=np.zeros(data.dim))
    with pytest.raises(DivergedError) as solo_err:
        train(model, data, cfgs[2], theta0=np.zeros(data.dim))
    got, want = batch_err.value, solo_err.value
    assert "run 2" in str(got)
    assert got.trace.scheme == "cvar:0.5"
    assert got.trace.diverged and got.trace.stop_reason == "diverged"
    assert got.trace.epochs == want.trace.epochs
    assert got.trace.epochs_run == want.trace.epochs_run == want.trace.epochs[-1]
    assert not np.isfinite(got.trace.risk[-1])
    np.testing.assert_allclose(got.trace.risk[:-1], want.trace.risk[:-1], rtol=1e-12)
    assert got.params.shape == (data.dim,)


def test_single_run_records_stop_reason_and_epochs():
    data = _one_sample_data()
    _, early = train(LinearModel(2), data, _cfg(epochs=10_000, stop_risk=1e-6), theta0=np.zeros(2))
    assert early.stop_reason == "stop_risk"
    assert early.epochs_run == early.epochs[-1] < 10_000
    _, full = train(LinearModel(2), data, _cfg(epochs=5, stop_risk=0.0), theta0=np.zeros(2))
    assert (full.stop_reason, full.epochs_run) == ("epoch_budget", 5)


def test_batch_rejects_mismatched_shared_settings():
    data = _one_sample_data()
    with pytest.raises(InvalidArgumentError, match="share"):
        train(LinearModel(2), data, [_cfg(eta=0.5), _cfg(eta=0.25)], theta0=np.zeros(2))
    with pytest.raises(InvalidArgumentError, match="theta0"):
        train(LinearModel(2), data, [_cfg(), _cfg()], theta0=[np.zeros(2)])


def _three_run_batch():
    # R = p = 3: a per-run list and a shared vector have the same length.
    data = _small_blobs(sizes=(2, 2), d=3)
    cfgs = [_cfg(eta=0.5, epochs=20, scheme=parse_scheme(s), stop_risk=0.0, record_every=5)
            for s in ("erm", "iw", "gdro:0.1")]
    return LinearModel(3), data, cfgs


def test_reference_lists_are_one_vector_for_every_run():
    model, data, cfgs = _three_run_batch()
    ref, direction = [1.0, 2.0, 3.0], [0.0, 0.6, 0.8]
    as_lists = train(model, data, cfgs, theta_ref=ref, ref_direction=direction)
    as_arrays = train(model, data, cfgs, theta_ref=np.array(ref), ref_direction=np.array(direction))
    for (_, tl), (fa, ta) in zip(as_lists, as_arrays):
        np.testing.assert_array_equal(tl.theta_gap_ref, ta.theta_gap_ref)
        np.testing.assert_array_equal(tl.cos_ref, ta.cos_ref)
        assert tl.theta_gap_ref[-1] == float(np.linalg.norm(fa - ref))
    for name in ("theta_ref", "ref_direction"):
        with pytest.raises(InvalidArgumentError, match=name):
            train(model, data, cfgs, **{name: np.zeros(4)})


@pytest.mark.parametrize("theta0", [
    np.zeros(4), np.zeros((3, 2)), np.zeros((3, 3, 1)), np.zeros((4, 3)),
    [np.zeros(3), np.ones(3), np.zeros(3)], (np.zeros(3), np.ones(3), np.zeros(3)), [[0.0], [1.0, 2.0]],
], ids=["long-vector", "too-few-columns", "3-d", "too-many-rows", "list-of-vectors",
        "tuple-of-vectors", "ragged"])
def test_misshaped_theta0_is_rejected(theta0):
    model, data, cfgs = _three_run_batch()
    match = "column_stack" if isinstance(theta0, (list, tuple)) else "theta0"
    with pytest.raises(InvalidArgumentError, match=match):
        train(model, data, cfgs, theta0=theta0)
    with pytest.raises(InvalidArgumentError, match="theta0"):
        train(model, data, cfgs[0], theta0=np.zeros((3, 3)))


@pytest.mark.parametrize("field,value", [("mu", float("nan")), ("stop_risk", float("nan")),
                                         ("mu", float("inf"))], ids=["mu", "stop_risk", "mu-inf"])
def test_config_rejects_nan(field, value):
    with pytest.raises(InvalidArgumentError, match=field):
        _cfg(**{field: value})


def test_static_runs_never_call_update(monkeypatch):
    from grwlab.reweighting import StaticScheme

    data = _small_blobs()
    model = LinearModel(data.dim)

    def batch():
        cfgs = [_cfg(eta=0.5, epochs=300, scheme=parse_scheme(s), stop_risk=sr, record_every=20)
                for s, sr in (("erm", 1e-3), ("iw", 0.0), ("gdro:0.05", 1e-6), ("erm", 0.0))]
        return train(model, data, cfgs, theta0=np.zeros(data.dim))

    expected = batch()

    def refuse(self, state, per_sample_losses, groups):
        raise AssertionError("StaticScheme.update was called")

    monkeypatch.setattr(StaticScheme, "update", refuse)
    got = batch()
    # Runs 0 and 2 leave the batch at epochs 76 and 285, so the columns of
    # the runs after them move.
    assert [t.stop_reason for _, t in got] == ["stop_risk", "epoch_budget", "stop_risk", "epoch_budget"]
    for (fg, tg), (fe, te) in zip(got, expected):
        np.testing.assert_array_equal(fg, fe)
        assert tg.epochs == te.epochs and tg.risk == te.risk
        np.testing.assert_array_equal(np.array(tg.q_snapshots), np.array(te.q_snapshots))
