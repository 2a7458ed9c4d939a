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
