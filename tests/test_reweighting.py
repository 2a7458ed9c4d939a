import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grwlab.errors import InvalidArgumentError
from grwlab.reweighting import (
    CvarScheme,
    GroupDroScheme,
    GroupInfo,
    StaticScheme,
    WeightState,
    check_assumption1,
    cvar_weights,
    erm_weights,
    gdro_init,
    gdro_step,
    group_means,
    iw_weights,
    parse_scheme,
    repeat_state,
)

SIMPLEX_TOL = 1e-12


def _assert_simplex(q):
    assert np.all(q >= 0)
    assert abs(q.sum() - 1.0) <= SIMPLEX_TOL


def test_erm_weights():
    assert np.allclose(erm_weights(4).q, 0.25)
    assert np.allclose(erm_weights(1).q, 1.0)
    assert np.allclose(erm_weights(6).q, 1.0 / 6.0)
    with pytest.raises(InvalidArgumentError):
        erm_weights(0)


def test_iw_weights_imbalanced():
    groups = GroupInfo([0] * 5 + [1])
    q = iw_weights(groups).q
    assert np.allclose(q[:5], 0.1)
    assert q[5] == pytest.approx(0.5)
    _assert_simplex(q)


def test_iw_weights_single_group_is_uniform():
    q = iw_weights(GroupInfo([0, 0, 0])).q
    assert np.allclose(q, 1.0 / 3.0)


def test_iw_weights_balanced_equals_erm():
    q = iw_weights(GroupInfo([0, 0, 1, 1, 2, 2])).q
    assert np.allclose(q, 1.0 / 6.0)


def test_iw_weighted_risk_equals_balanced_risk():
    rng = np.random.default_rng(4)
    for _ in range(50):
        labels = rng.integers(0, 3, size=12)
        labels[:3] = [0, 1, 2]  # keep every group nonempty
        groups = GroupInfo(labels)
        losses = rng.random(12)
        weighted = iw_weights(groups).q @ losses
        balanced = group_means(losses, groups).mean()
        assert weighted == pytest.approx(balanced, abs=1e-12)


def test_gdro_step_equal_risks_is_identity():
    groups = GroupInfo([0, 0, 1])
    state = gdro_init(groups)
    new = gdro_step(state, np.array([0.7, 0.7]), 0.5, groups)
    assert np.allclose(new.gdro_g, state.gdro_g, atol=1e-15)


def test_gdro_step_matches_high_precision_oracle():
    groups = GroupInfo([0, 1])
    state = WeightState(q=np.array([0.5, 0.5]), gdro_g=np.array([0.5, 0.5]))
    new = gdro_step(state, np.array([1.0, 2.0]), 0.1, groups)
    with mpmath.workdps(50):
        e1 = mpmath.mpf("0.5") * mpmath.exp(mpmath.mpf("0.1") * 1)
        e2 = mpmath.mpf("0.5") * mpmath.exp(mpmath.mpf("0.1") * 2)
        g1 = float(e1 / (e1 + e2))
        g2 = float(e2 / (e1 + e2))
    assert new.gdro_g[0] == pytest.approx(g1, abs=1e-12)
    assert new.gdro_g[1] == pytest.approx(g2, abs=1e-12)
    assert g1 == pytest.approx(0.475021, abs=1e-6)


def test_gdro_step_random_inputs_vs_mpmath():
    rng = np.random.default_rng(10)
    for _ in range(100):
        k = int(rng.integers(2, 5))
        labels = np.concatenate([[j] * int(rng.integers(1, 4)) for j in range(k)])
        groups = GroupInfo(labels)
        g = rng.dirichlet(np.ones(k))
        risks = rng.uniform(0, 3, size=k)
        nu = float(rng.uniform(0.01, 2.0))
        state = WeightState(q=np.ones(groups.n) / groups.n, gdro_g=g)
        new = gdro_step(state, risks, nu, groups)
        with mpmath.workdps(40):
            unnorm = [
                mpmath.mpf(float(g[j])) * mpmath.exp(mpmath.mpf(float(nu)) * mpmath.mpf(float(risks[j])))
                for j in range(k)
            ]
            total = mpmath.fsum(unnorm)
            ref = np.array([float(u / total) for u in unnorm])
        assert np.allclose(new.gdro_g, ref, atol=1e-12)
        _assert_simplex(new.q)
        # q_i = g_k / n_k mapping
        for i, lab in enumerate(groups.labels):
            assert new.q[i] == pytest.approx(new.gdro_g[lab] / groups.sizes[lab], abs=1e-12)


def test_gdro_step_shift_invariance():
    groups = GroupInfo([0, 0, 1, 2])
    state = gdro_init(groups)
    risks = np.array([0.3, 1.1, 0.2])
    a = gdro_step(state, risks, 0.7, groups)
    b = gdro_step(state, risks + 5.0, 0.7, groups)
    # Exact in real arithmetic; float rounding of the shifted logits leaves
    # differences at the last few ulps only.
    assert np.allclose(a.gdro_g, b.gdro_g, rtol=0, atol=1e-14)
    assert np.allclose(a.q, b.q, rtol=0, atol=1e-14)


def test_gdro_step_small_nu_continuity():
    groups = GroupInfo([0, 1])
    state = gdro_init(groups)
    nu = 1e-9
    new = gdro_step(state, np.array([1.0, 2.0]), nu, groups)
    assert np.allclose(new.gdro_g, state.gdro_g, atol=5e-9)


def test_cvar_weights_full_support_is_erm():
    q = cvar_weights(np.array([3.0, 1.0, 2.0]), 1.0).q
    assert np.allclose(q, 1.0 / 3.0)


def test_cvar_weights_single_worst():
    q = cvar_weights(np.array([3.0, 1.0, 2.0]), 1.0 / 3.0).q
    assert np.allclose(q, [1.0, 0.0, 0.0])


def test_cvar_weights_tie_break_lowest_index():
    # Oracle: stable sort on (-loss, index) then uniform mass on the first m.
    losses = np.array([2.0, 2.0, 1.0])
    q = cvar_weights(losses, 2.0 / 3.0).q
    order = sorted(range(3), key=lambda i: (-losses[i], i))
    expected = np.zeros(3)
    expected[order[:2]] = 0.5
    assert np.array_equal(q, expected)
    assert np.allclose(q, [0.5, 0.5, 0.0])


def test_cvar_support_size_always_ceil():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(1, 12))
        losses = rng.random(n)
        alpha = float(rng.uniform(0.05, 1.0))
        q = cvar_weights(losses, alpha).q
        assert (q > 0).sum() == int(np.ceil(alpha * n))
        _assert_simplex(q)


def test_check_assumption1_constant_history():
    hist = np.tile([0.25, 0.75], (50, 1))
    ok, q_star, t_eps = check_assumption1(hist, window=10, tol=1e-6)
    assert ok
    assert q_star == pytest.approx(0.25)
    assert t_eps == 0


def test_check_assumption1_vanishing_coordinate():
    q1 = np.concatenate([np.linspace(0.5, 0.0, 30), np.zeros(30)])
    hist = np.stack([q1, 1.0 - q1], axis=1)
    ok, q_star, _ = check_assumption1(hist, window=10, tol=1e-6)
    assert not ok
    assert q_star == 0.0


def test_check_assumption1_settles_after_drift():
    drift = np.linspace(0.6, 0.3, 40)
    flat = np.full(60, 0.3)
    q1 = np.concatenate([drift, flat])
    hist = np.stack([q1, 1.0 - q1], axis=1)
    ok, q_star, t_eps = check_assumption1(hist, window=20, tol=1e-9)
    assert ok
    assert q_star == pytest.approx(0.3)
    assert 40 <= t_eps <= 60


def test_schemes_keep_simplex_over_long_runs():
    groups = GroupInfo([0] * 5 + [1])
    losses0 = np.linspace(0.0, 1.0, 6)
    for scheme in (StaticScheme("erm"), StaticScheme("iw"),
                   GroupDroScheme(0.3), CvarScheme(0.5)):
        state = scheme.init_state(groups)
        rng = np.random.default_rng(0)
        for t in range(2000):
            state = scheme.update(state, losses0 + 0.01 * rng.random(6), groups)
            _assert_simplex(state.q)


def test_parse_scheme():
    assert parse_scheme("erm").name == "erm"
    assert parse_scheme("iw").name == "iw"
    assert isinstance(parse_scheme("gdro:0.05"), GroupDroScheme)
    assert parse_scheme("gdro:0.05").nu == 0.05
    assert isinstance(parse_scheme("cvar:0.25"), CvarScheme)
    with pytest.raises(InvalidArgumentError):
        parse_scheme("dro")
    with pytest.raises(InvalidArgumentError):
        parse_scheme("cvar:1.5")


@pytest.mark.parametrize("nu", [float("inf"), float("nan"), 0.0, -1.0])
def test_gdro_requires_a_positive_finite_step_size(nu):
    groups = GroupInfo([0, 1])
    with pytest.raises(InvalidArgumentError, match="positive finite"):
        GroupDroScheme(nu)
    with pytest.raises(InvalidArgumentError, match="positive finite"):
        gdro_step(gdro_init(groups), np.array([1.0, 2.0]), nu, groups)


@pytest.mark.parametrize("spec", ["gdro:inf", "gdro:1e400", "gdro:-inf", "gdro:nan"])
def test_parse_scheme_rejects_non_finite_gdro_step_size(spec):
    with pytest.raises(InvalidArgumentError, match="positive finite"):
        parse_scheme(spec)


def test_group_info_validation():
    with pytest.raises(InvalidArgumentError):
        GroupInfo([0, 2])  # group 1 empty
    with pytest.raises(InvalidArgumentError):
        GroupInfo([])
    gi = GroupInfo([1, 0, 0])
    assert gi.n_groups == 2
    assert gi.sizes.tolist() == [2, 1]


def test_check_assumption1_matches_window_by_window_scan():
    # The sliding max/min must give exactly what rescanning each window gives.
    rng = np.random.default_rng(11)
    for steps, window, tol in ((50, 10, 0.05), (57, 10, 0.05), (40, 40, 0.5), (33, 1, 0.0),
                               (300, 37, 1e-3)):
        hist = rng.dirichlet(np.ones(3), size=steps)
        hist[steps // 2 :] = hist[steps // 2] + 1e-4 * rng.standard_normal((steps - steps // 2, 3))
        osc = np.array([float((hist[e - window + 1 : e + 1].max(axis=0)
                               - hist[e - window + 1 : e + 1].min(axis=0)).max())
                        for e in range(window - 1, steps)])
        settled = osc <= tol
        if np.all(settled):
            t_eps = 0
        elif settled[-1]:
            t_eps = int(np.nonzero(~settled)[0][-1] + window)
        else:
            t_eps = steps
        q_star = max(float(hist[-window:].mean(axis=0).min()), 0.0)
        assert check_assumption1(hist, window=window, tol=tol) == (
            bool(settled[-1]) and q_star > 0.0, q_star, t_eps)


def test_scheme_updates_on_a_block_of_runs_match_each_run():
    groups = GroupInfo([0, 0, 1, 1, 1, 2])
    rng = np.random.default_rng(9)
    losses = rng.random((6, 4))
    for scheme in (StaticScheme("erm"), StaticScheme("iw"), GroupDroScheme(0.7),
                   CvarScheme(0.5)):
        one = scheme.init_state(groups)
        if one.gdro_g is not None:
            one = WeightState(q=one.q, gdro_g=rng.dirichlet(np.ones(3)))
        block = scheme.update(WeightState(q=np.repeat(one.q[:, None], 4, axis=1),
                                          gdro_g=None if one.gdro_g is None
                                          else np.repeat(one.gdro_g[:, None], 4, axis=1)),
                              losses, groups)
        assert block.q.shape == (6, 4)
        for r in range(4):
            alone = scheme.update(one, losses[:, r], groups)
            np.testing.assert_allclose(block.q[:, r], alone.q, rtol=1e-15, atol=1e-16)
            if alone.gdro_g is not None:
                np.testing.assert_allclose(block.gdro_g[:, r], alone.gdro_g, rtol=1e-15, atol=1e-16)


def test_cvar_block_breaks_ties_toward_lowest_index_in_every_column():
    # Column 0 ties samples 1 and 3 at the cutoff, column 1 ties 0 and 2,
    # column 2 is all ties.
    losses = np.array([[0.1, 2.0, 1.0],
                       [2.0, 0.5, 1.0],
                       [0.3, 2.0, 1.0],
                       [2.0, 0.5, 1.0]])
    q = CvarScheme(0.25).update(erm_weights(4), losses, GroupInfo([0, 0, 1, 1])).q
    np.testing.assert_array_equal(q, [[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    for r in range(3):
        np.testing.assert_array_equal(q[:, r], cvar_weights(losses[:, r], 0.25).q)
    # Many ties in long columns, against the rule spelled out: the m largest
    # losses, lower index first among equal ones.
    rng = np.random.default_rng(4)
    losses = rng.integers(0, 3, size=(60, 5)).astype(float)
    q = CvarScheme(0.3).update(erm_weights(60), losses, GroupInfo([0] * 60)).q
    m = int(np.ceil(0.3 * 60))
    for r in range(5):
        chosen = sorted(range(60), key=lambda i: (-losses[i, r], i))[:m]
        expected = np.zeros(60)
        expected[chosen] = 1.0 / m
        np.testing.assert_allclose(q[:, r], expected, rtol=1e-15, atol=0)


def _lockout_losses(steps: int = 4000) -> list[np.ndarray]:
    # Groups (3, 1): group 1's loss leads by 1 for the first half of the
    # steps, group 0's for the second half.
    lead1 = np.array([0.0, 0.0, 0.0, 1.0])
    return [lead1 if t < steps // 2 else 1.0 - lead1 for t in range(steps)]


def test_gdro_group_whose_weight_underflows_regains_it():
    # With nu = 1, group 0's weight exp(-t) / (1 + exp(-t)) underflows to 0
    # near step 745.  The exact update is back at [0.5, 0.5] after step 3999,
    # once group 0's loss has led for as many steps as group 1's did.
    groups = GroupInfo([0, 0, 0, 1])
    scheme = GroupDroScheme(1.0)
    state = scheme.init_state(groups)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t, losses in enumerate(_lockout_losses()):
            state = scheme.update(state, losses, groups)
            if t == 1999:
                assert state.gdro_g[0] == 0.0
                assert np.all(np.isfinite(state.gdro_logits))
    np.testing.assert_allclose(state.gdro_g, [0.5, 0.5], rtol=0, atol=1e-12)
    _assert_simplex(state.q)


def test_gdro_block_of_three_runs_matches_each_run_through_an_underflow():
    groups = GroupInfo([0, 0, 0, 1])
    scheme = GroupDroScheme(1.0)
    rng = np.random.default_rng(21)
    seqs = [_lockout_losses(), [1.0 - l for l in _lockout_losses()],
            list(3.0 * rng.random((4000, 4)))]
    block = repeat_state(scheme.init_state(groups), 3)
    solos = [scheme.init_state(groups) for _ in seqs]
    for t in range(4000):
        block = scheme.update(block, np.column_stack([seq[t] for seq in seqs]), groups)
        solos = [scheme.update(s, seq[t], groups) for s, seq in zip(solos, seqs)]
    for r, solo in enumerate(solos):
        for name in ("q", "gdro_g", "gdro_logits"):
            np.testing.assert_allclose(getattr(block, name)[:, r], getattr(solo, name),
                                       rtol=1e-15, atol=1e-15)


@st.composite
def _risk_sequences(draw):
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    nu = draw(st.floats(1e-3, 10.0))
    # Risks up to 200 give steps with nu * (risk gap) up to 2e3.
    risk = st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 200.0))
    risks = draw(st.lists(st.lists(risk, min_size=len(sizes), max_size=len(sizes)),
                          min_size=1, max_size=30))
    return sizes, nu, risks


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_risk_sequences())
def test_gdro_log_state_stays_finite_and_steps_match_mpmath(case):
    sizes, nu, risks = case
    groups = GroupInfo(np.repeat(np.arange(len(sizes)), sizes))
    state = gdro_init(groups)
    for r in risks:
        logits = state.gdro_logits
        state = gdro_step(state, np.array(r), nu, groups)
        _assert_simplex(state.q)
        assert np.all(np.isfinite(state.gdro_logits)) and state.gdro_logits.max() == 0.0
        with mpmath.workdps(40):
            unnorm = [mpmath.exp(mpmath.mpf(float(a)) + mpmath.mpf(nu) * mpmath.mpf(b))
                      for a, b in zip(logits, r)]
            ref = np.array([float(u / mpmath.fsum(unnorm)) for u in unnorm])
        normal = ref >= np.finfo(np.float64).tiny
        np.testing.assert_allclose(state.gdro_g[normal], ref[normal], rtol=1e-10, atol=0)
        np.testing.assert_allclose(state.gdro_g, ref, rtol=0, atol=1e-12)
