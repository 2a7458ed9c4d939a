"""Properties of lock-step batched training.

A batch is its solo runs, column by column.  Hypothesis draws the model, the
group sizes, the loss, a list of up to four schemes that mixes static and
dynamic ones, and a stop risk per run, so that runs leave the batch at
different epochs and the columns of the runs after them move.  A small
WideNet's batch trains on a column-major stack (the order of its pullback),
a linear model's on a row-major one.

Two invariants the paper relies on hold for every run of a batch: a linear
model's parameters move only within the span of the data, and the order of
the samples does not change where the runs end.  Two oracles are checked
against independent routes: the NNLS hard margin against subset enumeration,
and the ridge optimum against the point where penalized static-weight
gradient descent comes to rest.

The module runs in 15 s or less.
"""

import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from grwlab.data_io import synth_groups
from grwlab.linalg import span_residual
from grwlab.losses import Logistic, PolyTailed, Squared
from grwlab.models import Architecture, LinearModel, WideNet
from grwlab.oracles import max_margin_bruteforce, max_margin_direction, ridge_closed_form
from grwlab.reweighting import parse_scheme
from grwlab.trainer import TrainConfig, train

EPOCHS = 60
LOSSES = {"squared": Squared(), "logistic": Logistic(), "polytailed": PolyTailed(1.0, 0.0)}
SCHEMES = ("erm", "iw", "gdro:0.1", "gdro:2", "cvar:0.5", "cvar:1")
# Hidden layers of the model: none is the linear model, else a width-16 net.
DEPTHS = (0, 1, 2)


@st.composite
def _batches(draw):
    depth = draw(st.sampled_from(DEPTHS))
    sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=3))
    loss = draw(st.sampled_from(sorted(LOSSES)))
    specs = draw(st.lists(st.sampled_from(SCHEMES), min_size=1, max_size=4))
    # Each run stops at the risk its solo run has at one of these epochs; the
    # risk need not fall monotonically, so it may stop earlier.
    stops = draw(st.lists(st.integers(0, EPOCHS + 1), min_size=len(specs), max_size=len(specs)))
    mus = draw(st.lists(st.sampled_from([0.0, 0.05]), min_size=len(specs), max_size=len(specs)))
    record_every = draw(st.integers(1, 9))
    seed = draw(st.integers(0, 2**16))
    return depth, sizes, loss, specs, stops, mus, record_every, seed


def _blob_data(d, sizes, loss, seed):
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((len(sizes), d))
    means = 0.4 * means / np.linalg.norm(means, axis=1, keepdims=True)
    return synth_groups(d, sizes, means, 0.3, seed, classification=loss != "squared")


def _model_and_starts(depth, d, seed, runs):
    if depth:
        model = WideNet(Architecture(d, (16,) * depth, beta=0.1))
        return model, [model.init_params(seed + r) for r in range(runs)]
    rng = np.random.default_rng(seed + 1)
    return LinearModel(d), [0.1 * rng.standard_normal(d) for _ in range(runs)]


def _assert_simplex(q):
    assert np.all(q >= 0)
    np.testing.assert_allclose(q.sum(), 1.0, rtol=0, atol=1e-12)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(_batches())
# Wide nets where a penalized run and an unpenalized one go on after the
# first run leaves at epoch 3.
@example((1, [3, 2], "squared", ["gdro:0.1", "erm", "cvar:0.5"], [3, 61, 61], [0.0, 0.05, 0.0],
          4, 11))
@example((2, [2, 3], "logistic", ["erm", "gdro:2", "iw"], [61, 3, 61], [0.05, 0.0, 0.05],
          5, 12))
def test_batch_equals_its_solo_runs(case):
    depth, sizes, loss, specs, stops, mus, record_every, seed = case
    d = 5
    data = _blob_data(d, sizes, loss, seed)
    model, starts = _model_and_starts(depth, d, seed, len(specs))

    def cfg(spec, mu, stop_risk):
        return TrainConfig(eta=0.5, epochs=EPOCHS, loss=LOSSES[loss], scheme=parse_scheme(spec),
                           mu=mu, stop_risk=stop_risk, record_every=record_every,
                           record_params=True)

    # The stop risks come from full-length probes recorded at every epoch:
    # halfway between the risk at the drawn epoch and the next higher risk
    # of the probe.  A batch matches its solo runs only to rounding, so a
    # stop risk within rounding of some risk would make the stop epoch a
    # coin toss; such draws are discarded.
    stop_risks = []
    for spec, mu, stop, start in zip(specs, mus, stops, starts):
        probe = train(model, data, TrainConfig(eta=0.5, epochs=EPOCHS, loss=LOSSES[loss],
                                               scheme=parse_scheme(spec), mu=mu, stop_risk=0.0),
                      theta0=start)[1]
        if stop > EPOCHS:
            stop_risks.append(0.0)
            continue
        risks = np.array(probe.risk)
        above = risks[risks > risks[stop]]
        stop_risk = 0.5 * (risks[stop] + above.min()) if above.size else 2.0 * risks[stop]
        assume(np.abs(risks - stop_risk).min() > 1e-9 * stop_risk)
        stop_risks.append(stop_risk)

    cfgs = [cfg(s, mu, sr) for s, mu, sr in zip(specs, mus, stop_risks)]
    batch = train(model, data, cfgs, theta0=np.column_stack(starts))
    alone = [train(model, data, c, theta0=s) for c, s in zip(cfgs, starts)]
    assert len(batch) == len(specs)
    for (fb, tb), (fa, ta) in zip(batch, alone):
        assert tb.scheme == ta.scheme and tb.epochs == ta.epochs
        assert (tb.stop_reason, tb.epochs_run) == (ta.stop_reason, ta.epochs_run)
        np.testing.assert_allclose(tb.risk, ta.risk, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(tb.weighted_risk, ta.weighted_risk, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(np.array(tb.q_snapshots), np.array(ta.q_snapshots),
                                   rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(np.array(tb.theta_snapshots), np.array(ta.theta_snapshots),
                                   rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(fb, fa, rtol=1e-12, atol=1e-15)
        for q, q_group in zip(tb.q_snapshots, tb.q_group):
            _assert_simplex(q)
            _assert_simplex(q_group)


_SPAN_DIM = 10


@settings(derandomize=True, deadline=None, max_examples=30)
@given(sizes=st.lists(st.integers(1, 3), min_size=2, max_size=3),
       loss=st.sampled_from(sorted(LOSSES)),
       specs=st.lists(st.sampled_from(SCHEMES), min_size=1, max_size=4),
       mu=st.sampled_from([0.0, 0.05]),
       seed=st.integers(0, 2**16))
def test_linear_batch_stays_in_the_span_of_the_data(sizes, loss, specs, mu, seed):
    # Every step adds X @ (q * dloss) and the penalty mu * (theta - theta0),
    # so theta - theta0 stays in the span of the n < d data columns.
    data = _blob_data(_SPAN_DIM, sizes, loss, seed)
    starts = np.random.default_rng(seed + 1).standard_normal((_SPAN_DIM, len(specs)))
    cfgs = [TrainConfig(eta=0.5, epochs=EPOCHS, loss=LOSSES[loss], scheme=parse_scheme(s), mu=mu,
                        stop_risk=0.0, record_every=7, record_params=True) for s in specs]
    for r, (_, trace) in enumerate(train(LinearModel(_SPAN_DIM), data, cfgs, theta0=starts)):
        assert trace.epochs[-1] == EPOCHS
        for theta in trace.theta_snapshots:
            delta = theta - starts[:, r]
            assert span_residual(delta, data.X) <= 1e-8 * np.linalg.norm(delta)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.data())
def test_sample_order_does_not_change_the_final_parameters(draw):
    depth = draw.draw(st.sampled_from(DEPTHS))
    sizes = draw.draw(st.lists(st.integers(1, 4), min_size=2, max_size=3))
    loss = draw.draw(st.sampled_from(sorted(LOSSES)))
    # A WideNet starts at a constant output (its last layer is zero), so the
    # losses of all samples with one label tie; CVaR below alpha = 1 splits
    # the weight at the cut among tied samples, so it follows them too.
    specs = draw.draw(st.lists(st.sampled_from(SCHEMES), min_size=1, max_size=4))
    seed = draw.draw(st.integers(0, 2**16))
    order = draw.draw(st.permutations(range(sum(sizes))))
    d = 5
    data = _blob_data(d, sizes, loss, seed)
    model, starts = _model_and_starts(depth, d, seed, len(specs))
    cfgs = [TrainConfig(eta=0.5, epochs=EPOCHS, loss=LOSSES[loss], scheme=parse_scheme(s),
                        stop_risk=0.0, record_every=EPOCHS) for s in specs]
    given_order = train(model, data, cfgs, theta0=np.column_stack(starts))
    permuted = train(model, data.permuted(order), cfgs, theta0=np.column_stack(starts))
    for (fa, ta), (fb, tb) in zip(given_order, permuted):
        assert ta.epochs_run == tb.epochs_run == EPOCHS
        np.testing.assert_allclose(fb, fa, rtol=0, atol=1e-9)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(d=st.integers(2, 12), n=st.integers(1, 8), seed=st.integers(0, 2**16))
def test_nnls_hard_margin_equals_subset_enumeration(d, n, seed):
    # At most d columns in general position are separable for any labels.
    n = min(n, d)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((d, n))
    x /= np.linalg.norm(x, axis=0).max()
    y = rng.choice([-1.0, 1.0], n)
    nnls, brute = max_margin_direction(x, y), max_margin_bruteforce(x, y)
    assert nnls.support_set == brute.support_set
    assert np.linalg.norm(nnls.direction - brute.direction) <= 1e-8
    assert abs(nnls.margin - brute.margin) <= 1e-8 * brute.margin


@settings(derandomize=True, deadline=None, max_examples=30)
@given(sizes=st.lists(st.integers(1, 4), min_size=2, max_size=3),
       d=st.integers(2, 8),
       spec=st.sampled_from(["erm", "iw"]),
       mu=st.floats(0.05, 1.0),
       seed=st.integers(0, 2**16))
def test_static_ridge_run_comes_to_rest_at_the_ridge_optimum(sizes, d, spec, mu, seed):
    data = _blob_data(d, sizes, "squared", seed)
    # The step size of experiments' eta = "auto" for a penalized run.
    eta = 1.0 / (float(np.sum(data.X**2)) + mu)
    # The error contracts by at least 1 - eta * mu per step.
    epochs = math.ceil(math.log(1e-12) / math.log1p(-eta * mu))
    scheme = parse_scheme(spec)
    cfg = TrainConfig(eta=eta, epochs=epochs, loss=Squared(), scheme=scheme, mu=mu, stop_risk=0.0,
                      record_every=epochs)
    final, _ = train(LinearModel(d), data, cfg, theta0=np.zeros(d))
    ridge = ridge_closed_form(data.X, data.Y, scheme.init_state(data.groups).q, mu, np.zeros(d),
                              np.zeros(data.n))
    assert np.linalg.norm(final - ridge) <= 1e-8
