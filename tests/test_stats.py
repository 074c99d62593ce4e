"""Population-statistics estimators: EMA, aggregators, Monte Carlo oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnlab.errors import (
    DegenerateBatch,
    EmptyLog,
    InvalidParams,
    MalformedCsv,
    ShapeMismatch,
)
from bnlab.stats import (
    BatchMomentLog,
    EmaState,
    aggregate_moment_matching,
    aggregate_naive,
    ema_update,
    simulate_variance_estimates,
    var_of_var_oracle,
)
from bnlab.tensor import ChannelStats, channel_moments


def _stats(mean, var, count):
    return ChannelStats(np.asarray(mean, float), np.asarray(var, float), count)


def test_ema_update_closed_form():
    state = EmaState.initial(2, momentum=0.9)
    np.testing.assert_array_equal(state.mean, [0.0, 0.0])
    np.testing.assert_array_equal(state.var, [1.0, 1.0])
    state = ema_update(state, _stats([1.0, 2.0], [4.0, 9.0], 8))
    np.testing.assert_allclose(state.mean, [0.1, 0.2])
    np.testing.assert_allclose(state.var, [0.9 + 0.4, 0.9 + 0.9])
    assert state.update_count == 1


@settings(max_examples=60, deadline=None)
@given(
    groups=st.integers(1, 40),
    channels=st.integers(1, 4),
    momentum=st.floats(0.0, 1.0),
    seed=st.integers(0, 10**6),
)
def test_ema_fold_of_cohort_stack_equals_sequential_updates(groups, channels,
                                                            momentum, seed):
    rng = np.random.default_rng(seed)
    start = EmaState(rng.standard_normal(channels),
                     rng.uniform(0.1, 3.0, channels), momentum, 5)
    stacked = ChannelStats(rng.standard_normal((groups, channels)),
                           rng.uniform(0.1, 3.0, (groups, channels)), 8)
    folded = ema_update(start, stacked)
    seq = start
    for cohort in stacked.cohorts():
        seq = ema_update(seq, cohort)
    assert folded.update_count == seq.update_count == 5 + groups
    np.testing.assert_allclose(folded.mean, seq.mean, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(folded.var, seq.var, rtol=1e-12, atol=1e-12)
    if groups == 1:
        lam = momentum
        one = stacked.cohorts()[0]
        # a single cohort takes exactly the one-step formula
        assert folded.mean.tobytes() == (
            lam * start.mean + (1.0 - lam) * one.mean).tobytes()
        assert folded.var.tobytes() == (
            lam * start.var + (1.0 - lam) * one.var).tobytes()


def test_ema_momentum_validation_and_shape():
    with pytest.raises(InvalidParams):
        EmaState(np.zeros(1), np.ones(1), momentum=1.5)
    state = EmaState.initial(2, 0.9)
    with pytest.raises(ShapeMismatch):
        ema_update(state, _stats([0.0], [1.0], 4))


def test_ema_converges_to_stationary_batch():
    state = EmaState.initial(1, momentum=0.5)
    target = _stats([3.0], [7.0], 4)
    for _ in range(60):
        state = ema_update(state, target)
    np.testing.assert_allclose(state.mean, [3.0], atol=1e-12)
    np.testing.assert_allclose(state.var, [7.0], atol=1e-12)


def test_moment_log_csv_roundtrip():
    rng = np.random.default_rng(0)
    log = BatchMomentLog()
    for _ in range(3):
        log.append(channel_moments(rng.standard_normal((4, 2, 1, 1))))
    back = BatchMomentLog.from_csv(log.to_csv())
    assert len(back) == 3
    for a, b in zip(log.entries, back.entries):
        np.testing.assert_array_equal(a.mean, b.mean)  # repr() round-trips
        np.testing.assert_array_equal(a.var, b.var)
        assert a.count == b.count


@pytest.mark.parametrize("text", [
    "",
    "wrong,header\n0,0\n",
    "batch_index,channel,mean,var,count\n",
    "batch_index,channel,mean,var,count\n0,0,notafloat,1.0,4\n",
    "batch_index,channel,mean,var,count\n0,1,0.0,1.0,4\n",  # missing channel 0
])
def test_moment_log_rejects_malformed_csv(text):
    with pytest.raises(MalformedCsv):
        BatchMomentLog.from_csv(text)


def test_moment_log_channel_consistency():
    log = BatchMomentLog()
    log.append(_stats([0.0, 0.0], [1.0, 1.0], 4))
    with pytest.raises(ShapeMismatch):
        log.append(_stats([0.0], [1.0], 4))


@settings(max_examples=30, deadline=None)
@given(
    counts=st.lists(st.integers(2, 9), min_size=1, max_size=5),
    seed=st.integers(0, 10**6),
)
def test_moment_matching_equals_concat_oracle(counts, seed):
    rng = np.random.default_rng(seed)
    parts = [1.0 + rng.standard_normal((n, 3, 1, 1)) for n in counts]
    log = BatchMomentLog()
    for p in parts:
        log.append(channel_moments(p))
    agg = aggregate_moment_matching(log)
    ref = channel_moments(np.concatenate(parts, axis=0))
    np.testing.assert_allclose(agg.mean, ref.mean, atol=1e-12)
    np.testing.assert_allclose(agg.var, ref.var, atol=1e-12)
    # bessel multiplies the pooled variance by N/(N-1)
    n = sum(counts)
    bes = aggregate_moment_matching(log, bessel=True)
    np.testing.assert_allclose(bes.var, agg.var * n / (n - 1), atol=1e-12)


def test_naive_aggregation_closed_form():
    log = BatchMomentLog()
    log.append(_stats([1.0], [2.0], 4))
    log.append(_stats([3.0], [6.0], 4))
    agg = aggregate_naive(log)
    np.testing.assert_allclose(agg.mean, [2.0])
    np.testing.assert_allclose(agg.var, [(4 / 3) * 4.0])


def test_naive_aggregation_validation():
    with pytest.raises(EmptyLog):
        aggregate_naive(BatchMomentLog())
    with pytest.raises(EmptyLog):
        aggregate_moment_matching(BatchMomentLog())
    mixed = BatchMomentLog()
    mixed.append(_stats([0.0], [1.0], 4))
    mixed.append(_stats([0.0], [1.0], 8))
    with pytest.raises(DegenerateBatch):
        aggregate_naive(mixed)
    tiny = BatchMomentLog()
    tiny.append(_stats([0.0], [1.0], 1))
    with pytest.raises(DegenerateBatch):
        aggregate_naive(tiny)
    with pytest.raises(DegenerateBatch):
        aggregate_moment_matching(tiny, bessel=True)


def test_simulate_estimator_validation():
    with pytest.raises(InvalidParams):
        simulate_variance_estimates(1.0, 3.0, k=4, batch_size=1, trials=10, seed=0)
    with pytest.raises(InvalidParams):
        simulate_variance_estimates(1.0, 3.0, 4, 4, 10, 0, estimator="median")


def test_mixture_sampler_hits_requested_moments():
    # kurtosis != 3 uses the Bernoulli mixture; check sd and kappa empirically
    est = simulate_variance_estimates(sigma=2.0, kurtosis=9.0, k=1,
                                      batch_size=4096, trials=64, seed=3,
                                      estimator="naive")
    np.testing.assert_allclose(est.mean(), 4.0, rtol=0.05)


def test_var_of_var_oracle_analytic_term():
    rep = var_of_var_oracle(1.0, 3.0, n_total=64, batch_size=4,
                            trials=2000, seed=0)
    assert rep.analytic_var == pytest.approx((3 - 1 + 2 / 3) / 64)
    with pytest.raises(InvalidParams):
        var_of_var_oracle(1.0, 3.0, 64, 3, 2000, 0)  # N not divisible by B
    with pytest.raises(InvalidParams):
        var_of_var_oracle(1.0, 3.0, 64, 4, 10, 0)  # too few trials


def test_var_of_var_scales_with_kurtosis():
    lo = var_of_var_oracle(1.0, 3.0, 64, 4, 5000, 1)
    hi = var_of_var_oracle(1.0, 9.0, 64, 4, 5000, 1)
    assert hi.analytic_var > lo.analytic_var
    assert hi.empirical_var > lo.empirical_var
