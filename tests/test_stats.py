"""Population-statistics estimators: EMA and aggregators, and the Monte
Carlo oracles of ``tests/oracles.py``."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

from bnlab.errors import (
    DegenerateBatch,
    EmptyLog,
    InvalidParams,
    MalformedCsv,
    ShapeMismatch,
)
from bnlab.stats import (
    _decay,
    MomentFold,
    aggregate_moment_matching,
    aggregate_naive,
    ema_update,
    read_moments_csv,
    stack_moments,
)
from bnlab.tensor import ChannelStats, channel_moments
from conftest import drawn
from oracles import moment_matching, simulate_variance_estimates, var_of_var_oracle


def _stats(mean, var, count):
    return ChannelStats(np.asarray(mean, float), np.asarray(var, float), count)


def _ema(mean, var):
    # an EMA is statistics of count 1
    return ChannelStats(mean, var, 1)


def test_ema_update_closed_form():
    state = _ema(np.zeros(2), np.ones(2))
    state = ema_update(state, _stats([1.0, 2.0], [4.0, 9.0], 8), 0.9)
    np.testing.assert_allclose(state.mean, [0.1, 0.2])
    np.testing.assert_allclose(state.var, [0.9 + 0.4, 0.9 + 0.9])
    assert state.count == 1


@seed(6)
@drawn(60)
@given(
    groups=st.integers(1, 40),
    channels=st.integers(1, 4),
    momentum=st.floats(0.0, 1.0),
    seed=st.integers(0, 10**6),
)
def test_ema_fold_of_cohort_stack_equals_sequential_updates(groups, channels,
                                                            momentum, seed):
    rng = np.random.default_rng(seed)
    start = _ema(rng.standard_normal(channels), rng.uniform(0.1, 3.0, channels))
    stacked = ChannelStats(rng.standard_normal((groups, channels)),
                           rng.uniform(0.1, 3.0, (groups, channels)), 8)
    folded = ema_update(start, stacked, momentum)
    cohorts = [ChannelStats(m, v, stacked.count)
               for m, v in zip(stacked.mean, stacked.var)]
    seq = start
    for cohort in cohorts:
        seq = ema_update(seq, cohort, momentum)
    assert folded.count == seq.count == 1
    np.testing.assert_allclose(folded.mean, seq.mean, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(folded.var, seq.var, rtol=1e-12, atol=1e-12)
    if groups == 1:
        lam = momentum
        one = cohorts[0]
        # a single cohort takes exactly the one-step formula
        assert folded.mean.tobytes() == (
            lam * start.mean + (1.0 - lam) * one.mean).tobytes()
        assert folded.var.tobytes() == (
            lam * start.var + (1.0 - lam) * one.var).tobytes()


@pytest.mark.parametrize("lam", [0.0, 0.1, 0.9, 0.999, 1.0])
def test_ema_single_cohort_is_the_one_step_formula_bit_for_bit(lam):
    rng = np.random.default_rng(11)
    old = _ema(rng.standard_normal(5), rng.uniform(0.1, 3.0, 5))
    before = (old.mean.tobytes(), old.var.tobytes())
    m = _stats(rng.standard_normal(5), rng.uniform(0.1, 3.0, 5), 8)
    new = ema_update(old, m, lam)
    np.testing.assert_array_equal(new.mean, lam * old.mean + (1 - lam) * m.mean)
    np.testing.assert_array_equal(new.var, lam * old.var + (1 - lam) * m.var)
    assert new.count == 1
    # the old state is left as it was
    assert (old.mean.tobytes(), old.var.tobytes()) == before


@pytest.mark.parametrize("lam", [0.9, 0.999])
@pytest.mark.parametrize("groups", [1, 2, 16])
def test_ema_update_has_the_bits_of_the_closed_form(groups, lam):
    rng = np.random.default_rng(groups)
    old = _ema(rng.standard_normal(5), rng.uniform(0.1, 3.0, 5))
    m = _stats(rng.standard_normal((groups, 5)),
               rng.uniform(0.1, 3.0, (groups, 5)), 8)
    # the closed form with its decay column built afresh, as every update
    # once did; the cached column must give the same bits on every call
    decay = lam ** np.arange(groups - 1, -1, -1)[:, None]
    mean = lam**groups * old.mean + (1.0 - lam) * np.add.reduce(decay * m.mean, axis=0)
    var = lam**groups * old.var + (1.0 - lam) * np.add.reduce(decay * m.var, axis=0)
    for _ in range(2):
        new = ema_update(old, m, lam)
        np.testing.assert_array_equal(new.mean, mean)
        np.testing.assert_array_equal(new.var, var)
        assert new.count == 1
    if groups == 1:
        np.testing.assert_array_equal(new.mean, lam * old.mean + (1 - lam) * m.mean[0])
        np.testing.assert_array_equal(new.var, lam * old.var + (1 - lam) * m.var[0])
    # the column is built once per (momentum, cohort count) and shared
    assert _decay(lam, groups) is _decay(lam, groups)
    assert not _decay(lam, groups).flags.writeable


def test_ema_momentum_validation_and_shape():
    batch = _stats([0.0], [1.0], 4)
    for momentum in (1.5, -0.1, float("nan")):
        with pytest.raises(InvalidParams,
                           match=rf"^momentum must be in \[0, 1\], got {momentum}$"):
            ema_update(_ema(np.zeros(1), np.ones(1)), batch, momentum)
    state = _ema([0], [1])
    assert state.mean.dtype == state.var.dtype == np.float64
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.mean = np.ones(1)
    state = _ema(np.zeros(2), np.ones(2))
    with pytest.raises(ShapeMismatch):
        ema_update(state, batch, 0.9)


def test_ema_converges_to_stationary_batch():
    state = _ema(np.zeros(1), np.ones(1))
    target = _stats([3.0], [7.0], 4)
    for _ in range(60):
        state = ema_update(state, target, 0.5)
    np.testing.assert_allclose(state.mean, [3.0], atol=1e-12)
    np.testing.assert_allclose(state.var, [7.0], atol=1e-12)


def test_moment_log_csv_roundtrip(moments_csv):
    rng = np.random.default_rng(0)
    log = [channel_moments(rng.standard_normal((4, 1, 1, 2))) for _ in range(3)]
    back = read_moments_csv(moments_csv(log))
    assert len(back) == 3
    for a, b in zip(log, back):
        np.testing.assert_array_equal(a.mean, b.mean)  # repr() round-trips
        np.testing.assert_array_equal(a.var, b.var)
        assert a.count == b.count


def test_moment_log_skips_blank_rows():
    text = ("batch_index,channel,mean,var,count\n0,0,1.0,2.0,4\n\n"
            "0,1,3.0,4.0,4\n\n")
    (entry,) = read_moments_csv(text)
    np.testing.assert_array_equal(entry.mean, [1.0, 3.0])
    np.testing.assert_array_equal(entry.var, [2.0, 4.0])
    assert entry.count == 4


def _mixed_log(rng, channels=3):
    """A log of (C,) entries and (G, C) cohort stacks: mini-batches of 4,
    3 x 4 (one stack), 2, 2 x 4 (one stack) and a ragged 1 rows, each row
    two elements per channel."""
    log = []
    for shape in ((4,), (3, 4), (2,), (2, 4), (1,)):
        n = shape[-1]
        x = 5.0 + rng.standard_normal((*shape[:-1], n, 2, 1, channels))
        log.append(channel_moments(x))
    return log


def test_moment_log_counts_mini_batches_not_entries(moments_csv):
    log = _mixed_log(np.random.default_rng(5))
    means, variances, counts = stack_moments(log)
    k = len(counts)
    assert len(log) == 5
    assert k == len(means) == len(variances) == 1 + 3 + 1 + 2 + 1
    lines = moments_csv(log).splitlines()
    assert len(lines) == 1 + k * 3
    assert [line.split(",")[0] for line in lines[1::3]] == \
        [str(i) for i in range(k)]
    assert [int(line.split(",")[4]) for line in lines[1::3]] == \
        [8, 8, 8, 8, 4, 8, 8, 2]
    back = read_moments_csv(moments_csv(log))
    assert len(back) == k == len(stack_moments(back)[2])
    for i, entry in enumerate(back):
        np.testing.assert_array_equal(entry.mean, means[i])
        np.testing.assert_array_equal(entry.var, variances[i])
        assert entry.count == counts[i]


def test_moment_matching_of_stacks_has_the_sequential_sums_bits():
    log = _mixed_log(np.random.default_rng(6))
    agg = aggregate_moment_matching(log)
    # the formula as a sum over one (C,) mini-batch at a time, in order
    batches = [(m, v, e.count) for e in log
               for m, v in zip(e.mean.reshape(-1, 3), e.var.reshape(-1, 3))]
    total = sum(count for _, _, count in batches)
    mean = sum(count * m for m, _, count in batches) / total
    second = sum(count * (m**2 + v) for m, v, count in batches) / total
    np.testing.assert_array_equal(agg.mean, mean)
    np.testing.assert_array_equal(agg.var, np.maximum(second - mean**2, 0.0))
    assert agg.count == total == 2 * (4 + 12 + 2 + 8 + 1)
    # naive pooling counts mini-batches too
    equal = [_stats([[1.0], [3.0]], [[2.0], [6.0]], 4), _stats([5.0], [4.0], 4)]
    naive = aggregate_naive(equal)
    np.testing.assert_array_equal(naive.mean, [(1.0 + 3.0 + 5.0) / 3])
    np.testing.assert_array_equal(naive.var, [(4 / 3) * (2.0 + 6.0 + 4.0) / 3])
    assert naive.count == 12


@pytest.mark.parametrize("text", [
    "",
    "wrong,header\n0,0\n",
    "batch_index,channel,mean,var,count\n",
    "batch_index,channel,mean,var,count\n0,0,notafloat,1.0,4\n",
    "batch_index,channel,mean,var,count\n0,1,0.0,1.0,4\n",  # missing channel 0
    "batch_index,channel,mean,var,count\n0,0,nan,1.0,4\n",
    "batch_index,channel,mean,var,count\n0,0,0.0,inf,4\n",
    "batch_index,channel,mean,var,count\n0,0,0.0,-1.0,4\n",
    "batch_index,channel,mean,var,count\n0,0,0.0,1.0,0\n",
    # a repeated (batch_index, channel) row
    "batch_index,channel,mean,var,count\n0,0,1.0,1.0,4\n0,1,2.0,1.0,4\n"
    "0,0,5.0,1.0,4\n",
    # channels of one batch with different counts
    "batch_index,channel,mean,var,count\n0,0,1.0,1.0,4\n0,1,2.0,1.0,8\n",
    "batch_index,channel,mean,var,count\n0,0,1.0,1.0,4\n0,1,2.0,1.0,8\n"
    "0,0,5.0,1.0,4\n",
    # batches that disagree on the channel count
    "batch_index,channel,mean,var,count\n0,0,1.0,1.0,4\n0,1,2.0,1.0,4\n"
    "1,0,5.0,1.0,4\n",
])
def test_moment_log_rejects_malformed_csv(text):
    with pytest.raises(MalformedCsv):
        read_moments_csv(text)


def test_moment_log_channel_consistency():
    log = [_stats([0.0, 0.0], [1.0, 1.0], 4), _stats([0.0], [1.0], 4)]
    with pytest.raises(ShapeMismatch):
        stack_moments(log)
    with pytest.raises(ShapeMismatch):
        aggregate_moment_matching(log)
    fold = MomentFold()
    fold.append(log[0])
    with pytest.raises(ShapeMismatch):
        fold.append(log[1])


def _bits(stats):
    return stats.mean.tobytes(), stats.var.tobytes(), stats.count


@seed(7)
@drawn(200)
@given(data=st.data(), c=st.integers(1, 4), bessel=st.booleans())
def test_a_fold_in_any_split_has_the_bits_of_the_in_order_sums(data, c, bessel):
    # drawn mini-batch rows in runs of equal counts (2 or more, so bessel
    # applies), each run logged as one (G, C) entry, as a precise pass gives
    # it, or as (C,) entries, as a moments CSV gives them; and the same
    # rows as one (C,) entry each
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    k = data.draw(st.integers(1, 30))
    means, variances = rng.normal(2.0, 3.0, (k, c)), rng.uniform(0.0, 4.0, (k, c))
    cuts = sorted(data.draw(st.lists(st.integers(0, k), max_size=6)))
    grouped, single = [], []
    for start, stop in zip([0, *cuts], [*cuts, k]):
        if start < stop:
            count = data.draw(st.integers(2, 40))
            single += [ChannelStats(means[j], variances[j], count)
                       for j in range(start, stop)]
            grouped += ([ChannelStats(means[start:stop], variances[start:stop], count)]
                        if data.draw(st.booleans()) else single[start - stop:])
    want = _bits(moment_matching(single, bessel))
    for log in (grouped, single):
        # as a list, as ``bnlab estimate`` pools a file
        assert _bits(aggregate_moment_matching(log, bessel)) == want
        fold = MomentFold()  # one entry at a time, as a pass's sink
        for entry in log:
            fold.append(entry)
        assert _bits(aggregate_moment_matching(fold, bessel)) == want


@pytest.mark.parametrize("c", [1, 3])
def test_a_fold_of_whole_cohorts_and_a_tail_sums_in_order(c):
    # a precise pass at cohort 2 over 15 rows: 7 whole cohorts, then a
    # 1-row tail, folded as the (7, C) and (C,) entries the pass gives
    rng = np.random.default_rng(5)
    log = [ChannelStats(rng.normal(2.0, 3.0, (7, c)), rng.uniform(0.0, 4.0, (7, c)), 2),
           ChannelStats(rng.normal(2.0, 3.0, c), rng.uniform(0.0, 4.0, c), 1)]
    fold = MomentFold()
    for entry in log:
        fold.append(entry)
    assert _bits(aggregate_moment_matching(fold)) == _bits(moment_matching(log))


def test_a_one_channel_log_sums_in_order_not_pairwise():
    # numpy reduces one column of 100 rows pairwise, which rounds both
    # pooled moments of this 1-channel log unlike the in-order sums
    rng = np.random.default_rng(3)
    means, variances = rng.normal(2.0, 3.0, (100, 1)), rng.uniform(0.0, 4.0, (100, 1))
    mean = np.add.reduce(8 * means, axis=0) / 800
    var = np.add.reduce(8 * (means**2 + variances), axis=0) / 800 - mean**2
    want = _bits(moment_matching([ChannelStats(means, variances, 8)]))
    assert mean.tobytes() != want[0] and var.tobytes() != want[1]
    # a (100, 1) pass entry, a CSV's (1,) entries, and a fold of both kinds
    csv = [ChannelStats(m, v, 8) for m, v in zip(means, variances)]
    assert _bits(aggregate_moment_matching([ChannelStats(means, variances, 8)])) == want
    assert _bits(aggregate_moment_matching(csv)) == want
    fold = MomentFold()
    fold.append(ChannelStats(means[:64], variances[:64], 8))
    for entry in csv[64:]:
        fold.append(entry)
    assert _bits(aggregate_moment_matching(fold)) == want


@seed(8)
@drawn(40)
@given(
    counts=st.lists(st.integers(1, 9), min_size=1, max_size=5),
    c=st.integers(1, 3),
    seed=st.integers(0, 10**6),
)
def test_moment_matching_equals_concat_oracle(counts, c, seed):
    rng = np.random.default_rng(seed)
    # two spatial rows per sample: at least 2 elements, so bessel applies
    parts = [1.0 + rng.standard_normal((n, 2, 1, c)) for n in counts]
    log = [channel_moments(p) for p in parts]
    agg = aggregate_moment_matching(log)
    ref = channel_moments(np.concatenate(parts, axis=0))
    np.testing.assert_allclose(agg.mean, ref.mean, atol=1e-12)
    np.testing.assert_allclose(agg.var, ref.var, atol=1e-12)
    assert agg.count == ref.count
    # bessel multiplies the pooled variance by N/(N-1)
    n = ref.count
    bes = aggregate_moment_matching(log, bessel=True)
    np.testing.assert_allclose(bes.var, agg.var * n / (n - 1), atol=1e-12)


def test_naive_aggregation_closed_form():
    log = [_stats([1.0], [2.0], 4), _stats([3.0], [6.0], 4)]
    agg = aggregate_naive(log)
    np.testing.assert_allclose(agg.mean, [2.0])
    np.testing.assert_allclose(agg.var, [(4 / 3) * 4.0])


def test_naive_aggregation_validation():
    with pytest.raises(EmptyLog):
        aggregate_naive([])
    with pytest.raises(EmptyLog):
        aggregate_moment_matching([])
    with pytest.raises(EmptyLog):
        aggregate_moment_matching(MomentFold())
    with pytest.raises(EmptyLog):
        stack_moments([])
    mixed = [_stats([0.0], [1.0], 4), _stats([0.0], [1.0], 8)]
    with pytest.raises(DegenerateBatch):
        aggregate_naive(mixed)
    tiny = [_stats([0.0], [1.0], 1)]
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
