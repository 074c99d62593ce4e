"""End-to-end acceptance gate: one test per criterion, each printed as its
own pass/fail line by ``pytest -v``.

The experiment-direction criteria (c09-c12) are evaluated as a majority vote
over three seeds, since individual synthetic runs carry sampling noise.
``scenarios.fan_out`` runs each seed in its own process, where the runner's
arms run serially.  Each seed's
margins and verdict come from ``tools/margins.py``, which reports the same
criteria on any directory of run artifacts.
"""

import importlib.util
import os
import time

import numpy as np
import pytest

from bnlab.errors import EmptyBatch
from bnlab.gradcheck import TOLERANCE, run_full_suite
from bnlab.layer import BnLayer, BnMode
from bnlab.precise import precise_bn, precise_bn_layerwise
from bnlab.scenarios import (
    DOMAIN_ADAPT_DEFAULTS,
    LEAKAGE_DEFAULTS,
    NBS_SWEEP_DEFAULTS,
    SHARED_HEAD_DEFAULTS,
    fan_out,
    run_domain_adapt,
    run_leakage,
    run_nbs_sweep,
    run_shared_head,
)
from bnlab.stats import aggregate_moment_matching
from bnlab.tensor import channel_moments, normalize
from oracles import fusion_finetune_demo, simulate_variance_estimates, var_of_var_oracle

SEEDS = (0, 1, 2)

_spec = importlib.util.spec_from_file_location(
    "margins_tool", os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                 os.pardir, "tools", "margins.py"))
margins_tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(margins_tool)


def majority(results):
    return sum(bool(r) for r in results) >= (len(results) // 2 + 1)


def report_margins(record_property, votes, margins):
    """Attach each seed's margins ({seed: {name: value}}) to the test's
    report; returns verdicts and margins as the assertion message."""
    for seed, values in margins.items():
        record_property(f"margins_seed{seed}", values)
    return f"per-seed verdicts: {votes}; per-seed margins: {margins}"


def seed_summaries(runner, defaults):
    """(summary, seconds) of ``runner`` at its defaults for each seed, each
    timed in the process that ran it; ``fan_out`` runs the first seed in
    this process and each other in a forked worker.  Forking this process
    is safe: importing bnlab capped OpenBLAS at one thread, so BLAS runs in
    the calling thread, and OpenBLAS shuts its idle thread pool down before
    a fork."""

    def timed_summary(seed):
        start = time.monotonic()
        summary = runner(dict(defaults), seed).summary
        return summary, time.monotonic() - start

    return fan_out(timed_summary, SEEDS)


def _rand_net(rng, dims):
    """A 3-BN random network in a non-trivial (trained-looking) state."""
    from bnlab.net import Affine, Linear, Network, Relu

    layers = []
    for i in range(len(dims) - 2):
        layers.append(Linear.init(rng, dims[i], dims[i + 1]))
        layers.append(BnLayer(dims[i + 1]))
        layers.append(Affine(rng.uniform(0.5, 1.5, dims[i + 1]),
                             rng.standard_normal(dims[i + 1])))
        layers.append(Relu())
    layers.append(Linear.init(rng, dims[-2], dims[-1]))
    return Network(layers)


def test_c01_variance_formula_monte_carlo():
    start = time.monotonic()
    for b, analytic_expected in [(4, (2 + 2 / 3) / 64), (8, (2 + 2 / 7) / 64)]:
        rep = var_of_var_oracle(sigma=1.0, kurtosis=3.0, n_total=64,
                                batch_size=b, trials=10**5, seed=101 + b)
        assert rep.analytic_var == pytest.approx(analytic_expected, rel=1e-12)
        rel = abs(rep.empirical_var - rep.analytic_var) / rep.analytic_var
        assert rel < 0.10, f"B={b}: relative deviation {rel:.3f} >= 10%"
    assert time.monotonic() - start < 10.0


def test_c02_both_aggregators_unbiased():
    trials = 10**4
    for estimator in ("naive", "moment_matching"):
        est = simulate_variance_estimates(sigma=1.0, kurtosis=3.0, k=16,
                                          batch_size=4, trials=trials,
                                          seed=7, estimator=estimator)
        se = est.std(ddof=1) / np.sqrt(trials)
        assert abs(est.mean() - 1.0) < 3 * se, (
            f"{estimator}: mean {est.mean():.5f} deviates from 1 by more "
            f"than 3 SE ({3 * se:.5f})"
        )


def test_c03_moment_matching_dominates_naive():
    kwargs = dict(sigma=1.0, kurtosis=3.0, k=16, batch_size=4,
                  trials=10**4, seed=13)
    v_naive = simulate_variance_estimates(estimator="naive", **kwargs).var(ddof=1)
    v_mm = simulate_variance_estimates(estimator="moment_matching",
                                       **kwargs).var(ddof=1)
    assert v_mm < v_naive


def test_c04_layerwise_oracle():
    rng = np.random.default_rng(42)
    net = _rand_net(rng, [6, 8, 8, 8, 4])
    pop = rng.standard_normal((32, 6, 1, 1))
    oracle = precise_bn(net, pop, 32)  # B = N: one cohort covers everything
    for b in (4, 8, 32):
        layerwise = precise_bn_layerwise(net, pop, b)
        for i in oracle:
            np.testing.assert_allclose(layerwise[i].mean, oracle[i].mean,
                                       rtol=0, atol=1e-10)
            np.testing.assert_allclose(layerwise[i].var, oracle[i].var,
                                       rtol=0, atol=1e-10)
    plain = precise_bn(net, pop, 4)
    deeper = sorted(oracle)[1:]
    worst = max(
        max(np.abs(plain[i].mean - oracle[i].mean).max(),
            np.abs(plain[i].var - oracle[i].var).max())
        for i in deeper
    )
    assert worst > 1e-6, "plain small-batch pass should drift at deeper layers"


def test_c05_fusion_toy_exact():
    x0 = 1.0
    unfused, fused = fusion_finetune_demo(lambda_=0.5, x0=x0, step=1.0, iters=20)
    for t in range(21):
        assert unfused[t] == x0 * 2.0**-t
        assert fused[t] == (-1.0) ** t * x0


def test_c06_gradient_suite():
    report = run_full_suite(seed=0)
    bad = {k: v for k, v in report.items() if v >= TOLERANCE}
    assert not bad, f"finite-difference failures: {bad}"


def test_c07_sync_equals_concat():
    rng = np.random.default_rng(77)
    for _ in range(100):
        n_workers = int(rng.integers(2, 5))
        sizes = [int(rng.integers(1, 9)) for _ in range(n_workers)]
        c, h, w = (int(rng.integers(1, 4)) for _ in range(3))
        parts = [rng.standard_normal((s, c, h, w)) for s in sizes]
        pooled = aggregate_moment_matching([channel_moments(p) for p in parts])
        synced = [normalize(p, pooled, 1e-5) for p in parts]
        concat = normalize(np.concatenate(parts, axis=0),
                           channel_moments(np.concatenate(parts, axis=0)), 1e-5)
        ref = np.split(concat, np.cumsum(sizes)[:-1])
        for a, b in zip(synced, ref):
            assert np.abs(a - b).max() <= 1e-12


def test_c08_split_concat_moment_property():
    rng = np.random.default_rng(5)
    eps = 1e-5

    def split_vs_concat(b1, b2):
        full = np.concatenate([b1, b2], axis=0)
        concat = normalize(full, channel_moments(full), eps)
        split = np.concatenate(
            [normalize(b1, channel_moments(b1), eps),
             normalize(b2, channel_moments(b2), eps)], axis=0)
        return np.abs(concat - split).max()

    # unequal moments: independently drawn batches violate the equality
    b1 = rng.standard_normal((8, 3, 2, 2))
    b2 = 2.0 + 1.5 * rng.standard_normal((8, 3, 2, 2))
    assert split_vs_concat(b1, b2) > 1e-3

    # equal moments: the mirrored batch shares mean and variance exactly
    mu = b1.mean(axis=(0, 2, 3), keepdims=True)
    b2_eq = 2.0 * mu - b1
    assert split_vs_concat(b1, b2_eq) <= 1e-12


def test_c09_leakage_and_fixes(record_property):
    votes, margins = [], {}
    runs = seed_summaries(run_leakage, LEAKAGE_DEFAULTS)
    for seed, (summary, elapsed) in zip(SEEDS, runs):
        # gap >= 0.20, largest fix-vs-control difference <= 0.02
        margins[seed], ok = margins_tool.c09_leakage(summary)
        votes.append(ok and elapsed < 60.0)
    message = report_margins(record_property, votes, margins)
    assert majority(votes), message


def test_c10_shared_head_consistency(record_property):
    votes, margins = [], {}
    runs = seed_summaries(run_shared_head, SHARED_HEAD_DEFAULTS)
    for seed, (summary, _) in zip(SEEDS, runs):
        # ratio >= 2, spread <= 0.03
        margins[seed], ok = margins_tool.c10_shared_head(summary)
        votes.append(ok)
    message = report_margins(record_property, votes, margins)
    assert majority(votes), message


def test_c11_nbs_sweep_directions(record_property):
    votes, margins = [], {}
    runs = seed_summaries(run_nbs_sweep, NBS_SWEEP_DEFAULTS)
    for seed, (summary, _) in zip(SEEDS, runs):
        # train errors non-increasing in nbs, flip > 0
        margins[seed], ok = margins_tool.c11_nbs_sweep(summary)
        votes.append(ok)
    message = report_margins(record_property, votes, margins)
    assert majority(votes), message


def test_c12_domain_adaptation_direction(record_property):
    votes, margins = [], {}
    for seed in SEEDS:
        run = run_domain_adapt(dict(DOMAIN_ADAPT_DEFAULTS), seed)
        # helps > 0, coincide <= 0.02
        margins[seed], ok = margins_tool.c12_domain_adapt(run.summary)
        votes.append(ok)
    message = report_margins(record_property, votes, margins)
    assert majority(votes), message


def test_c13_metrics_byte_determinism(tmp_path):
    from bnlab import io

    paths = []
    for tag in ("a", "b"):
        run = run_domain_adapt(dict(DOMAIN_ADAPT_DEFAULTS), 3)
        p = tmp_path / f"metrics_{tag}.csv"
        io.write_metrics_csv(str(p), run.rows)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_c14_empty_batch_semantics():
    layer = BnLayer(3)
    before = (layer.ema.mean.tobytes(), layer.ema.var.tobytes(),
              layer.ema.update_count)
    with pytest.raises(EmptyBatch):
        layer.forward(np.zeros((0, 3, 1, 1)), mode=BnMode.TRAIN_MINIBATCH)
    after = (layer.ema.mean.tobytes(), layer.ema.var.tobytes(),
             layer.ema.update_count)
    assert before == after
