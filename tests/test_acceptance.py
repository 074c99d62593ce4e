"""End-to-end acceptance gate: one test per criterion, each printed as its
own pass/fail line by ``pytest -v``.

The experiment-direction criteria (c09-c12) are evaluated as a majority vote
over three seeds, since individual synthetic runs carry sampling noise.  They
read one session run of ``tools/artifacts.py``'s ``write_all``: all six
scenarios at their defaults and seeds 0-2, through ``bnlab run``, into a
temporary directory.  ``tools/margins.py``'s ``ledger`` judges each seed's
``summary.json`` there, and the manifest test checks the same 72 files
against ``tools/artifacts.sha256``.
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
from bnlab.scenarios import DOMAIN_ADAPT_DEFAULTS, run_domain_adapt
from bnlab.stats import aggregate_moment_matching
from bnlab.tensor import channel_moments, normalize
from oracles import (fusion_finetune_demo, random_net, simulate_variance_estimates,
                     var_of_var_oracle)

SEEDS = (0, 1, 2)
TOOLS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tools")
MANIFEST = os.path.join(TOOLS, "artifacts.sha256")


def _tool(name):
    spec = importlib.util.spec_from_file_location(
        f"{name}_tool", os.path.join(TOOLS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


artifacts_tool, margins_tool = _tool("artifacts"), _tool("margins")


@pytest.fixture(scope="session")
def default_runs(tmp_path_factory):
    """(the directory, write_all's {(scenario, seed): (exit code, seconds)})
    of one run of every scenario at its defaults and each of SEEDS."""
    out = str(tmp_path_factory.mktemp("artifacts"))
    runs = artifacts_tool.write_all(out, SEEDS)
    failed = sorted(job for job, (code, _) in runs.items() if code != 0)
    assert not failed, f"runs that exited non-zero: {failed}"
    return out, runs


def judged(record_property, default_runs, criterion):
    """The ledger's entry for ``criterion``; each seed's margins go to the
    test's report as ``margins_seed<N>``."""
    out, _ = default_runs
    entry = margins_tool.ledger(out)[criterion]
    for seed, row in entry["seeds"].items():
        record_property(f"margins_seed{seed}", row["margins"])
    return entry


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
    net = random_net(rng, [6, 8, 8, 8, 4])
    pop = rng.standard_normal((32, 1, 1, 6))
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
    b1 = rng.standard_normal((8, 2, 2, 3))
    b2 = 2.0 + 1.5 * rng.standard_normal((8, 2, 2, 3))
    assert split_vs_concat(b1, b2) > 1e-3

    # equal moments: the mirrored batch shares mean and variance exactly
    mu = b1.mean(axis=(0, 1, 2), keepdims=True)
    b2_eq = 2.0 * mu - b1
    assert split_vs_concat(b1, b2_eq) <= 1e-12


def test_c09_leakage_and_fixes(record_property, default_runs):
    # gap >= 0.20, largest fix-vs-control difference <= 0.02, each seed's
    # run under 60 s
    entry = judged(record_property, default_runs, "c09")
    _, runs = default_runs
    votes = [entry["seeds"][str(seed)]["pass"] and runs["leakage", seed][1] < 60.0
             for seed in SEEDS]
    assert sum(votes) >= len(SEEDS) // 2 + 1, (votes, entry["seeds"])


def test_c10_shared_head_consistency(record_property, default_runs):
    # ratio >= 2, spread <= 0.03
    entry = judged(record_property, default_runs, "c10")
    assert entry["votes"]["0-2"]["majority"], entry["seeds"]


def test_c11_nbs_sweep_directions(record_property, default_runs):
    # train errors non-increasing in nbs, flip > 0
    entry = judged(record_property, default_runs, "c11")
    assert entry["votes"]["0-2"]["majority"], entry["seeds"]


def test_c12_domain_adaptation_direction(record_property, default_runs):
    # helps > 0, coincide <= 0.02
    entry = judged(record_property, default_runs, "c12")
    assert entry["votes"]["0-2"]["majority"], entry["seeds"]


def test_default_artifacts_match_the_manifest(default_runs, capsys):
    """The 72 files of the session's default runs are the bits that
    ``tools/artifacts.sha256`` records; on another stack the tool's report
    of the difference is the skip reason."""
    out, _ = default_runs
    moved = artifacts_tool.check_manifest(out, MANIFEST)
    report = capsys.readouterr().out.strip()
    if artifacts_tool.read_manifest(MANIFEST)[0] != artifacts_tool.stack():
        pytest.skip(report)
    assert moved == 0, report


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
    ema = layer.ema
    before = (layer.ema.mean.tobytes(), layer.ema.var.tobytes())
    with pytest.raises(EmptyBatch):
        layer.forward(np.zeros((0, 1, 1, 3)), mode=BnMode.TRAIN_MINIBATCH)
    after = (layer.ema.mean.tobytes(), layer.ema.var.tobytes())
    assert before == after
    assert layer.ema is ema
