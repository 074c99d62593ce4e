"""A guard on the Python calls one training step makes: the training
loop's cost is interpreter dispatch, so a change that adds calls per step
shows here before any timing does.  Every training path a benchmark
workload runs has a case: ``sgd_step`` with no plan, with many ghost
cohorts, with one cohort of a plan, with shuffled cohorts and with every BN
layer frozen, and ``SharedHeadNet.train_step``; and ``sgd_step`` on the
``Network`` that is to replace ``SharedHeadNet``, in each of its arms.
Forward-only passes have their own cases: population-mode
``classification_error``, ``precise_bn`` and ``precise_bn_layerwise``.  One
case guards the draw of a slab of ``shared_head``'s training stream, and
the last two the calls of encoding a run's parameter checkpoint and of
writing its ``metrics.csv``."""

import cProfile
import functools
import platform

import numpy as np
import pytest

from bnlab import io
from bnlab.batching import NormBatchPlan
from bnlab.net import Affine, Momentum, SgdConfig, classification_error, sgd_step
from bnlab.precise import precise_bn, precise_bn_layerwise
from bnlab.scenarios import (
    EMA_VS_PRECISE_DEFAULTS,
    NBS_SWEEP_DEFAULTS,
    SHARED_HEAD_DEFAULTS,
    ScenarioRun,
    SharedHeadNet,
    build_net,
    shared_head_data,
)
from bnlab.synthetic import SLAB_STEPS

STEPS = 20

# the stack the counts below were measured on
MEASURED_ON = "Python 3.11.7, numpy 2.4.6"

# Calls per step, summed from cProfile's getstats() as perfbench sums
# py_calls, measured on MEASURED_ON (other versions run other numbers of
# numpy's own Python frames); the bound is SLACK calls above them.  Until
# 53dd830 the bound was 10% above them, wide enough that reverting the
# layer-role change (118 calls against a bound of 118.8) still passed.
# At b3edb90, before the BN forward centred each batch once and the layers
# stopped re-checking their inputs, the first two cases read 253 and 279.
# At 5a50eed, before a one-cohort step ran the plain batch and gradients
# went into the optimizer buffer without a helper frame, the cases read
# 185, 194, 194 (ghost 32), 76 (shared head, shared) and 73 (per domain).
# At 050dc11, before Network fixed its layer roles at build instead of
# testing each layer's type per pass, the first three read 118, 152, 128.
# At 77ee4a3, before a cohort became a view inside BnLayer and ghost and
# shuffle steps ran the flat batch, ghost 2, ghost 8, ghost 32 and shuffle
# 16 read 141, 141, 117 and 142.  At 801565d, before shared_head ran its
# domains as row blocks of a flat batch and the layers and the loss lost
# their stacked-input branches, the cases read 108, 125, 125, 113, 130, 66
# (shared head, shared) and 63 (per domain).  The frozen case read 95 at
# a1b56d5 too, where freeze() installed the statistics in each layer.  At
# 94f9be7, before a Network pass filled a preallocated cache list, checked
# its caches' single use inline and stopped re-wrapping float64 arrays,
# and ChannelStats and EmaState were built in one frame, the cases read
# 104, 121, 121, 109, 126, 95, 49 and 57, and the three Network arms 66,
# 72 and 76.  At 0d6b61b, before the cohort view moved into
# batch_stats_forward, the two shared head cases read 46 and 54.
CALLS_PER_STEP = {
    "ema_vs_precise": 81,
    "nbs_sweep_ghost2": 97,
    "nbs_sweep_ghost8": 97,
    "nbs_sweep_ghost32": 85,
    "nbs_sweep_shuffle16": 102,
    "nbs_sweep_frozen_ghost2": 67,
    "shared_head_shared": 45,
    "shared_head_per_domain": 53,
    "shared_head_network_shared": 50,
    "shared_head_network_domain_stats": 56,
    "shared_head_network_domain_stats_affine": 60,
}
SLACK = 2


def _sgd(net, shape, classes, plan):
    """sgd_step and its arguments on a fixed random batch of ``shape``."""
    rng = np.random.default_rng(1)
    x, labels = rng.standard_normal(shape), rng.integers(0, classes, shape[0])
    cfg = SgdConfig(lr=0.05, steps=STEPS + 1, batch_size=shape[0])
    # no warmup: the step index does not change the step
    return sgd_step, (net, x, labels, cfg, 1, plan, np.random.default_rng(0),
                      Momentum(net.layers))


def _ema_vs_precise():
    d = EMA_VS_PRECISE_DEFAULTS
    net = build_net(np.random.default_rng(3), [d["dim"], *d["hidden"], d["classes"]],
                    ema_momentum=d["ema_momentum"])
    return _sgd(net, (32, d["dim"], 1, 1), d["classes"], None)


def _nbs_sweep(sub_batch, strategy="ghost"):
    d = NBS_SWEEP_DEFAULTS
    net = build_net(np.random.default_rng(3),
                    [d["channels"], *d["hidden"], d["classes"]], pool=True)
    return _sgd(net, (32, d["channels"], 2, 2), d["classes"],
                NormBatchPlan(strategy, sub_batch))


def _nbs_sweep_ghost2():
    return _nbs_sweep(2)


def _nbs_sweep_ghost8():
    return _nbs_sweep(8)


def _nbs_sweep_ghost32():
    # one cohort: the plain batch
    return _nbs_sweep(32)


def _nbs_sweep_shuffle16():
    # leakage's shuffle_fix path: two shuffled halves of the batch
    return _nbs_sweep(16, "shuffle")


def _nbs_sweep_frozen_ghost2():
    # frozen_finetune's second phase: every BN layer normalizes by fixed
    # statistics, estimated at the cohort size, under a ghost plan of 2
    step, args = _nbs_sweep(2)
    net, x = args[:2]
    return step, (*args, precise_bn(net, x, 2))


def _shared_head(per_domain):
    d = SHARED_HEAD_DEFAULTS
    domains = len(d["domains"])
    # per domain: each domain's rows a cohort, and an affine block per domain
    net = SharedHeadNet(np.random.default_rng(3), d["dim"], d["hidden"],
                        d["classes"],
                        cohort=d["domain_batch"] if per_domain else None,
                        affine_blocks=domains if per_domain else None,
                        eps=d["eps"])
    rng = np.random.default_rng(1)
    rows = domains * d["domain_batch"]  # the domains' row blocks
    x = rng.standard_normal((rows, d["dim"], 1, 1))
    y = rng.integers(0, d["classes"], rows)
    return net.train_step, (x, y, d["lr"], d["sgd_momentum"])


def _shared_head_shared():
    return _shared_head(False)


def _shared_head_per_domain():
    return _shared_head(True)


def _shared_head_network(sgd_stats, affine):
    # shared_head's net as a Network: per-domain SGD statistics are a ghost
    # plan of one domain's rows, a per-domain affine a (domains, hidden) one
    d = SHARED_HEAD_DEFAULTS
    domains, hidden = len(d["domains"]), d["hidden"]
    net = build_net(np.random.default_rng(3), [d["dim"], hidden, d["classes"]],
                    bn_blocks=1)
    if affine == "per_domain":
        net.layers[2] = Affine(np.ones((domains, hidden)),
                               np.zeros((domains, hidden)))
    plan = (NormBatchPlan("ghost", d["domain_batch"])
            if sgd_stats == "per_domain" else None)
    return _sgd(net, (domains * d["domain_batch"], d["dim"], 1, 1),
                d["classes"], plan)


def _shared_head_network_shared():
    return _shared_head_network("shared", "shared")


def _shared_head_network_domain_stats():
    return _shared_head_network("per_domain", "shared")


def _shared_head_network_domain_stats_affine():
    return _shared_head_network("per_domain", "per_domain")


@pytest.mark.parametrize("name, setup", [
    ("ema_vs_precise", _ema_vs_precise),
    ("nbs_sweep_ghost2", _nbs_sweep_ghost2),
    ("nbs_sweep_ghost8", _nbs_sweep_ghost8),
    ("nbs_sweep_ghost32", _nbs_sweep_ghost32),
    ("nbs_sweep_shuffle16", _nbs_sweep_shuffle16),
    ("nbs_sweep_frozen_ghost2", _nbs_sweep_frozen_ghost2),
    ("shared_head_shared", _shared_head_shared),
    ("shared_head_per_domain", _shared_head_per_domain),
    ("shared_head_network_shared", _shared_head_network_shared),
    ("shared_head_network_domain_stats", _shared_head_network_domain_stats),
    ("shared_head_network_domain_stats_affine",
     _shared_head_network_domain_stats_affine),
])
def test_python_calls_per_sgd_step(name, setup):
    step, args = setup()
    _check(f"{name}: Python calls per training step",
           _calls_per_call(step, args), CALLS_PER_STEP[name] + SLACK)


# Calls per forward-only pass of the ema_vs_precise net over 1,024 rows
# (four chunks), on MEASURED_ON.  At 94f9be7 they read 241, 209 and 303.
# At 1aaf211, before the precise passes ended at their deepest BN layer and
# folded each chunk's moments as they came, precise_bn32 read 249 and
# precise_bn_layerwise32 407.  At dfdfb86, before a population forward read
# the EMA as it is instead of copying it out per pass, error_by_ema read 157.
# At 7f222d3, before a moment fold took one input method and kept no
# channel count or 1-wide log, precise_bn32 read 217 and
# precise_bn_layerwise32 279.
CALLS_PER_PASS = {
    "error_by_ema": 125,
    "error_given_stats": 133,
    "precise_bn32": 213,
    "precise_bn_layerwise32": 275,
}


def _ema_vs_precise_pass(name):
    d = EMA_VS_PRECISE_DEFAULTS
    net = build_net(np.random.default_rng(3), [d["dim"], *d["hidden"], d["classes"]],
                    ema_momentum=d["ema_momentum"])
    rng = np.random.default_rng(1)
    x = rng.standard_normal((1024, d["dim"], 1, 1))
    labels = rng.integers(0, d["classes"], 1024)
    if name == "precise_bn32":
        return precise_bn, (net, x, 32)
    if name == "precise_bn_layerwise32":
        return precise_bn_layerwise, (net, x, 32)
    stats = precise_bn(net, x, 32) if name == "error_given_stats" else None
    return functools.partial(classification_error, stats=stats), (net, x, labels)


@pytest.mark.parametrize("name", sorted(CALLS_PER_PASS))
def test_python_calls_per_forward_only_pass(name):
    run, args = _ema_vs_precise_pass(name)
    _check(f"{name}: Python calls per pass", _calls_per_call(run, args),
           CALLS_PER_PASS[name] + SLACK)


# Calls to draw one SLAB_STEPS = 50-step slab of shared_head's training
# stream at its defaults, from a fresh generator (one MultiScaleDomains.batches
# call, its 51 generator frames included), on MEASURED_ON.  At 382a32d, with
# two rng calls per step and domain from one generator, it read 1,125.
CALLS_PER_SLAB = {"shared_head_slab": 130}


def test_python_calls_per_training_slab():
    d = SHARED_HEAD_DEFAULTS
    domains = shared_head_data(d, 0)[0]

    def draw():
        rng = np.random.default_rng(10)
        return list(domains.batches(rng, SLAB_STEPS, d["domain_batch"]))

    assert len(draw()) == SLAB_STEPS == 50
    _check("shared_head_slab: Python calls per slab", _calls_per_call(draw, ()),
           CALLS_PER_SLAB["shared_head_slab"] + SLACK)


def _calls_per_call(fn, args):
    """Python calls per ``fn(*args)`` over STEPS calls, after a first that
    builds the optimizer state and the EMA decay column."""
    fn(*args)
    profile = cProfile.Profile()
    profile.enable()
    for _ in range(STEPS):
        fn(*args)
    profile.disable()
    return _calls(profile) / STEPS


def _calls(profile):
    """Python calls as perfbench sums py_calls."""
    return sum(entry.callcount for entry in profile.getstats())


def _check(what, count, bound):
    stack = (f"Python {platform.python_version()}, "
             f"numpy {np.__version__}")
    assert count <= bound, (
        f"{what}: {count}, bound "
        f"{bound}; pinned on {MEASURED_ON}, run on "
        f"{stack}" + ("" if stack == MEASURED_ON else
                      ": a different stack, so the count may differ "
                      "without a regression"))


# Calls to encode ema_vs_precise's params.json payload (7,568 floats): 9 on
# MEASURED_ON, one json.dumps call in the C encoder.  At 7244e77, which
# walked the containers in Python for an indented layout and ran each list
# of numbers as one C call, it made 183; before that, 60,951, a Python call
# per number and more.
PARAMS_ENCODE_CALLS = 9


def test_python_calls_to_encode_a_params_checkpoint():
    _, (net, *_) = _ema_vs_precise()
    run = ScenarioRun("ema_vs_precise")
    run.checkpoint(net)
    payload = run.params_checkpoint
    assert sum(map(len, (v for p in payload.values() for v in p.values()))) >= 7000
    io.encode_json("params.json", payload)
    profile = cProfile.Profile()
    profile.enable()
    io.encode_json("params.json", payload)
    profile.disable()
    _check("params.json: Python calls to encode it", _calls(profile),
           PARAMS_ENCODE_CALLS + SLACK)


# Calls to write a metrics.csv of 20 or of 200 rows, the temp file and its
# rename included: 112 on MEASURED_ON for either, since csv.writer takes the
# rows as they are.  At 7244e77, which formatted each value in Python, 20
# rows made 451 calls and 200 rows 3,511.
METRICS_WRITE_CALLS = 112


def test_python_calls_to_write_metrics_do_not_grow_with_rows(tmp_path):
    path = str(tmp_path / "metrics.csv")
    io.write_metrics_csv(path, [])  # the first write imports and caches
    counts = []
    for n in (20, 200):
        rows = [("r", "s", i, "val", "ema", "error", i / 7) for i in range(n)]
        profile = cProfile.Profile()
        profile.enable()
        io.write_metrics_csv(path, rows)
        profile.disable()
        counts.append(_calls(profile))
        _check(f"metrics.csv of {n} rows: Python calls to write it",
               counts[-1], METRICS_WRITE_CALLS + SLACK)
    assert abs(counts[1] - counts[0]) <= SLACK, counts
