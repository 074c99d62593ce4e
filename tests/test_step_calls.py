"""A guard on the Python calls one training step makes: the training
loop's cost is interpreter dispatch, so a change that adds calls per step
shows here before any timing does.  Every training path a benchmark
workload runs has a case: ``sgd_step`` with no plan, with many ghost
cohorts, with one cohort of a plan, with shuffled cohorts and with every BN
layer frozen, and ``SharedHeadNet.train_step``.  A last case guards the
calls of encoding a run's parameter checkpoint."""

import cProfile
import platform

import numpy as np
import pytest

from bnlab import io
from bnlab.batching import NormBatchPlan
from bnlab.net import Momentum, SgdConfig, sgd_step
from bnlab.precise import precise_bn
from bnlab.scenarios import (
    EMA_VS_PRECISE_DEFAULTS,
    NBS_SWEEP_DEFAULTS,
    SHARED_HEAD_DEFAULTS,
    ScenarioRun,
    SharedHeadNet,
    build_net,
)

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
# a1b56d5 too, where freeze() installed the statistics in each layer.
CALLS_PER_STEP = {
    "ema_vs_precise": 104,
    "nbs_sweep_ghost2": 121,
    "nbs_sweep_ghost8": 121,
    "nbs_sweep_ghost32": 109,
    "nbs_sweep_shuffle16": 126,
    "nbs_sweep_frozen_ghost2": 95,
    "shared_head_shared": 49,
    "shared_head_per_domain": 57,
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


@pytest.mark.parametrize("name, setup", [
    ("ema_vs_precise", _ema_vs_precise),
    ("nbs_sweep_ghost2", _nbs_sweep_ghost2),
    ("nbs_sweep_ghost8", _nbs_sweep_ghost8),
    ("nbs_sweep_ghost32", _nbs_sweep_ghost32),
    ("nbs_sweep_shuffle16", _nbs_sweep_shuffle16),
    ("nbs_sweep_frozen_ghost2", _nbs_sweep_frozen_ghost2),
    ("shared_head_shared", _shared_head_shared),
    ("shared_head_per_domain", _shared_head_per_domain),
])
def test_python_calls_per_sgd_step(name, setup):
    step, args = setup()
    # the first step builds the optimizer state and the EMA decay column
    step(*args)
    profile = cProfile.Profile()
    profile.enable()
    for _ in range(STEPS):
        step(*args)
    profile.disable()
    per_step = _calls(profile) / STEPS
    _check(f"{name}: Python calls per training step", per_step,
           CALLS_PER_STEP[name] + SLACK)


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


# Calls to encode ema_vs_precise's params.json payload (7,568 floats): 183
# on MEASURED_ON.  Until the encoder ran each list of numbers as one C call
# it made 60,951, a Python call per number and more.
PARAMS_ENCODE_CALLS = 300


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
           PARAMS_ENCODE_CALLS)
