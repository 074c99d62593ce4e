"""A guard on the Python calls one SGD step makes: the training loop's cost
is interpreter dispatch, so a change that adds calls per step shows here
before any timing does."""

import cProfile

import numpy as np
import pytest

from bnlab.batching import NormBatchPlan
from bnlab.net import Momentum, SgdConfig, sgd_step
from bnlab.scenarios import EMA_VS_PRECISE_DEFAULTS, NBS_SWEEP_DEFAULTS, build_net

STEPS = 20

# Calls per step, summed from cProfile's getstats() as perfbench sums
# py_calls, measured with Python 3.11.7 and numpy 2.4.6 (other versions run
# other numbers of numpy's own Python frames); the bound is 10% above them.
# At b3edb90, before the BN forward centred each batch once and the layers
# stopped re-checking their inputs, this test read 253 and 279.
CALLS_PER_STEP = {"ema_vs_precise": 185, "nbs_sweep_ghost2": 194}


def _ema_vs_precise():
    d = EMA_VS_PRECISE_DEFAULTS
    net = build_net(np.random.default_rng(3), [d["dim"], *d["hidden"], d["classes"]],
                    ema_momentum=d["ema_momentum"])
    return net, (32, d["dim"], 1, 1), d["classes"], None


def _nbs_sweep_ghost2():
    d = NBS_SWEEP_DEFAULTS
    net = build_net(np.random.default_rng(3),
                    [d["channels"], *d["hidden"], d["classes"]], pool=True)
    return net, (32, d["channels"], 2, 2), d["classes"], NormBatchPlan("ghost", 2)


@pytest.mark.parametrize("name, setup", [("ema_vs_precise", _ema_vs_precise),
                                         ("nbs_sweep_ghost2", _nbs_sweep_ghost2)])
def test_python_calls_per_sgd_step(name, setup):
    net, shape, classes, plan = setup()
    rng = np.random.default_rng(1)
    x, labels = rng.standard_normal(shape), rng.integers(0, classes, shape[0])
    cfg = SgdConfig(lr=0.05, steps=STEPS + 1, batch_size=shape[0])
    optimizer = Momentum(net.layers)
    plan_rng = np.random.default_rng(0)
    # the first step allocates the velocity and builds the EMA decay column
    sgd_step(net, x, labels, cfg, 0, plan, plan_rng, optimizer)
    profile = cProfile.Profile()
    profile.enable()
    for step in range(1, STEPS + 1):
        sgd_step(net, x, labels, cfg, step, plan, plan_rng, optimizer)
    profile.disable()
    per_step = sum(entry.callcount for entry in profile.getstats()) / STEPS
    assert per_step <= 1.1 * CALLS_PER_STEP[name], \
        f"{name}: {per_step} Python calls per sgd_step"
