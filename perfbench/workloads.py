"""The benchmark's workloads: the scenario one run drives at its default
config, how many consecutive seeds make one run, and which layer boundaries
a traced run must enter (``expected``) and must not enter (``bypassed``).

Why these three (see README.md for the full table):

- ghost_train (nbs_sweep): ghost cohorts of 2/8/32 in a 32-sample SGD batch
  make ``net.sgd_step`` nearly the whole run; the per-cohort forward loop
  is where cohort vectorization shows.
- precise_eval (ema_vs_precise): a single cohort per step (G=1) and about
  half the time in forward-only precise-BN passes and population-mode eval.
  One default run is ~0.4 s, so eight seeds make one run.
- shared_head (shared_head): its own SharedHeadNet loop that never enters
  ``sgd_step``, ``batching``, ``BnLayer`` or ``precise``; the bypass
  workload for changes to that path.
"""

from dataclasses import dataclass

# one untimed run of this scenario warms numpy and the BLAS thread pool up
# before anything is timed (the first run in a process is ~2x slower)
WARMUP_SCENARIO = "ema_vs_precise"

_SHARED_HEAD_NET = (
    "scenarios.SharedHeadNet.forward_train",
    "scenarios.SharedHeadNet.backward_train",
    "scenarios.SharedHeadNet.train_population_stats",
    "scenarios.SharedHeadNet.eval_error",
)
_LAYERS = (
    "net.Linear.forward",
    "net.Linear.backward",
    "net.Affine.forward",
    "net.Affine.backward",
    "net.Relu.forward",
    "net.Relu.backward",
)
_GLUE = ("synthetic.sample", "scenarios.run", "io.config", "io.write")
_NETWORK_TRAINING = _LAYERS + _GLUE + (
    "net.train",
    "net.sgd_step",
    "net.Network.forward",
    "net.Network.backward",
    "net.classification_error",
    "net.softmax_cross_entropy",
    "layer.BnLayer.forward.train_minibatch",
    "layer.BnLayer.forward.eval_population",
    "layer.BnLayer.backward",
    "tensor.channel_moments",
    "tensor.normalize",
    "stats.ema_update",
    "stats.aggregate_moment_matching",
    "precise.precise_bn",
)


@dataclass(frozen=True)
class Workload:
    scenario: str
    seeds_per_run: int
    expected: tuple
    bypassed: tuple

    def seeds(self, seed):
        return range(seed, seed + self.seeds_per_run)


WORKLOADS = {
    "ghost_train": Workload(
        scenario="nbs_sweep",
        seeds_per_run=1,
        expected=_NETWORK_TRAINING + (
            "net.MeanPool.forward",
            "net.MeanPool.backward",
            "layer.BnLayer.forward.eval_minibatch",
            "batching.cohort_indices",
        ),
        bypassed=_SHARED_HEAD_NET,
    ),
    "precise_eval": Workload(
        scenario="ema_vs_precise",
        seeds_per_run=8,
        expected=_NETWORK_TRAINING,
        bypassed=_SHARED_HEAD_NET,
    ),
    "shared_head": Workload(
        scenario="shared_head",
        seeds_per_run=1,
        expected=_SHARED_HEAD_NET + _LAYERS + _GLUE + (
            "net.softmax_cross_entropy",
            "tensor.channel_moments",
            "tensor.normalize",
        ),
        bypassed=(
            "net.train",
            "net.sgd_step",
            "batching.cohort_indices",
            "layer.BnLayer.forward.train_minibatch",
            "layer.BnLayer.forward.eval_population",
            "layer.BnLayer.forward.eval_minibatch",
            "layer.BnLayer.backward",
            "precise.precise_bn",
        ),
    ),
}
