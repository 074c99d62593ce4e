"""Scenario runners reproducing the qualitative normalization phenomena at
desk scale on synthetic data.

Each experiment is a choice of three "batches": the batch that normalizes
in training (the ``NormBatchPlan`` given to ``train``), the batch that gives
the population statistics (``precise_bn``'s mini-batches, or each layer's
EMA), and the batch that normalizes at test time (``classification_error``
by population statistics, or by each cohort of a plan).  The runners share
one helper per step: ``draw`` the data, train on ``uniform_batches`` with
``sgd_config``, measure with ``precise_bn`` and ``classification_error``,
and record with ``ScenarioRun.log`` and ``ScenarioRun.checkpoint``.

Every runner is deterministic under a fixed seed and returns a ScenarioRun
holding the metric rows (run_id, scenario, step, split, stats_mode, metric,
value), a summary dict, and checkpoint payloads.
"""

import copy
import os
import pickle
import sys
from dataclasses import dataclass, field

import numpy as np

from . import blas_threads
from .batching import NormBatchPlan
from .errors import BnLabError, DegenerateBatch, InvalidParams, ShapeMismatch
from .io import ConfigTable
from .layer import BnLayer, batch_stats_backward, batch_stats_forward
from .net import (
    LOSS_BOUND,
    Affine,
    Linear,
    MeanPool,
    Momentum,
    Network,
    Relu,
    SgdConfig,
    classification_error,
    diverged,
    softmax_cross_entropy,
    train,
)
from .precise import precise_bn
from .synthetic import (
    Corruption,
    GaussianClasses,
    GroupedBatchSampler,
    MixingCorruption,
    MultiScaleDomains,
    SpatialGaussianClasses,
    make_clustered_data,
)
from .tensor import channel_moments, normalize

__all__ = ["ScenarioRun", "SCENARIOS", "RULES"]


@dataclass
class ScenarioRun:
    scenario: str
    rows: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    stats_checkpoint: dict = field(default_factory=dict)
    params_checkpoint: dict = field(default_factory=dict)

    def log(self, run_id, step, split, stats_mode, metric, value, key=()):
        """Append one metric row; a non-empty ``key`` also stores ``value``
        in the summary at that path of nested dicts."""
        self.rows.append(
            (run_id, self.scenario, int(step), split, stats_mode, metric, float(value))
        )
        if key:
            node = self.summary
            for k in key[:-1]:
                node = node.setdefault(k, {})
            node[key[-1]] = value

    def checkpoint(self, net, stats=None, source="precise"):
        """Snapshot every parameter and every BN layer's statistics: the
        ``stats[i]`` given for layer ``i``, labelled ``source``, else its
        EMA.  The net is left as it was."""
        self.stats_checkpoint, self.params_checkpoint = {}, {}
        for i, (name, layer) in enumerate(zip(net.layer_names(), net.layers)):
            if isinstance(layer, BnLayer):
                src, s = ((source, stats[i]) if i in (stats or {})
                          else ("ema", layer.ema))
                self.stats_checkpoint[name] = {
                    "mean": list(s.mean),
                    "var": list(s.var),
                    "count": int(s.count),
                    "source": src,
                }
            elif isinstance(layer, (Linear, Affine)):
                self.params_checkpoint[name] = {
                    k: np.asarray(getattr(layer, k)).reshape(-1).tolist()
                    for k in layer.param_names
                }

    def merge(self, arms):
        """Append each arm's rows and summary entries in turn; the last arm
        that took a checkpoint gives this run's.  Returns the run."""
        for arm in arms:
            self.rows += arm.rows
            self.summary.update(arm.summary)
            if arm.params_checkpoint:
                self.stats_checkpoint = arm.stats_checkpoint
                self.params_checkpoint = arm.params_checkpoint
        return self


_in_fan_out = False  # set while this process, or the one it forked from, runs items


def fan_out(fn, items):
    """``[fn(item) for item in items]`` over k processes: this one runs
    ``items[0::k]`` and a bare ``os.fork`` worker each ``items[j::k]``,
    sending one pickle down its own pipe.  At one BLAS thread per process
    (``blas_threads``) and two or more usable cores, k = min(len(items),
    4 x cores), time-sliced by the kernel: n equal items end after about
    n / cores item times; at t >= 2 threads, k = min(len(items), cores // t).
    A call made inside an item runs serially, as does k < 2.  The first
    failing item's exception is raised, as serially; a worker that sends no
    result is a BnLabError naming its first item and its exit code."""
    global _in_fan_out
    items, workers = list(items), []
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    threads = blas_threads()
    k = 4 * cores if threads == 1 and cores >= 2 else cores // threads
    k = 1 if _in_fan_out or not hasattr(os, "fork") else max(1, min(len(items), k))

    def share(j):  # (result, None) per item, up to the first that raises
        out = []
        for item in items[j::k]:
            try:
                out.append((fn(item), None))
            except Exception as exc:
                return out + [(None, exc)]
        return out

    nested, _in_fan_out = _in_fan_out, True  # a worker inherits the flag
    print(end="", flush=True)  # else each worker prints this one's buffer again
    try:
        for j in range(1, k):
            receive, send = os.pipe()
            if (pid := os.fork()) == 0:  # the worker, which never returns
                try:  # pickled whole first, so a failed pickle writes nothing
                    with open(send, "wb") as pipe:
                        pipe.write(pickle.dumps(share(j), pickle.HIGHEST_PROTOCOL))
                    print(end="", flush=True)
                    os._exit(0)
                except Exception:
                    sys.excepthook(*sys.exc_info())
                    print(end="", flush=True)
                finally:
                    os._exit(1)
            os.close(send)
            workers.append((pid, open(receive, "rb")))
        shares = [share(0)] + [pipe.read() for _, pipe in workers]
    except BaseException:
        import signal  # only here, where the workers are ended early
        for pid, _ in workers:
            os.kill(pid, signal.SIGTERM)
        raise
    finally:  # every worker has ended before this returns or raises
        _in_fan_out = nested
        for _, pipe in workers:
            pipe.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(p, 0)[1]) for p, _ in workers]
    for j in range(1, k):
        try:
            shares[j] = pickle.loads(shares[j])
        except (EOFError, pickle.UnpicklingError):  # empty, or cut short
            shares[j] = [(None, BnLabError(
                f"fan_out item {j} ({items[j]!r}) ended without a result: "
                f"its worker exited with code {codes[j - 1]}"))]
    # in item order, a share's failure comes before the items it left out
    for i in range(len(items)):
        items[i], error = shares[i % k][i // k]
        if error is not None:
            raise error
    return items


def build_net(rng, dims, ema_momentum=0.9, pool=False, bn_blocks=None):
    """Linear -> BN -> Affine -> Relu blocks, past the first ``bn_blocks``
    (None: all) Linear -> Relu, and a final Linear classifier; ``pool``
    inserts a global spatial average before the classifier."""
    layers = []
    for i in range(len(dims) - 2):
        layers.append(Linear.init(rng, dims[i], dims[i + 1]))
        if bn_blocks is None or i < bn_blocks:
            layers.append(BnLayer(dims[i + 1], momentum=ema_momentum))
            layers.append(Affine.identity(dims[i + 1]))
        layers.append(Relu())
    if pool:
        layers.append(MeanPool())
    layers.append(Linear.init(rng, dims[-2], dims[-1]))
    return Network(layers)


def _seed(base, k):
    # independent deterministic streams per sub-run
    return int(np.random.SeedSequence([base, k]).generate_state(1)[0])


def _gaussian_task(cfg, seed):
    return GaussianClasses(cfg["classes"], cfg["dim"], cfg["separation"],
                           cfg["noise"], seed=_seed(seed, 1))


def _spatial_task(cfg, seed):
    return SpatialGaussianClasses(
        cfg["classes"], cfg["channels"], cfg["sites"], cfg["separation"],
        cfg["noise"], cfg["gain"], cfg["offset"], seed=_seed(seed, 1)
    )


def draw(task, seed, *sizes):
    """An (x, labels) sample of each size in turn, all from the seed's data
    stream."""
    rng = np.random.default_rng(_seed(seed, 2))
    return [task.sample(rng, n) for n in sizes]


def sgd_config(cfg, seed, k, **overrides):
    """Momentum SGD from the cfg's lr, steps, batch_size and sgd_momentum,
    seeded by stream k; ``overrides`` replace any of them."""
    fields = {"lr": cfg["lr"], "steps": cfg["steps"],
              "batch_size": cfg.get("batch_size"), "momentum": cfg["sgd_momentum"]}
    return SgdConfig(**{**fields, **overrides}, seed=_seed(seed, k))


# a precise-BN pass's mini-batch rows, where a runner names no size
PRECISE_BATCH = 32


def uniform_batches(x, y):
    """A ``train`` batch function drawing each batch's rows uniformly, with
    replacement."""

    def sample(rng, size):
        idx = rng.integers(0, x.shape[0], size=size)
        return x[idx], y[idx]

    return sample


SHARED, PER_DOMAIN = "shared", "per_domain"  # a shared_head policy row's choices

# The cross-key config rules (see io.validate_config); a rule holds in each
# scenario whose table has all of the keys it reads.
RULES = [
    (("policies",), lambda policy, cfg: len(policy) != 3 or not all(
        p in (SHARED, PER_DOMAIN) for p in policy),
     "{at} must be three of 'shared', 'per_domain'"),
    # a spec's noise is a standard deviation, as the top-level noise is
    (("corruptions",), lambda spec, cfg: spec["noise"] < 0, "{at}.noise must be >= 0"),
    (("domains",), lambda spec, cfg: spec["noise"] < 0, "{at}.noise must be >= 0"),
    # frozen_finetune trains in ghost cohorts of nbs rows, all of one size
    (("nbs", "batch_size"), lambda nbs, cfg: cfg["batch_size"] % nbs,
     "nbs must be a divisor of batch_size ({batch_size}), got {v}"),
    # nbs_sweep trains, and evaluates its train and val rows, in nbs cohorts
    (("nbs_list", "batch_size", "train_eval_size", "val_size"), lambda nbs, cfg: any(
        cfg[k] % nbs for k in ("batch_size", "train_eval_size", "val_size")),
     "{at} must be a divisor of batch_size, train_eval_size and val_size"),
    # a cohort of nbs samples holds nbs * sites activation rows; one row has
    # zero variance, so BN would put out 0 for it
    (("nbs", "sites"), lambda nbs, cfg: nbs * cfg["sites"] < 2,
     "nbs * sites must be >= 2 activation rows per cohort, got {v} * {sites}"),
    (("nbs_list", "sites"), lambda nbs, cfg: nbs * cfg["sites"] < 2,
     "{at} * sites must be >= 2 activation rows per cohort, got {v} * {sites}"),
    # leakage's shuffle_fix normalizes each half of a crafted batch, which an
    # odd batch would cut into two halves and a one-row rest
    (("groups_per_batch", "copies_per_group"), lambda g, cfg:
     g * cfg["copies_per_group"] % 2,
     "groups_per_batch * copies_per_group must be even, got {v} * "
     "{copies_per_group}"),
    # ema_vs_precise runs each (distinct) entry capped at precise_n: two at
    # or above it would rerun one pass and repeat its metrics.csv keys
    (("precise_b_sweep", "precise_n"), lambda b, cfg: b >= cfg["precise_n"]
     and b != next(e for e in cfg["precise_b_sweep"] if e >= cfg["precise_n"]),
     "{at} must be distinct from each entry before it once capped at precise_n "
     "({precise_n})"),
    # every cut of the training rows fits in them: train_eval_size and
    # precise_n rows from the front, and two disjoint subsets of each
    # subset_sizes entry.  leakage draws groups_per_batch distinct clusters
    # per batch, and its rows are its clusters' copies
    (("groups_per_batch", "train_clusters"), lambda g, cfg: g > cfg["train_clusters"],
     "groups_per_batch must be <= train_clusters ({train_clusters}), got {v}"),
    (("train_eval_size", "train_size"), lambda n, cfg: n > cfg["train_size"],
     "train_eval_size must be <= train_size ({train_size}), got {v}"),
    (("precise_n", "train_size"), lambda n, cfg: n > cfg["train_size"],
     "precise_n must be <= train_size ({train_size}), got {v}"),
    (("subset_sizes", "train_size"), lambda n, cfg: 2 * n > cfg["train_size"],
     "{at} must be at most half of train_size ({train_size}), got {v}"),
    (("precise_n", "train_clusters", "copies_per_group"),
     lambda n, cfg: n > cfg["train_clusters"] * cfg["copies_per_group"],
     "precise_n must be <= train_clusters * copies_per_group ({train_clusters} "
     "* {copies_per_group}), got {v}"),
]

# Each config key's default and range (see io.ConfigTable), in blocks that
# the scenarios' tables share, first the training keys of the Gaussian-task
# and spatial-task scenarios.  A sweep's entries are "distinct": a repeated
# one reruns an arm and repeats its metrics.csv keys.
_TRAINING = {
    "train_size": (4096, ">= 1"),
    "val_size": (1024, ">= 1"),
    "hidden": ([64, 64], ">= 1"),
    "lr": (0.05, "> 0"),
    "sgd_momentum": (0.9, ">= 0", "< 1"),
    # a batch, or one cohort of it, of one row has zero variance; so has
    # every precise mini-batch of a one-row population
    "batch_size": (32, ">= 2"),
    "precise_n": (1024, ">= 2"),
}
_GAUSSIAN_TASK = {
    "classes": (16, ">= 1"),
    "dim": (32, ">= 1"),
    "separation": (3.0, ">= 0"),
    "noise": (1.0, ">= 0"),
    **_TRAINING,
}
_SPATIAL_TASK = {
    "classes": (16, ">= 1"),
    "channels": (32, ">= 1"),
    "sites": (4, ">= 1"),
    "separation": (8.0, ">= 0"),
    "noise": (0.5, ">= 0"),
    "gain": (1.2, ">= 0"),
    "offset": (3.0, ">= 0"),
    **_TRAINING,
    "steps": (800, ">= 1"),
}


# ---------------------------------------------------------------------------
# EMA vs precise statistics
# ---------------------------------------------------------------------------

EMA_VS_PRECISE_DEFAULTS = ConfigTable({
    **_GAUSSIAN_TASK,
    "ema_momentum": (0.999, ">= 0", "< 1"),
    "steps": (300, ">= 1"),
    "eval_every": (50, ">= 1"),
    # a one-row precise mini-batch normalizes its row to 0
    "precise_b_sweep": ([2, 8, 32, 1024], ">= 2", "distinct"),
    # a one-row subset has zero variance: the stats gap of two would be 0/0
    "subset_sizes": ([32, 256, 2048], ">= 2", "distinct"),
}, RULES)


def run_ema_vs_precise(cfg, seed):
    run = ScenarioRun("ema_vs_precise")
    run_id = f"ema_vs_precise-s{seed}"
    (x_train, y_train), (x_val, y_val) = draw(
        _gaussian_task(cfg, seed), seed, cfg["train_size"], cfg["val_size"])
    n_pop = cfg["precise_n"]
    net = build_net(np.random.default_rng(_seed(seed, 3)),
                    [cfg["dim"], *cfg["hidden"], cfg["classes"]],
                    ema_momentum=cfg["ema_momentum"])
    run.summary = {"ema_curve": [], "precise_curve": []}
    # {batch size: (statistics, error)} of the latest precise pass; the last
    # eval point's serve the sweep and the checkpoint on the trained net
    precise = {}

    def precise_error(b):
        stats = precise_bn(net, x_train[:n_pop], b)
        precise[b] = stats, classification_error(net, x_val, y_val, stats=stats)
        return precise[b]

    def eval_point(step, net):
        if (step + 1) % cfg["eval_every"] and step + 1 != cfg["steps"]:
            return
        err_ema = classification_error(net, x_val, y_val)
        _, err_precise = precise_error(PRECISE_BATCH)
        run.log(run_id, step + 1, "val", "ema", "error", err_ema)
        run.log(run_id, step + 1, "val", "precise", "error", err_precise)
        run.summary["ema_curve"].append(err_ema)
        run.summary["precise_curve"].append(err_precise)

    train(net, uniform_batches(x_train, y_train), sgd_config(cfg, seed, 4),
          callback=eval_point)

    # validation error with statistics from precise passes at batch size B.
    # It stays flat in B at this scale, although deeper layers' estimates
    # drift further from the exact statistics as B shrinks.
    for b in cfg["precise_b_sweep"]:
        b_eff = min(b, n_pop)
        _, err = precise[b_eff] if b_eff in precise else precise_error(b_eff)
        run.log(run_id, cfg["steps"], "val", f"precise_b{b_eff}", "error", err,
                key=("precise_b_sweep", str(b_eff)))

    # estimation variance between disjoint subsets shrinks with N
    for n_sub in cfg["subset_sizes"]:
        s1 = precise_bn(net, x_train[:n_sub], PRECISE_BATCH)
        s2 = precise_bn(net, x_train[n_sub : 2 * n_sub], PRECISE_BATCH)
        gap = abs(classification_error(net, x_val, y_val, stats=s1)
                  - classification_error(net, x_val, y_val, stats=s2))
        # relative distance between the two estimates themselves
        dists = []
        for i in s1:
            a, b = s1[i], s2[i]
            pooled = a.var + b.var
            if not pooled.all():  # zero-variance data: each distance is 0/0
                raise DegenerateBatch(
                    f"subset_stats_gap at subset size {n_sub}: both estimates "
                    f"of {net.layer_names()[i]} have zero variance in channel "
                    f"{int(np.argmin(pooled))}; their relative distance is 0/0")
            dists.append(np.mean(np.abs(a.var - b.var) / pooled))
            dists.append(np.mean(np.abs(a.mean - b.mean) / np.sqrt(pooled / 2)))
        for metric, value in (("subset_error_gap", gap),
                              ("subset_stats_gap", float(np.mean(dists)))):
            run.log(run_id, cfg["steps"], "val", f"precise_n{n_sub}", metric,
                    value, key=(metric, str(n_sub)))

    run.checkpoint(net, precise[PRECISE_BATCH][0])
    return run


# ---------------------------------------------------------------------------
# Normalization-batch-size sweep
# ---------------------------------------------------------------------------

NBS_SWEEP_DEFAULTS = ConfigTable({
    **_SPATIAL_TASK,
    "nbs_list": ([2, 8, 32], ">= 1", "distinct"),
    "train_eval_size": (1024, ">= 1"),
}, RULES)


def run_nbs_sweep(cfg, seed):
    (x_train, y_train), (x_val, y_val) = draw(
        _spatial_task(cfg, seed), seed, cfg["train_size"], cfg["val_size"])
    batches = uniform_batches(x_train, y_train)
    n_tr = cfg["train_eval_size"]

    def arm(nbs):  # one training; the arms share only the data drawn above
        run = ScenarioRun("nbs_sweep")
        run_id = f"nbs_sweep-nbs{nbs}-s{seed}"
        net = build_net(np.random.default_rng(_seed(seed, 3)),
                        [cfg["channels"], *cfg["hidden"], cfg["classes"]],
                        pool=True)
        train(net, batches, sgd_config(cfg, seed, 4),
              plan=NormBatchPlan(strategy="ghost", sub_batch=nbs), what=f"nbs={nbs}")

        # each split normalized in shuffled mini-batches of nbs rows
        eval_plan = NormBatchPlan("shuffle", nbs)
        eval_rng = np.random.default_rng(_seed(seed, 5))
        err_train = classification_error(net, x_train[:n_tr], y_train[:n_tr],
                                         plan=eval_plan, rng=eval_rng)
        err_val_mb = classification_error(net, x_val, y_val, plan=eval_plan,
                                          rng=eval_rng)
        # population statistics estimated at the training cohort size, as an
        # EMA would be forced to; small cohorts distort deeper-layer stats
        stats = precise_bn(net, x_train[: cfg["precise_n"]], nbs)
        err_val_pop = classification_error(net, x_val, y_val, stats=stats)
        for split, mode, err in (("train", "minibatch", err_train),
                                 ("val", "minibatch", err_val_mb),
                                 ("val", "population", err_val_pop)):
            run.log(run_id, cfg["steps"], split, mode, "error", err,
                    key=(str(nbs), f"{split}_{mode}"))
        run.checkpoint(net, stats)  # the last nbs's is the run's
        return run

    return ScenarioRun("nbs_sweep").merge(fan_out(arm, cfg["nbs_list"]))


# ---------------------------------------------------------------------------
# FrozenBN fine-tuning
# ---------------------------------------------------------------------------

FROZEN_FINETUNE_DEFAULTS = ConfigTable({
    **_SPATIAL_TASK,
    "nbs": (2, ">= 1"),
    "freeze_fraction": (0.8, ">= 0", "<= 1"),
    "warmup_steps": (40, ">= 0"),
}, RULES)


def run_frozen_finetune(cfg, seed):
    run = ScenarioRun("frozen_finetune")
    run_id = f"frozen_finetune-s{seed}"
    (x_train, y_train), (x_val, y_val) = draw(
        _spatial_task(cfg, seed), seed, cfg["train_size"], cfg["val_size"])
    batches = uniform_batches(x_train, y_train)
    x_pop = x_train[: cfg["precise_n"]]
    plan = NormBatchPlan(strategy="ghost", sub_batch=cfg["nbs"])
    split_step = int(cfg["steps"] * cfg["freeze_fraction"])
    rest = cfg["steps"] - split_step
    net = build_net(np.random.default_rng(_seed(seed, 3)),
                    [cfg["channels"], *cfg["hidden"], cfg["classes"]],
                    pool=True)
    train(net, batches, sgd_config(cfg, seed, 4, steps=split_step), plan=plan,
          what="before the freeze")

    control = copy.deepcopy(net)
    train(control, batches, sgd_config(cfg, seed, 5, steps=rest), plan=plan,
          what="unfrozen control")
    # both arms estimate statistics at the training cohort size; the frozen
    # arm wins by adapting its weights to the frozen stats, not by getting a
    # better estimate
    err_control = classification_error(
        control, x_val, y_val, stats=precise_bn(control, x_pop, cfg["nbs"]))

    # every BN layer normalizes by these frozen statistics in training too;
    # the plan is irrelevant to stats
    snap = precise_bn(net, x_pop, cfg["nbs"])
    train(net, batches, sgd_config(cfg, seed, 5, steps=rest,
                                   warmup_steps=cfg["warmup_steps"]),
          plan=plan, stats=snap, what="frozen fine-tuning")
    # evaluated with the frozen statistics as its population statistics
    err_frozen = classification_error(net, x_val, y_val, stats=snap)

    run.log(run_id, cfg["steps"], "val", "frozen_finetune", "error", err_frozen,
            key=("frozen_finetune",))
    run.log(run_id, cfg["steps"], "val", "population", "error", err_control,
            key=("unfrozen_population",))
    run.checkpoint(net, snap, source="frozen")
    return run


# ---------------------------------------------------------------------------
# Domain adaptation of population statistics
# ---------------------------------------------------------------------------

DOMAIN_ADAPT_DEFAULTS = ConfigTable({
    **_GAUSSIAN_TASK,
    "adapt_size": (1024, ">= 2"),  # the target statistics' population, as precise_n
    "steps": (400, ">= 1"),
    "corruptions": {
        "none": {"scale": 1.0, "shift": 0.0, "noise": 0.0},
        "strong": {"scale": 0.2, "shift": 3.0, "noise": 0.5},
    },
}, RULES)


def run_domain_adapt(cfg, seed):
    run = ScenarioRun("domain_adapt")
    run_id = f"domain_adapt-s{seed}"
    (x_train, y_train), (x_val, y_val), (x_adapt, _) = draw(
        _gaussian_task(cfg, seed), seed, cfg["train_size"], cfg["val_size"],
        cfg["adapt_size"])
    net = build_net(np.random.default_rng(_seed(seed, 3)),
                    [cfg["dim"], *cfg["hidden"], cfg["classes"]])
    train(net, uniform_batches(x_train, y_train), sgd_config(cfg, seed, 4))
    source_stats = precise_bn(net, x_train[: cfg["precise_n"]], PRECISE_BATCH)

    corrupt_rng = np.random.default_rng(_seed(seed, 5))
    for name, spec in cfg["corruptions"].items():
        corr = Corruption(spec["scale"], spec["shift"], spec["noise"])
        xt_val = corr.apply(x_val, corrupt_rng)
        xt_adapt = corr.apply(x_adapt, corrupt_rng)
        for mode, stats in (("source_stats", source_stats),
                            ("target_stats", precise_bn(net, xt_adapt, PRECISE_BATCH))):
            err = classification_error(net, xt_val, y_val, stats=stats)
            run.log(run_id, cfg["steps"], f"val_{name}", mode, "error", err,
                    key=(name, mode))
    run.checkpoint(net, source_stats)
    return run


# ---------------------------------------------------------------------------
# Shared head across multi-scale domains
# ---------------------------------------------------------------------------

SHARED_HEAD_DEFAULTS = ConfigTable({
    "classes": (16, ">= 1"),
    "dim": (32, ">= 1"),
    "separation": (6.0, ">= 0"),
    "noise": (0.8, ">= 0"),
    "hidden": (128, ">= 1"),
    "domains": [
        {"scale": 1.0, "shift": 0.0, "noise": 0.0, "mix": False},
        {"scale": 2.0, "shift": 1.0, "noise": 0.0, "mix": True},
        {"scale": 0.5, "shift": -1.0, "noise": 0.0, "mix": True},
    ],
    "lr": (0.05, "> 0"),
    "sgd_momentum": (0.9, ">= 0", "< 1"),
    "steps": (1200, ">= 1"),
    "domain_batch": (16, ">= 2"),  # a per_domain cohort's rows
    "val_per_domain": (512, ">= 1"),
    "eps": (1e-5, "> 0"),
    "policies": [
        ["shared", "shared", "shared"],
        ["shared", "per_domain", "shared"],
        ["per_domain", "shared", "shared"],
        ["per_domain", "per_domain", "shared"],
        ["per_domain", "shared", "per_domain"],
        ["per_domain", "per_domain", "per_domain"],
    ],
}, RULES)


class SharedHeadNet:
    """One hidden head applied to every domain.  Every pass takes an
    (N, 1, 1, C) batch whose domains are equal, consecutive row blocks, and
    runs it through each layer at once.  As in ``Network``, each ``cohort``
    rows (None: all N) share SGD statistics, which
    ``layer.batch_stats_forward`` takes per cohort.  An affine of
    ``affine_blocks`` has (blocks, C) parameters, one row per row block;
    else (C,).  The first ``train_step`` puts the parameters into one
    ``Momentum`` buffer.
    """

    # the layer attributes holding parameters
    param_layers = ("l1", "affine", "l2")

    def __init__(self, rng, dim, hidden, classes, cohort=None,
                 affine_blocks=None, eps=1e-5):
        if eps <= 0:
            raise InvalidParams("eps must be positive")
        if cohort is not None and cohort < 1:
            raise InvalidParams(f"cohort must be at least 1, got {cohort}")
        self.cohort = cohort
        self.eps = eps
        self.l1 = Linear.init(rng, dim, hidden)
        self.l2 = Linear.init(rng, hidden, classes)
        shape = (hidden,) if affine_blocks is None else (affine_blocks, hidden)
        self.affine = Affine(np.ones(shape), np.zeros(shape))
        self.relu = Relu()
        self.optimizer = None

    def forward_train(self, x):
        """(N, K) logits of an (N, 1, 1, C) float64 batch and the caches
        ``backward_train`` reads, normalized by the moments of each
        ``cohort`` rows."""
        h, c1 = self.l1.forward(x)
        y, xhat, _, inv = batch_stats_forward(h, self.eps, self.cohort)
        a, ca = self.affine.forward(y)
        r, cr = self.relu.forward(a)
        logits, cl = self.l2.forward(r)
        return logits[:, 0, 0], {
            "l1": c1, "xhat": xhat, "inv": inv,
            "affine": ca, "relu": cr, "l2": cl,
        }

    def backward_train(self, caches, dlogits):
        """Parameter gradients, keyed by layer attribute in ``param_layers``
        order, of the loss whose (N, K) logits gradient is ``dlogits``."""
        dr, gl2 = self.l2.backward(caches["l2"], dlogits[:, None, None])
        da = self.relu.backward(caches["relu"], dr)[0]
        dxhat, gaff = self.affine.backward(caches["affine"], da)
        dh = batch_stats_backward(caches["xhat"], caches["inv"], dxhat)
        _, gl1 = self.l1.backward(caches["l1"], dh, input_grad=False)
        return {"l1": gl1, "affine": gaff, "l2": gl2}

    def train_step(self, x, y, lr, momentum):
        """One momentum-SGD step on an (N, 1, 1, C) batch of domain row
        blocks with (N,) labels; the loss is the mean cross-entropy over
        its N rows.  Returns that loss, as it was before the step."""
        if self.optimizer is None:
            self.optimizer = Momentum([getattr(self, name)
                                       for name in self.param_layers])
        logits, caches = self.forward_train(x)
        loss, dlogits = softmax_cross_entropy(logits, y)
        self.optimizer.step(self.backward_train(caches, dlogits).values(),
                            lr, momentum)
        return loss

    def train_population_stats(self, x, cohort=None):
        """The population statistics of an (N, 1, 1, C) batch of domain row
        blocks: (C,) over all N rows, or (G, C) with one row per ``cohort``
        rows.  Training never reads this choice, so one trained net serves
        both.  Raises InvalidParams on a cohort below 1 and ShapeMismatch
        on one that does not divide N."""
        if cohort is not None:
            if cohort < 1:
                raise InvalidParams(f"cohort must be at least 1, got {cohort}")
            if len(x) % cohort:
                raise ShapeMismatch(f"{len(x)} rows do not split into "
                                    f"cohorts of {cohort}")
        h, _ = self.l1.forward(x)
        return channel_moments(h if cohort is None
                               else h.reshape(-1, cohort, *h.shape[1:]))

    def eval_error(self, x, y, stats):
        """Top-1 error on an (N, 1, 1, C) batch of domain row blocks with
        (N,) labels, normalized by ``stats`` as ``train_population_stats``
        returns them: the number of blocks is read from their shape.  The
        pass keeps no caches: the normalization, affine and relu overwrite
        the first layer's output in place.  Raises ShapeMismatch when the
        statistics' blocks do not divide N."""
        blocks = stats.mean.shape[0] if stats.mean.ndim > 1 else 1
        if not blocks or len(x) % blocks:
            raise ShapeMismatch(f"{len(x)} rows do not split into {blocks} equal "
                                f"blocks for {stats.mean.shape} statistics")
        h = self.l1.forward(x)[0]
        view = h if stats.mean.ndim == 1 else h.reshape(blocks, -1, *h.shape[1:])
        normalize(view, stats, self.eps, out=view)
        self.affine.forward(h, out=h)
        self.relu.forward(h, out=h)
        logits = self.l2.forward(h)[0][:, 0, 0]
        return int((logits.argmax(axis=-1) != y).sum()) / y.size


def shared_head_data(cfg, seed):
    """The seed's domains and its validation and population batches:
    (domains, val_x, val_y, pop_x), each batch D row blocks of
    val_per_domain rows, in domain order."""
    transforms = []
    for d, spec in enumerate(cfg["domains"]):
        if spec["mix"]:
            transforms.append(MixingCorruption.random_rotation(
                cfg["dim"], np.random.default_rng(_seed(seed, 20 + d)),
                scale=spec["scale"], shift=spec["shift"], noise=spec["noise"],
            ))
        else:
            transforms.append(
                Corruption(spec["scale"], spec["shift"], spec["noise"])
            )
    domains = MultiScaleDomains(_gaussian_task(cfg, seed), transforms)
    data_rng = np.random.default_rng(_seed(seed, 2))
    val, pop = [], []
    for d in range(domains.n_domains):
        val.append(domains.sample_domain(data_rng, d, cfg["val_per_domain"]))
        pop.append(domains.sample_domain(data_rng, d, cfg["val_per_domain"])[0])
    val_x, val_y = (np.concatenate(a) for a in zip(*val))
    return domains, val_x, val_y, np.concatenate(pop)


def run_shared_head(cfg, seed):
    run = ScenarioRun("shared_head")
    domains, val_x, val_y, pop_x = shared_head_data(cfg, seed)
    policies = cfg["policies"]  # (sgd_stats, pop_stats, affine) rows

    # a per_domain choice is a cohort of domain_batch SGD rows, a cohort of
    # val_per_domain population rows or a block per domain; shared is None
    def per_domain(choice, rows):
        return rows if choice == PER_DOMAIN else None

    # one arm per distinct (sgd_stats, affine) pair, in first-appearance
    # order: the rows of a pair differ only in their population statistics,
    # which training never reads
    def arm(pair):  # one training; only its rows' errors go back
        rows = [r for r, (sgd, _, aff) in enumerate(policies) if (sgd, aff) == pair]
        net = SharedHeadNet(np.random.default_rng(_seed(seed, 3)), cfg["dim"],
                            cfg["hidden"], cfg["classes"],
                            cohort=per_domain(pair[0], cfg["domain_batch"]),
                            affine_blocks=per_domain(pair[1], domains.n_domains),
                            eps=cfg["eps"])
        # each arm draws row 1's stream itself, so all train on the same data
        rng = np.random.default_rng(_seed(seed, 10))
        for step, (x, y) in enumerate(domains.batches(rng, cfg["steps"],
                                                      cfg["domain_batch"])):
            try:
                loss = net.train_step(x, y, cfg["lr"], cfg["sgd_momentum"])
                ok = loss <= LOSS_BOUND
            except FloatingPointError as exc:  # as train reports it
                loss, ok = exc, False
            if not ok:
                raise diverged(step, loss, "sgd_stats={}, affine={}".format(*pair))
        return {r: net.eval_error(val_x, val_y, net.train_population_stats(
            pop_x, per_domain(policies[r][1], cfg["val_per_domain"]))) for r in rows}

    pairs = dict.fromkeys((sgd, aff) for sgd, _, aff in policies)
    errors = {r: e for arm_errors in fan_out(arm, pairs) for r, e in arm_errors.items()}
    for row, policy in enumerate(policies):  # in row order, not arm order
        run.summary[f"row{row + 1}"] = {"policy": list(policy)}
        run.log(f"shared_head-row{row + 1}-s{seed}", cfg["steps"], "val",
                "population", "error", errors[row], key=(f"row{row + 1}", "error"))
    return run


# ---------------------------------------------------------------------------
# Information leakage with crafted batches
# ---------------------------------------------------------------------------

LEAKAGE_DEFAULTS = ConfigTable({
    "classes": (16, ">= 1"),
    "dim": (32, ">= 1"),
    "separation": (4.0, ">= 0"),
    "noise": (0.8, ">= 0"),
    "latent_scale": (4.0, ">= 0"),
    # a crafted cohort is a group's copies and a ghost_fix cohort one copy
    # of each group: two rows at least
    "groups_per_batch": (16, ">= 2"),
    "copies_per_group": (2, ">= 2"),
    "train_clusters": (2048, ">= 1"),
    "val_clusters": (1024, ">= 1"),
    "hidden": ([128, 128], ">= 1"),
    "lr": (0.1, "> 0"),
    "sgd_momentum": (0.9, ">= 0", "< 1"),
    "steps": (600, ">= 1"),
    "eval_window": (50, ">= 1"),
    "precise_n": (1024, ">= 2"),  # as in _TRAINING
}, RULES)


def run_leakage(cfg, seed):
    g, m = cfg["groups_per_batch"], cfg["copies_per_group"]
    sampler = GroupedBatchSampler(g, m)
    batch = sampler.batch_size
    task = _gaussian_task(cfg, seed)
    data_rng = np.random.default_rng(_seed(seed, 2))
    data = make_clustered_data(task, data_rng, cfg["train_clusters"], m,
                               cfg["latent_scale"])
    val = make_clustered_data(task, data_rng, cfg["val_clusters"], m,
                              cfg["latent_scale"])
    # control stream: identical marginals, no cluster pattern (m = 1)
    control = make_clustered_data(task, data_rng, cfg["train_clusters"] * m, 1,
                                  cfg["latent_scale"])

    def crafted_batch(order=None):
        def fn(rng, size):
            idx = sampler.draw(data, rng)
            if order is not None:
                idx = idx[order]
            return data.x[idx], data.labels[idx]
        return fn

    variants = {
        "crafted": (crafted_batch(),
                    NormBatchPlan(strategy="ghost", sub_batch=m)),
        "ghost_fix": (crafted_batch(sampler.one_per_group_order()),
                      NormBatchPlan(strategy="ghost", sub_batch=g)),
        "shuffle_fix": (crafted_batch(),
                        NormBatchPlan(strategy="shuffle", sub_batch=batch // 2)),
        # no plan: the whole batch is one cohort, as in SyncBN
        "sync_fix": (crafted_batch(), None),
        "control": (uniform_batches(control.x, control.labels), None),
    }

    x_val, y_val = val.x, val.labels
    window = cfg["eval_window"]

    def arm(name):  # one training; the arms share only the data drawn above
        run = ScenarioRun("leakage")
        batch_fn, plan = variants[name]
        net = build_net(np.random.default_rng(_seed(seed, 3)),
                        [cfg["dim"], *cfg["hidden"], cfg["classes"]],
                        bn_blocks=1)
        x_pop = (data if name != "control" else control).x[: cfg["precise_n"]]
        run_id = f"leakage-{name}-s{seed}"
        # final population error averaged over a few late snapshots to damp
        # plateau fluctuation of individual checkpoints
        snaps = []

        def snapshot(step, net):
            remaining = cfg["steps"] - 1 - step
            if remaining % window or remaining // window >= 3:
                return
            s = precise_bn(net, x_pop, PRECISE_BATCH)
            e = classification_error(net, x_val, y_val, stats=s)
            snaps.append((step + 1, e, s))

        train(net, batch_fn, sgd_config(cfg, seed, 4, batch_size=batch),
              plan=plan, callback=snapshot, what=f"variant={name}")
        for step, e, _ in snaps:
            run.log(run_id, step, "val", "population", "error", e)
        run.summary[name] = {"population": float(np.mean([e for _, e, _ in snaps]))}
        if name == "crafted":
            # mini-batches of m: the crafted groups as drawn, then shuffled
            shuffle_rng = np.random.default_rng(_seed(seed, 6))
            for mode, strategy, rng in (("minibatch_pattern", "ghost", None),
                                        ("minibatch_random", "shuffle", shuffle_rng)):
                err = classification_error(net, x_val, y_val, rng=rng,
                                           plan=NormBatchPlan(strategy, m))
                run.log(run_id, cfg["steps"], "val", mode, "error", err,
                        key=(name, mode))
            run.checkpoint(net, snaps[-1][2])
        return run

    return ScenarioRun("leakage").merge(fan_out(arm, variants))


# ---------------------------------------------------------------------------

SCENARIOS = {
    "ema_vs_precise": (run_ema_vs_precise, EMA_VS_PRECISE_DEFAULTS),
    "nbs_sweep": (run_nbs_sweep, NBS_SWEEP_DEFAULTS),
    "frozen_finetune": (run_frozen_finetune, FROZEN_FINETUNE_DEFAULTS),
    "domain_adapt": (run_domain_adapt, DOMAIN_ADAPT_DEFAULTS),
    "shared_head": (run_shared_head, SHARED_HEAD_DEFAULTS),
    "leakage": (run_leakage, LEAKAGE_DEFAULTS),
}
