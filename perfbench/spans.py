"""Spans at bnlab's layer boundaries, recorded from outside the package.

A :class:`Tracer` wraps the public functions of bnlab's modules for the
length of one traced run.  bnlab binds many imported names at import time
(``from .net import train`` and the like), so a wrapper is installed at
every place the original function object is looked up: each ``bnlab``
module attribute that refers to it, the class attribute for methods, and
the runner entries of ``scenarios.SCENARIOS`` (the table ``cli`` dispatches
through).  ``uninstall`` puts every original object back.

Spans are folded into per-boundary aggregates as they close (call count,
self time, the duration of every call, parent->child edge counts and a few
work tallies), so a traced run of a few hundred thousand spans stays small
in memory.
"""

import functools
import os
import statistics
import time
from array import array
from collections import Counter, defaultdict


def _bn_forward_span(args, kwargs):
    # the effective mode: a mode=None call falls back to the layer's own mode
    layer = args[0]
    mode = kwargs.get("mode", args[2] if len(args) > 2 else None)
    return "layer.BnLayer.forward." + (layer.mode if mode is None else mode).value


def _rows(args, kwargs, result):
    if isinstance(result, tuple):
        result = result[0]
    return {"rows": len(getattr(result, "x", result))}


def _forward_rows(args, kwargs, result):
    return {"rows": len(args[1])}


def _cohorts(args, kwargs, result):
    return {"cohorts": len(result)}


def _bytes_written(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute or Class.method, span name, tally).  A span name that is
# a function derives the name from the call's arguments.  Several entries may
# share a span name; a span directly nested in one of the same name (say
# MultiScaleDomains.sample_domain -> GaussianClasses.sample) is folded into
# it, so calls count the outer call only.
BOUNDARY_SITES = [
    ("bnlab.net", "train", "net.train", None),
    ("bnlab.net", "sgd_step", "net.sgd_step", None),
    ("bnlab.net", "Network.forward", "net.Network.forward", _forward_rows),
    ("bnlab.net", "Network.backward", "net.Network.backward", None),
    ("bnlab.net", "classification_error", "net.classification_error", None),
    ("bnlab.net", "softmax_cross_entropy", "net.softmax_cross_entropy", None),
    ("bnlab.net", "Linear.forward", "net.Linear.forward", None),
    ("bnlab.net", "Linear.backward", "net.Linear.backward", None),
    ("bnlab.net", "Affine.forward", "net.Affine.forward", None),
    ("bnlab.net", "Affine.backward", "net.Affine.backward", None),
    ("bnlab.net", "Relu.forward", "net.Relu.forward", None),
    ("bnlab.net", "Relu.backward", "net.Relu.backward", None),
    ("bnlab.net", "MeanPool.forward", "net.MeanPool.forward", None),
    ("bnlab.net", "MeanPool.backward", "net.MeanPool.backward", None),
    ("bnlab.layer", "BnLayer.forward", _bn_forward_span, None),
    ("bnlab.layer", "BnLayer.backward", "layer.BnLayer.backward", None),
    ("bnlab.tensor", "channel_moments", "tensor.channel_moments", None),
    ("bnlab.tensor", "normalize", "tensor.normalize", None),
    ("bnlab.stats", "ema_update", "stats.ema_update", None),
    ("bnlab.stats", "aggregate_moment_matching",
     "stats.aggregate_moment_matching", None),
    ("bnlab.batching", "cohort_indices", "batching.cohort_indices", _cohorts),
    ("bnlab.precise", "precise_bn", "precise.precise_bn", None),
    ("bnlab.synthetic", "GaussianClasses.sample", "synthetic.sample", _rows),
    ("bnlab.synthetic", "SpatialGaussianClasses.sample", "synthetic.sample",
     _rows),
    ("bnlab.synthetic", "MultiScaleDomains.sample_domain", "synthetic.sample",
     _rows),
    ("bnlab.synthetic", "Corruption.apply", "synthetic.sample", _rows),
    ("bnlab.synthetic", "MixingCorruption.apply", "synthetic.sample", _rows),
    ("bnlab.synthetic", "make_clustered_data", "synthetic.sample", _rows),
    ("bnlab.scenarios", "SharedHeadNet.forward_train",
     "scenarios.SharedHeadNet.forward_train", None),
    ("bnlab.scenarios", "SharedHeadNet.backward_train",
     "scenarios.SharedHeadNet.backward_train", None),
    ("bnlab.scenarios", "SharedHeadNet.train_population_stats",
     "scenarios.SharedHeadNet.train_population_stats", None),
    ("bnlab.scenarios", "SharedHeadNet.eval_error",
     "scenarios.SharedHeadNet.eval_error", None),
    ("bnlab.io", "validate_config", "io.config", None),
    ("bnlab.io", "load_config", "io.config", None),
    ("bnlab.io", "write_metrics_csv", "io.write", _bytes_written),
    ("bnlab.io", "write_json", "io.write", _bytes_written),
]

# every span name a traced run may record, in report order
BOUNDARIES = [
    "net.train",
    "net.sgd_step",
    "net.Network.forward",
    "net.Network.backward",
    "net.classification_error",
    "net.softmax_cross_entropy",
    "net.Linear.forward",
    "net.Linear.backward",
    "net.Affine.forward",
    "net.Affine.backward",
    "net.Relu.forward",
    "net.Relu.backward",
    "net.MeanPool.forward",
    "net.MeanPool.backward",
    "layer.BnLayer.forward.train_minibatch",
    "layer.BnLayer.forward.eval_population",
    "layer.BnLayer.forward.eval_minibatch",
    "layer.BnLayer.backward",
    "tensor.channel_moments",
    "tensor.normalize",
    "stats.ema_update",
    "stats.aggregate_moment_matching",
    "batching.cohort_indices",
    "precise.precise_bn",
    "synthetic.sample",
    "scenarios.run",
    "scenarios.SharedHeadNet.forward_train",
    "scenarios.SharedHeadNet.backward_train",
    "scenarios.SharedHeadNet.train_population_stats",
    "scenarios.SharedHeadNet.eval_error",
    "io.config",
    "io.write",
]

BN_BATCH_FORWARDS = ("layer.BnLayer.forward.train_minibatch",
                     "layer.BnLayer.forward.eval_minibatch")

# (name, unit, better) of every per-layer metric, in report order
DERIVED = [
    ("net.sgd_step.us_p50", "us", "lower"),
    ("net.sgd_step.us_p99", "us", "lower"),
    ("net.forwards_per_step", "1/step", "lower"),
    ("net.Network.forward.rows_per_call", "rows/call", "higher"),
    ("batching.cohorts_per_step", "1/step", "lower"),
    ("stats.ema_updates_per_step", "1/step", "lower"),
    ("tensor.moments_per_batch_forward", "ratio", "lower"),
    ("precise.precise_bn.forwards_per_pass", "1/pass", "lower"),
    ("precise.precise_bn.s_per_pass", "s", "lower"),
    ("synthetic.sample.rows", "rows", "lower"),
    ("io.write.bytes", "bytes", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.unattributed_s", "s", "lower"),
]
PER_LAYER = [
    spec
    for name in BOUNDARIES
    for spec in ((f"{name}.calls", "count", "lower"),
                 (f"{name}.self_s", "s", "lower"))
] + DERIVED


class Tracer:
    """Records nested spans and folds each into per-boundary aggregates."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []  # open spans: [name, start, time covered by children]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.durations = defaultdict(lambda: array("d"))
        self.edges = Counter()  # (parent name or None, child name) -> count
        self.tallies = Counter()  # (span name, quantity) -> amount
        self._patches = []  # (setter, original) in install order
        self.missing = []  # boundary sites install could not find

    def enter(self, name):
        self.stack.append([name, self.clock(), 0.0])

    def exit(self):
        name, start, covered = self.stack.pop()
        duration = self.clock() - start
        self.calls[name] += 1
        self.self_s[name] += duration - covered
        self.durations[name].append(duration)
        parent = None
        if self.stack:
            self.stack[-1][2] += duration
            parent = self.stack[-1][0]
        self.edges[parent, name] += 1

    def wrap(self, fn, span, tally=None):
        """A stand-in for ``fn`` that records one span per call."""
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = span(args, kwargs) if callable(span) else span
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if tally is not None:
                for quantity, amount in tally(args, kwargs, result).items():
                    self.tallies[name, quantity] += amount
            return result

        return traced

    def install(self, modules):
        """Wrap every boundary wherever bnlab looks it up.  ``modules`` maps
        module name -> module and must hold every loaded bnlab module."""
        for module_name, attr, span, tally in BOUNDARY_SITES:
            cls_name, _, name = attr.rpartition(".")
            try:
                owner = modules[module_name]
                if cls_name:
                    owner = getattr(owner, cls_name)
                original = vars(owner)[name]
            except (AttributeError, KeyError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self.wrap(original, span, tally)
            if cls_name:  # a method is looked up on its class only
                self._set(owner, name, wrapper)
                continue
            for module in modules.values():
                for bound, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, bound, wrapper)
        table = modules["bnlab.scenarios"].SCENARIOS
        for key, (runner, defaults) in list(table.items()):
            self._patches.append((functools.partial(table.__setitem__, key),
                                  table[key]))
            table[key] = (self.wrap(runner, "scenarios.run"), defaults)

    def _set(self, owner, name, value):
        self._patches.append((functools.partial(setattr, owner, name),
                              vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self):
        while self._patches:
            restore, original = self._patches.pop()
            restore(original)

    def coverage_errors(self, expected, bypassed):
        """Boundary sites missing from bnlab, boundaries that should have run
        but recorded no call, bypassed boundaries that recorded calls, and
        spans outside BOUNDARIES."""
        errors = [f"{site}: not found, so not traced" for site in self.missing]
        errors += [f"{name}: expected calls, recorded 0"
                  for name in expected if not self.calls[name]]
        errors += [f"{name}: bypassed on this workload, recorded "
                   f"{self.calls[name]} calls"
                   for name in bypassed if self.calls[name]]
        errors += [f"{name}: span outside the known boundaries"
                   for name in self.calls if name not in BOUNDARIES]
        return errors

    def metrics(self, run_s, traced_run_s):
        """Every PER_LAYER metric as name -> value.  ``run_s`` is the
        untraced wall time of the same run, ``traced_run_s`` this one's."""
        out = {}
        for name in BOUNDARIES:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        steps = self.calls["net.sgd_step"]
        step_us = sorted(d * 1e6 for d in self.durations["net.sgd_step"])
        batch_forwards = sum(self.calls[n] for n in BN_BATCH_FORWARDS)
        # moments computed for a BN layer: by the layer itself, or again by
        # Network.forward for a moment sink
        moments = sum(
            count for (parent, child), count in self.edges.items()
            if child == "tensor.channel_moments" and parent is not None
            and parent.startswith(("layer.BnLayer.forward.",
                                   "net.Network.forward")))
        passes = self.calls["precise.precise_bn"]
        out.update({
            "net.sgd_step.us_p50": _percentile(step_us, 50),
            "net.sgd_step.us_p99": _percentile(step_us, 99),
            "net.forwards_per_step": _ratio(
                self.edges["net.sgd_step", "net.Network.forward"], steps),
            "net.Network.forward.rows_per_call": _ratio(
                self.tallies["net.Network.forward", "rows"],
                self.calls["net.Network.forward"]),
            "batching.cohorts_per_step": _ratio(
                self.tallies["batching.cohort_indices", "cohorts"], steps),
            "stats.ema_updates_per_step": _ratio(
                self.calls["stats.ema_update"], steps),
            "tensor.moments_per_batch_forward": _ratio(moments, batch_forwards),
            "precise.precise_bn.forwards_per_pass": _ratio(
                self.edges["precise.precise_bn", "net.Network.forward"], passes),
            "precise.precise_bn.s_per_pass": _ratio(
                sum(self.durations["precise.precise_bn"]), passes),
            "synthetic.sample.rows": self.tallies["synthetic.sample", "rows"],
            "io.write.bytes": self.tallies["io.write", "bytes"],
            "trace.run_s": traced_run_s,
            "trace.overhead_frac": traced_run_s / run_s - 1.0,
            "trace.unattributed_s": traced_run_s - sum(self.self_s.values()),
        })
        return out


def _ratio(count, base):
    # a ratio over an empty base (e.g. per SGD step on a run with no SGD
    # step) reads 0; the base is reported next to it
    return count / base if base else 0.0


def _percentile(values, p):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]
