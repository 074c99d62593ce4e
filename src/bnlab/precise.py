"""Re-estimating population statistics on a fixed model: the split-and-
aggregate pass and the exact layer-by-layer variant."""

from .batching import cohort_runs, even_sizes
from .errors import EmptyPopulation, InvalidParams
from .layer import BnMode
from .net import EVAL_CHUNK_ROWS
from .stats import BatchMomentLog, aggregate_moment_matching, aggregate_naive
from .tensor import as_tensor4

__all__ = ["precise_bn", "precise_bn_layerwise", "set_population_stats"]


def _passes(population, batch_size):
    """The (G, n, C, H, W) stack of each grouped pass: whole mini-batches
    of ``batch_size`` in chunks of at most EVAL_CHUNK_ROWS rows, then the
    ragged final batch on its own."""
    start = 0
    sizes = even_sizes(population.shape[0], batch_size)
    for _, groups, size in cohort_runs(sizes, max_rows=EVAL_CHUNK_ROWS):
        stop = start + groups * size
        yield population[start:stop].reshape(groups, size, *population.shape[1:])
        start = stop


def precise_bn(net, population, batch_size, *, aggregator="moment_matching",
               bessel=False):
    """Forward the population in mini-batches with every BN layer computing
    batch statistics, then aggregate each layer's moment log.

    The model is read-only during the pass: no parameter updates, no EMA
    updates.  A final ragged batch (N mod B != 0) is processed as its own
    smaller batch with its true count.  Mini-batches run as grouped
    passes of at most EVAL_CHUNK_ROWS rows, each batch normalized by its
    own moments.  Returns {bn layer index: ChannelStats}.
    """
    population = as_tensor4(population)
    if population.shape[0] == 0:
        raise EmptyPopulation("population has no samples")
    if batch_size < 1:
        raise InvalidParams("batch_size must be >= 1")
    sinks = {i: BatchMomentLog() for i in net.bn_indices}
    for xb in _passes(population, batch_size):
        net.forward(
            xb,
            modes=BnMode.TRAIN_MINIBATCH,
            update_stats=False,
            moment_sinks=sinks,
        )
    if aggregator == "moment_matching":
        return {i: aggregate_moment_matching(log, bessel=bessel)
                for i, log in sinks.items()}
    if aggregator == "naive":
        return {i: aggregate_naive(log) for i, log in sinks.items()}
    raise InvalidParams(f"unknown aggregator {aggregator!r}")


def precise_bn_layerwise(net, population, batch_size, *, bessel=False):
    """Exact population statistics at any batch size, layer by layer.

    For the j-th BN layer: layers before j normalize with their already
    computed population statistics (a per-sample deterministic map), layer j
    collects batch moments, deeper layers run in batch mode.  The aggregated
    result is therefore independent of the batch size.
    """
    population = as_tensor4(population)
    if population.shape[0] == 0:
        raise EmptyPopulation("population has no samples")
    if batch_size < 1:
        raise InvalidParams("batch_size must be >= 1")
    result = {}
    for j in net.bn_indices:
        modes = {i: BnMode.EVAL_POPULATION for i in result}
        modes[j] = BnMode.TRAIN_MINIBATCH
        for i in net.bn_indices:
            if i > j:
                modes[i] = BnMode.TRAIN_MINIBATCH
        sink = {j: BatchMomentLog()}
        for xb in _passes(population, batch_size):
            net.forward(
                xb,
                modes=modes,
                update_stats=False,
                pop_override=dict(result),
                moment_sinks=sink,
            )
        result[j] = aggregate_moment_matching(sink[j], bessel=bessel)
    return result


def set_population_stats(net, stats_by_index):
    """Install precise statistics on the network's BN layers."""
    for i, stats in stats_by_index.items():
        net.layers[i].pop = stats
