"""Re-estimating population statistics on a fixed model: the split-and-
aggregate pass and the exact layer-by-layer variant.  Both return the
statistics as {bn layer index: ChannelStats} and leave the model as it
was; a caller passes them on (``stats=``), nothing installs them."""

from .errors import EmptyPopulation, InvalidParams
from .net import chunk_rows
from .stats import MomentFold, aggregate_moment_matching
from .tensor import as_tensor4

__all__ = ["precise_bn", "precise_bn_layerwise"]


def _pooled_moments(net, population, batch_size, indices, stats=None):
    """Forward the population in ghost mini-batches of ``batch_size`` (a
    ragged last one counts with its own size) in EVAL_MINIBATCH (no
    parameter or EMA update), the layers in ``stats`` normalizing by those
    statistics, and pool the batch moments of each BN layer in ``indices``
    by moment matching: {layer index: ChannelStats}.  The population runs
    in ``chunk_rows`` chunks of whole mini-batches, each a
    ``Network.evaluate`` pass that ends at the deepest layer in
    ``indices``.  Each layer's moments of a chunk go into a ``MomentFold``
    as they come, so the pass holds no more for a larger population."""
    population = as_tensor4(population)
    if population.shape[0] == 0:
        raise EmptyPopulation("population has no samples")
    if batch_size < 1:
        raise InvalidParams("batch_size must be >= 1")
    folds = {i: MomentFold() for i in indices}
    step = chunk_rows(batch_size, population.shape[2] * population.shape[3])
    for start in range(0, population.shape[0], step):
        net.evaluate(population[start : start + step], stats=stats,
                     moment_sinks=folds, cohort=batch_size)
    return {i: aggregate_moment_matching(fold) for i, fold in folds.items()}


def precise_bn(net, population, batch_size):
    """Population statistics of every BN layer from one forward-only pass
    over the population in mini-batches of ``batch_size``, each layer's
    batch moments pooled by moment matching.  The model is read-only.
    Returns {bn layer index: ChannelStats}.
    """
    return _pooled_moments(net, population, batch_size, net.bn_indices)


def precise_bn_layerwise(net, population, batch_size):
    """Exact population statistics at any batch size, layer by layer.

    For the j-th BN layer: layers before j normalize with their already
    computed population statistics (a per-sample deterministic map), layer j
    collects batch moments, deeper layers run in batch mode.  The aggregated
    result is therefore independent of the batch size.
    """
    result = {}
    for j in net.bn_indices:
        result.update(_pooled_moments(net, population, batch_size, [j],
                                      stats=result))
    return result

