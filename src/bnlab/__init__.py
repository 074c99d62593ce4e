"""bnlab: a desk-scale laboratory for batch-normalization statistics.

Core pieces: per-channel moment machinery (:mod:`bnlab.tensor`), population
statistics estimators (:mod:`bnlab.stats`), the normalization layer with
explicit mode selection (:mod:`bnlab.layer`), normalization-batch
construction (:mod:`bnlab.batching`), a small manually differentiated
network (:mod:`bnlab.net`), statistics re-estimation (:mod:`bnlab.precise`),
and the experiment scenarios (:mod:`bnlab.scenarios`).
"""

from .batching import DomainPolicy, NormBatchPlan
from .layer import BnLayer, BnMode
from .net import Network, SgdConfig, train
from .precise import precise_bn, precise_bn_layerwise
from .stats import BatchMomentLog, EmaState, ema_update
from .tensor import ChannelStats, channel_moments, normalize

__version__ = "0.1.0"

__all__ = [
    "BatchMomentLog",
    "BnLayer",
    "BnMode",
    "ChannelStats",
    "DomainPolicy",
    "EmaState",
    "Network",
    "NormBatchPlan",
    "SgdConfig",
    "channel_moments",
    "ema_update",
    "normalize",
    "precise_bn",
    "precise_bn_layerwise",
    "train",
    "__version__",
]
