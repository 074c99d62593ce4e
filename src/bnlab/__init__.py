"""bnlab: a desk-scale laboratory for batch-normalization statistics.

Core pieces: per-channel moment machinery (:mod:`bnlab.tensor`), population
statistics estimators (:mod:`bnlab.stats`), the normalization layer with
explicit mode selection (:mod:`bnlab.layer`), normalization-batch
construction (:mod:`bnlab.batching`), a small manually differentiated
network (:mod:`bnlab.net`), statistics re-estimation (:mod:`bnlab.precise`),
and the experiment scenarios (:mod:`bnlab.scenarios`).

Importing the package caps the OpenBLAS that numpy loaded at one thread,
unless ``OPENBLAS_NUM_THREADS`` asks for more (see ``blas_threads``): on
GEMMs this small a second thread costs more CPU than it saves, and results
are bit-identical either way.
"""

import ctypes
import os

from .batching import NormBatchPlan
from .layer import BnLayer, BnMode
from .net import Network, SgdConfig, train
from .precise import precise_bn, precise_bn_layerwise
from .stats import ema_update
from .tensor import ChannelStats, channel_moments, normalize


def blas_threads():
    """The OpenBLAS threads each bnlab process runs: ``OPENBLAS_NUM_THREADS``
    where it is an integer >= 1, else one (unset, ``""``, ``"0"`` or
    ``"many"``, which OpenBLAS itself reads as its default)."""
    try:
        return max(1, int(os.environ.get("OPENBLAS_NUM_THREADS", "1")))
    except ValueError:
        return 1


def _one_blas_thread():
    """Set every loaded OpenBLAS to one thread, unless ``blas_threads``
    reads more; a library or setter that cannot be found is left alone."""
    if blas_threads() > 1:
        return
    try:
        with open("/proc/self/maps") as fh:
            paths = {fields[5].strip() for fields in
                     (line.split(maxsplit=5) for line in fh)
                     if len(fields) == 6 and "openblas" in fields[5]}
    except OSError:
        return
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # e.g. a library file deleted since it was mapped
            continue
        for name in ("openblas_set_num_threads",
                     "scipy_openblas_set_num_threads64_",
                     "openblas_set_num_threads64_"):
            if hasattr(lib, name):
                setter = getattr(lib, name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                break


# the imports above loaded numpy, and with it OpenBLAS
_one_blas_thread()

__version__ = "0.1.0"

__all__ = [
    "BnLayer",
    "BnMode",
    "ChannelStats",
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
