"""Core-user detection in collusive commenting data.

Pipeline: ingest comment logs, build the weighted co-commenting network,
split core from compromised users by a coreness-threshold sweep, analyze
the core/periphery structure, and train a timeline-only classifier that
predicts core users without the network.

The graph layers load with the package. The timeline layers, which need
numpy (``embeddings``, ``features``, ``nurse`` and ``synth``), are
registered as modules but load on first use, so a graph-only process never
imports numpy.
"""

__version__ = "0.1.0"

import importlib.util as _importlib_util
import sys as _sys

from .analysis import (
    CaseStudyReport,
    CommunitySet,
    InterplayRow,
    RemovalCurve,
    case_study_report,
    disintegration_fraction,
    interplay_table,
    louvain,
    modularity,
    pearson,
    periphery_largest_component,
    removal_curve,
)
from .centrality import wbc_baseline, weighted_betweenness
from .graph import Ccn, GraphStats, build_ccn, graph_stats
from .kcore import coreness
from .korse import CorePartition, korse
from .records import (
    CommentRecord,
    Dataset,
    IngestError,
    UserRecord,
    VideoRecord,
    ingest,
    validate,
)

# The public names of each lazy layer, resolved by __getattr__ below.
_LAZY = {
    "embeddings": ("FileEmbedder", "HashEmbedder", "write_embedding_file"),
    "features": ("FeatureVector", "extract_all", "mfe", "stat5"),
    "nurse": ("EvalReport", "NurseConfig", "NurseModel", "ablations", "auc", "evaluate",
              "loss", "train"),
    "synth": ("SynthConfig", "generate"),
}
_OWNER = {name: layer for layer, names in _LAZY.items() for name in names}


def _register_lazy(layer: str):
    """``collusioncore.<layer>`` in ``sys.modules``, executed on first attribute access.

    It is also bound as a package attribute, so ``from . import <layer>``
    finds it without loading it.
    """
    spec = _importlib_util.find_spec(f"{__name__}.{layer}")
    loader = _importlib_util.LazyLoader(spec.loader)
    spec.loader = loader
    module = _importlib_util.module_from_spec(spec)
    _sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


for _layer in _LAZY:
    globals()[_layer] = _register_lazy(_layer)
del _layer

# What ``from collusioncore import *`` binds: every layer and public name,
# the lazy ones included.
__all__ = sorted(name for name in globals() if not name.startswith("_")) + sorted(_OWNER)


def __getattr__(name):
    if name in _OWNER:
        return getattr(globals()[_OWNER[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_OWNER))
