"""Core-user detection in collusive commenting data.

Pipeline: ingest comment logs, build the weighted co-commenting network,
split core from compromised users by a coreness-threshold sweep, analyze
the core/periphery structure, and train a timeline-only classifier that
predicts core users without the network.
"""

__version__ = "0.1.0"

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
from .embeddings import FileEmbedder, HashEmbedder, write_embedding_file
from .features import FeatureVector, extract_all, mfe, stat5
from .graph import Ccn, GraphStats, build_ccn, graph_stats
from .kcore import coreness
from .korse import CorePartition, korse
from .nurse import (
    EvalReport,
    NurseConfig,
    NurseModel,
    ablations,
    auc,
    evaluate,
    loss,
    train,
)
from .records import (
    CommentRecord,
    Dataset,
    IngestError,
    UserRecord,
    VideoRecord,
    ingest,
    validate,
)
from .synth import SynthConfig, generate
