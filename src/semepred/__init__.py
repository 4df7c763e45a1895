"""Sememe prediction for multilingual dictionary synsets.

The toolkit learns relational embeddings of a mixed synset-sememe graph,
recommends sememes from semantically similar annotated synsets, fuses
the two rankings by reciprocal ranks, and evaluates predictions with MAP
and F1 plus bucketed analyses.  A synthetic generator produces datasets
with known ground truth for end-to-end verification.
"""

from .embeddings import EmbeddingTable
from .errors import (
    ConfigError,
    ContractError,
    CoverageError,
    ParseError,
    SamplingError,
    SemepredError,
    TrainingError,
    UnknownIdError,
    ValidationError,
)
from .evaluation import (
    BucketQuantity,
    BucketSpec,
    MetricsReport,
    average_precision,
    bucket_analysis,
    evaluate,
    f1_score,
    sememe_difficulty,
    synset_outcomes,
)
from .fusion import (
    FusionConfig,
    PredictionResult,
    Provenance,
    fuse,
    load_predictions,
    save_predictions,
    threshold_select,
)
from .graph import (
    NodeId,
    NodeKind,
    Pos,
    RelationId,
    RelationKind,
    Split,
    Triplet,
    TripletStore,
    load_triplets,
    make_triplet,
    save_triplets,
    sememe_id,
    synset_id,
)
from .kge import (
    NegativeSampler,
    TrainConfig,
    TrainResult,
    init_embeddings,
    loss_gradients,
    rank_sememes,
    score_triplet,
    train,
)
from .ranking import CandidateOrder, ScoredRanking
from .recommender import SemanticVectorStore, SrConfig, rank_neighbors, recommend, score_sememes
from .synthetic import SynthConfig, generate

__version__ = "0.1.0"

__all__ = [
    "BucketQuantity",
    "BucketSpec",
    "CandidateOrder",
    "ConfigError",
    "ContractError",
    "CoverageError",
    "EmbeddingTable",
    "FusionConfig",
    "MetricsReport",
    "NegativeSampler",
    "NodeId",
    "NodeKind",
    "ParseError",
    "Pos",
    "PredictionResult",
    "Provenance",
    "RelationId",
    "RelationKind",
    "SamplingError",
    "ScoredRanking",
    "SemanticVectorStore",
    "SemepredError",
    "Split",
    "SrConfig",
    "SynthConfig",
    "TrainConfig",
    "TrainResult",
    "TrainingError",
    "Triplet",
    "TripletStore",
    "UnknownIdError",
    "ValidationError",
    "average_precision",
    "bucket_analysis",
    "evaluate",
    "f1_score",
    "fuse",
    "generate",
    "init_embeddings",
    "load_predictions",
    "load_triplets",
    "loss_gradients",
    "make_triplet",
    "rank_neighbors",
    "rank_sememes",
    "recommend",
    "save_predictions",
    "save_triplets",
    "score_sememes",
    "score_triplet",
    "sememe_difficulty",
    "sememe_id",
    "synset_id",
    "synset_outcomes",
    "threshold_select",
    "train",
]
