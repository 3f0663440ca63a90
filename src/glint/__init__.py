"""glint: global-token late-interaction retrieval, end to end and exact.

A desk-scale retriever over synthetic layout-structured documents: a
deterministic corpus generator, a manually differentiated toy transformer
encoder with a learned global token, MaxSim late-interaction scoring, three
composable training losses, a binary multi-vector index, and an evaluation
harness with exact significance testing.
"""

from .config import RunConfig, load_config, save_config
from .corpus import (
    Corpus,
    CorpusConfig,
    PageSpec,
    QuerySpec,
    Region,
    generate_corpus,
    generate_descriptor,
    layout_features,
    load_corpus,
    render_patch_features,
    save_corpus,
    validate_corpus,
)
from .embeddings import DocumentEmbedding, QueryEmbedding
from .encoder import Encoder, EncoderConfig, load_checkpoint, save_checkpoint
from .errors import (
    ConfigurationError,
    InsufficientDataError,
    IntegrityError,
    TrainingDivergedError,
)
from .evaluation import EvalReport, evaluate, run_ablations
from .index_store import read_index, write_index
from .losses import finite_diff_check, global_infonce, local_align, retrieval_infonce
from .metrics import map_at_k, ndcg_at_k, spatial_entropy, wilcoxon_signed_rank
from .scoring import (
    ALL_ROWS,
    DocumentIndex,
    Ranking,
    ScoringFlags,
    maxsim_score,
    pool_patches,
    rank,
)
from .training import TrainerConfig, grad_check_encoder, train

__version__ = "0.1.0"

__all__ = [
    "ALL_ROWS",
    "ConfigurationError",
    "Corpus",
    "CorpusConfig",
    "DocumentEmbedding",
    "DocumentIndex",
    "Encoder",
    "EncoderConfig",
    "EvalReport",
    "InsufficientDataError",
    "IntegrityError",
    "PageSpec",
    "QueryEmbedding",
    "QuerySpec",
    "RunConfig",
    "Ranking",
    "Region",
    "ScoringFlags",
    "TrainerConfig",
    "TrainingDivergedError",
    "evaluate",
    "finite_diff_check",
    "generate_corpus",
    "generate_descriptor",
    "global_infonce",
    "grad_check_encoder",
    "layout_features",
    "load_checkpoint",
    "load_config",
    "load_corpus",
    "local_align",
    "map_at_k",
    "maxsim_score",
    "ndcg_at_k",
    "pool_patches",
    "rank",
    "read_index",
    "render_patch_features",
    "retrieval_infonce",
    "run_ablations",
    "save_checkpoint",
    "save_config",
    "save_corpus",
    "spatial_entropy",
    "train",
    "validate_corpus",
    "wilcoxon_signed_rank",
    "write_index",
]
