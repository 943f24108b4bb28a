"""Train-free path-based score smoothing and reranking for triple-based KG-RAG."""

from .errors import (
    ConfigError,
    EmptyInputError,
    EndpointError,
    EntityLookupError,
    ParseError,
    PathPoolError,
    ScoringError,
    TransportError,
)
from .kg_store import (
    QueryRecord,
    TripleStore,
    extract_subgraph,
    load_queries,
    load_triples,
)
from .pooling import (
    PathKernel,
    PoolingConfig,
    ScoredSubgraph,
    build_scored_subgraph,
    pool_path,
    search_path_kernels,
    smooth,
)
from .scoring import ScoredTriple, TripleSequence, build_scorer, score_triples
from .selection import SelectionConfig, rerank, reselect, top_k

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "EmptyInputError",
    "EndpointError",
    "EntityLookupError",
    "ParseError",
    "PathPoolError",
    "PathKernel",
    "PoolingConfig",
    "QueryRecord",
    "ScoredSubgraph",
    "ScoredTriple",
    "ScoringError",
    "SelectionConfig",
    "TransportError",
    "TripleSequence",
    "TripleStore",
    "build_scored_subgraph",
    "build_scorer",
    "extract_subgraph",
    "load_queries",
    "load_triples",
    "pool_path",
    "rerank",
    "reselect",
    "score_triples",
    "search_path_kernels",
    "smooth",
    "top_k",
    "__version__",
]
