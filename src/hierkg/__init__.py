"""Hierarchical knowledge-graph indexing and retrieval engine.

Builds a multi-layer semantic hierarchy over an ingested knowledge graph
(GMM clustering plus generated aggregate entities and inter-cluster
relations), answers queries by anchoring to fine-grained entities and
climbing to their lowest common ancestors, and benchmarks the token
footprint of that strategy against a flat shortest-path baseline.
"""

from .aggregation import BuildReport, build_hierarchy
from .context import ContextBundle, assemble_context, rank_chunks, redundancy_report
from .errors import HierKGError
from .model import (
    BuildParams,
    Chunk,
    EmbeddingTable,
    Entity,
    GraphLayer,
    Hierarchy,
    Relation,
    RelationKind,
    validate_hierarchy,
)
from .providers import (
    MockEmbeddingProvider,
    MockGenerationProvider,
    count_tokens,
    make_embedding_provider,
    make_generation_provider,
)
from .retrieval import (
    RetrievedSubgraph,
    SeedSet,
    anchor_seeds,
    assemble_subgraph,
    flat_path_retrieve,
    lca_paths,
    lowest_common_ancestor,
    retrieve,
)
from .store import ingest, load_index, save_index

__all__ = [
    "BuildParams",
    "BuildReport",
    "Chunk",
    "ContextBundle",
    "EmbeddingTable",
    "Entity",
    "GraphLayer",
    "Hierarchy",
    "HierKGError",
    "MockEmbeddingProvider",
    "MockGenerationProvider",
    "Relation",
    "RelationKind",
    "RetrievedSubgraph",
    "SeedSet",
    "anchor_seeds",
    "assemble_context",
    "assemble_subgraph",
    "build_hierarchy",
    "count_tokens",
    "flat_path_retrieve",
    "ingest",
    "lca_paths",
    "load_index",
    "lowest_common_ancestor",
    "make_embedding_provider",
    "make_generation_provider",
    "rank_chunks",
    "redundancy_report",
    "retrieve",
    "save_index",
    "validate_hierarchy",
]

__version__ = "0.1.0"
