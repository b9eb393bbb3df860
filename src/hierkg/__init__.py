"""Hierarchical knowledge-graph indexing and retrieval engine.

Builds a multi-layer semantic hierarchy over an ingested knowledge graph
(GMM clustering plus generated aggregate entities and inter-cluster
relations), answers queries by anchoring to fine-grained entities and
climbing to their lowest common ancestors, and benchmarks the token
footprint of that strategy against a flat shortest-path baseline.
"""

from .aggregation import build_hierarchy
from .context import assemble_context, rank_chunks, redundancy_report
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
from .providers import MockEmbeddingProvider, MockGenerationProvider, count_tokens
from .retrieval import SeedSet, assemble_subgraph, flat_path_retrieve, lca_paths, retrieve
from .store import ingest, load_index, save_index

__all__ = [
    "BuildParams",
    "Chunk",
    "EmbeddingTable",
    "Entity",
    "GraphLayer",
    "Hierarchy",
    "HierKGError",
    "MockEmbeddingProvider",
    "MockGenerationProvider",
    "Relation",
    "RelationKind",
    "SeedSet",
    "assemble_context",
    "assemble_subgraph",
    "build_hierarchy",
    "count_tokens",
    "flat_path_retrieve",
    "ingest",
    "lca_paths",
    "load_index",
    "rank_chunks",
    "redundancy_report",
    "retrieve",
    "save_index",
    "validate_hierarchy",
]

__version__ = "0.1.0"
