"""Context assembly and token accounting.

Renders a retrieved subgraph into the deterministic, LLM-facing text
layout (entity, relation, and chunk sections), selects supporting chunks
by seed-hit counting, and computes the redundancy comparison between two
strategies on the same query.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidArgumentError
from .model import Chunk, Hierarchy
from .providers import count_tokens
from .retrieval import RetrievedSubgraph, SeedSet

SECTION_SEPARATOR = "\n\n"


@dataclass
class ContextBundle:
    entity_section: str
    relation_section: str
    chunk_section: str
    token_counts: dict[str, int] = field(default_factory=dict)
    include_relations: bool = True
    include_chunks: bool = True
    top_c: int = 5

    def rendering(self) -> str:
        parts = [self.entity_section]
        if self.relation_section:
            parts.append(self.relation_section)
        if self.chunk_section:
            parts.append(self.chunk_section)
        return SECTION_SEPARATOR.join(parts)

    @property
    def total_tokens(self) -> int:
        return self.token_counts.get("total", 0)

    def to_dict(self) -> dict:
        return {
            "entity_section": self.entity_section,
            "relation_section": self.relation_section,
            "chunk_section": self.chunk_section,
            "token_counts": dict(self.token_counts),
            "include_relations": self.include_relations,
            "include_chunks": self.include_chunks,
            "top_c": self.top_c,
        }


def rank_chunks(
    h: Hierarchy, seeds: SeedSet, chunks: dict[str, Chunk]
) -> list[tuple[str, int]]:
    """Chunks referenced by seeds, ranked by distinct-seed count.

    Count descending, chunk id ascending; each seed entity counts once per
    chunk no matter how many times it mentions it.
    """
    counts: dict[str, int] = {}
    for eid in seeds.entity_ids:
        entity = h.entities.get(eid)
        if entity is None:
            continue
        for cid in set(entity.source_chunk_ids):
            if cid in chunks:
                counts[cid] = counts.get(cid, 0) + 1
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))


def _one_line(text: str) -> str:
    return " ".join(text.split())


def assemble_context(
    h: Hierarchy,
    sub: RetrievedSubgraph,
    seeds: SeedSet,
    chunks: dict[str, Chunk],
    top_c: int = 5,
    include_relations: bool = True,
    include_chunks: bool = True,
) -> ContextBundle:
    """Deterministic rendering of the retrieved evidence.

    Entities are ordered by (layer desc, id), relations by (kind, id),
    chunks by rank. The two ablation flags only remove sections; the
    entity section is byte-identical across all flag combinations.
    """
    if top_c < 0:
        raise InvalidArgumentError(f"top_c must be >= 0, got {top_c}")

    entity_lines = ["# Entities"]
    ordered = sorted(sub.node_ids, key=lambda eid: (-h.entities[eid].layer, eid))
    for eid in ordered:
        e = h.entities[eid]
        entity_lines.append(f"[L{e.layer}] {e.id} | {_one_line(e.name)} | {_one_line(e.description)}")
    entity_section = "\n".join(entity_lines)

    relation_section = ""
    if include_relations:
        relation_lines = ["# Relations"]
        for child, parent in sub.parent_edges():
            relation_lines.append(f"[parent] {child} -> {parent}")
        stored = [(h.relations[rid].kind.value, rid) for rid in sub.path_relations]
        stored += [(h.relations[rid].kind.value, rid) for rid in sub.inter_cluster_relations]
        for _, rid in sorted(stored):
            r = h.relations[rid]
            relation_lines.append(
                f"[{r.kind.value}] {r.id} | {r.source_id} -> {r.target_id} | {_one_line(r.description)}"
            )
        relation_section = "\n".join(relation_lines)

    chunk_section = ""
    if include_chunks:
        chunk_lines = ["# Chunks"]
        for cid, _count in rank_chunks(h, seeds, chunks)[:top_c]:
            chunk_lines.append(f"{cid} | {_one_line(chunks[cid].text)}")
        chunk_section = "\n".join(chunk_lines)

    token_counts = {
        "entity_section": count_tokens(entity_section),
        "relation_section": count_tokens(relation_section),
        "chunk_section": count_tokens(chunk_section),
    }
    token_counts["total"] = sum(token_counts.values())
    return ContextBundle(
        entity_section=entity_section,
        relation_section=relation_section,
        chunk_section=chunk_section,
        token_counts=token_counts,
        include_relations=include_relations,
        include_chunks=include_chunks,
        top_c=top_c,
    )


def redundancy_report(bundle_lean: ContextBundle, bundle_baseline: ContextBundle) -> dict:
    """Token comparison of two bundles built for the same query."""
    lean = bundle_lean.total_tokens
    base = bundle_baseline.total_tokens
    ratio = lean / base if base > 0 else None
    return {
        "lean_tokens": lean,
        "baseline_tokens": base,
        "ratio": ratio,
        "sections": {
            name: {
                "lean": bundle_lean.token_counts.get(name, 0),
                "baseline": bundle_baseline.token_counts.get(name, 0),
            }
            for name in ("entity_section", "relation_section", "chunk_section")
        },
    }
