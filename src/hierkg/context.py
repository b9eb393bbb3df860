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


def _entity_row(h: Hierarchy, eid: str) -> tuple:
    """Render one entity line, count its tokens and keep the row (Hierarchy.entity_lines)."""
    e = h.entities[eid]
    name, description = e.name.split(), e.description.split()
    head = f"[L{e.layer}] {e.id} |"
    line = f"{head} {' '.join(name)} | {' '.join(description)}"
    tokens = len(head.split()) + len(name) + 1 + len(description)  # 1: the "|" after the name
    row = h.entity_lines[eid] = (-e.layer, eid, line, tokens)
    return row


def _relation_row(h: Hierarchy, rid: str) -> tuple:
    """Render one stored-relation line, count its tokens and keep the row (Hierarchy.relation_lines)."""
    r = h.relations[rid]
    kind = r.kind.value
    description = r.description.split()
    head = f"[{kind}] {r.id} | {r.source_id} -> {r.target_id} |"
    line = f"{head} {' '.join(description)}"
    row = h.relation_lines[rid] = (kind, rid, line, len(head.split()) + len(description))
    return row


def _section(header: str, lines: list[str], tokens: int) -> tuple[str, int]:
    """The "\n"-join of a header and its lines, and its token count given the lines' count."""
    return "\n".join([header, *lines]), count_tokens(header) + tokens


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

    Each entity and stored-relation line is rendered once per hierarchy
    and kept with its sort key and token count (Hierarchy.entity_lines,
    relation_lines), so a later bundle only sorts, joins and sums. A
    section's token count is its header's plus its lines' counts: exact,
    since count_tokens is a whitespace split and a section is a "\n"-join.
    """
    if top_c < 0:
        raise InvalidArgumentError(f"top_c must be >= 0, got {top_c}")

    kept = h.entity_lines
    rows = sorted([kept.get(eid) or _entity_row(h, eid) for eid in sub.node_ids])
    entity_section, entity_tokens = _section(
        "# Entities", [row[2] for row in rows], sum(row[3] for row in rows)
    )

    relation_section, relation_tokens = "", 0
    if include_relations:
        lines = [f"[parent] {child} -> {parent}" for child, parent in sub.parent_edges()]
        tokens = sum(map(count_tokens, lines))
        kept = h.relation_lines
        rows = [kept.get(rid) or _relation_row(h, rid) for rid in sub.path_relations]
        rows += [kept.get(rid) or _relation_row(h, rid) for rid in sub.inter_cluster_relations]
        rows.sort()
        lines += [row[2] for row in rows]
        relation_section, relation_tokens = _section("# Relations", lines, tokens + sum(row[3] for row in rows))

    chunk_section, chunk_tokens = "", 0
    if include_chunks:
        lines, tokens = [], 0
        for cid, _count in rank_chunks(h, seeds, chunks)[:top_c]:
            head = f"{cid} |"
            text = chunks[cid].text.split()
            lines.append(f"{head} {' '.join(text)}")
            tokens += len(head.split()) + len(text)
        chunk_section, chunk_tokens = _section("# Chunks", lines, tokens)

    token_counts = {
        "entity_section": entity_tokens,
        "relation_section": relation_tokens,
        "chunk_section": chunk_tokens,
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
