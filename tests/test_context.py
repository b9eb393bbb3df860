import random

import pytest

from hierkg import context
from hierkg.aggregation import build_hierarchy
from hierkg.context import assemble_context, rank_chunks, redundancy_report
from hierkg.errors import InvalidArgumentError
from hierkg.model import BuildParams, Chunk, Entity, GraphLayer, Hierarchy, Relation
from hierkg.providers import MockEmbeddingProvider, MockGenerationProvider, count_tokens
from hierkg.retrieval import SeedSet, flat_path_retrieve, lca_paths, assemble_subgraph, retrieve
from hierkg.store import load_index, save_index

from helpers import make_layer0, make_random_hierarchy


def small_world():
    h = Hierarchy()
    chunks = {
        "c0": Chunk(id="c0", text="alpha beta gamma", doc_id="d0", token_count=3),
        "c1": Chunk(id="c1", text="delta epsilon", doc_id="d0", token_count=2),
        "c2": Chunk(id="c2", text="zeta eta theta iota", doc_id="d1", token_count=4),
    }
    refs = {"e0": ["c0", "c1"], "e1": ["c0"], "e2": ["c2", "c0"], "e3": ["c1"]}
    for i in range(4):
        eid = f"e{i}"
        h.entities[eid] = Entity(
            id=eid, name=f"N{i}", description=f"desc {i}", layer=0, source_chunk_ids=refs[eid],
        )
        h.parent_map[eid] = "agg:1:0"
    h.entities["agg:1:0"] = Entity(id="agg:1:0", name="Group", description="group desc", layer=1)
    h.relations["r0"] = Relation(id="r0", source_id="e0", target_id="e1", description="rd", layer=0)
    h.layers = [
        GraphLayer(index=0, entity_ids={"e0", "e1", "e2", "e3"}, relation_ids={"r0"}),
        GraphLayer(index=1, entity_ids={"agg:1:0"}, relation_ids=set()),
    ]
    return h, chunks


class TestRankChunks:
    def test_counting_and_ordering(self):
        h, chunks = small_world()
        seeds = SeedSet(query="q", entries=[("e0", 1.0), ("e1", 0.9), ("e2", 0.8)], n=3)
        ranked = rank_chunks(h, seeds, chunks)
        # c0 hit by e0,e1,e2 = 3; c1 by e0 = 1; c2 by e2 = 1
        assert ranked == [("c0", 3), ("c1", 1), ("c2", 1)]

    def test_duplicate_references_count_once(self):
        h, chunks = small_world()
        h.entities["e0"].source_chunk_ids = ["c0", "c0", "c0"]
        seeds = SeedSet(query="q", entries=[("e0", 1.0)], n=1)
        assert rank_chunks(h, seeds, chunks) == [("c0", 1)]

    def test_unknown_chunk_ids_skipped(self):
        h, chunks = small_world()
        h.entities["e0"].source_chunk_ids = ["c0", "ghost"]
        seeds = SeedSet(query="q", entries=[("e0", 1.0)], n=1)
        assert rank_chunks(h, seeds, chunks) == [("c0", 1)]

    def test_matches_counting_oracle_on_random_input(self):
        rng = random.Random(0)
        entities, relations, chunks = make_layer0(rng, 60, avg_degree=3, n_chunks=12)
        h = Hierarchy(
            entities=entities,
            relations=relations,
            layers=[GraphLayer(index=0, entity_ids=set(entities), relation_ids=set(relations))],
        )
        picked = rng.sample(sorted(entities), 15)
        seeds = SeedSet(query="q", entries=[(eid, 1.0) for eid in picked], n=15)
        ranked = rank_chunks(h, seeds, chunks)

        oracle = {}
        for cid in chunks:
            oracle[cid] = sum(1 for eid in picked if cid in set(entities[eid].source_chunk_ids))
        expected = sorted(
            ((cid, n) for cid, n in oracle.items() if n > 0), key=lambda t: (-t[1], t[0])
        )
        assert ranked == expected


def make_bundle(**kwargs):
    h, chunks = small_world()
    seeds = SeedSet(query="q", entries=[("e0", 1.0), ("e1", 0.9)], n=2)
    paths, lca_nodes = lca_paths(h, seeds)
    sub = assemble_subgraph(h, paths, lca_nodes)
    return h, chunks, seeds, sub, assemble_context(h, sub, seeds, chunks, **kwargs)


class TestAssembleContext:
    def test_sections_present_by_default(self):
        _, _, _, _, bundle = make_bundle()
        assert bundle.entity_section.startswith("# Entities")
        assert bundle.relation_section.startswith("# Relations")
        assert bundle.chunk_section.startswith("# Chunks")
        assert "[parent] e0 -> agg:1:0" in bundle.relation_section
        assert "[base] r0 | e0 -> e1 | rd" in bundle.relation_section

    def test_entity_ordering_layer_desc_then_id(self):
        _, _, _, _, bundle = make_bundle()
        lines = bundle.entity_section.splitlines()[1:]
        assert lines[0].startswith("[L1] agg:1:0")
        assert [l.split()[1] for l in lines[1:]] == ["e0", "e1"]

    def test_deterministic(self):
        _, _, _, _, a = make_bundle()
        _, _, _, _, b = make_bundle()
        assert a.rendering() == b.rendering()
        assert a.token_counts == b.token_counts

    def test_no_relations_flag(self):
        _, _, _, _, bundle = make_bundle(include_relations=False)
        assert bundle.relation_section == ""
        assert "# Relations" not in bundle.rendering()
        assert bundle.token_counts["relation_section"] == 0

    def test_no_chunks_flag(self):
        _, _, _, _, bundle = make_bundle(include_chunks=False)
        assert bundle.chunk_section == ""
        assert "# Chunks" not in bundle.rendering()

    def test_entity_section_identical_across_flags(self):
        sections = set()
        for rel in (True, False):
            for chk in (True, False):
                _, _, _, _, bundle = make_bundle(include_relations=rel, include_chunks=chk)
                sections.add(bundle.entity_section)
        assert len(sections) == 1

    def test_top_c_zero_leaves_header_only(self):
        _, _, _, _, bundle = make_bundle(top_c=0)
        assert bundle.chunk_section == "# Chunks"

    def test_top_c_limits_chunks(self):
        _, _, _, _, bundle = make_bundle(top_c=1)
        chunk_lines = bundle.chunk_section.splitlines()[1:]
        assert len(chunk_lines) == 1
        assert chunk_lines[0].startswith("c0 |")

    def test_negative_top_c_rejected(self):
        with pytest.raises(InvalidArgumentError):
            make_bundle(top_c=-1)

    def test_token_counts_additive_and_match_rendering(self):
        _, _, _, _, bundle = make_bundle()
        assert bundle.token_counts["total"] == (
            bundle.token_counts["entity_section"]
            + bundle.token_counts["relation_section"]
            + bundle.token_counts["chunk_section"]
        )
        assert count_tokens(bundle.rendering()) == bundle.token_counts["total"]
        assert count_tokens(bundle.entity_section) == bundle.token_counts["entity_section"]

    def test_multiline_descriptions_collapsed(self):
        h, chunks = small_world()
        h.entities["e0"].description = "line one\nline   two\ttabbed"
        seeds = SeedSet(query="q", entries=[("e0", 1.0)], n=1)
        paths, lca_nodes = lca_paths(h, seeds)
        sub = assemble_subgraph(h, paths, lca_nodes)
        bundle = assemble_context(h, sub, seeds, chunks)
        assert "line one line two tabbed" in bundle.entity_section
        assert "\n\n\n" not in bundle.rendering()


# names and descriptions with tabs, newlines, runs of spaces, non-ASCII and
# the Unicode whitespace str.split() breaks on (no-break, ideographic, U+001F)
AWKWARD_NAMES = ["", "Zürich\tnorth", "naïve\nline  two", "  padded  ", "東京\u3000タワー", "x\x1fy"]
AWKWARD_WORDS = ["glacier", "straße", "café", "a\u00a0b", "\t", "\n\n", "  ", "summit", "ü"]


def awkward_world(tmp_path):
    """A built hierarchy over awkward text, ids with inner spaces, its chunks,
    and the same index saved and loaded."""
    rng = random.Random(11)

    def text(n):
        return " ".join(rng.choice(AWKWARD_WORDS) for _ in range(n))

    chunks = {f"chunk {k}": Chunk(id=f"chunk {k}", text=text(12), doc_id="d", token_count=0) for k in range(6)}
    entities = {
        f"ent {i:02d}": Entity(
            id=f"ent {i:02d}",
            name=AWKWARD_NAMES[i % len(AWKWARD_NAMES)],
            description=text(10),
            source_chunk_ids=rng.sample(sorted(chunks), 2),
        )
        for i in range(30)
    }
    ids = sorted(entities)
    relations = {}
    for k in range(60):
        a, b = rng.sample(ids, 2)
        relations[f"rel {k}"] = Relation(id=f"rel {k}", source_id=a, target_id=b, description="\t\n " if k == 0 else text(5))
    params = BuildParams(cluster_size=6, seed=1, stop_when_entities_leq=3)
    embed = MockEmbeddingProvider()
    built, embeddings, _ = build_hierarchy(entities, relations, params, embed, MockGenerationProvider())
    save_index(built, embeddings, chunks, tmp_path / "index")
    return built, embeddings, chunks, load_index(tmp_path / "index")[:3]


class TestKeptLines:
    def test_token_counts_exact_on_awkward_text(self, tmp_path):
        built, embeddings, chunks, loaded = awkward_world(tmp_path)
        embed = MockEmbeddingProvider()
        bundles = {}
        for name, (h, vectors, chunk_map) in {"built": (built, embeddings, chunks), "loaded": loaded}.items():
            for query in ["glacier straße", "café summit ü", "Zürich naïve"] * 2:
                seeds, sub = retrieve(h, vectors, query, 6, embed)
                for sub in (sub, flat_path_retrieve(h, seeds, max_hops=3)):
                    bundle = assemble_context(h, sub, seeds, chunk_map, top_c=3)
                    bundles.setdefault(name, []).append(bundle.to_dict())
                    for section in ("entity_section", "relation_section", "chunk_section"):
                        assert bundle.token_counts[section] == count_tokens(getattr(bundle, section))
                    assert bundle.token_counts["total"] == count_tokens(bundle.rendering())
                    lines = bundle.entity_section.split("\n")[1:]
                    for eid in sub.node_ids:
                        e = h.entities[eid]
                        line = f"[L{e.layer}] {eid} | {' '.join(e.name.split())} | {' '.join(e.description.split())}"
                        assert line in lines
                    lines = bundle.relation_section.split("\n")
                    for rid in sub.path_relations + sub.inter_cluster_relations:
                        r = h.relations[rid]
                        line = f"[{r.kind.value}] {rid} | {r.source_id} -> {r.target_id} | {' '.join(r.description.split())}"
                        assert line in lines
        assert bundles["built"] == bundles["loaded"]
        assert any("[L0] ent 00 |  | " in b["entity_section"] for b in bundles["built"])

    def test_lines_rendered_once_per_hierarchy(self, monkeypatch):
        h, chunks, seeds, sub, first = make_bundle()
        calls = []
        for name in ("_entity_row", "_relation_row"):
            render = getattr(context, name)
            monkeypatch.setattr(context, name, lambda h, row_id, _render=render: calls.append(row_id) or _render(h, row_id))
        again = assemble_context(h, sub, seeds, chunks)
        assert calls == []
        assert again == first
        assert set(h.entity_lines) == sub.node_ids


class TestRedundancyReport:
    def test_ratio_computed(self):
        _, _, _, _, lean = make_bundle(top_c=1)
        _, _, _, _, base = make_bundle(top_c=3)
        report = redundancy_report(lean, base)
        assert report["lean_tokens"] == lean.total_tokens
        assert report["baseline_tokens"] == base.total_tokens
        assert report["ratio"] == pytest.approx(lean.total_tokens / base.total_tokens)
        assert set(report["sections"]) == {"entity_section", "relation_section", "chunk_section"}

    def test_identical_bundles_ratio_one(self):
        _, _, _, _, a = make_bundle()
        _, _, _, _, b = make_bundle()
        assert redundancy_report(a, b)["ratio"] == pytest.approx(1.0)

    def test_zero_baseline_gives_none(self):
        from hierkg.context import ContextBundle

        empty = ContextBundle(entity_section="", relation_section="", chunk_section="", token_counts={"total": 0})
        _, _, _, _, lean = make_bundle()
        assert redundancy_report(lean, empty)["ratio"] is None
