"""End-to-end acceptance suite.

Each test exercises one contract the package must hold, using only the
deterministic mock providers (no network), and prints a one-line verdict
so a full run doubles as a report.
"""

import itertools
import random
import time

from hierkg.aggregation import build_hierarchy
from hierkg.clustering import fit_gmm
from hierkg.context import assemble_context, rank_chunks, redundancy_report
from hierkg.model import (
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
from hierkg.providers import MockEmbeddingProvider, MockGenerationProvider
from hierkg.retrieval import (
    SeedSet,
    assemble_subgraph,
    flat_path_retrieve,
    lca_paths,
    lowest_common_ancestor,
    retrieve,
)
from hierkg.store import save_index

from helpers import make_layer0, make_random_hierarchy, topical_corpus

import numpy as np


def verdict(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def test_01_hierarchy_invariants_on_random_graphs():
    """100 random layer-0 graphs of 20-300 entities build clean hierarchies."""
    rng = random.Random(100)
    start = time.monotonic()
    failures = []
    for trial in range(100):
        n = rng.randint(20, 300)
        degree = rng.uniform(2.0, 5.0)
        entities, relations, _ = make_layer0(rng, n, avg_degree=degree)
        params = BuildParams(
            cluster_size=rng.choice([8, 12, 20]), seed=trial, stop_when_entities_leq=5, max_layers=4
        )
        h, embeddings, _ = build_hierarchy(
            entities, relations, params, MockEmbeddingProvider(), MockGenerationProvider()
        )

        problems = validate_hierarchy(h)
        # disjoint partition: children of each layer partition the lower layer
        for i in range(1, len(h.layers)):
            seen = set()
            for aid in h.layers[i].entity_ids:
                members = h.entities_of_cluster(aid)
                if seen & members:
                    problems.append(f"layer {i} clusters overlap")
                seen |= members
            if seen != h.layers[i - 1].entity_ids:
                problems.append(f"layer {i} clusters do not cover layer {i-1}")
        # relation conservation: every lower-layer relation is either intra
        # (same parent) or counted by exactly one upper pair
        for i in range(1, len(h.layers)):
            for rid in h.layers[i - 1].relation_ids:
                r = h.relations[rid]
                if h.parent_map.get(r.source_id) is None or h.parent_map.get(r.target_id) is None:
                    problems.append(f"relation {rid} has unparented endpoint")
        # monotone shrinkage
        sizes = [len(layer.entity_ids) for layer in h.layers]
        if any(b >= a for a, b in zip(sizes, sizes[1:])):
            problems.append(f"layer sizes not strictly shrinking: {sizes}")
        if problems:
            failures.append((trial, n, problems[:3]))
    elapsed = time.monotonic() - start
    verdict(
        "hierarchy invariants on 100 random graphs",
        not failures and elapsed < 60.0,
        f"{elapsed:.1f}s, failures={failures[:2]}",
    )


def test_02_cross_cluster_relation_branching():
    """Crossing-count thresholds select the right relation kind."""

    def build(lam):
        entities = {}
        for i in range(4):
            entities[f"a{i}"] = Entity(
                id=f"a{i}", name=f"A{i}", description="turbine rotor stator flux torque " * 3,
                layer=0, source_chunk_ids=["c0"],
            )
            entities[f"b{i}"] = Entity(
                id=f"b{i}", name=f"B{i}", description="enzyme substrate catalyst protein ligand " * 3,
                layer=0, source_chunk_ids=["c0"],
            )
        relations = {}
        for i in range(3):
            relations[f"ia{i}"] = Relation(id=f"ia{i}", source_id=f"a{i}", target_id=f"a{i+1}", description="ia", layer=0)
            relations[f"ib{i}"] = Relation(id=f"ib{i}", source_id=f"b{i}", target_id=f"b{i+1}", description="ib", layer=0)
        for i in range(lam):
            relations[f"x{i}"] = Relation(
                id=f"x{i}", source_id=f"a{i % 4}", target_id=f"b{(i * 2) % 4}", description=f"cross {i}", layer=0
            )
        params = BuildParams(cluster_size=4, tau=3, max_layers=2, seed=0, stop_when_entities_leq=2)
        h, _, _ = build_hierarchy(
            entities, relations, params, MockEmbeddingProvider(), MockGenerationProvider()
        )
        inter = [r for r in h.relations.values() if r.layer == 1]
        if not inter:
            return "none"
        if inter[0].kind == RelationKind.INTER_CLUSTER_AGGREGATED:
            return "aggregated"
        return "concat"

    expected = {0: "none", 2: "concat", 3: "concat", 4: "aggregated", 8: "aggregated"}
    got = {lam: build(lam) for lam in expected}
    verdict("cross-cluster relation kind thresholds", got == expected, f"got={got}")


def test_03_lca_matches_oracle_on_random_hierarchies():
    """50 random hierarchies: ancestor intersection oracle plus minimality."""
    rng = random.Random(300)
    checked = 0
    bad = 0
    for trial in range(50):
        h = make_random_hierarchy(rng, rng.randint(10, 200))
        leaves = sorted(h.layers[0].entity_ids)
        sample = leaves if len(leaves) <= 30 else rng.sample(leaves, 30)
        for a, b in itertools.combinations(sample, 2):
            lca = lowest_common_ancestor(h, a, b)
            common = set(h.ancestors(a)) & set(h.ancestors(b))
            expected = min(common, key=lambda eid: h.entities[eid].layer) if common else None
            checked += 1
            if lca != expected:
                bad += 1
                continue
            if lca is not None:
                chain_a, chain_b = h.ancestors(a), h.ancestors(b)
                cost = chain_a.index(lca) + chain_b.index(lca)
                for other in common:
                    if cost > chain_a.index(other) + chain_b.index(other):
                        bad += 1
                        break
    verdict("ancestor oracle over 50 random hierarchies", bad == 0, f"{checked} pairs checked")


def test_04_retrieval_soundness_on_random_queries():
    """200 random queries: every returned relation sits inside the node set
    and the relation lists match a brute-force filter."""
    rng = random.Random(400)
    embed = MockEmbeddingProvider()
    bad = 0
    for trial in range(20):
        h = make_random_hierarchy(rng, 60)
        leaves = sorted(h.layers[0].entity_ids)
        for k in range(40):
            a, b = rng.sample(leaves, 2)
            rid = f"r{trial}_{k}"
            h.relations[rid] = Relation(id=rid, source_id=a, target_id=b, description="x", layer=0)
            h.layers[0].relation_ids.add(rid)
        ids = sorted(h.entities)
        vectors = embed.embed_batch([h.entities[eid].description for eid in ids])
        embeddings = EmbeddingTable.for_hierarchy(h, dict(zip(ids, vectors)))
        for q in range(10):
            query = " ".join(rng.choice(leaves) for _ in range(3))
            seeds, sub = retrieve(h, embeddings, query, 6, embed)
            node_ids = {eid for p in sub.paths for eid in p}
            layer0 = {eid for eid in node_ids if h.entities[eid].layer == 0}
            expected_path = sorted(
                rid for rid, r in h.relations.items()
                if r.layer == 0 and r.source_id in layer0 and r.target_id in layer0
            )
            expected_inter = sorted(
                rid for rid, r in h.relations.items()
                if r.layer >= 1 and r.source_id in node_ids and r.target_id in node_ids
            )
            sound = all(
                h.relations[rid].source_id in sub.node_ids and h.relations[rid].target_id in sub.node_ids
                for rid in sub.path_relations + sub.inter_cluster_relations
            )
            if not (
                sound
                and sub.node_ids == node_ids
                and sub.path_relations == expected_path
                and sub.inter_cluster_relations == expected_inter
                and set(seeds.entity_ids) <= sub.node_ids
            ):
                bad += 1
    verdict("retrieval soundness over 200 random queries", bad == 0)


def test_05_token_redundancy_vs_flat_baseline():
    """Hierarchical retrieval spends well under 70% of the flat baseline's
    context tokens on a topical corpus, in under two minutes."""
    start = time.monotonic()
    rng = random.Random(500)
    entities, relations, chunks, queries = topical_corpus(rng)
    params = BuildParams(cluster_size=20, seed=0, stop_when_entities_leq=5, max_layers=4)
    embed = MockEmbeddingProvider()
    h, embeddings, _ = build_hierarchy(
        entities, relations, params, embed, MockGenerationProvider()
    )

    ratios = []
    for query in queries:
        seeds, sub = retrieve(h, embeddings, query, 10, embed)
        lean = assemble_context(h, sub, seeds, chunks, top_c=5)
        flat_sub = flat_path_retrieve(h, seeds, max_hops=4)
        flat = assemble_context(h, flat_sub, seeds, chunks, top_c=5)
        report = redundancy_report(lean, flat)
        if report["ratio"] is not None:
            ratios.append(report["ratio"])
    mean_ratio = sum(ratios) / len(ratios)
    elapsed = time.monotonic() - start
    verdict(
        "token redundancy vs flat baseline",
        mean_ratio < 0.70 and elapsed < 120.0,
        f"mean ratio {mean_ratio:.3f} over {len(ratios)} queries, {elapsed:.1f}s",
    )


def test_06_end_to_end_determinism(tmp_path):
    """Same seed, same data: identical index hashes and byte-identical bundles."""
    rng_data = random.Random(600)
    entities, relations, chunks = make_layer0(rng_data, 50, avg_degree=3)
    queries = ["glacier summit tundra", "meadow nebula orchid", "harbor reef lagoon"]

    outputs = []
    for run in range(2):
        params = BuildParams(cluster_size=12, seed=9)
        embed = MockEmbeddingProvider()
        h, embeddings, _ = build_hierarchy(
            entities, relations, params, embed, MockGenerationProvider()
        )
        manifest = save_index(h, embeddings, chunks, tmp_path / f"run{run}")
        renderings = []
        for query in queries:
            seeds, sub = retrieve(h, embeddings, query, 8, embed)
            bundle = assemble_context(h, sub, seeds, chunks, top_c=5)
            renderings.append(bundle.rendering())
        outputs.append((manifest.content_hash, renderings))
    verdict(
        "end-to-end determinism",
        outputs[0] == outputs[1],
        f"hash {outputs[0][0][:12]}",
    )


def test_07_mixture_model_sanity():
    """Well-separated blobs are recovered and every EM trace is monotone."""
    rng = np.random.default_rng(700)
    centers = [np.zeros(16), np.zeros(16)]
    centers[0][0] = 20.0
    centers[1][1] = 20.0
    embeddings = {}
    truth = {}
    for blob, center in enumerate(centers):
        for i in range(25):
            eid = f"b{blob}_{i:02d}"
            embeddings[eid] = center + rng.normal(0, 0.1, 16)
            truth[eid] = blob
    assignment = fit_gmm(embeddings, 2, seed=1)
    found = assignment.labels()
    groups = [{e for e, lab in found.items() if lab == j} for j in (0, 1)]
    truth_groups = [{e for e, lab in truth.items() if lab == j} for j in (0, 1)]
    separated = groups in (truth_groups, truth_groups[::-1])

    monotone = True
    for trial in range(20):
        pts = {f"e{i}": rng.normal(size=8) for i in range(rng.integers(20, 80))}
        fit = fit_gmm(pts, int(rng.integers(2, 6)), seed=trial)
        lls = fit.log_likelihoods
        if any(cur < prev - 1e-9 for prev, cur in zip(lls, lls[1:])):
            monotone = False
    verdict("mixture model sanity", separated and monotone)


def test_08_chunk_ranking_matches_counting_oracle():
    """100 random seed/chunk layouts rank exactly like the naive count."""
    rng = random.Random(800)
    bad = 0
    for trial in range(100):
        n_chunks = rng.randint(3, 15)
        chunks = {
            f"c{i}": Chunk(id=f"c{i}", text="t", doc_id="d", token_count=1) for i in range(n_chunks)
        }
        h = Hierarchy()
        n_entities = rng.randint(5, 40)
        for i in range(n_entities):
            eid = f"e{i:02d}"
            refs = [rng.choice(sorted(chunks)) for _ in range(rng.randint(1, 5))]
            h.entities[eid] = Entity(
                id=eid, name=eid, description="d", layer=0, source_chunk_ids=refs
            )
        h.layers = [GraphLayer(index=0, entity_ids=set(h.entities))]
        picked = rng.sample(sorted(h.entities), rng.randint(1, n_entities))
        seeds = SeedSet(query="q", entries=[(eid, 1.0) for eid in picked], n=len(picked))
        ranked = rank_chunks(h, seeds, chunks)
        counts = {
            cid: sum(1 for eid in picked if cid in set(h.entities[eid].source_chunk_ids))
            for cid in chunks
        }
        expected = sorted(
            ((cid, c) for cid, c in counts.items() if c > 0), key=lambda t: (-t[1], t[0])
        )
        if ranked != expected:
            bad += 1
    verdict("chunk ranking counting oracle", bad == 0)


def test_09_ablation_contracts():
    """Section flags remove exactly their section; entity text never changes."""
    rng = random.Random(900)
    entities, relations, chunks = make_layer0(rng, 40, avg_degree=3)
    params = BuildParams(cluster_size=10, seed=2)
    embed = MockEmbeddingProvider()
    h, embeddings, _ = build_hierarchy(
        entities, relations, params, embed, MockGenerationProvider()
    )
    seeds, sub = retrieve(h, embeddings, "glacier summit tundra reef", 8, embed)

    full = assemble_context(h, sub, seeds, chunks, top_c=5)
    no_rel = assemble_context(h, sub, seeds, chunks, top_c=5, include_relations=False)
    no_chunk = assemble_context(h, sub, seeds, chunks, top_c=5, include_chunks=False)

    ok = (
        full.relation_section != ""
        and full.chunk_section != ""
        and no_rel.relation_section == ""
        and no_rel.chunk_section == full.chunk_section
        and no_chunk.chunk_section == ""
        and no_chunk.relation_section == full.relation_section
        and no_rel.entity_section == full.entity_section
        and no_chunk.entity_section == full.entity_section
        and "# Relations" not in no_rel.rendering()
        and "# Chunks" not in no_chunk.rendering()
    )
    verdict("ablation contracts", ok)
