#!/usr/bin/env python3
"""Self-tests of the benchmark: its generators and its oracles.

    python3 perfbench/selftest.py

Each oracle must pass the program's real output and reject a deliberately
corrupted copy of it; each generator must give identical inputs for the
same seed.
"""

from __future__ import annotations

import copy
import itertools
import shutil
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from hierkg import (  # noqa: E402
    BuildParams,
    MockEmbeddingProvider,
    MockGenerationProvider,
    assemble_context,
    build_hierarchy,
    flat_path_retrieve,
    ingest,
    load_index,
    retrieve,
    save_index,
)

import corpora  # noqa: E402
import oracles  # noqa: E402
from workloads import CountingGenerator  # noqa: E402

PARAMS = dict(seed=0, cluster_size=8, stop_when_entities_leq=3)


class GeneratorTests(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        self.assertEqual(corpora.random_sparse(7, n_entities=200), corpora.random_sparse(7, n_entities=200))
        self.assertEqual(corpora.topical(7, per_topic=20), corpora.topical(7, per_topic=20))
        for stream in (corpora.topical_queries, corpora.sparse_queries):
            self.assertEqual(list(itertools.islice(stream(7), 50)), list(itertools.islice(stream(7), 50)))

    def test_other_seed_other_inputs(self):
        self.assertNotEqual(corpora.random_sparse(7, n_entities=200), corpora.random_sparse(8, n_entities=200))
        self.assertNotEqual(corpora.topical(7, per_topic=20), corpora.topical(8, per_topic=20))
        self.assertNotEqual(next(corpora.topical_queries(7)), next(corpora.topical_queries(8)))

    def test_queries_are_distinct(self):
        queries = list(itertools.islice(corpora.topical_queries(3), 500))
        self.assertEqual(len(set(queries)), 500)

    def test_corpus_shape(self):
        records = corpora.random_sparse(1, n_entities=300, avg_degree=4, n_chunks=60)
        kinds = [r["type"] for r in records]
        self.assertEqual((kinds.count("entity"), kinds.count("relation"), kinds.count("chunk")), (300, 600, 60))


class OracleTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.work = HERE / "work" / "selftest"
        cls.work.mkdir(parents=True, exist_ok=True)
        jsonl = cls.work / "corpus.jsonl"
        corpora.write_jsonl(corpora.topical(5, n_topics=3, per_topic=30, avg_degree=4, chunks_per_topic=4), jsonl)
        entities, relations, cls.chunks, _ = ingest(jsonl)
        cls.params = BuildParams(**PARAMS)
        cls.gen = CountingGenerator(MockGenerationProvider())
        cls.embed = MockEmbeddingProvider()
        cls.h, cls.emb, _ = build_hierarchy(entities, relations, cls.params, cls.embed, cls.gen)
        save_index(cls.h, cls.emb, cls.chunks, cls.work / "index")
        cls.query = next(corpora.topical_queries(5, n_topics=3))
        cls.seeds, cls.sub = retrieve(cls.h, cls.emb, cls.query, 10, cls.embed)
        cls.flat_sub = flat_path_retrieve(cls.h, cls.seeds, max_hops=4)
        cls.bundle = assemble_context(cls.h, cls.sub, cls.seeds, cls.chunks, top_c=5)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def build_problems(self, h):
        return oracles.build_problems(h, self.params, self.gen.entity_calls, self.gen.relation_calls)

    def test_real_results_pass(self):
        self.assertGreaterEqual(len(self.h.layers), 3)
        self.assertEqual(self.build_problems(self.h), [])
        h2, emb2, _, _ = load_index(self.work / "index")
        self.assertEqual(oracles.roundtrip_problems((self.h, self.emb), (h2, emb2)), [])
        qvec = self.embed.embed_batch([self.query])[0]
        self.assertEqual(oracles.seed_problems(self.h, self.emb, qvec, 10, self.seeds.entries), [])
        ids = self.seeds.entity_ids
        self.assertEqual(oracles.lean_problems(self.h, ids, self.sub), [])
        self.assertEqual(oracles.flat_problems(oracles.layer0_adjacency(self.h), ids, 4, self.flat_sub), [])
        self.assertEqual(oracles.bundle_problems(self.h, ids, self.chunks, 5, self.bundle), [])

    def test_oversized_cluster_rejected(self):
        h = copy.deepcopy(self.h)
        aggs = sorted(h.layers[1].entity_ids)
        for child in [eid for eid, p in h.parent_map.items() if p == aggs[1]]:
            h.parent_map[child] = aggs[0]
        self.assertTrue(any("cluster_size" in p for p in self.build_problems(h)))

    def test_dropped_aggregate_relation_rejected(self):
        h = copy.deepcopy(self.h)
        rid = sorted(h.layers[1].relation_ids)[0]
        del h.relations[rid]
        h.layers[1].relation_ids.discard(rid)
        self.assertTrue(any("crossing pairs" in p for p in self.build_problems(h)))

    def test_wrong_relation_kind_rejected(self):
        h = copy.deepcopy(self.h)
        r = h.relations[sorted(h.layers[1].relation_ids)[0]]
        r.kind = type(r.kind)(
            "inter_cluster_concatenated" if r.kind.value == oracles.AGGREGATED else oracles.AGGREGATED
        )
        self.assertTrue(any("kind" in p for p in self.build_problems(h)))

    def test_broken_parent_chain_rejected(self):
        h = copy.deepcopy(self.h)
        del h.parent_map[sorted(h.layers[0].entity_ids)[0]]
        self.assertTrue(any("ancestor layers" in p for p in self.build_problems(h)))

    def test_miscounted_generation_calls_rejected(self):
        problems = oracles.build_problems(self.h, self.params, self.gen.entity_calls + 1, self.gen.relation_calls)
        self.assertTrue(any("entity generation calls" in p for p in problems))

    def test_dropped_relation_after_load_rejected(self):
        h2, emb2, _, _ = load_index(self.work / "index")
        del h2.relations[sorted(h2.relations)[0]]
        self.assertEqual(oracles.roundtrip_problems((self.h, self.emb), (h2, emb2)), ["relations differ after save and load"])

    def test_wrong_seed_rejected(self):
        qvec = self.embed.embed_batch([self.query])[0]
        outsider = max(
            (eid for eid in self.h.layers[0].entity_ids if eid not in self.seeds.entity_ids),
            key=lambda eid: -float(self.emb[eid] @ qvec),
        )  # the least similar entity
        entries = list(self.seeds.entries)
        entries[-1] = (outsider, entries[-1][1])
        self.assertNotEqual(oracles.seed_problems(self.h, self.emb, qvec, 10, entries), [])

    def test_wrong_lca_and_dropped_path_relation_rejected(self):
        ids = self.seeds.entity_ids
        sub = copy.deepcopy(self.sub)
        sub.lca_nodes = [(members, members[0]) for members, _ in sub.lca_nodes]
        self.assertTrue(any("LCA" in p for p in oracles.lean_problems(self.h, ids, sub)))
        sub = copy.deepcopy(self.sub)
        self.assertTrue(sub.path_relations, "the query should retrieve a seed-to-seed relation")
        sub.path_relations = sub.path_relations[1:]
        self.assertTrue(any("path_relations" in p for p in oracles.lean_problems(self.h, ids, sub)))

    def test_flat_node_missing_rejected(self):
        ids = self.seeds.entity_ids
        flat = copy.deepcopy(self.flat_sub)
        extra = sorted(flat.node_ids - set(ids))
        self.assertTrue(extra, "the flat baseline should add path nodes")
        flat.node_ids.discard(extra[0])
        self.assertNotEqual(oracles.flat_problems(oracles.layer0_adjacency(self.h), ids, 4, flat), [])

    def test_bundle_token_and_chunk_corruption_rejected(self):
        ids = self.seeds.entity_ids
        bundle = copy.deepcopy(self.bundle)
        bundle.token_counts["total"] += 1
        self.assertTrue(any("total_tokens" in p for p in oracles.bundle_problems(self.h, ids, self.chunks, 5, bundle)))
        bundle = copy.deepcopy(self.bundle)
        lines = bundle.chunk_section.splitlines()
        bundle.chunk_section = "\n".join(lines[:1] + lines[2:] + lines[1:2])  # first-ranked chunk moved last
        problems = oracles.bundle_problems(self.h, ids, self.chunks, 5, bundle)
        self.assertTrue(len(lines) > 2 and any("chunk section" in p for p in problems))


if __name__ == "__main__":
    unittest.main()
