import random
import tracemalloc

import numpy as np
import pytest

from hierkg.aggregation import BuildReport, _embed_layer, bucket_relations, build_hierarchy
from hierkg.errors import InvalidArgumentError, ProviderUnavailableError
from hierkg.model import (
    BuildParams,
    Chunk,
    Entity,
    GraphLayer,
    Hierarchy,
    Relation,
    RelationKind,
    validate_hierarchy,
)
from hierkg.providers import HttpEmbeddingProvider, MockEmbeddingProvider, ProviderConfig
from hierkg.store import save_index

from helpers import make_layer0


def layer0_hierarchy(entities, relations):
    return Hierarchy(
        entities=dict(entities),
        relations=dict(relations),
        layers=[GraphLayer(index=0, entity_ids=set(entities), relation_ids=set(relations))],
    )


def intra_cluster_relations(h, layer, cluster):
    """Reference scan: relation ids of the layer with both endpoints inside the cluster."""
    out = []
    for rid in sorted(layer.relation_ids):
        r = h.relations[rid]
        if r.source_id in cluster and r.target_id in cluster:
            out.append(rid)
    return out


def simple_graph(edge_pairs, n=6):
    entities = {
        f"e{i}": Entity(id=f"e{i}", name=f"N{i}", description=f"desc {i}", layer=0, source_chunk_ids=["c0"])
        for i in range(n)
    }
    relations = {
        f"r{k}": Relation(id=f"r{k}", source_id=a, target_id=b, description=f"rel {a} {b}", layer=0)
        for k, (a, b) in enumerate(edge_pairs)
    }
    return entities, relations


class TestIntraClusterRelations:
    def test_singleton_cluster_has_none(self):
        entities, relations = simple_graph([("e0", "e1")])
        h = layer0_hierarchy(entities, relations)
        assert intra_cluster_relations(h, h.layers[0], {"e0"}) == []

    def test_triangle(self):
        entities, relations = simple_graph([("e0", "e1"), ("e1", "e2"), ("e0", "e2")], n=3)
        h = layer0_hierarchy(entities, relations)
        assert intra_cluster_relations(h, h.layers[0], {"e0", "e1", "e2"}) == ["r0", "r1", "r2"]

    def test_matches_brute_force_scan(self):
        rng = random.Random(1)
        entities, relations, _ = make_layer0(rng, 40, avg_degree=4)
        h = layer0_hierarchy(entities, relations)
        cluster = set(rng.sample(sorted(entities), 15))
        expected = sorted(
            rid for rid, r in relations.items() if r.source_id in cluster and r.target_id in cluster
        )
        assert intra_cluster_relations(h, h.layers[0], cluster) == expected


class TestConnectivityMatrix:
    def test_no_crossing_edges(self):
        entities, relations = simple_graph([("e0", "e1"), ("e2", "e3")], n=4)
        h = layer0_hierarchy(entities, relations)
        assert bucket_relations(h, h.layers[0], [["e0", "e1"], ["e2", "e3"]], ["a", "b"])[1] == []

    def test_bipartite_k22(self):
        entities, relations = simple_graph(
            [("e0", "e2"), ("e0", "e3"), ("e1", "e2"), ("e1", "e3")], n=4
        )
        h = layer0_hierarchy(entities, relations)
        evidence = bucket_relations(h, h.layers[0], [["e0", "e1"], ["e2", "e3"]], ["a", "b"])[1]
        assert len(evidence) == 1
        assert evidence[0].strength == 4
        # oracle: double loop over all edges
        crossing = sum(
            1
            for r in relations.values()
            if (r.source_id in {"e0", "e1"}) != (r.target_id in {"e0", "e1"})
        )
        assert crossing == 4

    def test_relation_conservation(self):
        rng = random.Random(2)
        entities, relations, _ = make_layer0(rng, 60, avg_degree=4)
        h = layer0_hierarchy(entities, relations)
        ids = sorted(entities)
        clusters = [ids[i::4] for i in range(4)]
        evidence = bucket_relations(h, h.layers[0], clusters, ["a0", "a1", "a2", "a3"])[1]
        crossing_total = sum(ev.strength for ev in evidence)
        intra_total = sum(
            len(intra_cluster_relations(h, h.layers[0], cluster)) for cluster in clusters
        )
        assert crossing_total + intra_total == len(relations)


class TestBucketRelations:
    # k >= 11 puts "agg:1:10" before "agg:1:2" in the evidence's pair order
    @pytest.mark.parametrize("seed,k", [(0, 1), (1, 3), (2, 7), (3, 12), (4, 14), (5, 20)])
    def test_matches_per_cluster_scans(self, seed, k):
        rng = random.Random(seed)
        entities, relations, _ = make_layer0(rng, rng.randint(10, 80), avg_degree=rng.choice([1, 3, 6]))
        h = layer0_hierarchy(entities, relations)
        layer = h.layers[0]
        # random partition of a random subset of the entities
        clusters = [[] for _ in range(k)]
        for eid in sorted(entities):
            if rng.random() < 0.9:
                clusters[rng.randrange(k)].append(eid)
        aggregate_ids = [f"agg:1:{j}" for j in range(k)]

        intra, evidence = bucket_relations(h, layer, clusters, aggregate_ids)
        assert intra == [intra_cluster_relations(h, layer, c) for c in clusters]

        # oracle: every relation whose endpoints sit in two different clusters
        cluster_of = {eid: j for j, c in enumerate(clusters) for eid in c}
        crossing = {}
        for rid, r in relations.items():
            ja, jb = cluster_of.get(r.source_id), cluster_of.get(r.target_id)
            if ja is not None and jb is not None and ja != jb:
                pair = tuple(sorted((aggregate_ids[ja], aggregate_ids[jb])))
                crossing.setdefault(pair, []).append(rid)
        assert [(ev.pair, ev.cross_relation_ids) for ev in evidence] == sorted(
            (pair, sorted(rids)) for pair, rids in crossing.items()
        )


class TestBuildLayerBranches:
    def build_with_lambda(self, lam, tau=3, gen_provider=None, embed_provider=None):
        """Two natural clusters with exactly lam crossing relations."""
        from hierkg.providers import MockEmbeddingProvider, MockGenerationProvider

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
        k = 0
        for i in range(3):  # dense intra edges keep clusters coherent
            relations[f"ra{k}"] = Relation(id=f"ra{k}", source_id=f"a{i}", target_id=f"a{i+1}", description=f"ia{i}", layer=0)
            k += 1
            relations[f"rb{k}"] = Relation(id=f"rb{k}", source_id=f"b{i}", target_id=f"b{i+1}", description=f"ib{i}", layer=0)
            k += 1
        for i in range(lam):
            relations[f"rx{i}"] = Relation(
                id=f"rx{i}", source_id=f"a{i % 4}", target_id=f"b{(i * 2) % 4}", description=f"cross {i}", layer=0
            )
        params = BuildParams(cluster_size=4, tau=tau, max_layers=2, seed=0, stop_when_entities_leq=2)
        h, embeddings, report = build_hierarchy(
            entities,
            relations,
            params,
            embed_provider or MockEmbeddingProvider(),
            gen_provider or MockGenerationProvider(),
        )
        inter = [r for r in h.relations.values() if r.layer == 1]
        return h, inter

    def assert_two_clean_clusters(self, h):
        groups = {}
        for eid, pid in h.parent_map.items():
            groups.setdefault(pid, set()).add(eid)
        assert sorted(sorted(g) for g in groups.values()) == [
            ["a0", "a1", "a2", "a3"],
            ["b0", "b1", "b2", "b3"],
        ]

    def test_lambda_above_tau_is_aggregated(self):
        h, inter = self.build_with_lambda(4, tau=3)
        self.assert_two_clean_clusters(h)
        assert len(inter) == 1
        assert inter[0].kind == RelationKind.INTER_CLUSTER_AGGREGATED
        assert "4 underlying relations" in inter[0].description

    def test_lambda_equal_tau_is_concatenated(self):
        h, inter = self.build_with_lambda(3, tau=3)
        self.assert_two_clean_clusters(h)
        assert len(inter) == 1
        assert inter[0].kind == RelationKind.INTER_CLUSTER_CONCATENATED
        assert inter[0].description == "cross 0; cross 1; cross 2"

    def test_lambda_zero_creates_no_relation(self):
        h, inter = self.build_with_lambda(0, tau=3)
        self.assert_two_clean_clusters(h)
        assert inter == []


class TestBuildHierarchy:
    def test_single_entity_yields_layer0_only(self, embed_provider, gen_provider):
        entities = {"e0": Entity(id="e0", name="E", description="solo thing", layer=0, source_chunk_ids=["c0"])}
        params = BuildParams(cluster_size=20, stop_when_entities_leq=20)
        h, _, _ = build_hierarchy(entities, {}, params, embed_provider, gen_provider)
        assert len(h.layers) == 1

    def test_40_entities_two_layers(self, embed_provider, gen_provider):
        rng = random.Random(3)
        entities, relations, _ = make_layer0(rng, 40, avg_degree=3)
        params = BuildParams(cluster_size=20, seed=1)
        h, embeddings, report = build_hierarchy(entities, relations, params, embed_provider, gen_provider)
        assert len(h.layers) == 2
        assert len(h.layers[0].entity_ids) == 40
        assert len(h.layers[1].entity_ids) == 2
        assert validate_hierarchy(h) == []
        assert set(embeddings) == set(h.entities)

    def test_deterministic_rebuild_bitwise(self, tmp_path):
        from hierkg.providers import MockEmbeddingProvider, MockGenerationProvider

        rng = random.Random(4)
        entities, relations, chunks = make_layer0(rng, 35, avg_degree=3)
        params = BuildParams(cluster_size=10, seed=7)
        manifests = []
        for run in range(2):
            h, embeddings, _ = build_hierarchy(
                entities, relations, params, MockEmbeddingProvider(), MockGenerationProvider()
            )
            manifest = save_index(h, embeddings, chunks, tmp_path / f"run{run}")
            manifests.append(manifest)
        assert manifests[0].content_hash == manifests[1].content_hash

    def test_input_order_does_not_change_the_index(self, tmp_path, gen_provider):
        rng = random.Random(12)
        entities, relations, chunks = make_layer0(rng, 120, avg_degree=3)
        params = BuildParams(cluster_size=8, seed=3)
        hashes = set()
        for run in range(3):
            eids, rids = list(entities), list(relations)
            random.Random(run).shuffle(eids)
            random.Random(run).shuffle(rids)
            h, embeddings, _ = build_hierarchy(
                {eid: entities[eid] for eid in eids},
                {rid: relations[rid] for rid in rids},
                params,
                MockEmbeddingProvider(),
                gen_provider,
            )
            hashes.add(save_index(h, embeddings, chunks, tmp_path / f"run{run}").content_hash)
        assert len(hashes) == 1

    def test_inputs_not_mutated(self, embed_provider, gen_provider):
        rng = random.Random(7)
        entities, relations, _ = make_layer0(rng, 1100, avg_degree=2)
        before = {eid: e.to_dict() for eid, e in entities.items()}
        h1, _, _ = build_hierarchy(entities, relations, BuildParams(seed=0), embed_provider, gen_provider)
        h2, _, _ = build_hierarchy(
            entities, relations, BuildParams(seed=0, stop_when_entities_leq=1000), embed_provider, gen_provider
        )
        assert {eid: e.to_dict() for eid, e in entities.items()} == before
        assert validate_hierarchy(h1) == []
        assert validate_hierarchy(h2) == []
        assert len(h1.layers) > len(h2.layers) >= 2
        # same seed, so the layers both builds have are clustered alike
        shared = set().union(*(layer.entity_ids for layer in h2.layers[:-1]))
        assert {eid: h1.parent_map[eid] for eid in shared} == h2.parent_map

    def test_empty_layer0_rejected(self, embed_provider, gen_provider):
        with pytest.raises(InvalidArgumentError):
            build_hierarchy({}, {}, BuildParams(), embed_provider, gen_provider)

    def test_monotone_shrinkage_and_kind_totality(self, embed_provider, gen_provider):
        rng = random.Random(5)
        entities, relations, _ = make_layer0(rng, 120, avg_degree=4)
        params = BuildParams(cluster_size=8, seed=2, stop_when_entities_leq=4, max_layers=4)
        h, _, _ = build_hierarchy(entities, relations, params, embed_provider, gen_provider)
        assert len(h.layers) >= 3
        for i in range(1, len(h.layers)):
            assert len(h.layers[i].entity_ids) < len(h.layers[i - 1].entity_ids)

        # recompute lambda for every aggregate pair and check each stored kind
        for i in range(1, len(h.layers)):
            tau = params.tau_for_layer(i)
            lam = {}
            for rid in h.layers[i - 1].relation_ids:
                r = h.relations[rid]
                pa, pb = h.parent_map.get(r.source_id), h.parent_map.get(r.target_id)
                if pa != pb:
                    lam[tuple(sorted((pa, pb)))] = lam.get(tuple(sorted((pa, pb))), 0) + 1
            stored = {
                tuple(sorted((r.source_id, r.target_id))): r
                for r in h.relations.values()
                if r.layer == i
            }
            assert set(stored) == set(lam)
            for pair, r in stored.items():
                expected = (
                    RelationKind.INTER_CLUSTER_AGGREGATED
                    if lam[pair] > tau
                    else RelationKind.INTER_CLUSTER_CONCATENATED
                )
                assert r.kind == expected


class TestEmbeddingShapes:
    """Malformed embedding batches fail with a named error, whatever the layer."""

    def build_with(self, post, gen_provider):
        entities, relations, _ = make_layer0(random.Random(3), 40, avg_degree=3)
        config = ProviderConfig(endpoint="http://test/api", max_retries=0)
        embed = HttpEmbeddingProvider(config, post=post, sleep=lambda s: None)
        return build_hierarchy(entities, relations, BuildParams(cluster_size=20, seed=1), embed, gen_provider)

    @staticmethod
    def vectors(texts, dim=8):
        return [v.tolist() for v in MockEmbeddingProvider(dim=dim).embed_batch(texts)]

    def test_vectors_of_different_lengths_are_a_provider_error(self, gen_provider):
        def post(url, payload, timeout):
            vectors = self.vectors(payload["texts"])
            vectors[-1].append(0.5)
            return {"vectors": vectors}

        with pytest.raises(ProviderUnavailableError, match=r"shape \(9,\)"):
            self.build_with(post, gen_provider)

    def test_two_dimensional_vectors_are_a_provider_error(self, gen_provider):
        def post(url, payload, timeout):
            return {"vectors": [[v[:4], v[4:]] for v in self.vectors(payload["texts"])]}

        with pytest.raises(ProviderUnavailableError, match=r"shape \(2, 4\)"):
            self.build_with(post, gen_provider)

    def test_layer_of_another_dimension_is_rejected(self, gen_provider):
        calls = []

        def post(url, payload, timeout):
            calls.append(1)
            return {"vectors": self.vectors(payload["texts"], dim=8 if len(calls) == 1 else 16)}

        with pytest.raises(InvalidArgumentError, match=r"layer 1 embedding batch has shape \((\d+), 16\), expected \(\1, 8\)"):
            self.build_with(post, gen_provider)


class TestEmbedLayer:
    """A layer's matrix is the array embed_batch returned, held once."""

    def test_keeps_the_providers_array(self):
        entities, relations, _ = make_layer0(random.Random(4), 30)
        h = layer0_hierarchy(entities, relations)
        returned = []

        class Recording(MockEmbeddingProvider):
            def embed_batch(self, texts):
                returned.append(super().embed_batch(texts))
                return returned[-1]

        X = _embed_layer(h, h.layers[0], Recording(dim=16), BuildReport())
        assert X.shape == (30, 16) and np.shares_memory(X, returned[0])

    def test_peak_memory_is_the_matrix(self):
        # a list of row arrays copied into the matrix by np.array peaks at 2.08x
        n, d = 2000, 256
        entities, relations, _ = make_layer0(random.Random(9), n)
        h = layer0_hierarchy(entities, relations)
        provider, report = MockEmbeddingProvider(dim=d), BuildReport()
        tracemalloc.start()
        try:
            X = _embed_layer(h, h.layers[0], provider, report)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert X.shape == (n, d)
        assert peak < 1.25 * n * d * 8
