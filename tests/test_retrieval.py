import gc
import itertools
import random
import weakref
from collections import deque

import numpy as np
import pytest

from hierkg.aggregation import build_hierarchy
from hierkg.errors import InvalidArgumentError, NotFoundError
from hierkg.model import (
    BuildParams,
    EmbeddingTable,
    Entity,
    GraphLayer,
    Hierarchy,
    Relation,
    RelationKind,
    validate_hierarchy,
)
from hierkg.retrieval import (
    anchor_seeds,
    assemble_subgraph,
    flat_path_retrieve,
    lca_paths,
    retrieve,
    SeedSet,
)
from hierkg.store import load_index, save_index

from helpers import description, make_layer0, make_random_hierarchy, pair_lca


def hierarchy_with_embeddings(rng, n_leaves, embed_provider):
    h = make_random_hierarchy(rng, n_leaves)
    embeddings = {}
    ids = sorted(h.entities)
    vectors = embed_provider.embed_batch([h.entities[eid].description for eid in ids])
    for eid, vec in zip(ids, vectors):
        embeddings[eid] = vec
    return h, EmbeddingTable.for_hierarchy(h, embeddings)


def oracle_lca(h, a, b):
    """Brute force: intersect full ancestor chains, take the lowest layer."""
    common = set(h.ancestors(a)) & set(h.ancestors(b))
    if not common:
        return None
    return min(common, key=lambda eid: h.entities[eid].layer)


class TestAnchorSeeds:
    def test_exact_description_ranks_first(self, embed_provider):
        rng = random.Random(0)
        h, embeddings = hierarchy_with_embeddings(rng, 30, embed_provider)
        target = sorted(h.layers[0].entity_ids)[7]
        seeds = anchor_seeds(h, embeddings, h.entities[target].description, 5, embed_provider)
        assert seeds.entries[0][0] == target
        assert abs(seeds.entries[0][1] - 1.0) < 1e-9

    def test_n_larger_than_layer0(self, embed_provider):
        rng = random.Random(1)
        h, embeddings = hierarchy_with_embeddings(rng, 12, embed_provider)
        seeds = anchor_seeds(h, embeddings, "meadow nebula", 50, embed_provider)
        assert len(seeds.entries) == 12
        scores = [s for _, s in seeds.entries]
        assert scores == sorted(scores, reverse=True)

    def test_seeds_are_layer0_only(self, embed_provider):
        rng = random.Random(2)
        h, embeddings = hierarchy_with_embeddings(rng, 40, embed_provider)
        seeds = anchor_seeds(h, embeddings, "glacier summit", 40, embed_provider)
        for eid in seeds.entity_ids:
            assert h.entities[eid].layer == 0

    def test_matches_exhaustive_scan_oracle(self, embed_provider):
        rng = random.Random(3)
        h, embeddings = hierarchy_with_embeddings(rng, 50, embed_provider)
        query = "alloy basin cipher delta ember"
        qvec = embed_provider.embed_batch([query])[0]

        def cosine_loop(a, b):
            dot = na = nb = 0.0
            for x, y in zip(a, b):
                dot += x * y
                na += x * x
                nb += y * y
            return dot / (na**0.5 * nb**0.5)

        scored = [(eid, cosine_loop(embeddings[eid], qvec)) for eid in sorted(h.layers[0].entity_ids)]
        expected = [eid for eid, _ in sorted(scored, key=lambda t: (-t[1], t[0]))][:10]
        seeds = anchor_seeds(h, embeddings, query, 10, embed_provider)
        assert seeds.entity_ids == expected

    def test_empty_query_rejected(self, embed_provider):
        rng = random.Random(4)
        h, embeddings = hierarchy_with_embeddings(rng, 10, embed_provider)
        with pytest.raises(InvalidArgumentError):
            anchor_seeds(h, embeddings, "  ", 5, embed_provider)


class TestLowestCommonAncestor:
    """The group LCA of lca_paths over two-seed seed sets."""

    def test_siblings(self):
        rng = random.Random(5)
        h = make_random_hierarchy(rng, 30)
        parent_children = {}
        for child, parent in h.parent_map.items():
            if h.entities[child].layer == 0:
                parent_children.setdefault(parent, []).append(child)
        siblings = next(kids for kids in parent_children.values() if len(kids) >= 2)
        assert pair_lca(h, siblings[0], siblings[1]) == h.parent_map[siblings[0]]

    def test_unknown_id(self):
        rng = random.Random(7)
        h = make_random_hierarchy(rng, 10)
        with pytest.raises(NotFoundError):
            pair_lca(h, "missing", sorted(h.layers[0].entity_ids)[0])

    def test_all_pairs_match_oracle_and_minimality(self):
        rng = random.Random(8)
        h = make_random_hierarchy(rng, 40)
        leaves = sorted(h.layers[0].entity_ids)
        for a, b in itertools.combinations(leaves[:20], 2):
            lca = pair_lca(h, a, b)
            assert lca == oracle_lca(h, a, b)
            if lca is None:
                continue
            chain_a, chain_b = h.ancestors(a), h.ancestors(b)
            best = chain_a.index(lca) + chain_b.index(lca)
            for other in set(chain_a) & set(chain_b):
                assert best <= chain_a.index(other) + chain_b.index(other)


class TestLcaPaths:
    def test_two_seeds_sharing_parent(self):
        rng = random.Random(9)
        h = make_random_hierarchy(rng, 30)
        parent_children = {}
        for child, parent in h.parent_map.items():
            if h.entities[child].layer == 0:
                parent_children.setdefault(parent, []).append(child)
        parent, kids = next((p, k) for p, k in parent_children.items() if len(k) >= 2)
        seeds = SeedSet(query="q", entries=[(kids[0], 1.0), (kids[1], 0.9)], n=2)
        paths, lca_nodes = lca_paths(h, seeds)
        assert sorted(map(tuple, paths)) == sorted([(kids[0], parent), (kids[1], parent)])
        assert lca_nodes[0][1] == parent

    def test_singleton_goes_to_root(self):
        rng = random.Random(10)
        h = make_random_hierarchy(rng, 25)
        seed = sorted(h.layers[0].entity_ids)[0]
        seeds = SeedSet(query="q", entries=[(seed, 1.0)], n=1)
        paths, lca_nodes = lca_paths(h, seeds)
        assert paths == [h.ancestors(seed)]
        assert lca_nodes == [([seed], h.ancestors(seed)[-1])]

    def test_union_matches_truncated_chain_oracle(self):
        rng = random.Random(11)
        h = make_random_hierarchy(rng, 60)
        leaves = sorted(h.layers[0].entity_ids)
        picked = rng.sample(leaves, 10)
        seeds = SeedSet(query="q", entries=[(eid, 1.0) for eid in picked], n=10)
        paths, _ = lca_paths(h, seeds)
        got_nodes = {eid for p in paths for eid in p}

        # oracle: group by root, per-group LCA by chain intersection, truncate
        groups = {}
        for eid in picked:
            groups.setdefault(h.ancestors(eid)[-1], []).append(eid)
        expected = set()
        for members in groups.values():
            if len(members) == 1:
                expected.update(h.ancestors(members[0]))
                continue
            common = set(h.ancestors(members[0]))
            for eid in members[1:]:
                common &= set(h.ancestors(eid))
            lca = min(common, key=lambda x: h.entities[x].layer)
            for eid in members:
                chain = h.ancestors(eid)
                expected.update(chain[: chain.index(lca) + 1])
        assert got_nodes == expected


class TestAssembleSubgraph:
    def build_two_group_hierarchy(self):
        h = Hierarchy()
        for i in range(4):
            h.entities[f"e{i}"] = Entity(
                id=f"e{i}", name=f"E{i}", description=f"d{i}", layer=0, source_chunk_ids=["c0"],
            )
            h.parent_map[f"e{i}"] = f"agg:1:{i // 2}"
        for j in range(2):
            h.entities[f"agg:1:{j}"] = Entity(
                id=f"agg:1:{j}", name=f"A{j}", description=f"ad{j}", layer=1
            )
        h.relations["r0"] = Relation(id="r0", source_id="e0", target_id="e1", description="seed pair", layer=0)
        h.relations["r1"] = Relation(id="r1", source_id="e2", target_id="e3", description="other pair", layer=0)
        h.relations["rx"] = Relation(
            id="rx", source_id="agg:1:0", target_id="agg:1:1", description="cluster link",
            layer=1, kind=RelationKind.INTER_CLUSTER_CONCATENATED,
        )
        h.layers = [
            GraphLayer(index=0, entity_ids={"e0", "e1", "e2", "e3"}, relation_ids={"r0", "r1"}),
            GraphLayer(index=1, entity_ids={"agg:1:0", "agg:1:1"}, relation_ids={"rx"}),
        ]
        return h

    def test_stored_inter_cluster_relation_included(self):
        h = self.build_two_group_hierarchy()
        seeds = SeedSet(query="q", entries=[("e0", 1.0), ("e2", 0.9)], n=2)
        paths, lca_nodes = lca_paths(h, seeds)
        sub = assemble_subgraph(h, paths, lca_nodes)
        assert "rx" in sub.inter_cluster_relations
        assert sub.node_ids == {"e0", "e2", "agg:1:0", "agg:1:1"}

    def test_seed_pair_layer0_relation_included(self):
        h = self.build_two_group_hierarchy()
        seeds = SeedSet(query="q", entries=[("e0", 1.0), ("e1", 0.9)], n=2)
        paths, lca_nodes = lca_paths(h, seeds)
        sub = assemble_subgraph(h, paths, lca_nodes)
        assert sub.path_relations == ["r0"]
        assert "r1" not in sub.path_relations

    def test_single_seed_no_inter_cluster(self):
        h = self.build_two_group_hierarchy()
        seeds = SeedSet(query="q", entries=[("e0", 1.0)], n=1)
        paths, lca_nodes = lca_paths(h, seeds)
        sub = assemble_subgraph(h, paths, lca_nodes)
        assert sub.inter_cluster_relations == []

    def test_matches_relation_filter_oracle_on_random_instances(self, embed_provider):
        rng = random.Random(12)
        for trial in range(10):
            h, embeddings = hierarchy_with_embeddings(rng, 50, embed_provider)
            # give layer 0 some relations
            leaves = sorted(h.layers[0].entity_ids)
            for k in range(40):
                a, b = rng.sample(leaves, 2)
                rid = f"r{trial}_{k}"
                h.relations[rid] = Relation(id=rid, source_id=a, target_id=b, description="x", layer=0)
                h.layers[0].relation_ids.add(rid)
            seeds = SeedSet(query="q", entries=[(eid, 1.0) for eid in rng.sample(leaves, 6)], n=6)
            paths, lca_nodes = lca_paths(h, seeds)
            sub = assemble_subgraph(h, paths, lca_nodes)

            node_ids = {eid for p in paths for eid in p}
            layer0_in = {eid for eid in node_ids if h.entities[eid].layer == 0}
            expected_path = sorted(
                rid for rid, r in h.relations.items()
                if r.layer == 0 and r.source_id in layer0_in and r.target_id in layer0_in
            )
            expected_inter = sorted(
                rid for rid, r in h.relations.items()
                if r.layer >= 1 and r.source_id in node_ids and r.target_id in node_ids
            )
            assert sub.path_relations == expected_path
            assert sub.inter_cluster_relations == expected_inter
            # soundness: every relation endpoint retrieved, every node on a path
            for rid in sub.path_relations + sub.inter_cluster_relations:
                r = h.relations[rid]
                assert r.source_id in sub.node_ids and r.target_id in sub.node_ids
            assert sub.node_ids == node_ids


class TestFlatPathRetrieve:
    def line_hierarchy(self, edges, n):
        h = Hierarchy()
        for i in range(n):
            h.entities[f"e{i}"] = Entity(id=f"e{i}", name=f"E{i}", description=f"d{i}", layer=0, source_chunk_ids=["c0"])
        relations = {}
        for k, (a, b) in enumerate(edges):
            relations[f"r{k}"] = Relation(id=f"r{k}", source_id=a, target_id=b, description="e", layer=0)
        h.relations = relations
        h.layers = [GraphLayer(index=0, entity_ids=set(h.entities), relation_ids=set(relations))]
        return h

    def test_adjacent_seeds(self):
        h = self.line_hierarchy([("e0", "e1"), ("e1", "e2")], 3)
        seeds = SeedSet(query="q", entries=[("e0", 1.0), ("e1", 0.9)], n=2)
        sub = flat_path_retrieve(h, seeds, max_hops=4)
        assert sub.node_ids == {"e0", "e1"}
        assert sub.path_relations == ["r0"]

    def test_disconnected_seeds_returned_alone(self):
        h = self.line_hierarchy([("e0", "e1")], 4)
        seeds = SeedSet(query="q", entries=[("e2", 1.0), ("e3", 0.9)], n=2)
        sub = flat_path_retrieve(h, seeds, max_hops=4)
        assert sub.node_ids == {"e2", "e3"}
        assert sub.path_relations == []

    def test_grid_matches_all_pairs_shortest_path_oracle(self):
        # 5x5 grid graph, Floyd-Warshall oracle
        n = 5
        name = lambda r, c: f"e{r}{c}"
        edges = []
        for r in range(n):
            for c in range(n):
                if c + 1 < n:
                    edges.append((name(r, c), name(r, c + 1)))
                if r + 1 < n:
                    edges.append((name(r, c), name(r + 1, c)))
        h = Hierarchy()
        for r in range(n):
            for c in range(n):
                h.entities[name(r, c)] = Entity(
                    id=name(r, c), name=name(r, c), description="d", layer=0, source_chunk_ids=["c0"]
                )
        relations = {
            f"r{k}": Relation(id=f"r{k}", source_id=a, target_id=b, description="e", layer=0)
            for k, (a, b) in enumerate(edges)
        }
        h.relations = relations
        h.layers = [GraphLayer(index=0, entity_ids=set(h.entities), relation_ids=set(relations))]

        nodes = sorted(h.entities)
        INF = 10**6
        dist = {a: {b: (0 if a == b else INF) for b in nodes} for a in nodes}
        for r in relations.values():
            dist[r.source_id][r.target_id] = 1
            dist[r.target_id][r.source_id] = 1
        for k in nodes:
            for i in nodes:
                for j in nodes:
                    if dist[i][k] + dist[k][j] < dist[i][j]:
                        dist[i][j] = dist[i][k] + dist[k][j]

        seed_ids = ["e00", "e24", "e41"]
        seeds = SeedSet(query="q", entries=[(s, 1.0) for s in seed_ids], n=3)
        max_hops = 8
        sub = flat_path_retrieve(h, seeds, max_hops=max_hops)

        expected_nodes = set(seed_ids)
        expected_relations = set()
        for a, b in itertools.combinations(seed_ids, 2):
            d = dist[a][b]
            if d > max_hops:
                continue
            for v in nodes:
                if dist[a][v] + dist[v][b] == d:
                    expected_nodes.add(v)
            for rid, r in relations.items():
                u, v = r.source_id, r.target_id
                if (
                    dist[a][u] + 1 + dist[v][b] == d
                    or dist[a][v] + 1 + dist[u][b] == d
                ):
                    expected_relations.add(rid)
        assert sub.node_ids == expected_nodes
        assert set(sub.path_relations) == expected_relations

    def test_max_hops_validation(self):
        h = self.line_hierarchy([("e0", "e1")], 2)
        seeds = SeedSet(query="q", entries=[("e0", 1.0)], n=1)
        with pytest.raises(InvalidArgumentError):
            flat_path_retrieve(h, seeds, max_hops=0)


def test_retrieve_end_to_end(embed_provider):
    rng = random.Random(13)
    h, embeddings = hierarchy_with_embeddings(rng, 40, embed_provider)
    seeds, sub = retrieve(h, embeddings, "glacier summit tundra", 5, embed_provider)
    assert len(seeds.entries) == 5
    assert set(seeds.entity_ids) <= sub.node_ids
    for chain in sub.paths:
        layers = [h.entities[eid].layer for eid in chain]
        assert layers == sorted(layers)
        assert len(set(layers)) == len(layers)


# Reference implementations: full scans over every entity or relation, which
# the query path replaces with the views Hierarchy.layer0_ids and
# Hierarchy.neighbours.


def scan_anchor_seeds(h, embeddings, query, n, embed_provider):
    qvec = embed_provider.embed_batch([query])[0]
    ids0 = sorted(h.layers[0].entity_ids)
    matrix = np.stack([embeddings[eid] for eid in ids0])
    scores = matrix @ qvec
    order = sorted(range(len(ids0)), key=lambda i: (-scores[i], ids0[i]))[:n]
    return [(ids0[i], float(scores[i])) for i in order]


def scan_assemble_subgraph(h, paths):
    node_ids = {eid for chain in paths for eid in chain}
    layer0_nodes = {eid for eid in node_ids if h.entities[eid].layer == 0}
    path_relations, inter_cluster = [], []
    for rid in sorted(h.relations):
        r = h.relations[rid]
        if r.layer == 0:
            if r.source_id in layer0_nodes and r.target_id in layer0_nodes:
                path_relations.append(rid)
        elif r.source_id in node_ids and r.target_id in node_ids:
            inter_cluster.append(rid)
    return node_ids, path_relations, inter_cluster


def scan_bfs_distances(adjacency, start, max_hops):
    dist = {start: 0}
    frontier = deque([start])
    while frontier:
        node = frontier.popleft()
        if dist[node] >= max_hops:
            continue
        for nxt in adjacency.get(node, ()):
            if nxt not in dist:
                dist[nxt] = dist[node] + 1
                frontier.append(nxt)
    return dist


def scan_flat_path_retrieve(h, seed_ids, max_hops):
    """Full BFS from both seeds of every pair and a scan of every layer-0 edge per pair."""
    adjacency, edge_relations = {}, {}
    for rid in sorted(h.layers[0].relation_ids):
        r = h.relations[rid]
        adjacency.setdefault(r.source_id, set()).add(r.target_id)
        adjacency.setdefault(r.target_id, set()).add(r.source_id)
        edge_relations.setdefault(tuple(sorted((r.source_id, r.target_id))), []).append(rid)
    node_ids, relation_ids = set(seed_ids), set()
    for i in range(len(seed_ids)):
        dist_a = scan_bfs_distances(adjacency, seed_ids[i], max_hops)
        for b in seed_ids[i + 1 :]:
            if b not in dist_a:
                continue
            d = dist_a[b]
            dist_b = scan_bfs_distances(adjacency, b, max_hops)
            on_path = {v for v, da in dist_a.items() if v in dist_b and da + dist_b[v] == d}
            node_ids.update(on_path)
            for (u, v), rids in edge_relations.items():
                if u in on_path and v in on_path:
                    du, dv = dist_a[u], dist_a[v]
                    if abs(du - dv) == 1 and du + dist_b[u] == d and dv + dist_b[v] == d:
                        relation_ids.update(rids)
    return node_ids, sorted(relation_ids)


def hierarchy_with_relations(rng, n_leaves, avg_degree, embed_provider):
    """Random hierarchy plus random layer-0 relations (parallel ones included)
    and same-layer relations between aggregates."""
    h, embeddings = hierarchy_with_embeddings(rng, n_leaves, embed_provider)
    leaves = sorted(h.layers[0].entity_ids)
    for k in range(int(n_leaves * avg_degree / 2)):
        a, b = rng.sample(leaves, 2)
        rid = f"r{k:04d}"
        h.relations[rid] = Relation(id=rid, source_id=a, target_id=b, description="x", layer=0)
        h.layers[0].relation_ids.add(rid)
        if k % 7 == 0:  # a second relation between the same two entities
            h.relations[rid + "p"] = Relation(id=rid + "p", source_id=b, target_id=a, description="y", layer=0)
            h.layers[0].relation_ids.add(rid + "p")
    for layer in h.layers[1:]:
        aggs = sorted(layer.entity_ids)
        for k in range(len(aggs)):
            if len(aggs) < 2:
                break
            a, b = rng.sample(aggs, 2)
            rid = f"ra{layer.index}_{k}"
            h.relations[rid] = Relation(
                id=rid, source_id=a, target_id=b, description="z", layer=layer.index,
                kind=RelationKind.INTER_CLUSTER_CONCATENATED,
            )
            layer.relation_ids.add(rid)
    return h, embeddings


def scan_relations_by_entity(h):
    """Entity id -> ids of the relations with that entity as an endpoint, by a scan of h.relations."""
    touching = {eid: set() for eid in h.entities}
    for rid, r in h.relations.items():
        touching[r.source_id].add(rid)
        touching[r.target_id].add(rid)
    return touching


def pair_relations(value):
    """The relation ids of a neighbour-row value: one id, or a tuple of a parallel pair's ids."""
    return list(value) if type(value) is tuple else [value]


def assert_neighbour_map_matches_scan(h):
    """Rows are symmetric, a tuple only for a pair joined more than once and
    in relation row order, and each row's values list every relation touching
    that entity exactly once."""
    touching = scan_relations_by_entity(h)
    row_of = {rid: j for j, rid in enumerate(h.structure.relation_ids)}
    assert h.neighbours.keys() == h.entities.keys()
    for eid, row in h.neighbours.items():
        listed = []
        for v, value in row.items():
            assert h.neighbours[v][eid] == value
            rids = pair_relations(value)
            assert type(value) is str or (len(rids) > 1 and rids == sorted(rids, key=row_of.__getitem__)), value
            for rid in rids:
                r = h.relations[rid]
                assert {r.source_id, r.target_id} == {eid, v}, (eid, v, rid)
            listed += rids
        assert sorted(listed) == sorted(touching[eid]), eid


def has_parallel_pair(h):
    return any(type(value) is tuple for row in h.neighbours.values() for value in row.values())


class TestNeighbourMap:
    """Hierarchy.neighbours lists exactly the relations that a scan of
    h.relations finds for each entity, parallel ones included."""

    def test_random_hierarchies(self, embed_provider):
        rng = random.Random(26)
        for _ in range(12):
            h, _ = hierarchy_with_relations(rng, rng.choice([15, 40, 80]), rng.choice([1.5, 3.0, 6.0]), embed_provider)
            assert has_parallel_pair(h), "hierarchy_with_relations adds parallel relations"
            assert_neighbour_map_matches_scan(h)

    def test_loaded_index(self, tmp_path, embed_provider, gen_provider):
        entities, relations, chunks = make_layer0(random.Random(27), 60, avg_degree=4)
        h, embeddings, _ = build_hierarchy(entities, relations, BuildParams(cluster_size=6, seed=0), embed_provider, gen_provider)
        save_index(h, embeddings, chunks, tmp_path / "index")
        loaded, _, _, _ = load_index(tmp_path / "index")
        assert len(loaded.layers) >= 3
        assert_neighbour_map_matches_scan(loaded)
        assert {rid: r.to_dict() for rid, r in loaded.relations.items()} == {rid: r.to_dict() for rid, r in h.relations.items()}


class ReadRecordingRelations(dict):
    """A relation map that records the ids read from it and fails on a full scan."""

    def __init__(self, relations):
        super().__init__(relations)
        self.read = set()

    def __getitem__(self, rid):
        self.read.add(rid)
        return super().__getitem__(rid)

    def get(self, rid, default=None):
        self.read.add(rid)
        return super().get(rid, default)

    def _scan(self, *args):
        raise AssertionError("the query path scanned every relation")

    __iter__ = keys = values = items = _scan


def test_query_reads_only_returned_relations(embed_provider):
    """Once the views exist, assemble_subgraph reads only the relations it
    returns and flat_path_retrieve reads none."""
    rng = random.Random(28)
    returned = 0
    for _ in range(6):
        h, embeddings = hierarchy_with_relations(rng, 80, 6.0, embed_provider)
        seeds, _ = retrieve(h, embeddings, "glacier summit", 8, embed_provider)
        flat_path_retrieve(h, seeds)  # builds the views, which read every relation once
        h.relations = ReadRecordingRelations(h.relations)
        for _ in range(4):
            seeds, sub = retrieve(h, embeddings, description(rng, length=6), rng.randint(4, 14), embed_provider)
            kept = set(sub.path_relations) | set(sub.inter_cluster_relations)
            assert h.relations.read <= kept
            returned += len(kept)
            h.relations.read.clear()
            flat = flat_path_retrieve(h, seeds, max_hops=4)
            assert h.relations.read == set()
            returned += len(flat.path_relations)
    assert returned > 0


class TestMatchesScanReference:
    """The indexed query path returns exactly what the full scans returned."""

    def test_random_hierarchies(self, embed_provider):
        rng = random.Random(21)
        for trial in range(12):
            n_leaves = rng.choice([15, 40, 80])
            h, embeddings = hierarchy_with_relations(rng, n_leaves, rng.choice([1.5, 3.0, 6.0]), embed_provider)
            for _ in range(4):
                query = description(rng, length=rng.randint(2, 8))
                n = rng.randint(1, 14)
                seeds = anchor_seeds(h, embeddings, query, n, embed_provider)
                assert seeds.entries == scan_anchor_seeds(h, embeddings, query, n, embed_provider)
                paths, lca_nodes = lca_paths(h, seeds)
                sub = assemble_subgraph(h, paths, lca_nodes)
                node_ids, path_rel, inter = scan_assemble_subgraph(h, paths)
                assert (sub.node_ids, sub.path_relations, sub.inter_cluster_relations) == (node_ids, path_rel, inter)
                for max_hops in range(1, 8):
                    flat = flat_path_retrieve(h, seeds, max_hops=max_hops)
                    expected = scan_flat_path_retrieve(h, seeds.entity_ids, max_hops)
                    assert (flat.node_ids, flat.path_relations) == expected, (trial, max_hops)

    def test_ties_at_the_cut_go_to_smaller_ids(self, embed_provider):
        rng = random.Random(22)
        h, table = hierarchy_with_embeddings(rng, 40, embed_provider)
        vectors = dict(table)
        leaves = sorted(h.layers[0].entity_ids)
        twins = rng.sample(leaves, 6)
        text = "orchid plateau quarry reef"
        for eid in twins:
            h.entities[eid].description = text
            vectors[eid] = embed_provider.embed_batch([text])[0]
        embeddings = EmbeddingTable.for_hierarchy(h, vectors)
        for n in (1, 3, 5, 6):
            seeds = anchor_seeds(h, embeddings, text, n, embed_provider)
            assert seeds.entity_ids == sorted(twins)[:n]
            assert len({score for _, score in seeds.entries}) == 1
            assert seeds.entries == scan_anchor_seeds(h, embeddings, text, n, embed_provider)
        # every score equal: the cut falls inside one tie spanning layer 0
        for eid in leaves:
            vectors[eid] = vectors[twins[0]]
        embeddings = EmbeddingTable.for_hierarchy(h, vectors)
        seeds = anchor_seeds(h, embeddings, "meadow nebula", 7, embed_provider)
        assert seeds.entity_ids == leaves[:7]

    def test_duplicate_seed_ids(self, embed_provider):
        rng = random.Random(23)
        h, _ = hierarchy_with_relations(rng, 30, 3.0, embed_provider)
        leaves = sorted(h.layers[0].entity_ids)
        seed_ids = [leaves[0], leaves[5], leaves[0], leaves[9]]
        seeds = SeedSet(query="q", entries=[(eid, 1.0) for eid in seed_ids], n=4)
        for max_hops in range(1, 5):
            flat = flat_path_retrieve(h, seeds, max_hops=max_hops)
            assert (flat.node_ids, flat.path_relations) == scan_flat_path_retrieve(h, seed_ids, max_hops)

    def test_adjacent_and_repeated_seeds(self, embed_provider):
        # pairs at distance 1 (a seed and its neighbour) and 0 (a seed listed twice)
        rng = random.Random(24)
        for trial in range(20):
            h, _ = hierarchy_with_relations(rng, rng.choice([15, 40]), rng.choice([1.5, 3.0, 6.0]), embed_provider)
            leaves = sorted(h.layers[0].entity_ids)
            seed_ids = rng.sample(leaves, rng.randint(1, 5))
            for eid in list(seed_ids):
                seed_ids += rng.sample(sorted(h.neighbours[eid]), min(2, len(h.neighbours[eid])))
            seed_ids += rng.choices(seed_ids, k=3)
            rng.shuffle(seed_ids)
            seeds = SeedSet(query="q", entries=[(eid, 1.0) for eid in seed_ids], n=len(seed_ids))
            for max_hops in range(1, 8):
                flat = flat_path_retrieve(h, seeds, max_hops=max_hops)
                assert (flat.node_ids, flat.path_relations) == scan_flat_path_retrieve(h, seed_ids, max_hops), (trial, max_hops)


def exact(entries):
    return [(eid, np.float64(score).tobytes()) for eid, score in entries]


def interleaved_hierarchy(rng, n_leaves, embed_provider, n_twins):
    """Random hierarchy whose layer-0 ids sort around the agg:... ids, so that
    layer 0 is not a contiguous block of the sorted ids; n_twins leaves share
    one description, so their scores tie exactly."""
    base = make_random_hierarchy(rng, n_leaves)
    rename = {eid: rng.choice("amz") + eid for eid in base.layers[0].entity_ids}
    h = Hierarchy(layers=[GraphLayer(index=0, entity_ids=set(rename.values()))] + base.layers[1:])
    for eid, e in base.entities.items():
        new = rename.get(eid, eid)
        h.entities[new] = Entity(id=new, name=new, description=e.description, layer=e.layer, source_chunk_ids=e.source_chunk_ids)
    h.parent_map = {rename.get(c, c): p for c, p in base.parent_map.items()}
    leaves = sorted(h.layers[0].entity_ids)
    for eid in rng.sample(leaves, n_twins):
        h.entities[eid].description = "orchid plateau quarry reef"
    ids = sorted(h.entities)
    vectors = dict(zip(ids, embed_provider.embed_batch([h.entities[eid].description for eid in ids])))
    return h, vectors


class TestAnchorMatchesStackReference:
    """Scoring a view of the table's layer-0 rows gives the same seeds and the
    same score bits as scan_anchor_seeds, which stacks the layer-0 vectors of
    a plain dict on every query."""

    def test_random_interleaved_hierarchies(self, embed_provider):
        rng = random.Random(31)
        for trial in range(12):
            h, vectors = interleaved_hierarchy(rng, rng.choice([15, 60, 200]), embed_provider, rng.randint(2, 8))
            assert validate_hierarchy(h) == []
            table = EmbeddingTable.for_hierarchy(h, vectors)
            rows0 = [i for i, eid in enumerate(sorted(h.entities)) if eid in h.layers[0].entity_ids]
            assert rows0 != list(range(len(rows0))), "layer 0 must not be a prefix of the sorted ids"
            assert table.ids[: len(rows0)] == h.layer0_ids
            twins = sorted(eid for eid in h.layer0_ids if h.entities[eid].description == "orchid plateau quarry reef")
            queries = [description(rng, length=rng.randint(2, 8)) for _ in range(3)] + ["orchid plateau quarry reef"]
            for query in queries:
                for n in (1, len(twins) - 1, len(twins), rng.randint(1, 30)):
                    got = anchor_seeds(h, table, query, n, embed_provider).entries
                    assert exact(got) == exact(scan_anchor_seeds(h, vectors, query, n, embed_provider)), (trial, query, n)
            # the twins tie exactly at the cut, and the smaller ids win
            seeds = anchor_seeds(h, table, "orchid plateau quarry reef", len(twins) - 1, embed_provider)
            assert seeds.entity_ids == twins[:-1]
            assert len({np.float64(score).tobytes() for _, score in seeds.entries}) == 1

    def test_table_is_read_only(self, embed_provider):
        h, table = hierarchy_with_embeddings(random.Random(32), 20, embed_provider)
        eid = h.layer0_ids[0]
        with pytest.raises(ValueError):
            table[eid][0] = 1.0
        with pytest.raises(ValueError):
            table.matrix[0, 0] = 1.0
        with pytest.raises(TypeError):
            table[eid] = np.zeros(table.matrix.shape[1])

    def test_rows_must_start_with_layer0(self, embed_provider):
        h, vectors = interleaved_hierarchy(random.Random(33), 30, embed_provider, 2)
        ids = sorted(vectors)
        sorted_table = EmbeddingTable(ids, np.stack([vectors[eid] for eid in ids]))
        with pytest.raises(InvalidArgumentError):
            anchor_seeds(h, sorted_table, "glacier summit", 5, embed_provider)
        with pytest.raises(InvalidArgumentError):
            retrieve(h, sorted_table, "glacier summit", 5, embed_provider)

    def test_for_hierarchy_needs_one_vector_per_entity(self, embed_provider):
        h, vectors = interleaved_hierarchy(random.Random(34), 30, embed_provider, 2)
        missing = dict(vectors)
        del missing[h.layer0_ids[3]]
        with pytest.raises(InvalidArgumentError):
            EmbeddingTable.for_hierarchy(h, missing)
        with pytest.raises(InvalidArgumentError):
            EmbeddingTable.for_hierarchy(h, {**vectors, "extra": vectors[h.layer0_ids[0]]})


def test_queried_index_freed_without_cycle_collector(tmp_path, embed_provider, gen_provider):
    """The cached query views hold no reference back to the hierarchy, so a
    loaded index is freed by reference counting alone."""
    entities, relations, chunks = make_layer0(random.Random(24), 40, avg_degree=3)
    h, embeddings, _ = build_hierarchy(entities, relations, BuildParams(cluster_size=8, seed=0), embed_provider, gen_provider)
    save_index(h, embeddings, chunks, tmp_path / "index")
    del h
    h, embeddings, _, _ = load_index(tmp_path / "index")
    gc.collect()
    gc.disable()
    try:
        seeds, sub = retrieve(h, embeddings, "glacier summit tundra", 6, embed_provider)
        flat_path_retrieve(h, seeds, max_hops=4)
        assert "layer0_ids" in vars(h) and "neighbours" in vars(h)
        ref = weakref.ref(h)
        del h
        assert ref() is None
    finally:
        gc.enable()
