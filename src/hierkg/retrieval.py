"""Query-time retrieval over a built hierarchy.

Seeds are anchored by dense similarity over layer-0 entities only, with
one mat-vec over the layer-0 block of the EmbeddingTable that
build_hierarchy and load_index return (rows layer by layer, layer 0
first, each layer in sorted-id order), then
connected through the hierarchy: seeds sharing a root contribute their
ancestor chains truncated at the group's lowest common ancestor, and the
resulting subgraph picks up layer-0 relations between co-retrieved seeds
plus stored same-layer inter-cluster relations among retrieved
aggregates. A flat shortest-path search over layer 0 is kept as the
redundancy baseline.

Both paths find relations through one view, Hierarchy.neighbours, whose
rows are made on first read: the subgraph intersects each retrieved
node's neighbours with the node set and reads only the relations it
keeps. The baseline runs one BFS per seed, finds each seed pair's
shortest paths where the two seeds' BFS layers meet, and walks them in
toward each seed, taking the relation ids from the same rows; it reads
no relation.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, StoreError
from .model import EmbeddingTable, Hierarchy

DEFAULT_MAX_HOPS = 4


@dataclass
class SeedSet:
    query: str
    entries: list[tuple[str, float]]  # (entity_id, similarity), score-descending
    n: int

    @property
    def entity_ids(self) -> list[str]:
        return [eid for eid, _ in self.entries]

    def to_dict(self) -> dict:
        return {
            "query": self.query,
            "entries": [{"entity_id": eid, "score": score} for eid, score in self.entries],
            "n": self.n,
        }


@dataclass
class RetrievedSubgraph:
    node_ids: set[str] = field(default_factory=set)
    path_relations: list[str] = field(default_factory=list)  # stored relation ids on/between paths
    inter_cluster_relations: list[str] = field(default_factory=list)
    paths: list[list[str]] = field(default_factory=list)  # ancestor chains, layer-increasing
    lca_nodes: list[tuple[list[str], str]] = field(default_factory=list)  # (seed group, lca id)

    def parent_edges(self) -> list[tuple[str, str]]:
        """Child->parent links along the declared paths, deduplicated."""
        seen = set()
        out = []
        for chain in self.paths:
            for child, parent in zip(chain, chain[1:]):
                if (child, parent) not in seen:
                    seen.add((child, parent))
                    out.append((child, parent))
        return out

    def to_dict(self) -> dict:
        return {
            "node_ids": sorted(self.node_ids),
            "path_relations": list(self.path_relations),
            "inter_cluster_relations": list(self.inter_cluster_relations),
            "paths": [list(p) for p in self.paths],
            "lca_nodes": [{"seeds": list(g), "lca": l} for g, l in self.lca_nodes],
        }


def anchor_seeds(
    h: Hierarchy,
    embeddings: EmbeddingTable,
    query: str,
    n: int,
    embed_provider,
) -> SeedSet:
    """Top-n layer-0 entities by cosine similarity to the query.

    Aggregates are never candidates; ties break toward the smaller id.
    The table's rows must start with h.layer0_ids, as the tables from
    build_hierarchy, load_index and EmbeddingTable.for_hierarchy do.
    Raises StoreError, naming the first such entity, when a layer-0
    vector gives a score that is not finite (a NaN or infinite entry).
    """
    if not query.strip():
        raise InvalidArgumentError("query must be non-empty")
    if n < 1:
        raise InvalidArgumentError("n must be >= 1")
    ids0 = h.layer0_ids
    if embeddings.ids[: len(ids0)] != ids0:
        raise InvalidArgumentError("embedding table rows do not start with the layer-0 ids of the hierarchy")
    qvec = embed_provider.embed_batch([query])[0]
    dim = embeddings.matrix.shape[1]
    if qvec.shape != (dim,):
        raise InvalidArgumentError(
            f"query vector has shape {qvec.shape}, the index embeddings have dimension {dim}"
        )
    # score the layer-0 rows on their own: a mat-vec over all N rows can
    # round differently in the last bits, as BLAS blocks rows by position
    scores = embeddings.matrix[: len(ids0)] @ qvec  # all vectors unit-length, so dot == cosine
    # a NaN score passes no >= cut below: its entity never anchors, and a NaN at the cut anchors none
    for i in np.flatnonzero(~np.isfinite(scores))[:1].tolist():
        raise StoreError(f"layer-0 entity {ids0[i]}: embedding vector is not finite")
    candidates = range(len(ids0))
    if n < len(ids0):
        # everything scoring at least the n-th largest, so ties at the cut survive
        nth = np.partition(scores, len(ids0) - n)[len(ids0) - n]
        candidates = np.flatnonzero(scores >= nth).tolist()
    order = sorted(candidates, key=lambda i: (-scores[i], ids0[i]))[:n]
    entries = [(ids0[i], float(scores[i])) for i in order]
    return SeedSet(query=query, entries=entries, n=n)


def lca_paths(
    h: Hierarchy, seeds: SeedSet
) -> tuple[list[list[str]], list[tuple[list[str], str]]]:
    """Ancestor chains truncated at each root-group's common ancestor.

    Seeds are grouped by topmost ancestor; the group LCA is the
    lowest-layer node present on every member's chain. A singleton group
    keeps its full chain so the summary layers still reach the context.
    """
    if not seeds.entries:
        raise InvalidArgumentError("seed set is empty")
    chains = {eid: h.ancestors(eid) for eid in seeds.entity_ids}
    groups: dict[str, list[str]] = {}
    for eid in seeds.entity_ids:
        groups.setdefault(chains[eid][-1], []).append(eid)

    paths: list[list[str]] = []
    lca_nodes: list[tuple[list[str], str]] = []
    for root in sorted(groups):
        members = groups[root]
        if len(members) == 1:
            seed = members[0]
            paths.append(chains[seed])
            lca_nodes.append((members, chains[seed][-1]))
            continue
        common = set(chains[members[0]])
        for eid in members[1:]:
            common &= set(chains[eid])
        # chains climb one layer per step, so the first common node is the lowest
        lca = next(node for node in chains[members[0]] if node in common)
        lca_nodes.append((members, lca))
        for eid in members:
            chain = chains[eid]
            cut = chain.index(lca)
            paths.append(chain[: cut + 1])

    # deduplicate identical chains (two seeds may share a truncated path)
    seen: set[tuple[str, ...]] = set()
    unique_paths = []
    for p in paths:
        key = tuple(p)
        if key not in seen:
            seen.add(key)
            unique_paths.append(p)
    return unique_paths, lca_nodes


def assemble_subgraph(
    h: Hierarchy,
    paths: list[list[str]],
    lca_nodes: list[tuple[list[str], str]],
) -> RetrievedSubgraph:
    """Collect the retrieved node set and its relations.

    path_relations holds stored layer-0 relations between co-retrieved
    seeds (parent-child links are carried by the paths themselves);
    inter_cluster_relations holds stored relations whose endpoints are
    both retrieved aggregates at the same layer.
    """
    node_ids: set[str] = set()
    for chain in paths:
        node_ids.update(chain)

    # a relation joins two entities of its own layer, so the relations with
    # both endpoints retrieved split into the two lists by their layer alone
    path_relations: list[str] = []
    inter_cluster: list[str] = []
    for rid in sorted(_relations_joining(h, node_ids, node_ids)):
        (path_relations if h.relations[rid].layer == 0 else inter_cluster).append(rid)
    return RetrievedSubgraph(
        node_ids=node_ids,
        path_relations=path_relations,
        inter_cluster_relations=inter_cluster,
        paths=[list(p) for p in paths],
        lca_nodes=list(lca_nodes),
    )


def retrieve(
    h: Hierarchy,
    embeddings: EmbeddingTable,
    query: str,
    n: int,
    embed_provider,
) -> tuple[SeedSet, RetrievedSubgraph]:
    """Full structured retrieval: anchor, climb, assemble."""
    seeds = anchor_seeds(h, embeddings, query, n, embed_provider)
    paths, lca_nodes = lca_paths(h, seeds)
    sub = assemble_subgraph(h, paths, lca_nodes)
    return seeds, sub


def _relations_joining(h: Hierarchy, sources: Iterable[str], targets: set[str]) -> set[str]:
    """Ids of the stored relations joining a node of sources to a node of targets."""
    neighbours = h.neighbours
    found: set[str] = set()
    for u in sources:
        row = neighbours[u]
        for v in row.keys() & targets:
            rid = row[v]
            if type(rid) is tuple:  # the relations of a parallel pair
                found.update(rid)
            else:
                found.add(rid)
    return found


def _bfs_layers(neighbours: dict[str, dict], start: str, depth: int) -> list[set[str]]:
    """Nodes by hop distance from start, up to depth: layers[k] holds those
    exactly k hops away, and is empty past the last node reached."""
    layers = [{start}]
    seen = {start}
    while len(layers) <= depth:
        frontier = set().union(*map(neighbours.__getitem__, layers[-1])) - seen
        layers.append(frontier)
        seen |= frontier
    return layers


def _walk_in(
    neighbours: dict[str, dict], shells: list[set[str]], stepped: set[str], frontier: set[str], hops: int, relation_ids: set[str]
) -> None:
    """Add the shortest paths from frontier in to a seed to stepped and relation_ids.

    frontier holds nodes hops away from the seed whose BFS layers are
    shells. A node's step in is its neighbours one layer closer, with
    every relation joining it to them. stepped holds the nodes already
    stepped toward this seed, whose paths in are added already, so each
    node is stepped at most once per seed.
    """
    for k in range(hops, 0, -1):
        frontier = frontier - stepped
        if not frontier:
            return
        stepped |= frontier
        inner, step = shells[k - 1], set()
        for v in frontier:
            row = neighbours[v]
            for w in row.keys() & inner:
                step.add(w)
                rid = row[w]
                if type(rid) is tuple:  # the relations of a parallel pair
                    relation_ids.update(rid)
                else:
                    relation_ids.add(rid)
        frontier = step


def flat_path_retrieve(
    h: Hierarchy, seeds: SeedSet, max_hops: int = DEFAULT_MAX_HOPS
) -> RetrievedSubgraph:
    """Baseline: union of all shortest paths between seed pairs in layer 0.

    Every node and relation on any shortest path (length <= max_hops) is
    collected; disconnected seeds are returned alone. A pair's paths are
    walked from their middle layer in toward each seed (_walk_in).
    """
    if max_hops < 1:
        raise InvalidArgumentError("max_hops must be >= 1")
    # every neighbour of a layer-0 entity is a layer-0 entity, joined by a layer-0 relation
    neighbours = h.neighbours
    seed_ids = seeds.entity_ids
    radius = (max_hops + 1) // 2
    balls = {eid: _bfs_layers(neighbours, eid, radius) for eid in seed_ids}
    stepped: dict[str, set[str]] = {eid: set() for eid in seed_ids}
    relation_ids: set[str] = set()
    for i, a in enumerate(seed_ids):
        ball_a = balls[a]
        for b in seed_ids[i + 1 :]:
            ball_b = balls[b]
            # d(a, b) is the first t at which shell ceil(t/2) of a meets shell
            # floor(t/2) of b; that meeting is the paths' middle layer
            for d in range(max_hops + 1):
                middle = ball_a[(d + 1) // 2] & ball_b[d // 2]
                if middle:
                    break
            if middle:
                _walk_in(neighbours, ball_a, stepped[a], middle, (d + 1) // 2, relation_ids)
                _walk_in(neighbours, ball_b, stepped[b], middle, d // 2, relation_ids)
    return RetrievedSubgraph(
        node_ids=set(seed_ids).union(*stepped.values()),
        path_relations=sorted(relation_ids),
        inter_cluster_relations=[],
        paths=[[eid] for eid in seed_ids],
        lca_nodes=[],
    )
