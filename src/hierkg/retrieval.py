"""Query-time retrieval over a built hierarchy.

Seeds are anchored by dense similarity over layer-0 entities only, then
connected through the hierarchy: seeds sharing a root contribute their
ancestor chains truncated at the group's lowest common ancestor, and the
resulting subgraph picks up layer-0 relations between co-retrieved seeds
plus stored same-layer inter-cluster relations among retrieved
aggregates. A flat shortest-path BFS over layer 0 is kept as the
redundancy baseline.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError
from .model import Hierarchy

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
    embeddings: dict[str, np.ndarray],
    query: str,
    n: int,
    embed_provider,
) -> SeedSet:
    """Top-n layer-0 entities by cosine similarity to the query.

    Aggregates are never candidates; ties break toward the smaller id.
    """
    if not query.strip():
        raise InvalidArgumentError("query must be non-empty")
    if n < 1:
        raise InvalidArgumentError("n must be >= 1")
    qvec = embed_provider.embed_batch([query])[0]
    ids0 = sorted(h.layers[0].entity_ids)
    matrix = np.stack([embeddings[eid] for eid in ids0])
    scores = matrix @ qvec  # all vectors unit-length, so dot == cosine
    order = sorted(range(len(ids0)), key=lambda i: (-scores[i], ids0[i]))[:n]
    entries = [(ids0[i], float(scores[i])) for i in order]
    return SeedSet(query=query, entries=entries, n=n)


def lowest_common_ancestor(h: Hierarchy, a: str, b: str) -> str | None:
    """The common ancestor minimizing the combined chain length from a and b.

    Walking a's chain upward, the first node also on b's chain is exactly
    that ancestor; None when the two chains never meet.
    """
    chain_b = set(h.ancestors(b))
    for node in h.ancestors(a):
        if node in chain_b:
            return node
    return None


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
        lca = min(common, key=lambda node: h.entities[node].layer)
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

    layer0_nodes = {eid for eid in node_ids if h.entities[eid].layer == 0}
    path_relations: list[str] = []
    inter_cluster: list[str] = []
    for rid in sorted(h.relations):
        r = h.relations[rid]
        if r.layer == 0:
            if r.source_id in layer0_nodes and r.target_id in layer0_nodes:
                path_relations.append(rid)
        else:
            if r.source_id in node_ids and r.target_id in node_ids:
                inter_cluster.append(rid)
    return RetrievedSubgraph(
        node_ids=node_ids,
        path_relations=path_relations,
        inter_cluster_relations=inter_cluster,
        paths=[list(p) for p in paths],
        lca_nodes=list(lca_nodes),
    )


def retrieve(
    h: Hierarchy,
    embeddings: dict[str, np.ndarray],
    query: str,
    n: int,
    embed_provider,
) -> tuple[SeedSet, RetrievedSubgraph]:
    """Full structured retrieval: anchor, climb, assemble."""
    seeds = anchor_seeds(h, embeddings, query, n, embed_provider)
    paths, lca_nodes = lca_paths(h, seeds)
    sub = assemble_subgraph(h, paths, lca_nodes)
    return seeds, sub


def _bfs_distances(adjacency: dict[str, set[str]], start: str, max_hops: int) -> dict[str, int]:
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


def flat_path_retrieve(
    h: Hierarchy, seeds: SeedSet, max_hops: int = DEFAULT_MAX_HOPS
) -> RetrievedSubgraph:
    """Baseline: union of all shortest paths between seed pairs in layer 0.

    Every node and relation on any shortest path (length <= max_hops) is
    collected; disconnected seeds are returned alone.
    """
    if max_hops < 1:
        raise InvalidArgumentError("max_hops must be >= 1")
    layer0 = h.layers[0]
    adjacency: dict[str, set[str]] = {}
    edge_relations: dict[tuple[str, str], list[str]] = {}
    for rid in sorted(layer0.relation_ids):
        r = h.relations[rid]
        adjacency.setdefault(r.source_id, set()).add(r.target_id)
        adjacency.setdefault(r.target_id, set()).add(r.source_id)
        key = tuple(sorted((r.source_id, r.target_id)))
        edge_relations.setdefault(key, []).append(rid)

    seed_ids = seeds.entity_ids
    node_ids: set[str] = set(seed_ids)
    relation_ids: set[str] = set()
    for i in range(len(seed_ids)):
        dist_a = _bfs_distances(adjacency, seed_ids[i], max_hops)
        for j in range(i + 1, len(seed_ids)):
            b = seed_ids[j]
            if b not in dist_a:
                continue
            d = dist_a[b]
            dist_b = _bfs_distances(adjacency, b, max_hops)
            on_path = {v for v, da in dist_a.items() if v in dist_b and da + dist_b[v] == d}
            node_ids.update(on_path)
            for (u, v), rids in edge_relations.items():
                if u in on_path and v in on_path:
                    du, dv = dist_a[u], dist_a[v]
                    if abs(du - dv) == 1 and du + dist_b[u] == d and dv + dist_b[v] == d:
                        relation_ids.update(rids)
    return RetrievedSubgraph(
        node_ids=node_ids,
        path_relations=sorted(relation_ids),
        inter_cluster_relations=[],
        paths=[[eid] for eid in seed_ids],
        lca_nodes=[],
    )
