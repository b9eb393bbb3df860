"""Correctness checks computed apart from the program.

Each check re-derives what a result should be from the inputs by brute
force (its own ancestor walks, its own BFS, its own chunk counting) and
returns a list of human-readable problems; an empty list means the result
passed. The checks only read the program's data classes, they never call
its retrieval, clustering or context code.
"""

from __future__ import annotations

from collections import Counter, deque

import numpy as np

SCORE_SLACK = 1e-12  # scores computed in another order may differ in the last bits
AGGREGATED = "inter_cluster_aggregated"


def _chain(parent_map: dict[str, str], eid: str) -> list[str]:
    chain = [eid]
    while chain[-1] in parent_map and len(chain) <= len(parent_map) + 1:
        chain.append(parent_map[chain[-1]])
    return chain


def build_problems(h, params, entity_gen_calls: int, relation_gen_calls: int) -> list[str]:
    """Structural and aggregation checks on one built hierarchy."""
    problems: list[str] = []
    layer_of = {eid: e.layer for eid, e in h.entities.items()}
    top = len(h.layers) - 1

    for eid in sorted(h.layers[0].entity_ids):
        chain = _chain(h.parent_map, eid)
        layers = [layer_of.get(node) for node in chain]
        if layers != list(range(top + 1)):
            problems.append(f"entity {eid}: ancestor layers {layers}, expected 0..{top}")

    children = Counter(h.parent_map.values())
    for agg, count in sorted(children.items()):
        if count > params.cluster_size:
            problems.append(f"aggregate {agg}: {count} children > cluster_size {params.cluster_size}")

    top_size = len(h.layers[-1].entity_ids)
    if top_size > params.stop_when_entities_leq and len(h.layers) != params.max_layers:
        problems.append(f"top layer holds {top_size} entities with only {len(h.layers)} layers")

    pairs_seen = 0
    for k in range(1, len(h.layers)):
        crossing: Counter = Counter()
        for rid in h.layers[k - 1].relation_ids:
            r = h.relations[rid]
            pa, pb = h.parent_map.get(r.source_id), h.parent_map.get(r.target_id)
            if pa is not None and pb is not None and pa != pb:
                crossing[(min(pa, pb), max(pa, pb))] += 1
        stored: dict[tuple[str, str], list] = {}
        for rid in h.layers[k].relation_ids:
            r = h.relations[rid]
            key = (min(r.source_id, r.target_id), max(r.source_id, r.target_id))
            stored.setdefault(key, []).append(r)
        if set(stored) != set(crossing):
            problems.append(
                f"layer {k}: {len(set(stored) ^ set(crossing))} aggregate pairs differ from the crossing pairs"
            )
        tau = params.tau_for_layer(k)
        for key, rels in sorted(stored.items()):
            if len(rels) != 1:
                problems.append(f"layer {k}: pair {key} stored {len(rels)} times")
            summarized = crossing.get(key, 0) > tau
            for r in rels:
                if (r.kind.value == AGGREGATED) != summarized:
                    problems.append(f"relation {r.id}: kind {r.kind.value} with {crossing.get(key, 0)} crossings, tau {tau}")
        pairs_seen += sum(1 for n in crossing.values() if n > tau)

    aggregates = sum(len(layer.entity_ids) for layer in h.layers[1:])
    if entity_gen_calls != aggregates:
        problems.append(f"{entity_gen_calls} entity generation calls for {aggregates} clusters")
    if relation_gen_calls != pairs_seen:
        problems.append(f"{relation_gen_calls} relation generation calls for {pairs_seen} pairs over tau")
    return problems


def roundtrip_problems(built, loaded) -> list[str]:
    """Entities, relations, parent map and embeddings survive save + load."""
    (h, emb), (h2, emb2) = built, loaded
    problems = []
    if {k: e.to_dict() for k, e in h.entities.items()} != {k: e.to_dict() for k, e in h2.entities.items()}:
        problems.append("entities differ after save and load")
    if {k: r.to_dict() for k, r in h.relations.items()} != {k: r.to_dict() for k, r in h2.relations.items()}:
        problems.append("relations differ after save and load")
    if h.parent_map != h2.parent_map:
        problems.append("parent_map differs after save and load")
    if emb.keys() != emb2.keys() or any(not np.array_equal(emb[k], emb2[k]) for k in emb):
        problems.append("embeddings differ after save and load")
    return problems


def seed_problems(h, embeddings, qvec: np.ndarray, n: int, entries: list[tuple[str, float]]) -> list[str]:
    """Seeds are the brute-force top-n layer-0 entities by cosine, ordered by
    (score descending, id ascending)."""
    ids = sorted(eid for eid, e in h.entities.items() if e.layer == 0)
    scores = {eid: float(np.dot(embeddings[eid], qvec)) for eid in ids}
    expected = sorted(ids, key=lambda eid: (-scores[eid], eid))[:n]
    got = [eid for eid, _ in entries]
    if got == expected:
        return []
    if len(got) != len(expected) or len(set(got)) != len(got) or not set(got) <= scores.keys():
        return [f"seeds {got} are not {n} distinct layer-0 entities"]
    # tolerate order flips between scores equal up to rounding
    cutoff = scores[expected[-1]]
    problems = []
    for eid, score in entries:
        if abs(score - scores[eid]) > 1e-9:
            problems.append(f"seed {eid}: score {score} != cosine {scores[eid]}")
        if scores[eid] < cutoff - SCORE_SLACK:
            problems.append(f"seed {eid}: cosine {scores[eid]} below the top-{n} cutoff {cutoff}")
    for (a, sa), (b, sb) in zip(entries, entries[1:]):
        if sa < sb - SCORE_SLACK or (sa == sb and a > b):
            problems.append(f"seeds {a}, {b} out of (score desc, id asc) order")
    return problems


def lean_problems(h, seed_ids: list[str], sub) -> list[str]:
    """LCA groups, truncated paths and relation lists, re-derived by brute force."""
    problems = []
    chains = {eid: _chain(h.parent_map, eid) for eid in seed_ids}
    groups: dict[str, list[str]] = {}
    for eid in seed_ids:
        groups.setdefault(chains[eid][-1], []).append(eid)
    expected_lca = {}
    expected_nodes: set[str] = set()
    for members in groups.values():
        if len(members) == 1:  # a lone seed keeps its whole chain up to the root
            lca = chains[members[0]][-1]
        else:
            common = set(chains[members[0]]).intersection(*(chains[m] for m in members[1:]))
            lca = min(common, key=lambda node: h.entities[node].layer)
        expected_lca[tuple(sorted(members))] = lca
        for m in members:
            expected_nodes.update(chains[m][: chains[m].index(lca) + 1])
    got_lca = {tuple(sorted(members)): lca for members, lca in sub.lca_nodes}
    if got_lca != expected_lca:
        problems.append(f"LCA groups {got_lca} != {expected_lca}")
    if sub.node_ids != expected_nodes:
        problems.append(f"node set differs from the truncated ancestor chains by {len(sub.node_ids ^ expected_nodes)}")
    layer0 = {eid for eid in expected_nodes if h.entities[eid].layer == 0}
    expected_path = sorted(
        rid for rid, r in h.relations.items() if r.layer == 0 and r.source_id in layer0 and r.target_id in layer0
    )
    expected_inter = sorted(
        rid
        for rid, r in h.relations.items()
        if r.layer >= 1 and r.source_id in expected_nodes and r.target_id in expected_nodes
    )
    if list(sub.path_relations) != expected_path:
        problems.append("path_relations differ from the brute-force filter")
    if list(sub.inter_cluster_relations) != expected_inter:
        problems.append("inter_cluster_relations differ from the brute-force filter")
    return problems


def layer0_adjacency(h) -> dict[str, set[str]]:
    adj: dict[str, set[str]] = {}
    for rid in h.layers[0].relation_ids:
        r = h.relations[rid]
        adj.setdefault(r.source_id, set()).add(r.target_id)
        adj.setdefault(r.target_id, set()).add(r.source_id)
    return adj


def _bfs(adj: dict[str, set[str]], start: str, limit: int) -> dict[str, int]:
    dist = {start: 0}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        if dist[u] == limit:
            continue
        for v in adj.get(u, ()):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def flat_problems(adj: dict[str, set[str]], seed_ids: list[str], max_hops: int, flat_sub) -> list[str]:
    """Flat node set = seeds plus every node on a shortest seed-to-seed path
    of at most max_hops, from the benchmark's own BFS."""
    dist = {s: _bfs(adj, s, max_hops) for s in seed_ids}
    expected = set(seed_ids)
    for i, a in enumerate(seed_ids):
        for b in seed_ids[i + 1 :]:
            d = dist[a].get(b)
            if d is None:
                continue
            expected.update(v for v, da in dist[a].items() if da + dist[b].get(v, max_hops + 1) == d)
    if flat_sub.node_ids != expected:
        return [f"flat node set differs from the BFS oracle by {len(flat_sub.node_ids ^ expected)} nodes"]
    return []


def bundle_problems(h, seed_ids: list[str], chunks, top_c: int, bundle) -> list[str]:
    """Token total matches the rendering; the chunk section is the counting top-c."""
    problems = []
    words = len(bundle.rendering().split())
    if bundle.total_tokens != words:
        problems.append(f"total_tokens {bundle.total_tokens} != {words} whitespace tokens")
    counts: Counter = Counter()
    for eid in seed_ids:
        counts.update(cid for cid in set(h.entities[eid].source_chunk_ids) if cid in chunks)
    expected = [cid for cid, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:top_c]]
    got = [line.split(" | ", 1)[0] for line in bundle.chunk_section.splitlines()[1:]]
    if got != expected:
        problems.append(f"chunk section {got} != counting top-{top_c} {expected}")
    return problems
