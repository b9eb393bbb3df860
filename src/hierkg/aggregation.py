"""Bottom-up hierarchy construction.

Each pass clusters the current top layer, generates one aggregate entity
per cluster, links children to their new parent, and materializes
inter-cluster relations: an LLM summary when the connectivity strength
(count of crossing lower-layer relations) exceeds the threshold, a
deterministic concatenation otherwise, and nothing at all for pairs with
no crossing relations.

There is one build path. Every layer chooses m = ceil(n / cluster_size),
fits the mixture (fit_gmm, with the fixed EM_MAX_ITERS and EM_TOL of
clustering) and splits any cluster above cluster_size (split_oversized).
Passes repeat until the top layer holds at most stop_when_entities_leq
entities or max_layers layers exist.

The vectors live in one float64 matrix per layer, rows in sorted-id
order: build_hierarchy embeds each layer with one embed_batch call and
keeps the (n, d) array it returns as the layer's matrix, without a copy;
clustering works on row indices of the top layer's matrix, and the
layer matrices stack into the returned EmbeddingTable in its row order.
"""

from __future__ import annotations

import logging
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .clustering import choose_num_components, fit_gmm, split_oversized
from .errors import InvalidArgumentError
from .model import BuildParams, EmbeddingTable, Entity, GraphLayer, Hierarchy, Relation, RelationKind

logger = logging.getLogger(__name__)

# build_layer names layer k's aggregates AGGREGATE_ID_PREFIX + "k:j" and its
# relations AGGREGATE_ID_PREFIX + "k:rj"; no layer-0 id may start with it
AGGREGATE_ID_PREFIX = "agg:"


@dataclass
class InterClusterEvidence:
    pair: tuple[str, str]  # aggregate ids in canonical (sorted) order
    cross_relation_ids: list[str]

    @property
    def strength(self) -> int:
        return len(self.cross_relation_ids)


@dataclass
class BuildReport:
    layer_entity_counts: list[int] = field(default_factory=list)
    layer_relation_counts: list[int] = field(default_factory=list)
    lambda_histogram: Counter = field(default_factory=Counter)
    entity_generation_calls: int = 0
    relation_generation_calls: int = 0
    embed_calls: int = 0

    def to_dict(self) -> dict:
        return {
            "layer_entity_counts": self.layer_entity_counts,
            "layer_relation_counts": self.layer_relation_counts,
            "lambda_histogram": {str(k): v for k, v in sorted(self.lambda_histogram.items())},
            "entity_generation_calls": self.entity_generation_calls,
            "relation_generation_calls": self.relation_generation_calls,
            "embed_calls": self.embed_calls,
        }


def bucket_relations(
    h: Hierarchy,
    layer: GraphLayer,
    clusters: list[list[str]],
    aggregate_ids: list[str],
) -> tuple[list[list[str]], list[InterClusterEvidence]]:
    """One sorted pass over the layer's relations, split by cluster label.

    clusters[j] lists the entity ids of cluster j. Returns, per cluster j,
    the sorted ids of the layer's relations with both endpoints in
    clusters[j], and the crossing-relation evidence for every cluster pair
    with strength > 0. aggregate_ids[j] is the aggregate generated for
    clusters[j].
    """
    label_of = {eid: j for j, cluster in enumerate(clusters) for eid in cluster}
    intra: list[list[str]] = [[] for _ in clusters]
    by_pair: dict[tuple[str, str], list[str]] = {}
    for rid in sorted(layer.relation_ids):
        r = h.relations[rid]
        ja = label_of.get(r.source_id)
        jb = label_of.get(r.target_id)
        if ja is None or jb is None:
            continue
        if ja == jb:
            intra[ja].append(rid)
            continue
        pair = tuple(sorted((aggregate_ids[ja], aggregate_ids[jb])))
        by_pair.setdefault(pair, []).append(rid)
    evidence = [InterClusterEvidence(pair=p, cross_relation_ids=rids) for p, rids in sorted(by_pair.items())]
    return intra, evidence


def _run_ordered(tasks, fn, max_workers: int):
    """Apply fn over tasks, preserving input order; threads only if asked."""
    if max_workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(fn, tasks))


def build_layer(
    h: Hierarchy,
    params: BuildParams,
    gen_provider,
    X: np.ndarray,
    report: BuildReport | None = None,
    max_workers: int = 1,
) -> tuple[GraphLayer, list[InterClusterEvidence]]:
    """Aggregate the current top layer into a new layer appended to h.

    X is the top layer's embedding matrix, one row per entity in sorted-id
    order.
    """
    lower = h.layers[-1]
    new_index = lower.index + 1
    if len(lower.entity_ids) < 2:
        raise InvalidArgumentError("cannot aggregate a layer with fewer than 2 entities")

    ids = sorted(lower.entity_ids)
    seed = params.seed + new_index
    m = choose_num_components(len(ids), params.cluster_size)
    assignment = fit_gmm(X, m, seed=seed)
    # non-empty clusters ordered by first row, the order the aggregate ids follow
    assignment = split_oversized(assignment, params.cluster_size, X, seed=seed)

    clusters = [[ids[i] for i in rows] for rows in assignment.clusters]
    aggregate_ids = [f"{AGGREGATE_ID_PREFIX}{new_index}:{ordinal}" for ordinal in range(len(clusters))]
    intra, evidence = bucket_relations(h, lower, clusters, aggregate_ids)

    def _gen_entity(task: tuple[list[str], list[str]]):
        members, intra_ids = task
        pairs = [(h.entities[eid].name, h.entities[eid].description) for eid in members]
        return gen_provider.generate_aggregate_entity(
            pairs, [h.relations[rid].description for rid in intra_ids]
        )

    results = _run_ordered(list(zip(clusters, intra)), _gen_entity, max_workers)

    new_layer = GraphLayer(index=new_index)
    for agg_id, members, result in zip(aggregate_ids, clusters, results):
        h.entities[agg_id] = Entity(
            id=agg_id,
            name=result.name,
            description=result.description,
            layer=new_index,
        )
        new_layer.entity_ids.add(agg_id)
        for eid in members:
            h.parent_map[eid] = agg_id

    tau = params.tau
    name_desc = {aid: (h.entities[aid].name, h.entities[aid].description) for aid in aggregate_ids}

    def _gen_relation(ev: InterClusterEvidence):
        a, b = ev.pair
        descs = [h.relations[rid].description for rid in sorted(ev.cross_relation_ids)]
        if ev.strength > tau:
            text = gen_provider.generate_aggregate_relation(name_desc[a], name_desc[b], descs)
            return RelationKind.INTER_CLUSTER_AGGREGATED, text
        return RelationKind.INTER_CLUSTER_CONCATENATED, "; ".join(descs)

    relation_results = _run_ordered(evidence, _gen_relation, max_workers)
    for ordinal, (ev, (kind, text)) in enumerate(zip(evidence, relation_results)):
        rid = f"{AGGREGATE_ID_PREFIX}{new_index}:r{ordinal}"
        a, b = ev.pair
        h.relations[rid] = Relation(
            id=rid, source_id=a, target_id=b, description=text, layer=new_index, kind=kind
        )
        new_layer.relation_ids.add(rid)

    h.layers.append(new_layer)

    if report is not None:
        report.entity_generation_calls += len(clusters)
        report.relation_generation_calls += sum(1 for ev in evidence if ev.strength > tau)
        for ev in evidence:
            report.lambda_histogram[ev.strength] += 1
    logger.info(
        "built layer %d: %d aggregates, %d inter-cluster relations (tau=%d)",
        new_index,
        len(aggregate_ids),
        len(new_layer.relation_ids),
        tau,
    )
    return new_layer, evidence


def _embed_layer(h: Hierarchy, layer: GraphLayer, embed_provider, report: BuildReport, dim: int | None = None) -> np.ndarray:
    """The layer's (n, d) float64 embedding matrix, rows in sorted-id order:
    the array one embed_batch call returns, kept without a copy.

    dim is layer 0's d, which every later layer must match; None for layer 0.
    """
    texts = [h.entities[eid].description for eid in sorted(layer.entity_ids)]
    vectors = embed_provider.embed_batch(texts)
    report.embed_calls += 1
    shape = vectors.shape
    expected = (len(texts), shape[-1] if dim is None else dim)
    if shape != expected:
        raise InvalidArgumentError(f"layer {layer.index} embedding batch has shape {shape}, expected {expected}")
    return vectors


def build_hierarchy(
    entities: dict[str, Entity],
    relations: dict[str, Relation],
    params: BuildParams,
    embed_provider,
    gen_provider,
    max_workers: int = 1,
) -> tuple[Hierarchy, EmbeddingTable, BuildReport]:
    """Build the full hierarchy from a validated layer-0 graph.

    Returns the hierarchy, the EmbeddingTable of every entity (layer 0
    plus all aggregates, rows in layer order), and a build report for
    operator output. h.entities shares the caller's Entity objects; the
    build never writes to them, since parent links live only in
    h.parent_map. An entity or relation id that starts with
    AGGREGATE_ID_PREFIX is an InvalidArgumentError, raised before any
    provider call; so is max_workers below 1.
    """
    if max_workers < 1:
        raise InvalidArgumentError(f"max_workers must be >= 1, got {max_workers}")
    if not entities:
        raise InvalidArgumentError("layer 0 is empty")
    reserved = sorted(i for ids in (entities, relations) for i in ids if i.startswith(AGGREGATE_ID_PREFIX))
    if reserved:
        raise InvalidArgumentError(f"ids {reserved[:3]} start with {AGGREGATE_ID_PREFIX!r}, which aggregate ids use")
    layer0 = GraphLayer(index=0, entity_ids=set(entities), relation_ids=set(relations))
    h = Hierarchy(
        entities=dict(entities),
        relations=dict(relations),
        layers=[layer0],
        parent_map={},
        build_params=params,
    )
    report = BuildReport()

    blocks = [_embed_layer(h, layer0, embed_provider, report)]
    while True:
        top = h.layers[-1]
        if len(top.entity_ids) <= params.stop_when_entities_leq:
            break
        if len(h.layers) >= params.max_layers:
            break
        new_layer, _ = build_layer(h, params, gen_provider, blocks[-1], report, max_workers=max_workers)
        blocks.append(_embed_layer(h, new_layer, embed_provider, report, dim=blocks[0].shape[1]))

    for layer in h.layers:
        report.layer_entity_counts.append(len(layer.entity_ids))
        report.layer_relation_counts.append(len(layer.relation_ids))
    return h, EmbeddingTable(EmbeddingTable.row_order(h), np.concatenate(blocks)), report
