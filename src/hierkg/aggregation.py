"""Bottom-up hierarchy construction.

Each pass clusters the current top layer, generates one aggregate entity
per cluster, links children to their new parent, and materializes
inter-cluster relations: an LLM summary when the connectivity strength
(count of crossing lower-layer relations) exceeds the threshold, a
deterministic concatenation otherwise, and nothing at all for pairs with
no crossing relations.
"""

from __future__ import annotations

import logging
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .clustering import ClusterAssignment, choose_num_components, fit_gmm, split_oversized
from .errors import InvalidArgumentError
from .model import BuildParams, EmbeddingTable, Entity, GraphLayer, Hierarchy, Relation, RelationKind

logger = logging.getLogger(__name__)


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


def intra_cluster_relations(
    h: Hierarchy, layer: GraphLayer, cluster: set[str]
) -> list[str]:
    """Relation ids of the layer with both endpoints inside the cluster."""
    out = []
    for rid in sorted(layer.relation_ids):
        r = h.relations[rid]
        if r.source_id in cluster and r.target_id in cluster:
            out.append(rid)
    return out


def bucket_relations(
    h: Hierarchy,
    layer: GraphLayer,
    assignment: ClusterAssignment,
    aggregate_ids: list[str],
) -> tuple[list[list[str]], list[InterClusterEvidence]]:
    """One sorted pass over the layer's relations, split by cluster label.

    Returns, per cluster j, the ids that intra_cluster_relations would give
    for assignment.clusters[j], and the crossing-relation evidence for
    every cluster pair with strength > 0. aggregate_ids[j] is the
    aggregate generated for assignment.clusters[j].
    """
    label_of = assignment.labels()
    intra: list[list[str]] = [[] for _ in assignment.clusters]
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
    embed_provider,
    gen_provider,
    embeddings: dict[str, np.ndarray],
    report: BuildReport | None = None,
    num_components: int | None = None,
    max_workers: int = 1,
) -> tuple[GraphLayer, list[InterClusterEvidence]]:
    """Aggregate the current top layer into a new layer appended to h."""
    lower = h.layers[-1]
    new_index = lower.index + 1
    if len(lower.entity_ids) < 2:
        raise InvalidArgumentError("cannot aggregate a layer with fewer than 2 entities")

    lower_embeddings = {eid: embeddings[eid] for eid in lower.entity_ids}
    m = num_components if num_components is not None else choose_num_components(
        len(lower.entity_ids), params.cluster_size
    )
    assignment = fit_gmm(
        lower_embeddings,
        m,
        seed=params.seed + new_index,
        max_iters=params.gmm_max_iters,
        tol=params.gmm_tol,
        layer=lower.index,
    )
    if num_components is None:
        assignment = split_oversized(
            assignment,
            params.cluster_size,
            lower_embeddings,
            seed=params.seed + new_index,
            max_iters=params.gmm_max_iters,
            tol=params.gmm_tol,
        )

    clusters = sorted((sorted(c) for c in assignment.clusters if c), key=lambda c: c[0])
    aggregate_ids = [f"agg:{new_index}:{ordinal}" for ordinal in range(len(clusters))]
    # canonicalize the assignment to the ordering used for id generation
    ordered_assignment = ClusterAssignment(layer=lower.index, clusters=[set(c) for c in clusters])
    intra, evidence = bucket_relations(h, lower, ordered_assignment, aggregate_ids)

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

    tau = params.tau_for_layer(new_index)
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
        rid = f"agg:{new_index}:r{ordinal}"
        a, b = ev.pair
        h.relations[rid] = Relation(
            id=rid, source_id=a, target_id=b, description=text, layer=new_index, kind=kind
        )
        new_layer.relation_ids.add(rid)

    # embed the new descriptions now so the next pass needs no second walk
    vectors = embed_provider.embed_batch([h.entities[aid].description for aid in aggregate_ids])
    for aid, vec in zip(aggregate_ids, vectors):
        embeddings[aid] = vec

    h.layers.append(new_layer)

    if report is not None:
        report.entity_generation_calls += len(clusters)
        report.relation_generation_calls += sum(1 for ev in evidence if ev.strength > tau)
        report.embed_calls += 1
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
    h.parent_map.
    """
    if not entities:
        raise InvalidArgumentError("layer 0 is empty")
    layer0 = GraphLayer(index=0, entity_ids=set(entities), relation_ids=set(relations))
    h = Hierarchy(
        entities=dict(entities),
        relations=dict(relations),
        layers=[layer0],
        parent_map={},
        build_params=params,
    )
    report = BuildReport()

    ids0 = sorted(layer0.entity_ids)
    embeddings: dict[str, np.ndarray] = {}
    vectors = embed_provider.embed_batch([h.entities[eid].description for eid in ids0])
    for eid, vec in zip(ids0, vectors):
        embeddings[eid] = vec
    report.embed_calls += 1

    while True:
        top = h.layers[-1]
        if len(top.entity_ids) <= params.stop_when_entities_leq:
            break
        if len(h.layers) >= params.max_layers:
            break
        build_layer(h, params, embed_provider, gen_provider, embeddings, report, max_workers=max_workers)

    if params.single_root and len(h.layers[-1].entity_ids) > 1 and len(h.layers) < params.max_layers:
        build_layer(
            h,
            params,
            embed_provider,
            gen_provider,
            embeddings,
            report,
            num_components=1,
            max_workers=max_workers,
        )

    for layer in h.layers:
        report.layer_entity_counts.append(len(layer.entity_ids))
        report.layer_relation_counts.append(len(layer.relation_ids))
    return h, EmbeddingTable.for_hierarchy(h, embeddings), report
