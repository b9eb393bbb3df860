"""Knowledge-graph and hierarchy data model.

A built index is a stack of graph layers: layer 0 holds the ingested
entities/relations with chunk provenance, every higher layer holds
generated aggregate entities plus inter-cluster relations. Parent links
form a forest (each entity has at most one parent, one layer up). The
entity vectors live in one EmbeddingTable, in layer order.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import InvalidArgumentError, NotFoundError


class RelationKind(str, Enum):
    BASE = "base"
    INTER_CLUSTER_AGGREGATED = "inter_cluster_aggregated"
    INTER_CLUSTER_CONCATENATED = "inter_cluster_concatenated"


# a dict lookup is several times cheaper than RelationKind(value) on load
_KIND_BY_VALUE = {kind.value: kind for kind in RelationKind}


# A load builds one Entity, Relation or Chunk per stored row. Slots make
# each object smaller and cheaper to create, and from_dict passes its
# arguments positionally: a keyword call into __init__ costs about twice as much.
@dataclass(slots=True)
class Entity:
    id: str
    name: str
    description: str
    layer: int = 0
    source_chunk_ids: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "description": self.description,
            "layer": self.layer,
            "source_chunk_ids": list(self.source_chunk_ids),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Entity":
        return cls(d["id"], d["name"], d["description"], d["layer"], list(d.get("source_chunk_ids", [])))


@dataclass(slots=True)
class Relation:
    id: str
    source_id: str
    target_id: str
    description: str
    layer: int = 0
    kind: RelationKind = RelationKind.BASE

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "source_id": self.source_id,
            "target_id": self.target_id,
            "description": self.description,
            "layer": self.layer,
            "kind": self.kind.value,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Relation":
        kind = _KIND_BY_VALUE.get(d["kind"])
        if kind is None:
            raise ValueError(f"{d['kind']!r} is not a valid RelationKind")
        return cls(d["id"], d["source_id"], d["target_id"], d["description"], d["layer"], kind)


@dataclass(slots=True)
class Chunk:
    id: str
    text: str
    doc_id: str
    token_count: int

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "text": self.text,
            "doc_id": self.doc_id,
            "token_count": self.token_count,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Chunk":
        return cls(d["id"], d["text"], d["doc_id"], d["token_count"])


@dataclass
class GraphLayer:
    index: int
    entity_ids: set[str] = field(default_factory=set)
    relation_ids: set[str] = field(default_factory=set)


@dataclass
class BuildParams:
    cluster_size: int = 20
    tau: int = 3
    max_layers: int = 4
    seed: int = 0
    stop_when_entities_leq: int | None = None  # defaults to cluster_size
    tau_overrides: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.tau < 0:
            raise InvalidArgumentError("tau must be >= 0")
        if self.max_layers < 1:
            raise InvalidArgumentError("max_layers must be >= 1")
        if self.cluster_size < 2:
            raise InvalidArgumentError("cluster_size must be >= 2")
        if self.stop_when_entities_leq is None:
            self.stop_when_entities_leq = self.cluster_size

    def tau_for_layer(self, layer: int) -> int:
        return self.tau_overrides.get(layer, self.tau)

    def to_dict(self) -> dict:
        return {
            "cluster_size": self.cluster_size,
            "tau": self.tau,
            "max_layers": self.max_layers,
            "seed": self.seed,
            "stop_when_entities_leq": self.stop_when_entities_leq,
            "tau_overrides": {str(k): v for k, v in self.tau_overrides.items()},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BuildParams":
        """Read the keys to_dict writes; any other key is ignored, such as the
        single_root, gmm_max_iters and gmm_tol of older manifests."""
        return cls(
            cluster_size=d["cluster_size"],
            tau=d["tau"],
            max_layers=d["max_layers"],
            seed=d["seed"],
            stop_when_entities_leq=d.get("stop_when_entities_leq"),
            tau_overrides={int(k): v for k, v in d.get("tau_overrides", {}).items()},
        )


@dataclass
class Hierarchy:
    """Immutable-after-build stack of graph layers.

    entities/relations are global id maps; each layer lists the ids that
    live at that level. parent_map (child id -> parent id) is the only
    record of parent links; top-layer entities have no entry.

    layer0_ids, neighbours and parallel_relations are query-time views
    computed on first access and then frozen: do not mutate a hierarchy
    after it has been queried, or later queries read the stale views.
    Build, store and validation never touch them. The neighbour views
    assume what validate_hierarchy checks and load_index enforces: every
    relation endpoint is an entity, on the relation's own layer.
    """

    entities: dict[str, Entity] = field(default_factory=dict)
    relations: dict[str, Relation] = field(default_factory=dict)
    layers: list[GraphLayer] = field(default_factory=list)
    parent_map: dict[str, str] = field(default_factory=dict)
    build_params: BuildParams | None = None

    def entity(self, entity_id: str) -> Entity:
        try:
            return self.entities[entity_id]
        except KeyError:
            raise NotFoundError(f"unknown entity id: {entity_id}") from None

    @cached_property
    def layer0_ids(self) -> tuple[str, ...]:
        """Layer-0 entity ids in sorted order."""
        return tuple(sorted(self.layers[0].entity_ids))

    @cached_property
    def neighbours(self) -> dict[str, dict[str, str]]:
        """Entity id -> {neighbour id: id of the first stored relation joining the two}.

        Every entity has a row, empty when no relation touches it, and a
        relation is listed under both of its endpoints. The other relations
        joining the same pair are in parallel_relations.
        """
        return self._neighbour_views[0]

    @cached_property
    def parallel_relations(self) -> dict[str, list[str]]:
        """First relation id of a pair (as in neighbours) -> ids of the other
        relations joining the same pair; a pair joined once has no entry."""
        return self._neighbour_views[1]

    @cached_property
    def _neighbour_views(self) -> tuple[dict[str, dict[str, str]], dict[str, list[str]]]:
        """neighbours and parallel_relations, built in one pass over the relations."""
        neighbours: dict[str, dict[str, str]] = {eid: {} for eid in self.entities}
        parallel: dict[str, list[str]] = {}
        for rid, r in self.relations.items():
            a, b = r.source_id, r.target_id
            first = neighbours[a].setdefault(b, rid)
            # relation ids are unique, so rid comes back only for a new pair
            if first is rid:
                neighbours[b][a] = rid
            else:
                parallel.setdefault(first, []).append(rid)
        return neighbours, parallel

    def ancestors(self, entity_id: str) -> list[str]:
        """Chain from the entity up to its topmost ancestor, inclusive."""
        self.entity(entity_id)
        chain = [entity_id]
        seen = {entity_id}
        current = entity_id
        while current in self.parent_map:
            current = self.parent_map[current]
            if current in seen:  # defensive: corrupted parent links
                raise InvalidArgumentError(f"parent cycle at {current}")
            chain.append(current)
            seen.add(current)
        return chain


class EmbeddingTable(Mapping[str, np.ndarray]):
    """Read-only id -> vector table over one (N, d) float64 matrix.

    Rows are laid out layer by layer, layer 0 first, each layer in
    sorted-id order (see row_order), so the layer-0 vectors are the
    contiguous block matrix[:len(h.layer0_ids)]. table[eid] is a
    read-only view of that entity's row; ids is the row order.
    """

    __slots__ = ("ids", "matrix", "_row")

    def __init__(self, ids: Iterable[str], matrix: np.ndarray, row: dict[str, int] | None = None):
        """Take ownership of matrix, a C-contiguous <f8 (N, d) array, and make it read-only.

        row, when given, is {id: i for i, id in enumerate(ids)}, already
        built by the caller; the table keeps it instead of building it again.
        """
        self.ids = tuple(ids)
        self._row = {eid: i for i, eid in enumerate(self.ids)} if row is None else row
        if len(self._row) != len(self.ids):
            raise InvalidArgumentError("embedding table ids are not unique")
        if matrix.dtype != np.dtype("<f8") or matrix.ndim != 2 or not matrix.flags.c_contiguous:
            raise InvalidArgumentError(f"embedding matrix must be C-contiguous <f8 2-D, got {matrix.dtype} {matrix.shape}")
        if matrix.shape[0] != len(self.ids):
            raise InvalidArgumentError(f"{matrix.shape[0]} embedding rows for {len(self.ids)} ids")
        matrix.flags.writeable = False
        self.matrix = matrix

    @staticmethod
    def row_order(h: Hierarchy) -> list[str]:
        """Entity ids layer by layer in h.layers order, each layer sorted."""
        return [eid for layer in h.layers for eid in sorted(layer.entity_ids)]

    @classmethod
    def for_hierarchy(cls, h: Hierarchy, vectors: Mapping[str, np.ndarray]) -> EmbeddingTable:
        """Copy one vector per entity of h's layers into a new table in row_order."""
        ids = cls.row_order(h)
        missing = [eid for eid in ids if eid not in vectors]
        if missing or len(vectors) != len(ids):
            raise InvalidArgumentError(
                f"{len(vectors)} vectors for {len(ids)} entities; first missing: {missing[:3]}"
            )
        try:
            matrix = np.stack([np.asarray(vectors[eid], dtype="<f8") for eid in ids])
        except ValueError as exc:
            raise InvalidArgumentError(f"embedding vectors differ in shape: {exc}") from None
        return cls(ids, matrix)

    def __getitem__(self, eid: str) -> np.ndarray:
        return self.matrix[self._row[eid]]

    def __contains__(self, eid: object) -> bool:
        return eid in self._row

    def __iter__(self) -> Iterator[str]:
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)


def validate_hierarchy(h: Hierarchy) -> list[str]:
    """Check every structural invariant; returns human-readable violations.

    An empty list means the hierarchy is well formed. Violations are data,
    not exceptions: callers decide whether to fail.
    """
    violations: list[str] = []
    top = len(h.layers) - 1

    seen_relation_keys: set[tuple] = set()
    for eid, e in h.entities.items():
        if e.id != eid:
            violations.append(f"entity {eid}: key does not match id field {e.id}")
        if e.layer < 0 or e.layer > top:
            violations.append(f"entity {eid}: layer {e.layer} outside hierarchy")
            continue
        if e.layer == 0 and not e.source_chunk_ids:
            violations.append(f"entity {eid}: layer-0 entity without source chunks")
        if e.layer >= 1 and e.source_chunk_ids:
            violations.append(f"entity {eid}: aggregate carries source chunks")
        if eid not in h.layers[e.layer].entity_ids:
            violations.append(f"entity {eid}: missing from layer {e.layer} listing")

    for eid, pid in h.parent_map.items():
        e = h.entities.get(eid)
        parent = h.entities.get(pid)
        if e is None:
            violations.append(f"parent link {eid} -> {pid}: child does not exist")
        elif parent is None:
            violations.append(f"entity {eid}: parent {pid} does not exist")
        elif parent.layer != e.layer + 1:
            violations.append(f"entity {eid}: parent {pid} at layer {parent.layer}, expected {e.layer + 1}")

    for rid, r in h.relations.items():
        if r.source_id == r.target_id:
            violations.append(f"relation {rid}: self-loop")
        for end in (r.source_id, r.target_id):
            e = h.entities.get(end)
            if e is None:
                violations.append(f"relation {rid}: endpoint {end} does not exist")
            elif e.layer != r.layer:
                violations.append(f"relation {rid}: endpoint {end} not at layer {r.layer}")
        inter = r.kind in (RelationKind.INTER_CLUSTER_AGGREGATED, RelationKind.INTER_CLUSTER_CONCATENATED)
        if inter != (r.layer >= 1):
            violations.append(f"relation {rid}: kind {r.kind.value} invalid at layer {r.layer}")
        if r.layer < 0 or r.layer > top:
            violations.append(f"relation {rid}: layer {r.layer} outside hierarchy")
        elif rid not in h.layers[r.layer].relation_ids:
            violations.append(f"relation {rid}: missing from layer {r.layer} listing")
        key = (r.source_id, r.target_id, r.layer, r.description)
        if key in seen_relation_keys:
            violations.append(f"relation {rid}: exact duplicate of another relation")
        seen_relation_keys.add(key)

    for layer in h.layers:
        for eid in layer.entity_ids:
            e = h.entities.get(eid)
            if e is None:
                violations.append(f"layer {layer.index}: lists unknown entity {eid}")
            elif e.layer != layer.index:
                violations.append(f"layer {layer.index}: entity {eid} declares layer {e.layer}")
        for rid in layer.relation_ids:
            if rid not in h.relations:
                violations.append(f"layer {layer.index}: lists unknown relation {rid}")
    if h.layers and not h.layers[0].entity_ids:
        violations.append("layer 0 is empty")

    # parent links must form a forest (no cycles) and, per layer pair,
    # cover every non-top entity exactly once
    for eid in h.entities:
        try:
            h.ancestors(eid)
        except InvalidArgumentError as exc:
            violations.append(f"entity {eid}: {exc}")

    for i in range(len(h.layers) - 1):
        lower = h.layers[i].entity_ids
        upper = h.layers[i + 1].entity_ids
        parents = {h.parent_map.get(eid) for eid in lower}
        missing = {eid for eid in lower if h.parent_map.get(eid) is None}
        for eid in sorted(missing):
            violations.append(f"entity {eid}: no parent although layer {i + 1} exists")
        if parents - {None} != upper:
            violations.append(
                f"layer {i + 1}: entity set differs from the parents assigned to layer {i}"
            )

    return violations
