"""Knowledge-graph and hierarchy data model.

A built index is a stack of graph layers: layer 0 holds the ingested
entities/relations with chunk provenance, every higher layer holds
generated aggregate entities plus inter-cluster relations. Parent links
form a forest (each entity has at most one parent, one layer up). The
entity vectors live in one EmbeddingTable, in layer order. RelationEnds
holds every relation's endpoints as entity rows, from which the
neighbour views are made; a loaded index's entities, relations and chunks
are LazyRows maps, which make each row on its first read, and its layers'
id sets are IdRange views of the id lists.
"""

from __future__ import annotations

from collections.abc import Callable, ItemsView, Iterable, Iterator, Mapping, Sequence, ValuesView
from collections.abc import Set as AbstractSet
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import islice

import numpy as np

from .errors import InvalidArgumentError, NotFoundError


class RelationKind(str, Enum):
    BASE = "base"
    INTER_CLUSTER_AGGREGATED = "inter_cluster_aggregated"
    INTER_CLUSTER_CONCATENATED = "inter_cluster_concatenated"


# a dict lookup is several times cheaper than RelationKind(value) on load
_KIND_BY_VALUE = {kind.value: kind for kind in RelationKind}


# A build makes one Entity or Relation per record, and a load one per row
# that is read. Slots make each object smaller and cheaper to create.
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
    """The ids of one layer: sets in a build, read-only IdRange views in a load."""

    index: int
    entity_ids: set[str] | IdRange = field(default_factory=set)
    relation_ids: set[str] | IdRange = field(default_factory=set)


class IdRange(AbstractSet[str]):
    """A read-only set view of ids[start:stop], which iterates in list order.

    rows maps every id of ids to its index, so membership is one dict
    lookup; the view copies nothing. Set operations return plain sets.
    """

    __slots__ = ("_ids", "_rows", "_start", "_stop")

    def __init__(self, ids: Sequence[str], rows: Mapping[str, int], start: int, stop: int):
        self._ids, self._rows, self._start, self._stop = ids, rows, start, stop

    @classmethod
    def _from_iterable(cls, it: Iterable[str]) -> set[str]:
        return set(it)

    def __contains__(self, x: object) -> bool:
        return self._start <= self._rows.get(x, -1) < self._stop

    def __iter__(self) -> Iterator[str]:
        return islice(self._ids, self._start, self._stop)

    def __len__(self) -> int:
        return self._stop - self._start


@dataclass
class BuildParams:
    cluster_size: int = 20
    tau: int = 3
    max_layers: int = 4
    seed: int = 0
    stop_when_entities_leq: int | None = None  # defaults to cluster_size

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
        # every layer uses tau; perfbench/spans.py and perfbench/oracles.py call this
        return self.tau

    def to_dict(self) -> dict:
        return {
            "cluster_size": self.cluster_size,
            "tau": self.tau,
            "max_layers": self.max_layers,
            "seed": self.seed,
            "stop_when_entities_leq": self.stop_when_entities_leq,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BuildParams":
        """Read the keys to_dict writes; any other key is ignored, such as the
        single_root, gmm_max_iters, gmm_tol and tau_overrides of older manifests."""
        return cls(
            cluster_size=d["cluster_size"],
            tau=d["tau"],
            max_layers=d["max_layers"],
            seed=d["seed"],
            stop_when_entities_leq=d.get("stop_when_entities_leq"),
        )


@dataclass
class Hierarchy:
    """Immutable-after-build stack of graph layers.

    entities/relations are global id maps. Layer k is layers[k], whose
    index is k; it lists exactly the entities and relations whose layer
    field is k, and layer 0 is never empty. parent_map (child id -> parent
    id) is the only record of parent links; top-layer entities have no entry.

    layer0_ids, relation_ends, neighbours and parallel_relations are
    query-time views computed on first access and then frozen: do not
    mutate a hierarchy after it has been queried, or later queries read
    the stale views. load_index sets relation_ends from the index's
    arrays, so the same holds for a loaded hierarchy from the start.
    Build, store and validation never touch the views. They assume what
    validate_hierarchy checks and load_index enforces: every relation
    endpoint is an entity, on the relation's own layer. No view holds a
    reference back to the hierarchy.
    """

    entities: dict[str, Entity] = field(default_factory=dict)
    relations: dict[str, Relation] = field(default_factory=dict)
    layers: list[GraphLayer] = field(default_factory=list)
    parent_map: dict[str, str] = field(default_factory=dict)
    build_params: BuildParams | None = None

    @cached_property
    def layer0_ids(self) -> tuple[str, ...]:
        """Layer-0 entity ids in sorted order."""
        return tuple(sorted(self.layers[0].entity_ids))

    @cached_property
    def relation_ends(self) -> RelationEnds:
        """Every relation's endpoints as entity rows, in the dict orders of
        entities and relations; reads every relation once."""
        return RelationEnds.of(self, list(self.entities), list(self.relations))

    @cached_property
    def neighbours(self) -> dict[str, dict[str, str]]:
        """Entity id -> {neighbour id: id of the first relation joining the two}.

        Every entity has a row, empty when no relation touches it, and a
        relation is listed under both of its endpoints. "First" is in the
        order of relation_ends. A row is made from relation_ends on its
        first read. The other relations joining the same pair are in
        parallel_relations.
        """
        return self.relation_ends.neighbour_rows()

    @cached_property
    def parallel_relations(self) -> dict[str, list[str]]:
        """First relation id of a pair (as in neighbours) -> ids of the other
        relations joining the same pair; a pair joined once has no entry."""
        return self.relation_ends.parallel_relations()

    def ancestors(self, entity_id: str) -> list[str]:
        """Chain from the entity up to its topmost ancestor, inclusive."""
        if entity_id not in self.entities:
            raise NotFoundError(f"unknown entity id: {entity_id}")
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


class LazyRows(dict):
    """A mapping whose values are made on first read and then kept.

    rows (key -> row number) fixes the keys and their order, and
    make(row) makes the value of one row. A read of a value already made
    is a plain dict lookup: dict.__getitem__ finds it, or calls
    __missing__ on the first read. Keys can be deleted, not added or
    replaced. A copy (copy(), copy.copy, copy.deepcopy, pickle) is a plain
    dict holding every value.
    """

    __slots__ = ("_rows", "_make")

    def __init__(self, rows: dict[str, int], make: Callable[[int], object]):
        super().__init__()
        self._rows = rows
        self._make = make

    def __missing__(self, key):
        value = self._make(self._rows[key])
        dict.__setitem__(self, key, value)
        return value

    def __contains__(self, key: object) -> bool:
        return key in self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[str]:
        return iter(self._rows)

    def __reversed__(self) -> Iterator[str]:
        return reversed(self._rows)

    def keys(self):
        return self._rows.keys()

    def items(self):
        return ItemsView(self)

    def values(self):
        return ValuesView(self)

    def get(self, key, default=None):
        return self[key] if key in self._rows else default

    def __delitem__(self, key) -> None:
        rows = dict(self._rows)  # the caller may share rows with another map
        del rows[key]
        self._rows = rows
        dict.pop(self, key, None)

    def copy(self) -> dict:
        return dict(self.items())

    def __reduce__(self):
        return dict, (self.copy(),)

    def __eq__(self, other: object) -> bool:
        return self.copy() == other

    def __ne__(self, other: object) -> bool:
        return self.copy() != other

    def __repr__(self) -> str:
        return f"<{type(self).__name__}: {len(self)} keys, {dict.__len__(self)} values made>"

    def _read_only(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} supports reads and del only")

    __setitem__ = setdefault = update = pop = popitem = clear = __or__ = __ror__ = __ior__ = _read_only


@dataclass(frozen=True)
class RelationEnds:
    """Every relation's endpoints as entity rows.

    Relation relation_ids[j] joins entity_ids[sources[j]] and
    entity_ids[targets[j]]; entity_rows maps each entity id to its row.
    sources and targets are int32 arrays.
    """

    entity_ids: Sequence[str]
    entity_rows: dict[str, int]
    relation_ids: Sequence[str]
    sources: np.ndarray
    targets: np.ndarray

    @classmethod
    def of(cls, h: Hierarchy, entity_ids: Sequence[str], relation_ids: Sequence[str]) -> RelationEnds:
        """The ends of h's relations, entities and relations numbered in the orders given.

        Raises KeyError for a relation or an endpoint that is not in those orders.
        """
        rows = {eid: i for i, eid in enumerate(entity_ids)}
        relations = [h.relations[rid] for rid in relation_ids]
        sources = np.fromiter((rows[r.source_id] for r in relations), np.int32, len(relations))
        targets = np.fromiter((rows[r.target_id] for r in relations), np.int32, len(relations))
        return cls(entity_ids, rows, relation_ids, sources, targets)

    def neighbour_rows(self) -> LazyRows:
        """Hierarchy.neighbours: one row per entity, made on its first read."""
        entity_ids, relation_ids = self.entity_ids, self.relation_ids
        # end k of relation j sits at 2j + k; a stable sort by entity row keeps
        # each entity's relations in relation order (numpy radix-sorts keys of
        # up to 16 bits, so the narrowest type that holds the rows is fastest)
        ends = np.stack([self.sources, self.targets], axis=1).ravel()
        order = np.argsort(ends.astype(np.min_scalar_type(max(len(entity_ids) - 1, 0))), kind="stable")
        others, relation_of = ends[order ^ 1], order >> 1
        starts = np.concatenate(([0], np.cumsum(np.bincount(ends, minlength=len(entity_ids))))).tolist()

        def row(i: int) -> dict[str, str]:
            a, b = starts[i], starts[i + 1]
            found: dict[str, str] = {}
            for v, j in zip(others[a:b].tolist(), relation_of[a:b].tolist()):
                found.setdefault(entity_ids[v], relation_ids[j])
            return found

        return LazyRows(self.entity_rows, row)

    def parallel_relations(self) -> dict[str, list[str]]:
        """Hierarchy.parallel_relations, from one sort of the relations by endpoint pair."""
        low = np.minimum(self.sources, self.targets).astype(np.int64)
        pairs = low * len(self.entity_ids) + np.maximum(self.sources, self.targets)
        order = np.argsort(pairs)
        ordered = pairs[order]
        groups: dict[int, set[int]] = {}
        for k in np.flatnonzero(ordered[1:] == ordered[:-1]).tolist():
            groups.setdefault(int(ordered[k]), set()).update((int(order[k]), int(order[k + 1])))
        parallel: dict[str, list[str]] = {}
        for group in groups.values():
            first, *rest = sorted(group)
            parallel[self.relation_ids[first]] = [self.relation_ids[j] for j in rest]
        return parallel


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
    not exceptions: callers decide whether to fail. Each invariant is one rule.
    """
    violations = [] if h.layers and h.layers[0].entity_ids else ["layer 0 is empty"]
    violations += [f"layer {k}: index field is {layer.index}" for k, layer in enumerate(h.layers) if layer.index != k]
    top = len(h.layers) - 1

    # layer k lists exactly the records whose layer field is k
    for kind, records, listings in (
        ("entity", h.entities, [layer.entity_ids for layer in h.layers]),
        ("relation", h.relations, [layer.relation_ids for layer in h.layers]),
    ):
        declared: list[set[str]] = [set() for _ in listings]
        for key, record in records.items():
            if record.id != key:
                violations.append(f"{kind} {key}: key does not match id field {record.id}")
            if 0 <= record.layer <= top:
                declared[record.layer].add(key)
            else:
                violations.append(f"{kind} {key}: layer {record.layer} outside hierarchy")
        for k, (listed, ids) in enumerate(zip(listings, declared)):
            violations += [f"layer {k}: lists {kind} {x}, which does not declare layer {k}" for x in sorted(listed - ids)]
            violations += [f"{kind} {x}: missing from layer {k} listing" for x in sorted(ids - listed)]

    # every entity below the top has a parent and every aggregate a child
    has_child = set(h.parent_map.values())
    for eid, e in h.entities.items():
        if bool(e.source_chunk_ids) != (e.layer == 0):
            what = "aggregate carries" if e.source_chunk_ids else "layer-0 entity without"
            violations.append(f"entity {eid}: {what} source chunks")
        if e.layer < top and eid not in h.parent_map:
            violations.append(f"entity {eid}: no parent although layer {e.layer + 1} exists")
        if e.layer > 0 and eid not in has_child:
            violations.append(f"entity {eid}: aggregate without children")

    # a parent exactly one layer up also rules out cycles: a chain that
    # climbs one layer per step cannot return to where it started
    for eid, pid in h.parent_map.items():
        e, parent = h.entities.get(eid), h.entities.get(pid)
        if e is None:
            violations.append(f"parent link {eid} -> {pid}: child does not exist")
        elif parent is None or parent.layer != e.layer + 1:
            where = "does not exist" if parent is None else f"at layer {parent.layer}, expected {e.layer + 1}"
            violations.append(f"entity {eid}: parent {pid} {where}")

    seen_relation_keys: set[tuple] = set()
    for rid, r in h.relations.items():
        if r.source_id == r.target_id:
            violations.append(f"relation {rid}: self-loop")
        for end in (r.source_id, r.target_id):
            e = h.entities.get(end)
            if e is None or e.layer != r.layer:
                where = "does not exist" if e is None else f"not at layer {r.layer}"
                violations.append(f"relation {rid}: endpoint {end} {where}")
        if (r.kind is not RelationKind.BASE) != (r.layer >= 1):
            violations.append(f"relation {rid}: kind {r.kind.value} invalid at layer {r.layer}")
        key = (r.source_id, r.target_id, r.layer, r.description)
        if key in seen_relation_keys:
            violations.append(f"relation {rid}: exact duplicate of another relation")
        seen_relation_keys.add(key)
    return violations
