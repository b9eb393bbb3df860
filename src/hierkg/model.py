"""Knowledge-graph and hierarchy data model.

A built index is a stack of graph layers: layer 0 holds the ingested
entities/relations with chunk provenance, every higher layer holds
generated aggregate entities plus inter-cluster relations. Parent links
form a forest (each entity has at most one parent, one layer up). The
entity vectors live in one EmbeddingTable, in layer order. A Structure
holds a hierarchy's links as rows (parent rows, relation endpoint rows
and kind codes: the arrays an index stores); its violations() and
exact_duplicates() state each structural rule once, for
validate_hierarchy, save_index and load_index alike, and every query
view is made from it. A loaded index's entities, relations and chunks
are LazyRows maps, which make each row on its first read. Its
parent_map is a RowRange view, which
maps each entity below the top layer to its parent row's id, and each
layer's id sets are the keys of RowRange views of that layer's run of
the id lists. A relation's row is found by binary search in its layer's
sorted ids (SortedRunRows), so a load builds no map over the relations.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, ItemsView, Iterable, Iterator, KeysView, Mapping, Sequence, ValuesView
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain, islice, pairwise

import numpy as np

from .errors import InvalidArgumentError, NotFoundError


class RelationKind(str, Enum):
    BASE = "base"
    INTER_CLUSTER_AGGREGATED = "inter_cluster_aggregated"
    INTER_CLUSTER_CONCATENATED = "inter_cluster_concatenated"


# structure.bin and Structure.kinds code a relation's kind as its index here
RELATION_KINDS = tuple(RelationKind)


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


@dataclass
class GraphLayer:
    """The ids of one layer: sets in a build, read-only RowRange key views in a load."""

    index: int
    entity_ids: set[str] | KeysView[str] = field(default_factory=set)
    relation_ids: set[str] | KeysView[str] = field(default_factory=set)


class SortedRunRows(Mapping[str, int]):
    """A read-only id -> row map over ids whose runs ids[starts[k]:starts[k + 1]]
    are each in sorted order, with no id repeated.

    A lookup is one binary search per run and the map builds nothing: a
    load's relation ids are sorted within each layer, and a cold query
    looks up a few of them. A key that is not a string is never found.
    """

    __slots__ = ("_ids", "_starts")

    def __init__(self, ids: Sequence[str], starts: Sequence[int]):
        self._ids, self._starts = ids, starts

    def __getitem__(self, key: str) -> int:
        if type(key) is str:
            ids = self._ids
            for a, b in pairwise(self._starts):
                i = bisect_left(ids, key, a, b)
                if i < b and ids[i] == key:
                    return i
        raise KeyError(key)

    def __iter__(self) -> Iterator[str]:
        return iter(self._ids)

    def __reversed__(self) -> Iterator[str]:
        return reversed(self._ids)

    def __len__(self) -> int:
        return len(self._ids)


class RowRange(Mapping[str, object]):
    """A read-only map from each id of ids[start:stop] to value(its row),
    which iterates in list order.

    rows maps every id of ids to its row (a dict, or a SortedRunRows), so a
    lookup is one lookup in rows and one call of value; the view copies
    nothing. value is the row itself by default. A key that is not a string
    is never found. keys() is a read-only set view whose set operations
    return plain sets. A copy (copy.copy, copy.deepcopy, pickle) is a plain
    dict.
    """

    __slots__ = ("_ids", "_rows", "_start", "_stop", "_value")

    def __init__(
        self, ids: Sequence[str], rows: Mapping[str, int], start: int, stop: int, value: Callable[[int], object] = int
    ):
        self._ids, self._rows, self._start, self._stop, self._value = ids, rows, start, stop, value

    def __getitem__(self, key: str) -> object:
        i = self._rows.get(key, -1) if type(key) is str else -1
        if not self._start <= i < self._stop:
            raise KeyError(key)
        return self._value(i)

    def __contains__(self, key: object) -> bool:
        return type(key) is str and self._start <= self._rows.get(key, -1) < self._stop

    def __iter__(self) -> Iterator[str]:
        return islice(self._ids, self._start, self._stop)

    def __len__(self) -> int:
        return self._stop - self._start

    def __reduce__(self):
        return dict, (dict(self.items()),)


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
        elif self.stop_when_entities_leq < 1:
            raise InvalidArgumentError("stop_when_entities_leq must be >= 1")

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
    A build fills a dict; load_index sets a read-only RowRange view of
    structure.parents, so a loaded hierarchy's links cannot be changed in
    place (a copy.deepcopy of it holds plain dicts that can).

    structure, and layer0_ids and neighbours made from it, are query-time
    views computed on first access and then frozen, and entity_lines and
    relation_lines keep each context line from its first render on: do
    not mutate a hierarchy after it has been queried, or later queries
    read the stale views and lines. load_index sets
    structure from the index's arrays, so the same holds for a loaded
    hierarchy from the start. Build never touches the views; save_index
    and validate_hierarchy make a fresh Structure.of(h) instead, so they
    see the hierarchy as it is now. No view holds a reference back to the
    hierarchy.
    """

    entities: dict[str, Entity] = field(default_factory=dict)
    relations: dict[str, Relation] = field(default_factory=dict)
    layers: list[GraphLayer] = field(default_factory=list)
    parent_map: dict[str, str] | RowRange = field(default_factory=dict)
    build_params: BuildParams | None = None

    @cached_property
    def layer0_ids(self) -> tuple[str, ...]:
        """Layer-0 entity ids in sorted order: the first rows of structure."""
        return tuple(self.structure.entity_ids[: self.structure.entity_counts[0]])

    @cached_property
    def structure(self) -> Structure:
        """The links as rows, the arrays an index stores (Structure.of)."""
        return Structure.of(self)

    @cached_property
    def neighbours(self) -> dict[str, dict[str, str | tuple[str, ...]]]:
        """Entity id -> {neighbour id: the relation joining the two}.

        When several relations join the pair, the value is a tuple of all
        of them in relation row order. Every entity has a row, empty when
        no relation touches it, and a relation is listed under both of its
        endpoints. A row is made from structure on its first read.
        """
        return self.structure.neighbour_rows()

    @cached_property
    def entity_lines(self) -> dict[str, tuple]:
        """Entity id -> (-layer, id, context line, its token count), the
        rows hierkg.context renders, each kept from its first render on."""
        return {}

    @cached_property
    def relation_lines(self) -> dict[str, tuple]:
        """Relation id -> (kind, id, context line, its token count), as
        entity_lines."""
        return {}

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

    def __init__(self, rows: Mapping[str, int], make: Callable[[int], object]):
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
class Structure:
    """A hierarchy's links as rows: the arrays an index's structure.bin stores.

    Entity row i is entity_ids[i] (entity_rows maps each id to its row)
    and relation row j is relation_ids[j]. Rows go layer by layer, layer 0
    first; layer k has entity_counts[k] entities and relation_counts[k]
    relations. parents[i] is the row of entity i's parent, -1 for none.
    Relation j joins rows sources[j] and targets[j] and has kind
    RELATION_KINDS[kinds[j]]. parents, sources and targets are int32
    arrays, kinds a uint8 array. The views assume the rules that
    violations() checks.
    """

    entity_ids: Sequence[str]
    entity_rows: dict[str, int]
    relation_ids: Sequence[str]
    entity_counts: Sequence[int]
    relation_counts: Sequence[int]
    parents: np.ndarray
    sources: np.ndarray
    targets: np.ndarray
    kinds: np.ndarray

    @classmethod
    def of(cls, h: Hierarchy) -> Structure:
        """h's links, entities in EmbeddingTable.row_order and relations
        layer by layer, each layer sorted.

        Raises KeyError for a listed relation that h does not hold, and for
        a parent link or a relation endpoint naming an id no layer lists.
        """
        entity_ids = EmbeddingTable.row_order(h)
        relation_ids = [rid for layer in h.layers for rid in sorted(layer.relation_ids)]
        rows = {eid: i for i, eid in enumerate(entity_ids)}
        parents = np.full(len(entity_ids), -1, np.int32)
        parents[[rows[child] for child in h.parent_map]] = [rows[parent] for parent in h.parent_map.values()]
        relations = [h.relations[rid] for rid in relation_ids]
        code_of = {kind: code for code, kind in enumerate(RELATION_KINDS)}
        return cls(
            entity_ids,
            rows,
            relation_ids,
            [len(layer.entity_ids) for layer in h.layers],
            [len(layer.relation_ids) for layer in h.layers],
            parents,
            np.fromiter((rows[r.source_id] for r in relations), np.int32, len(relations)),
            np.fromiter((rows[r.target_id] for r in relations), np.int32, len(relations)),
            np.fromiter((code_of[r.kind] for r in relations), np.uint8, len(relations)),
        )

    def violations(self) -> list[str]:
        """One message per row that breaks a structural rule; each rule is stated once, here.

        Layer 0 is not empty. Every entity below the top layer has a parent
        exactly one layer up, and no top-layer entity has one (a chain that
        climbs one layer per step has no cycle). Every aggregate has a
        child. A relation joins two distinct rows of its own layer. Every
        kind code is known, and the kind is base exactly on layer 0.
        """
        ids, n, top = self.entity_ids, len(self.entity_ids), len(self.entity_counts) - 1
        entity_layer = np.repeat(np.arange(top + 1), self.entity_counts)
        relation_layer = np.repeat(np.arange(top + 1), self.relation_counts)

        def layer_of(rows: np.ndarray) -> np.ndarray:
            """The layer of each row, and -1 for a value that is no row."""
            return np.append(entity_layer, -1)[np.where((rows >= 0) & (rows < n), rows, n)]

        def name(row: int) -> str:
            return f"{ids[row]} at layer {entity_layer[row]}" if 0 <= row < n else f"row {row}, which does not exist"

        parents, parent_layer = self.parents, layer_of(self.parents)
        violations = [] if self.entity_counts and self.entity_counts[0] else ["layer 0 is empty"]
        wrong = np.where(entity_layer < top, parent_layer != entity_layer + 1, parents != -1)
        for i in np.flatnonzero(wrong).tolist():
            k, p = entity_layer[i], parents[i]
            expected = f"expected layer {k + 1}" if k < top else "expected none on the top layer"
            violations.append(f"entity {ids[i]}: " + (f"parent {name(p)}, {expected}" if p != -1 else f"no parent, {expected}"))
        childless = (entity_layer > 0) & (np.bincount(parents[parent_layer >= 0], minlength=n) == 0)
        violations += [f"entity {ids[i]}: aggregate without children" for i in np.flatnonzero(childless).tolist()]
        relation_ids = self.relation_ids
        for end, rows in (("source", self.sources), ("target", self.targets)):
            for j in np.flatnonzero(layer_of(rows) != relation_layer).tolist():
                violations.append(f"relation {relation_ids[j]}: {end} {name(rows[j])}, expected layer {relation_layer[j]}")
        violations += [f"relation {relation_ids[j]}: self-loop" for j in np.flatnonzero(self.sources == self.targets).tolist()]
        kinds, known = self.kinds, self.kinds < len(RELATION_KINDS)
        wrong = ~known | ((kinds == RELATION_KINDS.index(RelationKind.BASE)) != (relation_layer == 0))
        for j in np.flatnonzero(wrong).tolist():
            kind = RELATION_KINDS[kinds[j]].value if known[j] else f"code {kinds[j]}"
            violations.append(f"relation {relation_ids[j]}: kind {kind} invalid at layer {relation_layer[j]}")
        return violations

    def exact_duplicates(self, description: Callable[[int], str]) -> Iterator[tuple[int, int]]:
        """(i, j) for each relation row j with the source, target, layer and
        description of an earlier row, i the first such row, in row order;
        description(j) is row j's description. Run it once violations() is
        empty: a relation then joins rows of its own layer, so one sort of
        its (source, target) row keys finds the candidates, and only their
        descriptions are read."""
        keys = self.sources.astype(np.int64) * len(self.entity_ids) + self.targets
        ordered = np.sort(keys)
        repeated = ordered[1:][ordered[1:] == ordered[:-1]]
        first: dict[tuple[int, str], int] = {}
        for j in np.flatnonzero(np.isin(keys, repeated)).tolist():
            i = first.setdefault((keys[j], description(j)), j)
            if i != j:
                yield i, j

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

        def row(i: int) -> dict[str, str | tuple[str, ...]]:
            a, b = starts[i], starts[i + 1]
            found: dict[str, str | tuple[str, ...]] = {}
            for v, j in zip(others[a:b].tolist(), relation_of[a:b].tolist()):
                rid = relation_ids[j]
                first = found.setdefault(entity_ids[v], rid)
                if first is not rid:  # a parallel relation: the pair's value becomes a tuple
                    found[entity_ids[v]] = (*first, rid) if type(first) is tuple else (first, rid)
            return found

        return LazyRows(self.entity_rows, row)


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
        if matrix.dtype != np.dtype("<f8") or matrix.ndim != 2 or not matrix.flags.c_contiguous or not matrix.shape[1]:
            raise InvalidArgumentError(
                f"embedding matrix must be C-contiguous <f8 2-D with a column or more, got {matrix.dtype} {matrix.shape}"
            )
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
    not exceptions: callers decide whether to fail; save_index refuses h
    when the list is not empty. This checks the rules only the dict form
    can break, then, if they all hold, the links of Structure.of(h) by
    Structure.violations and, if those hold, its exact_duplicates: the
    rules load_index enforces.
    """
    return _checked_structure(h)[0]


def _checked_structure(h: Hierarchy) -> tuple[list[str], Structure | None]:
    """validate_hierarchy's violations, with the Structure.of(h) whose rules
    it checked; None when a dict rule failed, as then Structure.of may not run."""
    kinds = (
        ("entity", h.entities, [layer.entity_ids for layer in h.layers]),
        ("relation", h.relations, [layer.relation_ids for layer in h.layers]),
    )
    # the rules below sort ids, and an index holds only string ids
    for kind, records, listings in kinds:
        for x in chain(records, *listings):
            if type(x) is not str:
                return [f"{kind} {x!r}: id is {type(x).__name__}, not str"], None

    violations = [f"layer {k}: index field is {layer.index}" for k, layer in enumerate(h.layers) if layer.index != k]
    top = len(h.layers) - 1

    # layer k lists exactly the records whose layer field is k
    for kind, records, listings in kinds:
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

    for eid, e in h.entities.items():
        if bool(e.source_chunk_ids) != (e.layer == 0):
            what = "aggregate carries" if e.source_chunk_ids else "layer-0 entity without"
            violations.append(f"entity {eid}: {what} source chunks")

    # a link to a missing entity is named here: a row of Structure cannot hold it
    for eid, pid in h.parent_map.items():
        if eid not in h.entities:
            violations.append(f"parent link {eid} -> {pid}: child does not exist")
        elif pid not in h.entities:
            violations.append(f"entity {eid}: parent {pid} does not exist")
    for rid, r in h.relations.items():
        violations += [f"relation {rid}: endpoint {end} does not exist" for end in (r.source_id, r.target_id) if end not in h.entities]
    if violations:
        return violations, None
    structure = Structure.of(h)
    ids = structure.relation_ids
    violations = structure.violations() or [
        f"relation {ids[j]}: exact duplicate of relation {ids[i]}"
        for i, j in structure.exact_duplicates(lambda j: h.relations[ids[j]].description)
    ]
    return violations, structure
