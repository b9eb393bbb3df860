"""Ingestion and on-disk index serialization.

Ingest reads line-delimited JSON records (entity / relation / chunk,
discriminated by a "type" tag) and produces a validated layer-0 graph.

A built index is a directory in format 2, which keeps the structure
apart from the text. Entity rows are numbered in EmbeddingTable.row_order
(layer by layer, layer 0 first, each layer in sorted-id order) and
relation rows layer by layer, each layer in sorted-id order; the
manifest's layer_stats give each layer's entity and relation counts.

    manifest.json    format_version, build params, layer_stats, embedding_dim,
                     provider ids, content_hash
    ids.json         {"entities": [ids by row], "relations": [ids by row]}
    structure.bin    back to back, for n entities and m relations:
                     entity and relation text offsets (<u8, n + 1 and m + 1:
                     row i is bytes offsets[i]:offsets[i + 1] of its shard),
                     parent rows (<i4, n; -1 on the top layer),
                     relation source and target rows (<i4, m each),
                     relation kinds (u1, m; codes in RelationKind order)
    embeddings.bin   the (n, embedding_dim) vectors as raw <f8, in row order
    entities.jsonl   one row per entity: Entity.to_dict()
    relations.jsonl  one row per relation: id, description, layer
    chunks.jsonl     one row per chunk: Chunk.to_dict()

The manifest's content hash is SHA-256 over each shard's name, a NUL
byte and its bytes, in sorted name order. save_index writes the whole
directory beside its destination and renames it into place, so an
interrupted save leaves the old index, if any, as it was; only between
the two renames that swap the new index in does the old one sit beside
the destination, under a name ending in .old. Nothing is fsynced. The
destination must be missing, an empty directory or an index
(check_out_dir); no file survives from an earlier index.

A load reads each shard once and verifies the content hash before
anything else. It then checks the structure with whole-array checks:
manifest layer indices exactly 0..k-1 for some k >= 1, layer sizes
that sum to the id counts, ids that are strings and do not repeat,
entity ids sorted within each layer, offsets that increase from 0 to
their shard's length, every row index in range, each parent exactly one
layer up (none on the top layer), both endpoints of a relation on the
relation's own layer, known kind codes and an embedding shard of
exactly n * embedding_dim * 8 bytes. Any failure raises StoreError (CLI
exit 3). The embedding table is a read-only view of the bytes read.
parent_map is a plain dict; entities and relations are LazyRows maps
that parse a text row on its first read. A row that is malformed, or
whose id or layer differs from the structure, raises StoreError at that
read, so a query fails with exit 3 when it reaches one. A format-1 index
is refused with a StoreError naming its version.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import secrets
import shutil
from bisect import bisect_right
from collections import Counter
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import IngestError, InvalidArgumentError, StoreError
from .model import (
    BuildParams,
    Chunk,
    EmbeddingTable,
    Entity,
    GraphLayer,
    Hierarchy,
    LazyRows,
    Relation,
    RelationEnds,
    RelationKind,
)
from .providers import count_tokens

FORMAT_VERSION = 2
SHARDS = ("chunks.jsonl", "embeddings.bin", "entities.jsonl", "ids.json", "relations.jsonl", "structure.bin")
# structure.bin stores a relation's kind as its index in this tuple
RELATION_KINDS = tuple(RelationKind)
# what a row of the wrong shape raises while it is turned into a model object
_ROW_ERRORS = (KeyError, TypeError, ValueError)


@dataclass
class IngestReport:
    entities: int = 0
    relations: int = 0
    chunks: int = 0
    duplicate_relations_dropped: int = 0

    def to_dict(self) -> dict:
        return {
            "entities": self.entities,
            "relations": self.relations,
            "chunks": self.chunks,
            "duplicate_relations_dropped": self.duplicate_relations_dropped,
        }


@dataclass
class IndexManifest:
    format_version: int
    build_params: dict
    layer_stats: list[dict]
    embedding_dim: int
    provider_ids: dict = field(default_factory=dict)
    content_hash: str = ""

    def to_dict(self) -> dict:
        return {
            "format_version": self.format_version,
            "build_params": self.build_params,
            "layer_stats": self.layer_stats,
            "embedding_dim": self.embedding_dim,
            "provider_ids": self.provider_ids,
            "content_hash": self.content_hash,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "IndexManifest":
        return cls(
            format_version=d["format_version"],
            build_params=d["build_params"],
            layer_stats=d["layer_stats"],
            embedding_dim=d["embedding_dim"],
            provider_ids=d.get("provider_ids", {}),
            content_hash=d.get("content_hash", ""),
        )


def ingest(path: str | Path) -> tuple[dict[str, Entity], dict[str, Relation], dict[str, Chunk], IngestReport]:
    """Load and validate a JSONL file of pre-extracted knowledge.

    Referential integrity is checked after the full file is read so the
    record order does not matter; every error names its source line.
    """
    path = Path(path)
    entities: dict[str, Entity] = {}
    relations: dict[str, Relation] = {}
    chunks: dict[str, Chunk] = {}
    line_of: dict[tuple[str, str], int] = {}
    relation_keys: dict[tuple, str] = {}
    report = IngestReport()

    with path.open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                record = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise IngestError(f"malformed JSON: {exc.msg}", line=lineno)
            kind = record.get("type")
            if kind == "entity":
                eid = _require(record, "id", lineno)
                if eid in entities:
                    raise IngestError(f"duplicate entity id {eid}", line=lineno)
                chunk_ids = record.get("chunk_ids", [])
                if not chunk_ids:
                    raise IngestError(f"entity {eid} has no chunk_ids", line=lineno)
                entities[eid] = Entity(
                    id=eid,
                    name=_require(record, "name", lineno),
                    description=_require(record, "description", lineno),
                    layer=0,
                    source_chunk_ids=list(chunk_ids),
                )
                line_of[("entity", eid)] = lineno
            elif kind == "relation":
                rid = _require(record, "id", lineno)
                if rid in relations:
                    raise IngestError(f"duplicate relation id {rid}", line=lineno)
                source = _require(record, "source", lineno)
                target = _require(record, "target", lineno)
                description = _require(record, "description", lineno)
                if source == target:
                    raise IngestError(f"relation {rid} is a self-loop on {source}", line=lineno)
                key = (source, target, description)
                if key in relation_keys:
                    report.duplicate_relations_dropped += 1
                    continue
                relation_keys[key] = rid
                relations[rid] = Relation(
                    id=rid, source_id=source, target_id=target, description=description, layer=0
                )
                line_of[("relation", rid)] = lineno
            elif kind == "chunk":
                cid = _require(record, "id", lineno)
                if cid in chunks:
                    raise IngestError(f"duplicate chunk id {cid}", line=lineno)
                text = _require(record, "text", lineno)
                chunks[cid] = Chunk(
                    id=cid,
                    text=text,
                    doc_id=record.get("doc_id", ""),
                    token_count=count_tokens(text),
                )
            else:
                raise IngestError(f"unknown record type {kind!r}", line=lineno)

    for rid, r in relations.items():
        for end in (r.source_id, r.target_id):
            if end not in entities:
                raise IngestError(
                    f"relation {rid} references unknown entity {end}",
                    line=line_of[("relation", rid)],
                )
    for eid, e in entities.items():
        for cid in e.source_chunk_ids:
            if cid not in chunks:
                raise IngestError(
                    f"entity {eid} references unknown chunk {cid}",
                    line=line_of[("entity", eid)],
                )

    report.entities = len(entities)
    report.relations = len(relations)
    report.chunks = len(chunks)
    return entities, relations, chunks, report


def _require(record: dict, key: str, lineno: int) -> str:
    value = record.get(key)
    if not isinstance(value, str) or not value:
        raise IngestError(f"missing or empty field {key!r}", line=lineno)
    return value


def _text_shard(rows: Iterable[dict]) -> tuple[bytes, np.ndarray]:
    """One JSON line per row, and the offset of each row's first byte followed by the shard's length."""
    lines = [(json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n").encode("utf-8") for row in rows]
    offsets = np.fromiter(itertools.accumulate(map(len, lines), initial=0), "<u8", len(lines) + 1)
    return b"".join(lines), offsets


def _structure_layout(n_entities: int, n_relations: int) -> list[tuple[str, str, int]]:
    """The arrays of structure.bin in file order: (name, dtype, length)."""
    return [
        ("entity_offsets", "<u8", n_entities + 1),
        ("relation_offsets", "<u8", n_relations + 1),
        ("parents", "<i4", n_entities),
        ("sources", "<i4", n_relations),
        ("targets", "<i4", n_relations),
        ("kinds", "u1", n_relations),
    ]


def _parse_jsonl(data: bytes, name: str) -> list:
    """Parse one JSONL shard with a single json.loads.

    Lines are split on b"\n" only: the writer leaves U+2028, U+2029 and
    U+0085 raw inside strings, and str.splitlines() would split on them.
    """
    lines = [line for line in data.split(b"\n") if line.strip()]
    try:
        rows = json.loads((b"[" + b",".join(lines) + b"]").decode("utf-8"))
    except ValueError as exc:
        raise StoreError(f"{name}: malformed JSON: {exc}") from None
    if len(rows) != len(lines):
        raise StoreError(f"{name}: {len(lines)} lines hold {len(rows)} rows")
    return rows


def _content_hash(names: Iterable[str], data_of: Callable[[str], bytes]) -> str:
    """SHA-256 over each shard's name, a NUL byte and its bytes, in sorted name order."""
    digest = hashlib.sha256()
    for name in sorted(names):
        digest.update(name.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(data_of(name))
    return digest.hexdigest()


def check_out_dir(directory: str | Path) -> None:
    """Raise InvalidArgumentError unless directory is missing, an empty
    directory or an index (it holds manifest.json).

    save_index replaces the whole directory, so it refuses one that holds
    anything else rather than delete files it did not write.
    """
    directory = Path(directory)
    if not directory.exists():
        return
    if directory.is_dir() and ((directory / "manifest.json").is_file() or next(directory.iterdir(), None) is None):
        return
    raise InvalidArgumentError(f"{directory} exists and is neither an empty directory nor an index (no manifest.json)")


def save_index(
    h: Hierarchy,
    embeddings: Mapping[str, np.ndarray],
    chunks: dict[str, Chunk],
    directory: str | Path,
    provider_ids: dict | None = None,
) -> IndexManifest:
    """Write h, one vector per entity and the chunks as a format-2 index.

    Raises InvalidArgumentError before writing anything when directory
    fails check_out_dir, when the vectors' ids differ from the entities
    of h's layers or when a relation or parent link names an entity that
    no layer lists.
    """
    directory = Path(directory).absolute()
    check_out_dir(directory)
    entity_ids = EmbeddingTable.row_order(h)
    if isinstance(embeddings, EmbeddingTable) and embeddings.ids == tuple(entity_ids):
        table = embeddings
    else:
        table = EmbeddingTable.for_hierarchy(h, embeddings)
    relation_ids = [rid for layer in h.layers for rid in sorted(layer.relation_ids)]
    try:
        ends = RelationEnds.of(h, entity_ids, relation_ids)
        rows = ends.entity_rows
        parents = [rows[h.parent_map[eid]] if eid in h.parent_map else -1 for eid in entity_ids]
    except KeyError as exc:
        raise InvalidArgumentError(f"cannot save: {exc.args[0]!r} is not listed by any layer of the hierarchy") from None
    relations = [h.relations[rid] for rid in relation_ids]
    entity_text, entity_offsets = _text_shard(h.entities[eid].to_dict() for eid in entity_ids)
    relation_text, relation_offsets = _text_shard(
        {"id": r.id, "description": r.description, "layer": r.layer} for r in relations
    )
    code_of = {kind: code for code, kind in enumerate(RELATION_KINDS)}
    arrays = {
        "entity_offsets": entity_offsets,
        "relation_offsets": relation_offsets,
        "parents": parents,
        "sources": ends.sources,
        "targets": ends.targets,
        "kinds": [code_of[r.kind] for r in relations],
    }
    layout = _structure_layout(len(entity_ids), len(relation_ids))
    shards = {
        "chunks.jsonl": _text_shard(chunks[cid].to_dict() for cid in sorted(chunks))[0],
        "embeddings.bin": table.matrix.data,
        "entities.jsonl": entity_text,
        "ids.json": json.dumps({"entities": entity_ids, "relations": relation_ids}, ensure_ascii=False).encode("utf-8"),
        "relations.jsonl": relation_text,
        "structure.bin": b"".join(np.asarray(arrays[name], dtype).tobytes() for name, dtype, _ in layout),
    }
    manifest = IndexManifest(
        format_version=FORMAT_VERSION,
        build_params=h.build_params.to_dict() if h.build_params else {},
        layer_stats=[
            {
                "index": layer.index,
                "entities": len(layer.entity_ids),
                "relations": len(layer.relation_ids),
            }
            for layer in h.layers
        ],
        embedding_dim=table.matrix.shape[1],
        provider_ids=provider_ids or {},
        content_hash=_content_hash(shards, shards.__getitem__),
    )
    shards["manifest.json"] = (json.dumps(manifest.to_dict(), sort_keys=True, indent=2) + "\n").encode("utf-8")

    directory.parent.mkdir(parents=True, exist_ok=True)
    staging = directory.with_name(f".{directory.name}.{secrets.token_hex(4)}.tmp")
    staging.mkdir()
    try:
        for name, data in shards.items():
            (staging / name).write_bytes(data)
        _move_into_place(staging, directory)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    return manifest


def _move_into_place(staging: Path, directory: Path) -> None:
    """Rename staging to directory, replacing what directory held."""
    if not directory.exists():
        staging.rename(directory)
        return
    old = staging.with_suffix(".old")
    directory.rename(old)
    try:
        staging.rename(directory)
    except BaseException:
        old.rename(directory)
        raise
    shutil.rmtree(old)


def load_index(
    directory: str | Path,
) -> tuple[Hierarchy, EmbeddingTable, dict[str, Chunk], IndexManifest]:
    """Load a format-2 index, reading each shard once.

    The manifest and the content hash over the bytes read are verified
    first, then the structure, as the module docstring lists; anything
    else raises StoreError. Entity and relation text rows are parsed on
    their first read, which raises StoreError for a bad row. The vectors
    come back as an EmbeddingTable in row order (EmbeddingTable.row_order).
    """
    directory = Path(directory)
    manifest, build_params = _read_manifest(directory)
    shards: dict[str, bytes] = {}
    for name in SHARDS:
        path = directory / name
        if not path.is_file():
            raise StoreError(f"index shard missing: {name}")
        shards[name] = path.read_bytes()
    if _content_hash(shards, shards.__getitem__) != manifest.content_hash:
        raise StoreError("content hash mismatch: index is corrupt or partially written")

    entity_counts = [stat["entities"] for stat in manifest.layer_stats]
    relation_counts = [stat["relations"] for stat in manifest.layer_stats]
    entity_ids, entity_rows, relation_ids, relation_rows = _read_ids(shards["ids.json"], entity_counts, relation_counts)
    arrays = _read_structure(shards["structure.bin"], entity_counts, relation_counts)
    entity_text, relation_text = shards["entities.jsonl"], shards["relations.jsonl"]
    _check_offsets("entity", arrays["entity_offsets"], "entities.jsonl", len(entity_text))
    _check_offsets("relation", arrays["relation_offsets"], "relations.jsonl", len(relation_text))
    _check_links(arrays, entity_ids, relation_ids, entity_counts, relation_counts)

    n, dim = len(entity_ids), manifest.embedding_dim
    data = shards["embeddings.bin"]
    if len(data) != n * dim * 8:
        raise StoreError(f"embeddings.bin: {len(data)} bytes; {n} vectors of dim {dim} take {n * dim * 8}")
    matrix = np.frombuffer(data, "<f8").reshape(n, dim)

    chunks: dict[str, Chunk] = {}
    rows = _parse_jsonl(shards["chunks.jsonl"], "chunks.jsonl")
    try:
        for row in rows:
            c = Chunk.from_dict(row)
            if not isinstance(c.id, str):
                raise StoreError(f"chunks.jsonl: chunk id {c.id!r} is not a string")
            chunks[c.id] = c
    except _ROW_ERRORS as exc:
        raise _malformed("chunks.jsonl", row, exc) from None
    if len(chunks) != len(rows):
        raise StoreError(f"chunks.jsonl: chunk id {_repeated([row['id'] for row in rows])!r} appears twice")

    entity_starts = list(itertools.accumulate(entity_counts, initial=0))
    relation_starts = list(itertools.accumulate(relation_counts, initial=0))
    parents = arrays["parents"][: entity_starts[-2]].tolist()  # every row below the top layer
    ends = RelationEnds(entity_ids, entity_rows, relation_ids, arrays["sources"], arrays["targets"])
    h = Hierarchy(
        entities=LazyRows(entity_rows, _entity_reader(entity_text, arrays["entity_offsets"], entity_ids, entity_starts)),
        relations=LazyRows(
            relation_rows, _relation_reader(relation_text, arrays["relation_offsets"], ends, arrays["kinds"], relation_starts)
        ),
        layers=[
            GraphLayer(k, set(entity_ids[a:b]), set(relation_ids[c:d]))
            for k, (a, b, c, d) in enumerate(zip(entity_starts, entity_starts[1:], relation_starts, relation_starts[1:]))
        ],
        parent_map=dict(zip(entity_ids, [entity_ids[p] for p in parents])),
        build_params=build_params,
    )
    h.relation_ends = ends
    return h, EmbeddingTable(entity_ids, matrix, entity_rows), chunks, manifest


def _read_manifest(directory: Path) -> tuple[IndexManifest, BuildParams | None]:
    manifest_path = directory / "manifest.json"
    if not manifest_path.is_file():
        raise StoreError(f"no manifest at {manifest_path}")
    try:
        manifest = IndexManifest.from_dict(json.loads(manifest_path.read_text(encoding="utf-8")))
        counts = [(stat["index"], stat["entities"], stat["relations"]) for stat in manifest.layer_stats]
        build_params = BuildParams.from_dict(manifest.build_params) if manifest.build_params else None
    except (KeyError, TypeError, ValueError, InvalidArgumentError) as exc:
        raise StoreError(f"manifest.json is malformed: {exc!r}") from None
    if manifest.format_version != FORMAT_VERSION:
        raise StoreError(
            f"format_version {manifest.format_version} unsupported (expected {FORMAT_VERSION}); "
            "build the index again"
        )
    indices = [index for index, _, _ in counts]
    if not indices or indices != list(range(len(indices))):
        raise StoreError(f"manifest.json: layer indices {indices} are not 0..k-1 for some k >= 1")
    sizes = [size for _, *pair in counts for size in pair] + [manifest.embedding_dim]
    if not all(type(size) is int and size >= 0 for size in sizes):
        raise StoreError(f"manifest.json: layer sizes and embedding_dim must be integers >= 0, got {sizes}")
    return manifest, build_params


def _read_ids(
    data: bytes, entity_counts: list[int], relation_counts: list[int]
) -> tuple[list[str], dict[str, int], list[str], dict[str, int]]:
    """The entity and relation ids of ids.json and their row numbers, checked
    against the manifest's layer sizes."""
    try:
        doc = json.loads(data)
        entity_ids, relation_ids = doc["entities"], doc["relations"]
        if type(entity_ids) is not list or type(relation_ids) is not list:
            raise TypeError("the entity and relation ids must be lists")
        "".join(entity_ids + relation_ids)  # TypeError unless every id is a string
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreError(f"ids.json is malformed: {exc!r}") from None
    rows = []
    for kind, ids, counts in (("entity", entity_ids, entity_counts), ("relation", relation_ids, relation_counts)):
        if len(ids) != sum(counts):
            raise StoreError(f"ids.json: {len(ids)} {kind} ids, the manifest's layer sizes sum to {sum(counts)}")
        rows.append(dict(zip(ids, range(len(ids)))))
        if len(rows[-1]) != len(ids):
            raise StoreError(f"ids.json: {kind} id {_repeated(ids)!r} appears twice")
    for k, (a, b) in enumerate(itertools.pairwise(itertools.accumulate(entity_counts, initial=0))):
        if entity_ids[a:b] != sorted(entity_ids[a:b]):
            raise StoreError(f"ids.json: the layer-{k} entity ids are not in sorted order")
    return entity_ids, rows[0], relation_ids, rows[1]


def _read_structure(data: bytes, entity_counts: list[int], relation_counts: list[int]) -> dict[str, np.ndarray]:
    """The arrays of structure.bin, as read-only views of its bytes."""
    layout = _structure_layout(sum(entity_counts), sum(relation_counts))
    size = sum(np.dtype(dtype).itemsize * length for _, dtype, length in layout)
    if len(data) != size:
        raise StoreError(f"structure.bin: {len(data)} bytes; the manifest's layer sizes need {size}")
    arrays, offset = {}, 0
    for name, dtype, length in layout:
        arrays[name] = np.frombuffer(data, dtype, length, offset)
        offset += arrays[name].nbytes
    return arrays


def _check_offsets(kind: str, offsets: np.ndarray, shard: str, size: int) -> None:
    if offsets[0] != 0 or offsets[-1] != size or np.any(offsets[1:] <= offsets[:-1]):
        raise StoreError(f"structure.bin: the {kind} row offsets do not increase from 0 to the {size} bytes of {shard}")


def _check_links(
    arrays: dict[str, np.ndarray],
    entity_ids: list[str],
    relation_ids: list[str],
    entity_counts: list[int],
    relation_counts: list[int],
) -> None:
    """Every parent is a row one layer up (-1 on the top layer), every relation
    endpoint a row of the relation's own layer, every kind code known."""
    n, top = len(entity_ids), len(entity_counts) - 1
    entity_layer = np.repeat(np.arange(top + 1), entity_counts)
    relation_layer = np.repeat(np.arange(top + 1), relation_counts)

    def layer_of(rows: np.ndarray) -> np.ndarray:
        """The layer of each row, and -1 for a value that is no row."""
        found = (rows >= 0) & (rows < n)
        layers = np.full(len(rows), -1)
        layers[found] = entity_layer[rows[found]]
        return layers

    parents = arrays["parents"]
    wrong = np.where(entity_layer == top, parents != -1, layer_of(parents) != entity_layer + 1)
    for i in np.flatnonzero(wrong)[:1].tolist():
        raise StoreError(
            f"structure.bin: entity {entity_ids[i]!r} on layer {entity_layer[i]} has parent row {parents[i]}, "
            + ("but it is on the top layer" if entity_layer[i] == top else f"which is not a row of layer {entity_layer[i] + 1}")
        )
    for end in ("sources", "targets"):
        rows = arrays[end]
        for j in np.flatnonzero(layer_of(rows) != relation_layer)[:1].tolist():
            raise StoreError(
                f"structure.bin: relation {relation_ids[j]!r} on layer {relation_layer[j]} has {end[:-1]} row "
                f"{rows[j]}, which is not a row of its layer"
            )
    for j in np.flatnonzero(arrays["kinds"] >= len(RELATION_KINDS))[:1].tolist():
        raise StoreError(f"structure.bin: relation {relation_ids[j]!r} has unknown kind code {arrays['kinds'][j]}")


def _text_row(shard: str, text: bytes, offsets: np.ndarray, i: int) -> object:
    try:
        return json.loads(text[offsets[i] : offsets[i + 1]])
    except ValueError as exc:
        raise StoreError(f"{shard}: row {i} is malformed: {exc}") from None


def _entity_reader(text: bytes, offsets: np.ndarray, ids: list[str], starts: list[int]) -> Callable[[int], Entity]:
    """Entity row i from its text, checked against its id and layer in the structure."""

    def entity(i: int) -> Entity:
        row = _text_row("entities.jsonl", text, offsets, i)
        try:
            e = Entity.from_dict(row)
        except _ROW_ERRORS as exc:
            raise _malformed("entities.jsonl", row, exc) from None
        layer = bisect_right(starts, i) - 1
        if e.id != ids[i] or e.layer != layer:
            raise StoreError(
                f"entities.jsonl: row {i} holds entity {e.id!r} of layer {e.layer!r}, not {ids[i]!r} of layer {layer}"
            )
        return e

    return entity


def _relation_reader(
    text: bytes, offsets: np.ndarray, ends: RelationEnds, kinds: np.ndarray, starts: list[int]
) -> Callable[[int], Relation]:
    """Relation row j from its text and the structure's endpoints and kind."""
    entity_ids, relation_ids = ends.entity_ids, ends.relation_ids

    def relation(j: int) -> Relation:
        row = _text_row("relations.jsonl", text, offsets, j)
        try:
            r = Relation(
                row["id"],
                entity_ids[ends.sources[j]],
                entity_ids[ends.targets[j]],
                row["description"],
                row["layer"],
                RELATION_KINDS[kinds[j]],
            )
        except _ROW_ERRORS as exc:
            raise _malformed("relations.jsonl", row, exc) from None
        layer = bisect_right(starts, j) - 1
        if r.id != relation_ids[j] or r.layer != layer:
            raise StoreError(
                f"relations.jsonl: row {j} holds relation {r.id!r} of layer {r.layer!r}, "
                f"not {relation_ids[j]!r} of layer {layer}"
            )
        return r

    return relation


def _repeated(ids: list) -> object:
    """An id that appears more than once in ids."""
    return next(x for x, count in Counter(ids).items() if count > 1)


def _malformed(name: str, row: object, exc: Exception) -> StoreError:
    return StoreError(f"{name}: malformed row {row!r:.120}: {exc!r}")
