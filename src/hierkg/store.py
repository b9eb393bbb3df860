"""Ingestion and on-disk index serialization.

Ingest reads line-delimited JSON records (entity / relation / chunk,
discriminated by a "type" tag) and produces a validated layer-0 graph.
A built index is saved as a directory: a manifest, one JSONL file per
layer for entities and relations, a chunk file, and a little-endian
binary embedding shard. Each entity row carries its parent_id from
Hierarchy.parent_map (null on the top layer). The manifest's content
hash is SHA-256 over each shard's name, a NUL byte and its bytes, in
sorted name order.

embeddings.bin stores the vectors in sorted-id order.

A load reads each shard from disk once and verifies the content hash
over those bytes before it parses any row. It fails closed with
StoreError (CLI exit 3) on a hash mismatch, a malformed manifest or
row, row, embedding or dimension counts that disagree with the
manifest, an entity, relation or chunk id that is not a string or
repeats, an entity or relation whose layer field differs from its shard,
a parent_id naming no loaded entity of the next layer up, or a relation
endpoint naming no entity of the relation's own layer. Each entity and
relation shard is turned into model objects in one pass over its rows,
with the cyclic garbage collector paused for the whole load. It returns
the vectors as one EmbeddingTable whose rows are laid out layer by layer,
layer 0 first, each layer in sorted-id order; the disk order stays
sorted by id, so the saved bytes and the content hash do not depend on
the table's layout.
"""

from __future__ import annotations

import gc
import hashlib
import json
import struct
from collections.abc import Callable, Iterable, Iterator, Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import IngestError, InvalidArgumentError, StoreError
from .model import BuildParams, Chunk, EmbeddingTable, Entity, GraphLayer, Hierarchy, Relation
from .providers import count_tokens

FORMAT_VERSION = 1
EMBEDDING_MAGIC = b"HKGEMB1\x00"
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


def _jsonl_bytes(rows: list[dict]) -> bytes:
    return "".join(json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n" for row in rows).encode("utf-8")


def _parse_jsonl(shards: dict[str, bytes], name: str, expected: int | None = None) -> list:
    """Parse one JSONL shard with a single json.loads, dropping its bytes.

    Lines are split on b"\n" only: the writer leaves U+2028, U+2029 and
    U+0085 raw inside strings, and str.splitlines() would split on them.
    expected, when given, is the row count the manifest records.
    """
    lines = [line for line in shards.pop(name).split(b"\n") if line.strip()]
    try:
        rows = json.loads((b"[" + b",".join(lines) + b"]").decode("utf-8"))
    except ValueError as exc:
        raise StoreError(f"{name}: malformed JSON: {exc}") from None
    if len(rows) != len(lines):
        raise StoreError(f"{name}: {len(lines)} lines hold {len(rows)} rows")
    if expected is not None and len(rows) != expected:
        raise StoreError(f"{name}: {len(rows)} rows, manifest says {expected}")
    return rows


def _embedding_bytes(embeddings: Mapping[str, np.ndarray], dim: int) -> bytes:
    ids = sorted(embeddings)
    parts = [EMBEDDING_MAGIC, struct.pack("<II", len(ids), dim)]
    for eid in ids:
        vec = np.asarray(embeddings[eid], dtype="<f8")
        if vec.shape != (dim,):
            raise StoreError(f"embedding {eid} has dim {vec.shape}, expected ({dim},)")
        encoded = eid.encode("utf-8")
        parts += [struct.pack("<H", len(encoded)), encoded, vec.tobytes()]
    return b"".join(parts)


def _read_embeddings(data: bytes, row_of: dict[str, int]) -> tuple[np.ndarray, int]:
    """Parse embeddings.bin into one (N, d) float64 matrix.

    Each vector is copied straight into row row_of[id]; the shard must
    hold exactly one vector for each id of row_of.
    """
    if not data.startswith(EMBEDDING_MAGIC):
        raise StoreError("embedding shard has wrong magic")
    offset = len(EMBEDDING_MAGIC)
    try:
        count, dim = struct.unpack_from("<II", data, offset)
        offset += 8
        if count != len(row_of):
            raise StoreError(f"embeddings.bin: {count} vectors do not match the {len(row_of)} entities")
        vec_bytes = dim * 8
        # every row holds at least a 2-byte id length and its vector
        if count * (2 + vec_bytes) > len(data) - offset:
            raise StoreError(f"embedding shard is too short for {count} rows of dim {dim}")
        matrix = np.empty((count, dim), dtype="<f8")
        dst = memoryview(matrix.reshape(-1).view(np.uint8))
        src = memoryview(data)
        filled = bytearray(count)
        for _ in range(count):
            (id_len,) = struct.unpack_from("<H", data, offset)
            offset += 2
            eid = data[offset : offset + id_len].decode("utf-8")
            offset += id_len
            row = row_of.get(eid)
            if row is None or filled[row]:
                raise StoreError(f"embeddings.bin: unexpected or repeated vector for entity {eid!r}")
            filled[row] = 1
            dst[row * vec_bytes : (row + 1) * vec_bytes] = src[offset : offset + vec_bytes]
            offset += vec_bytes
    except (struct.error, ValueError) as exc:
        raise StoreError(f"embedding shard is truncated or malformed: {exc}") from None
    if offset != len(data):
        raise StoreError("embedding shard has trailing bytes")
    return matrix, dim


def _content_hash(names: Iterable[str], data_of: Callable[[str], bytes]) -> str:
    """SHA-256 over each shard's name, a NUL byte and its bytes, in sorted name order.

    data_of(name) is called once per shard, in that order, so a caller
    can produce each shard's bytes only when they are hashed.
    """
    digest = hashlib.sha256()
    for name in sorted(names):
        digest.update(name.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(data_of(name))
    return digest.hexdigest()


def save_index(
    h: Hierarchy,
    embeddings: Mapping[str, np.ndarray],
    chunks: dict[str, Chunk],
    directory: str | Path,
    provider_ids: dict | None = None,
) -> IndexManifest:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    dim = int(embeddings[min(embeddings)].shape[0]) if embeddings else 0
    render: dict[str, Callable[[], bytes]] = {
        "chunks.jsonl": lambda: _jsonl_bytes([chunks[cid].to_dict() for cid in sorted(chunks)]),
        "embeddings.bin": lambda: _embedding_bytes(embeddings, dim),
    }
    for layer in h.layers:
        render[f"entities_{layer.index}.jsonl"] = lambda layer=layer: _jsonl_bytes(
            [{**h.entities[eid].to_dict(), "parent_id": h.parent_map.get(eid)} for eid in sorted(layer.entity_ids)]
        )
        render[f"relations_{layer.index}.jsonl"] = lambda layer=layer: _jsonl_bytes(
            [h.relations[rid].to_dict() for rid in sorted(layer.relation_ids)]
        )

    def write(name: str) -> bytes:
        data = render[name]()
        (directory / name).write_bytes(data)
        return data

    # each shard is rendered, written and hashed in turn, so only one
    # shard's bytes are held at a time
    content_hash = _content_hash(render, write)

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
        embedding_dim=dim,
        provider_ids=provider_ids or {},
        content_hash=content_hash,
    )
    (directory / "manifest.json").write_text(
        json.dumps(manifest.to_dict(), sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return manifest


def load_index(
    directory: str | Path,
) -> tuple[Hierarchy, EmbeddingTable, dict[str, Chunk], IndexManifest]:
    """Load a saved index, reading each shard once.

    The version and the content hash over the bytes read are verified
    before any row is parsed; row, layer and embedding counts must then
    match the manifest, ids must be strings that do not repeat, every
    parent_id must name a loaded entity one layer up and every relation
    endpoint an entity of the relation's layer. Anything else raises
    StoreError. The vectors come back as an EmbeddingTable in layer order
    (EmbeddingTable.row_order).
    """
    # a load makes tens of thousands of objects and no reference cycles, so
    # collections during it would only re-scan live objects
    with _gc_paused():
        return _load_index(Path(directory))


def _load_index(directory: Path) -> tuple[Hierarchy, EmbeddingTable, dict[str, Chunk], IndexManifest]:
    manifest_path = directory / "manifest.json"
    if not manifest_path.is_file():
        raise StoreError(f"no manifest at {manifest_path}")
    try:
        manifest = IndexManifest.from_dict(json.loads(manifest_path.read_text(encoding="utf-8")))
        layer_counts = [(stat["index"], stat["entities"], stat["relations"]) for stat in manifest.layer_stats]
        build_params = BuildParams.from_dict(manifest.build_params) if manifest.build_params else None
    except (KeyError, TypeError, ValueError, InvalidArgumentError) as exc:
        raise StoreError(f"manifest.json is malformed: {exc!r}") from None
    if manifest.format_version != FORMAT_VERSION:
        raise StoreError(
            f"format_version {manifest.format_version} unsupported (expected {FORMAT_VERSION})"
        )
    if len({index for index, _, _ in layer_counts}) != len(layer_counts):
        raise StoreError("manifest.json lists a layer twice")
    layer_counts.sort()

    names = [f"{kind}_{index}.jsonl" for index, _, _ in layer_counts for kind in ("entities", "relations")]
    names += ["chunks.jsonl", "embeddings.bin"]
    shards: dict[str, bytes] = {}
    for name in names:
        path = directory / name
        if not path.is_file():
            raise StoreError(f"index shard missing: {name}")
        shards[name] = path.read_bytes()
    if _content_hash(shards, shards.__getitem__) != manifest.content_hash:
        raise StoreError("content hash mismatch: index is corrupt or partially written")

    # every entity is loaded before any reference to one is checked
    h = Hierarchy(build_params=build_params)
    entities, parent_map = h.entities, h.parent_map
    for index, n_entities, _ in layer_counts:
        name = f"entities_{index}.jsonl"
        rows = _parse_jsonl(shards, name, n_entities)
        loaded = len(entities)
        try:
            for row in rows:
                e = Entity.from_dict(row)
                if not isinstance(e.id, str):
                    raise StoreError(f"{name}: entity id {e.id!r} is not a string or appears twice")
                if e.layer != index:
                    raise StoreError(f"{name}: entity {e.id!r} declares layer {e.layer!r}")
                entities[e.id] = e
                parent = row.get("parent_id")
                if parent is not None:
                    parent_map[e.id] = parent
        except _ROW_ERRORS as exc:
            raise _malformed(name, row, exc) from None
        if len(entities) != loaded + len(rows):
            repeated = _repeated_id(rows, [layer.entity_ids for layer in h.layers])
            raise StoreError(f"{name}: entity id {repeated!r} is not a string or appears twice")
        h.layers.append(GraphLayer(index, {row["id"] for row in rows}))
        del rows  # free this shard's rows before the next one is parsed
    for child, parent in parent_map.items():
        layer = entities[child].layer
        found = entities.get(parent) if isinstance(parent, str) else None
        if found is None or found.layer != layer + 1:
            where = "not in the index" if found is None else f"on layer {found.layer}, not {layer + 1}"
            raise StoreError(f"entities_{layer}.jsonl: entity {child!r} names parent {parent!r}, which is {where}")

    relations = h.relations
    for layer, (index, _, n_relations) in zip(h.layers, layer_counts):
        name = f"relations_{index}.jsonl"
        rows = _parse_jsonl(shards, name, n_relations)
        loaded = len(relations)
        ends = layer.entity_ids  # both endpoints lie on the relation's own layer
        try:
            for row in rows:
                r = Relation.from_dict(row)
                if not isinstance(r.id, str):
                    raise StoreError(f"{name}: relation id {r.id!r} is not a string")
                if r.layer != index:
                    raise StoreError(f"{name}: relation {r.id!r} declares layer {r.layer!r}")
                if r.source_id not in ends or r.target_id not in ends:
                    raise _endpoint_error(name, r, entities)
                relations[r.id] = r
        except _ROW_ERRORS as exc:
            raise _malformed(name, row, exc) from None
        if len(relations) != loaded + len(rows):
            # the layers not loaded yet, this one included, still hold no relation ids
            repeated = _repeated_id(rows, [other.relation_ids for other in h.layers])
            raise StoreError(f"{name}: relation id {repeated!r} appears twice")
        layer.relation_ids = {row["id"] for row in rows}
        del rows

    chunks: dict[str, Chunk] = {}
    rows = _parse_jsonl(shards, "chunks.jsonl")
    try:
        for row in rows:
            c = Chunk.from_dict(row)
            if not isinstance(c.id, str):
                raise StoreError(f"chunks.jsonl: chunk id {c.id!r} is not a string")
            chunks[c.id] = c
    except _ROW_ERRORS as exc:
        raise _malformed("chunks.jsonl", row, exc) from None
    if len(chunks) != len(rows):
        raise StoreError(f"chunks.jsonl: chunk id {_repeated_id(rows, [])!r} appears twice")

    # one id -> row dict serves both the shard reader and the table
    ids = EmbeddingTable.row_order(h)
    row_of = {eid: i for i, eid in enumerate(ids)}
    matrix, dim = _read_embeddings(shards.pop("embeddings.bin"), row_of)
    if dim != manifest.embedding_dim:
        raise StoreError(f"embeddings.bin: dim {dim}, manifest says {manifest.embedding_dim}")
    return h, EmbeddingTable(ids, matrix, row_of), chunks, manifest


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector, restoring its previous state on exit.

    Collections that allocations would trigger meanwhile only re-scan live
    objects; the objects made while paused are scanned once, at the next
    collection. The switch is process-wide, so another thread that turns
    the collector off during the pause sees it turned back on at the end.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _repeated_id(rows: list[dict], earlier: list[set]) -> object:
    """The first row id that an earlier row or one of the earlier id sets holds."""
    seen = set().union(*earlier)
    for row in rows:
        if row["id"] in seen:
            return row["id"]
        seen.add(row["id"])
    return None


def _endpoint_error(name: str, r: Relation, entities: dict[str, Entity]) -> StoreError:
    if r.source_id in entities and r.target_id in entities:
        where = f"not a layer-{r.layer} entity"
    else:
        where = "not in the index"
    return StoreError(
        f"{name}: relation {r.id!r} names an endpoint that is {where}: {r.source_id!r} -> {r.target_id!r}"
    )


def _malformed(name: str, row: object, exc: Exception) -> StoreError:
    return StoreError(f"{name}: malformed row {row!r:.120}: {exc!r}")
