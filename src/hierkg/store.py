"""Ingestion and on-disk index serialization.

Ingest reads line-delimited JSON records (entity / relation / chunk,
discriminated by a "type" tag) and produces a validated layer-0 graph.
A built index is saved as a directory: a manifest, one JSONL file per
layer for entities and relations, a chunk file, and a little-endian
binary embedding shard. Each entity row carries its parent_id from
Hierarchy.parent_map (null on the top layer). The manifest's content
hash is SHA-256 over each shard's name, a NUL byte and its bytes, in
sorted name order.

A load reads each shard from disk once and verifies the content hash
over those bytes before it parses any row. It fails closed with
StoreError (CLI exit 3) on a hash mismatch, a malformed manifest or
row, or row, embedding or dimension counts that disagree with the
manifest.
"""

from __future__ import annotations

import hashlib
import json
import struct
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import IngestError, InvalidArgumentError, StoreError
from .model import BuildParams, Chunk, Entity, GraphLayer, Hierarchy, Relation
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


def _embedding_bytes(embeddings: dict[str, np.ndarray], dim: int) -> bytes:
    ids = sorted(embeddings)
    parts = [EMBEDDING_MAGIC, struct.pack("<II", len(ids), dim)]
    for eid in ids:
        vec = np.asarray(embeddings[eid], dtype="<f8")
        if vec.shape != (dim,):
            raise StoreError(f"embedding {eid} has dim {vec.shape}, expected ({dim},)")
        encoded = eid.encode("utf-8")
        parts += [struct.pack("<H", len(encoded)), encoded, vec.tobytes()]
    return b"".join(parts)


def _read_embeddings(data: bytes) -> tuple[dict[str, np.ndarray], int]:
    """Parse embeddings.bin into row views of one (N, d) float64 matrix."""
    if not data.startswith(EMBEDDING_MAGIC):
        raise StoreError("embedding shard has wrong magic")
    offset = len(EMBEDDING_MAGIC)
    try:
        count, dim = struct.unpack_from("<II", data, offset)
        offset += 8
        vec_bytes = dim * 8
        # every row holds at least a 2-byte id length and its vector
        if count * (2 + vec_bytes) > len(data) - offset:
            raise StoreError(f"embedding shard is too short for {count} rows of dim {dim}")
        matrix = np.empty((count, dim), dtype="<f8")
        dst = memoryview(matrix.reshape(-1).view(np.uint8))
        src = memoryview(data)
        out: dict[str, np.ndarray] = {}
        for i in range(count):
            (id_len,) = struct.unpack_from("<H", data, offset)
            offset += 2
            eid = data[offset : offset + id_len].decode("utf-8")
            offset += id_len
            dst[i * vec_bytes : (i + 1) * vec_bytes] = src[offset : offset + vec_bytes]
            offset += vec_bytes
            out[eid] = matrix[i]
    except (struct.error, ValueError) as exc:
        raise StoreError(f"embedding shard is truncated or malformed: {exc}") from None
    if offset != len(data):
        raise StoreError("embedding shard has trailing bytes")
    return out, dim


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
    embeddings: dict[str, np.ndarray],
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
) -> tuple[Hierarchy, dict[str, np.ndarray], dict[str, Chunk], IndexManifest]:
    """Load a saved index, reading each shard once.

    The version and the content hash over the bytes read are verified
    before any row is parsed; row, layer and embedding counts must then
    match the manifest. Anything else raises StoreError.
    """
    directory = Path(directory)
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

    h = Hierarchy(build_params=build_params)
    for index, n_entities, n_relations in layer_counts:
        layer = GraphLayer(index=index)
        name = f"entities_{index}.jsonl"
        rows = _parse_jsonl(shards, name, n_entities)
        try:
            for row in rows:
                e = Entity.from_dict(row)
                h.entities[e.id] = e
                layer.entity_ids.add(e.id)
                if row.get("parent_id") is not None:
                    h.parent_map[e.id] = row["parent_id"]
        except _ROW_ERRORS as exc:
            raise _malformed(name, row, exc) from None
        name = f"relations_{index}.jsonl"
        rows = _parse_jsonl(shards, name, n_relations)
        try:
            for row in rows:
                r = Relation.from_dict(row)
                h.relations[r.id] = r
                layer.relation_ids.add(r.id)
        except _ROW_ERRORS as exc:
            raise _malformed(name, row, exc) from None
        h.layers.append(layer)
    h.layers.sort(key=lambda l: l.index)

    chunks: dict[str, Chunk] = {}
    rows = _parse_jsonl(shards, "chunks.jsonl")
    try:
        for row in rows:
            chunks[row["id"]] = Chunk.from_dict(row)
    except _ROW_ERRORS as exc:
        raise _malformed("chunks.jsonl", row, exc) from None

    embeddings, dim = _read_embeddings(shards.pop("embeddings.bin"))
    if dim != manifest.embedding_dim:
        raise StoreError(f"embeddings.bin: dim {dim}, manifest says {manifest.embedding_dim}")
    if embeddings.keys() != h.entities.keys():
        raise StoreError(
            f"embeddings.bin: {len(embeddings)} vectors do not match the {len(h.entities)} entities"
        )
    return h, embeddings, chunks, manifest


def _malformed(name: str, row: object, exc: Exception) -> StoreError:
    return StoreError(f"{name}: malformed row {row!r:.120}: {exc!r}")
