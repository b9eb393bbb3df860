"""Ingestion and on-disk index serialization.

Ingest reads line-delimited JSON records (entity / relation / chunk,
discriminated by a "type" tag) and produces a validated layer-0 graph.
A built index is saved as a directory: a manifest, one JSONL file per
layer for entities and relations, a chunk file, and a little-endian
binary embedding shard. Each entity row carries its parent_id from
Hierarchy.parent_map (null on the top layer). Loads verify the
manifest's content hash and fail closed on any mismatch.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import IngestError, StoreError
from .model import BuildParams, Chunk, Entity, GraphLayer, Hierarchy, Relation
from .providers import count_tokens

FORMAT_VERSION = 1
EMBEDDING_MAGIC = b"HKGEMB1\x00"


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


def _dump_jsonl(path: Path, rows: list[dict]) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n")


def _load_jsonl(path: Path) -> list[dict]:
    rows = []
    with path.open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


def _write_embeddings(path: Path, embeddings: dict[str, np.ndarray]) -> int:
    ids = sorted(embeddings)
    dim = int(embeddings[ids[0]].shape[0]) if ids else 0
    with path.open("wb") as fh:
        fh.write(EMBEDDING_MAGIC)
        fh.write(struct.pack("<II", len(ids), dim))
        for eid in ids:
            vec = np.asarray(embeddings[eid], dtype="<f8")
            if vec.shape != (dim,):
                raise StoreError(f"embedding {eid} has dim {vec.shape}, expected ({dim},)")
            encoded = eid.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(vec.tobytes())
    return dim


def _read_embeddings(path: Path) -> dict[str, np.ndarray]:
    data = path.read_bytes()
    if not data.startswith(EMBEDDING_MAGIC):
        raise StoreError("embedding shard has wrong magic")
    offset = len(EMBEDDING_MAGIC)
    count, dim = struct.unpack_from("<II", data, offset)
    offset += 8
    out: dict[str, np.ndarray] = {}
    vec_bytes = dim * 8
    for _ in range(count):
        (id_len,) = struct.unpack_from("<H", data, offset)
        offset += 2
        eid = data[offset : offset + id_len].decode("utf-8")
        offset += id_len
        out[eid] = np.frombuffer(data[offset : offset + vec_bytes], dtype="<f8").copy()
        offset += vec_bytes
    if offset != len(data):
        raise StoreError("embedding shard has trailing bytes")
    return out


def _content_hash(directory: Path, names: list[str]) -> str:
    digest = hashlib.sha256()
    for name in sorted(names):
        digest.update(name.encode("utf-8"))
        digest.update(b"\x00")
        digest.update((directory / name).read_bytes())
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

    names: list[str] = []
    for layer in h.layers:
        ename = f"entities_{layer.index}.jsonl"
        rname = f"relations_{layer.index}.jsonl"
        rows = [
            {**h.entities[eid].to_dict(), "parent_id": h.parent_map.get(eid)} for eid in sorted(layer.entity_ids)
        ]
        _dump_jsonl(directory / ename, rows)
        _dump_jsonl(directory / rname, [h.relations[rid].to_dict() for rid in sorted(layer.relation_ids)])
        names.extend([ename, rname])
    _dump_jsonl(directory / "chunks.jsonl", [chunks[cid].to_dict() for cid in sorted(chunks)])
    names.append("chunks.jsonl")
    dim = _write_embeddings(directory / "embeddings.bin", embeddings)
    names.append("embeddings.bin")

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
        content_hash=_content_hash(directory, names),
    )
    (directory / "manifest.json").write_text(
        json.dumps(manifest.to_dict(), sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return manifest


def load_index(
    directory: str | Path,
) -> tuple[Hierarchy, dict[str, np.ndarray], dict[str, Chunk], IndexManifest]:
    """Load a saved index, verifying version and content hash first."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.is_file():
        raise StoreError(f"no manifest at {manifest_path}")
    manifest = IndexManifest.from_dict(json.loads(manifest_path.read_text(encoding="utf-8")))
    if manifest.format_version != FORMAT_VERSION:
        raise StoreError(
            f"format_version {manifest.format_version} unsupported (expected {FORMAT_VERSION})"
        )

    names = []
    for stat in manifest.layer_stats:
        names.extend([f"entities_{stat['index']}.jsonl", f"relations_{stat['index']}.jsonl"])
    names.extend(["chunks.jsonl", "embeddings.bin"])
    for name in names:
        if not (directory / name).is_file():
            raise StoreError(f"index shard missing: {name}")
    actual = _content_hash(directory, names)
    if actual != manifest.content_hash:
        raise StoreError("content hash mismatch: index is corrupt or partially written")

    h = Hierarchy(build_params=BuildParams.from_dict(manifest.build_params) if manifest.build_params else None)
    for stat in manifest.layer_stats:
        layer = GraphLayer(index=stat["index"])
        for row in _load_jsonl(directory / f"entities_{stat['index']}.jsonl"):
            e = Entity.from_dict(row)
            h.entities[e.id] = e
            layer.entity_ids.add(e.id)
            if row.get("parent_id") is not None:
                h.parent_map[e.id] = row["parent_id"]
        for row in _load_jsonl(directory / f"relations_{stat['index']}.jsonl"):
            r = Relation.from_dict(row)
            h.relations[r.id] = r
            layer.relation_ids.add(r.id)
        h.layers.append(layer)
    h.layers.sort(key=lambda l: l.index)

    chunks = {row["id"]: Chunk.from_dict(row) for row in _load_jsonl(directory / "chunks.jsonl")}
    embeddings = _read_embeddings(directory / "embeddings.bin")
    return h, embeddings, chunks, manifest
