"""Ingestion and on-disk index serialization.

Ingest reads line-delimited JSON records (entity / relation / chunk,
discriminated by a "type" tag) and produces a validated layer-0 graph.

A built index is a directory in format 3, which keeps the structure
apart from the text and stores each fact once. Entity rows are numbered
in EmbeddingTable.row_order (layer by layer, layer 0 first, each layer in
sorted-id order), relation rows layer by layer, each layer in sorted-id
order, and chunk rows in sorted-id order; the manifest's layer_stats give
each layer's entity and relation counts.

    manifest.json    format_version, build params, layer_stats, embedding_dim,
                     provider ids, content_hash
    ids.json         {"entities": [ids by row], "relations": [ids by row],
                      "chunks": [ids by row]}
    structure.bin    back to back, for n entities, m relations and c chunks:
                     entity, relation and chunk text offsets (<u8, n + 1,
                     m + 1 and c + 1: row i is bytes offsets[i]:offsets[i + 1]
                     of its shard), parent rows (<i4, n; -1 on the top layer),
                     relation source and target rows (<i4, m each),
                     relation kinds (u1, m; codes in RelationKind order)
    embeddings.bin   the (n, embedding_dim) vectors as raw <f8, in row order
    entities.jsonl   one JSON line per entity: [name, description, source_chunk_ids]
    relations.txt    each relation's description as raw UTF-8, no separator;
                     empty for an inter_cluster_concatenated relation
    chunks.jsonl     one JSON line per chunk: [text, doc_id, token_count]

Ids and layers live only in ids.json and the layer sizes. An
inter_cluster_concatenated relation between aggregates A and B stores no
text: its description is the "; "-join, in row order, of the descriptions
of the relations one layer down whose endpoints' parents are A and B (its
evidence, as bucket_relations finds it). save_index refuses a hierarchy
in which that join differs from the stored description.

The manifest's content hash is SHA-256 over each shard's name, a NUL
byte and its bytes, in sorted name order (_hash_order, which save and
load share). It covers the shards, not the manifest: a load checks the
manifest's layer sizes and embedding_dim against the shards, but reads
its build_params and provider_ids as written, unverified.

save_index writes the whole directory beside its destination and
renames it into place, so an
interrupted save leaves the old index, if any, as it was; only between
the two renames that swap the new index in does the old one sit beside
the destination, under a name ending in .old. Nothing is fsynced. The
destination must be missing, an empty directory or an index
(check_out_dir); no file survives from an earlier index.

A load reads each shard once, in the hash's order, and checks the
format while it hashes: a second thread hashes embeddings.bin, most of
an index's bytes, while the calling thread reads the later shards and
makes the checks below. It returns, or raises one of their errors, only
if the content hash over the bytes read is the manifest's; if it is not,
StoreError("content hash mismatch") replaces any error of those checks.
No thread outlives a load. The checks are whole-array checks:
manifest layer indices exactly 0..k-1 for some k >= 1, an embedding_dim
of 1 or more, layer sizes that sum to the id counts, ids that are
strings, one id-run rule for the
entity, relation and chunk ids (each layer's run, and the one run of the
chunks, is strictly increasing, and no id sits on two runs), offsets
that do not decrease from 0 to their shard's length, an empty relation
text row exactly for each concatenated relation and an embedding shard
of exactly n * embedding_dim * 8 bytes. The links must pass
Structure.violations, the structural rules of validate_hierarchy (among
them that layer 0 is not empty), all of which save_index enforces, and
Structure.exact_duplicates: no relation may repeat an earlier one's
source, target, layer and description. Any failure raises StoreError
(CLI exit 3).
The embedding table is a read-only view of the bytes read, and so are
the arrays of Hierarchy.structure. A load builds an id -> row dict only
for the entities and the chunks: a relation's row is found by binary
search in its layer's sorted ids (SortedRunRows). parent_map and each
layer's id sets are read-only RowRange views of the id lists: parent_map
reads the parent rows, and a layer's entity_ids and relation_ids are
the keys of its runs. Entities, relations and chunks are LazyRows maps
that make a row on its first read. A row that is malformed, an entity
row that lists chunk ids off layer 0 or none on it, a relation row that
is not UTF-8 and a concatenated relation with no evidence raise
StoreError at that read, so a query fails with exit 3 when it reaches
one. An index of an earlier format is refused with a StoreError naming
its version.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import operator
import secrets
import shutil
import threading
from bisect import bisect_right
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import TextIO

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
    RELATION_KINDS,
    Relation,
    RelationKind,
    RowRange,
    SortedRunRows,
    Structure,
    _checked_structure,
)
from .providers import count_tokens

FORMAT_VERSION = 3
SHARDS = ("chunks.jsonl", "embeddings.bin", "entities.jsonl", "ids.json", "relations.txt", "structure.bin")
CONCATENATED = RELATION_KINDS.index(RelationKind.INTER_CLUSTER_CONCATENATED)


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

    Each non-blank line of the UTF-8 file (open_input) is a JSON object:
    ids, names, descriptions, sources, targets and texts are non-blank
    strings, chunk_ids a non-empty list of strings, doc_id a string.
    Referential integrity is checked after the full file is read so the
    record order does not matter; every error names its source line.
    """
    entities: dict[str, Entity] = {}
    relations: dict[str, Relation] = {}
    chunks: dict[str, Chunk] = {}
    line_of: dict[tuple[str, str], int] = {}
    relation_keys: dict[tuple, str] = {}
    report = IngestReport()

    with open_input(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                record = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise IngestError(f"malformed JSON: {exc.msg}", line=lineno)
            if type(record) is not dict:
                raise IngestError(f"record {raw:.60} is not a JSON object", line=lineno)
            kind = record.get("type")
            if kind == "entity":
                eid = _require(record, "id", lineno)
                if eid in entities:
                    raise IngestError(f"duplicate entity id {eid}", line=lineno)
                chunk_ids = record.get("chunk_ids")
                if type(chunk_ids) is not list or not chunk_ids or not all(type(cid) is str for cid in chunk_ids):
                    raise IngestError(f"entity {eid}: chunk_ids must be a non-empty list of chunk ids", line=lineno)
                entities[eid] = Entity(
                    id=eid,
                    name=_require(record, "name", lineno),
                    description=_require(record, "description", lineno),
                    layer=0,
                    source_chunk_ids=chunk_ids,
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
                doc_id = record.get("doc_id", "")
                if type(doc_id) is not str:
                    raise IngestError(f"chunk {cid}: doc_id must be a string", line=lineno)
                chunks[cid] = Chunk(
                    id=cid,
                    text=text,
                    doc_id=doc_id,
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
    if type(value) is not str or not value.strip():
        raise IngestError(f"field {key!r} is missing, blank or not a string", line=lineno)
    return value


@contextlib.contextmanager
def open_input(path: str | Path) -> Iterator[TextIO]:
    """path opened as UTF-8 text, for reading.

    A file that cannot be read, such as a missing file or a directory, or
    that is not UTF-8, raises IngestError (CLI exit 3); the latter names
    the line of its first bad byte.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        with open(path, "rb") as fh:  # no UTF-8 sequence holds a newline byte, so each line decodes alone
            for lineno, raw in enumerate(fh, start=1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise IngestError(f"{path} is not UTF-8: {exc.reason}", line=lineno) from None
        raise


def _text_shard(rows: Iterable[bytes]) -> tuple[bytes, np.ndarray]:
    """The rows back to back, and the offset of each row's first byte followed by the shard's length."""
    rows = list(rows)
    offsets = np.fromiter(itertools.accumulate(map(len, rows), initial=0), "<u8", len(rows) + 1)
    return b"".join(rows), offsets


def _json_line(values: list) -> bytes:
    return (json.dumps(values, ensure_ascii=False) + "\n").encode("utf-8")


def _structure_layout(n_entities: int, n_relations: int, n_chunks: int) -> list[tuple[str, str, int]]:
    """The arrays of structure.bin in file order: (name, dtype, length)."""
    return [
        ("entity_offsets", "<u8", n_entities + 1),
        ("relation_offsets", "<u8", n_relations + 1),
        ("chunk_offsets", "<u8", n_chunks + 1),
        ("parents", "<i4", n_entities),
        ("sources", "<i4", n_relations),
        ("targets", "<i4", n_relations),
        ("kinds", "u1", n_relations),
    ]


def _pair_key(a, b, n: int):
    """One int64 key per unordered pair of entity rows (a, b), for n entity rows."""
    return np.minimum(a, b).astype(np.int64) * n + np.maximum(a, b)


class _Evidence:
    """The relations a concatenated relation is made from.

    For aggregates a and b (entity rows), the evidence is the relations one
    layer down whose endpoints' parents are a and b: the crossing relations
    bucket_relations finds for that pair. One sort of the crossing
    relations' parent-pair keys finds it for all pairs.
    """

    def __init__(self, structure: Structure):
        parents = structure.parents
        self._n = len(parents)
        up_s, up_t = parents[structure.sources], parents[structure.targets]
        # a relation within one cluster, or on the top layer, is no pair's evidence
        rows = np.flatnonzero((up_s != up_t) & (up_s >= 0) & (up_t >= 0))
        keys = _pair_key(up_s[rows], up_t[rows], self._n)
        order = np.argsort(keys)
        self._rows, self._keys = rows[order], keys[order]

    def rows(self, a: np.ndarray, b: np.ndarray) -> list[np.ndarray]:
        """For each pair (a[i], b[i]) of aggregate rows, the rows of its evidence in row order."""
        keys = _pair_key(a, b, self._n)
        lo, hi = np.searchsorted(self._keys, keys, "left"), np.searchsorted(self._keys, keys, "right")
        return [np.sort(self._rows[i:j]) for i, j in zip(lo.tolist(), hi.tolist())]


def _hash_order(names: Iterable[str]) -> Iterator[tuple[str, bytes]]:
    """The content hash's order: each shard's name, in sorted name order,
    with the bytes hashed before the shard's own, its name and a NUL byte."""
    for name in sorted(names):
        yield name, name.encode("utf-8") + b"\x00"


def _content_hash(shards: Mapping[str, bytes]) -> str:
    """SHA-256 over each shard's name, a NUL byte and its bytes, in sorted name order."""
    digest = hashlib.sha256()
    for name, head in _hash_order(shards):
        digest.update(head)
        digest.update(shards[name])
    return digest.hexdigest()


def check_out_dir(directory: str | Path) -> None:
    """Raise InvalidArgumentError unless directory is missing, an empty
    directory or an index (it holds manifest.json). A missing directory
    must sit under a directory: its nearest existing ancestor must be one.

    save_index replaces the whole directory, so it refuses one that holds
    anything else rather than delete files it did not write.
    """
    directory = Path(directory)
    if not directory.exists():
        ancestor = next(path for path in directory.absolute().parents if path.exists())
        if not ancestor.is_dir():
            raise InvalidArgumentError(f"{directory} cannot be made: {ancestor} is not a directory")
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
    """Write h, one vector per entity and the chunks as a format-3 index.

    Raises InvalidArgumentError before writing anything when directory
    fails check_out_dir, when validate_hierarchy reports a violation (the
    message names the first), when the vectors' ids differ from the
    entities of h's layers or have dimension 0, or when a relation's text
    cannot be stored once: a concatenated relation whose description is
    not the join of its evidence, or another relation with an empty
    description.
    """
    directory = Path(directory).absolute()
    check_out_dir(directory)
    violations, structure = _checked_structure(h)
    if violations:
        raise InvalidArgumentError(f"cannot save: {violations[0]}")
    entity_ids, relation_ids = structure.entity_ids, structure.relation_ids
    if isinstance(embeddings, EmbeddingTable) and embeddings.ids == tuple(entity_ids):
        table = embeddings
    else:
        table = EmbeddingTable.for_hierarchy(h, embeddings)
    descriptions = [h.relations[rid].description for rid in relation_ids]
    relation_text, relation_offsets = _text_shard(
        b"" if code == CONCATENATED else text.encode("utf-8") for text, code in zip(descriptions, structure.kinds.tolist())
    )
    _check_relation_text(descriptions, relation_offsets, structure)
    entity_text, entity_offsets = _text_shard(
        _json_line([e.name, e.description, e.source_chunk_ids]) for e in map(h.entities.__getitem__, entity_ids)
    )
    chunk_ids = sorted(chunks)
    chunk_text, chunk_offsets = _text_shard(
        _json_line([c.text, c.doc_id, c.token_count]) for c in map(chunks.__getitem__, chunk_ids)
    )
    offsets = {"entity_offsets": entity_offsets, "relation_offsets": relation_offsets, "chunk_offsets": chunk_offsets}
    arrays = {**offsets, **vars(structure)}
    layout = _structure_layout(len(entity_ids), len(relation_ids), len(chunk_ids))
    ids = {"entities": entity_ids, "relations": relation_ids, "chunks": chunk_ids}
    shards = {
        "chunks.jsonl": chunk_text,
        "embeddings.bin": table.matrix.data,
        "entities.jsonl": entity_text,
        "ids.json": json.dumps(ids, ensure_ascii=False).encode("utf-8"),
        "relations.txt": relation_text,
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
        content_hash=_content_hash(shards),
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


def _check_relation_text(descriptions: list[str], offsets: np.ndarray, structure: Structure) -> None:
    """Raise InvalidArgumentError unless the text rows lose nothing: every
    other relation's row is non-empty, and every concatenated relation's
    description is the "; "-join of its evidence's descriptions in row order."""
    concatenated = structure.kinds == CONCATENATED
    for j in np.flatnonzero(~concatenated & (offsets[1:] == offsets[:-1]))[:1].tolist():
        raise InvalidArgumentError(f"cannot save: relation {structure.relation_ids[j]!r} has an empty description")
    rows = np.flatnonzero(concatenated)
    evidence = _Evidence(structure).rows(structure.sources[rows], structure.targets[rows])
    for j, evidence_rows in zip(rows.tolist(), evidence):
        joined = "; ".join([descriptions[i] for i in evidence_rows.tolist()])
        if not len(evidence_rows) or descriptions[j] != joined:
            raise InvalidArgumentError(
                f"cannot save: concatenated relation {structure.relation_ids[j]!r} is not the '; '-join of the "
                "descriptions of the relations one layer down between its endpoints' children"
            )


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
    """Load a format-3 index, reading each shard once.

    The manifest is read first, then the shards in the content hash's
    order. While a second thread hashes embeddings.bin, this one reads the
    shards after it and checks the structure, as the module docstring
    lists. A load returns, or raises an error of the structure, only when
    the content hash over the bytes read is the manifest's; otherwise it
    raises StoreError("content hash mismatch: ...") in place of any error
    of the structure. A missing shard is reported as such. No thread
    outlives the call. Entity, relation and chunk rows are
    made on their first read, which raises StoreError for a bad row. The
    vectors come back as an EmbeddingTable in row order
    (EmbeddingTable.row_order).
    """
    directory = Path(directory)
    manifest, build_params = _read_manifest(directory)
    shards: dict[str, bytes] = {}
    # one update of the embedding shard, most of an index's bytes, runs on a
    # thread: hashlib releases the GIL for it. The shards after it are hashed
    # once that thread joins, as a thread that made more updates would wait
    # for the GIL, which the structure checks hold, between them
    digest, later, worker = hashlib.sha256(), [], None
    failure = None
    try:
        for name, head in _hash_order(SHARDS):
            path = directory / name
            if not path.is_file():
                raise StoreError(f"index shard missing: {name}")
            shards[name] = data = path.read_bytes()
            if worker is not None:
                later += (head, data)
            elif name == "embeddings.bin":
                digest.update(head)
                worker = threading.Thread(target=digest.update, args=(data,))
                worker.start()
            else:
                digest.update(head)
                digest.update(data)
        try:
            h, table, chunks = _read_index(shards, manifest, build_params)
        except Exception as exc:  # reported only if the bytes are the ones hashed
            failure = exc
    finally:
        if worker is not None:
            worker.join()
    for part in later:
        digest.update(part)
    if digest.hexdigest() != manifest.content_hash:
        raise StoreError("content hash mismatch: index is corrupt or partially written")
    if failure is not None:
        raise failure
    return h, table, chunks, manifest


def _read_index(
    shards: dict[str, bytes], manifest: IndexManifest, build_params: BuildParams | None
) -> tuple[Hierarchy, EmbeddingTable, dict[str, Chunk]]:
    """The hierarchy, vectors and chunks of an index's shards, after the
    checks of the module docstring; any failure raises StoreError."""
    entity_counts = [stat["entities"] for stat in manifest.layer_stats]
    relation_counts = [stat["relations"] for stat in manifest.layer_stats]
    ids, rows, starts = _read_ids(shards["ids.json"], entity_counts, relation_counts)
    entity_ids, relation_ids, chunk_ids = ids["entities"], ids["relations"], ids["chunks"]
    arrays = _read_structure(shards["structure.bin"], len(entity_ids), len(relation_ids), len(chunk_ids))
    for kind, shard in (("entity", "entities.jsonl"), ("relation", "relations.txt"), ("chunk", "chunks.jsonl")):
        _check_offsets(kind, arrays[f"{kind}_offsets"], shard, len(shards[shard]))
    entity_rows, relation_rows = rows["entities"], rows["relations"]
    links = (arrays[name] for name in ("parents", "sources", "targets", "kinds"))
    structure = Structure(entity_ids, entity_rows, relation_ids, entity_counts, relation_counts, *links)
    for violation in structure.violations()[:1]:
        raise StoreError(f"structure.bin: {violation}")
    # the format stores no text for exactly the concatenated relations
    kinds, offsets = structure.kinds, arrays["relation_offsets"]
    for j in np.flatnonzero((offsets[1:] == offsets[:-1]) != (kinds == CONCATENATED))[:1].tolist():
        raise StoreError(
            f"relations.txt: relation {relation_ids[j]!r} of kind {RELATION_KINDS[kinds[j]].value} has "
            + ("a text row, which only the other kinds have" if kinds[j] == CONCATENATED else "an empty text row")
        )
    entity_starts, relation_starts = starts["entities"], starts["relations"]
    relations = _RelationReader(shards["relations.txt"], offsets, structure, relation_starts)
    if duplicate := next(structure.exact_duplicates(relations.description), None):
        i, j = duplicate
        raise StoreError(
            f"relations.txt: relation {relation_ids[j]!r} is an exact duplicate of relation {relation_ids[i]!r}: "
            "the same source, target, layer and description"
        )

    n, dim = len(entity_ids), manifest.embedding_dim
    data = shards["embeddings.bin"]
    if len(data) != n * dim * 8:
        raise StoreError(f"embeddings.bin: {len(data)} bytes; {n} vectors of dim {dim} take {n * dim * 8}")
    matrix = np.frombuffer(data, "<f8").reshape(n, dim)

    parents = structure.parents
    h = Hierarchy(
        entities=LazyRows(entity_rows, _entity_reader(shards["entities.jsonl"], arrays["entity_offsets"], entity_ids, entity_starts)),
        relations=LazyRows(relation_rows, relations),
        layers=[
            GraphLayer(k, RowRange(entity_ids, entity_rows, a, b).keys(), RowRange(relation_ids, relation_rows, c, d).keys())
            for k, (a, b, c, d) in enumerate(zip(entity_starts, entity_starts[1:], relation_starts, relation_starts[1:]))
        ],
        parent_map=RowRange(entity_ids, entity_rows, 0, entity_starts[-2], lambda i: entity_ids[parents[i]]),
        build_params=build_params,
    )
    h.structure = structure
    chunks = LazyRows(rows["chunks"], _chunk_reader(shards["chunks.jsonl"], arrays["chunk_offsets"], chunk_ids))
    return h, EmbeddingTable(entity_ids, matrix, entity_rows), chunks


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
    sizes, dim = [size for _, *pair in counts for size in pair], manifest.embedding_dim
    if not all(type(size) is int and size >= 0 for size in sizes) or type(dim) is not int or dim < 1:
        raise StoreError(
            f"manifest.json: layer sizes must be integers >= 0 and embedding_dim one >= 1, got {sizes} and {dim!r}"
        )
    return manifest, build_params


def _read_ids(
    data: bytes, entity_counts: list[int], relation_counts: list[int]
) -> tuple[dict[str, list[str]], dict[str, Mapping[str, int]], dict[str, list[int]]]:
    """The entity, relation and chunk ids of ids.json, their row numbers and
    the starts of their runs, each keyed by "entities", "relations" and
    "chunks". The entities and relations run layer by layer, as the
    manifest's layer sizes give; the chunks form one run. The entity and
    chunk rows are dicts; a relation's row is found by binary search in its
    layer (SortedRunRows)."""
    try:
        doc = json.loads(data)
        ids = {key: doc[key] for key in ("entities", "relations", "chunks")}
        if any(type(value) is not list for value in ids.values()):
            raise TypeError("the entity, relation and chunk ids must be lists")
        "".join(itertools.chain(*ids.values()))  # TypeError unless every id is a string
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreError(f"ids.json is malformed: {exc!r}") from None
    starts = {
        "entities": list(itertools.accumulate(entity_counts, initial=0)),
        "relations": list(itertools.accumulate(relation_counts, initial=0)),
        "chunks": [0, len(ids["chunks"])],
    }
    for kind, run_starts in starts.items():
        if len(ids[kind]) != run_starts[-1]:
            raise StoreError(f"ids.json: {len(ids[kind])} {kind}, the manifest's layer sizes sum to {run_starts[-1]}")
        _check_id_runs(kind, ids[kind], run_starts)
    rows = {key: dict(zip(ids[key], range(len(ids[key])))) for key in ("entities", "chunks")}
    rows["relations"] = SortedRunRows(ids["relations"], starts["relations"])
    return ids, rows, starts


def _check_id_runs(kind: str, ids: list[str], starts: list[int]) -> None:
    """Raise StoreError unless each run ids[starts[k]:starts[k + 1]] is
    strictly increasing and no id is on two runs."""
    runs = [ids[a:b] for a, b in itertools.pairwise(starts)]
    unsorted = [k for k, run in enumerate(runs) if any(map(operator.ge, run, itertools.islice(run, 1, None)))]
    # runs whose first-to-last spans are disjoint share no id; if two spans
    # overlap, a merge of the sorted runs puts a shared id next to itself
    spans = sorted((run[0], run[-1]) for run in runs if run)
    shared = False
    if not unsorted and any(b[0] <= a[1] for a, b in itertools.pairwise(spans)):
        merged = sorted(ids)
        shared = any(map(operator.eq, merged, itertools.islice(merged, 1, None)))
    if unsorted or shared:
        if len(set(ids)) != len(ids):
            raise StoreError(f"ids.json: id {_repeated(ids)!r} appears twice in {kind}")
        raise StoreError(f"ids.json: rows {starts[unsorted[0]]}:{starts[unsorted[0] + 1]} of {kind} are not in sorted order")


def _read_structure(data: bytes, n_entities: int, n_relations: int, n_chunks: int) -> dict[str, np.ndarray]:
    """The arrays of structure.bin, as read-only views of its bytes."""
    layout = _structure_layout(n_entities, n_relations, n_chunks)
    size = sum(np.dtype(dtype).itemsize * length for _, dtype, length in layout)
    if len(data) != size:
        raise StoreError(f"structure.bin: {len(data)} bytes; the id counts of ids.json need {size}")
    arrays, offset = {}, 0
    for name, dtype, length in layout:
        arrays[name] = np.frombuffer(data, dtype, length, offset)
        offset += arrays[name].nbytes
    return arrays


def _check_offsets(kind: str, offsets: np.ndarray, shard: str, size: int) -> None:
    if offsets[0] != 0 or offsets[-1] != size or np.any(offsets[1:] < offsets[:-1]):
        raise StoreError(f"structure.bin: the {kind} row offsets do not run from 0 to the {size} bytes of {shard} without decreasing")


def _json_row(shard: str, text: bytes, offsets: np.ndarray, i: int) -> object:
    try:
        return json.loads(text[offsets[i] : offsets[i + 1]])
    except ValueError as exc:
        raise StoreError(f"{shard}: row {i} is malformed: {exc}") from None


def _entity_reader(text: bytes, offsets: np.ndarray, ids: list[str], starts: list[int]) -> Callable[[int], Entity]:
    """Entity row i: its id and layer from the structure, the rest from its
    text row, which lists chunk ids exactly on layer 0."""

    def entity(i: int) -> Entity:
        layer = bisect_right(starts, i) - 1
        match _json_row("entities.jsonl", text, offsets, i):
            case [str() as name, str() as description, list() as chunk_ids] if all(type(c) is str for c in chunk_ids):
                if bool(chunk_ids) != (layer == 0):
                    raise StoreError(f"entities.jsonl: row {i}, on layer {layer}, lists {'' if chunk_ids else 'no '}chunk ids")
                return Entity(ids[i], name, description, layer, chunk_ids)
            case row:
                raise StoreError(f"entities.jsonl: row {i} {row!r:.120} is not [name, description, [chunk ids]]")

    return entity


def _chunk_reader(text: bytes, offsets: np.ndarray, ids: list[str]) -> Callable[[int], Chunk]:
    """Chunk row i: its id from ids.json, the rest from its text row."""

    def chunk(i: int) -> Chunk:
        match _json_row("chunks.jsonl", text, offsets, i):
            case [str() as chunk_text, str() as doc_id, int() as token_count]:
                return Chunk(ids[i], chunk_text, doc_id, token_count)
            case row:
                raise StoreError(f"chunks.jsonl: row {i} {row!r:.120} is not [text, doc_id, token_count]")

    return chunk


class _RelationReader:
    """Relation row j: its id, endpoints, kind and layer from the structure
    and its description from relations.txt.

    A concatenated relation's description is the "; "-join of its
    evidence's descriptions, read from the shard (recursing through lower
    concatenated rows) without making a Relation for them. The evidence
    of one pair is found by a mask over the parent-pair keys of the layer
    below, made for that layer on its first use.
    """

    def __init__(self, text: bytes, offsets: np.ndarray, structure: Structure, starts: list[int]):
        self._text, self._offsets, self._structure, self._starts = text, offsets, structure, starts
        self._pair_keys: dict[int, np.ndarray] = {}  # layer -> the parent-pair key of each of its relations

    def __call__(self, j: int) -> Relation:
        s = self._structure
        return Relation(
            s.relation_ids[j],
            s.entity_ids[s.sources[j]],
            s.entity_ids[s.targets[j]],
            self.description(j),
            bisect_right(self._starts, j) - 1,
            RELATION_KINDS[s.kinds[j]],
        )

    def description(self, j: int) -> str:
        s = self._structure
        if s.kinds[j] != CONCATENATED:
            try:
                return self._text[self._offsets[j] : self._offsets[j + 1]].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise StoreError(f"relations.txt: row {j} is not UTF-8: {exc}") from None
        below = bisect_right(self._starts, j) - 2  # a concatenated relation is never on layer 0
        if below not in self._pair_keys:
            a, b = self._starts[below], self._starts[below + 1]
            self._pair_keys[below] = _pair_key(s.parents[s.sources[a:b]], s.parents[s.targets[a:b]], len(s.parents))
        key = _pair_key(s.sources[j], s.targets[j], len(s.parents))
        rows = np.flatnonzero(self._pair_keys[below] == key) + self._starts[below]
        if not len(rows):
            raise StoreError(
                f"structure.bin: concatenated relation {s.relation_ids[j]!r} joins two aggregates "
                "with no relation between their children"
            )
        return "; ".join([self.description(i) for i in rows.tolist()])


def _repeated(ids: list) -> object:
    """An id that appears more than once in ids."""
    return next(x for x, count in Counter(ids).items() if count > 1)
