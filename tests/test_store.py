import builtins
import copy
import hashlib
import io
import json
import os
import random
import shutil
import threading
import time
from collections import Counter
from collections.abc import KeysView
from pathlib import Path

import numpy as np
import pytest

from hierkg import cli
from hierkg.cli import main
from hierkg.errors import IngestError, InvalidArgumentError, StoreError
from hierkg.model import (
    BuildParams,
    Chunk,
    EmbeddingTable,
    Entity,
    GraphLayer,
    Hierarchy,
    Relation,
    RelationKind,
    RowRange,
    validate_hierarchy,
)
from hierkg.store import (
    FORMAT_VERSION,
    ingest,
    load_index,
    save_index,
)
from hierkg import store
from hierkg.aggregation import build_hierarchy
from hierkg.providers import MockEmbeddingProvider, MockGenerationProvider

from helpers import description, make_layer0, make_random_hierarchy, write_ingest_jsonl
from test_model import (
    childless_aggregate,
    endpoint_on_other_layer,
    missing_parent,
    parent_cycle,
    parent_two_layers_up,
    self_loop,
    wrong_kind,
)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


GOOD_LINES = [
    json.dumps({"type": "chunk", "id": "c0", "doc_id": "d0", "text": "alpha beta gamma delta"}),
    json.dumps({"type": "entity", "id": "e0", "name": "A", "description": "first thing", "chunk_ids": ["c0"]}),
    json.dumps({"type": "entity", "id": "e1", "name": "B", "description": "second thing", "chunk_ids": ["c0"]}),
    json.dumps({"type": "relation", "id": "r0", "source": "e0", "target": "e1", "description": "a to b"}),
]


class TestIngest:
    def test_happy_path(self, tmp_path):
        path = tmp_path / "in.jsonl"
        write_lines(path, GOOD_LINES)
        entities, relations, chunks, report = ingest(path)
        assert set(entities) == {"e0", "e1"}
        assert set(relations) == {"r0"}
        assert set(chunks) == {"c0"}
        assert chunks["c0"].token_count == 4
        assert report.to_dict() == {
            "entities": 2, "relations": 1, "chunks": 1, "duplicate_relations_dropped": 0,
        }

    def test_order_does_not_matter(self, tmp_path):
        path = tmp_path / "in.jsonl"
        write_lines(path, list(reversed(GOOD_LINES)))
        entities, relations, chunks, _ = ingest(path)
        assert set(entities) == {"e0", "e1"} and set(relations) == {"r0"}

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "in.jsonl"
        write_lines(path, GOOD_LINES + ["{not json"])
        with pytest.raises(IngestError) as exc:
            ingest(path)
        assert "line 5" in str(exc.value)

    def test_dangling_relation_endpoint_names_original_line(self, tmp_path):
        path = tmp_path / "in.jsonl"
        bad = json.dumps({"type": "relation", "id": "r9", "source": "e0", "target": "ghost", "description": "x"})
        write_lines(path, GOOD_LINES[:2] + [bad] + GOOD_LINES[2:])
        with pytest.raises(IngestError) as exc:
            ingest(path)
        assert "ghost" in str(exc.value) and "line 3" in str(exc.value)

    def test_dangling_chunk_reference(self, tmp_path):
        path = tmp_path / "in.jsonl"
        bad = json.dumps({"type": "entity", "id": "e9", "name": "X", "description": "d", "chunk_ids": ["nope"]})
        write_lines(path, GOOD_LINES + [bad])
        with pytest.raises(IngestError) as exc:
            ingest(path)
        assert "nope" in str(exc.value) and "line 5" in str(exc.value)

    def test_duplicate_relation_dedup(self, tmp_path):
        path = tmp_path / "in.jsonl"
        dup = json.dumps({"type": "relation", "id": "r1", "source": "e0", "target": "e1", "description": "a to b"})
        write_lines(path, GOOD_LINES + [dup])
        _, relations, _, report = ingest(path)
        assert set(relations) == {"r0"}
        assert report.duplicate_relations_dropped == 1

    def test_same_endpoints_different_description_kept(self, tmp_path):
        path = tmp_path / "in.jsonl"
        other = json.dumps({"type": "relation", "id": "r1", "source": "e0", "target": "e1", "description": "again"})
        write_lines(path, GOOD_LINES + [other])
        _, relations, _, report = ingest(path)
        assert set(relations) == {"r0", "r1"}
        assert report.duplicate_relations_dropped == 0

    def test_self_loop_rejected(self, tmp_path):
        path = tmp_path / "in.jsonl"
        loop = json.dumps({"type": "relation", "id": "r2", "source": "e0", "target": "e0", "description": "x"})
        write_lines(path, GOOD_LINES + [loop])
        with pytest.raises(IngestError) as exc:
            ingest(path)
        assert "self-loop" in str(exc.value)

    def test_entity_without_chunks_rejected(self, tmp_path):
        path = tmp_path / "in.jsonl"
        bad = json.dumps({"type": "entity", "id": "e9", "name": "X", "description": "d", "chunk_ids": []})
        write_lines(path, GOOD_LINES + [bad])
        with pytest.raises(IngestError):
            ingest(path)

    def test_unknown_type_rejected(self, tmp_path):
        path = tmp_path / "in.jsonl"
        write_lines(path, GOOD_LINES + [json.dumps({"type": "widget", "id": "w0"})])
        with pytest.raises(IngestError) as exc:
            ingest(path)
        assert "widget" in str(exc.value)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "in.jsonl"
        write_lines(path, [GOOD_LINES[0], "", GOOD_LINES[1], "   ", GOOD_LINES[2], GOOD_LINES[3]])
        entities, relations, chunks, _ = ingest(path)
        assert len(entities) == 2 and len(relations) == 1 and len(chunks) == 1

    @pytest.mark.parametrize(
        "line, message",
        [
            ('["entity", "e9"]', "not a JSON object"),
            ('"entity"', "not a JSON object"),
            ({"type": "entity", "id": "e9", "name": "X", "description": "d", "chunk_ids": "c0"}, "chunk_ids"),
            ({"type": "entity", "id": "e9", "name": "X", "description": "d", "chunk_ids": [["c0"]]}, "chunk_ids"),
            ({"type": "chunk", "id": "c9", "doc_id": 7, "text": "alpha"}, "doc_id"),
            ({"type": "entity", "id": "e9", "name": "X", "description": "  ", "chunk_ids": ["c0"]}, "description"),
            ({"type": "relation", "id": 9, "source": "e0", "target": "e1", "description": "x"}, "'id'"),
        ],
        ids=["list", "string", "chunk-ids-string", "chunk-ids-nested", "doc-id-number", "blank-description", "id-number"],
    )
    def test_field_of_wrong_type_names_line(self, tmp_path, line, message):
        # each used to raise AttributeError or TypeError, to split chunk_ids into
        # characters, or to be accepted and fail a later build or query
        path = tmp_path / "in.jsonl"
        write_lines(path, GOOD_LINES[:2] + [line if isinstance(line, str) else json.dumps(line)] + GOOD_LINES[2:])
        with pytest.raises(IngestError) as exc:
            ingest(path)
        assert "line 3" in str(exc.value) and message in str(exc.value)

    def test_file_not_utf8_names_line(self, tmp_path):
        path = tmp_path / "in.jsonl"
        path.write_bytes("\n".join(GOOD_LINES[:2] + ['{"type": "chunk", "id": "c1", "text": "caf\u00e9"}']).encode("latin-1"))
        with pytest.raises(IngestError) as exc:
            ingest(path)
        assert "line 3" in str(exc.value) and "UTF-8" in str(exc.value)

    def test_directory_is_an_ingest_error(self, tmp_path):
        with pytest.raises(IngestError) as exc:
            ingest(tmp_path)
        assert str(tmp_path) in str(exc.value)

    def test_large_file_counts_match_generator(self, tmp_path):
        rng = random.Random(0)
        entities, relations, chunks = make_layer0(rng, 2000, avg_degree=4, n_chunks=300)
        path = tmp_path / "big.jsonl"
        write_ingest_jsonl(path, entities, relations, chunks)
        got_e, got_r, got_c, report = ingest(path)
        assert report.entities == len(entities) == len(got_e)
        assert report.relations == len(relations) == len(got_r)
        assert report.chunks == len(chunks) == len(got_c)


SHARD_NAMES = ["chunks.jsonl", "embeddings.bin", "entities.jsonl", "ids.json", "relations.txt", "structure.bin"]


def build_small_index(tmp_path, seed=3, name="idx", cluster_size=10):
    rng = random.Random(seed)
    entities, relations, chunks = make_layer0(rng, 30, avg_degree=3)
    params = BuildParams(cluster_size=cluster_size, seed=seed)
    h, embeddings, _ = build_hierarchy(
        entities, relations, params, MockEmbeddingProvider(), MockGenerationProvider()
    )
    directory = tmp_path / name
    manifest = save_index(h, embeddings, chunks, directory, provider_ids={"embedding": "mock"})
    return h, embeddings, chunks, directory, manifest


class TestIndexRoundTrip:
    def test_structural_round_trip(self, tmp_path):
        h, embeddings, chunks, directory, manifest = build_small_index(tmp_path)
        h2, emb2, chunks2, manifest2 = load_index(directory)
        assert manifest2.content_hash == manifest.content_hash == content_hash_of(directory)
        assert manifest2.format_version == FORMAT_VERSION == 3
        assert sorted(os.listdir(directory)) == sorted(SHARD_NAMES + ["manifest.json"])
        assert set(h2.entities) == set(h.entities)
        assert set(h2.relations) == set(h.relations)
        assert h2.parent_map == h.parent_map
        assert [l.entity_ids for l in h2.layers] == [l.entity_ids for l in h.layers]
        assert [l.relation_ids for l in h2.layers] == [l.relation_ids for l in h.layers]
        # each layer's id sets are the keys of RowRange views, and parent_map is one
        views = [ids for l in h2.layers for ids in (l.entity_ids, l.relation_ids)]
        assert all(isinstance(ids, KeysView) and isinstance(ids._mapping, RowRange) for ids in views)
        assert isinstance(h2.parent_map, RowRange)
        assert set(chunks2) == set(chunks)
        assert h2.build_params.to_dict() == h.build_params.to_dict()
        assert validate_hierarchy(h2) == []
        # equal objects in the same order: layer by layer, each layer in sorted-id order
        assert list(h2.entities.items()) == list(h.entities.items())
        assert list(h2.relations.items()) == list(h.relations.items())
        assert h2.entities == h.entities and h2.relations == h.relations
        assert list(chunks2.items()) == sorted(chunks.items())

    @pytest.mark.parametrize("cluster_size", [10, 4])
    def test_every_relation_round_trips(self, tmp_path, cluster_size):
        # cluster_size=4 makes layer-2 concatenated relations from layer-1 concatenated ones
        h, _, _, directory, _ = build_small_index(tmp_path, cluster_size=cluster_size)
        h2 = load_index(directory)[0]
        assert {rid: r.to_dict() for rid, r in h2.relations.items()} == {rid: r.to_dict() for rid, r in h.relations.items()}
        assert RelationKind.INTER_CLUSTER_CONCATENATED in {r.kind for r in h.relations.values()}

    def test_entity_rows_carry_parent_id(self, tmp_path):
        # the structure keeps one parent row per entity row, -1 on the top layer,
        # and the endpoints and kind of each relation row; the text rows hold only text
        h, _, chunks, directory, _ = build_small_index(tmp_path)
        top = len(h.layers) - 1
        assert top >= 1
        ids, arrays = read_structure(directory)
        entity_ids, relation_ids = ids["entities"], ids["relations"]
        assert entity_ids == EmbeddingTable.row_order(h)
        assert relation_ids == [rid for layer in h.layers for rid in sorted(layer.relation_ids)]
        for eid, parent in zip(entity_ids, arrays["parents"].tolist()):
            assert (parent == -1) == (h.entities[eid].layer == top)
            assert h.parent_map.get(eid) == (None if parent == -1 else entity_ids[parent])
        for j, rid in enumerate(relation_ids):
            r = h.relations[rid]
            assert (entity_ids[arrays["sources"][j]], entity_ids[arrays["targets"][j]]) == (r.source_id, r.target_id)
            assert list(RelationKind)[arrays["kinds"][j]] is r.kind
        entities = [h.entities[eid] for eid in entity_ids]
        assert read_rows(directory, "entities.jsonl") == [[e.name, e.description, e.source_chunk_ids] for e in entities]
        relations = [h.relations[rid] for rid in relation_ids]
        assert read_rows(directory, "relations.txt") == [
            b"" if r.kind is RelationKind.INTER_CLUSTER_CONCATENATED else r.description.encode("utf-8") for r in relations
        ]
        assert ids["chunks"] == sorted(chunks)
        assert read_rows(directory, "chunks.jsonl") == [[c.text, c.doc_id, c.token_count] for c in map(chunks.get, ids["chunks"])]
        assert load_index(directory)[0].parent_map == h.parent_map

    def test_embeddings_bit_exact(self, tmp_path):
        h, embeddings, _, directory, _ = build_small_index(tmp_path)
        _, emb2, _, _ = load_index(directory)
        assert set(emb2) == set(embeddings)
        for eid, vec in embeddings.items():
            assert emb2[eid].tobytes() == np.asarray(vec, dtype="<f8").tobytes()
        # the shard is the table's matrix, row order, and nothing else
        assert (directory / "embeddings.bin").read_bytes() == embeddings.matrix.tobytes()

    def test_save_load_save_is_byte_identical(self, tmp_path):
        # the table's rows are in layer order, which is not the sorted-id order
        h, embeddings, chunks, directory, _ = build_small_index(tmp_path, cluster_size=4)
        h2, emb2, chunks2, _ = load_index(directory)
        assert emb2.ids == embeddings.ids == tuple(EmbeddingTable.row_order(h2))
        assert list(emb2.ids) != sorted(emb2.ids)
        save_index(h2, emb2, chunks2, tmp_path / "again", provider_ids={"embedding": "mock"})
        assert sorted(os.listdir(directory)) == sorted(os.listdir(tmp_path / "again"))
        for name in os.listdir(directory):
            assert (directory / name).read_bytes() == (tmp_path / "again" / name).read_bytes(), name

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda data: bytes(b ^ 0xFF if i == len(data) // 2 else b for i, b in enumerate(data)),
            lambda data: data[: len(data) // 2],
            lambda data: b"\xff" * len(data),
        ],
        ids=["one-flipped-byte", "truncated-to-half", "every-byte-0xff"],
    )
    @pytest.mark.parametrize("shard", SHARD_NAMES)
    def test_one_byte_corruption_fails_closed(self, tmp_path, shard, corrupt):
        # the load checks the structure while it hashes; whatever else a corrupt
        # shard breaks, the hash mismatch is the error, and no thread is left running
        _, _, _, directory, _ = build_small_index(tmp_path)
        path = directory / shard
        data = path.read_bytes()
        path.write_bytes(corrupt(data))
        assert path.read_bytes() != data
        threads = threading.active_count()
        with pytest.raises(StoreError, match="content hash mismatch"):
            load_index(directory)
        assert threading.active_count() == threads

    def test_rehashed_malformed_ids_json_reports_the_parse_error(self, tmp_path):
        _, _, _, directory, _ = build_small_index(tmp_path)
        path = directory / "ids.json"
        path.write_bytes(path.read_bytes()[:-1])
        rehash(directory)
        threads = threading.active_count()
        with pytest.raises(StoreError, match="ids.json is malformed"):
            load_index(directory)
        assert threading.active_count() == threads

    def test_interrupt_during_parse_is_not_replaced(self, tmp_path, monkeypatch):
        # only an Exception of the parse gives way to the hash mismatch, and
        # the load waits for the thread hashing the embedding shard either way
        _, _, _, directory, _ = build_small_index(tmp_path)
        path = directory / "embeddings.bin"
        path.write_bytes(path.read_bytes()[:-1])

        sha256 = hashlib.sha256

        class SlowOffMainThread:
            def __init__(self):
                self._digest = sha256()

            def update(self, data):
                if threading.current_thread() is not threading.main_thread():
                    time.sleep(0.05)
                self._digest.update(data)

            def hexdigest(self):
                return self._digest.hexdigest()

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(store.hashlib, "sha256", SlowOffMainThread)
        monkeypatch.setattr(store, "_read_index", interrupted)
        threads = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            load_index(directory)
        assert threading.active_count() == threads

    def test_jsonl_corruption_fails_closed(self, tmp_path):
        _, _, _, directory, _ = build_small_index(tmp_path)
        target = directory / "entities.jsonl"
        target.write_text(target.read_text(encoding="utf-8").replace("Entity 1", "Entity X"), encoding="utf-8")
        with pytest.raises(StoreError):
            load_index(directory)

    def test_missing_shard_fails_closed(self, tmp_path):
        _, _, _, directory, _ = build_small_index(tmp_path)
        (directory / "chunks.jsonl").unlink()
        with pytest.raises(StoreError) as exc:
            load_index(directory)
        assert "chunks.jsonl" in str(exc.value)

    def test_version_mismatch_rejected(self, tmp_path):
        _, _, _, directory, _ = build_small_index(tmp_path)
        mpath = directory / "manifest.json"
        doc = json.loads(mpath.read_text(encoding="utf-8"))
        doc["format_version"] = FORMAT_VERSION + 1
        mpath.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(StoreError) as exc:
            load_index(directory)
        assert "format_version" in str(exc.value)

    def test_format_1_index_names_its_version(self, tmp_path, caplog, capsys):
        # a format-1 index: per-layer JSONL shards and an embedding shard with ids
        _, _, _, directory, _ = build_small_index(tmp_path)
        for name in SHARD_NAMES:
            (directory / name).unlink()
        for name in ["entities_0.jsonl", "relations_0.jsonl", "entities_1.jsonl", "relations_1.jsonl", "chunks.jsonl"]:
            (directory / name).write_text("", encoding="utf-8")
        (directory / "embeddings.bin").write_bytes(b"HKGEMB1\x00")
        mpath = directory / "manifest.json"
        doc = json.loads(mpath.read_text(encoding="utf-8"))
        doc["format_version"] = 1
        mpath.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(StoreError, match="format_version 1 unsupported"):
            load_index(directory)
        assert main(["stats", "--index", str(directory)]) == 3
        assert main(["query", "--index", str(directory), "--query", "glacier summit"]) == 3
        assert "format_version 1" in caplog.text
        assert capsys.readouterr().out == ""

    def test_manifest_with_retired_build_keys_loads(self, tmp_path, capsys):
        h, _, _, directory, manifest = build_small_index(tmp_path)
        mpath = directory / "manifest.json"
        doc = json.loads(mpath.read_text(encoding="utf-8"))
        retired = {"single_root": False, "gmm_max_iters": 50, "gmm_tol": 1e-4, "tau_overrides": {"2": 7}}
        assert not set(retired) & set(doc["build_params"])
        # every manifest saved before these build settings were dropped has them;
        # the content hash covers only the shards, so no rehash is needed
        doc["build_params"].update(retired)
        mpath.write_text(json.dumps(doc), encoding="utf-8")
        h2, _, _, manifest2 = load_index(directory)
        assert manifest2.content_hash == manifest.content_hash
        assert h2.build_params.to_dict() == h.build_params.to_dict()
        assert main(["query", "--index", str(directory), "--query", "glacier summit"]) == 0
        assert json.loads(capsys.readouterr().out)["seeds"]["entries"]

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(StoreError):
            load_index(tmp_path / "nowhere")

    def test_same_seed_same_hash_different_seed_differs(self, tmp_path):
        *_, m1 = build_small_index(tmp_path, seed=3, name="a")
        *_, m2 = build_small_index(tmp_path, seed=3, name="b")
        *_, m3 = build_small_index(tmp_path, seed=4, name="c")
        assert m1.content_hash == m2.content_hash
        assert m1.content_hash != m3.content_hash


class TestSave:
    def test_refuses_ids_that_are_not_strings(self, tmp_path):
        # an index of int ids was once written, and its load refused it
        h = Hierarchy(layers=[GraphLayer(0, {7, 8}, {"r0"})])
        for eid in (7, 8):
            h.entities[eid] = Entity(eid, "E", "leaf", 0, ["c0"])
        h.relations["r0"] = Relation("r0", 7, 8, "joins them", 0)
        vectors = {7: np.ones(4), 8: np.ones(4)}
        with pytest.raises(InvalidArgumentError, match="cannot save: entity 7: id is int, not str"):
            save_index(h, vectors, {"c0": Chunk("c0", "text", "d0", 1)}, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_refuses_vectors_of_dimension_0(self, tmp_path):
        h, embeddings, chunks, _, _ = build_small_index(tmp_path)
        with pytest.raises(InvalidArgumentError, match="a column or more"):
            save_index(h, {eid: np.empty(0) for eid in embeddings}, chunks, tmp_path / "out")
        with pytest.raises(InvalidArgumentError, match="a column or more"):
            EmbeddingTable(embeddings.ids, np.empty((len(embeddings), 0)))
        assert not (tmp_path / "out").exists()

    def test_resave_leaves_no_stale_shard(self, tmp_path):
        # a 3-layer index saved again as a 2-layer one into the same directory
        h, embeddings, chunks, directory, _ = build_small_index(tmp_path, cluster_size=4)
        assert len(h.layers) == 3
        (directory / "stray.txt").write_text("left by hand", encoding="utf-8")
        h2, embeddings2, chunks2, _, manifest = build_small_index(tmp_path, name="two", cluster_size=10)
        assert len(h2.layers) == 2
        assert save_index(h2, embeddings2, chunks2, directory).content_hash == manifest.content_hash
        assert sorted(os.listdir(directory)) == sorted(SHARD_NAMES + ["manifest.json"])
        assert len(load_index(directory)[0].layers) == 2
        assert sorted(os.listdir(tmp_path)) == ["idx", "two"]  # no staging directory left beside it

    def test_interrupted_save_keeps_the_old_index(self, tmp_path, monkeypatch):
        _, _, _, directory, manifest = build_small_index(tmp_path)
        before = {name: (directory / name).read_bytes() for name in os.listdir(directory)}
        h2, embeddings2, chunks2, _, _ = build_small_index(tmp_path, seed=4, name="other")
        real_write_bytes = Path.write_bytes
        written = []

        def write_bytes(path, data):
            if len(written) == 3:
                raise OSError("disk full")
            written.append(path.name)
            return real_write_bytes(path, data)

        monkeypatch.setattr(Path, "write_bytes", write_bytes)
        with pytest.raises(OSError, match="disk full"):
            save_index(h2, embeddings2, chunks2, directory)
        monkeypatch.undo()
        assert {name: (directory / name).read_bytes() for name in os.listdir(directory)} == before
        assert load_index(directory)[3].content_hash == manifest.content_hash
        assert sorted(os.listdir(tmp_path)) == ["idx", "other"]

    @pytest.mark.parametrize("contents", ["stray-file", "regular-file"])
    def test_out_must_be_missing_empty_or_an_index(self, tmp_path, contents):
        h, embeddings, chunks, _, _ = build_small_index(tmp_path)
        out = tmp_path / "out"
        if contents == "stray-file":
            out.mkdir()
            (out / "notes.txt").write_text("mine", encoding="utf-8")
        else:
            out.write_text("mine", encoding="utf-8")
        with pytest.raises(InvalidArgumentError, match="neither an empty directory nor an index"):
            save_index(h, embeddings, chunks, out)
        assert (out / "notes.txt" if contents == "stray-file" else out).read_text(encoding="utf-8") == "mine"
        empty = tmp_path / "empty"
        empty.mkdir()
        save_index(h, embeddings, chunks, empty)
        assert load_index(empty)[0].parent_map == h.parent_map

    @pytest.mark.parametrize(
        "change, message",
        [("text-differs", "join"), ("no-evidence", "join"), ("empty-description", "empty description")],
    )
    def test_relation_text_must_be_stored_once(self, tmp_path, change, message):
        # a concatenated relation's text is not stored, so it must be the join its evidence renders
        h, embeddings, chunks, _, _ = build_small_index(tmp_path, cluster_size=4)
        r = h.relations[min(rid for rid, r in h.relations.items() if r.kind is RelationKind.INTER_CLUSTER_CONCATENATED)]
        if change == "text-differs":
            r.description += "; one more"
        elif change == "no-evidence":
            # the join of no relations is "", and a relation made from nothing cannot be rendered
            crossing = {
                frozenset((h.parent_map[x.source_id], h.parent_map[x.target_id]))
                for x in h.relations.values()
                if x.layer == r.layer - 1
            }
            others = sorted(h.layers[r.layer].entity_ids - {r.source_id})
            r.target_id = next(b for b in others if frozenset((r.source_id, b)) not in crossing)
            r.description = ""
        else:
            h.relations[min(h.layers[0].relation_ids)].description = ""
        out = tmp_path / "nested" / "out"
        with pytest.raises(InvalidArgumentError, match=message):
            save_index(h, embeddings, chunks, out)
        assert not (tmp_path / "nested").exists()

    @pytest.mark.parametrize(
        "corrupt",
        [
            parent_two_layers_up, parent_cycle, missing_parent, childless_aggregate,
            self_loop, endpoint_on_other_layer, wrong_kind,
        ],
        ids=lambda f: f.__name__,
    )
    def test_structural_rules_of_validate_hierarchy_hold(self, tmp_path, corrupt):
        # the links once needed only to name listed entities: a layer-1 relation
        # of kind base, for one, was written, and then loaded as well
        h, embeddings, chunks, _, _ = build_small_index(tmp_path, cluster_size=4)
        corrupt(h, random.Random(0))
        violations = validate_hierarchy(h)
        assert violations
        out = tmp_path / "nested" / "out"
        with pytest.raises(InvalidArgumentError) as exc:
            save_index(h, embeddings, chunks, out)
        assert str(exc.value) == f"cannot save: {violations[0]}"
        assert not (tmp_path / "nested").exists()

    @pytest.mark.parametrize(
        "change",
        ["leaf-declares-layer-1", "key-differs-from-id", "relation-declares-layer-1", "aggregate-with-chunks", "leaf-without-chunks"],
    )
    def test_saves_only_what_validate_hierarchy_accepts(self, tmp_path, change):
        # each of these was once written, and the first three read back with
        # validate_hierarchy == [] because the round trip rewrote the record
        entities, relations, chunks = make_layer0(random.Random(0), 60, avg_degree=3)
        h, embeddings, _ = build_hierarchy(
            entities, relations, BuildParams(cluster_size=5, seed=0), MockEmbeddingProvider(), MockGenerationProvider()
        )
        leaf, aggregate = h.entities[min(h.layers[0].entity_ids)], h.entities[min(h.layers[1].entity_ids)]
        if change == "leaf-declares-layer-1":
            leaf.layer = 1
        elif change == "key-differs-from-id":
            leaf.id = "e-renamed"
        elif change == "relation-declares-layer-1":
            h.relations[min(h.layers[0].relation_ids)].layer = 1
        elif change == "aggregate-with-chunks":
            aggregate.source_chunk_ids.append(min(chunks))
        else:
            leaf.source_chunk_ids.clear()
        violations = validate_hierarchy(h)
        assert violations
        out = tmp_path / "nested" / "out"
        with pytest.raises(InvalidArgumentError) as exc:
            save_index(h, embeddings, chunks, out)
        assert str(exc.value) == f"cannot save: {violations[0]}"
        assert not (tmp_path / "nested").exists()

    @pytest.mark.parametrize("change", ["one-vector-short", "one-vector-extra"])
    def test_embeddings_must_cover_the_hierarchy(self, tmp_path, change):
        # the index used to be written, and load_index then refused it:
        # "embeddings.bin: 51 vectors do not match the 52 entities"
        h, embeddings, chunks, _, _ = build_small_index(tmp_path)
        vectors = dict(embeddings.items())
        if change == "one-vector-short":
            del vectors[h.layer0_ids[0]]
        else:
            vectors["stranger"] = vectors[h.layer0_ids[0]]
        out = tmp_path / "nested" / "out"
        with pytest.raises(InvalidArgumentError, match="vectors for"):
            save_index(h, vectors, chunks, out)
        assert not (tmp_path / "nested").exists()


def test_cold_query_reads_only_the_rows_it_renders(tmp_path, monkeypatch, capsys):
    _, _, _, directory, _ = build_small_index(tmp_path, cluster_size=4)
    loaded = []

    def load(path):
        loaded.append(load_index(path))
        return loaded[-1]

    monkeypatch.setattr(cli.store, "load_index", load)
    assert main(["query", "--index", str(directory), "--query", "glacier summit tundra", "--top-n", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    h = loaded[0][0]
    rendered_relations = set(out["subgraph"]["path_relations"]) | set(out["subgraph"]["inter_cluster_relations"])
    # LazyRows keeps each row it has made as a plain dict entry
    assert set(dict.keys(h.entities)) <= set(out["subgraph"]["node_ids"])
    assert set(dict.keys(h.relations)) <= rendered_relations
    assert rendered_relations and dict.__len__(h.relations) < len(h.relations)
    assert dict.__len__(h.entities) < len(h.entities)


# each text shard and the structure.bin array of its row offsets
TEXT_SHARDS = {"entities.jsonl": "entity_offsets", "relations.txt": "relation_offsets", "chunks.jsonl": "chunk_offsets"}
CONCATENATED = list(RelationKind).index(RelationKind.INTER_CLUSTER_CONCATENATED)


def content_hash_of(directory):
    """The documented content hash: SHA-256 over name, NUL, bytes of each shard in sorted name order."""
    digest = hashlib.sha256()
    for name in sorted(SHARD_NAMES):
        digest.update(name.encode("utf-8") + b"\x00" + (directory / name).read_bytes())
    return digest.hexdigest()


def rehash(directory):
    """Rewrite content_hash so that edited shards pass the hash check."""
    mpath = directory / "manifest.json"
    doc = json.loads(mpath.read_text(encoding="utf-8"))
    doc["content_hash"] = content_hash_of(directory)
    mpath.write_text(json.dumps(doc), encoding="utf-8")


def structure_layout(n, m, c):
    """The documented arrays of structure.bin, back to back, for n entities, m relations and c chunks."""
    return [
        ("entity_offsets", "<u8", n + 1),
        ("relation_offsets", "<u8", m + 1),
        ("chunk_offsets", "<u8", c + 1),
        ("parents", "<i4", n),
        ("sources", "<i4", m),
        ("targets", "<i4", m),
        ("kinds", "u1", m),
    ]


def read_structure(directory):
    """ids.json and the writable arrays of structure.bin."""
    ids = json.loads((directory / "ids.json").read_bytes())
    data = (directory / "structure.bin").read_bytes()
    arrays, offset = {}, 0
    for name, dtype, length in structure_layout(len(ids["entities"]), len(ids["relations"]), len(ids["chunks"])):
        arrays[name] = np.frombuffer(data, dtype, length, offset).copy()
        offset += arrays[name].nbytes
    assert offset == len(data)
    return ids, arrays


def write_structure(directory, ids, arrays):
    (directory / "ids.json").write_text(json.dumps(ids), encoding="utf-8")
    layout = structure_layout(len(arrays["parents"]), len(arrays["kinds"]), len(arrays["chunk_offsets"]) - 1)
    (directory / "structure.bin").write_bytes(b"".join(arrays[name].astype(dtype).tobytes() for name, dtype, _ in layout))


def read_rows(directory, shard):
    """The rows of a text shard, cut at its offsets: JSON values for a .jsonl shard, bytes for relations.txt."""
    _, arrays = read_structure(directory)
    data = (directory / shard).read_bytes()
    offsets = arrays[TEXT_SHARDS[shard]].tolist()
    rows = [data[a:b] for a, b in zip(offsets, offsets[1:])]
    return rows if shard == "relations.txt" else [json.loads(row) for row in rows]


def edit_rows(directory, shard, edit):
    """Apply edit to the list of rows of a text shard, write it back and
    rewrite the shard's row offsets in structure.bin."""
    rows = read_rows(directory, shard)
    edit(rows)
    # a bytes row is written as it is
    lines = [row if isinstance(row, bytes) else (json.dumps(row) + "\n").encode("utf-8") for row in rows]
    (directory / shard).write_bytes(b"".join(lines))
    ids, arrays = read_structure(directory)
    arrays[TEXT_SHARDS[shard]][:] = np.cumsum([0] + [len(line) for line in lines])
    write_structure(directory, ids, arrays)


def edit_structure(edit):
    """An edit of ids.json and structure.bin, given the ids and the arrays."""

    def apply(directory):
        ids, arrays = read_structure(directory)
        edit(ids, arrays)
        write_structure(directory, ids, arrays)

    return apply


def first_row_of_layer(ids, kind, layer):
    # build_small_index(cluster_size=4) ids: e0000.. on layer 0, agg:1:.. on layer 1, agg:2:.. on layer 2;
    # relations r00000.. on layer 0, agg:1:r.. on layer 1
    prefix = {0: "e" if kind == "entities" else "r", 1: "agg:1:", 2: "agg:2:"}[layer]
    return next(i for i, x in enumerate(ids[kind]) if x.startswith(prefix))


def first_concatenated_row(directory):
    return np.flatnonzero(read_structure(directory)[1]["kinds"] == CONCATENATED)[0]


def set_row(kind, on_layer, row):
    """Replace the first text row of a layer of entities.jsonl or relations.txt."""
    shard = {"entities": "entities.jsonl", "relations": "relations.txt"}[kind]

    def apply(directory):
        i = first_row_of_layer(read_structure(directory)[0], kind, on_layer)
        edit_rows(directory, shard, lambda rows: rows.__setitem__(i, row))

    return apply


def set_concatenated_row(row):
    def apply(directory):
        j = first_concatenated_row(directory)
        edit_rows(directory, "relations.txt", lambda rows: rows.__setitem__(j, row))

    return apply


def concatenated_without_evidence(directory):
    """Move the first concatenated relation's target to an aggregate between
    whose children and its source's children no relation runs."""
    j = first_concatenated_row(directory)
    ids, arrays = read_structure(directory)
    up_s, up_t = arrays["parents"][arrays["sources"]], arrays["parents"][arrays["targets"]]
    a = arrays["sources"][j]
    crossing = set(up_t[up_s == a].tolist()) | set(up_s[up_t == a].tolist())
    layer1 = [i for i, x in enumerate(ids["entities"]) if x.startswith("agg:1:")]
    assert a in layer1
    arrays["targets"][j] = next(b for b in layer1 if b != a and b not in crossing)
    write_structure(directory, ids, arrays)


def exact_duplicate_of_previous(kind_code):
    """The second relation of a kind takes the endpoints, and for a stored
    text row the text, of the first: the same source, target, layer and
    description. A concatenated relation's description is its evidence's,
    so equal endpoints make equal descriptions."""

    def apply(directory):
        ids, arrays = read_structure(directory)
        i, j = np.flatnonzero(arrays["kinds"] == kind_code)[:2].tolist()
        arrays["sources"][j], arrays["targets"][j] = arrays["sources"][i], arrays["targets"][i]
        write_structure(directory, ids, arrays)
        edit_rows(directory, "relations.txt", lambda rows: rows.__setitem__(j, rows[i]))

    return apply


def relation_to_itself(ids, arrays):
    """The first layer-0 relation's target becomes its source."""
    j = first_row_of_layer(ids, "relations", 0)
    arrays["targets"][j] = arrays["sources"][j]


def one_aggregate_adopts_layer_0(ids, arrays):
    """Every layer-0 entity's parent becomes the first layer-1 aggregate,
    which leaves the other layer-1 aggregates without children."""
    first = first_row_of_layer(ids, "entities", 1)
    arrays["parents"][:first] = first


def swap_first_relation_ids(ids, arrays):
    """The first two layer-0 relation ids change places: the layer's ids are out of sorted order."""
    relations, j = ids["relations"], first_row_of_layer(ids, "relations", 0)
    relations[j], relations[j + 1] = relations[j + 1], relations[j]


def relation_id_on_two_layers_in_order(ids, arrays):
    """The last layer-1 relation takes the last layer-0 relation's id; both layers stay in sorted order."""
    relations = ids["relations"]
    last = max(i for i, x in enumerate(relations) if x.startswith("agg:1:"))
    relations[last] = relations[first_row_of_layer(ids, "relations", 1) - 1]


def set_array(name, kind, layer, value):
    def edit(ids, arrays):
        arrays[name][first_row_of_layer(ids, kind, layer)] = value(ids, arrays) if callable(value) else value

    return edit_structure(edit)


def rename_id(kind, layer, new):
    def edit(ids, arrays):
        i = first_row_of_layer(ids, kind, layer)
        ids[kind][i] = new(ids) if callable(new) else new

    return edit_structure(edit)


def set_chunk_id(new):
    return edit_structure(lambda ids, arrays: ids["chunks"].__setitem__(0, new(ids) if callable(new) else new))


def set_manifest(directory, **fields):
    mpath = directory / "manifest.json"
    doc = json.loads(mpath.read_text(encoding="utf-8"))
    doc.update(fields)
    mpath.write_text(json.dumps(doc), encoding="utf-8")


def emptied_layer_0(directory):
    """One layer with no entity and no relation, over the same chunks."""
    ids, arrays = read_structure(directory)
    ids["entities"], ids["relations"] = [], []
    for name in ("parents", "sources", "targets", "kinds"):
        arrays[name] = arrays[name][:0]
    arrays["entity_offsets"] = arrays["relation_offsets"] = np.zeros(1)
    write_structure(directory, ids, arrays)
    for shard in ("entities.jsonl", "relations.txt", "embeddings.bin"):
        (directory / shard).write_bytes(b"")
    set_manifest(directory, layer_stats=[{"index": 0, "entities": 0, "relations": 0}])


def zero_width_embeddings(directory):
    """Vectors of dimension 0: an empty embedding shard."""
    (directory / "embeddings.bin").write_bytes(b"")
    set_manifest(directory, embedding_dim=0)


class TestLoadFailsClosed:
    """Shards that pass the hash check but disagree with the format or the
    manifest raise StoreError naming the shard: the structure at load, a
    text row at its first read. The CLI exits 3 either way."""

    @pytest.mark.parametrize(
        "shard, edit, when",
        [
            ("entities.jsonl", set_row("entities", 2, row=[1, 2]), "read"),
            ("structure.bin", set_array("kinds", "relations", 1, 255), "load"),
            # a kind the format once listed and nothing ever wrote: the code after the three kinds
            ("structure.bin", set_array("kinds", "relations", 0, len(RelationKind)), "load"),
            ("structure.bin", set_array("targets", "relations", 0, lambda ids, _: len(ids["entities"])), "load"),
            ("ids.json", rename_id("entities", 1, lambda ids: ids["entities"][first_row_of_layer(ids, "entities", 1) + 1]), "load"),
            ("ids.json", rename_id("relations", 0, lambda ids: ids["relations"][1]), "load"),
            ("ids.json", rename_id("relations", 1, "r00000"), "load"),
            ("structure.bin", set_array("sources", "relations", 1, 0), "load"),
            ("ids.json", set_chunk_id(lambda ids: ids["chunks"][1]), "load"),
            # e0000's parent moves from its layer-1 aggregate to a layer-2 one
            ("structure.bin", set_array("parents", "entities", 0, lambda ids, _: first_row_of_layer(ids, "entities", 2)), "load"),
            ("ids.json", rename_id("relations", 1, 7), "load"),
            ("ids.json", set_chunk_id(7), "load"),
            ("relations.txt", set_row("relations", 0, row=b"caf\xe9 \xff"), "read"),
            ("structure.bin", set_array("sources", "relations", 0, -1), "load"),
            ("structure.bin", set_array("parents", "entities", 2, 0), "load"),
            ("structure.bin", set_array("parents", "entities", 1, -1), "load"),
            ("structure.bin", set_array("entity_offsets", "entities", 1, 0), "load"),
            ("structure.bin", set_array("relation_offsets", "relations", 1, lambda *_: 10**9), "load"),
            ("ids.json", rename_id("entities", 0, "e9999"), "load"),
            ("relations.txt", set_concatenated_row(b"a; b"), "load"),
            ("relations.txt", set_row("relations", 0, row=b""), "load"),
            ("structure.bin", concatenated_without_evidence, "read"),
            ("structure.bin", edit_structure(relation_to_itself), "load"),
            ("structure.bin", set_array("kinds", "relations", 1, list(RelationKind).index(RelationKind.BASE)), "load"),
            ("structure.bin", edit_structure(one_aggregate_adopts_layer_0), "load"),
            ("ids.json", edit_structure(swap_first_relation_ids), "load"),
            ("ids.json", edit_structure(relation_id_on_two_layers_in_order), "load"),
            ("entities.jsonl", set_row("entities", 0, row=["name", "a leaf", []]), "read"),
            ("entities.jsonl", set_row("entities", 1, row=["name", "an aggregate", ["c0"]]), "read"),
            ("relations.txt", exact_duplicate_of_previous(list(RelationKind).index(RelationKind.BASE)), "load"),
            ("relations.txt", exact_duplicate_of_previous(CONCATENATED), "load"),
        ],
        ids=[
            "entity-row-not-object",
            "unknown-relation-kind",
            "intra-cluster-inherited-kind",
            "dangling-relation-endpoint",
            "entity-id-twice",
            "relation-id-twice",
            "relation-id-in-two-shards",
            "relation-endpoint-on-other-layer",
            "chunk-id-twice",
            "parent-two-layers-up",
            "relation-id-not-string",
            "chunk-id-not-string",
            "relation-row-not-utf8",
            "negative-endpoint-row",
            "parent-on-top-layer",
            "no-parent-below-top",
            "offsets-decrease",
            "offsets-past-end",
            "entity-ids-unsorted",
            "concatenated-relation-row-not-empty",
            "other-relation-row-empty",
            "concatenated-relation-without-evidence",
            "relation-self-loop",
            "base-kind-above-layer-0",
            "aggregate-without-children",
            "relation-ids-unsorted",
            "relation-id-on-two-layers-in-order",
            "layer-0-entity-without-chunks",
            "aggregate-with-chunks",
            "exact-duplicate-relation",
            "exact-duplicate-concatenated-relation",
        ],
    )
    def test_malformed_row(self, tmp_path, caplog, shard, edit, when):
        _, _, _, directory, _ = build_small_index(tmp_path, cluster_size=4)
        edit(directory)
        rehash(directory)
        if when == "load":
            with pytest.raises(StoreError) as exc:
                load_index(directory)
        else:
            h, _, _, _ = load_index(directory)
            with pytest.raises(StoreError) as exc:
                validate_hierarchy(h)  # reads every row
        assert shard in str(exc.value)
        assert main(["stats", "--index", str(directory)]) == 3
        assert shard in caplog.text

    @pytest.mark.parametrize(
        "edit, message",
        [(emptied_layer_0, "structure.bin: layer 0 is empty"), (zero_width_embeddings, "embedding_dim one >= 1")],
        ids=["empty-layer-0", "zero-width-embeddings"],
    )
    def test_index_with_nothing_to_anchor_on(self, tmp_path, caplog, capsys, edit, message):
        # each once loaded: stats exited 0, and query exited 2 with "seed set
        # is empty" or "the index embeddings have dimension 0", a usage error
        _, _, _, directory, _ = build_small_index(tmp_path)
        edit(directory)
        rehash(directory)
        with pytest.raises(StoreError, match=message):
            load_index(directory)
        assert main(["query", "--index", str(directory), "--query", "glacier summit"]) == 3
        assert main(["stats", "--index", str(directory)]) == 3
        assert caplog.text.count(message) == 2
        assert capsys.readouterr().out == ""

    def test_format_2_index_names_its_version(self, tmp_path, caplog, capsys):
        # a format-2 index: relations.jsonl held each relation's id, layer and description
        _, _, _, directory, _ = build_small_index(tmp_path)
        (directory / "relations.txt").rename(directory / "relations.jsonl")
        mpath = directory / "manifest.json"
        doc = json.loads(mpath.read_text(encoding="utf-8"))
        doc["format_version"] = 2
        mpath.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(StoreError, match="format_version 2 unsupported"):
            load_index(directory)
        assert main(["query", "--index", str(directory), "--query", "glacier summit"]) == 3
        assert "format_version 2" in caplog.text
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("key", ["entities", "relations"])
    def test_layer_sizes_differ_from_ids(self, tmp_path, key):
        # the manifest's layer sizes must sum to the number of ids
        _, _, _, directory, _ = build_small_index(tmp_path, cluster_size=4)
        mpath = directory / "manifest.json"
        doc = json.loads(mpath.read_text(encoding="utf-8"))
        doc["layer_stats"][1][key] -= 1
        mpath.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(StoreError) as exc:
            load_index(directory)
        assert "ids.json" in str(exc.value) and "manifest" in str(exc.value)
        assert main(["stats", "--index", str(directory)]) == 3

    def test_layer_sizes_shifted_between_layers(self, tmp_path):
        # the same total, but one entity moved from layer 1 to layer 2
        _, _, _, directory, _ = build_small_index(tmp_path, cluster_size=4)
        mpath = directory / "manifest.json"
        doc = json.loads(mpath.read_text(encoding="utf-8"))
        doc["layer_stats"][1]["entities"] -= 1
        doc["layer_stats"][2]["entities"] += 1
        mpath.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(StoreError):
            load_index(directory)

    def test_embedding_count_differs_from_entities(self, tmp_path):
        # a truncated embedding shard: the last vector is missing
        _, embeddings, _, directory, _ = build_small_index(tmp_path)
        shard = directory / "embeddings.bin"
        shard.write_bytes(shard.read_bytes()[: -embeddings.matrix.shape[1] * 8])
        rehash(directory)
        with pytest.raises(StoreError) as exc:
            load_index(directory)
        assert "embeddings.bin" in str(exc.value)
        assert main(["stats", "--index", str(directory)]) == 3

    def test_dangling_parent_fails_query(self, tmp_path, caplog):
        # a parent row past the last entity; a dangling parent_id once loaded,
        # and `hierkg query` then died with KeyError: 'ghost'
        _, _, _, directory, _ = build_small_index(tmp_path)
        edit_structure(lambda ids, arrays: arrays["parents"].__setitem__(0, len(ids["entities"])))(directory)
        rehash(directory)
        with pytest.raises(StoreError) as exc:
            load_index(directory)
        assert "structure.bin" in str(exc.value) and "parent" in str(exc.value)
        assert main(["query", "--index", str(directory), "--query", "glacier summit"]) == 3
        assert "structure.bin" in caplog.text

    def test_non_finite_layer_0_vector_fails_query(self, tmp_path, caplog, capsys):
        # a NaN vector loads; `hierkg query` once left its entity out and exited 0,
        # or, when the NaN score fell on the top-n cut, exited 2 with "seed set is empty"
        h, embeddings, _, directory, _ = build_small_index(tmp_path)
        matrix = embeddings.matrix.copy()
        matrix[embeddings.ids.index(h.layer0_ids[7]), 3] = np.nan
        (directory / "embeddings.bin").write_bytes(matrix.tobytes())
        rehash(directory)
        load_index(directory)
        for top_n in ("10", "1"):
            assert main(["query", "--index", str(directory), "--query", "glacier summit", "--top-n", top_n]) == 3
        assert f"entity {h.layer0_ids[7]}: embedding vector is not finite" in caplog.text
        assert capsys.readouterr().out == ""

    def test_bad_text_row_fails_query_at_first_read(self, tmp_path, caplog, capsys):
        # the index loads; the query fails when it reads a broken entity row
        _, _, _, directory, _ = build_small_index(tmp_path)
        edit_rows(directory, "entities.jsonl", lambda rows: [row.__setitem__(0, None) for row in rows])
        rehash(directory)
        load_index(directory)
        assert main(["query", "--index", str(directory), "--query", "glacier summit"]) == 3
        assert "entities.jsonl" in caplog.text
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("replacement", ["x0001", "e0000"], ids=["unknown-id", "repeated-id"])
    def test_embedding_ids_differ_from_entities(self, tmp_path, replacement):
        # ids.json labels the rows of the embedding matrix and of the text shards
        _, _, _, directory, _ = build_small_index(tmp_path)
        edit_structure(lambda ids, arrays: ids["entities"].__setitem__(1, replacement))(directory)
        rehash(directory)
        with pytest.raises(StoreError) as exc:
            load_index(directory)
        assert "ids.json" in str(exc.value)

    def test_embedding_dim_differs_from_manifest(self, tmp_path):
        _, _, _, directory, manifest = build_small_index(tmp_path)
        mpath = directory / "manifest.json"
        doc = json.loads(mpath.read_text(encoding="utf-8"))
        doc["embedding_dim"] = manifest.embedding_dim + 1
        mpath.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(StoreError) as exc:
            load_index(directory)
        assert "dim" in str(exc.value)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc["layer_stats"][0].pop("relations"),
            lambda doc: doc["layer_stats"].append(dict(doc["layer_stats"][0])),
            lambda doc: doc.pop("build_params"),
        ],
        ids=["layer-stat-without-count", "layer-listed-twice", "no-build-params"],
    )
    def test_malformed_manifest(self, tmp_path, edit):
        _, _, _, directory, _ = build_small_index(tmp_path)
        mpath = directory / "manifest.json"
        doc = json.loads(mpath.read_text(encoding="utf-8"))
        edit(doc)
        mpath.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(StoreError):
            load_index(directory)
        assert main(["stats", "--index", str(directory)]) == 3

    @pytest.mark.parametrize("kept", [[], [1, 2], [0, 2]], ids=["no-layers", "no-layer-0", "layer-1-missing"])
    def test_manifest_layers_other_than_0_to_k(self, tmp_path, capsys, kept):
        # with no layers, stats used to exit 0 and query to die with IndexError;
        # without layer 0, query used to exit 0 after anchoring on aggregates
        _, _, _, directory, _ = build_small_index(tmp_path, cluster_size=4)
        mpath = directory / "manifest.json"
        doc = json.loads(mpath.read_text(encoding="utf-8"))
        assert [stat["index"] for stat in doc["layer_stats"]] == [0, 1, 2]
        doc["layer_stats"] = [doc["layer_stats"][index] for index in kept]
        mpath.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(StoreError, match="layer indices"):
            load_index(directory)
        assert main(["query", "--index", str(directory), "--query", "glacier summit"]) == 3
        assert main(["stats", "--index", str(directory)]) == 3
        assert capsys.readouterr().out == ""


# json.dumps(ensure_ascii=False) writes U+2028, U+2029 and U+0085 raw, and
# str.splitlines() splits on them; control characters are written escaped
ODD_TEXT = "a\u2028b\u2029c\u0085d\re\nf\x1cg\x0bh\x0ci — ünïcødé 実体"


def test_round_trip_keeps_line_separators_and_non_ascii(tmp_path):
    ids = ["é\u20280", "実体\u00851", "z\u20292"]
    h = Hierarchy(build_params=BuildParams(cluster_size=3))
    layer0, layer1 = GraphLayer(index=0), GraphLayer(index=1)
    for k, eid in enumerate(ids):
        h.entities[eid] = Entity(eid, f"{ODD_TEXT} {k}", f"{k} {ODD_TEXT}", 0, ["ç\u2028k"])
        layer0.entity_ids.add(eid)
        h.parent_map[eid] = "agg\u2029ü"
    h.entities["agg\u2029ü"] = Entity("agg\u2029ü", ODD_TEXT, ODD_TEXT, 1)
    layer1.entity_ids.add("agg\u2029ü")
    for k in range(2):
        rid = f"ř\u2028{k}"
        h.relations[rid] = Relation(rid, ids[k], ids[k + 1], ODD_TEXT, 0, RelationKind.BASE)
        layer0.relation_ids.add(rid)
    h.layers = [layer0, layer1]
    assert validate_hierarchy(h) == []
    rng = np.random.default_rng(0)
    embeddings = {eid: rng.standard_normal(5) for eid in h.entities}
    chunks = {"ç\u2028k": Chunk("ç\u2028k", ODD_TEXT, "döc\u0085", 7)}

    save_index(h, embeddings, chunks, tmp_path / "idx")
    h2, emb2, chunks2, _ = load_index(tmp_path / "idx")
    assert {k: e.to_dict() for k, e in h2.entities.items()} == {k: e.to_dict() for k, e in h.entities.items()}
    assert {k: r.to_dict() for k, r in h2.relations.items()} == {k: r.to_dict() for k, r in h.relations.items()}
    assert h2.parent_map == h.parent_map
    assert [(l.entity_ids, l.relation_ids) for l in h2.layers] == [(l.entity_ids, l.relation_ids) for l in h.layers]
    assert chunks2 == chunks
    assert {k: v.tobytes() for k, v in emb2.items()} == {k: v.tobytes() for k, v in embeddings.items()}


def with_stored_relations(h: Hierarchy, rng: random.Random) -> Hierarchy:
    """Give a random hierarchy relations that save_index can store: base
    relations on layer 0, some of them parallel, and on each layer above,
    for some pairs of aggregates whose children a relation joins, an
    aggregated relation or a concatenated one whose description is the
    join of that evidence in row order. Ids come from one shuffled pool,
    so the layers' id ranges interleave."""
    pool = iter(rng.sample(range(10**5), 10**4))
    leaves = sorted(h.layers[0].entity_ids)

    def add(layer: int, a: str, b: str, text: str, kind: RelationKind) -> None:
        rid = f"r{next(pool):05d}"
        h.relations[rid] = Relation(rid, a, b, text, layer, kind)
        h.layers[layer].relation_ids.add(rid)

    for _ in range(2 * len(leaves)):
        a, b = rng.sample(leaves, 2)
        add(0, a, b, description(rng, length=4), RelationKind.BASE)
        if rng.random() < 0.2:  # a parallel relation
            add(0, b, a, description(rng, length=4) + " again", RelationKind.BASE)
    for layer in h.layers[1:]:
        evidence: dict[frozenset, list[str]] = {}
        for rid in sorted(h.layers[layer.index - 1].relation_ids):
            r = h.relations[rid]
            pair = frozenset((h.parent_map[r.source_id], h.parent_map[r.target_id]))
            if len(pair) == 2:
                evidence.setdefault(pair, []).append(r.description)
        for pair, texts in sorted(evidence.items(), key=lambda item: sorted(item[0])):
            a, b = rng.sample(sorted(pair), 2)
            choice = rng.randrange(3)
            if choice == 1:
                add(layer.index, a, b, description(rng, length=5), RelationKind.INTER_CLUSTER_AGGREGATED)
            elif choice == 2:
                add(layer.index, a, b, "; ".join(texts), RelationKind.INTER_CLUSTER_CONCATENATED)
    return h


def test_load_finds_every_relation_and_parent_by_row(tmp_path):
    # a load builds no relation id -> row map: each relation is found by
    # binary search in its layer's sorted ids, and parent_map reads the parent rows;
    # each layer's id sets are RowRange key views over the id lists
    kinds = Counter()
    for seed in range(12):
        rng = random.Random(seed)
        h = with_stored_relations(make_random_hierarchy(rng, rng.randint(5, 60)), rng)
        assert validate_hierarchy(h) == []
        vectors = np.random.default_rng(seed).standard_normal((len(h.entities), 4))
        save_index(h, dict(zip(h.entities, vectors)), {"c0": Chunk("c0", "text", "d0", 1)}, tmp_path / f"idx{seed}")
        h2 = load_index(tmp_path / f"idx{seed}")[0]

        for rid, r in h.relations.items():
            assert h2.relations[rid] == r
            assert [rid in layer.relation_ids for layer in h2.layers] == [k == r.layer for k in range(len(h.layers))]
            kinds[r.kind] += 1
        for eid, e in h.entities.items():
            assert [eid in layer.entity_ids for layer in h2.layers] == [k == e.layer for k in range(len(h.layers))]
        assert list(h2.relations) == [rid for layer in h.layers for rid in sorted(layer.relation_ids)]
        assert dict(h2.parent_map) == h.parent_map and h2.parent_map == h.parent_map
        assert list(h2.parent_map) == [eid for layer in h.layers[:-1] for eid in sorted(layer.entity_ids)]

        view, child = h2.parent_map, next(iter(h.parent_map))
        with pytest.raises(TypeError):
            view[child] = child
        with pytest.raises(TypeError):
            del view[child]
        assert not hasattr(view, "update") and not hasattr(view, "pop")
        top = next(iter(h.layers[-1].entity_ids))
        for key in ["ghost", top, 7, None, ("tuple",), [child], b"e0000"]:
            assert key not in view
            with pytest.raises(KeyError):
                view[key]
        for key in ["ghost", child, 7, None, ("tuple",), b"r00000"]:
            assert key not in h2.relations and key not in h2.layers[0].relation_ids
            with pytest.raises(KeyError):
                h2.relations[key]
        for key in [7, None, ("tuple",), [child], b"e0000", top.encode()]:
            assert not any(key in layer.entity_ids for layer in h2.layers)
        copied = copy.deepcopy(h2).parent_map
        assert type(copied) is dict and copied == h.parent_map
    assert kinds[RelationKind.INTER_CLUSTER_CONCATENATED] and kinds[RelationKind.INTER_CLUSTER_AGGREGATED]


def test_load_reads_each_file_once(tmp_path, monkeypatch):
    _, _, _, directory, _ = build_small_index(tmp_path)
    real_open = io.open
    reads = Counter()

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and Path(file).parent == directory:
            reads[Path(file).name] += 1
        return real_open(file, *args, **kwargs)

    # pathlib opens files through io.open, plain code through builtins.open
    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    h, _, _, _ = load_index(directory)
    validate_hierarchy(h)  # reading every row opens nothing
    assert reads == Counter(os.listdir(directory))
