import builtins
import gc
import hashlib
import io
import json
import os
import random
import shutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from hierkg.cli import main
from hierkg.errors import IngestError, StoreError
from hierkg.model import (
    BuildParams,
    Chunk,
    EmbeddingTable,
    Entity,
    GraphLayer,
    Hierarchy,
    Relation,
    RelationKind,
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

from helpers import make_layer0, write_ingest_jsonl


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

    def test_large_file_counts_match_generator(self, tmp_path):
        rng = random.Random(0)
        entities, relations, chunks = make_layer0(rng, 2000, avg_degree=4, n_chunks=300)
        path = tmp_path / "big.jsonl"
        write_ingest_jsonl(path, entities, relations, chunks)
        got_e, got_r, got_c, report = ingest(path)
        assert report.entities == len(entities) == len(got_e)
        assert report.relations == len(relations) == len(got_r)
        assert report.chunks == len(chunks) == len(got_c)


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
        assert manifest2.format_version == FORMAT_VERSION
        assert set(h2.entities) == set(h.entities)
        assert set(h2.relations) == set(h.relations)
        assert h2.parent_map == h.parent_map
        assert [l.entity_ids for l in h2.layers] == [l.entity_ids for l in h.layers]
        assert [l.relation_ids for l in h2.layers] == [l.relation_ids for l in h.layers]
        assert set(chunks2) == set(chunks)
        assert h2.build_params.to_dict() == h.build_params.to_dict()
        assert validate_hierarchy(h2) == []
        # equal objects in the same dict order: layer by layer, each layer in sorted-id order
        assert list(h2.entities.items()) == list(h.entities.items())
        assert list(h2.relations.items()) == list(h.relations.items())

    def test_entity_rows_carry_parent_id(self, tmp_path):
        # the on-disk format keeps one parent_id per entity row
        h, _, _, directory, _ = build_small_index(tmp_path)
        top = len(h.layers) - 1
        assert top >= 1
        for layer in h.layers:
            lines = (directory / f"entities_{layer.index}.jsonl").read_text(encoding="utf-8").splitlines()
            rows = [json.loads(line) for line in lines]
            assert [row["id"] for row in rows] == sorted(layer.entity_ids)
            for row in rows:
                assert sorted(row) == ["description", "id", "layer", "name", "parent_id", "source_chunk_ids"]
                assert row["parent_id"] == h.parent_map.get(row["id"])
                assert (row["parent_id"] is None) == (layer.index == top)
        assert load_index(directory)[0].parent_map == h.parent_map

    def test_embeddings_bit_exact(self, tmp_path):
        h, embeddings, _, directory, _ = build_small_index(tmp_path)
        _, emb2, _, _ = load_index(directory)
        assert set(emb2) == set(embeddings)
        for eid, vec in embeddings.items():
            assert emb2[eid].tobytes() == np.asarray(vec, dtype="<f8").tobytes()

    def test_save_load_save_is_byte_identical(self, tmp_path):
        # the table is in layer order, the shard in sorted-id order
        h, embeddings, chunks, directory, _ = build_small_index(tmp_path, cluster_size=4)
        h2, emb2, chunks2, _ = load_index(directory)
        assert emb2.ids == embeddings.ids == tuple(EmbeddingTable.row_order(h2))
        assert list(emb2.ids) != sorted(emb2.ids)
        save_index(h2, emb2, chunks2, tmp_path / "again", provider_ids={"embedding": "mock"})
        assert sorted(os.listdir(directory)) == sorted(os.listdir(tmp_path / "again"))
        for name in os.listdir(directory):
            assert (directory / name).read_bytes() == (tmp_path / "again" / name).read_bytes(), name

    def test_one_byte_corruption_fails_closed(self, tmp_path):
        _, _, _, directory, _ = build_small_index(tmp_path)
        shard = directory / "embeddings.bin"
        data = bytearray(shard.read_bytes())
        data[len(data) // 2] ^= 0xFF
        shard.write_bytes(bytes(data))
        with pytest.raises(StoreError) as exc:
            load_index(directory)
        assert "hash" in str(exc.value)

    def test_jsonl_corruption_fails_closed(self, tmp_path):
        _, _, _, directory, _ = build_small_index(tmp_path)
        target = directory / "entities_0.jsonl"
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


def content_hash_of(directory):
    """The documented content hash: SHA-256 over name, NUL, bytes of each shard in sorted name order."""
    doc = json.loads((directory / "manifest.json").read_text(encoding="utf-8"))
    names = ["chunks.jsonl", "embeddings.bin"]
    for stat in doc["layer_stats"]:
        names += [f"entities_{stat['index']}.jsonl", f"relations_{stat['index']}.jsonl"]
    digest = hashlib.sha256()
    for name in sorted(names):
        digest.update(name.encode("utf-8") + b"\x00" + (directory / name).read_bytes())
    return digest.hexdigest()


def rehash(directory):
    """Rewrite content_hash so that edited shards pass the hash check."""
    mpath = directory / "manifest.json"
    doc = json.loads(mpath.read_text(encoding="utf-8"))
    doc["content_hash"] = content_hash_of(directory)
    mpath.write_text(json.dumps(doc), encoding="utf-8")


def edit_rows(path, edit):
    """Apply edit to the list of rows of a JSONL shard and write it back."""
    rows = [json.loads(line) for line in path.read_bytes().split(b"\n") if line]
    edit(rows)
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")


def first_row_not_object(rows):
    rows[0] = [1, 2]


def set_first_kind(rows):
    rows[0]["kind"] = "sideways"


def drop_first_layer(rows):
    del rows[0]["layer"]


def drop_last_row(rows):
    rows.pop()


def set_first_kind_inherited(rows):
    # a kind the format once listed and nothing ever wrote
    rows[0]["kind"] = "intra_cluster_inherited"


def set_first_target_ghost(rows):
    rows[0]["target_id"] = "ghost"


def set_first_layer_zero(rows):
    rows[0]["layer"] = 0


def repeat_first_id(rows):
    rows[1]["id"] = rows[0]["id"]


def set_first_id_of_layer0(rows):
    # r00000 is the first relation of relations_0.jsonl
    rows[0]["id"] = "r00000"


def set_first_layer_one(rows):
    rows[0]["layer"] = 1


def set_first_source_layer0(rows):
    # e0000 is a layer-0 entity (tests/helpers.py::make_layer0)
    rows[0]["source_id"] = "e0000"


def set_first_parent_two_layers_up(rows):
    # agg:2:0 is on layer 2, one layer above the layer-1 parent e0000 has
    rows[0]["parent_id"] = "agg:2:0"


def set_first_id_int(rows):
    rows[0]["id"] = 7


class TestLoadFailsClosed:
    """Shards that pass the hash check but disagree with the format or the
    manifest raise StoreError naming the shard; the CLI exits 3."""

    @pytest.mark.parametrize(
        "shard, edit",
        [
            ("entities_2.jsonl", first_row_not_object),
            ("relations_1.jsonl", set_first_kind),
            ("relations_1.jsonl", drop_first_layer),
            ("relations_0.jsonl", set_first_kind_inherited),
            ("relations_0.jsonl", set_first_target_ghost),
            ("entities_1.jsonl", set_first_layer_zero),
            ("entities_1.jsonl", repeat_first_id),
            ("relations_0.jsonl", repeat_first_id),
            ("relations_1.jsonl", set_first_id_of_layer0),
            ("relations_0.jsonl", set_first_layer_one),
            ("relations_1.jsonl", set_first_source_layer0),
            ("chunks.jsonl", repeat_first_id),
            ("entities_0.jsonl", set_first_parent_two_layers_up),
            ("relations_1.jsonl", set_first_id_int),
            ("chunks.jsonl", set_first_id_int),
        ],
        ids=[
            "entity-row-not-object",
            "unknown-relation-kind",
            "relation-without-layer",
            "intra-cluster-inherited-kind",
            "dangling-relation-endpoint",
            "entity-layer-differs-from-shard",
            "entity-id-twice",
            "relation-id-twice",
            "relation-id-in-two-shards",
            "relation-layer-differs-from-shard",
            "relation-endpoint-on-other-layer",
            "chunk-id-twice",
            "parent-two-layers-up",
            "relation-id-not-string",
            "chunk-id-not-string",
        ],
    )
    def test_malformed_row(self, tmp_path, caplog, shard, edit):
        _, _, _, directory, _ = build_small_index(tmp_path, cluster_size=4)
        edit_rows(directory / shard, edit)
        rehash(directory)
        with pytest.raises(StoreError) as exc:
            load_index(directory)
        assert shard in str(exc.value)
        assert main(["stats", "--index", str(directory)]) == 3
        assert shard in caplog.text

    @pytest.mark.parametrize("shard", ["entities_1.jsonl", "relations_0.jsonl"])
    def test_row_count_differs_from_manifest(self, tmp_path, shard):
        _, _, _, directory, _ = build_small_index(tmp_path, cluster_size=4)
        edit_rows(directory / shard, drop_last_row)
        rehash(directory)
        with pytest.raises(StoreError) as exc:
            load_index(directory)
        assert shard in str(exc.value) and "manifest" in str(exc.value)

    def test_embedding_count_differs_from_entities(self, tmp_path):
        h, embeddings, chunks, directory, _ = build_small_index(tmp_path)
        short = dict(sorted(embeddings.items())[1:])
        save_index(h, short, chunks, tmp_path / "short")
        shutil.copyfile(tmp_path / "short" / "embeddings.bin", directory / "embeddings.bin")
        rehash(directory)
        with pytest.raises(StoreError) as exc:
            load_index(directory)
        assert "embeddings.bin" in str(exc.value)

    def test_dangling_parent_fails_query(self, tmp_path, caplog):
        # this index used to load, and `hierkg query` then died with KeyError: 'ghost'
        _, _, _, directory, _ = build_small_index(tmp_path)
        edit_rows(directory / "entities_0.jsonl", lambda rows: [row.update(parent_id="ghost") for row in rows])
        rehash(directory)
        with pytest.raises(StoreError) as exc:
            load_index(directory)
        assert "entities_0.jsonl" in str(exc.value) and "ghost" in str(exc.value)
        assert main(["query", "--index", str(directory), "--query", "glacier summit"]) == 3
        assert "entities_0.jsonl" in caplog.text

    @pytest.mark.parametrize("replacement", [b"x0001", b"e0000"], ids=["unknown-id", "repeated-id"])
    def test_embedding_ids_differ_from_entities(self, tmp_path, replacement):
        _, _, _, directory, _ = build_small_index(tmp_path)
        shard = directory / "embeddings.bin"
        data = shard.read_bytes()
        assert data.count(b"e0001") == 1
        shard.write_bytes(data.replace(b"e0001", replacement))
        rehash(directory)
        with pytest.raises(StoreError) as exc:
            load_index(directory)
        assert "embeddings.bin" in str(exc.value) and replacement.decode() in str(exc.value)

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
        rehash(directory)  # over the shards of the layers kept
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
    load_index(directory)
    assert reads == Counter(os.listdir(directory))


@pytest.mark.parametrize("enabled", [True, False])
def test_load_pauses_and_restores_gc(tmp_path, monkeypatch, enabled):
    # the cyclic collector is off while a load builds objects; a load, failed
    # or not, leaves it as it found it
    _, _, _, directory, _ = build_small_index(tmp_path)
    seen = []
    real_read_embeddings = store._read_embeddings

    def read_embeddings(*args):
        seen.append(gc.isenabled())
        return real_read_embeddings(*args)

    monkeypatch.setattr(store, "_read_embeddings", read_embeddings)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        load_index(directory)
        assert seen == [False]
        assert gc.isenabled() is enabled
        with pytest.raises(StoreError):
            load_index(tmp_path / "nowhere")
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
