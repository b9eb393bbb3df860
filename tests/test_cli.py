import csv
import io
import json
import random

import pytest

from hierkg import providers
from hierkg.cli import EXIT_DATA, EXIT_OK, EXIT_PROVIDER, EXIT_USAGE, main
from hierkg.providers import count_tokens

from helpers import make_layer0, write_ingest_jsonl


@pytest.fixture()
def ingest_file(tmp_path):
    rng = random.Random(0)
    entities, relations, chunks = make_layer0(rng, 30, avg_degree=3)
    path = tmp_path / "knowledge.jsonl"
    write_ingest_jsonl(path, entities, relations, chunks)
    return path


@pytest.fixture()
def built_index(tmp_path, ingest_file, capsys):
    index_dir = tmp_path / "index"
    code = main([
        "build", "--input", str(ingest_file), "--out", str(index_dir),
        "--cluster-size", "10", "--seed", "1",
    ])
    capsys.readouterr()
    assert code == EXIT_OK
    return index_dir


@pytest.fixture()
def provider_calls(monkeypatch):
    """Names of the mock provider methods called, in call order."""
    calls = []
    for cls, name in [
        (providers.MockEmbeddingProvider, "embed_batch"),
        (providers.MockGenerationProvider, "generate_aggregate_entity"),
        (providers.MockGenerationProvider, "generate_aggregate_relation"),
    ]:
        def counted(self, *args, _method=getattr(cls, name), _name=name):
            calls.append(_name)
            return _method(self, *args)

        monkeypatch.setattr(cls, name, counted)
    return calls


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestBuild:
    def test_build_reports_layers(self, tmp_path, ingest_file, capsys):
        index_dir = tmp_path / "idx"
        code, payload = run_json(capsys, [
            "build", "--input", str(ingest_file), "--out", str(index_dir),
            "--cluster-size", "10", "--seed", "1",
        ])
        assert code == EXIT_OK
        assert payload["ingest"]["entities"] == 30
        stats = payload["manifest"]["layer_stats"]
        assert len(stats) >= 2
        assert stats[0]["entities"] == 30
        assert (index_dir / "manifest.json").is_file()

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        code = main(["build", "--input", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o")])
        capsys.readouterr()
        assert code == EXIT_DATA

    def test_bad_record_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "entity", "id": "e0", "name": "X", "description": "d", "chunk_ids": ["ghost"]}\n')
        code = main(["build", "--input", str(path), "--out", str(tmp_path / "o")])
        capsys.readouterr()
        assert code == EXIT_DATA

    def test_rebuild_same_seed_same_hash(self, tmp_path, ingest_file, capsys):
        hashes = []
        for name in ("i1", "i2"):
            _, payload = run_json(capsys, [
                "build", "--input", str(ingest_file), "--out", str(tmp_path / name),
                "--cluster-size", "10", "--seed", "5",
            ])
            hashes.append(payload["manifest"]["content_hash"])
        assert hashes[0] == hashes[1]

    def test_unknown_flag_is_usage_error(self, capsys):
        code = main(["build", "--bogus"])
        capsys.readouterr()
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("renamed", [None, "e0000", "r00000"], ids=["control", "entity", "relation"])
    def test_reserved_aggregate_id_is_usage_error(self, tmp_path, capsys, provider_calls, renamed):
        # an input entity agg:1:0 used to run every layer's generation calls and
        # then exit 2; an input relation agg:1:r0 was replaced by the layer-1
        # relation of that id, and the index then failed to load
        entities, relations, chunks = make_layer0(random.Random(0), 30, avg_degree=3)
        if renamed in entities:
            e = entities.pop(renamed)
            e.id = "agg:1:0"
            entities[e.id] = e
            for r in relations.values():
                r.source_id, r.target_id = (e.id if end == renamed else end for end in (r.source_id, r.target_id))
        elif renamed in relations:
            r = relations.pop(renamed)
            r.id = "agg:1:r0"
            relations[r.id] = r
        path = tmp_path / "knowledge.jsonl"
        write_ingest_jsonl(path, entities, relations, chunks)
        code = main(["build", "--input", str(path), "--out", str(tmp_path / "o"), "--cluster-size", "10", "--seed", "1"])
        capsys.readouterr()
        if renamed is None:
            assert code == EXIT_OK and "generate_aggregate_entity" in provider_calls
        else:
            assert code == EXIT_USAGE
            assert provider_calls == []
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("body", [[1, 2], "text", None], ids=["list", "string", "null"])
    def test_provider_body_not_an_object_is_provider_error(self, tmp_path, ingest_file, capsys, monkeypatch, body):
        posts = []

        def post(url, payload, timeout):
            posts.append(url)
            return body

        monkeypatch.setattr(providers, "_default_post", post)
        config = tmp_path / "providers.json"
        config.write_text(json.dumps({"embedding": {"provider": "http", "endpoint": "http://test/embed"}}))
        code = main(["build", "--input", str(ingest_file), "--out", str(tmp_path / "o"), "--providers", str(config)])
        assert capsys.readouterr().out == ""
        assert code == EXIT_PROVIDER
        assert posts == ["http://test/embed"]

    def test_single_root_flag_is_gone(self, tmp_path, ingest_file, capsys):
        code = main(["build", "--input", str(ingest_file), "--out", str(tmp_path / "o"), "--single-root"])
        capsys.readouterr()
        assert code == EXIT_USAGE
        assert not (tmp_path / "o").exists()


class TestQuery:
    def test_default_json_output(self, built_index, capsys):
        code, payload = run_json(capsys, [
            "query", "--index", str(built_index), "--query", "glacier summit tundra",
        ])
        assert code == EXIT_OK
        bundle = payload["bundle"]
        assert bundle["entity_section"].startswith("# Entities")
        assert bundle["relation_section"].startswith("# Relations")
        assert len(payload["seeds"]["entries"]) == 10

    def test_no_context_drops_chunk_section(self, built_index, capsys):
        code, payload = run_json(capsys, [
            "query", "--index", str(built_index), "--query", "glacier summit", "--no-context",
        ])
        assert code == EXIT_OK
        assert payload["bundle"]["chunk_section"] == ""
        assert payload["bundle"]["token_counts"]["chunk_section"] == 0

    def test_no_relations_drops_relation_section(self, built_index, capsys):
        code, payload = run_json(capsys, [
            "query", "--index", str(built_index), "--query", "glacier summit", "--no-relations",
        ])
        assert code == EXIT_OK
        assert payload["bundle"]["relation_section"] == ""

    def test_text_format_matches_json_token_total(self, built_index, capsys):
        code = main(["query", "--index", str(built_index), "--query", "meadow nebula", "--format", "text"])
        text = capsys.readouterr().out
        assert code == EXIT_OK
        code, payload = run_json(capsys, [
            "query", "--index", str(built_index), "--query", "meadow nebula",
        ])
        assert count_tokens(text) == payload["bundle"]["token_counts"]["total"]

    def test_flat_baseline_runs(self, built_index, capsys):
        code, payload = run_json(capsys, [
            "query", "--index", str(built_index), "--query", "meadow nebula",
            "--baseline", "flat", "--max-hops", "3",
        ])
        assert code == EXIT_OK
        assert payload["bundle"]["entity_section"].startswith("# Entities")

    def test_missing_index_is_data_error(self, tmp_path, capsys):
        code = main(["query", "--index", str(tmp_path / "ghost"), "--query", "x"])
        capsys.readouterr()
        assert code == EXIT_DATA

    def test_empty_query_is_usage_error(self, built_index, capsys):
        code = main(["query", "--index", str(built_index), "--query", "   "])
        capsys.readouterr()
        assert code == EXIT_USAGE

    def test_base_url_provider_config_is_usage_error_without_post(self, built_index, tmp_path, capsys, monkeypatch):
        posts = []

        def post(url, payload, timeout):
            posts.append(url)
            raise ConnectionError("no server")

        monkeypatch.setattr(providers, "_default_post", post)
        config = tmp_path / "providers.json"
        config.write_text(json.dumps({
            "embedding": {"provider": "http", "base_url": "http://127.0.0.1:9/embed", "model": "m", "api_key": "k"},
        }))
        code = main([
            "query", "--index", str(built_index), "--query", "meadow nebula", "--providers", str(config),
        ])
        capsys.readouterr()
        assert code == EXIT_USAGE
        assert posts == []

    def test_negative_top_c_is_usage_error(self, built_index, capsys):
        code = main(["query", "--index", str(built_index), "--query", "glacier summit", "--top-c", "-1"])
        capsys.readouterr()
        assert code == EXIT_USAGE

    def test_query_dim_differs_from_index_is_usage_error(self, built_index, tmp_path, capsys, caplog):
        config = tmp_path / "providers.json"
        config.write_text(json.dumps({"embedding": {"provider": "mock", "dim": 64}}))
        code = main(["query", "--index", str(built_index), "--query", "glacier summit", "--providers", str(config)])
        assert capsys.readouterr().out == ""
        assert code == EXIT_USAGE
        assert "(64,)" in caplog.text and "dimension 256" in caplog.text


class TestProviderConfigFile:
    @pytest.mark.parametrize(
        "text",
        ["{not json", "[]", '{"embedding": ["mock"]}', '{"generation": null}'],
        ids=["invalid-json", "list", "embedding-list", "generation-null"],
    )
    @pytest.mark.parametrize("command", ["build", "query", "bench"])
    def test_malformed_config_is_usage_error(self, built_index, ingest_file, tmp_path, capsys, text, command):
        config = tmp_path / "providers.json"
        config.write_text(text)
        queries = tmp_path / "queries.txt"
        queries.write_text("glacier summit\n")
        argv = {
            "build": ["build", "--input", str(ingest_file), "--out", str(tmp_path / "o")],
            "query": ["query", "--index", str(built_index), "--query", "glacier summit"],
            "bench": ["bench", "--index", str(built_index), "--queries", str(queries)],
        }[command]
        code = main(argv + ["--providers", str(config)])
        assert capsys.readouterr().out == ""
        assert code == EXIT_USAGE


class TestBench:
    def test_empty_queries_file(self, built_index, tmp_path, capsys):
        qfile = tmp_path / "queries.txt"
        qfile.write_text("\n")
        code, payload = run_json(capsys, [
            "bench", "--index", str(built_index), "--queries", str(qfile),
        ])
        assert code == EXIT_OK
        assert payload == {"rows": [], "mean_ratio": None, "num_queries": 0}

    def test_single_query_consistent_with_two_query_runs(self, built_index, tmp_path, capsys):
        query = "glacier summit tundra reef"
        qfile = tmp_path / "queries.txt"
        qfile.write_text(query + "\n")
        code, payload = run_json(capsys, [
            "bench", "--index", str(built_index), "--queries", str(qfile), "--max-hops", "4",
        ])
        assert code == EXIT_OK
        row = payload["rows"][0]

        _, lean = run_json(capsys, ["query", "--index", str(built_index), "--query", query])
        _, flat = run_json(capsys, [
            "query", "--index", str(built_index), "--query", query, "--baseline", "flat", "--max-hops", "4",
        ])
        assert row["lean_tokens"] == lean["bundle"]["token_counts"]["total"]
        assert row["baseline_tokens"] == flat["bundle"]["token_counts"]["total"]
        assert payload["mean_ratio"] == pytest.approx(row["lean_tokens"] / row["baseline_tokens"])

    def test_csv_format(self, built_index, tmp_path, capsys):
        qfile = tmp_path / "queries.txt"
        qfile.write_text("meadow nebula\nharbor reef\n")
        code = main(["bench", "--index", str(built_index), "--queries", str(qfile), "--format", "csv"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "query,lean_tokens,baseline_tokens,ratio"
        assert len(lines) == 3

    def test_csv_quotes_round_trip(self, built_index, tmp_path, capsys):
        query = 'rotor "flux", torque'
        qfile = tmp_path / "queries.txt"
        qfile.write_text(query + "\n")
        code, payload = run_json(capsys, ["bench", "--index", str(built_index), "--queries", str(qfile)])
        assert code == EXIT_OK
        code = main(["bench", "--index", str(built_index), "--queries", str(qfile), "--format", "csv"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        header, row = list(csv.reader(io.StringIO(out)))
        assert header == ["query", "lean_tokens", "baseline_tokens", "ratio"]
        expected = payload["rows"][0]
        assert row == [
            query,
            str(expected["lean_tokens"]),
            str(expected["baseline_tokens"]),
            f"{expected['ratio']:.6f}",
        ]

    def test_negative_top_c_is_usage_error(self, built_index, tmp_path, capsys):
        qfile = tmp_path / "queries.txt"
        qfile.write_text("meadow nebula\n")
        code = main(["bench", "--index", str(built_index), "--queries", str(qfile), "--top-c", "-1"])
        assert capsys.readouterr().out == ""
        assert code == EXIT_USAGE

    def test_missing_queries_file_is_data_error(self, built_index, tmp_path, capsys):
        code = main(["bench", "--index", str(built_index), "--queries", str(tmp_path / "none.txt")])
        capsys.readouterr()
        assert code == EXIT_DATA


class TestStats:
    def test_stats_reports_layers_and_validation(self, built_index, capsys):
        code, payload = run_json(capsys, ["stats", "--index", str(built_index)])
        assert code == EXIT_OK
        assert payload["layers"][0]["entities"] == 30
        assert payload["validation_violations"] == []
        assert payload["chunks"] > 0
        assert payload["embeddings"] == sum(l["entities"] for l in payload["layers"])

    def test_no_command_is_usage_error(self, capsys):
        code = main([])
        capsys.readouterr()
        assert code == EXIT_USAGE
