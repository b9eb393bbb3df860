import json
import re
import zlib
from pathlib import Path

import numpy as np
import pytest
import requests
from hypothesis import given, strategies as st

from hierkg.errors import (
    GenerationParseError,
    InvalidArgumentError,
    ProviderUnavailableError,
)
from hierkg.providers import (
    HttpEmbeddingProvider,
    HttpGenerationProvider,
    MockEmbeddingProvider,
    MockGenerationProvider,
    ProviderConfig,
    MOCK_EMBEDDING_DIM,
    count_tokens,
    make_embedding_provider,
    make_generation_provider,
    parse_aggregate_entity_response,
    parse_relation_summary_response,
)

FIXTURES = __import__("pathlib").Path(__file__).parent / "fixtures"


def cosine_loop(a, b):
    # independent scalar-loop oracle, no numpy vectorization
    dot = na = nb = 0.0
    for x, y in zip(a, b):
        dot += x * y
        na += x * x
        nb += y * y
    return dot / (na**0.5 * nb**0.5)


def embed_one_loop(text, dim):
    """The mock embedder's per-trigram loop, kept as the reference for its bincount."""
    t = text.lower()
    v = np.zeros(dim, dtype=np.float64)
    if len(t) < 3:
        v[zlib.crc32(t.encode("utf-8")) % dim] = 1.0
    else:
        for i in range(len(t) - 2):
            v[zlib.crc32(t[i : i + 3].encode("utf-8")) % dim] += 1.0
    return v / np.linalg.norm(v)


def http_error(status):
    """What requests' raise_for_status raises for an HTTP error status."""
    response = requests.Response()
    response.status_code = status
    return requests.HTTPError(f"{status} from the test server", response=response)


class TestMockEmbedding:
    @pytest.mark.parametrize("dim", [8, MOCK_EMBEDDING_DIM])
    @pytest.mark.parametrize(
        "text", ["a", "Ab", "abc", "Glacier SUMMIT tundra", "ÀÉÎ", "ünïcødé — 実体 café", "turbine rotor " * 40]
    )
    def test_matches_per_trigram_loop(self, text, dim):
        got = MockEmbeddingProvider(dim).embed_batch([text])[0]
        assert got.tobytes() == embed_one_loop(text, dim).tobytes()

    @given(st.text(min_size=1, max_size=60).filter(str.strip))
    def test_matches_per_trigram_loop_on_any_text(self, text):
        got = MockEmbeddingProvider().embed_batch([text])[0]
        assert got.tobytes() == embed_one_loop(text, MOCK_EMBEDDING_DIM).tobytes()

    def test_deterministic(self, embed_provider):
        v1 = embed_provider.embed_batch(["x"])[0]
        v2 = embed_provider.embed_batch(["x"])[0]
        assert np.array_equal(v1, v2)

    def test_normalized(self, embed_provider):
        for text in ["alpha", "some longer text with several words", "x"]:
            v = embed_provider.embed_batch([text])[0]
            assert abs(np.linalg.norm(v) - 1.0) < 1e-9

    def test_overlap_orders_similarity(self, embed_provider):
        a, b, c = embed_provider.embed_batch(["alpha beta", "alpha beta gamma", "delta epsilon"])
        assert cosine_loop(a, b) > cosine_loop(a, c)

    def test_empty_text_rejected(self, embed_provider):
        with pytest.raises(InvalidArgumentError):
            embed_provider.embed_batch(["   "])
        with pytest.raises(InvalidArgumentError):
            embed_provider.embed_batch([])

    @given(st.lists(st.sampled_from(["alpha", "beta gamma", "delta", "epsilon zeta"]), min_size=2, max_size=8))
    def test_batching_is_invisible(self, texts):
        provider = MockEmbeddingProvider()
        whole = provider.embed_batch(texts)
        split = np.concatenate([provider.embed_batch(texts[:1]), provider.embed_batch(texts[1:])])
        for a, b in zip(whole, split):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("dim", [8, MOCK_EMBEDDING_DIM])
    def test_batch_is_one_float64_matrix(self, dim):
        texts = ["alpha", "Ab", "turbine rotor flux"]
        batch = MockEmbeddingProvider(dim).embed_batch(texts)
        assert batch.shape == (3, dim) and batch.dtype == np.float64 and batch.flags.c_contiguous
        for row, text in zip(batch, texts):
            assert row.tobytes() == embed_one_loop(text, dim).tobytes()


class TestMockGeneration:
    def test_two_member_cluster_name(self, gen_provider):
        result = gen_provider.generate_aggregate_entity(
            [("Apple", "a fruit"), ("Pear", "another fruit")], []
        )
        assert result.name == "Apple+Pear Group"
        assert result.name not in {"Apple", "Pear"}
        assert result.description

    def test_singleton_cluster(self, gen_provider):
        result = gen_provider.generate_aggregate_entity([("X", "a thing about x")], [])
        assert result.name == "X Group"
        assert result.name != "X"
        assert "a thing about x" in result.description

    def test_relation_template(self, gen_provider):
        text = gen_provider.generate_aggregate_relation(
            ("A", "da"), ("B", "db"), ["r1", "r2", "r3", "r4"]
        )
        assert text == "A relates to B via 4 underlying relations."

    def test_idempotent(self, gen_provider):
        args = (("A", "da"), ("B", "db"), ["r1", "r2"])
        assert gen_provider.generate_aggregate_relation(*args) == gen_provider.generate_aggregate_relation(*args)

    def test_empty_cluster_rejected(self, gen_provider):
        with pytest.raises(InvalidArgumentError):
            gen_provider.generate_aggregate_entity([], [])

    def test_findings_empty(self, gen_provider):
        result = gen_provider.generate_aggregate_entity([("A", "d")], [])
        assert result.findings == []


class TestCountTokens:
    def test_empty(self):
        assert count_tokens("") == 0

    def test_two_words(self):
        assert count_tokens("hello world") == 2

    @given(st.text(alphabet="abc \t\n", max_size=50), st.text(alphabet="xyz \t\n", max_size=50))
    def test_additive_over_separator(self, a, b):
        # oracle: split-and-sum
        assert count_tokens(a + " " + b) == count_tokens(a) + count_tokens(b)
        assert count_tokens(a) == len(a.split())


class TestResponseParsing:
    def test_entity_fixture_parses(self):
        raw = (FIXTURES / "entity_aggregation_response.json").read_text()
        result = parse_aggregate_entity_response(raw)
        assert result.name == "Renewable Power Conversion Systems"
        assert result.description
        assert len(result.findings) >= 5
        assert all("summary" in f and "explanation" in f for f in result.findings)

    def test_relation_fixture_parses(self):
        raw = (FIXTURES / "relation_summary_response.txt").read_text()
        sentence = parse_relation_summary_response(raw)
        assert sentence
        assert "\n" not in sentence

    def test_entity_bad_json(self):
        with pytest.raises(GenerationParseError):
            parse_aggregate_entity_response("not json at all")

    def test_entity_missing_field(self):
        with pytest.raises(GenerationParseError):
            parse_aggregate_entity_response(json.dumps({"entity_name": "A"}))

    def test_fenced_json_accepted(self):
        raw = "```json\n" + json.dumps(
            {"entity_name": "A", "entity_description": "d", "findings": []}
        ) + "\n```"
        assert parse_aggregate_entity_response(raw).name == "A"

    def test_relation_empty_rejected(self):
        with pytest.raises(GenerationParseError):
            parse_relation_summary_response("\n\n  \n")


class TestHttpProviders:
    def config(self, retries=2):
        return ProviderConfig(endpoint="http://test/api", max_retries=retries, backoff_seconds=0.0)

    def test_embedding_roundtrip_and_normalization(self):
        def post(url, payload, timeout):
            assert payload["texts"] == ["hello"]
            return {"vectors": [[3.0, 4.0]]}

        provider = HttpEmbeddingProvider(self.config(), post=post, sleep=lambda s: None)
        vec = provider.embed_batch(["hello"])[0]
        assert np.allclose(vec, [0.6, 0.8])

    def test_embedding_rows_are_the_normalized_vectors_exactly(self):
        rng = np.random.default_rng(5)
        raw = [rng.normal(size=12) * scale for scale in (1e-3, 1.0, 7.0, 1e4)]

        def post(url, payload, timeout):
            return {"vectors": [v.tolist() for v in raw]}

        provider = HttpEmbeddingProvider(self.config(), post=post, sleep=lambda s: None)
        batch = provider.embed_batch(["a", "b", "c", "d"])
        assert batch.shape == (4, 12) and batch.dtype == np.float64 and batch.flags.c_contiguous
        for row, v in zip(batch, raw):
            assert row.tobytes() == (v / np.linalg.norm(v)).tobytes()

    @pytest.mark.parametrize("vector", [[[1.0, 2.0], [3.0]], "abc", {"x": 1.0}])
    def test_non_numeric_vector_is_a_provider_error(self, vector):
        def post(url, payload, timeout):
            return {"vectors": [vector]}

        provider = HttpEmbeddingProvider(self.config(), post=post, sleep=lambda s: None)
        with pytest.raises(ProviderUnavailableError, match="not numeric"):
            provider.embed_batch(["hello"])

    @pytest.mark.parametrize("body", [[1, 2], "text", None], ids=["list", "string", "null"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda post, config: HttpEmbeddingProvider(config, post=post).embed_batch(["hello"]),
            lambda post, config: HttpGenerationProvider(config, post=post).generate_aggregate_relation(
                ("A", "da"), ("B", "db"), ["r1"]
            ),
        ],
        ids=["embedding", "generation"],
    )
    def test_body_not_an_object_is_a_provider_error(self, call, body):
        # such a body used to escape as AttributeError, which the CLI does not catch
        posts = []

        def post(url, payload, timeout):
            posts.append(payload)
            return body

        with pytest.raises(ProviderUnavailableError, match="not a JSON object"):
            call(post, self.config(retries=2))
        assert len(posts) == 1  # no retry

    def test_embedding_retries_then_fails(self):
        calls = []

        def post(url, payload, timeout):
            calls.append(1)
            raise ConnectionError("down")

        provider = HttpEmbeddingProvider(self.config(retries=2), post=post, sleep=lambda s: None)
        with pytest.raises(ProviderUnavailableError):
            provider.embed_batch(["hello"])
        assert len(calls) == 3

    @pytest.mark.parametrize(
        "failure, posts",
        [
            (ConnectionError("refused"), 3),
            (requests.ConnectionError("reset"), 3),
            (requests.Timeout("slow"), 3),
            (http_error(429), 3),
            (http_error(500), 3),
            (http_error(503), 3),
            (http_error(400), 1),
            (http_error(401), 1),
            (http_error(404), 1),
        ],
        ids=["builtin-connection", "connection", "timeout", "429", "500", "503", "400", "401", "404"],
    )
    def test_retries_only_what_a_retry_can_mend(self, failure, posts):
        calls, sleeps = [], []

        def post(url, payload, timeout):
            calls.append(payload)
            raise failure

        provider = HttpEmbeddingProvider(self.config(retries=2), post=post, sleep=sleeps.append)
        with pytest.raises(ProviderUnavailableError):
            provider.embed_batch(["hello"])
        assert len(calls) == posts and len(sleeps) == posts - 1

    def test_retry_after_transient_failure_succeeds(self):
        answers = iter([http_error(503), requests.ConnectionError("reset"), {"vectors": [[3.0, 4.0]]}])
        calls = []

        def post(url, payload, timeout):
            calls.append(payload)
            answer = next(answers)
            if isinstance(answer, Exception):
                raise answer
            return answer

        provider = HttpEmbeddingProvider(self.config(retries=2), post=post, sleep=lambda s: None)
        assert np.allclose(provider.embed_batch(["hello"])[0], [0.6, 0.8])
        assert len(calls) == 3

    def test_bug_in_post_propagates_without_retry(self):
        calls = []

        def post(url, payload, timeout):
            calls.append(payload)
            raise TypeError("post() takes 2 positional arguments but 3 were given")

        provider = HttpGenerationProvider(self.config(retries=2), post=post, sleep=lambda s: None)
        with pytest.raises(TypeError, match="positional arguments"):
            provider.generate_aggregate_relation(("A", "da"), ("B", "db"), ["r1"])
        assert len(calls) == 1

    def test_generation_replays_recorded_fixture(self):
        raw = (FIXTURES / "entity_aggregation_response.json").read_text()

        def post(url, payload, timeout):
            assert "concept-synthesis" in payload["prompt"]
            return {"text": raw}

        provider = HttpGenerationProvider(self.config(), post=post, sleep=lambda s: None)
        result = provider.generate_aggregate_entity([("Turbine", "spins"), ("Dynamo", "generates")], [])
        assert result.name == "Renewable Power Conversion Systems"
        assert len(result.findings) >= 5

    def test_generation_reprompts_once_on_parse_failure(self):
        answers = iter(["garbage", json.dumps({"entity_name": "G", "entity_description": "d", "findings": []})])

        def post(url, payload, timeout):
            return {"text": next(answers)}

        provider = HttpGenerationProvider(self.config(), post=post, sleep=lambda s: None)
        assert provider.generate_aggregate_entity([("A", "d")], []).name == "G"

    def test_relation_fixture_roundtrip(self):
        raw = (FIXTURES / "relation_summary_response.txt").read_text()

        def post(url, payload, timeout):
            return {"text": raw}

        provider = HttpGenerationProvider(self.config(), post=post, sleep=lambda s: None)
        sentence = provider.generate_aggregate_relation(("A", "da"), ("B", "db"), ["r1"])
        assert sentence.endswith(".")
        assert "\n" not in sentence


def test_provider_config_validation():
    with pytest.raises(InvalidArgumentError):
        ProviderConfig(max_retries=-1)


@pytest.mark.parametrize(
    "config",
    [
        {"provider": "http", "base_url": "http://test/api", "model": "m"},
        {"provider": "http", "endpoint": "http://test/api", "model": "m", "api_key": "k"},
        {"provider": "http", "endpoint": "", "model": "m"},
        {"provider": "http", "endpoint": "   "},
        {"provider": "http", "model": "m"},
    ],
)
def test_http_config_rejects_unknown_keys_and_empty_endpoint(config):
    for make in (make_embedding_provider, make_generation_provider):
        with pytest.raises(InvalidArgumentError):
            make(config)


@pytest.mark.parametrize(
    "make, config",
    [
        (make_embedding_provider, {"provider": "http", "endpoint": "http://test/api", "max_retries": "2"}),
        (make_generation_provider, {"provider": "http", "endpoint": "http://test/api", "timeout_seconds": "5"}),
        (make_embedding_provider, {"provider": "http", "endpoint": "http://test/api", "token_budget": True}),
        (make_embedding_provider, {"provider": "http", "endpoint": 7}),
        (make_embedding_provider, {"provider": "mock", "dim": "64"}),
        (make_embedding_provider, {"dim": 64.0}),
        (make_generation_provider, {"provider": "mock", "description_budget": True}),
        (make_embedding_provider, {"provider": "mock", "dimension": 64}),
        (make_embedding_provider, {"provider": "mock", "description_budget": 10}),
        (make_generation_provider, {"provider": "mock", "description_budget": -1}),
        (make_generation_provider, {"provider": "mock", "description_budget": 0}),
        (make_generation_provider, {"provider": "mock", "description_budget": "10"}),
        (make_generation_provider, {"provider": "mock", "dim": 64}),
    ],
)
def test_provider_block_keys_and_types(make, config):
    # a string where an int belongs used to raise TypeError, a misspelt mock
    # key was ignored, and description_budget -1 dropped each description's last word
    with pytest.raises(InvalidArgumentError):
        make(config)


def test_mock_blocks_read_their_keys():
    assert make_embedding_provider({"provider": "mock", "dim": 64}).dim == 64
    assert make_embedding_provider({}).dim == MOCK_EMBEDDING_DIM
    assert make_generation_provider({"description_budget": 3}).description_budget == 3
    config = {"provider": "http", "endpoint": "http://test/api", "timeout_seconds": 5}  # an int for a float
    assert make_embedding_provider(config).config.timeout_seconds == 5


def test_http_config_reads_every_documented_key():
    config = {
        "provider": "http", "endpoint": "http://test/api", "model": "m", "max_retries": 0,
        "backoff_seconds": 0.1, "timeout_seconds": 5.0, "token_budget": 100,
    }
    expected = ProviderConfig(
        endpoint="http://test/api", model="m", max_retries=0, backoff_seconds=0.1,
        timeout_seconds=5.0, token_budget=100,
    )
    assert make_embedding_provider(config).config == expected
    assert make_generation_provider(config).config == expected


def test_readme_provider_config_is_accepted():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = next(b for b in re.findall(r"```json\n(.*?)```", readme, re.S) if '"embedding"' in b)
    config = json.loads(block)
    assert isinstance(make_embedding_provider(config["embedding"]), HttpEmbeddingProvider)
    assert isinstance(make_generation_provider(config["generation"]), HttpGenerationProvider)


@pytest.mark.parametrize(
    "key, value",
    [
        ("token_budget", 0), ("token_budget", -1), ("backoff_seconds", -1.0), ("backoff_seconds", float("nan")),
        ("timeout_seconds", 0), ("timeout_seconds", -5.0), ("timeout_seconds", float("nan")),
    ],
)
def test_http_settings_out_of_range_are_usage_errors(monkeypatch, key, value):
    # token_budget -1 made truncate_tokens drop the last word of every text and
    # prompt sent, and backoff_seconds -1.0 made the first retry's sleep raise ValueError
    posts = []
    monkeypatch.setattr("hierkg.providers._default_post", lambda *args: posts.append(args))
    for make in (make_embedding_provider, make_generation_provider):
        with pytest.raises(InvalidArgumentError, match=key):
            make({"provider": "http", "endpoint": "http://test/api", key: value})
    with pytest.raises(InvalidArgumentError, match=key):
        HttpEmbeddingProvider(ProviderConfig(endpoint="http://test/api", **{key: value}), post=posts.append, sleep=posts.append)
    assert posts == []


def test_http_settings_at_their_bounds_are_used():
    sent, sleeps = [], []

    def post(url, payload, timeout):
        sent.append((payload["texts"], timeout))
        if len(sent) == 1:
            raise requests.ConnectionError("reset")
        return {"vectors": [[3.0, 4.0]]}

    config = ProviderConfig(endpoint="http://test/api", max_retries=1, backoff_seconds=0, timeout_seconds=0.5, token_budget=1)
    vec = HttpEmbeddingProvider(config, post=post, sleep=sleeps.append).embed_batch(["hello world"])[0]
    assert np.allclose(vec, [0.6, 0.8])
    assert sent == [(["hello"], 0.5)] * 2 and sleeps == [0]
