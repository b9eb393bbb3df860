import json
import re
from pathlib import Path

import numpy as np
import pytest
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


class TestMockEmbedding:
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
        split = provider.embed_batch(texts[:1]) + provider.embed_batch(texts[1:])
        for a, b in zip(whole, split):
            assert np.array_equal(a, b)


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
