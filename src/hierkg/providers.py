"""Embedding and generation providers.

Two implementations of each contract: deterministic offline mocks (pure
functions, no network) and HTTP clients speaking a minimal JSON protocol
(POST {"texts": [...]} -> {"vectors": [[...]]} for embeddings,
POST {"prompt": ...} -> {"text": ...} for generation). The mocks are what
every test and the acceptance suite run against.

embed_batch(texts) returns one C-contiguous (len(texts), d) float64
array, row i the L2-normalized vector of texts[i]. Each provider writes
its vectors into that array as it makes them, so a batch is held once:
the build keeps the array as the layer's matrix without copying it.
"""

from __future__ import annotations

import json
import re
import time
import zlib
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    GenerationParseError,
    InvalidArgumentError,
    ProviderUnavailableError,
)
from .prompts import render_entity_aggregation_prompt, render_relation_summary_prompt

MOCK_EMBEDDING_DIM = 256


def count_tokens(text: str) -> int:
    """Whitespace token count, the engine-wide tokenizer.

    Additive over whitespace-joined concatenation: count_tokens(a + sep + b)
    == count_tokens(a) + count_tokens(b) for any whitespace sep. The context
    module relies on it: it counts each line's tokens from the split that
    renders the line, and a section's count is its header's plus its lines'.
    """
    return len(text.split())


def truncate_tokens(text: str, budget: int) -> str:
    return " ".join(text.split()[:budget])


@dataclass
class ProviderConfig:
    endpoint: str = ""
    model: str = ""
    max_retries: int = 2
    backoff_seconds: float = 0.5
    timeout_seconds: float = 30.0
    token_budget: int = 2000

    def __post_init__(self):
        if self.max_retries < 0:
            raise InvalidArgumentError("max_retries must be >= 0")
        if self.token_budget < 1:
            raise InvalidArgumentError("token_budget must be >= 1")
        # a NaN, which json.loads reads from the literal NaN, fails these too
        if not self.backoff_seconds >= 0:
            raise InvalidArgumentError("backoff_seconds must be >= 0")
        if not self.timeout_seconds > 0:
            raise InvalidArgumentError("timeout_seconds must be > 0")


@dataclass
class AggregateEntityResult:
    name: str
    description: str
    findings: list[dict] = field(default_factory=list)


class MockEmbeddingProvider:
    """Hashes lowercased character 3-grams into a fixed bag-of-features
    vector, then L2-normalizes. Deterministic across runs and platforms;
    cosine similarity correlates with surface overlap, which is all the
    pipeline tests need."""

    def __init__(self, dim: int = MOCK_EMBEDDING_DIM):
        if dim < 8:
            raise InvalidArgumentError("dim too small for trigram hashing")
        self.dim = dim

    def embed_batch(self, texts: list[str]) -> np.ndarray:
        if not texts:
            raise InvalidArgumentError("embed_batch requires at least one text")
        out = np.empty((len(texts), self.dim))
        for i, text in enumerate(texts):
            if not text.strip():
                raise InvalidArgumentError("cannot embed empty text")
            out[i] = self._embed_one(text)
        return out

    def _embed_one(self, text: str) -> np.ndarray:
        t = text.lower()
        grams = [t] if len(t) < 3 else [t[i : i + 3] for i in range(len(t) - 2)]
        # every text has at least one gram, so the counts are never all zero
        v = np.bincount([zlib.crc32(g.encode("utf-8")) % self.dim for g in grams], minlength=self.dim).astype(np.float64)
        return v / np.linalg.norm(v)


class MockGenerationProvider:
    """Template-based deterministic stand-in for the aggregation LLM.

    Name rule: join the first two member names with "+" and append
    " Group", which can never collide with a member name. Description is
    the token-budget-truncated concatenation of member descriptions.
    """

    def __init__(self, description_budget: int = 60):
        if description_budget < 1:
            raise InvalidArgumentError("description_budget must be >= 1")
        self.description_budget = description_budget

    def generate_aggregate_entity(
        self,
        cluster_entities: list[tuple[str, str]],
        intra_relations: list[str],
    ) -> AggregateEntityResult:
        if not cluster_entities:
            raise InvalidArgumentError("cluster must contain at least one entity")
        names = [name for name, _ in cluster_entities]
        name = "+".join(names[:2]) + " Group"
        description = truncate_tokens(
            " ".join(desc for _, desc in cluster_entities), self.description_budget
        )
        return AggregateEntityResult(name=name, description=description, findings=[])

    def generate_aggregate_relation(
        self,
        a: tuple[str, str],
        b: tuple[str, str],
        cross_relations: list[str],
    ) -> str:
        if not cross_relations:
            raise InvalidArgumentError("cross_relations must be non-empty")
        return f"{a[0]} relates to {b[0]} via {len(cross_relations)} underlying relations."


def parse_aggregate_entity_response(raw: str) -> AggregateEntityResult:
    """Strict parse of the JSON payload the entity-aggregation prompt demands."""
    text = raw.strip()
    fence = re.match(r"^```(?:json)?\s*(.*?)\s*```$", text, re.DOTALL)
    if fence:
        text = fence.group(1)
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GenerationParseError(f"not valid JSON: {exc}", raw_text=raw)
    if not isinstance(payload, dict):
        raise GenerationParseError("payload is not a JSON object", raw_text=raw)
    name = payload.get("entity_name")
    description = payload.get("entity_description")
    findings = payload.get("findings", [])
    if not isinstance(name, str) or not name.strip():
        raise GenerationParseError("missing or empty entity_name", raw_text=raw)
    if not isinstance(description, str) or not description.strip():
        raise GenerationParseError("missing or empty entity_description", raw_text=raw)
    if not isinstance(findings, list) or any(
        not (isinstance(f, dict) and "summary" in f and "explanation" in f) for f in findings
    ):
        raise GenerationParseError("findings must be a list of summary/explanation objects", raw_text=raw)
    return AggregateEntityResult(name=name.strip(), description=description.strip(), findings=findings)


def parse_relation_summary_response(raw: str) -> str:
    """First non-empty line of the response, required to be a sentence."""
    for line in raw.splitlines():
        line = line.strip()
        if line:
            return line
    raise GenerationParseError("empty relation summary", raw_text=raw)


def _default_post(url: str, payload: dict, timeout: float) -> dict:
    import requests

    resp = requests.post(url, json=payload, timeout=timeout)
    resp.raise_for_status()
    return resp.json()


def _http_status(exc: OSError) -> int | None:
    """The HTTP status of a failed request (requests.HTTPError carries its
    response), or None for a failure with no response, such as a refused
    connection or a timeout."""
    return getattr(getattr(exc, "response", None), "status_code", None)


class _RetryingHttpClient:
    def __init__(self, config: ProviderConfig, post=None, sleep=time.sleep):
        self.config = config
        self._post = post or _default_post
        self._sleep = sleep

    def call(self, payload: dict) -> dict:
        """The response body, which must be a JSON object.

        Only what a retry can mend is retried, with backoff: an OSError
        (requests' exceptions are OSErrors) without a response, or with
        HTTP status 429 or 5xx. Any other 4xx, and a body that is not a
        JSON object, is a ProviderUnavailableError raised without a retry.
        Any other exception propagates.
        """
        last_error: Exception | None = None
        for attempt in range(self.config.max_retries + 1):
            try:
                body = self._post(self.config.endpoint, payload, self.config.timeout_seconds)
            except OSError as exc:
                status = _http_status(exc)
                if status is not None and 400 <= status < 500 and status != 429:
                    raise ProviderUnavailableError(f"{self.config.endpoint} refused the request: {exc}") from None
                last_error = exc
                if attempt < self.config.max_retries:
                    self._sleep(self.config.backoff_seconds * (2**attempt))
                continue
            if not isinstance(body, dict):
                raise ProviderUnavailableError(f"{self.config.endpoint} returned {type(body).__name__}, not a JSON object")
            return body
        raise ProviderUnavailableError(
            f"{self.config.endpoint} failed after {self.config.max_retries + 1} attempts: {last_error}"
        )


class HttpEmbeddingProvider:
    """Embedding client for the POST {texts} -> {vectors} protocol.

    Returned vectors are L2-normalized before being handed to callers so
    every stored vector in an index is unit-length regardless of backend.
    """

    def __init__(self, config: ProviderConfig, post=None, sleep=time.sleep):
        self.config = config
        self._client = _RetryingHttpClient(config, post=post, sleep=sleep)

    def embed_batch(self, texts: list[str]) -> np.ndarray:
        if not texts:
            raise InvalidArgumentError("embed_batch requires at least one text")
        for text in texts:
            if not text.strip():
                raise InvalidArgumentError("cannot embed empty text")
        capped = [truncate_tokens(t, self.config.token_budget) for t in texts]
        body = self._client.call({"texts": capped, "model": self.config.model})
        vectors = body.get("vectors")
        if not isinstance(vectors, list) or len(vectors) != len(texts):
            raise ProviderUnavailableError("embedding response missing vectors")
        out = None  # (len(texts), d), made once the first vector gives d
        for i, vec in enumerate(vectors):
            try:
                arr = np.asarray(vec, dtype=np.float64)
            except (TypeError, ValueError):  # not numbers, or nested lists of uneven length
                raise ProviderUnavailableError("embedding response contains a vector that is not numeric") from None
            if arr.ndim != 1 or (out is not None and arr.shape != out.shape[1:]):
                raise ProviderUnavailableError(f"embedding response contains a vector of shape {arr.shape}")
            norm = np.linalg.norm(arr)
            if norm == 0.0 or not np.isfinite(norm):
                raise ProviderUnavailableError("embedding response contains a degenerate vector")
            if out is None:
                out = np.empty((len(vectors), len(arr)))
            out[i] = arr / norm
        return out


class HttpGenerationProvider:
    """Generation client: renders the aggregation prompts, posts them, and
    strictly parses the reply. One reprompt retry on a parse failure."""

    def __init__(self, config: ProviderConfig, post=None, sleep=time.sleep):
        self.config = config
        self._client = _RetryingHttpClient(config, post=post, sleep=sleep)

    def _generate(self, prompt: str) -> str:
        body = self._client.call({"prompt": prompt, "model": self.config.model})
        text = body.get("text")
        if not isinstance(text, str):
            raise ProviderUnavailableError("generation response missing text")
        return text

    def generate_aggregate_entity(
        self,
        cluster_entities: list[tuple[str, str]],
        intra_relations: list[str],
    ) -> AggregateEntityResult:
        if not cluster_entities:
            raise InvalidArgumentError("cluster must contain at least one entity")
        prompt = render_entity_aggregation_prompt(cluster_entities, intra_relations)
        prompt = truncate_tokens(prompt, self.config.token_budget)
        raw = self._generate(prompt)
        try:
            result = parse_aggregate_entity_response(raw)
        except GenerationParseError:
            raw = self._generate(prompt)  # one reprompt on schema failure
            result = parse_aggregate_entity_response(raw)
        member_names = {name for name, _ in cluster_entities}
        if result.name in member_names:
            result.name = result.name + " Group"
        return result

    def generate_aggregate_relation(
        self,
        a: tuple[str, str],
        b: tuple[str, str],
        cross_relations: list[str],
    ) -> str:
        if not cross_relations:
            raise InvalidArgumentError("cross_relations must be non-empty")
        prompt = render_relation_summary_prompt(a, b, cross_relations)
        prompt = truncate_tokens(prompt, self.config.token_budget)
        raw = self._generate(prompt)
        try:
            return parse_relation_summary_response(raw)
        except GenerationParseError:
            raw = self._generate(prompt)
            return parse_relation_summary_response(raw)


def make_embedding_provider(config: dict) -> object:
    kind = config.get("provider", "mock")
    if kind == "mock":
        return MockEmbeddingProvider(**_settings(config, "mock embedding", {"dim": int}))
    if kind == "http":
        return HttpEmbeddingProvider(_provider_config(config))
    raise InvalidArgumentError(f"unknown embedding provider: {kind}")


def make_generation_provider(config: dict) -> object:
    kind = config.get("provider", "mock")
    if kind == "mock":
        return MockGenerationProvider(**_settings(config, "mock generation", {"description_budget": int}))
    if kind == "http":
        return HttpGenerationProvider(_provider_config(config))
    raise InvalidArgumentError(f"unknown generation provider: {kind}")


def _settings(config: dict, kind: str, types: dict[str, type]) -> dict:
    """A provider block's keys other than "provider", each of which must be
    named in types and have its type there (a float setting takes an int
    too, no setting a bool); such a config would fail later or be ignored."""
    settings = {k: v for k, v in config.items() if k != "provider"}
    unknown = sorted(settings.keys() - types.keys())
    if unknown:
        raise InvalidArgumentError(f"unknown {kind} provider keys {unknown}; expected provider, {', '.join(sorted(types))}")
    for key, value in settings.items():
        expected = (int, float) if types[key] is float else types[key]
        if isinstance(value, bool) or not isinstance(value, expected):
            raise InvalidArgumentError(f"{kind} provider key {key!r} must be a {types[key].__name__}, got {value!r:.40}")
    return settings


def _provider_config(config: dict) -> ProviderConfig:
    """The ProviderConfig of an http provider's JSON block.

    Its keys are "provider" and the ProviderConfig fields, each of the
    type of the field's default (_settings); a missing or empty endpoint
    is a usage error too.
    """
    settings = _settings(config, "http", {f.name: type(f.default) for f in fields(ProviderConfig)})
    if not settings.get("endpoint", "").strip():
        raise InvalidArgumentError("http provider needs a non-empty endpoint")
    return ProviderConfig(**settings)
