"""Embedding and generation providers.

Two implementations of each contract: deterministic offline mocks (pure
functions, no network) and HTTP clients speaking a minimal JSON protocol
(POST {"texts": [...]} -> {"vectors": [[...]]} for embeddings,
POST {"prompt": ...} -> {"text": ...} for generation). The mocks are what
every test and the acceptance suite run against.
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

    Additive over separator-joined concatenation, which the context module
    relies on for per-section accounting.
    """
    return len(text.split())


def truncate_tokens(text: str, budget: int) -> str:
    words = text.split()
    if len(words) <= budget:
        return " ".join(words)
    return " ".join(words[:budget])


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

    def embed_batch(self, texts: list[str]) -> list[np.ndarray]:
        if not texts:
            raise InvalidArgumentError("embed_batch requires at least one text")
        out = []
        for text in texts:
            if not text.strip():
                raise InvalidArgumentError("cannot embed empty text")
            out.append(self._embed_one(text))
        return out

    def _embed_one(self, text: str) -> np.ndarray:
        t = text.lower()
        v = np.zeros(self.dim, dtype=np.float64)
        if len(t) < 3:
            v[zlib.crc32(t.encode("utf-8")) % self.dim] = 1.0
        else:
            for i in range(len(t) - 2):
                tri = t[i : i + 3]
                v[zlib.crc32(tri.encode("utf-8")) % self.dim] += 1.0
        norm = np.linalg.norm(v)
        if norm == 0.0:
            v[0] = 1.0
            norm = 1.0
        return v / norm


class MockGenerationProvider:
    """Template-based deterministic stand-in for the aggregation LLM.

    Name rule: join the first two member names with "+" and append
    " Group", which can never collide with a member name. Description is
    the token-budget-truncated concatenation of member descriptions.
    """

    def __init__(self, description_budget: int = 60):
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


class _RetryingHttpClient:
    def __init__(self, config: ProviderConfig, post=None, sleep=time.sleep):
        self.config = config
        self._post = post or _default_post
        self._sleep = sleep

    def call(self, payload: dict) -> dict:
        """The response body, which must be a JSON object; a body of any
        other type is a ProviderUnavailableError, raised without a retry."""
        last_error: Exception | None = None
        for attempt in range(self.config.max_retries + 1):
            try:
                body = self._post(self.config.endpoint, payload, self.config.timeout_seconds)
            except Exception as exc:  # transport-level failure, retry with backoff
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

    def embed_batch(self, texts: list[str]) -> list[np.ndarray]:
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
        out = []
        for vec in vectors:
            try:
                arr = np.asarray(vec, dtype=np.float64)
            except (TypeError, ValueError):  # not numbers, or nested lists of uneven length
                raise ProviderUnavailableError("embedding response contains a vector that is not numeric") from None
            if arr.ndim != 1 or (out and arr.shape != out[0].shape):
                raise ProviderUnavailableError(f"embedding response contains a vector of shape {arr.shape}")
            norm = np.linalg.norm(arr)
            if norm == 0.0 or not np.isfinite(norm):
                raise ProviderUnavailableError("embedding response contains a degenerate vector")
            out.append(arr / norm)
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
        return MockEmbeddingProvider(dim=config.get("dim", MOCK_EMBEDDING_DIM))
    if kind == "http":
        return HttpEmbeddingProvider(_provider_config(config))
    raise InvalidArgumentError(f"unknown embedding provider: {kind}")


def make_generation_provider(config: dict) -> object:
    kind = config.get("provider", "mock")
    if kind == "mock":
        return MockGenerationProvider(description_budget=config.get("description_budget", 60))
    if kind == "http":
        return HttpGenerationProvider(_provider_config(config))
    raise InvalidArgumentError(f"unknown generation provider: {kind}")


def _provider_config(config: dict) -> ProviderConfig:
    """The ProviderConfig of an http provider's JSON block.

    Keys other than "provider" and the ProviderConfig fields, and a missing
    or empty endpoint, are usage errors: such a config could only fail
    later, after every retry.
    """
    settings = {k: v for k, v in config.items() if k != "provider"}
    known = {f.name for f in fields(ProviderConfig)}
    unknown = sorted(set(settings) - known)
    if unknown:
        raise InvalidArgumentError(
            f"unknown http provider keys {unknown}; expected provider, {', '.join(sorted(known))}"
        )
    endpoint = settings.get("endpoint")
    if not isinstance(endpoint, str) or not endpoint.strip():
        raise InvalidArgumentError("http provider needs a non-empty endpoint")
    return ProviderConfig(**settings)
