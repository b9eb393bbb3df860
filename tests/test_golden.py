"""Pinned outputs: the index hash, the layer sizes and the query outputs of two fixed builds.

Every other test checks that hierkg agrees with itself within one process;
these pin what it produced when they were written, so a change that moves
any partition or any rendered bundle fails here even if it is
deterministic. A change that alters outputs on purpose updates the pins in
the same commit and records old -> new.

Partitions come from BLAS products, so another CPU or numpy build may read
other values. That is a finding about determinism, not a reason to loosen
a pin.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random

import pytest

from hierkg.cli import EXIT_OK, main

from helpers import WORDS, make_layer0, topical_corpus, write_ingest_jsonl

N_QUERIES = 20


def _topical(seed: int):
    entities, relations, chunks, queries = topical_corpus(random.Random(seed), n_topics=10, entities_per_topic=30)
    return entities, relations, chunks, queries[:N_QUERIES]


def _sparse(seed: int):
    rng = random.Random(seed)
    entities, relations, chunks = make_layer0(rng, 300, avg_degree=3.0)
    queries = [" ".join(rng.choice(WORDS) for _ in range(6)) for _ in range(N_QUERIES)]
    return entities, relations, chunks, queries


CORPORA = {"topical": (_topical, 11), "sparse": (_sparse, 12)}

PINS = {
    "topical": {
        "content_hash": "6af9c4caa24a92be497d8a712a43efaab5ecdd9f00539e96d6c92072f9158fbe",
        "layer_entity_counts": [300, 25, 2],
        "query_sha256": "4788d033e1691e23b7158aef0376f5b89eb51010be841513a150fce7ecd3d1f2",
        "flat_sha256": "a89ae636af9fa8995373e4b2fc10804593e599d790c5a32ace35d3b6eaff8d88",
        "bench_sha256": "20f4700ef9fed30f02a16998118dad40e01533f6c1d1a2ce95ebcb51c05bd275",
    },
    "sparse": {
        "content_hash": "e82218691c1c1bea358748e2e1c65c95078c85db79535c23ce0d849b42c4c878",
        "layer_entity_counts": [300, 27, 2],
        "query_sha256": "e31dfae27f3e160c6c50790664a210026599db42b1bafa748d9020311c42bd33",
        "flat_sha256": "06d4852e54561e062155c01cdaa12eea89e37e383941088cc314404ea4d7f4d6",
        "bench_sha256": "45703130ed0c0c5f49f2e6312d9a4698feddf46f9016da84a1594b631082b8f7",
    },
}


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == EXIT_OK, argv
    return out.getvalue()


def _sha256(texts) -> str:
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode("utf-8"))
    return digest.hexdigest()


@pytest.fixture(scope="module", params=sorted(CORPORA))
def golden(request, tmp_path_factory):
    """One corpus built at its fixed seed, with its outputs read through the CLI."""
    name = request.param
    make, seed = CORPORA[name]
    entities, relations, chunks, queries = make(seed)
    work = tmp_path_factory.mktemp(name)
    write_ingest_jsonl(work / "corpus.jsonl", entities, relations, chunks)
    index = str(work / "index")
    build = json.loads(_run(["build", "--input", str(work / "corpus.jsonl"), "--out", index, "--seed", "0"]))
    (work / "queries.txt").write_text("\n".join(queries) + "\n", encoding="utf-8")
    observed = {
        "content_hash": build["manifest"]["content_hash"],
        "layer_entity_counts": build["build"]["layer_entity_counts"],
        "query_sha256": _sha256(_run(["query", "--index", index, "--query", q]) for q in queries),
        "flat_sha256": _sha256(
            _run(["query", "--index", index, "--query", q, "--baseline", "flat"]) for q in queries
        ),
        "bench_sha256": _sha256([_run(["bench", "--index", index, "--queries", str(work / "queries.txt")])]),
    }
    return name, observed, work


@pytest.mark.parametrize("key", ["content_hash", "layer_entity_counts", "query_sha256", "flat_sha256", "bench_sha256"])
def test_output_matches_pin(golden, key):
    name, observed, _ = golden
    assert observed[key] == PINS[name][key]


def test_workers_build_the_same_index(golden):
    # the README: with deterministic providers the index is the same for every --workers n
    _, observed, work = golden
    argv = ["build", "--input", str(work / "corpus.jsonl"), "--out", str(work / "index-4"), "--seed", "0", "--workers", "4"]
    assert json.loads(_run(argv))["manifest"]["content_hash"] == observed["content_hash"]
