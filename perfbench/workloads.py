"""The benchmark's workloads, their operations and the metrics they report.

A run is one process and one client in a closed loop: each operation
starts when the previous one has ended. Every workload passes through
the same phases on its own corpus:

    build  ingest -> build_hierarchy -> validate_hierarchy -> save_index
    load   load_index
    query  retrieve + assemble_context (lean), then
           flat_path_retrieve + assemble_context (flat), on distinct queries
    cli    `hierkg query --index DIR --query Q` through cli.main, in-process

On build-2k one build runs first; on the query workloads the build
happens once, during set-up. Then rounds run for `--seconds` (at least
one round). A round is a fixed mix of loads,
queries and CLI calls, so every end-to-end metric exists on every
workload, each metric samples the whole measured window rather than one
stretch of it, and every run attempts whole rounds. Checks run outside
the timed regions; an operation whose checks fail counts as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from hierkg import aggregation, cli, context, model, providers, retrieval, store

import corpora
import oracles
from spans import Tracer, self_times

TOP_N, TOP_C, MAX_HOPS = 10, 5, 4
SETUP_REPEATS = 3  # set-ups cheap enough to repeat (corpus generation only)
MAX_LAYER = 3  # BuildParams().max_layers - 1: the highest layer a build can add

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "build_s": "s",
    "index_bytes": "bytes",
    "load_s": "s",
    "query_ms_p50": "ms",
    "query_ms_p95": "ms",
    "flat_ms_p50": "ms",
    "context_tokens_mean": "tokens",
    "token_ratio_mean": "ratio",
    "cold_query_ms_p50": "ms",
    "cold_query_ms_p95": "ms",
}


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: Callable[[int], list[dict]]
    queries: Callable[[int], Iterator[str]]
    primary: str  # "build", "query" or "cli": the operation the workload stresses
    mix: tuple[int, int, int]  # loads, queries and CLI calls in one round
    max_token_ratio: float | None = None  # the paper's redundancy bound, topical corpora only


WORKLOADS = {
    w.name: w
    for w in [
        Workload("build-2k", corpora.random_sparse, corpora.sparse_queries, "build", (1, 2, 1)),
        Workload("query-topical-2k", corpora.topical, corpora.topical_queries, "query", (1, 4, 1), max_token_ratio=0.70),
        Workload(
            "cli-query-1k", lambda seed: corpora.topical(seed, per_topic=100), corpora.topical_queries, "cli", (1, 2, 4)
        ),
    ]
}


class CountingGenerator:
    """Counts the generation calls a build makes, for the call-count check."""

    def __init__(self, inner):
        self.inner = inner
        self.entity_calls = 0
        self.relation_calls = 0

    def generate_aggregate_entity(self, *args, **kwargs):
        self.entity_calls += 1
        return self.inner.generate_aggregate_entity(*args, **kwargs)

    def generate_aggregate_relation(self, *args, **kwargs):
        self.relation_calls += 1
        return self.inner.generate_aggregate_relation(*args, **kwargs)


@dataclass
class Index:
    """A loaded index plus what the checks derive from it once."""

    directory: Path
    h: object
    embeddings: dict
    chunks: dict
    adjacency: dict


def _p95(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[-1]


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir())


class Run:
    def __init__(self, workload: Workload, seed: int, seconds: float, workdir: Path, tracer: Tracer | None):
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.tracer = tracer
        self.queries = workload.queries(seed)
        self.embed = providers.MockEmbeddingProvider()
        self.oracle_embed = providers.MockEmbeddingProvider()
        self.attempted = 0
        self.failed = 0
        self.kind_of: dict[int, str] = {}  # operation id -> phase, for span attribution
        self.samples: dict[str, list] = defaultdict(list)
        self.index: Index | None = None
        self.index_dir: Path | None = None
        self.builds = 0

    # -- operation plumbing -------------------------------------------------

    def _mark(self, op: int) -> None:
        if self.tracer is not None:
            self.tracer.op = op

    def _op(self, kind: str, timed: Callable[[int], object], check: Callable[[object], list[str]]):
        """Run timed(op_id), then check(result) with spans attributed to no op."""
        self.attempted += 1
        op = self.attempted
        self.kind_of[op] = kind
        result, problems = None, []
        try:
            self._mark(op)
            result = timed(op)
            self._mark(0)  # the checks' own calls belong to no operation
            problems = check(result)
        except Exception as exc:  # one failed operation must not end the run
            traceback.print_exc(file=sys.stderr)
            problems = [f"raised {exc!r}"]
        finally:
            self._mark(0)
        if problems:
            self.failed += 1
            print(f"{self.wl.name}: {kind} operation {op} failed: {problems[:3]}", file=sys.stderr)
            return None
        return result

    def _repeat(self, step: Callable[[], None]) -> None:
        """step() for --seconds, at least once."""
        start = time.perf_counter()
        step()
        while time.perf_counter() - start < self.seconds:
            step()

    # -- operations -----------------------------------------------------------

    def build(self, jsonl: Path) -> None:
        self.builds += 1
        out = self.workdir / f"index{self.builds}"
        params = model.BuildParams(seed=0)
        gen = CountingGenerator(providers.MockGenerationProvider())

        def timed(op):
            t0 = time.perf_counter()
            entities, relations, chunks, _ = store.ingest(jsonl)
            h, embeddings, _ = aggregation.build_hierarchy(
                entities, relations, params, providers.MockEmbeddingProvider(), gen
            )
            violations = model.validate_hierarchy(h)
            store.save_index(h, embeddings, chunks, out)
            return time.perf_counter() - t0, h, embeddings, violations

        def check(res):
            _, h, embeddings, violations = res
            problems = [f"validate_hierarchy: {v}" for v in violations[:3]]
            problems += oracles.build_problems(h, params, gen.entity_calls, gen.relation_calls)
            h2, emb2, _, _ = store.load_index(out)
            return problems + oracles.roundtrip_problems((h, embeddings), (h2, emb2))

        res = self._op("build", timed, check)
        if res is not None:
            self.samples["build_s"].append(res[0])
            self.samples["index_bytes"].append(_dir_bytes(out))
            self.index_dir = out

    def load(self) -> None:
        directory = self.index_dir

        def timed(op):
            t0 = time.perf_counter()
            h, embeddings, chunks, _ = store.load_index(directory)
            return time.perf_counter() - t0, h, embeddings, chunks

        def check(res):
            _, h, embeddings, chunks = res
            return [] if len(embeddings) == len(h.entities) and h.layers else ["loaded index is incomplete"]

        res = self._op("load", timed, check)
        if res is not None:
            self.samples["load_s"].append(res[0])
            if self.index is None or self.index.directory != directory:
                _, h, embeddings, chunks = res
                self.index = Index(directory, h, embeddings, chunks, oracles.layer0_adjacency(h))

    def query(self) -> None:
        ix, q = self.index, next(self.queries)

        def timed(op):
            t0 = time.perf_counter()
            seeds, sub = retrieval.retrieve(ix.h, ix.embeddings, q, TOP_N, self.embed)
            lean = context.assemble_context(ix.h, sub, seeds, ix.chunks, top_c=TOP_C)
            t1 = time.perf_counter()
            self._mark(-op)  # the flat half of the operation
            flat_sub = retrieval.flat_path_retrieve(ix.h, seeds, max_hops=MAX_HOPS)
            flat = context.assemble_context(ix.h, flat_sub, seeds, ix.chunks, top_c=TOP_C)
            t2 = time.perf_counter()
            return t1 - t0, t2 - t1, seeds, sub, lean, flat_sub, flat

        def check(res):
            _, _, seeds, sub, lean, flat_sub, flat = res
            qvec = self.oracle_embed.embed_batch([q])[0]
            ids = seeds.entity_ids
            problems = oracles.seed_problems(ix.h, ix.embeddings, qvec, TOP_N, seeds.entries)
            problems += oracles.lean_problems(ix.h, ids, sub)
            problems += oracles.flat_problems(ix.adjacency, ids, MAX_HOPS, flat_sub)
            problems += oracles.bundle_problems(ix.h, ids, ix.chunks, TOP_C, lean)
            return problems + oracles.bundle_problems(ix.h, ids, ix.chunks, TOP_C, flat)

        res = self._op("query", timed, check)
        if res is not None:
            lean_s, flat_s, _, _, lean, _, flat = res
            self.samples["query_ms"].append(lean_s * 1e3)
            self.samples["flat_ms"].append(flat_s * 1e3)
            self.samples["tokens"].append(lean.total_tokens)
            self.samples["ratio"].append(lean.total_tokens / flat.total_tokens)

    def cli_query(self) -> None:
        ix, q = self.index, next(self.queries)
        argv = ["query", "--index", str(ix.directory), "--query", q, "--top-n", str(TOP_N), "--top-c", str(TOP_C)]

        def timed(op):
            out = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            return time.perf_counter() - t0, code, out.getvalue()

        def check(res):
            _, code, stdout = res
            if code != 0:
                return [f"exit code {code}"]
            payload = json.loads(stdout)
            entries = [(e["entity_id"], e["score"]) for e in payload["seeds"]["entries"]]
            qvec = self.oracle_embed.embed_batch([q])[0]
            return oracles.seed_problems(ix.h, ix.embeddings, qvec, TOP_N, entries)

        res = self._op("cli", timed, check)
        if res is not None:
            self.samples["cold_query_ms"].append(res[0] * 1e3)
            self.samples["tokens"].append(json.loads(res[2])["bundle"]["token_counts"]["total"])

    # -- phases -----------------------------------------------------------------

    def setup(self) -> float:
        """Generate the corpus (and, for the query workloads, build the index);
        returns the set-up time."""
        jsonl = self.workdir / "corpus.jsonl"
        times = []
        for _ in range(SETUP_REPEATS if self.wl.primary == "build" else 1):
            t0 = time.perf_counter()
            corpora.write_jsonl(self.wl.corpus(self.seed), jsonl)
            if self.wl.primary != "build":
                self.build(jsonl)
                if not self.samples["build_s"]:
                    raise RuntimeError(f"{self.wl.name}: the set-up build failed")
            times.append(time.perf_counter() - t0)
        self.jsonl = jsonl
        return statistics.median(times)

    def measure(self) -> dict:
        """One pass over every phase; returns this pass's samples."""
        self.samples = defaultdict(list)
        if self.wl.primary == "build":
            # one build per pass: a later build in the same process runs in
            # another allocator state and can take half the time
            self.build(self.jsonl)
        loads, queries, clis = self.wl.mix

        def round_():
            for op, n in ((self.load, loads), (self.query, queries), (self.cli_query, clis)):
                for _ in range(n):
                    op()

        self._repeat(round_)
        return self.samples


def end_to_end(samples: dict, setup_s: float, setup_samples: dict) -> dict:
    build_s = samples["build_s"] or setup_samples["build_s"]
    index_bytes = samples["index_bytes"] or setup_samples["index_bytes"]
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "build_s": statistics.median(build_s),
        "index_bytes": index_bytes[-1],
        "load_s": statistics.median(samples["load_s"]),
        "query_ms_p50": statistics.median(samples["query_ms"]),
        "query_ms_p95": _p95(samples["query_ms"]),
        "flat_ms_p50": statistics.median(samples["flat_ms"]),
        "context_tokens_mean": statistics.fmean(samples["tokens"]),
        "token_ratio_mean": statistics.fmean(samples["ratio"]),
        "cold_query_ms_p50": statistics.median(samples["cold_query_ms"]),
        "cold_query_ms_p95": _p95(samples["cold_query_ms"]),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


PER_LAYER_UNITS: dict[str, str] = {}


def per_layer(spans, kind_of: dict[int, str], primary: str, untraced: dict, traced: dict) -> dict:
    """Per-layer metrics from the spans of traced operations.

    Build figures are per build (set-up builds included), query figures are
    per query (medians for times, means for counts), load and cli figures
    are medians per operation.
    """
    own = self_times(spans)
    ops: dict[str, set[int]] = defaultdict(set)
    for s in spans:
        kind = kind_of.get(abs(s.op))
        if kind is not None:
            ops[kind if s.op > 0 else kind + ".flat"].add(s.op)

    def per_op(kind, match, value, reduce=statistics.median):
        acc = dict.fromkeys(ops[kind], 0.0)
        for s, t in zip(spans, own):
            if s.op in acc and match(s):
                acc[s.op] += value(s, t)
        return reduce(list(acc.values())) if acc else 0.0

    def per_build(match, value):
        return per_op("build", match, value, reduce=statistics.fmean)

    named = lambda name: (lambda s: s.name == name)
    ending = lambda suffix: (lambda s: s.name.endswith(suffix))
    self_s = lambda s, t: t
    incl_s = lambda s, t: s.end - s.start
    self_ms = lambda s, t: t * 1e3
    incl_ms = lambda s, t: (s.end - s.start) * 1e3
    one = lambda s, t: 1
    count = lambda key: (lambda s, t: s.counts.get(key, 0))
    mean = statistics.fmean
    fit_parent = {i for i, s in enumerate(spans) if s.name == "clustering.split_oversized"}

    m = {
        "clustering.fit_gmm_s": per_build(named("clustering.fit_gmm"), self_s),
        "clustering.fit_gmm_calls": per_build(named("clustering.fit_gmm"), one),
        "clustering.em_iters": per_build(named("clustering.fit_gmm"), count("em_iters")),
        "clustering.split_oversized_s": per_build(named("clustering.split_oversized"), self_s),
        "clustering.refits": per_build(lambda s: s.name == "clustering.fit_gmm" and s.parent in fit_parent, one),
    }
    for k in range(1, MAX_LAYER + 1):
        at_k = lambda s, k=k: s.name == "aggregation.build_layer" and s.counts.get("layer") == k
        m[f"aggregation.build_layer_s.{k}"] = per_build(at_k, incl_s)
        m[f"aggregation.layer_entities.{k}"] = per_build(at_k, count("entities"))
        m[f"aggregation.layer_relations.{k}"] = per_build(at_k, count("relations"))
    m.update(
        {
            "aggregation.intra_cluster_relations_s": per_build(named("aggregation.intra_cluster_relations"), self_s),
            "aggregation.intra_cluster_relations_calls": per_build(named("aggregation.intra_cluster_relations"), one),
            "aggregation.connectivity_matrix_s": per_build(named("aggregation.connectivity_matrix"), self_s),
            "aggregation.summarized_pairs": per_build(named("aggregation.build_layer"), count("summarized_pairs")),
            "providers.embed_calls": per_build(ending(".embed_batch"), one),
            "providers.embed_texts": per_build(ending(".embed_batch"), count("texts")),
            "providers.embed_s": per_build(ending(".embed_batch"), self_s),
            "providers.entity_gen_calls": per_build(ending(".generate_aggregate_entity"), one),
            "providers.relation_gen_calls": per_build(ending(".generate_aggregate_relation"), one),
            "providers.gen_s": per_build(ending((".generate_aggregate_entity", ".generate_aggregate_relation")), self_s),
            "model.validate_hierarchy_s": per_build(named("model.validate_hierarchy"), incl_s),
            "store.ingest_s": per_build(named("store.ingest"), incl_s),
            "store.save_index_s": per_build(named("store.save_index"), incl_s),
            "store.load_index_s": per_op("load", named("store.load_index"), incl_s),
            "retrieval.anchor_seeds_ms": per_op("query", named("retrieval.anchor_seeds"), incl_ms),
            "retrieval.lca_paths_ms": per_op("query", named("retrieval.lca_paths"), incl_ms),
            "retrieval.assemble_subgraph_ms": per_op("query", named("retrieval.assemble_subgraph"), incl_ms),
            "retrieval.flat_path_retrieve_ms": per_op("query.flat", named("retrieval.flat_path_retrieve"), incl_ms),
            "retrieval.nodes_per_query": per_op("query", named("retrieval.assemble_subgraph"), count("nodes"), mean),
            "retrieval.lca_groups_per_query": per_op("query", named("retrieval.lca_paths"), count("groups"), mean),
            "retrieval.relations_per_query": per_op("query", named("retrieval.assemble_subgraph"), count("relations"), mean),
            "retrieval.flat_nodes_per_query": per_op("query.flat", named("retrieval.flat_path_retrieve"), count("nodes"), mean),
            "retrieval.flat_relations_per_query": per_op(
                "query.flat", named("retrieval.flat_path_retrieve"), count("relations"), mean
            ),
            "cli.query_self_ms": per_op("cli", lambda s: s.name.startswith("cli."), self_ms),
        }
    )
    for suffix, kind in (("", "query"), (".flat", "query.flat")):
        m[f"context.assemble_context_ms{suffix}"] = per_op(kind, named("context.assemble_context"), incl_ms)
        for section in ("entity", "relation", "chunk"):
            m[f"context.{section}_tokens_mean{suffix}"] = per_op(
                kind, named("context.assemble_context"), count(f"{section}_tokens"), mean
            )
    stages = ("retrieval.anchor_seeds", "retrieval.lca_paths", "retrieval.assemble_subgraph", "context.assemble_context")
    m["trace.lean_stages_ms"] = per_op("query", lambda s: s.name in stages, incl_ms)
    # A build's time depends on the allocator state of the process (the first
    # build in a process pays for page faults a later one may not), so the
    # two passes' builds do not compare; build-2k takes the overhead on the
    # lean query path instead.
    key = "cold_query_ms" if primary == "cli" else "query_ms"
    m["trace.untraced_ms"] = statistics.median(untraced[key])
    m["trace.traced_ms"] = statistics.median(traced[key])
    m["trace.overhead_ms"] = m["trace.traced_ms"] - m["trace.untraced_ms"]
    m["trace.spans"] = len(spans)
    return {name: {"value": m[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}


def _unit(name: str) -> str:
    if name.endswith(("_calls", "_iters", ".refits", "_pairs", "_texts", "spans")) or "per_query" in name:
        return "count"
    if ".layer_entities." in name or ".layer_relations." in name:
        return "count"
    if "_tokens_mean" in name:
        return "tokens"
    if name.endswith("_ms") or "_ms." in name:
        return "ms"
    return "s"


def per_layer_names() -> list[str]:
    names = [
        "clustering.fit_gmm_s", "clustering.fit_gmm_calls", "clustering.em_iters",
        "clustering.split_oversized_s", "clustering.refits",
    ]
    for k in range(1, MAX_LAYER + 1):
        names += [f"aggregation.build_layer_s.{k}", f"aggregation.layer_entities.{k}", f"aggregation.layer_relations.{k}"]
    names += [
        "aggregation.intra_cluster_relations_s", "aggregation.intra_cluster_relations_calls",
        "aggregation.connectivity_matrix_s", "aggregation.summarized_pairs",
        "providers.embed_calls", "providers.embed_texts", "providers.embed_s",
        "providers.entity_gen_calls", "providers.relation_gen_calls", "providers.gen_s",
        "model.validate_hierarchy_s", "store.ingest_s", "store.save_index_s", "store.load_index_s",
        "retrieval.anchor_seeds_ms", "retrieval.lca_paths_ms", "retrieval.assemble_subgraph_ms",
        "retrieval.flat_path_retrieve_ms", "retrieval.nodes_per_query", "retrieval.lca_groups_per_query",
        "retrieval.relations_per_query", "retrieval.flat_nodes_per_query", "retrieval.flat_relations_per_query",
        "cli.query_self_ms",
    ]
    for suffix in ("", ".flat"):
        names += [f"context.assemble_context_ms{suffix}"]
        names += [f"context.{section}_tokens_mean{suffix}" for section in ("entity", "relation", "chunk")]
    names += ["trace.lean_stages_ms", "trace.untraced_ms", "trace.traced_ms", "trace.overhead_ms", "trace.spans"]
    return names


PER_LAYER_UNITS.update({name: _unit(name) for name in per_layer_names()})


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> tuple[dict, Tracer | None]:
    """Set up, measure and check one workload; returns the result object."""
    wl = WORKLOADS[name]
    tracer = Tracer() if trace else None
    r = Run(wl, seed, seconds, workdir, tracer)
    if tracer is not None:
        tracer.install()  # the set-up build is traced too: it is the query workloads' only build
    setup_s = r.setup()
    setup_samples = r.samples
    if tracer is not None:
        tracer.uninstall()
        r.seconds = seconds / 2  # two passes in the time of one
    samples = r.measure()
    correct = r.failed == 0
    if wl.max_token_ratio is not None and samples["ratio"]:
        ratio = statistics.fmean(samples["ratio"])
        if ratio >= wl.max_token_ratio:
            print(f"{name}: token_ratio_mean {ratio:.4f} >= {wl.max_token_ratio}", file=sys.stderr)
            correct = False
    if tracer is None:
        metrics = end_to_end(samples, setup_s, setup_samples)
    else:
        tracer.install()
        try:
            traced = r.measure()
        finally:
            tracer.uninstall()
        correct = correct and r.failed == 0
        metrics = per_layer(tracer.spans, r.kind_of, wl.primary, samples, traced)
    result = {"correct": correct, "attempted": r.attempted, "failed": r.failed, "metrics": metrics}
    return result, tracer
