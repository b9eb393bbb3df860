"""Span tracing of hierkg's public functions, installed from outside.

`Tracer.install()` replaces every public module-level function of the
traced modules with a timing wrapper, under every name that refers to it
(so `aggregation.fit_gmm` and `cli.validate_hierarchy` are wrapped along
with the originals), and wraps the public methods of the provider
classes. Spans (name, start, end, parent span, operation id, counters)
stay in memory; `uninstall()` restores the originals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

TRACED_MODULES = ["store", "providers", "clustering", "aggregation", "model", "retrieval", "context", "cli"]


def _build_layer_counts(args, kwargs, result):
    layer, evidence = result
    params = args[1] if len(args) > 1 else kwargs["params"]
    tau = params.tau_for_layer(layer.index)
    return {
        "layer": layer.index,
        "entities": len(layer.entity_ids),
        "relations": len(layer.relation_ids),
        "summarized_pairs": sum(1 for ev in evidence if ev.strength > tau),
    }


def _texts(args, kwargs, result):
    return {"texts": len(result)}


# counters recorded on the span, keyed by span name
COUNTERS = {
    "clustering.fit_gmm": lambda a, k, r: {"em_iters": len(r.log_likelihoods)},
    "aggregation.build_layer": _build_layer_counts,
    "retrieval.lca_paths": lambda a, k, r: {"groups": len(r[1])},
    "retrieval.assemble_subgraph": lambda a, k, r: {
        "nodes": len(r.node_ids),
        "relations": len(r.path_relations) + len(r.inter_cluster_relations),
    },
    "retrieval.flat_path_retrieve": lambda a, k, r: {"nodes": len(r.node_ids), "relations": len(r.path_relations)},
    "context.assemble_context": lambda a, k, r: {
        "entity_tokens": r.token_counts["entity_section"],
        "relation_tokens": r.token_counts["relation_section"],
        "chunk_tokens": r.token_counts["chunk_section"],
    },
    "providers.MockEmbeddingProvider.embed_batch": _texts,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    op: int
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.op)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        package = importlib.import_module("hierkg")
        modules = {short: importlib.import_module(f"hierkg.{short}") for short in TRACED_MODULES}
        wrappers = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__ and attr.endswith("Provider"):
                    for meth, fn in vars(obj).items():
                        if inspect.isfunction(fn) and not meth.startswith("_"):
                            self._restore.append((obj, meth, fn))
                            setattr(obj, meth, self._wrap(f"{short}.{attr}.{meth}", fn))
        for mod in [package, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "op": s.op, "counts": s.counts}
                    )
                    + "\n"
                )


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out
