"""Smoke test of the benchmark's span tracer over one small build and query.

perfbench/spans.py wraps hierkg's public functions from outside and reads
their arguments and results to fill its counters, so a signature change
here can break `perfbench/run.py --trace 1` without any other test
noticing. The tracer is imported as it is, not copied.
"""

import importlib.util
import random
import sys
from pathlib import Path

from hierkg import aggregation, context, retrieval
from hierkg.model import BuildParams
from hierkg.providers import MockEmbeddingProvider, MockGenerationProvider

from helpers import make_layer0

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_traced_build_and_query_record_counters():
    spans = load_spans_module()
    entities, relations, chunks = make_layer0(random.Random(11), 40, avg_degree=3)
    params = BuildParams(cluster_size=5, seed=2, stop_when_entities_leq=2)
    embed = MockEmbeddingProvider()
    originals = (aggregation.build_layer, retrieval.lca_paths)

    tracer = spans.Tracer()
    tracer.install()
    try:
        assert aggregation.build_layer is not originals[0]
        h, embeddings, _ = aggregation.build_hierarchy(
            entities, relations, params, embed, MockGenerationProvider()
        )
        seeds, sub = retrieval.retrieve(h, embeddings, "glacier summit tundra", 6, embed)
        bundle = context.assemble_context(h, sub, seeds, chunks, top_c=3)
    finally:
        tracer.uninstall()
    assert (aggregation.build_layer, retrieval.lca_paths) == originals

    def named(name):
        return [s for s in tracer.spans if s.name == name]

    fits = named("clustering.fit_gmm")
    assert fits and all(set(s.counts) == {"em_iters"} for s in fits)
    assert sum(s.counts["em_iters"] for s in fits) > 0

    layers = named("aggregation.build_layer")
    assert len(h.layers) >= 3
    assert [s.counts["layer"] for s in layers] == list(range(1, len(h.layers)))
    for s in layers:
        layer = h.layers[s.counts["layer"]]
        assert s.counts["entities"] == len(layer.entity_ids)
        assert s.counts["relations"] == len(layer.relation_ids)
        assert 0 <= s.counts["summarized_pairs"] <= len(layer.relation_ids)
    # every fit runs inside a layer's build
    layer_spans = {tracer.spans.index(s) for s in layers}
    for s in fits:
        parent = s.parent
        while parent not in layer_spans:
            assert parent >= 0
            parent = tracer.spans[parent].parent

    (lca,) = named("retrieval.lca_paths")
    assert lca.counts == {"groups": len(sub.lca_nodes)}
    (assembled,) = named("retrieval.assemble_subgraph")
    assert assembled.counts == {
        "nodes": len(sub.node_ids),
        "relations": len(sub.path_relations) + len(sub.inter_cluster_relations),
    }
    (rendered,) = named("context.assemble_context")
    assert rendered.counts["entity_tokens"] == bundle.token_counts["entity_section"]
