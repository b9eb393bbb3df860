"""Operator command line: build, query, bench, stats.

Machine-readable output goes to stdout as JSON (or the plain-text context
rendering for `query --format text`); logs go to stderr. Exit codes:
0 ok, 2 usage error, 3 data error, 4 provider error, 1 internal.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys

from . import aggregation, context, retrieval, store
from .errors import (
    GenerationParseError,
    HierKGError,
    IngestError,
    InvalidArgumentError,
    NotFoundError,
    ProviderUnavailableError,
    StoreError,
)
from .model import BuildParams, validate_hierarchy
from .providers import make_embedding_provider, make_generation_provider

logger = logging.getLogger("hierkg")

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_PROVIDER = 4

REDACTED_KEYS = {"api_key", "token", "secret", "authorization"}


def _load_provider_config(path: str | None) -> dict:
    if path is None:
        return {"embedding": {"provider": "mock"}, "generation": {"provider": "mock"}}
    try:
        with store.open_input(path) as fh:
            config = json.loads(fh.read())
    except json.JSONDecodeError as exc:
        raise InvalidArgumentError(f"provider config {path} is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise InvalidArgumentError(f"provider config {path} must be a JSON object")
    for block in ("embedding", "generation"):
        config.setdefault(block, {"provider": "mock"})
        if not isinstance(config[block], dict):
            raise InvalidArgumentError(f"provider config {path}: {block!r} must be a JSON object")
    return config


def _make_providers(config: dict) -> tuple[object, object]:
    """The embedding and the generation provider of a provider config.

    Making a provider sends no request, so query and bench check the
    generation block as build does, though they never generate.
    """
    return make_embedding_provider(config["embedding"]), make_generation_provider(config["generation"])


def _redacted(config: dict) -> dict:
    def scrub(value):
        if isinstance(value, dict):
            return {
                k: ("***" if k.lower() in REDACTED_KEYS else scrub(v)) for k, v in value.items()
            }
        return value

    return scrub(config)


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def cmd_build(args: argparse.Namespace) -> int:
    store.check_out_dir(args.out)
    providers_cfg = _load_provider_config(args.providers)
    logger.info("resolved config: %s", json.dumps(_redacted(providers_cfg), sort_keys=True))
    embed, gen = _make_providers(providers_cfg)
    params = BuildParams(
        cluster_size=args.cluster_size,
        tau=args.tau,
        max_layers=args.max_layers,
        seed=args.seed,
        stop_when_entities_leq=args.stop_at,
    )
    entities, relations, chunks, ingest_report = store.ingest(args.input)
    h, embeddings, build_report = aggregation.build_hierarchy(
        entities, relations, params, embed, gen, max_workers=args.workers
    )
    violations = validate_hierarchy(h)
    if violations:
        raise HierKGError(f"built hierarchy failed validation: {violations[:5]}")
    manifest = store.save_index(
        h,
        embeddings,
        chunks,
        args.out,
        provider_ids={
            "embedding": providers_cfg["embedding"].get("provider", "mock"),
            "generation": providers_cfg["generation"].get("provider", "mock"),
        },
    )
    _emit(
        {
            "index_dir": str(args.out),
            "ingest": ingest_report.to_dict(),
            "build": build_report.to_dict(),
            "manifest": manifest.to_dict(),
        }
    )
    return EXIT_OK


def _render(h, sub, seeds, chunks, args) -> context.ContextBundle:
    """The context bundle of one subgraph, with the query/bench rendering flags."""
    return context.assemble_context(
        h,
        sub,
        seeds,
        chunks,
        top_c=args.top_c,
        include_relations=not args.no_relations,
        include_chunks=not args.no_context,
    )


def _make_bundles(h, embeddings, chunks, embed, query: str, args) -> tuple[context.ContextBundle, context.ContextBundle]:
    """The lean and flat bundles of one query, on the same seeds."""
    seeds, sub = retrieval.retrieve(h, embeddings, query, args.top_n, embed)
    flat_sub = retrieval.flat_path_retrieve(h, seeds, max_hops=args.max_hops)
    return _render(h, sub, seeds, chunks, args), _render(h, flat_sub, seeds, chunks, args)


def cmd_query(args: argparse.Namespace) -> int:
    embed, _ = _make_providers(_load_provider_config(args.providers))
    h, embeddings, chunks, _manifest = store.load_index(args.index)

    seeds, sub = retrieval.retrieve(h, embeddings, args.query, args.top_n, embed)
    if args.baseline == "flat":
        sub = retrieval.flat_path_retrieve(h, seeds, max_hops=args.max_hops)
    bundle = _render(h, sub, seeds, chunks, args)
    if args.format == "text":
        sys.stdout.write(bundle.rendering() + "\n")
    else:
        _emit(
            {
                "query": args.query,
                "seeds": seeds.to_dict(),
                "subgraph": sub.to_dict(),
                "bundle": bundle.to_dict(),
            }
        )
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    embed, _ = _make_providers(_load_provider_config(args.providers))
    h, embeddings, chunks, _manifest = store.load_index(args.index)

    with store.open_input(args.queries) as fh:
        queries = [line.strip() for line in fh.read().splitlines() if line.strip()]
    rows = []
    for query in queries:
        lean, flat = _make_bundles(h, embeddings, chunks, embed, query, args)
        report = context.redundancy_report(lean, flat)
        rows.append(
            {
                "query": query,
                "lean_tokens": report["lean_tokens"],
                "baseline_tokens": report["baseline_tokens"],
                "ratio": report["ratio"],
            }
        )
    ratios = [row["ratio"] for row in rows if row["ratio"] is not None]
    mean_ratio = sum(ratios) / len(ratios) if ratios else None
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["query", "lean_tokens", "baseline_tokens", "ratio"])
        for row in rows:
            ratio = "" if row["ratio"] is None else f"{row['ratio']:.6f}"
            writer.writerow([row["query"], row["lean_tokens"], row["baseline_tokens"], ratio])
    else:
        _emit({"rows": rows, "mean_ratio": mean_ratio, "num_queries": len(rows)})
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    h, embeddings, chunks, manifest = store.load_index(args.index)
    _emit(
        {
            "manifest": manifest.to_dict(),
            "layers": [
                {
                    "index": layer.index,
                    "entities": len(layer.entity_ids),
                    "relations": len(layer.relation_ids),
                }
                for layer in h.layers
            ],
            "chunks": len(chunks),
            "embeddings": len(embeddings),
            "validation_violations": validate_hierarchy(h),
        }
    )
    return EXIT_OK


# the options that two commands or more declare alike
SHARED_OPTIONS = {
    "--index": {"required": True},
    "--top-n": {"type": int, "default": 10},
    "--top-c": {"type": int, "default": 5},
    "--no-relations": {"action": "store_true"},
    "--no-context": {"action": "store_true"},
    "--max-hops": {"type": int, "default": retrieval.DEFAULT_MAX_HOPS},
    "--providers": {"default": None},
}

# each subcommand's help, handler and options in the order --help lists
# them: a name of SHARED_OPTIONS, or a name and its add_argument keywords
COMMANDS = {
    "build": ("ingest a JSONL knowledge file and build an index", cmd_build, [
        ("--input", {"required": True}),
        ("--out", {"required": True}),
        ("--cluster-size", {"type": int, "default": 20}),
        ("--tau", {"type": int, "default": 3}),
        ("--max-layers", {"type": int, "default": 4}),
        ("--seed", {"type": int, "default": 0}),
        ("--stop-at", {"type": int, "default": None}),
        ("--workers", {"type": int, "default": 1}),
        ("--providers", {"default": None, "help": "provider config JSON file"}),
    ]),
    "query": ("run one query against a built index", cmd_query, [
        "--index",
        ("--query", {"required": True}),
        "--top-n",
        "--top-c",
        "--no-relations",
        "--no-context",
        ("--baseline", {"choices": ["flat"], "default": None}),
        "--max-hops",
        ("--format", {"choices": ["json", "text"], "default": "json"}),
        "--providers",
    ]),
    "bench": ("token-redundancy comparison, hierarchy vs flat", cmd_bench, [
        "--index",
        ("--queries", {"required": True, "help": "file with one query per line"}),
        "--top-n",
        "--top-c",
        "--max-hops",
        "--no-relations",
        "--no-context",
        ("--format", {"choices": ["json", "csv"], "default": "json"}),
        "--providers",
    ]),
    "stats": ("print manifest and layer statistics", cmd_stats, ["--index"]),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The hierkg parser: every subcommand with its help, and the options
    of command, or of every command when command is None. main declares
    only the options of the command its argv names, the one it parses."""
    parser = argparse.ArgumentParser(prog="hierkg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        for option in options if command in (None, name) else ():
            flag, kwargs = (option, SHARED_OPTIONS[option]) if type(option) is str else option
            p.add_argument(flag, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else "")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (FileNotFoundError, IngestError, StoreError, NotFoundError) as exc:
        logger.error("data error: %s", exc)
        return EXIT_DATA
    except (ProviderUnavailableError, GenerationParseError) as exc:
        logger.error("provider error: %s", exc)
        return EXIT_PROVIDER
    except InvalidArgumentError as exc:
        logger.error("usage error: %s", exc)
        return EXIT_USAGE
    except HierKGError as exc:
        logger.error("internal error: %s", exc)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
