"""Command-line interface.

Exit codes: 0 success; 1 positive detection under --gate; 2 usage errors
(bad flags, missing or unusable files, malformed addresses); 3 pipeline
failures (compiler, network, backend).

Commands:
  analyze  static pipeline only: slice selection, tainted state vars, DOT
  detect   two-stage LLM protocol on one contract
  batch    detect across a manifest with journaling and resume
  graph    render the taint DOT for one contract
  metrics  recompute metrics from a reports file plus manifest
  fetch    pull verified source for an address into a directory
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .detect import (
    BACKEND_HTTP,
    BACKEND_MOCK,
    LlmConfig,
    MODE_FULL,
    TemplateSet,
    _MAX_CHAINS,
    detect_contract,
    run_static_pipeline,
)
from .errors import PonzilensError
from .evaluation import (
    aggregate_overhead,
    compute_metrics,
    load_manifest,
    read_journal,
    run_batch,
    write_reports,
)
from .hypergraph import GraphId, HypernodeGraph
from .ingest import (
    FetchConfig,
    compile_source,
    fetch_verified_source,
    is_address,
    load_source_unit,
)
from .model import ContractModel, FunctionModel, def_use_table, parse_span
from .taint import TaintSubgraph, tainted_state_vars

EXIT_OK = 0
EXIT_POSITIVE = 1
EXIT_USAGE = 2
EXIT_PIPELINE = 3

# "openai" (hosted, keyed) and "local" (self-hosted, keyless) are two
# spellings of the one HTTP backend.
_BACKEND_ALIASES = {
    "openai": BACKEND_HTTP,
    "local": BACKEND_HTTP,
    "mock": BACKEND_MOCK,
}

_MODE_ALIASES = {"full": "full", "no-taint": "no_taint", "raw": "raw"}


def _add_llm_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--backend",
        choices=sorted(_BACKEND_ALIASES),
        default="mock",
        help="completion backend (default: %(default)s)",
    )
    p.add_argument(
        "--endpoint",
        default="https://api.openai.com/v1/chat/completions",
        help="chat-completions URL for the HTTP backend (default: %(default)s)",
    )
    p.add_argument("--model", default="gpt-3.5-turbo", help="model name (default: %(default)s)")
    p.add_argument(
        "--mode",
        choices=sorted(_MODE_ALIASES),
        default="full",
        help="prompt mode (default: %(default)s)",
    )
    p.add_argument(
        "--repeats",
        type=int,
        default=5,
        metavar="N",
        help="detection runs per contract (default: %(default)s)",
    )
    p.add_argument(
        "--temperature",
        type=float,
        default=0.0,
        help="sampling temperature (default: %(default)s)",
    )
    p.add_argument(
        "--template-dir",
        default=None,
        metavar="DIR",
        help="directory overriding the packaged prompt templates",
    )
    p.add_argument(
        "--price-in",
        type=float,
        default=0.0,
        metavar="USD",
        help="price per 1k input tokens (default: %(default)s)",
    )
    p.add_argument(
        "--price-out",
        type=float,
        default=0.0,
        metavar="USD",
        help="price per 1k output tokens (default: %(default)s)",
    )
    p.add_argument(
        "--concurrency",
        type=int,
        default=1,
        metavar="N",
        help="parallel contracts in batch mode; over HTTP each also has up to "
        f"min(repeats, {_MAX_CHAINS}) runs in flight, recorded in index order "
        "(default: %(default)s)",
    )
    p.add_argument(
        "--max-output-tokens",
        type=int,
        default=1024,
        metavar="N",
        help="completion token cap per reply (default: %(default)s)",
    )


def _llm_config(args: argparse.Namespace) -> LlmConfig:
    return LlmConfig(
        backend=_BACKEND_ALIASES[args.backend],
        endpoint=args.endpoint,
        model=args.model,
        temperature=args.temperature,
        max_output_tokens=args.max_output_tokens,
        price_per_1k_input=args.price_in,
        price_per_1k_output=args.price_out,
        concurrency_limit=args.concurrency,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ponzilens",
        description="Taint-guided slicing and LLM screening of Solidity contracts for Ponzi logic.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="run the static pipeline on one contract")
    pa.add_argument("path", help=".sol source or .json AST document")
    pa.add_argument("--out", default=".", metavar="DIR", help="output directory (default: %(default)s)")
    pa.add_argument("--json", action="store_true", help="machine-readable stdout")
    pa.add_argument("--dump-ir", action="store_true", help="also write <id>.ir.json")
    pa.add_argument("--dump-graph", action="store_true", help="also write <id>.graph.json")
    pa.add_argument(
        "--emit-slices",
        default=None,
        metavar="DIR",
        help="write each selected function slice into DIR",
    )
    pa.add_argument(
        "--no-constructors",
        action="store_true",
        help="do not force constructors into the slice",
    )

    pd = sub.add_parser("detect", help="two-stage detection on one contract")
    pd.add_argument("path", help=".sol source or .json AST document")
    _add_llm_flags(pd)
    pd.add_argument("--out", default=".", metavar="DIR", help="report directory (default: %(default)s)")
    pd.add_argument("--json", action="store_true", help="machine-readable stdout")
    pd.add_argument(
        "--gate",
        action="store_true",
        help="exit 1 when the verdict is true (for CI pipelines)",
    )

    pb = sub.add_parser("batch", help="detection across a labeled manifest")
    pb.add_argument("manifest", help="CSV or line-JSON manifest (id,path_or_address,label)")
    _add_llm_flags(pb)
    pb.add_argument("--out", default=".", metavar="DIR", help="output directory (default: %(default)s)")
    pb.add_argument("--json", action="store_true", help="machine-readable stdout")

    pg = sub.add_parser("graph", help="render the taint DOT for one contract")
    pg.add_argument("path", help=".sol source or .json AST document")
    pg.add_argument("--out", default=".", metavar="DIR", help="output directory (default: %(default)s)")
    pg.add_argument("--json", action="store_true", help="machine-readable stdout")
    pg.add_argument("--cluster", action="store_true", help="group nodes per function")

    pm = sub.add_parser("metrics", help="metrics from a reports file and manifest")
    pm.add_argument("reports", help="line-JSON reports file")
    pm.add_argument("manifest", help="manifest the reports were produced from")
    pm.add_argument("--json", action="store_true", help="machine-readable stdout")

    pf = sub.add_parser("fetch", help="download verified source by address")
    pf.add_argument("address", help="0x-prefixed 40-hex contract address")
    pf.add_argument("--out", default=".", metavar="DIR", help="output directory (default: %(default)s)")
    pf.add_argument("--json", action="store_true", help="machine-readable stdout")
    pf.add_argument(
        "--api-base",
        default="https://api.etherscan.io/api",
        help="explorer API base URL (default: %(default)s)",
    )
    pf.add_argument("--api-key", default="", help="explorer API key (env wins when set)")

    return parser


def _endpoint_json(ep) -> dict:
    return {
        "kind": "graph" if isinstance(ep, GraphId) else "node",
        "path": list(ep.path),
    }


def _ref_text(f: FunctionModel, i: int) -> str:
    return f"{f.decls[i].scope.value}:{f.decls[i].path[-1]}"


def ir_document(models: list[ContractModel]) -> str:
    """The `--dump-ir` file: every lowered statement and each function's
    def/use table, as indented JSON. A reference is written `scope:name`,
    where the name is the last component of its node path."""
    ir = []
    for m in models:
        ir.append(
            {
                "contract": m.name,
                "state_vars": [v.name for v in m.state_vars],
                "inherits": m.inherits,
                "functions": [
                    {
                        "name": f.name,
                        "visibility": f.visibility,
                        "payable": f.payable,
                        "statements": [
                            {
                                "kind": s.kind.value,
                                "defs": sorted(_ref_text(f, v) for v in s.defs),
                                "uses": sorted(_ref_text(f, v) for v in s.uses),
                                "callees": list(s.callees),
                                "span": list(parse_span(s.src)),
                            }
                            for s in f.statements
                        ],
                        "def_use": {
                            _ref_text(f, v): {"defs": list(d), "uses": list(u)}
                            for v, (d, u) in def_use_table(f).items()
                        },
                    }
                    for f in m.functions
                ],
            }
        )
    return json.dumps(ir, indent=2) + "\n"


def graph_document(g: HypernodeGraph, taint: TaintSubgraph) -> str:
    """The `--dump-graph` file: every graph's members and edges, and the
    tainted endpoints, as indented JSON."""
    view = g.view()
    graph_doc = {
        "graphs": [
            {
                "id": _endpoint_json(gid),
                "members": [_endpoint_json(m) for m in g.members(gid)],
                "edges": [
                    [_endpoint_json(a), _endpoint_json(b)] for a, b in g.edges(gid)
                ],
            }
            for gid in g.graphs()
        ],
        "tainted": [
            _endpoint_json(view.endpoint(n))
            for n in sorted(taint.numbers, key=view.rank.__getitem__)
        ],
    }
    return json.dumps(graph_doc, indent=2) + "\n"


def _static_run(args: argparse.Namespace, **opts):
    """Load `args.path`, compiling it when it has no AST, run the full-mode
    static pipeline with `opts`, and write the taint DOT into `args.out`.
    Returns the unit, the artifacts and the DOT's path."""
    unit = load_source_unit(args.path)
    if unit.ast_json is None:
        compile_source(unit)
    art = run_static_pipeline(unit, MODE_FULL, **opts)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    dot_path = out_dir / f"{unit.id}.taint.dot"
    dot_path.write_text(art.dot.text)
    return unit, art, dot_path


def _cmd_analyze(args: argparse.Namespace) -> int:
    unit, art, dot_path = _static_run(args, include_constructors=not args.no_constructors)
    out_dir = dot_path.parent

    paths = art.graph.view().paths
    tainted_state = sorted(".".join(paths[n]) for n in tainted_state_vars(art.taint))
    payload = {
        "contract_id": unit.id,
        "functions_total": art.bundle.stats.functions_total,
        "functions_selected": art.bundle.stats.functions_selected,
        "selected": list(art.bundle.selected),
        "tainted_state_vars": tainted_state,
        "tainted_nodes": len(art.taint.numbers),
        "taint_edges": sum(1 for _ in art.taint.edge_numbers()),
        "dot": str(dot_path),
    }

    if args.dump_ir:
        ir_path = out_dir / f"{unit.id}.ir.json"
        ir_path.write_text(ir_document(art.models))
        payload["ir"] = str(ir_path)

    if args.dump_graph:
        graph_path = out_dir / f"{unit.id}.graph.json"
        graph_path.write_text(graph_document(art.graph, art.taint))
        payload["graph"] = str(graph_path)

    if args.emit_slices:
        slice_dir = Path(args.emit_slices)
        slice_dir.mkdir(parents=True, exist_ok=True)
        for fid, text in art.bundle.per_function.items():
            (slice_dir / f"{fid}.sol").write_text(text + "\n")
        payload["slices"] = str(slice_dir)

    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"contract: {unit.id}")
        print(f"functions: {payload['functions_total']}")
        sel = ", ".join(payload["selected"]) or "(none)"
        print(f"selected: {payload['functions_selected']} ({sel})")
        print("tainted state vars: " + (", ".join(tainted_state) or "(none)"))
        print(f"dot: {dot_path}")
    return EXIT_OK


def _cmd_detect(args: argparse.Namespace) -> int:
    unit = load_source_unit(args.path)
    cfg = _llm_config(args)
    templates = TemplateSet(args.template_dir)
    report = detect_contract(
        unit, cfg, _MODE_ALIASES[args.mode], args.repeats, templates=templates
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / f"{unit.id}.report.json"
    report_path.write_text(json.dumps(report.to_dict(), indent=2) + "\n")

    if args.json:
        print(
            json.dumps(
                {
                    "contract_id": report.contract_id,
                    "verdict": report.final_verdict,
                    "error": report.error,
                    "report": str(report_path),
                }
            )
        )
    else:
        if report.error and not report.runs:
            print(f"error[{report.error['phase']}]: {report.error['message']}")
        else:
            print("true" if report.final_verdict else "false")
        print(f"report: {report_path}")
    if report.error and not report.runs:
        return EXIT_PIPELINE
    if args.gate and report.final_verdict:
        return EXIT_POSITIVE
    return EXIT_OK


def _cmd_batch(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.manifest)
    cfg = _llm_config(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    reports_path = out_dir / "reports.jsonl"
    reports = run_batch(
        manifest,
        cfg,
        _MODE_ALIASES[args.mode],
        args.repeats,
        journal=reports_path,
        templates=TemplateSet(args.template_dir),
    )
    metrics = compute_metrics(manifest, reports)
    overhead = aggregate_overhead(reports)
    metrics_path = out_dir / "metrics.json"
    overhead_path = out_dir / "overhead.json"
    metrics_path.write_text(json.dumps(metrics.to_dict(), indent=2) + "\n")
    overhead_path.write_text(json.dumps(overhead.to_dict(), indent=2) + "\n")
    payload = {
        "contracts": len(reports),
        "metrics": metrics.to_dict(),
        "overhead": overhead.to_dict(),
        "reports": str(reports_path),
        "metrics_file": str(metrics_path),
        "overhead_file": str(overhead_path),
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"contracts: {len(reports)}")
        print(
            "tpr={tpr:.4f} tnr={tnr:.4f} fpr={fpr:.4f} fnr={fnr:.4f} bac={bac:.4f}".format(
                **metrics.to_dict()
            )
        )
        print(f"unparseable={metrics.unparseable} errored={metrics.errored}")
        print(f"reports: {reports_path}")
    return EXIT_OK


def _cmd_graph(args: argparse.Namespace) -> int:
    unit, art, dot_path = _static_run(args, cluster=args.cluster)
    if args.json:
        print(
            json.dumps(
                {
                    "contract_id": unit.id,
                    "dot": str(dot_path),
                    "nodes": art.dot.node_count,
                    "edges": art.dot.edge_count,
                }
            )
        )
    else:
        print(f"dot: {dot_path} ({art.dot.node_count} nodes, {art.dot.edge_count} edges)")
    return EXIT_OK


def _cmd_metrics(args: argparse.Namespace) -> int:
    if not Path(args.reports).exists():
        raise FileNotFoundError(f"no reports file {args.reports!r}")
    manifest = load_manifest(args.manifest)
    reports = list(read_journal(args.reports).values())
    metrics = compute_metrics(manifest, reports)
    overhead = aggregate_overhead(reports)
    payload = {"metrics": metrics.to_dict(), "overhead": overhead.to_dict()}
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(
            "tpr={tpr:.4f} tnr={tnr:.4f} fpr={fpr:.4f} fnr={fnr:.4f} bac={bac:.4f}".format(
                **metrics.to_dict()
            )
        )
        print(
            f"tp={metrics.tp} tn={metrics.tn} fp={metrics.fp} fn={metrics.fn} "
            f"unparseable={metrics.unparseable} errored={metrics.errored}"
        )
    return EXIT_OK


def _cmd_fetch(args: argparse.Namespace) -> int:
    if not is_address(args.address):
        print(f"malformed address: {args.address}", file=sys.stderr)
        return EXIT_USAGE
    cfg = FetchConfig(api_base_url=args.api_base, api_key=args.api_key)
    unit = fetch_verified_source(args.address, cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    source_path = out_dir / f"{unit.id}.sol"
    source_path.write_text(unit.source_text)
    if args.json:
        print(json.dumps({"address": unit.id, "source": str(source_path)}))
    else:
        print(f"source: {source_path}")
    return EXIT_OK


_COMMANDS = {
    "analyze": _cmd_analyze,
    "detect": _cmd_detect,
    "batch": _cmd_batch,
    "graph": _cmd_graph,
    "metrics": _cmd_metrics,
    "fetch": _cmd_fetch,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (None, 0):
            return EXIT_OK
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PonzilensError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE


def entrypoint() -> None:
    sys.exit(main())
