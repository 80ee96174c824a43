"""CLI surface: subcommands, exit codes, emitted files."""

from __future__ import annotations

import importlib.metadata
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dotcheck
import fixutil
import ponzilens
import ponzilens.cli as cli_mod
import programs
from ponzilens.cli import EXIT_OK, EXIT_PIPELINE, EXIT_POSITIVE, EXIT_USAGE, main
from ponzilens.detect import DetectionReport, LlmConfig
from ponzilens.ingest import SourceUnit


def _fx(name: str) -> str:
    return str(fixutil.fixture_path(name))


# --- analyze ----------------------------------------------------------------


def test_analyze_text_output(tmp_path, capsys):
    rc = main(["analyze", _fx("simple_ponzi"), "--out", str(tmp_path)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "contract: simple_ponzi" in out
    assert "selected: 1 (SimplePonzi.enter)" in out
    assert "tainted state vars: SimplePonzi.balance, SimplePonzi.persons" in out
    dot_path = tmp_path / "simple_ponzi.taint.dot"
    assert dot_path.exists()
    graph = dotcheck.parse_dot(dot_path.read_text())
    assert len(graph.edges) == 12


def test_analyze_json_output(tmp_path, capsys):
    rc = main(["analyze", _fx("pool"), "--out", str(tmp_path), "--json"])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["contract_id"] == "pool"
    assert payload["selected"] == ["Pool.deposit", "Pool.audit", "Pool.flush"]
    assert payload["functions_selected"] == 3
    assert payload["tainted_state_vars"] == ["Pool.poolSize"]
    assert payload["tainted_nodes"] > 0
    assert (tmp_path / "pool.taint.dot").exists()


def test_analyze_dump_ir(tmp_path):
    rc = main(["analyze", _fx("simple_ponzi"), "--out", str(tmp_path), "--dump-ir"])
    assert rc == EXIT_OK
    ir = json.loads((tmp_path / "simple_ponzi.ir.json").read_text())
    assert ir[0]["contract"] == "SimplePonzi"
    fn = ir[0]["functions"][0]
    assert fn["name"] == "enter"
    assert len(fn["statements"]) == 12
    assert fn["statements"][9]["kind"] == "value_transfer"
    assert "builtin:msg.value" in fn["def_use"]


def test_analyze_dump_graph(tmp_path):
    rc = main(["analyze", _fx("inherit"), "--out", str(tmp_path), "--dump-graph"])
    assert rc == EXIT_OK
    doc = json.loads((tmp_path / "inherit.graph.json").read_text())
    ids = {tuple(g["id"]["path"]) for g in doc["graphs"]}
    assert ("Base",) in ids and ("Child",) in ids
    assert doc["tainted"]


@pytest.mark.parametrize("name", fixutil.FIXTURE_NAMES)
def test_analyze_dumps_match_golden(tmp_path, name):
    # Pins the lowered IR (kinds, def/use sets, call order, spans) and the
    # graph, byte for byte.
    rc = main(["analyze", _fx(name), "--out", str(tmp_path), "--dump-ir", "--dump-graph"])
    assert rc == EXIT_OK
    for suffix in ("ir", "graph"):
        golden = fixutil.FIXTURES / "golden" / f"{name}.{suffix}.json"
        assert (tmp_path / f"{name}.{suffix}.json").read_bytes() == golden.read_bytes()


def test_analyze_emit_slices(tmp_path):
    slices = tmp_path / "slices"
    rc = main(
        ["analyze", _fx("pool"), "--out", str(tmp_path), "--emit-slices", str(slices)]
    )
    assert rc == EXIT_OK
    names = sorted(p.name for p in slices.iterdir())
    assert names == ["Pool.audit.sol", "Pool.deposit.sol", "Pool.flush.sol"]
    assert (slices / "Pool.deposit.sol").read_text().startswith("function deposit()")


def test_analyze_no_constructors_flag(tmp_path, capsys):
    rc = main(["analyze", _fx("init_rule"), "--out", str(tmp_path), "--json"])
    assert rc == EXIT_OK
    with_ctor = json.loads(capsys.readouterr().out)["selected"]
    rc = main(
        ["analyze", _fx("init_rule"), "--out", str(tmp_path), "--json", "--no-constructors"]
    )
    assert rc == EXIT_OK
    without = json.loads(capsys.readouterr().out)["selected"]
    assert "Init.@ctor" in with_ctor
    assert without == [f for f in with_ctor if f != "Init.@ctor"]


# --- detect -----------------------------------------------------------------


def test_detect_mock_positive(tmp_path, capsys):
    rc = main(["detect", _fx("simple_ponzi"), "--out", str(tmp_path), "--json"])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] is True
    assert payload["error"] is None
    report = DetectionReport.from_dict(
        json.loads((tmp_path / "simple_ponzi.report.json").read_text())
    )
    assert report.final_verdict is True
    assert len(report.runs) == 5
    assert report.model == "mock:gpt-3.5-turbo"


@pytest.mark.parametrize("mode", ["full", "no_taint", "raw"])
def test_detect_report_bytes_match_golden(tmp_path, mode):
    rc = main(
        [
            "detect", _fx("simple_ponzi"), "--out", str(tmp_path),
            "--mode", mode.replace("_", "-"),
        ]
    )
    assert rc == EXIT_OK
    golden = fixutil.FIXTURES / "golden" / f"simple_ponzi.{mode}.report.json"
    assert (tmp_path / "simple_ponzi.report.json").read_bytes() == golden.read_bytes()


def test_backend_spellings_build_one_http_config():
    parser = cli_mod.build_parser()
    configs = [
        cli_mod._llm_config(parser.parse_args(["detect", "c.sol", "--backend", name]))
        for name in ("openai", "local")
    ]
    assert configs[0] == configs[1]
    assert configs[0].backend == "http"


@pytest.mark.parametrize("command", ["detect", "batch"])
def test_llm_flag_defaults_are_the_config_defaults(command):
    args = cli_mod.build_parser().parse_args([command, "c.sol"])
    assert cli_mod._llm_config(args) == LlmConfig()


def test_detect_text_verdict(tmp_path, capsys):
    rc = main(["detect", _fx("mini_token"), "--out", str(tmp_path)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "false"


def test_detect_gate_exit_code(tmp_path):
    assert (
        main(["detect", _fx("simple_ponzi"), "--out", str(tmp_path), "--gate"])
        == EXIT_POSITIVE
    )
    assert (
        main(["detect", _fx("mini_token"), "--out", str(tmp_path), "--gate"])
        == EXIT_OK
    )


def test_detect_mode_alias_and_repeats(tmp_path):
    rc = main(
        [
            "detect", _fx("simple_ponzi"), "--out", str(tmp_path),
            "--mode", "no-taint", "--repeats", "2",
        ]
    )
    assert rc == EXIT_OK
    report = DetectionReport.from_dict(
        json.loads((tmp_path / "simple_ponzi.report.json").read_text())
    )
    assert report.mode == "no_taint"
    assert report.template_version == "analysis_code_v1+detection_v1"
    assert len(report.runs) == 2


def test_detect_too_deep_a_file_is_a_pipeline_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text(programs.deep_json_text(3000))
    assert main(["detect", str(deep), "--out", str(tmp_path), "--gate"]) == EXIT_PIPELINE
    assert "nested too deeply" in capsys.readouterr().err


def test_detect_pipeline_error_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("SOLC_BINARY", raising=False)
    monkeypatch.setenv("PATH", "/nonexistent")
    sol = tmp_path / "plain.sol"
    sol.write_text("contract P { uint x; }")
    rc = main(["detect", str(sol), "--out", str(tmp_path)])
    assert rc == EXIT_PIPELINE
    out = capsys.readouterr().out
    assert out.startswith("error[ingest]:")


# --- batch and metrics ---------------------------------------------------------


def _write_manifest(tmp_path) -> str:
    p = tmp_path / "corpus.csv"
    p.write_text(
        "id,path_or_address,label\n"
        f"sp,{_fx('simple_ponzi')},ponzi\n"
        f"mt,{_fx('mini_token')},non_ponzi\n"
        f"hw,{_fx('hollow')},non_ponzi\n"
    )
    return str(p)


def test_batch_writes_reports_and_metrics(tmp_path, capsys):
    out_dir = tmp_path / "out"
    rc = main(["batch", _write_manifest(tmp_path), "--out", str(out_dir), "--repeats", "2"])
    assert rc == EXIT_OK
    stdout = capsys.readouterr().out
    assert "contracts: 3" in stdout
    assert "tpr=1.0000 tnr=1.0000 fpr=0.0000 fnr=0.0000 bac=1.0000" in stdout
    assert len((out_dir / "reports.jsonl").read_text().splitlines()) == 3
    metrics = json.loads((out_dir / "metrics.json").read_text())
    assert (metrics["tp"], metrics["tn"], metrics["fp"], metrics["fn"]) == (1, 2, 0, 0)
    overhead = json.loads((out_dir / "overhead.json").read_text())
    assert overhead["contracts"] == 3
    assert overhead["mean_tokens_per_run"] > 0


def test_batch_honors_template_dir(tmp_path):
    tdir = tmp_path / "templates"
    tdir.mkdir()
    (tdir / "analysis_full_v1.txt").write_text("$code\n$graph\nfunction one, function two\n")
    common = ["--repeats", "1", "--template-dir", str(tdir)]
    assert main(["detect", _fx("simple_ponzi"), "--out", str(tmp_path / "d"), *common]) == EXIT_OK
    detected = json.loads((tmp_path / "d" / "simple_ponzi.report.json").read_text())
    texts = {}
    for name, extra in (("custom", common), ("packaged", ["--repeats", "1"])):
        out_dir = tmp_path / name
        assert main(["batch", _write_manifest(tmp_path), "--out", str(out_dir), *extra]) == EXIT_OK
        rows = [json.loads(line) for line in (out_dir / "reports.jsonl").read_text().splitlines()]
        (sp,) = [r for r in rows if r["contract_id"] == "sp"]
        texts[name] = sp["runs"][0]["analysis_text"]
    assert texts["custom"] == detected["runs"][0]["analysis_text"]
    assert texts["custom"] != texts["packaged"]


@pytest.mark.parametrize("command", ["detect", "batch"])
@pytest.mark.parametrize("kind", ["missing", "empty"])
def test_template_dir_without_a_template_is_a_usage_error(tmp_path, capsys, command, kind):
    tdir = tmp_path / "templates"
    if kind == "empty":
        tdir.mkdir()
    target = _fx("simple_ponzi") if command == "detect" else _write_manifest(tmp_path)
    out_dir = tmp_path / "out"
    rc = main([command, target, "--out", str(out_dir), "--template-dir", str(tdir)])
    assert rc == EXIT_USAGE
    assert f"error: template directory {tdir} " in capsys.readouterr().err
    assert not out_dir.exists()


def test_metrics_command_recomputes(tmp_path, capsys):
    out_dir = tmp_path / "out"
    main(["batch", _write_manifest(tmp_path), "--out", str(out_dir), "--repeats", "1"])
    capsys.readouterr()
    rc = main(
        ["metrics", str(out_dir / "reports.jsonl"), str(tmp_path / "corpus.csv"), "--json"]
    )
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["metrics"]["bac"] == 1.0
    assert payload["overhead"]["contracts"] == 3


def test_batch_into_an_out_dir_of_another_mode_is_usage_error(tmp_path, capsys):
    # A raw journal must not stand in for full-mode reports.
    out_dir = tmp_path / "out"
    manifest = _write_manifest(tmp_path)
    assert main(["batch", manifest, "--out", str(out_dir), "--mode", "raw", "--repeats", "1"]) == 0
    journal = (out_dir / "reports.jsonl").read_text()
    capsys.readouterr()
    rc = main(["batch", manifest, "--out", str(out_dir), "--repeats", "3", "--model", "other"])
    assert rc == EXIT_USAGE
    assert "reports.jsonl: report 'sp' has mode 'raw', not 'full'" in capsys.readouterr().err
    assert (out_dir / "reports.jsonl").read_text() == journal


def test_metrics_refuses_a_reports_file_of_mixed_models(tmp_path, capsys):
    manifest = _write_manifest(tmp_path)
    for model in ("one", "two"):
        out = tmp_path / model
        assert main(["batch", manifest, "--out", str(out), "--repeats", "1", "--model", model]) == 0
    lines = (tmp_path / "one" / "reports.jsonl").read_text().splitlines()
    lines[1] = (tmp_path / "two" / "reports.jsonl").read_text().splitlines()[1]
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["metrics", str(mixed), manifest]) == EXIT_USAGE
    assert "mixed.jsonl: report 'mt' has model 'mock:two', not 'mock:one'" in capsys.readouterr().err


def test_metrics_missing_reports_is_usage_error(tmp_path, capsys):
    rc = main(["metrics", str(tmp_path / "none.jsonl"), _write_manifest(tmp_path)])
    assert rc == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_batch_bad_label_is_usage_error(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_text("id,path_or_address,label\na,x.json,scam\n")
    rc = main(["batch", str(p), "--out", str(tmp_path)])
    assert rc == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_batch_manifest_row_that_is_not_an_object_is_usage_error(tmp_path, capsys):
    p = tmp_path / "bad.jsonl"
    p.write_text("[1]\n")
    rc = main(["batch", str(p), "--out", str(tmp_path)])
    assert rc == EXIT_USAGE
    assert "bad.jsonl:1: manifest row is not a JSON object" in capsys.readouterr().err


def test_only_batch_takes_concurrency(tmp_path, monkeypatch, capsys):
    rc = main(["detect", _fx("simple_ponzi"), "--out", str(tmp_path), "--concurrency", "2"])
    assert rc == EXIT_USAGE
    assert "--concurrency" in capsys.readouterr().err
    limits = []

    def fake_run_batch(manifest, cfg, *args, **kwargs):
        limits.append(cfg.concurrency_limit)
        return []

    monkeypatch.setattr(cli_mod, "run_batch", fake_run_batch)
    manifest = _write_manifest(tmp_path)
    assert main(["batch", manifest, "--out", str(tmp_path), "--concurrency", "3"]) == EXIT_OK
    assert limits == [3]


# --- graph ------------------------------------------------------------------


def test_graph_cluster_mode(tmp_path, capsys):
    rc = main(["graph", _fx("simple_ponzi"), "--out", str(tmp_path), "--cluster", "--json"])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["nodes"] == 8
    assert payload["edges"] == 12
    text = (tmp_path / "simple_ponzi.taint.dot").read_text()
    assert 'subgraph "cluster_SimplePonzi_enter"' in text
    assert dotcheck.parse_dot(text).cluster_labels == {
        "cluster_SimplePonzi_enter": "SimplePonzi.enter"
    }


# --- fetch ------------------------------------------------------------------


def test_fetch_malformed_address(capsys):
    rc = main(["fetch", "0x1234"])
    assert rc == EXIT_USAGE
    assert "malformed address" in capsys.readouterr().err


def test_fetch_writes_source(tmp_path, capsys, monkeypatch):
    addr = "0x" + "ab" * 20

    def fake_fetch(address, cfg):
        assert address == addr
        assert cfg.api_base_url == "http://explorer.test/api"
        return SourceUnit(id=address, source_text="contract F {}")

    monkeypatch.setattr(cli_mod, "fetch_verified_source", fake_fetch)
    rc = main(
        ["fetch", addr, "--out", str(tmp_path), "--api-base", "http://explorer.test/api", "--json"]
    )
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["address"] == addr
    assert (tmp_path / f"{addr}.sol").read_text() == "contract F {}"


# --- plumbing ----------------------------------------------------------------


def test_missing_input_is_usage_error(tmp_path, capsys):
    rc = main(["analyze", str(tmp_path / "ghost.json")])
    assert rc == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "{dir}"],
        ["metrics", "{dir}", "{manifest}"],
        ["batch", "{dir}"],
        ["analyze", "{fixture}", "--out", "{file}"],
        ["graph", "{fixture}", "--out", "{file}"],
        ["detect", "{fixture}", "--out", "{file}"],
    ],
    ids=["analyze-dir", "metrics-dir", "batch-dir", "analyze-out", "graph-out", "detect-out"],
)
def test_unusable_path_is_usage_error(tmp_path, capsys, argv):
    # A directory where a file is read, or a file where --out makes a
    # directory, is an OSError: exit 2 with a message, not a traceback.
    occupied = tmp_path / "occupied"
    occupied.write_text("")
    names = {
        "dir": str(tmp_path),
        "manifest": _write_manifest(tmp_path),
        "fixture": _fx("simple_ponzi"),
        "file": str(occupied),
    }
    rc = main([arg.format(**names) for arg in argv])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["explode"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE
    capsys.readouterr()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        # argparse version action exits from inside parse_args; main converts
        # that to EXIT_OK, so call the parser directly to see the message.
        cli_mod.build_parser().parse_args(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("ponzilens ")
    assert main(["--version"]) == EXIT_OK
    capsys.readouterr()


# The wrapper an installer writes for a console_scripts entry point.
_CONSOLE_SCRIPT = """#!{python}
# -*- coding: utf-8 -*-
import re
import sys
from {module} import {import_name}
if __name__ == '__main__':
    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])
    sys.exit({func}())
"""


def test_console_script_smoke(tmp_path):
    """The `ponzilens` script declared in the package metadata runs.

    The script is built from this checkout's own metadata, as an installer
    would build it, so the test needs no install and writes only under
    `tmp_path`.
    """
    pytest.importorskip("setuptools")
    root = Path(__file__).resolve().parent.parent
    meta = subprocess.run(
        [sys.executable, "-c", "from setuptools import setup; setup()",
         "egg_info", "--egg-base", str(tmp_path)],
        cwd=root, capture_output=True, text=True, timeout=120,
    )
    assert meta.returncode == 0, meta.stderr
    dist = importlib.metadata.PathDistribution(tmp_path / "ponzilens.egg-info")
    eps = dist.entry_points.select(group="console_scripts", name="ponzilens")
    assert eps, "package should declare a ponzilens script"
    (ep,) = eps
    assert ep.attr, f"console script must name a callable: {ep.value}"

    exe = tmp_path / "bin" / "ponzilens"
    exe.parent.mkdir()
    exe.write_text(_CONSOLE_SCRIPT.format(
        python=sys.executable,
        module=ep.module,
        import_name=ep.attr.split(".")[0],
        func=ep.attr,
    ))
    exe.chmod(0o755)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [str(exe), "--version"], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=30,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ponzilens 0.1.0"
    assert out.stdout.strip() == f"ponzilens {dist.version}"
    assert dist.version == ponzilens.__version__
