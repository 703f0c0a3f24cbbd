"""MCP stdio server: protocol frames, tool surface, CLI parity."""

from __future__ import annotations

import argparse
import io
import json

import pytest

from citecheck import __version__
from citecheck.cli import build_parser
from citecheck.mcp_server import McpServer, tool_descriptors
from citecheck.pipeline import front_end_options

EXPECTED_TOOLS = ["scan_workspace", "analyze_references", "plan_reference_rewrite",
                  "apply_reference_rewrite", "repair_paper", "citecheck_version"]


def _exchange(lines: list[dict | str]) -> list[dict]:
    payload = "\n".join(
        line if isinstance(line, str) else json.dumps(line) for line in lines) + "\n"
    stdout = io.StringIO()
    McpServer(stdin=io.StringIO(payload), stdout=stdout).serve()
    return [json.loads(raw) for raw in stdout.getvalue().splitlines() if raw]


def _call(name: str, arguments: dict, request_id: int = 7) -> dict:
    return {"jsonrpc": "2.0", "id": request_id, "method": "tools/call",
            "params": {"name": name, "arguments": arguments}}


def test_initialize_handshake():
    responses = _exchange([{"jsonrpc": "2.0", "id": 0, "method": "initialize",
                            "params": {}}])
    assert responses[0]["id"] == 0
    result = responses[0]["result"]
    assert result["serverInfo"]["name"] == "citecheck"
    assert "tools" in result["capabilities"]


def test_tools_list_exactly_six():
    responses = _exchange([{"jsonrpc": "2.0", "id": 1, "method": "tools/list"}])
    tools = responses[0]["result"]["tools"]
    assert [t["name"] for t in tools] == EXPECTED_TOOLS
    assert all(t["inputSchema"]["type"] == "object" for t in tools)
    # Stable across calls.
    assert tool_descriptors() == tool_descriptors()


def test_version_tool():
    responses = _exchange([_call("citecheck_version", {})])
    content = responses[0]["result"]["content"][0]
    assert json.loads(content["text"]) == {"version": __version__}
    assert responses[0]["result"]["isError"] is False


def test_malformed_json_yields_parse_error():
    responses = _exchange(["{this is not json"])
    assert responses[0]["error"]["code"] == -32700


def test_unknown_method_yields_method_not_found():
    responses = _exchange([{"jsonrpc": "2.0", "id": 3, "method": "bogus/method"}])
    assert responses[0]["error"]["code"] == -32601


def test_unknown_tool_yields_method_not_found():
    responses = _exchange([_call("invent_references", {})])
    assert responses[0]["error"]["code"] == -32601


def test_notifications_get_no_response():
    responses = _exchange([
        {"jsonrpc": "2.0", "method": "notifications/initialized"},
        {"jsonrpc": "2.0", "id": 9, "method": "tools/list"},
    ])
    assert len(responses) == 1
    assert responses[0]["id"] == 9


def test_tool_error_is_structured_not_fatal(tmp_path):
    responses = _exchange([
        _call("scan_workspace", {"path": str(tmp_path / "ghost")}, request_id=1),
        _call("citecheck_version", {}, request_id=2),
    ])
    assert len(responses) == 2  # the loop survived the failing tool
    first = responses[0]["result"]
    assert first["isError"] is True
    error = json.loads(first["content"][0]["text"])["error"]
    assert error["type"] == "RootNotFound"


def test_scan_workspace_tool(tmp_path):
    (tmp_path / "paper.bib").write_text("@misc{k, title={T}}\n")
    responses = _exchange([_call("scan_workspace", {"path": str(tmp_path)})])
    report = json.loads(responses[0]["result"]["content"][0]["text"])
    assert report["selected"] == "paper.bib"


def test_repair_paper_matches_cli_byte_for_byte(corpus_paths, capsys):
    from citecheck.cli import run
    args = {"path": str(corpus_paths["main"]), "transport": "replay",
            "fixtures_dir": str(corpus_paths["fixtures"])}
    responses = _exchange([_call("repair_paper", args)])
    mcp_text = responses[0]["result"]["content"][0]["text"]
    assert responses[0]["result"]["isError"] is False

    code = run(["repair", "--path", str(corpus_paths["main"]),
                "--transport", "replay",
                "--fixtures-dir", str(corpus_paths["fixtures"])])
    assert code == 0
    cli_text = capsys.readouterr().out
    assert cli_text == mcp_text + "\n"


def test_blocked_replace_is_error_payload_with_report(tmp_path, corpus_paths):
    import shutil
    workspace = tmp_path / "dups"
    shutil.copytree(corpus_paths["duplicates"], workspace)
    before = (workspace / "dup.bib").read_bytes()
    responses = _exchange([_call("repair_paper", {
        "path": str(workspace), "mode": "replacement", "write": "replace",
        "transport": "replay", "fixtures_dir": str(corpus_paths["fixtures"])})])
    result = responses[0]["result"]
    assert result["isError"] is True
    report = json.loads(result["content"][0]["text"])
    assert report["apply"]["error"]["type"] == "BlockedByPolicy"
    assert report["replacement"]["status"] == "blocked"
    assert (workspace / "dup.bib").read_bytes() == before


def test_apply_tool_sidecar(tmp_path, corpus_paths):
    import shutil
    workspace = tmp_path / "biomed"
    shutil.copytree(corpus_paths["biomed"], workspace)
    responses = _exchange([_call("apply_reference_rewrite", {
        "path": str(workspace), "mode": "replacement", "write": "sidecar",
        "transport": "replay", "fixtures_dir": str(corpus_paths["fixtures"])})])
    result = responses[0]["result"]
    assert result["isError"] is False
    assert (workspace / "biomed.citecheck.bib").exists()
    report = json.loads(result["content"][0]["text"])
    assert report["apply"]["applied"] is True


# The one option table (RunOptions) fixes both surfaces.
PIPELINE_OPTIONS = {"path", "mode", "write", "format", "preset", "sources", "transport",
                    "fixtures_dir", "max_depth", "regenerate_keys", "workers", "limit"}
SURFACES = [("scan", "scan_workspace", {"path", "max_depth"}),
            ("analyze", "analyze_references", PIPELINE_OPTIONS),
            ("plan", "plan_reference_rewrite", PIPELINE_OPTIONS),
            ("apply", "apply_reference_rewrite", PIPELINE_OPTIONS),
            ("repair", "repair_paper", PIPELINE_OPTIONS)]


@pytest.mark.parametrize("command,tool,expected", SURFACES)
def test_cli_flags_equal_tool_properties(command, tool, expected):
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    flags = {a.dest for a in subparsers.choices[command]._actions if a.dest != "help"}
    schema = next(t["inputSchema"] for t in tool_descriptors() if t["name"] == tool)
    fields = {name for _, name, _ in front_end_options(scan=command == "scan")}
    assert flags == set(schema["properties"]) == fields == expected
    assert schema["required"] == ["path"]
    assert schema["additionalProperties"] is False


@pytest.mark.parametrize("tool,arguments", [
    ("analyze_references", {"path": "p", "limit": 50}),
    ("analyze_references", {"path": "p", "limit": 0}),
    ("repair_paper", {"path": "p", "max_depth": 0}),
    ("scan_workspace", {"path": "p", "max_depth": 0}),
    ("analyze_references", {"path": "p", "workers": 0}),
    ("analyze_references", {"path": "p", "workers": "2"}),
    ("analyze_references", {"path": "p", "sources": ["foo"]}),
    ("repair_paper", {"path": "p", "preset": "nope"}),
    ("plan_reference_rewrite", {"path": "p", "bogus": True}),
    ("scan_workspace", {"path": "p", "mode": "review"}),
    ("scan_workspace", {}),
    ("apply_reference_rewrite", {"mode": "replacement"}),
])
def test_bad_arguments_are_usage_errors(tool, arguments):
    responses = _exchange([_call(tool, arguments)])
    result = responses[0]["result"]
    assert result["isError"] is True
    error = json.loads(result["content"][0]["text"])["error"]
    assert error["type"] == "UsageError"


def test_workers_and_limit_reach_the_run(corpus_paths, monkeypatch):
    from citecheck import pipeline
    seen = {}
    verify_entries = pipeline.verify_entries

    def spy(*args, **kwargs):
        seen.update(kwargs)
        return verify_entries(*args, **kwargs)

    monkeypatch.setattr(pipeline, "verify_entries", spy)
    responses = _exchange([_call("analyze_references", {
        "path": str(corpus_paths["main"]), "transport": "replay",
        "fixtures_dir": str(corpus_paths["fixtures"]), "workers": 1, "limit": 2})])
    assert responses[0]["result"]["isError"] is False
    assert seen == {"workers": 1, "limit": 2}
