"""MCP stdio server: protocol frames, tool surface, CLI parity."""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from citecheck import __version__, mcp_server
from citecheck.cli import build_parser
from citecheck.mcp_server import McpServer, tool_descriptors
from citecheck.pipeline import COMMANDS, RunOptions, front_end_options, run_command, run_repair
from citecheck.sources import transport

EXPECTED_TOOLS = ["scan_workspace", "analyze_references", "plan_reference_rewrite",
                  "apply_reference_rewrite", "repair_paper", "citecheck_version"]


def _exchange(lines: list[dict | str]) -> list[dict]:
    payload = "\n".join(
        line if isinstance(line, str) else json.dumps(line) for line in lines) + "\n"
    # Strict UTF-8, as a pipe to the client is; a StringIO would take any str.
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    McpServer(stdin=io.StringIO(payload), stdout=stdout).serve()
    return [json.loads(raw) for raw in stdout.buffer.getvalue().decode("utf-8").splitlines()
            if raw]


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


def test_blank_lines_non_objects_and_unknown_notifications():
    """A blank line is skipped, a JSON value that is not an object is an
    invalid request, and an unknown notification gets no reply."""
    responses = _exchange(["", "   ", "[1, 2]", "3",
                           {"jsonrpc": "2.0", "method": "notifications/bogus"},
                           {"jsonrpc": "2.0", "id": 9, "method": "tools/list"}])
    invalid = {"jsonrpc": "2.0", "id": None,
               "error": {"code": -32600, "message": "invalid request"}}
    assert responses[:2] == [invalid, invalid]
    assert [r["id"] for r in responses[2:]] == [9]


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


def test_unwritable_sidecar_is_write_denied(tmp_path, corpus_paths):
    import shutil
    workspace = tmp_path / "biomed"
    shutil.copytree(corpus_paths["biomed"], workspace)
    (workspace / "biomed.citecheck.bib").mkdir()  # where the sidecar goes
    responses = _exchange([_call("repair_paper", {
        "path": str(workspace), "mode": "replacement", "write": "sidecar",
        "transport": "replay", "fixtures_dir": str(corpus_paths["fixtures"])})])
    result = responses[0]["result"]
    assert result["isError"] is True
    assert json.loads(result["content"][0]["text"])["error"]["type"] == "WriteDenied"


def test_cli_subcommands_mirror_tools_with_one_description():
    """One command table: each CLI subcommand but serve is one MCP tool, and
    each pair shows the same description."""
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    cli = {a.dest: a.help for a in subparsers._choices_actions if a.dest != "serve"}
    tools = {t["name"]: t["description"] for t in tool_descriptors()}
    assert set(cli) == set(COMMANDS)
    assert set(tools) == {tool for tool, _ in COMMANDS.values()}
    for command, (tool, _) in COMMANDS.items():
        assert cli[command] == tools[tool]


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
    ("analyze_references", {"path": "p", "workers": 17}),
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
    # A session's first call has no earlier outcomes to start from.
    assert seen == {"workers": 1, "limit": 2, "known": {}}


# Malformed requests: every request gets an answer and the loop goes on. Object
# keys are never option names, so only the last strategy below sets options.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(st.characters() | st.characters(categories=["Cs"])),  # lone surrogates too
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.text(max_size=8).filter(lambda k: k not in PIPELINE_OPTIONS), inner, max_size=3),
    max_leaves=8)
_TOOL_NAMES = st.sampled_from(EXPECTED_TOOLS) | _JSON


@pytest.mark.parametrize("params", [[1], [], None, {}, {"name": ["x"]}, {"name": {}}, "x", 3])
def test_malformed_tool_call_params_are_invalid_params(params):
    responses = _exchange([
        {"jsonrpc": "2.0", "id": 1, "method": "tools/call", "params": params},
        {"jsonrpc": "2.0", "id": 2, "method": "tools/list"},
    ])
    assert responses[0] == {"jsonrpc": "2.0", "id": 1, "error": {
        "code": -32602, "message": "params must be an object whose name is a string"}}
    assert len(responses[1]["result"]["tools"]) == 6


@settings(max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(params=st.one_of(
    _JSON,
    st.fixed_dictionaries({"name": _TOOL_NAMES}),
    st.fixed_dictionaries({"name": _TOOL_NAMES, "arguments": _JSON}),
    # Real option names with any values, on a folder that does not exist.
    st.fixed_dictionaries({"name": _TOOL_NAMES, "arguments": st.dictionaries(
        st.sampled_from(sorted(PIPELINE_OPTIONS - {"path", "transport", "fixtures_dir"})),
        _JSON).map(lambda a: {**a, "path": "ghost"})})))
def test_any_tool_call_params_get_a_reply(params, tmp_path, monkeypatch):
    # Whatever the arguments, no run may reach the network or a real folder.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("CITECHECK_TRANSPORT", "replay")
    monkeypatch.setenv("CITECHECK_FIXTURES_DIR", str(tmp_path / "fixtures"))
    responses = _exchange([
        {"jsonrpc": "2.0", "id": 1, "method": "tools/call", "params": params},
        {"jsonrpc": "2.0", "id": 2, "method": "tools/list"},
    ])
    assert [r["id"] for r in responses] == [1, 2]
    assert ("result" in responses[0]) != ("error" in responses[0])
    assert len(responses[1]["result"]["tools"]) == 6


def test_unicode_line_breaks_stay_inside_their_message():
    """U+0085, U+2028 and U+2029 end a line for str.splitlines: a reply that
    echoes them still reads as one message per line."""
    name = "\x85\u2028\u2029"
    responses = _exchange([{"jsonrpc": "2.0", "id": 1, "method": "tools/call",
                            "params": {"name": name}}])
    assert len(responses) == 1 and name in responses[0]["error"]["message"]


def test_source_title_with_a_lone_surrogate_reaches_the_client(surrogate_title):
    """A title holding the JSON escape \\ud800 goes out escaped again: the
    client reads the report a fresh run prints, and the session goes on."""
    folder, store = surrogate_title
    arguments = {"path": str(folder), "transport": "replay", "fixtures_dir": str(store),
                 "sources": ["crossref"]}
    responses = _exchange([_call("analyze_references", arguments, request_id=1),
                           {"jsonrpc": "2.0", "id": 2, "method": "tools/list"}])
    assert [r["id"] for r in responses] == [1, 2]
    text = responses[0]["result"]["content"][0]["text"]
    assert text == run_command("analyze", RunOptions.from_arguments(arguments))[0]
    assert json.loads(text)["entries"][0]["chosen"]["title"] == "Deep Learning \ud800"


def test_tool_name_that_is_a_lone_surrogate_gets_a_reply():
    responses = _exchange([{"jsonrpc": "2.0", "id": 1, "method": "tools/call",
                            "params": {"name": "\ud800"}},
                           {"jsonrpc": "2.0", "id": 2, "method": "tools/list"}])
    assert responses[0]["error"] == {"code": -32601, "message": "unknown tool: \ud800"}
    assert len(responses[1]["result"]["tools"]) == 6


# Carry-over: a pipeline call starts from the session's settled outcomes.
def _replay_args(corpus_paths, folder: str, fixtures=None) -> dict:
    return {"path": str(corpus_paths[folder]), "transport": "replay",
            "fixtures_dir": str(fixtures or corpus_paths["fixtures"])}


def _carryable(run) -> set:
    return {(o.source, o.query) for v in run.verdicts for o in v.outcomes
            if o.failure is None or not o.failure.retryable}


def test_session_payloads_equal_a_fresh_server_per_call(corpus_paths, fetches):
    calls = [_call(tool, _replay_args(corpus_paths, folder), request_id=i)
             for i, (folder, tool) in enumerate(
                 (folder, tool) for folder in ("main", "biomed")
                 for tool in ("analyze_references", "repair_paper", "plan_reference_rewrite"))]
    session = _exchange(calls)
    assert not any(response["result"]["isError"] for response in session)
    session_fetches = len(fetches)
    fetches.clear()
    fresh = [response for call in calls for response in _exchange([call])]
    assert session == fresh
    # Repair and plan fetched nothing that analyze had fetched.
    assert session_fetches == len(fetches) // 3


def test_missing_fixture_is_not_carried(corpus_paths, tmp_path, fetches):
    fixtures = tmp_path / "fixtures"
    shutil.copytree(corpus_paths["fixtures"], fixtures)
    args = _replay_args(corpus_paths, "main", fixtures)
    complete, _ = McpServer().call_tool("repair_paper", args)
    key = fetches[0]
    fixture = transport._fixture_path(fixtures, key)
    recorded = fixture.read_bytes()
    fixture.unlink()

    server = McpServer()
    first, _ = server.call_tool("analyze_references", args)
    assert "transport" in json.dumps(json.loads(first)["source_health"])
    [table] = server.known.values()
    assert all(o.failure is None or not o.failure.retryable for o in table.values())
    fixture.write_bytes(recorded)  # recorded between the two calls
    fetches.clear()
    second, _ = server.call_tool("repair_paper", args)
    assert fetches == [key]
    assert second == complete


@pytest.mark.parametrize("change", ["fixtures_dir", "transport"])
def test_other_store_or_transport_reads_everything_again(corpus_paths, tmp_path, fetches,
                                                         monkeypatch, change):
    fixtures = tmp_path / "fixtures"
    shutil.copytree(corpus_paths["fixtures"], fixtures)
    store = transport.FixtureStore(corpus_paths["fixtures"])
    monkeypatch.setattr(transport.LiveTransport, "fetch",
                        lambda self, request: store.load(transport.request_key(request)))
    server = McpServer()
    server.call_tool("analyze_references", _replay_args(
        corpus_paths, "main", fixtures if change == "transport" else None))
    first = sorted(fetches)
    fetches.clear()
    second_args = _replay_args(corpus_paths, "main", fixtures)
    if change == "transport":
        second_args["transport"] = "record"
    payload, _ = server.call_tool("analyze_references", second_args)
    assert sorted(fetches) == first
    assert payload == McpServer().call_tool("analyze_references", second_args)[0]


def test_one_store_however_spelled_is_read_once(corpus_paths, fetches, monkeypatch):
    """The store named by its absolute path, with a trailing separator, and
    relative to the working directory is one store to the memo."""
    store = corpus_paths["fixtures"]
    monkeypatch.chdir(store.parent)
    server = McpServer()
    payloads, fetched = [], []
    for spelled in (str(store), str(store) + os.sep, store.name):
        fetches.clear()
        args = {**_replay_args(corpus_paths, "main"), "fixtures_dir": spelled}
        payloads.append(server.call_tool("analyze_references", args)[0])
        fetched.append(len(fetches))
    assert fetched[0] > 0 and fetched[1:] == [0, 0]
    assert payloads == payloads[:1] * 3


def test_a_folder_seen_earlier_in_the_session_fetches_nothing(corpus_paths, fetches):
    server = McpServer()
    main, biomed = (_replay_args(corpus_paths, folder) for folder in ("main", "biomed"))
    first, _ = server.call_tool("analyze_references", main)
    server.call_tool("analyze_references", biomed)
    fetches.clear()
    third, _ = server.call_tool("analyze_references", main)
    assert fetches == []
    assert third == first == McpServer().call_tool("analyze_references", main)[0]


def test_memo_keeps_the_newest_outcomes_up_to_its_cap(corpus_paths, fetches, monkeypatch):
    main, biomed = (_replay_args(corpus_paths, folder) for folder in ("main", "biomed"))
    from_main, from_biomed = (_carryable(run_repair(RunOptions.from_arguments(args)))
                              for args in (main, biomed))
    cap = max(len(from_main), len(from_biomed))
    assert cap < len(from_main | from_biomed)
    monkeypatch.setattr(mcp_server, "CARRY_MAX_OUTCOMES", cap)
    server = McpServer()
    tables = []
    for args, settled in ((main, from_main), (biomed, from_biomed), (main, from_main)):
        fetches.clear()
        payload, _ = server.call_tool("analyze_references", args)
        fetched = len(fetches)
        assert payload == McpServer().call_tool("analyze_references", args)[0]
        [(key, table)] = server.known.items()
        assert key == ("replay", str(corpus_paths["fixtures"]))
        assert len(table) <= cap and settled <= set(table)
        tables.append((set(table), fetched))
    # Biomed's outcomes pushed out main's oldest; main's call fetched those again.
    (_, fresh), (after_biomed, _), (_, refetched) = tables
    assert from_main - after_biomed and 0 < refetched < fresh


def test_a_crashing_tool_leaves_the_session_and_its_memo_as_they_were(
        corpus_paths, monkeypatch, capsys):
    args = _replay_args(corpus_paths, "main")
    requests = [_call("analyze_references", args, 2), _call("citecheck_version", {}, 3)]
    server = McpServer(stdin=io.StringIO("".join(json.dumps(r) + "\n" for r in requests)),
                       stdout=io.StringIO())
    server.call_tool("analyze_references", args)
    before = {key: list(table.items()) for key, table in server.known.items()}

    def crash(*args, **kwargs):
        raise RuntimeError("boom in the pipeline")

    monkeypatch.setattr(mcp_server, "run_command", crash)
    server.serve()
    failed, version = (json.loads(line) for line in server.stdout.getvalue().splitlines())
    assert failed["result"]["isError"] is True
    assert json.loads(failed["result"]["content"][0]["text"]) == {
        "error": {"type": "RuntimeError", "message": "boom in the pipeline"}}
    assert "boom in the pipeline" in capsys.readouterr().err
    assert version["id"] == 3 and version["result"]["isError"] is False
    assert {key: list(table.items()) for key, table in server.known.items()} == before


def test_source_health_equal_with_and_without_carry(corpus_paths, fetches):
    args = _replay_args(corpus_paths, "failures")
    server = McpServer()
    server.call_tool("analyze_references", args)
    analyze_fetches = len(fetches)
    fetches.clear()
    carried, _ = server.call_tool("repair_paper", args)
    repair_fetches = len(fetches)
    fresh, _ = McpServer().call_tool("repair_paper", args)
    health = json.loads(fresh)["source_health"]
    # Rate limits and transport failures are asked again; the rest is carried.
    assert 0 < repair_fetches < analyze_fetches
    assert {c for h in health for c in h["failures_by_class"]} == {
        "rate_limit", "transport", "authentication", "payload_shape"}
    assert json.loads(carried)["source_health"] == health
    assert carried == fresh


@pytest.mark.parametrize("variable,value", [("CITECHECK_TRANSPORT", "bogus"),
                                            ("CITECHECK_ENABLED_SOURCES", "foo")])
def test_bad_source_config_in_environment_is_config_error(tmp_path, monkeypatch,
                                                          variable, value):
    (tmp_path / "refs.bib").write_text("@misc{k, title={T}}\n")
    monkeypatch.setenv(variable, value)
    responses = _exchange([_call("analyze_references", {"path": str(tmp_path)}),
                           {"jsonrpc": "2.0", "id": 8, "method": "tools/list"}])
    result = responses[0]["result"]
    assert result["isError"] is True
    error = json.loads(result["content"][0]["text"])["error"]
    assert error["type"] == "ConfigError"
    assert value in error["message"]
    assert len(responses[1]["result"]["tools"]) == 6
