"""CLI surface: flags, exit codes, output selection."""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
import zipfile
from pathlib import Path

import pytest

from citecheck.cli import run
from citecheck.extraction.docx import DOCUMENT_XML_MAX_BYTES
from citecheck.pipeline import RunOptions, run_command

SRC = Path(__file__).resolve().parents[1] / "src"


def _replay_args(command, path, corpus_paths, *extra):
    return [command, "--path", str(path), "--transport", "replay",
            "--fixtures-dir", str(corpus_paths["fixtures"]), *extra]


def test_version_prints_semver(capsys):
    assert run(["version"]) == 0
    out = capsys.readouterr().out.strip()
    parts = out.split(".")
    assert len(parts) == 3 and all(p.isdigit() for p in parts)


def test_usage_error_exits_64(capsys):
    assert run(["analyze"]) == 64  # --path is required
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_flag_exits_64(capsys):
    assert run(["repair", "--path", "x", "--bogus"]) == 64


@pytest.mark.parametrize("command,flag", [
    ("analyze", ["--limit", "50"]),
    ("analyze", ["--limit", "0"]),
    ("repair", ["--max-depth", "0"]),
    ("scan", ["--max-depth", "0"]),
    ("analyze", ["--workers", "0"]),
    ("analyze", ["--sources", "foo"]),
    ("analyze", ["--workers", "17"]),
])
def test_out_of_range_option_exits_64(tmp_path, capsys, command, flag):
    (tmp_path / "refs.bib").write_text("@misc{k, title={T}}\n")
    assert run([command, "--path", str(tmp_path), *flag]) == 64
    err = capsys.readouterr().err
    assert "usage" in err.lower()
    assert flag[0].lstrip("-").replace("-", "_") in err


def test_no_command_exits_64(capsys):
    assert run([]) == 64


def test_serve_answers_on_standard_streams(monkeypatch, capsys):
    # A text layer over bytes, as a process's standard input is.
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(
        b'{"jsonrpc": "2.0", "id": 1, "method": "tools/list"}\n')))
    assert run(["serve"]) == 0
    assert len(json.loads(capsys.readouterr().out)["result"]["tools"]) == 6


def test_scan_outputs_report(tmp_path, capsys):
    (tmp_path / "paper.bib").write_text("@misc{k, title={T}}\n")
    assert run(["scan", "--path", str(tmp_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["selected"] == "paper.bib"


def test_scan_missing_root_exits_2(tmp_path, capsys):
    assert run(["scan", "--path", str(tmp_path / "ghost")]) == 2
    assert "RootNotFound" in capsys.readouterr().err


def test_docx_that_inflates_past_the_cap_exits_2(tmp_path, capsys):
    """A small .docx whose document.xml inflates past the read cap is refused
    with one stderr line, not read whole."""
    paper = tmp_path / "paper"
    paper.mkdir()
    xml = (b'<w:document xmlns:w="http://schemas.openxmlformats.org/wordprocessingml/2006/main">'
           b"<w:body><w:p><w:r><w:t>" + b"a" * DOCUMENT_XML_MAX_BYTES
           + b"</w:t></w:r></w:p></w:body></w:document>")
    with zipfile.ZipFile(paper / "paper.docx", "w", zipfile.ZIP_DEFLATED) as archive:
        archive.writestr("word/document.xml", xml)
    assert (paper / "paper.docx").stat().st_size < 100_000
    assert run(["analyze", "--path", str(paper), "--transport", "replay",
                "--fixtures-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "CorruptArchive" in err


def test_repair_clean_corpus_exits_0(corpus_paths, capsys):
    code = run(_replay_args("repair", corpus_paths["main"], corpus_paths))
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["artifact"] == "references.bib"
    assert report["summary"]["ratios"]["verified"] == 1.0
    assert report["decision"]["exit_code"] == 0
    assert report["replacement"]["status"] == "not_requested"


def test_analyze_failures_corpus_exits_2(corpus_paths, capsys):
    code = run(_replay_args("analyze", corpus_paths["failures"], corpus_paths))
    assert code == 2
    report = json.loads(capsys.readouterr().out)
    assert report["summary"]["ratios"]["not_checked"] == 1.0


def test_title_without_content_words_gets_a_report(tmp_path, capsys):
    """Titles of stop words only or of non-Latin words have no relaxed
    pass-3 query: with no source answering, the entries escalate through
    all three passes and the run ends in a report, not a traceback."""
    paper, fixtures = tmp_path / "paper", tmp_path / "fixtures"
    paper.mkdir()
    fixtures.mkdir()
    (paper / "refs.bib").write_text(
        "@article{a, title={The Of And}, author={Doe, Jane}, year={2020}}\n"
        "@article{b, title={Σύγχρονη φυσική}, author={Doe, Jane}, year={2020}}\n",
        encoding="utf-8")
    code = run(["analyze", "--path", str(paper), "--transport", "replay",
                "--fixtures-dir", str(fixtures)])
    report = json.loads(capsys.readouterr().out)
    assert code == report["decision"]["exit_code"]
    assert [e["passes_used"] for e in report["entries"]] == [3, 3]
    assert all(step["query"]["kind"] != "relaxed_search"
               for e in report["entries"] for step in e["evidence"])


def _citecheck_strict_utf8(*argv: str, stdin: bytes | None = None) -> subprocess.CompletedProcess:
    """`citecheck` in a child process whose stdout refuses what UTF-8 cannot encode."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8")
    return subprocess.run([sys.executable, "-m", "citecheck.cli", *argv], env=env,
                          capture_output=True, input=stdin)


@pytest.mark.parametrize("line", [b"\xff", b"[" * 100_000], ids=["not-utf-8", "nested-too-deep"])
def test_serve_answers_a_malformed_line_and_the_next(line):
    """Over a byte pipe, a line that is not UTF-8 or that nests too deeply for
    json.loads gets the parse-error reply, and the server reads on."""
    tools_list = b'{"jsonrpc": "2.0", "id": 1, "method": "tools/list"}'
    proc = _citecheck_strict_utf8("serve", stdin=line + b"\n" + tools_list + b"\n")
    assert (proc.returncode, proc.stderr) == (0, b"")
    parse_error, listed = [json.loads(reply) for reply in proc.stdout.splitlines()]
    assert (parse_error["id"], parse_error["error"]["code"]) == (None, -32700)
    assert len(listed["result"]["tools"]) == 6


def test_source_title_with_a_lone_surrogate_ends_in_a_report(surrogate_title):
    """A replayed title holding the JSON escape \\ud800 is printed as that
    escape, so the report reads back to the one a run builds."""
    folder, store = surrogate_title
    argv = ["--path", str(folder), "--transport", "replay", "--fixtures-dir", str(store),
            "--sources", "crossref"]
    proc = _citecheck_strict_utf8("analyze", *argv)
    assert b"Traceback" not in proc.stderr
    report = json.loads(proc.stdout)
    options = RunOptions(path=str(folder), transport="replay", fixtures_dir=str(store),
                         sources=("crossref",))
    assert report == json.loads(run_command("analyze", options)[0])
    assert report["entries"][0]["chosen"]["title"] == "Deep Learning \ud800"
    assert proc.returncode == report["decision"]["exit_code"]


def test_undecodable_file_name_ends_in_a_scan_report(tmp_path):
    name = os.fsdecode(b"r\xffefs.bib")  # "r\udcffefs.bib": a surrogate stands for 0xff
    (tmp_path / name).write_text("@misc{k, title={T}}\n", encoding="utf-8")
    proc = _citecheck_strict_utf8("scan", "--path", str(tmp_path))
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert [c["path"] for c in json.loads(proc.stdout)["candidates"]] == [name]


def test_strict_preset_flips_exit_code(corpus_paths, capsys):
    # The manifestation workspace verifies 0% of entries (1 needs_review),
    # which passes lenient but violates the stricter verified minimums.
    args = _replay_args("analyze", corpus_paths["manifestation"], corpus_paths)
    assert run(args + ["--preset", "lenient"]) == 0
    capsys.readouterr()
    assert run(args + ["--preset", "strict"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert any("verified_ratio" in r["code"] for r in report["decision"]["reasons"])


def test_format_bibtex_prints_rendering(corpus_paths, capsys):
    code = run(_replay_args("plan", corpus_paths["biomed"], corpus_paths,
                            "--format", "bibtex"))
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("@article{")
    assert json.loads("1")  # sanity: nothing to parse here; output is not JSON


def test_apply_sidecar_via_cli(tmp_path, corpus_paths, capsys):
    import shutil
    workspace = tmp_path / "biomed"
    shutil.copytree(corpus_paths["biomed"], workspace)
    code = run(_replay_args("apply", workspace, corpus_paths,
                            "--mode", "replacement", "--write", "sidecar"))
    assert code == 0
    assert (workspace / "biomed.citecheck.bib").exists()
    report = json.loads(capsys.readouterr().out)
    assert report["replacement"]["status"] == "applied"
    assert report["apply"]["written_paths"] == ["biomed.citecheck.bib"]


def test_blocked_replace_reports_and_preserves_file(tmp_path, corpus_paths, capsys):
    import shutil
    workspace = tmp_path / "dups"
    shutil.copytree(corpus_paths["duplicates"], workspace)
    before = (workspace / "dup.bib").read_bytes()
    code = run(_replay_args("repair", workspace, corpus_paths,
                            "--mode", "replacement", "--write", "replace"))
    assert code == 0  # ratios pass; replacement is blocked, not the batch
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["replacement"]["status"] == "blocked"
    assert report["decision"]["replacement_allowed"] is False
    assert report["plan"]["patch_count"] == 0
    assert (workspace / "dup.bib").read_bytes() == before
    assert "blocked" in captured.err.lower()


def test_replay_without_fixtures_dir_is_operational_error(tmp_path, capsys):
    (tmp_path / "refs.bib").write_text("@misc{k, title={T}}\n")
    code = run(["analyze", "--path", str(tmp_path), "--transport", "replay"])
    assert code == 2


def test_unresolved_injection_flips_strict_exit(corpus_paths, capsys):
    # Seven resolvable entries plus three nobody indexes: lenient tolerates
    # the 0.3 unresolved ratio, strict does not.
    args = _replay_args("analyze", corpus_paths["mixed"], corpus_paths)
    assert run(args + ["--preset", "lenient"]) == 0
    capsys.readouterr()
    assert run(args + ["--preset", "strict"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["summary"]["ratios"]["unresolved"] == 0.3
    assert any("unresolved_ratio_exceeded" == r["code"]
               for r in report["decision"]["reasons"])


def test_analyze_nonjson_format_renders_from_verdicts(corpus_paths, capsys):
    code = run(_replay_args("analyze", corpus_paths["biomed"], corpus_paths,
                            "--format", "endnote"))
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("%0 Journal Article")
    assert out.count("%0 ") == 5


@pytest.mark.parametrize("variable,value,message", [
    ("CITECHECK_TRANSPORT", "bogus", "unknown transport mode: bogus"),
    ("CITECHECK_ENABLED_SOURCES", "foo", "unknown source in configuration: foo"),
])
def test_bad_source_config_in_environment_exits_2(tmp_path, capsys, monkeypatch,
                                                   variable, value, message):
    (tmp_path / "refs.bib").write_text("@misc{k, title={T}}\n")
    monkeypatch.setenv(variable, value)
    assert run(["analyze", "--path", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"citecheck: ConfigError: {message}\n"


def test_unwritable_sidecar_exits_2_with_one_line(tmp_path, corpus_paths, capsys):
    import shutil
    workspace = tmp_path / "biomed"
    shutil.copytree(corpus_paths["biomed"], workspace)
    (workspace / "biomed.citecheck.bib").mkdir()  # where the sidecar goes
    code = run(_replay_args("repair", workspace, corpus_paths,
                            "--mode", "replacement", "--write", "sidecar"))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("citecheck: WriteDenied: cannot write: ")
    assert captured.err.count("\n") == 1


def test_unwritable_record_store_exits_2_before_any_request(tmp_path, capsys, monkeypatch):
    import requests
    sent = []
    monkeypatch.setattr(requests.Session, "get", lambda *a, **k: sent.append(a))
    (tmp_path / "refs.bib").write_text("@misc{k, title={A title to look up}}\n")
    store = tmp_path / "store"
    store.write_text("a file, not a directory")
    code = run(["analyze", "--path", str(tmp_path), "--transport", "record",
                "--fixtures-dir", str(store)])
    captured = capsys.readouterr()
    assert code == 2
    assert sent == []
    assert captured.err.startswith("citecheck: ConfigError: cannot create fixtures directory")
    assert captured.err.count("\n") == 1


_NO_HTTP_STACK = r"""
import io, json, sys
fixtures, paper, out = sys.argv[1:]
loaded = {}
import citecheck.cli as cli
loaded["import"] = "requests" in sys.modules
replay = ["--path", paper, "--transport", "replay", "--fixtures-dir", fixtures]
for name, argv in [("version", ["version"]), ("scan", ["scan", "--path", paper]),
                   ("analyze", ["analyze", *replay]),
                   ("repair", ["repair", *replay, "--mode", "replacement",
                               "--write", "sidecar"])]:
    cli.run(argv)
    loaded[name] = "requests" in sys.modules
from citecheck.mcp_server import McpServer
args = {"path": paper, "transport": "replay", "fixtures_dir": fixtures}
lines = [{"jsonrpc": "2.0", "id": 0, "method": "initialize", "params": {}},
         {"jsonrpc": "2.0", "id": 1, "method": "tools/list"}]
lines += [{"jsonrpc": "2.0", "id": n, "method": "tools/call",
           "params": {"name": name, "arguments": args}}
          for n, name in enumerate(["analyze_references", "repair_paper"], 2)]
stdout = io.StringIO()
McpServer(stdin=io.StringIO("\n".join(map(json.dumps, lines)) + "\n"), stdout=stdout).serve()
loaded["mcp"] = "requests" in sys.modules
loaded["mcp_results"] = [json.loads(line)["result"].get("isError")
                         for line in stdout.getvalue().splitlines()]
from citecheck.sources.transport import LiveTransport
LiveTransport()
loaded["live"] = "requests" in sys.modules
with open(out, "w", encoding="utf-8") as fh:
    json.dump(loaded, fh)
"""


def test_only_a_live_transport_loads_the_http_stack(tmp_path, corpus_paths):
    """Import, version, scan, replay runs and an MCP session over replay
    never import requests; the first LiveTransport does."""
    paper = tmp_path / "biomed"
    shutil.copytree(corpus_paths["biomed"], paper)
    out = tmp_path / "loaded.json"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", _NO_HTTP_STACK, str(corpus_paths["fixtures"]),
                    str(paper), str(out)], env=env, check=True, capture_output=True)
    loaded = json.loads(out.read_text(encoding="utf-8"))
    assert loaded == {"import": False, "version": False, "scan": False, "analyze": False,
                      "repair": False, "mcp": False, "mcp_results": [None, None, False, False],
                      "live": True}
    assert (paper / "biomed.citecheck.bib").is_file()
