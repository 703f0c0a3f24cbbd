from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

import corpus
from citecheck.sources import FixtureStore, Query, RawResponse, config_from_env, transport
from citecheck.sources.connectors import crossref_request


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion at the end of the run."""
    lines = []
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py" in nodeid and "::" in nodeid:
                name = nodeid.split("::")[-1]
                lines.append((name, "PASS" if outcome == "passed" else "FAIL"))
    if lines:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for name, verdict in sorted(lines):
            terminalreporter.write_line(f"  {verdict}  {name}")


@pytest.fixture(autouse=True)
def _clean_citecheck_env(monkeypatch):
    """Keep host CITECHECK_* variables from leaking into pipeline runs."""
    for name in list(os.environ):
        if name.startswith("CITECHECK_"):
            monkeypatch.delenv(name, raising=False)


@pytest.fixture(scope="session")
def corpus_paths(tmp_path_factory) -> dict[str, Path]:
    """All fixture workspaces plus the shared recorded-response store."""
    base = tmp_path_factory.mktemp("corpus")
    return corpus.build_corpus(base)


@pytest.fixture()
def replay_options(corpus_paths):
    """RunOptions factory pinned to replay mode over the shared store."""
    from citecheck.pipeline import RunOptions

    def make(path: Path, **overrides) -> RunOptions:
        defaults = dict(
            path=str(path),
            transport="replay",
            fixtures_dir=str(corpus_paths["fixtures"]),
            env={},
        )
        defaults.update(overrides)
        return RunOptions(**defaults)

    return make


@pytest.fixture()
def fetches(monkeypatch) -> list[str]:
    """The request key of every fetch a replay or record transport makes."""
    seen = []
    for cls in (transport.ReplayTransport, transport.RecordTransport):
        def spy(self, request, fetch=cls.fetch):
            seen.append(transport.request_key(request))
            return fetch(self, request)
        monkeypatch.setattr(cls, "fetch", spy)
    return seen


@pytest.fixture()
def surrogate_title(tmp_path) -> tuple[Path, Path]:
    """(folder, replay store): the folder's .bib cites one DOI, and the store's
    Crossref answer for it titles the work "Deep Learning \\ud800", with the
    lone surrogate written as a JSON escape, as a source may send it."""
    folder = tmp_path / "paper"
    folder.mkdir()
    (folder / "refs.bib").write_text(
        "@article{k, title={Deep Learning}, doi={10.1000/dl}, year={2015}}\n", encoding="utf-8")
    request = crossref_request(Query(kind="doi_lookup", text="10.1000/dl"), config_from_env({}))
    work = {"DOI": "10.1000/dl", "title": ["Deep Learning \ud800"], "type": "journal-article",
            "issued": {"date-parts": [[2015]]}}
    body = json.dumps({"status": "ok", "message": work}).encode("ascii")
    FixtureStore(tmp_path / "store").save(request.key, RawResponse(status=200, body=body))
    return folder, tmp_path / "store"
