"""Pipeline and report: determinism machinery and report completeness."""

from __future__ import annotations

import json

import pytest
import requests

import corpus
from catalog import CatalogSession
from citecheck import pipeline
from citecheck.pipeline import RunOptions, render_output, report_json, run_repair
from citecheck.rewrite import RENDER_FORMATS
from citecheck.sources import config_from_env


def _options(corpus_paths, path, **overrides) -> RunOptions:
    defaults = dict(path=str(path), transport="replay",
                    fixtures_dir=str(corpus_paths["fixtures"]), env={})
    defaults.update(overrides)
    return RunOptions(**defaults)


def test_replay_never_touches_the_network(corpus_paths, monkeypatch):
    def explode(*args, **kwargs):
        raise AssertionError("socket use under replay transport")

    monkeypatch.setattr(requests.Session, "get", explode)
    monkeypatch.setattr(requests, "get", explode)
    result = run_repair(_options(corpus_paths, corpus_paths["main"]))
    assert result.exit_code == 0


def test_report_carries_every_required_component(corpus_paths):
    report = run_repair(_options(corpus_paths, corpus_paths["main"],
                                 mode="replacement"), stage="repair").report
    # Statuses, confidence, evidence traces per entry.
    assert report["entries"]
    for entry in report["entries"]:
        assert entry["status"] in ("verified", "needs_review", "unresolved",
                                   "not_checked")
        assert 0.0 <= entry["confidence"] <= 1.0
        assert entry["evidence"]
    # Lint, worklist, duplicate-key channel, health, failure summary,
    # replacement status, key-mapping risk, plan digest.
    assert "lint" in report["extraction"]
    assert isinstance(report["worklist"], list)
    assert "duplicate_key_count" in report["summary"]
    assert [h["source"] for h in report["source_health"]] == [
        "pubmed", "crossref", "arxiv", "semantic_scholar"]
    assert "failures_by_class" in report["summary"]
    assert report["replacement"]["status"] in ("not_requested", "planned",
                                               "applied", "blocked")
    assert "key_mapping" in report["plan"]
    assert report["plan"]["plan_digest"]
    # Renderings come from `format`, not from the report.
    assert "rendered" not in report["plan"]


def test_evidence_outcomes_hold_no_query_latency_or_count(corpus_paths):
    """The evidence step holds the query; record_ids give the count; no timing."""
    report = run_repair(_options(corpus_paths, corpus_paths["main"])).report
    outcomes = [item["outcome"] for entry in report["entries"] for item in entry["evidence"]]
    assert outcomes
    for outcome in outcomes:
        assert not {"query", "latency_ms", "record_count"} & set(outcome)


def test_live_reports_are_deterministic(corpus_paths, monkeypatch):
    """The same answers after different delays give byte-identical live reports."""
    payloads = []
    for delay_s in (0.0, 0.004):
        session = CatalogSession(corpus.CATALOG, delay_s)
        monkeypatch.setattr(pipeline, "make_transport",
                            lambda mode, fixtures_dir: corpus.live_over(session))
        run = run_repair(_options(corpus_paths, corpus_paths["main"], transport="live"))
        assert session.received and run.report["config"]["transport"] == "live"
        assert any(entry["status"] == "verified" for entry in run.report["entries"])
        payloads.append(report_json(run.report))
    assert payloads[0] == payloads[1]


@pytest.mark.parametrize("folder", ["main", "mixed"])
@pytest.mark.parametrize("fmt", RENDER_FORMATS)
def test_every_stage_renders_the_same_bibliography(corpus_paths, folder, fmt):
    """One rendering path: plan and repair print what analyze prints."""
    options = _options(corpus_paths, corpus_paths[folder], mode="replacement", fmt=fmt)
    analyzed = render_output(run_repair(options, stage="analyze"), fmt)
    assert analyzed
    for stage in ("plan", "repair"):
        assert render_output(run_repair(options, stage=stage), fmt) == analyzed


def test_a_bibliography_outside_the_folder_reads_the_same_from_any_checkout(tmp_path):
    """A .tex naming ../shared/refs reports that file relative to its folder,
    so the layout gives the same report wherever it lies but for the root."""
    reports = []
    for checkout in (tmp_path / "one", tmp_path / "two" / "deeper"):
        (checkout / "shared").mkdir(parents=True)
        (checkout / "shared" / "refs.bib").write_text(
            "@article{k, title={Deep Learning}, year={2015}}\n", encoding="utf-8")
        (checkout / "paper").mkdir()
        (checkout / "paper" / "paper.tex").write_text(
            "\\documentclass{article}\n\\begin{document}\n\\cite{k}\n"
            "\\bibliography{../shared/refs}\n\\end{document}\n", encoding="utf-8")
        report = run_repair(RunOptions(path=str(checkout / "paper"), transport="replay",
                                       fixtures_dir=str(tmp_path / "store"), env={})).report
        assert report["extraction"]["bib_resources"] == ["../shared/refs.bib"]
        assert report["entries"][0]["source_path"] == "../shared/refs.bib"
        del report["root"], report["scan"]["root"]
        reports.append(report_json(report))
    assert reports[0] == reports[1]


def test_report_paths_are_relative_forward_slash(corpus_paths):
    report = run_repair(_options(corpus_paths, corpus_paths["main"])).report
    assert report["artifact"] == "references.bib"
    for candidate in report["scan"]["candidates"]:
        assert not candidate["path"].startswith("/")
        assert "\\" not in candidate["path"]
    for entry in report["entries"]:
        assert entry["source_path"] == "references.bib"


def test_rejected_entries_surface_in_report(corpus_paths):
    report = run_repair(_options(corpus_paths,
                                 corpus_paths["main"] / "field_notes.txt")).report
    assert report["extraction"]["entry_count"] == 5
    assert len(report["extraction"]["rejected"]) == 1
    assert "Unparseable" in report["extraction"]["rejected"][0]["reason"]
    lint_codes = {f["code"] for f in report["extraction"]["lint"]}
    assert "empty_entry" in lint_codes


def test_worklist_contains_only_unverified(corpus_paths):
    report = run_repair(_options(corpus_paths, corpus_paths["manifestation"])).report
    assert [w["status"] for w in report["worklist"]] == ["needs_review"]
    clean = run_repair(_options(corpus_paths, corpus_paths["main"])).report
    assert clean["worklist"] == []


def test_manifestation_conflict_never_verified_across_pipeline(corpus_paths):
    for key in ("main", "biomed", "manifestation", "duplicates", "failures"):
        result = run_repair(_options(corpus_paths, corpus_paths[key]))
        for verdict in result.verdicts:
            if any(i.code == "manifestation_conflict" for i in verdict.issues):
                assert verdict.status != "verified"


def test_single_file_and_workspace_reports_agree_on_entries(corpus_paths):
    via_workspace = run_repair(_options(corpus_paths, corpus_paths["main"])).report
    via_file = run_repair(_options(
        corpus_paths, corpus_paths["main"] / "references.bib")).report
    keys = [e["citation_key"] for e in via_workspace["entries"]]
    assert keys == [e["citation_key"] for e in via_file["entries"]]
    statuses = [e["status"] for e in via_workspace["entries"]]
    assert statuses == [e["status"] for e in via_file["entries"]]


def test_tex_artifact_traces_bib_resources(corpus_paths):
    report = run_repair(_options(corpus_paths,
                                 corpus_paths["main"] / "draft.tex")).report
    assert report["extraction"]["bib_resources"] == ["references.bib"]
    assert report["extraction"]["entry_count"] == 10


def test_report_json_is_canonical(corpus_paths):
    report = run_repair(_options(corpus_paths, corpus_paths["main"])).report
    text = report_json(report)
    assert json.loads(text) == report
    assert text == report_json(json.loads(text))  # stable under round-trip


def test_config_from_env_reads_citecheck_variables():
    env = {
        "CITECHECK_ENABLED_SOURCES": "crossref, semantic_scholar",
        "CITECHECK_TRANSPORT": "replay",
        "CITECHECK_FIXTURES_DIR": "/tmp/fx",
        "CITECHECK_PUBMED_API_KEY": "pmk",
        "CITECHECK_S2_API_KEY": "s2k",
        "CITECHECK_CROSSREF_MAILTO": "team@example.org",
    }
    config = config_from_env(env)
    assert config.enabled_sources == ("crossref", "semantic_scholar")
    assert config.transport_mode == "replay"
    assert config.fixtures_dir == "/tmp/fx"
    assert config.pubmed_api_key == "pmk"
    assert config.s2_api_key == "s2k"
    assert config.crossref_mailto == "team@example.org"


def test_semantic_scholar_disabled_by_default():
    config = config_from_env({})
    assert "semantic_scholar" not in config.enabled_sources
    assert config.enabled_sources == ("pubmed", "crossref", "arxiv")


def test_explicit_sources_override_env():
    env = {"CITECHECK_ENABLED_SOURCES": "pubmed"}
    config = config_from_env(env, sources=("arxiv",))
    assert config.enabled_sources == ("arxiv",)


def test_verdict_invariants_hold_across_corpus(corpus_paths):
    from citecheck.matching import BLOCKING_ISSUES
    for key in ("main", "biomed", "manifestation", "duplicates", "failures"):
        result = run_repair(_options(corpus_paths, corpus_paths[key]))
        for verdict in result.verdicts:
            assert 0.0 <= verdict.confidence <= 1.0
            if verdict.status == "verified":
                assert verdict.chosen is not None
                assert verdict.confidence >= 0.9
                assert not any(i.code in BLOCKING_ISSUES for i in verdict.issues)
            if verdict.status == "unresolved":
                assert verdict.confidence < 0.6
            if verdict.status != "not_checked":
                assert verdict.evidence


def test_combined_workspace_gate_interaction(corpus_paths, tmp_path):
    """All the blockers at once: duplicates, a manifestation conflict, hard
    failures, and recoverable entries in one bibliography. Every gate fires,
    every reason is reported, and nothing is written."""
    combined = tmp_path / "combined"
    combined.mkdir()
    specs = (corpus.DUPLICATES + [corpus.MANIFESTATION] + corpus.FAILURES
             + corpus.BIOMED[:2])
    corpus.write_bib(combined / "combined.bib", specs)
    before = (combined / "combined.bib").read_bytes()

    result = run_repair(_options(corpus_paths, combined, mode="replacement",
                                 write="replace"))
    assert [v.status for v in result.verdicts] == [
        "verified", "verified", "verified", "needs_review",
        "not_checked", "not_checked", "verified", "verified"]
    assert result.exit_code == 2  # auth failures under the default preset
    codes = {c for c, _ in result.decision.reasons}
    assert {"authentication_failures", "replacement_blocked_duplicate_keys",
            "replacement_blocked_manifestation_conflicts"} <= codes
    assert result.decision.replacement_allowed is False
    assert result.plan.blocked and result.plan.patches == ()
    assert result.apply_error is not None
    assert (combined / "combined.bib").read_bytes() == before


def test_run_options_take_path_objects_for_paths(tmp_path):
    options = RunOptions(path=tmp_path, fixtures_dir=tmp_path)
    assert options.path == tmp_path and options.fixtures_dir == tmp_path
