"""Rewrite engine: rendering, keys, patch planning, write modes."""

from __future__ import annotations

import dataclasses
import difflib
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corpus
from catalog import CatalogSession
from citecheck.errors import BlockedByPolicy, StaleFile, UnsupportedFormat, WriteDenied
from citecheck.extraction import decode_exact, extract_references, parse_bibtex
from citecheck.extraction.latex import extract_bibitems
from citecheck import textnorm
from citecheck.matching import TITLE_MISMATCH_THRESHOLD, title_similarity, verify_entries
from citecheck.pipeline import run_repair
from citecheck.policy import PRESETS, PolicyPreset, evaluate_policy, summarize_batch
from citecheck.rewrite import (analyze_key_mapping, apply_rewrite, assign_citation_keys,
                               generate_citation_key, plan_rewrite, render_bibliography,
                               sidecar_path)
from citecheck.rewrite.engine import _apply_patches, _unified_diff, file_digest
from citecheck.rewrite.models import KeyMapping, Patch, RewritePlan
from citecheck.sources import FixtureStore, ReplayTransport
from test_matching import make_candidate, make_entry

CONFIG = corpus.CONFIG


# ---------------------------------------------------------------------------
# Citation keys
# ---------------------------------------------------------------------------

def test_key_from_documented_rule():
    entry = make_entry(title="A Great Title", authors=(("Doe", "Jane"),), year=2020)
    assert generate_citation_key(entry) == "doe2020great"


def test_collision_suffixes_in_entry_order():
    entries = [
        make_entry(title="A Great Title", authors=(("Doe", "J."),), year=2020,
                   ordinal=1),
        make_entry(title="Great Expectations Revisited", authors=(("Doe", "X."),),
                   year=2020, ordinal=2),
    ]
    keys = assign_citation_keys(entries)
    assert keys == {1: "doe2020greata", 2: "doe2020greatb"}


def test_placeholders_for_missing_parts():
    entry = make_entry(title="Standard Methods", authors=(), year=2021)
    assert generate_citation_key(entry) == "anon2021standard"
    dateless = make_entry(title="Timeless Work", authors=(("Ng", "A."),), year=None)
    assert generate_citation_key(dateless) == "ngndtimeless"


def test_keys_ascii_folded():
    entry = make_entry(title="Étude on Networks", authors=(("Müller", "R."),),
                       year=2019)
    assert generate_citation_key(entry) == "muller2019etude"


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def test_empty_renders_are_valid_documents():
    assert render_bibliography([], "bibtex") == ""
    assert render_bibliography([], "text") == ""


def test_unknown_format_raises():
    with pytest.raises(UnsupportedFormat):
        render_bibliography([], "ris")
    # `json` names the report, which a front end prints; no bibliography renders as it.
    with pytest.raises(UnsupportedFormat):
        render_bibliography([], "json")


def test_bibtex_render_reparses_field_equal():
    entry = make_entry(title="Deep Learning Advances", authors=(("Doe", "Jane"),
                                                                ("Smith", "Al")),
                       year=2020, venue="Nature", doi="10.1/x")
    text = render_bibliography([(entry, None)], "bibtex")
    parsed = parse_bibtex(text)
    assert len(parsed.entries) == 1 and not parsed.errors
    fields = parsed.entries[0].field_map()
    assert fields["title"] == "Deep Learning Advances"
    assert fields["author"] == "Doe, Jane and Smith, Al"
    assert fields["journal"] == "Nature"
    assert fields["year"] == "2020"
    assert fields["doi"] == "10.1/x"
    assert parsed.entries[0].entry_type == "article"


def test_bibtex_render_orders_fields():
    entry = make_entry(doi="10.1/x")
    text = render_bibliography([(entry, None)], "bibtex")
    names = [line.strip().split(" ")[0] for line in text.splitlines()
             if "=" in line]
    assert names == ["author", "title", "journal", "year", "doi"]


def test_endnote_journal_block():
    entry = make_entry(title="A Title", authors=(("Doe", "Jane"),), year=2020,
                       venue="Nature", doi="10.1/x")
    block = render_bibliography([(entry, None)], "endnote")
    lines = block.splitlines()
    assert lines[0] == "%0 Journal Article"
    assert "%A Doe, Jane" in lines
    assert "%T A Title" in lines
    assert "%J Nature" in lines
    assert "%D 2020" in lines
    assert "%R 10.1/x" in lines


def test_numbered_text_format():
    entry = make_entry(title="A Title", authors=(("Doe", "Jane"),), year=2020,
                       venue="Nature", doi="10.1/x")
    text = render_bibliography([(entry, None)], "text")
    assert text == "[1] Jane Doe. A Title. Nature, 2020. doi:10.1/x.\n"


def test_markdown_links_doi():
    entry = make_entry(doi="10.1/x")
    text = render_bibliography([(entry, None)], "markdown")
    assert "[A study of things](https://doi.org/10.1/x)" in text


def test_chosen_record_overrides_cited_fields():
    entry = make_entry(title="Old Title", year=2019, doi=None)
    chosen = make_candidate(title="New Title", year=2020, doi="10.1/new")
    text = render_bibliography([(entry, chosen)], "bibtex")
    assert "New Title" in text
    assert "10.1/new" in text
    assert "Old Title" not in text


def test_render_parse_render_fixed_point(corpus_paths):
    entries = extract_references(corpus_paths["main"] / "references.bib").entries
    pairs = [(e, None) for e in entries]
    first = render_bibliography(pairs, "bibtex")

    def reparse_pairs(text, tmp):
        path = tmp / "roundtrip.bib"
        path.write_text(text, encoding="utf-8")
        return [(e, None) for e in extract_references(path).entries]

    import tempfile
    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir)
        second = render_bibliography(reparse_pairs(first, tmp), "bibtex")
        third = render_bibliography(reparse_pairs(second, tmp), "bibtex")
    assert second == third


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------

def _run_pipeline(workspace: Path, artifact: str, corpus_paths, mode="replacement",
                  preset="default"):
    extraction = extract_references(workspace / artifact)
    transport = ReplayTransport(FixtureStore(corpus_paths["fixtures"]))
    verdicts = verify_entries(extraction.entries, transport, CONFIG, workers=1)
    summary = summarize_batch(verdicts, extraction.lint)
    decision = evaluate_policy(summary, PRESETS[preset])
    plan = plan_rewrite(workspace / artifact, extraction, verdicts, mode, decision,
                        workspace_root=workspace)
    return extraction, verdicts, decision, plan


def test_doi_recovery_produces_field_update(corpus_paths):
    _, verdicts, decision, plan = _run_pipeline(
        corpus_paths["biomed"], "biomed.bib", corpus_paths)
    assert decision.replacement_allowed
    assert all(v.status == "verified" for v in verdicts)
    ordinals = {p.entry_ordinal for p in plan.patches}
    assert ordinals == {1, 2, 3, 4, 5}
    assert all(p.kind == "field_update" for p in plan.patches)
    for spec, verdict in zip(corpus.BIOMED, verdicts):
        assert verdict.chosen.doi == spec.doi


def test_duplicate_keys_zero_patches(corpus_paths):
    _, _, decision, plan = _run_pipeline(
        corpus_paths["duplicates"], "dup.bib", corpus_paths)
    assert decision.replacement_allowed is False
    assert plan.blocked
    assert plan.patches == ()
    assert plan.safety["duplicate_keys"] >= 2


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_an_entry_that_does_not_parse_blocks_replacement(replay_options, corpus_paths,
                                                         tmp_path, preset):
    """biomed passes every preset's gate; with an unterminated entry appended,
    whose extent nobody knows, no preset allows replacement."""
    folder = tmp_path / "biomed"
    shutil.copytree(corpus_paths["biomed"], folder)
    clean = run_repair(replay_options(folder, mode="replacement", preset=preset), stage="plan")
    assert clean.decision.replacement_allowed
    with (folder / "biomed.bib").open("a", encoding="utf-8") as bib:
        bib.write("@article{cut, title={Unterminated, year={2020}}\n")
    run = run_repair(replay_options(folder, mode="replacement", preset=preset), stage="plan")
    assert not run.decision.replacement_allowed
    assert ("replacement_blocked_syntax_errors", "1 BibTeX entries that do not parse"
            ) in run.decision.reasons
    assert run.plan.blocked and run.plan.patches == ()
    assert run.plan.safety["syntax_errors"] == 1


@pytest.mark.parametrize("folder", ["duplicates", "manifestation", "main"])
def test_plan_safety_is_the_policy_summary(replay_options, corpus_paths, folder):
    """The plan's safety counts are the decision summary's, and those count
    the duplicate-key lint, the unsafe key renames and the entries with a
    manifestation conflict."""
    run = run_repair(replay_options(corpus_paths[folder], mode="replacement",
                                    regenerate_keys=True), stage="plan")
    summary = run.decision.summary
    assert run.plan.safety == {"duplicate_keys": summary.duplicate_key_count,
                               "syntax_errors": summary.syntax_error_count,
                               "unsafe_key_rewrites": summary.unsafe_key_rewrite_count,
                               "manifestation_conflicts": summary.manifestation_conflict_count}
    assert summary.duplicate_key_count == sum(f.code == "duplicate_key"
                                              for f in run.extraction.lint)
    assert summary.unsafe_key_rewrite_count == run.plan.key_mapping.unsafe_rewrite_count()
    assert summary.syntax_error_count == sum(f.code == "syntax_error"
                                             for f in run.extraction.lint)
    assert summary.manifestation_conflict_count == sum(
        any(i.code == "manifestation_conflict" for i in v.issues) for v in run.verdicts)


def test_review_mode_plans_zero_patches(corpus_paths):
    _, _, _, plan = _run_pipeline(corpus_paths["biomed"], "biomed.bib", corpus_paths,
                                  mode="review")
    assert plan.patches == ()
    assert not plan.blocked
    assert not hasattr(plan, "rendered")  # renderings come from render_output


def test_correct_entries_produce_no_patches(corpus_paths):
    _, _, _, plan = _run_pipeline(corpus_paths["main"], "references.bib", corpus_paths)
    unchanged = {1, 2, 3, 4, 5, 7, 8, 9}  # already carry their DOIs / ids
    patched = {p.entry_ordinal for p in plan.patches}
    assert patched.isdisjoint(unchanged)


def test_patch_soundness_and_non_interference(corpus_paths, tmp_path):
    import shutil
    workspace = tmp_path / "biomed"
    shutil.copytree(corpus_paths["biomed"], workspace)
    extraction, verdicts, decision, plan = _run_pipeline(
        workspace, "biomed.bib", corpus_paths)
    original_entries = {e.ordinal: e for e in extraction.entries}

    result = apply_rewrite(plan, "replace")
    assert result.applied

    after = extract_references(workspace / "biomed.bib")
    assert len(after.entries) == len(extraction.entries)
    patched_ordinals = {p.entry_ordinal for p in plan.patches}
    for verdict, entry in zip(verdicts, after.entries):
        if entry.ordinal in patched_ordinals:
            assert entry.doi == verdict.chosen.doi
            assert entry.year == verdict.chosen.year
        else:
            assert entry.raw.original_text == original_entries[
                entry.ordinal].raw.original_text


def test_bib_edited_after_extraction_patches_only_unmoved_entries(corpus_paths, tmp_path):
    """Planning works from the file as it is now: an entry whose extracted
    text is no longer at its extracted span gets no patch, and the other
    patches still land on their own entries."""
    import shutil
    workspace = tmp_path / "edited"
    shutil.copytree(corpus_paths["biomed"], workspace)
    bib = workspace / "biomed.bib"
    extraction, verdicts, decision, _ = _run_pipeline(workspace, "biomed.bib", corpus_paths)
    # Entries 4 and 5 move; entry 2 keeps its span but not its text.
    edited = (bib.read_text()
              .replace("@article{oliveira2021p4", "% added later\n@article{oliveira2021p4")
              .replace("Single cell atlas", "Single-cell atlas"))
    bib.write_text(edited)
    before = extract_references(bib).entries
    plan = plan_rewrite(bib, extraction, verdicts, "replacement", decision,
                        workspace_root=workspace)
    assert {p.entry_ordinal for p in plan.patches} == {1, 3}

    apply_rewrite(plan, "replace")
    after = extract_references(bib).entries
    for verdict, old, new in zip(verdicts, before, after):
        if new.ordinal in (1, 3):
            assert new.doi == verdict.chosen.doi
        else:
            assert new.raw.original_text == old.raw.original_text


def test_bib_no_longer_utf8_at_planning_is_not_patched_blindly(corpus_paths, tmp_path):
    """A stray byte added after extraction makes the file decode as latin-1;
    an entry whose text has no latin-1 form gets no patch, the rest do."""
    import shutil
    workspace = tmp_path / "recoded"
    shutil.copytree(corpus_paths["biomed"], workspace)
    bib = workspace / "biomed.bib"
    bib.write_text(bib.read_text().replace(
        "  pmid = {31000101}\n}", "  pmid = {31000101},\n  keywords = {Łódź}\n}", 1),
        encoding="utf-8")
    extraction, verdicts, decision, _ = _run_pipeline(workspace, "biomed.bib", corpus_paths)
    bib.write_bytes(bib.read_bytes() + b"% \xff\n")
    plan = plan_rewrite(bib, extraction, verdicts, "replacement", decision,
                        workspace_root=workspace)
    assert dict(plan.encodings)[str(bib)] == "latin-1"
    assert {p.entry_ordinal for p in plan.patches} == {2, 3, 4, 5}
    apply_rewrite(plan, "replace")
    assert "keywords = {Łódź}" in bib.read_bytes().decode("utf-8", errors="replace")
    after = extract_references(bib).entries
    for verdict in verdicts[1:]:
        assert after[verdict.entry.ordinal - 1].doi == verdict.chosen.doi


def test_regenerated_keys_rename_at_key_spans(corpus_paths, tmp_path):
    import shutil
    workspace = tmp_path / "rekey"
    shutil.copytree(corpus_paths["biomed"], workspace)
    extraction, verdicts, decision, _ = _run_pipeline(workspace, "biomed.bib", corpus_paths)
    mapping = analyze_key_mapping(extraction, workspace, regenerate_keys=True)
    assert mapping.mapping and not mapping.unsafe
    plan = plan_rewrite(workspace / "biomed.bib", extraction, verdicts, "replacement",
                        decision, key_mapping=mapping, regenerate_keys=True,
                        workspace_root=workspace)
    assert sum(p.kind == "key_rename" for p in plan.patches) == len(mapping.mapping)
    apply_rewrite(plan, "replace")
    after = extract_references(workspace / "biomed.bib").entries
    renamed = dict(mapping.mapping)
    assert [e.citation_key for e in after] == [
        renamed.get(e.citation_key, e.citation_key) for e in extraction.entries]
    assert [e.doi for e in after] == [v.chosen.doi for v in verdicts]


def test_alignment_mismatch_is_programming_error(corpus_paths):
    from citecheck.errors import AlignmentMismatch
    extraction, verdicts, decision, _ = _run_pipeline(
        corpus_paths["biomed"], "biomed.bib", corpus_paths)
    with pytest.raises(AlignmentMismatch):
        plan_rewrite(corpus_paths["biomed"] / "biomed.bib", extraction,
                     verdicts[:-1], "review", decision)


# ---------------------------------------------------------------------------
# Key-mapping risk
# ---------------------------------------------------------------------------

def test_mapping_off_by_default(corpus_paths):
    extraction = extract_references(corpus_paths["main"] / "references.bib")
    mapping = analyze_key_mapping(extraction, corpus_paths["main"], False)
    assert mapping.mapping == ()
    assert not mapping.unsafe


def test_unresolved_usages_mark_mapping_unsafe(tmp_path, corpus_paths):
    import shutil
    workspace = tmp_path / "ws"
    shutil.copytree(corpus_paths["main"], workspace)
    extraction = extract_references(workspace / "references.bib")
    mapping = analyze_key_mapping(extraction, workspace, True)
    # draft.tex cites kumar2019bayes, whose key regenerates to a new form.
    assert any(old == "kumar2019bayes" for old, _ in mapping.mapping)
    assert mapping.unresolved_usages
    files = [f for f, _ in mapping.unresolved_usages]
    assert "draft.tex" in files
    assert mapping.unsafe
    assert mapping.unsafe_rewrite_count() > 0


def test_collisions_flagged():
    mapping = KeyMapping(mapping=(("a", "x2020y"), ("b", "x2020y")),
                         collisions=("x2020y",))
    assert mapping.unsafe
    assert mapping.unsafe_rewrite_count() == 2


# ---------------------------------------------------------------------------
# Apply modes
# ---------------------------------------------------------------------------

def _copied_plan(corpus_paths, tmp_path):
    import shutil
    workspace = tmp_path / "biomed"
    shutil.copytree(corpus_paths["biomed"], workspace)
    extraction, verdicts, decision, plan = _run_pipeline(
        workspace, "biomed.bib", corpus_paths)
    return workspace, plan


def test_preview_writes_nothing(corpus_paths, tmp_path):
    workspace, plan = _copied_plan(corpus_paths, tmp_path)
    before = (workspace / "biomed.bib").read_bytes()
    listing = sorted(p.name for p in workspace.iterdir())
    result = apply_rewrite(plan, "preview")
    assert result.applied is False
    assert result.written_paths == ()
    assert result.diff_text.count("+++") == 1
    assert (workspace / "biomed.bib").read_bytes() == before
    assert sorted(p.name for p in workspace.iterdir()) == listing


def test_sidecar_writes_exactly_one_new_file(corpus_paths, tmp_path):
    workspace, plan = _copied_plan(corpus_paths, tmp_path)
    before = (workspace / "biomed.bib").read_bytes()
    result = apply_rewrite(plan, "sidecar")
    assert result.applied
    sidecar = workspace / "biomed.citecheck.bib"
    assert result.written_paths == (str(sidecar),)
    assert sidecar.exists()
    assert (workspace / "biomed.bib").read_bytes() == before
    assert b"doi = {" in sidecar.read_bytes()


def test_replace_creates_backup(corpus_paths, tmp_path):
    workspace, plan = _copied_plan(corpus_paths, tmp_path)
    before = (workspace / "biomed.bib").read_bytes()
    result = apply_rewrite(plan, "replace")
    assert result.applied
    backup = workspace / "biomed.bib.bak"
    assert backup.read_bytes() == before
    assert (workspace / "biomed.bib").read_bytes() != before


def test_replace_refuses_existing_backup(corpus_paths, tmp_path):
    workspace, plan = _copied_plan(corpus_paths, tmp_path)
    (workspace / "biomed.bib.bak").write_text("precious")
    with pytest.raises(WriteDenied):
        apply_rewrite(plan, "replace")
    assert (workspace / "biomed.bib.bak").read_text() == "precious"


def test_stale_file_detected(corpus_paths, tmp_path):
    workspace, plan = _copied_plan(corpus_paths, tmp_path)
    path = workspace / "biomed.bib"
    path.write_text(path.read_text() + "\n% out-of-band edit\n")
    with pytest.raises(StaleFile):
        apply_rewrite(plan, "replace")


def test_second_apply_is_stale(corpus_paths, tmp_path):
    workspace, plan = _copied_plan(corpus_paths, tmp_path)
    apply_rewrite(plan, "replace")
    (workspace / "biomed.bib.bak").unlink()
    with pytest.raises(StaleFile):
        apply_rewrite(plan, "replace")


def test_blocked_plan_refuses_write(corpus_paths, tmp_path):
    import shutil
    workspace = tmp_path / "duplicates"
    shutil.copytree(corpus_paths["duplicates"], workspace)
    _, _, _, plan = _run_pipeline(workspace, "dup.bib", corpus_paths)
    before = (workspace / "dup.bib").read_bytes()
    with pytest.raises(BlockedByPolicy):
        apply_rewrite(plan, "replace")
    with pytest.raises(BlockedByPolicy):
        apply_rewrite(plan, "sidecar")
    assert (workspace / "dup.bib").read_bytes() == before


def test_sidecar_path_naming():
    assert sidecar_path(Path("refs.bib")).name == "refs.citecheck.bib"
    assert sidecar_path(Path("notes.md")).name == "notes.citecheck.md"


def test_text_format_patch_round_trips_all_fields(corpus_paths, tmp_path):
    """entry_replace bodies must survive re-extraction with fields intact,
    not just identifiers (the display text layout does not re-parse when
    authors are initials-first)."""
    import shutil
    from citecheck import textnorm
    target_dir = tmp_path / "txt"
    target_dir.mkdir()
    shutil.copy(corpus_paths["main"] / "field_notes.txt", target_dir / "field_notes.txt")
    extraction, verdicts, decision, plan = _run_pipeline(
        target_dir, "field_notes.txt", corpus_paths)
    assert plan.patches, "expected at least one text-format patch"
    assert all(p.kind == "entry_replace" for p in plan.patches)
    apply_rewrite(plan, "replace")
    after = extract_references(target_dir / "field_notes.txt")
    patched = {p.entry_ordinal for p in plan.patches}
    assert len(after.entries) == len(extraction.entries)
    for verdict, entry in zip(verdicts, after.entries):
        if entry.ordinal not in patched:
            continue
        chosen = verdict.chosen
        assert entry.doi == chosen.doi
        assert entry.year == chosen.year
        assert textnorm.match_key(entry.title) == textnorm.match_key(chosen.title)
        assert [textnorm.family_key(f) for f, _ in entry.authors] == [
            textnorm.family_key(f) for f, _ in chosen.authors]
        if chosen.venue:
            assert textnorm.match_key(entry.venue) == textnorm.match_key(chosen.venue)


def test_existing_field_update_replaces_value(corpus_paths, tmp_path):
    """A drifted year in the cited entry is corrected in place (value-span
    replacement), alongside the DOI addition."""
    import shutil
    workspace = tmp_path / "yearfix"
    workspace.mkdir()
    text = (corpus_paths["biomed"] / "biomed.bib").read_text()
    mutated = text.replace("  year = {2019},", "  year = {2018},", 1)
    assert mutated != text
    (workspace / "biomed.bib").write_text(mutated)
    extraction, verdicts, decision, plan = _run_pipeline(
        workspace, "biomed.bib", corpus_paths)
    assert verdicts[0].status == "verified"  # identifier-free, still 0.955
    first_patches = [p for p in plan.patches if p.entry_ordinal == 1]
    assert len(first_patches) == 2  # year value replacement + doi insertion
    apply_rewrite(plan, "replace")
    after = extract_references(workspace / "biomed.bib")
    assert after.entries[0].year == 2019
    assert after.entries[0].doi == corpus.BIOMED[0].doi


def test_inline_bibitem_entry_replace(corpus_paths, tmp_path):
    """Inline thebibliography entries are rewritten in place, key preserved."""
    spec = corpus.MAIN_TXT[4]
    workspace = tmp_path / "inline"
    workspace.mkdir()
    tex = ("\\documentclass{article}\n\\begin{document}\n"
           "Body text~\\cite{ok1}.\n"
           "\\begin{thebibliography}{9}\n"
           f"\\bibitem{{ok1}} Brown, T. ({spec.year}). {spec.title}. {spec.venue}.\n"
           "\\end{thebibliography}\n\\end{document}\n")
    (workspace / "inline.tex").write_text(tex)
    extraction, verdicts, decision, plan = _run_pipeline(
        workspace, "inline.tex", corpus_paths)
    assert [p.kind for p in plan.patches] == ["entry_replace"]
    apply_rewrite(plan, "replace")
    content = (workspace / "inline.tex").read_text()
    assert "\\bibitem{ok1}" in content
    assert "\\end{thebibliography}" in content
    after = extract_references(workspace / "inline.tex")
    assert after.entries[0].doi == spec.doi


def test_natbib_bibitem_head_survives_entry_replace(corpus_paths, tmp_path):
    """A natbib label may hold braces; the rewrite keeps the whole head, so
    the key every \\cite names is still there."""
    spec = corpus.MAIN_TXT[4]
    workspace = tmp_path / "natbib"
    workspace.mkdir()
    head = f"\\bibitem[{{Brown({spec.year})}}]{{ok1}}"
    tex = ("\\begin{document}\nBody~\\citet{ok1}.\n\\begin{thebibliography}{9}\n"
           f"{head} Brown, T. ({spec.year}). {spec.title}. {spec.venue}.\n"
           "\\end{thebibliography}\n\\end{document}\n")
    (workspace / "natbib.tex").write_text(tex)
    _, _, _, plan = _run_pipeline(workspace, "natbib.tex", corpus_paths)
    assert [p.kind for p in plan.patches] == ["entry_replace"]
    assert plan.patches[0].replacement_text.startswith(head + "\n")
    apply_rewrite(plan, "replace")
    content = (workspace / "natbib.tex").read_text()
    assert [item.key for item in extract_bibitems(content)] == ["ok1"]
    assert extract_references(workspace / "natbib.tex").entries[0].doi == spec.doi


@pytest.mark.parametrize("fmt", ["txt", "bib"])
def test_authors_alone_correct_a_bib_entry_but_not_a_text_entry(corpus_paths, tmp_path, fmt):
    """Only the author list is wrong. A .bib entry gets its author field
    updated; a text entry is left as it is, since not every author list
    reads back from a rewritten text entry as written."""
    spec = dataclasses.replace(corpus.MAIN_TXT[0], authors=(("Okamura", "K."),))
    workspace = tmp_path / fmt
    workspace.mkdir()
    if fmt == "txt":
        corpus.write_txt(workspace / "refs.txt", [spec], include_rejected=False)
    else:
        corpus.write_bib(workspace / "refs.bib", [spec])
    _, verdicts, decision, plan = _run_pipeline(workspace, f"refs.{fmt}", corpus_paths)
    assert decision.replacement_allowed
    assert verdicts[0].chosen.authors == corpus.MAIN_TXT[0].authors
    if fmt == "txt":
        assert plan.patches == ()
    else:
        assert [(p.kind, p.replacement_text) for p in plan.patches] == [
            ("field_update", "{Okamoto, K.}")]


def test_manuscript_edited_after_extraction_gets_no_entry_replace(corpus_paths, tmp_path):
    """The entry_replace span comes from extraction; once an edit moves the
    entry, planning drops the patch instead of overwriting the moved text."""
    spec = corpus.MAIN_TXT[4]
    workspace = tmp_path / "inline"
    workspace.mkdir()
    tex = ("\\begin{document}\nBody~\\cite{ok1}.\n\\begin{thebibliography}{9}\n"
           f"\\bibitem{{ok1}} Brown, T. ({spec.year}). {spec.title}. {spec.venue}.\n"
           "\\end{thebibliography}\n\\end{document}\n")
    (workspace / "inline.tex").write_text(tex)
    extraction, verdicts, decision, plan = _run_pipeline(
        workspace, "inline.tex", corpus_paths)
    assert [p.kind for p in plan.patches] == ["entry_replace"]
    (workspace / "inline.tex").write_text(tex.replace("Body", "A longer body"))
    plan = plan_rewrite(workspace / "inline.tex", extraction, verdicts, "replacement",
                        decision, workspace_root=workspace)
    assert plan.patches == ()


def test_replace_checks_every_backup_before_writing(tmp_path):
    """A refused backup of the second target leaves the first untouched too."""
    first, second = tmp_path / "a.bib", tmp_path / "b.bib"
    first.write_bytes(b"@misc{a, year = {2019}}\n")
    second.write_bytes(b"@misc{b, year = {2019}}\n")
    (tmp_path / "b.bib.bak").write_bytes(b"precious")
    plan = RewritePlan(
        mode="replacement",
        patches=tuple(Patch(str(path), (17, 21), "2020", n, "field_update")
                      for n, path in enumerate((first, second), 1)),
        key_mapping=KeyMapping(), safety={},
        content_digests=tuple((str(p), file_digest(p.read_bytes())) for p in (first, second)),
        encodings=((str(first), "utf-8"), (str(second), "utf-8")))
    with pytest.raises(WriteDenied):
        apply_rewrite(plan, "replace")
    assert first.read_bytes() == b"@misc{a, year = {2019}}\n"
    assert second.read_bytes() == b"@misc{b, year = {2019}}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.bib", "b.bib", "b.bib.bak"]


def test_latin1_file_gets_no_patch_its_codec_cannot_encode(corpus_paths, tmp_path):
    """A replacement with no latin-1 form leaves its entry unpatched; the
    other entries are patched and the sidecar is written."""
    import shutil
    workspace = tmp_path / "latin1"
    shutil.copytree(corpus_paths["biomed"], workspace)
    bib = workspace / "biomed.bib"
    bib.write_bytes(bib.read_bytes() + b"% caf\xe9\n")
    extraction, verdicts, decision, _ = _run_pipeline(workspace, "biomed.bib", corpus_paths)
    chosen = verdicts[1].chosen
    verdicts[1] = dataclasses.replace(verdicts[1], chosen=dataclasses.replace(
        chosen, title=chosen.title + " in Łódź"))
    plan = plan_rewrite(bib, extraction, verdicts, "replacement", decision,
                        workspace_root=workspace)
    assert dict(plan.encodings)[str(bib)] == "latin-1"
    assert {p.entry_ordinal for p in plan.patches} == {1, 3, 4, 5}
    result = apply_rewrite(plan, "sidecar")
    after = extract_references(sidecar_path(bib)).entries
    assert after[1].raw.original_text == extraction.entries[1].raw.original_text
    assert result.written_paths == (str(sidecar_path(bib)),)
    assert [e.doi for e in after[2:]] == [v.chosen.doi for v in verdicts[2:]]


# ---------------------------------------------------------------------------
# Preview diff
# ---------------------------------------------------------------------------

_HUNK_HEADER = re.compile(r"@@ -(\d+)(?:,(\d+))? \+\d+(?:,(\d+))? @@\n")
_DIFF_LINE = re.compile(r"[^\r\n]*(?:\r\n|\r|\n)?")


def _apply_hunks(before: list[str], diff: str) -> list[str]:
    """The lines `diff` turns `before` into. Old lines are matched by their
    known text, since a line without a newline runs into the next one."""
    if not diff:
        return list(before)
    body = diff.split("\n", 2)[2]  # past the ---/+++ lines
    after, i, k = [], 0, 0
    while k < len(body):
        header = _HUNK_HEADER.match(body, k)
        first, old_n, new_n = int(header[1]), int(header[2] or 1), int(header[3] or 1)
        start = first - 1 if old_n else first
        after += before[i:start]
        i, k = start, header.end()
        while old_n or new_n:
            tag = body[k]
            if tag == "+":
                line = _DIFF_LINE.match(body, k + 1)[0]
                after.append(line)
                new_n -= 1
            else:
                line = before[i]
                assert tag in " -" and body.startswith(line, k + 1)
                i, old_n = i + 1, old_n - 1
                if tag == " ":
                    after.append(line)
                    new_n -= 1
            k += 1 + len(line)
    return after + before[i:]


@st.composite
def _patched_text(draw, alphabet="ab}é\r\n"):
    """(text, codec, patches): random non-overlapping patches on character
    boundaries, empty spans and replacements, BOF and EOF included."""
    text = draw(st.text(alphabet, max_size=60))
    codec = draw(st.sampled_from(["utf-8", "latin-1"]))
    cuts = sorted(draw(st.lists(st.integers(0, len(text)), max_size=8)))
    patches = [Patch("x.bib", (len(text[:s].encode(codec)), len(text[:e].encode(codec))),
                     draw(st.text(alphabet, max_size=6)), 1, "field_update")
               for s, e in zip(cuts[::2], cuts[1::2])]
    return text, codec, patches


@settings(max_examples=500, deadline=None, database=None)
@given(_patched_text())
@example(("a\r\r\raa", "utf-8",  # the patches cancel out across one line
          [Patch("x.bib", (0, 0), "", 1, "field_update"),
           Patch("x.bib", (0, 4), "a\r\r\raa", 1, "field_update"),
           Patch("x.bib", (4, 6), "", 1, "field_update")]))
def test_preview_diff_hunks_rebuild_the_patched_lines(case):
    text, codec, patches = case
    data = text.encode(codec)
    after = _apply_patches(data, patches, codec).decode(codec).splitlines(keepends=True)
    before = text.splitlines(keepends=True)
    diff = _unified_diff("dir/x.bib", data, patches, codec)
    assert _apply_hunks(before, diff) == after
    assert (diff == "") == (before == after)
    if diff:
        assert diff.startswith("--- x.bib\n+++ x.bib (rewritten)\n@@ -")
    unchanged = [dataclasses.replace(p, replacement_text=data[p.span[0]:p.span[1]].decode(codec))
                 for p in patches]
    assert _unified_diff("x.bib", data, unchanged, codec) == ""


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.integers(0, 10**4), unique=True, max_size=199),
       st.sampled_from(["\n", "\r\n", "\r"]), st.booleans(), st.data())
def test_preview_diff_equals_difflib_on_distinct_lines(numbers, newline, final_newline, data):
    text = "".join(f"line {n}{newline}" for n in numbers)
    if not final_newline:
        text = text.rstrip(newline)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(text)), max_size=8)))
    patches = [Patch("x.bib", (s, e), data.draw(st.text("XYZ\r\n", max_size=8)), 1,
                     "field_update") for s, e in zip(cuts[::2], cuts[1::2])]
    original = text.encode()
    after = _apply_patches(original, patches, "utf-8").decode()
    expected = "".join(difflib.unified_diff(
        text.splitlines(keepends=True), after.splitlines(keepends=True),
        fromfile="x.bib", tofile="x.bib (rewritten)"))
    assert _unified_diff("x.bib", original, patches, "utf-8") == expected


def test_preview_diff_equals_difflib_when_a_patch_makes_a_twin_line():
    """A patch that turns `line 1004` into `line 1` next to an unchanged
    `line 1`: difflib pairs the unchanged line with the new one."""
    numbers = [*range(100, 108), *range(1000, 1005), 0, 2, 3, 1]
    text = "".join(f"line {n}\n" for n in numbers)
    patches = [Patch("x.bib", (118, 137), "\n", 1, "field_update")]
    after = _apply_patches(text.encode(), patches, "utf-8").decode()
    expected = "".join(difflib.unified_diff(
        text.splitlines(keepends=True), after.splitlines(keepends=True),
        fromfile="x.bib", tofile="x.bib (rewritten)"))
    assert expected.endswith(" line 1\n+ine 3\n+line 1\n")
    assert _unified_diff("x.bib", text.encode(), patches, "utf-8") == expected


def test_preview_diff_keeps_final_closing_brace_as_context():
    """A patch in the last entry of a long .bib shows its closing brace as
    context, not as removed and added again."""
    entries = "".join("@article{k%d,\n  title = {T%d},\n  year = {2019},\n  doi = {10,5/%d}\n}\n"
                      % (n, n, n) for n in range(60))
    original = entries.encode()
    start = original.rindex(b"10,5/59")
    patch = Patch("refs.bib", (start, start + 7), "10.5/59", 60, "field_update")
    assert _unified_diff("refs.bib", original, [patch], "utf-8") == (
        "--- refs.bib\n+++ refs.bib (rewritten)\n@@ -296,5 +296,5 @@\n"
        " @article{k59,\n   title = {T59},\n   year = {2019},\n-  doi = {10,5/59}\n+  doi = {10.5/59}\n }\n")


# ---------------------------------------------------------------------------
# Chimeric citations: no patch turns one work's title into another's
# ---------------------------------------------------------------------------

# The works a chimera is put together from: those Crossref knows by their DOI,
# under their own title.
WORKS = [spec for spec in corpus.CATALOG
         if spec.doi and spec.crossref_mode == "match" and not spec.result_title]
# Every title the simulated sources answer with.
CATALOG_TITLES = {textnorm.match_key(spec.record_title) for spec in corpus.CATALOG}

# Replacement patches for every eligible entry, needs_review included.
OPEN_PRESET = PolicyPreset("open", max_unresolved_ratio=1.0, max_not_checked_ratio=1.0,
                           min_verified_ratio=0.0, fail_on_auth_failure=False,
                           allow_replacement_with_needs_review=True)


def _splice(a: str, b: str) -> str:
    """The first half of title `a`'s words, then the second half of `b`'s."""
    wa, wb = a.split(), b.split()
    return " ".join(wa[:len(wa) // 2] + wb[len(wb) // 2:])


@st.composite
def _chimeras(draw):
    """A citation put together from up to four catalog works: the title (or
    a splice of two titles), the DOI (or none), the authors, and the year
    and venue, each from any of them."""
    works = st.sampled_from(WORKS)
    title_work, other, author_work, year_work = (draw(works) for _ in range(4))
    doi_work = draw(st.none() | works)
    title = draw(st.sampled_from((title_work.title, _splice(title_work.title, other.title))))
    return corpus.RefSpec("c", title, author_work.authors, year_work.journal_year,
                          venue=year_work.venue, doi=doi_work.doi if doi_work else None)


def _replacement_run(specs):
    """The entries of a bibliography of `specs` before and after a
    replacement run over the simulated sources that patches every eligible entry."""
    specs = [dataclasses.replace(spec, key=f"chimera{i}") for i, spec in enumerate(specs)]
    with tempfile.TemporaryDirectory() as tmp:
        bib = Path(tmp) / "refs.bib"
        corpus.write_bib(bib, specs)
        extraction = extract_references(bib)
        sources = corpus.live_over(CatalogSession(corpus.CATALOG, share=0.5))
        verdicts = verify_entries(extraction.entries, sources, CONFIG)
        decision = evaluate_policy(summarize_batch(verdicts, extraction.lint), OPEN_PRESET)
        plan = plan_rewrite(bib, extraction, verdicts, "replacement", decision,
                            workspace_root=tmp)
        assert not plan.blocked
        bib.write_bytes(_apply_patches(bib.read_bytes(), list(plan.patches), "utf-8"))
        return extraction.entries, extract_references(bib).entries


def test_chimera_with_a_real_title_and_doi_gets_its_authors_patched():
    """Title and DOI of one work, authors of another: the identifier lifts
    the match, and replacement rewrites the authors but not the title."""
    work, other = corpus.MAIN_BIB[0], corpus.MAIN_BIB[1]
    [before], [after] = _replacement_run([dataclasses.replace(work, authors=other.authors)])
    assert [f for f, _ in before.authors] == [f for f, _ in other.authors]
    assert [f for f, _ in after.authors] == [f for f, _ in work.authors]
    assert after.title == before.title == work.title


@settings(max_examples=150, deadline=None)
@given(chimeras=st.lists(_chimeras(), min_size=1, max_size=4))
def test_no_replacement_sets_a_title_to_another_works_title(chimeras):
    """However a citation splices one work's title with others' DOI,
    authors, year and venue, replacement gives it another catalog work's
    title only by the identifier lift: the cited DOI's own title, when the
    cited title is plausible for it (title similarity >= 0.6)."""
    before, after = _replacement_run(chimeras)
    for old, new in zip(before, after, strict=True):
        key = textnorm.match_key(new.title)
        if key == textnorm.match_key(old.title) or key not in CATALOG_TITLES:
            continue
        doi_work = next((spec for spec in WORKS if spec.doi == old.doi), None)
        assert doi_work is not None, (old.title, new.title)
        assert key == textnorm.match_key(doi_work.title), (old.title, new.title)
        assert title_similarity(old.title, doi_work.title) >= TITLE_MISMATCH_THRESHOLD


@pytest.mark.xfail(strict=True, reason="the identifier lift retitles a near-twin: a cited "
                   "title at similarity >= 0.6 to the DOI's record becomes that record's")
def test_near_twin_title_with_the_twins_doi_keeps_its_title():
    """Two works of a numbered series differ by one title word (similarity
    7/9). A citation of the first one's title with the second one's DOI
    should go to review, not be retitled as the second work."""
    first, second = corpus.MIXED[0], corpus.MIXED[1]
    assert title_similarity(first.title, second.title) >= TITLE_MISMATCH_THRESHOLD
    [before], [after] = _replacement_run([dataclasses.replace(first, doi=second.doi)])
    assert after.title == before.title == first.title


# --------------------------------------------------------------------------
# Patches planned on the spans extraction recorded
# --------------------------------------------------------------------------

_BIB_VALUES = st.sampled_from(["{Plain}", "{Ünïcödé Łódź}", '"Quoted {Brace}"', "2020",
                               "jan", "mac # { Suffix}", "{Ŧ} # \" ü\"", "{}"])


@st.composite
def _bib_files(draw):
    """A .bib of a few entries with duplicate fields, macros, quoted values,
    `(` entries and multi-byte text, and the codec it is written in."""
    entries = ['@string{mac = "Macro Ü"}']
    for i in range(draw(st.integers(1, 4))):
        names = draw(st.lists(st.sampled_from(["title", "author", "year", "journal",
                                               "doi", "note"]), max_size=5))
        body = ",".join(f"\n  {name} = {draw(_BIB_VALUES)}" for name in names)
        open_, close = draw(st.sampled_from([("{", "}"), ("(", ")")]))
        key = draw(st.sampled_from(["k", "Ключ", "é2020"])) + str(i)
        entries.append(f"@article{open_}{key},{body}{draw(st.sampled_from(['', ',']))}\n{close}")
    text = draw(st.sampled_from(["", "ß prélude\n"])) + "\n\n".join(entries) + "\n"
    encoding = draw(st.sampled_from(["utf-8", "latin-1"]))
    return text.encode(encoding, errors="replace")


def _same_plans_as_the_reparse(path: Path) -> None:
    import locate_by_parse
    from citecheck.rewrite.engine import _plan_bibtex_patches

    extraction = extract_references(path)
    raw_bytes = path.read_bytes()
    files = {str(path): (raw_bytes, decode_exact(raw_bytes)[1])}
    for entry in extraction.entries:
        raw = entry.raw
        located = locate_by_parse._locate_bib_entry(raw, files)
        assert raw.field_names == tuple(f.name for f in located.fields)
        assert [raw.source_span[0] + len(raw.original_text[:i].encode(files[str(path)][1]))
                for i in raw.inner_spans] == [pos for span in (located.key_span, *(
                    f.value_span for f in located.fields)) for pos in span]
        for diffs, new_key in ([], "renamed"), ([("title", "T"), ("volume", "7")], None), (
                [("year", "1999"), ("doi", "10.1/x"), ("booktitle", "B")], "k2"):
            assert (_plan_bibtex_patches(entry, diffs, new_key, files)
                    == locate_by_parse.plan_bibtex_patches(entry, diffs, new_key, files))


def test_recorded_spans_plan_what_a_reparse_plans_on_the_corpus(corpus_paths):
    bibs = sorted(Path(corpus_paths["main"]).parent.rglob("*.bib"))
    assert bibs
    for bib in bibs:
        _same_plans_as_the_reparse(bib)


@settings(max_examples=150, deadline=None)
@given(_bib_files())
def test_recorded_spans_plan_what_a_reparse_plans(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "refs.bib"
        path.write_bytes(data)
        _same_plans_as_the_reparse(path)


def test_rewrite_imports_no_input_grammar():
    """Planning works on recorded spans: of extraction's grammars, rewrite/
    imports only the cite-command scan of .tex files."""
    import ast

    imported = set()
    for module in (Path(__file__).parents[1] / "src" / "citecheck" / "rewrite").glob("*.py"):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module:
                imported |= {(node.module.lstrip("."), a.name) for a in node.names}
    assert not {m for m, _ in imported} & {"extraction.bibtex", "extraction.text"}
    assert {n for m, n in imported if m == "extraction.latex"} <= {"find_cited_keys"}
