"""Workspace scanner behavior: ranking, skipping, determinism."""

from __future__ import annotations

from pathlib import Path

import pytest

from citecheck.errors import NoCandidates, RootNotFound
from citecheck.workspace import (EXTENSION_RANK, NAME_HINTS, ScanReport, scan_workspace,
                                 score_candidate, select_primary_artifact, total_score)


def _touch(path: Path, content: str = "x") -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content, encoding="utf-8")
    return path


def scoring_oracle(name: str, extension: str, probe_has_signal: bool) -> int:
    """Independent re-statement of the scoring rule for oracle checks."""
    hints = sum(1 for hint in NAME_HINTS if hint in name.lower())
    content = 1 if probe_has_signal else 0
    return 100 * EXTENSION_RANK[extension] + 10 * hints + content


def test_python_only_tree_has_no_candidates(tmp_path):
    _touch(tmp_path / "notes.py", "print('hi')")
    report = scan_workspace(tmp_path)
    assert report.candidates == ()
    assert report.selected is None


def test_draft_tex_beats_plain_txt(tmp_path):
    _touch(tmp_path / "draft.tex", "hello")
    _touch(tmp_path / "data.txt", "hello")
    report = scan_workspace(tmp_path)
    assert report.selected is not None
    assert report.selected.path == "draft.tex"


def test_hidden_directories_are_skipped(tmp_path):
    _touch(tmp_path / ".git" / "refs.bib", "@misc{a, title={T}}")
    _touch(tmp_path / "paper.bib", "@misc{b, title={T}}")
    report = scan_workspace(tmp_path)
    assert [c.path for c in report.candidates] == ["paper.bib"]
    assert (".git", "hidden directory") in report.skipped_dirs


def test_symlinks_are_not_followed(tmp_path):
    outside = _touch(tmp_path / "outside" / "refs.bib", "@misc{a, title={T}}")
    paper = tmp_path / "paper"
    _touch(paper / "paper.bib", "@misc{b, title={T}}")
    (paper / "linked.bib").symlink_to(outside)
    (paper / "linked_dir").symlink_to(outside.parent, target_is_directory=True)
    report = scan_workspace(paper)
    assert [c.path for c in report.candidates] == ["paper.bib"]
    assert report.skipped_dirs == ()


def test_unreadable_subdirectory_is_recorded(tmp_path, monkeypatch):
    # chmod does not stop root, so the listing itself is refused.
    _touch(tmp_path / "paper.bib", "@misc{b, title={T}}")
    _touch(tmp_path / "locked" / "refs.bib", "@misc{a, title={T}}")
    iterdir = Path.iterdir

    def refuse_locked(self):
        if self.name == "locked":
            raise PermissionError(13, "Permission denied")
        return iterdir(self)
    monkeypatch.setattr(Path, "iterdir", refuse_locked)
    report = scan_workspace(tmp_path)
    assert [c.path for c in report.candidates] == ["paper.bib"]
    assert report.skipped_dirs == (("locked", "unreadable: Permission denied"),)


def test_generated_directories_are_skipped(tmp_path):
    for name in ("node_modules", "target", "build", "dist", "out"):
        _touch(tmp_path / name / "x.bib", "@misc{a, title={T}}")
    _touch(tmp_path / "real.bib", "@misc{b, title={T}}")
    report = scan_workspace(tmp_path)
    assert [c.path for c in report.candidates] == ["real.bib"]
    skipped_names = {path for path, _ in report.skipped_dirs}
    assert skipped_names == {"node_modules", "target", "build", "dist", "out"}


def test_name_hints_and_content_probe(tmp_path):
    path = _touch(tmp_path / "manuscript.tex", "\\bibliography{refs}")
    candidate = score_candidate(path, path.read_text(), rel_path="manuscript.tex")
    assert candidate.name_hint_score >= 1
    assert candidate.content_score > 0


def test_docx_probe_scores_zero_content(tmp_path):
    path = _touch(tmp_path / "x.docx", "")
    candidate = score_candidate(path, "", rel_path="x.docx")
    assert candidate.name_hint_score == 0
    assert candidate.content_score == 0
    assert candidate.extension_rank == min(EXTENSION_RANK.values())


def test_references_bib_outranks_old_bib_scoring_oracle(tmp_path):
    probe = "@article{k, title={T}}"
    a = score_candidate(_touch(tmp_path / "references.bib", probe), probe)
    b = score_candidate(_touch(tmp_path / "old.bib", probe), probe)
    assert a.total_score > b.total_score
    assert a.total_score == scoring_oracle("references.bib", "bib", True)
    assert b.total_score == scoring_oracle("old.bib", "bib", True)


def test_total_score_is_pure_function():
    assert total_score(5, 1, 1) == 511
    assert total_score(1, 0, 0) == 100


def test_single_file_root(tmp_path):
    path = _touch(tmp_path / "paper.md", "# References\n")
    report = scan_workspace(path)
    assert [c.path for c in report.candidates] == ["paper.md"]
    assert report.selected.path == "paper.md"
    # A named unsupported file is a folder of one with nothing to rank.
    report = scan_workspace(_touch(tmp_path / "paper.pdf"))
    assert report.candidates == () and report.selected is None
    # A named sidecar is its own candidate, though a walk skips it.
    sidecar = _touch(tmp_path / "paper.citecheck.md", "# References\n")
    assert scan_workspace(sidecar).selected.path == "paper.citecheck.md"
    assert "paper.citecheck.md" not in [c.path for c in scan_workspace(tmp_path).candidates]


def test_missing_root_raises(tmp_path):
    with pytest.raises(RootNotFound):
        scan_workspace(tmp_path / "nope")


def test_select_primary_artifact_tiebreak(tmp_path):
    # Equal scores: lexicographically smaller path wins.
    _touch(tmp_path / "b.txt", "data")
    _touch(tmp_path / "a.txt", "data")
    report = scan_workspace(tmp_path)
    assert select_primary_artifact(report) == "a.txt"
    ordered = sorted(report.candidates, key=lambda c: (-c.total_score, c.path))
    assert list(report.candidates) == ordered


def test_select_primary_artifact_empty_raises():
    with pytest.raises(NoCandidates):
        select_primary_artifact(ScanReport(root=".", candidates=(), selected=None))


def test_scan_is_deterministic(tmp_path):
    _touch(tmp_path / "a" / "paper.bib", "@misc{a, title={T}}")
    _touch(tmp_path / "b" / "draft.tex", "\\bibliography{x}")
    _touch(tmp_path / "notes.md", "# References")
    assert scan_workspace(tmp_path) == scan_workspace(tmp_path)


def test_adding_noncandidate_does_not_change_selection(tmp_path):
    _touch(tmp_path / "paper.bib", "@misc{a, title={T}}")
    before = scan_workspace(tmp_path).selected
    _touch(tmp_path / "script.py", "pass")
    _touch(tmp_path / "image.png", "binary-ish")
    after = scan_workspace(tmp_path).selected
    assert before == after


def test_max_depth_bounds_recursion(tmp_path):
    deep = tmp_path / "a" / "b" / "c"
    _touch(deep / "deep.bib", "@misc{a, title={T}}")
    assert scan_workspace(tmp_path, max_depth=2).candidates == ()
    assert [c.path for c in scan_workspace(tmp_path, max_depth=3).candidates] == [
        "a/b/c/deep.bib"]


def test_paths_use_forward_slashes(tmp_path):
    _touch(tmp_path / "sub" / "refs.bib", "@misc{a, title={T}}")
    report = scan_workspace(tmp_path)
    assert report.candidates[0].path == "sub/refs.bib"


def test_sidecar_is_never_a_candidate(tmp_path):
    _touch(tmp_path / "paper.md", "# References\n")
    _touch(tmp_path / "paper.citecheck.md", "# References\n")
    report = scan_workspace(tmp_path)
    assert [c.path for c in report.candidates] == ["paper.md"]


def test_repeated_sidecar_repair_is_byte_identical(tmp_path, corpus_paths, replay_options):
    import shutil

    from citecheck.pipeline import report_json, run_repair
    workspace = tmp_path / "biomed"
    shutil.copytree(corpus_paths["biomed"], workspace)
    options = replay_options(workspace, mode="replacement", write="sidecar")
    first = report_json(run_repair(options).report)
    assert (workspace / "biomed.citecheck.bib").is_file()
    assert report_json(run_repair(options).report) == first
