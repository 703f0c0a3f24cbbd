"""Workspace scanning: rank files by how paper-like they are, pick one artifact.

Ranking is three-tiered: extension priority dominates, filename hints
break extension ties, and a bounded content probe breaks the rest.
Reports are fully deterministic (stable sort, relative forward-slash
paths) so repeated scans are byte-identical.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from .errors import NoCandidates, PermissionDenied, RootNotFound

# Extension priority, highest first. A standalone .bib is the richest
# artifact; .docx is read shallowly and ranks last.
EXTENSION_RANK = {"bib": 5, "tex": 4, "md": 3, "txt": 2, "docx": 1}

NAME_HINTS = ("reference", "paper", "manuscript", "draft", "bibliography")

# Generated-directory names skipped in addition to hidden (dot) directories.
SKIPPED_DIR_NAMES = frozenset({"node_modules", "target", "build", "dist", "out", ".git"})

PROBE_BYTES = 64 * 1024

DEFAULT_MAX_DEPTH = 8

# Sidecar writes land in `<stem>.citecheck.<ext>`; scans skip them so a
# repair's output never becomes the next run's input.
SIDECAR_MARKER = "citecheck"

_SECTION_HEADERS = ("references", "bibliography", "works cited")
_BIB_MARKERS = ("\\bibliography{", "\\addbibresource{", "\\begin{thebibliography}", "\\bibitem")


@dataclass(frozen=True)
class ScanCandidate:
    """One supported file with its ranking breakdown."""

    path: str  # relative to the scan root, forward slashes
    extension: str
    name_hint_score: int
    extension_rank: int
    content_score: int
    total_score: int
    size_bytes: int
    probe_error: str | None = None


@dataclass(frozen=True)
class ScanReport:
    root: str
    candidates: tuple[ScanCandidate, ...]
    selected: ScanCandidate | None
    skipped_dirs: tuple[tuple[str, str], ...] = field(default_factory=tuple)


def total_score(extension_rank: int, name_hint_score: int, content_score: int) -> int:
    """Deterministic combination: extension priority dominates, then hints, then content."""
    return 100 * extension_rank + 10 * name_hint_score + content_score


def _probe_signals(probe: str) -> int:
    """Count distinct reference signals in a content probe (0..3)."""
    lowered = probe.casefold()
    score = 0
    if any(
        line.strip().lstrip("#").strip().rstrip(":").strip() in _SECTION_HEADERS
        for line in lowered.splitlines()
    ):
        score += 1
    if "@" in probe and any(
        marker in lowered for marker in ("@article{", "@article(", "@inproceedings{", "@book{",
                                         "@misc{", "@string{", "@techreport{", "@incollection{",
                                         "@phdthesis{", "@mastersthesis{", "@unpublished{",
                                         "@conference{", "@proceedings{")
    ):
        score += 1
    if any(marker in lowered for marker in _BIB_MARKERS):
        score += 1
    return score


def score_candidate(candidate_path: Path, content_probe: str | None,
                    rel_path: str | None = None,
                    probe_error: str | None = None) -> ScanCandidate:
    """Score one file. `content_probe` is the first 64 KiB of decoded text.

    An unreadable probe keeps the candidate with content_score 0 and the
    failure recorded, so permission problems demote rather than hide files.
    """
    ext = candidate_path.suffix.lower().lstrip(".")
    if ext not in EXTENSION_RANK:
        raise ValueError(f"unsupported extension for scoring: {candidate_path}")
    name = candidate_path.name.casefold()
    hints = sum(1 for hint in NAME_HINTS if hint in name)
    content = _probe_signals(content_probe) if content_probe else 0
    try:
        size = candidate_path.stat().st_size
    except OSError:
        size = 0
    rank = EXTENSION_RANK[ext]
    return ScanCandidate(
        path=rel_path if rel_path is not None else candidate_path.name,
        extension=ext,
        name_hint_score=hints,
        extension_rank=rank,
        content_score=content,
        total_score=total_score(rank, hints, content),
        size_bytes=size,
        probe_error=probe_error,
    )


def sidecar_path(target: Path) -> Path:
    return target.with_name(f"{target.stem}.{SIDECAR_MARKER}{target.suffix}")


def is_sidecar(path: Path) -> bool:
    return Path(path.stem).suffix == f".{SIDECAR_MARKER}"


def _read_probe(path: Path) -> tuple[str | None, str | None]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read(PROBE_BYTES)
    except OSError as exc:
        return None, f"{type(exc).__name__}: {exc}"
    if path.suffix.lower() == ".docx":
        # Binary container; the probe heuristics only apply to text formats.
        return "", None
    return raw.decode("utf-8", errors="replace"), None


def _is_skipped_dir(name: str) -> str | None:
    if name.startswith("."):
        return "hidden directory"
    if name in SKIPPED_DIR_NAMES:
        return "generated directory"
    return None


def scan_workspace(root: str | os.PathLike[str], max_depth: int = DEFAULT_MAX_DEPTH) -> ScanReport:
    """Walk `root` and rank every supported file.

    `max_depth` counts directory levels below root: files in root itself
    are always visible, files under `a/b/c/` need max_depth >= 3. Hidden
    and generated directories are skipped wholesale and recorded; sidecar
    outputs found by the walk are never candidates. `root` may also be a
    single file, scanned as a folder of one: the report holds at most that
    file, and a named sidecar is its own candidate.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    root_path = Path(root)
    if not root_path.exists():
        raise RootNotFound(str(root))
    named = root_path.is_file()
    if not named and not os.access(root_path, os.R_OK | os.X_OK):
        raise PermissionDenied(str(root))

    candidates: list[ScanCandidate] = []
    skipped: list[tuple[str, str]] = []
    base = root_path.parent if named else root_path

    def add(entry: Path) -> None:
        ext = entry.suffix.lower().lstrip(".")
        if ext not in EXTENSION_RANK or (is_sidecar(entry) and not named):
            return
        probe, err = _read_probe(entry)
        rel = entry.relative_to(base).as_posix()
        candidates.append(score_candidate(entry, probe, rel_path=rel, probe_error=err))

    def walk(directory: Path, depth: int) -> None:
        try:
            entries = sorted(directory.iterdir(), key=lambda p: p.name)
        except PermissionError as exc:
            rel = directory.relative_to(root_path).as_posix()
            skipped.append((rel, f"unreadable: {exc.strerror or 'permission denied'}"))
            return
        for entry in entries:
            if entry.is_symlink():
                continue
            if entry.is_dir():
                reason = _is_skipped_dir(entry.name)
                rel = entry.relative_to(root_path).as_posix()
                if reason is not None:
                    skipped.append((rel, reason))
                elif depth < max_depth:
                    walk(entry, depth + 1)
            elif entry.is_file():
                add(entry)

    if named:
        add(root_path)
    else:
        walk(root_path, 0)
    candidates.sort(key=lambda c: (-c.total_score, c.path))
    skipped.sort()
    return ScanReport(
        root=str(root_path).replace(os.sep, "/"),
        candidates=tuple(candidates),
        selected=candidates[0] if candidates else None,
        skipped_dirs=tuple(skipped),
    )


def select_primary_artifact(report: ScanReport) -> str:
    """Path (relative to the scan root) of the top-ranked candidate."""
    if not report.candidates:
        raise NoCandidates(f"no supported artifact under {report.root}")
    return report.candidates[0].path
