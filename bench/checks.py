"""Output checks: the program's reports judged against the generator's ground
truth and stated properties, never against a saved copy of earlier output.

Each check returns the ordinals of the entries it found wrong, so a caller
can count a disagreeing entry as one failed operation.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from corpus import CASES, Cited, Paper

_BIB_ENTRY_RE = re.compile(r"@(\w+)\{([^,\s]+),\n(.*?)\n\}", re.S)
_BIB_FIELD_RE = re.compile(r"^\s+(\w+) = \{(.*)\},?$", re.M)


def chosen_identity(chosen: dict | None) -> tuple[str, str] | None:
    if chosen is None:
        return None
    if chosen.get("doi"):
        return ("doi", chosen["doi"])
    return ("arxiv", chosen.get("arxiv_id"))


def wrong_verdicts(report: dict, cited: list[Cited]) -> set[int]:
    """Entries whose status or chosen record disagrees with the planted truth.

    The chosen record must be the planted work's preferred manifestation:
    its DOI, or its arXiv id for a preprint-only work.
    """
    wrong: set[int] = set()
    entries = report.get("entries") or []
    for i, c in enumerate(cited, start=1):
        if i > len(entries):
            wrong.add(i)
            continue
        e = entries[i - 1]
        if (e.get("ordinal") != i or e.get("status") != c.expected_status
                or chosen_identity(e.get("chosen")) != c.expected_chosen):
            wrong.add(i)
    return wrong


def extraction_ok(report: dict, paper: Paper) -> bool:
    extraction = report.get("extraction") or {}
    return (extraction.get("entry_count") == len(paper.cited)
            and len(extraction.get("rejected") or []) == paper.rejected)


def decision_exit(report: dict) -> int | None:
    return (report.get("decision") or {}).get("exit_code")


def wrong_patches(report: dict, cited: list[Cited]) -> set[int]:
    """Every entry with a fixable planted error is patched, no other one is."""
    plan = report.get("plan") or {}
    patched = {p.get("entry_ordinal") for p in plan.get("patches") or []}
    return {i for i, c in enumerate(cited, start=1)
            if (i in patched) != CASES[c.case].patch}


def read_bib(text: str) -> dict[str, tuple[str, dict[str, str]]]:
    """key -> (entry source, fields) for the BibTeX layout the generator and
    the rewrite engine write: one ``name = {value}`` per line."""
    out = {}
    for m in _BIB_ENTRY_RE.finditer(text):
        out[m.group(2)] = (m.group(0), dict(_BIB_FIELD_RE.findall(m.group(3))))
    return out


def wrong_sidecar(sidecar: Path, original: Path, cited: list[Cited]) -> set[int]:
    """Patched entries read back equal to the catalog record; the others are
    byte-identical to what was cited."""
    try:
        written = read_bib(sidecar.read_text(encoding="utf-8"))
    except OSError:
        return set(range(1, len(cited) + 1))
    before = read_bib(original.read_text(encoding="utf-8"))
    wrong: set[int] = set()
    for i, c in enumerate(cited, start=1):
        got = written.get(c.key)
        if got is None:
            wrong.add(i)
            continue
        if not CASES[c.case].patch:
            if got[0] != before[c.key][0]:
                wrong.add(i)
            continue
        work = c.work
        fields = got[1]
        families = [a.split(",")[0].strip() for a in fields.get("author", "").split(" and ")]
        venue = fields.get("journal") or fields.get("booktitle")
        if (work is None or fields.get("title") != work.title
                or fields.get("year") != str(work.year) or fields.get("doi") != work.doi
                or venue != work.venue or families != [f for f, _ in work.authors]):
            wrong.add(i)
    return wrong


def scan_ok(payload: dict, paper: Paper) -> bool:
    skipped = {d.get("path") for d in payload.get("skipped_dirs") or []}
    paths = [c.get("path", "") for c in payload.get("candidates") or []]
    return (payload.get("selected") == paper.artifact
            and {".git", "build", "node_modules"} <= skipped
            and not any(p.startswith((".git/", "build/", "node_modules/")) for p in paths))


def mask_latency(report_text: str) -> str:
    """Canonical report with measured ``latency_ms`` values zeroed.

    The live transport times each request and the report carries the
    milliseconds; everything else in a live report is deterministic.
    """
    def zero(node):
        if isinstance(node, dict):
            return {k: (0 if k == "latency_ms" else zero(v)) for k, v in node.items()}
        if isinstance(node, list):
            return [zero(v) for v in node]
        return node

    return json.dumps(zero(json.loads(report_text)), indent=2, ensure_ascii=False,
                      sort_keys=True)
