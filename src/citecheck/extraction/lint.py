"""Local bibliography lint: source-independent defects, no network needed."""

from __future__ import annotations

import re
from collections import defaultdict
from collections.abc import Iterable

from .models import LintFinding, ReferenceInput
from .text import YEAR_MAX, YEAR_MIN

# Fields each entry kind is expected to carry (beyond title/identifier).
_REQUIRED_FIELDS = {
    "journal": ("venue", "year"),
    "conference": ("venue", "year"),
    "book": ("year",),
}

_CONTROL_RE = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f]")


def lint_bibliography(entries: Iterable[ReferenceInput]) -> list[LintFinding]:
    """Deterministic findings ordered by (entry_ordinal, code)."""
    entries = list(entries)
    findings: list[LintFinding] = []

    by_key: dict[str, list[ReferenceInput]] = defaultdict(list)
    for entry in entries:
        if entry.citation_key:
            by_key[entry.citation_key].append(entry)
    for key, group in by_key.items():
        if len(group) >= 2:
            for entry in group:
                findings.append(LintFinding(
                    code="duplicate_key",
                    entry_ordinal=entry.ordinal,
                    message=f"citation key {key!r} used by {len(group)} entries",
                    severity="error",
                ))

    for entry in entries:
        required = _REQUIRED_FIELDS.get(entry.entry_kind, ())
        missing = [name for name in required
                   if (name == "venue" and not entry.venue)
                   or (name == "year" and entry.year is None)]
        if entry.title is None:
            missing.insert(0, "title")
        if missing:
            findings.append(LintFinding(
                code="missing_field",
                entry_ordinal=entry.ordinal,
                message=f"{entry.entry_kind} entry missing {', '.join(missing)}",
                severity="warning",
            ))
        if entry.suspect_doi:
            findings.append(LintFinding(
                code="malformed_doi",
                entry_ordinal=entry.ordinal,
                message=f"doi {entry.suspect_doi!r} does not match 10.<registrant>/<suffix>",
                severity="error",
            ))
        if entry.year is not None and not (YEAR_MIN <= entry.year <= YEAR_MAX):
            findings.append(LintFinding(
                code="suspicious_year",
                entry_ordinal=entry.ordinal,
                message=f"year {entry.year} outside {YEAR_MIN}-{YEAR_MAX}",
                severity="warning",
            ))
        if _CONTROL_RE.search(entry.raw.original_text):
            findings.append(LintFinding(
                code="control_chars",
                entry_ordinal=entry.ordinal,
                message="entry source contains control characters",
                severity="warning",
            ))

    findings.sort(key=lambda f: (f.entry_ordinal, f.code))
    return findings
