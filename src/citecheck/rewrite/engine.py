"""Rewrite planning and application.

Planning is pure: it reads the current file bytes, records their digests,
and emits non-overlapping byte-span patches. Application re-hashes before
touching anything, so a file edited since planning raises StaleFile rather
than corrupting spans. Replacement-blocked plans carry zero patches; there
is no partially-safe application path.
"""

from __future__ import annotations

import difflib
import hashlib
import json
from pathlib import Path

from .. import textnorm
from ..errors import AlignmentMismatch, BlockedByPolicy, StaleFile, WriteDenied
from ..extraction import ExtractionResult, read_text_exact
from ..extraction.bibtex import BibEntry, char_to_byte_span, parse_bibtex
from ..extraction.latex import find_cited_keys
from ..extraction.models import ReferenceInput
from ..extraction.text import entry_marker
from ..matching import BLOCKING_ISSUES, EntryVerdict
from ..policy import PolicyDecision
from ..sources import CandidateRecord
from ..workspace import sidecar_path
from .keys import assign_citation_keys
from .models import ApplyResult, KeyMapping, Patch, RewritePlan
from .render import (MergedEntry, merge_entry, patch_text_entry, render_bibliography)


def file_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# --------------------------------------------------------------------------
# Key-mapping analysis (runs before policy so unsafe renames gate the batch)
# --------------------------------------------------------------------------

def analyze_key_mapping(extraction: ExtractionResult, workspace_root: str | Path | None,
                        regenerate_keys: bool = False) -> KeyMapping:
    """Key-rename risk for this extraction.

    With regeneration off (the default) the mapping is empty and trivially
    safe. With it on, every cite-command usage of a renamed key in a .tex
    file we are not patching marks the mapping unsafe, as does any new-key
    collision.
    """
    if not regenerate_keys:
        return KeyMapping()
    keyed = [e for e in extraction.entries if e.citation_key]
    if not keyed:
        return KeyMapping()
    new_keys = assign_citation_keys(keyed)
    mapping = [(e.citation_key, new_keys[e.ordinal]) for e in keyed
               if e.citation_key != new_keys[e.ordinal]]

    claimed: dict[str, list[str]] = {}
    for entry in keyed:
        claimed.setdefault(new_keys[entry.ordinal], []).append(entry.citation_key or "")
    collisions = tuple(sorted(new for new, olds in claimed.items() if len(olds) >= 2))

    renamed_old = {old for old, _ in mapping}
    usages: list[tuple[str, int]] = []
    if workspace_root is not None and renamed_old:
        root = Path(workspace_root)
        patched = {str(Path(p)) for p in _patched_paths(extraction)}
        for tex_path in sorted(root.rglob("*.tex")):
            if str(tex_path) in patched:
                continue
            try:
                text, _ = read_text_exact(tex_path)
            except Exception:
                continue
            count = sum(1 for key in find_cited_keys(text) if key in renamed_old)
            if count:
                usages.append((tex_path.relative_to(root).as_posix(), count))
    return KeyMapping(mapping=tuple(sorted(mapping)), collisions=collisions,
                      unresolved_usages=tuple(usages))


def _patched_paths(extraction: ExtractionResult) -> list[str]:
    paths: list[str] = []
    for entry in extraction.entries:
        if entry.raw.source_path and entry.raw.source_path not in paths:
            paths.append(entry.raw.source_path)
    return paths


# --------------------------------------------------------------------------
# Planning
# --------------------------------------------------------------------------

def replacement_eligible(verdict: EntryVerdict, allow_needs_review: bool) -> bool:
    if verdict.chosen is None:
        return False
    blocking = any(i.code in BLOCKING_ISSUES for i in verdict.issues)
    if blocking:
        return False
    if verdict.status == "verified":
        return True
    return verdict.status == "needs_review" and allow_needs_review


def _norm_eq(a: str | None, b: str | None) -> bool:
    if not a and not b:
        return True
    if not a or not b:
        return False
    return textnorm.match_key(a) == textnorm.match_key(b)


def _author_eq(entry_authors, chosen_authors) -> bool:
    if not chosen_authors:
        return True
    a = [textnorm.family_key(f) for f, _ in entry_authors]
    b = [textnorm.family_key(f) for f, _ in chosen_authors]
    return a == b


def _bibtex_field_diffs(entry: ReferenceInput, chosen: CandidateRecord) -> list[tuple[str, str]]:
    """(field, new value) pairs that bring the cited entry up to the chosen record."""
    diffs: list[tuple[str, str]] = []
    if chosen.title and not _norm_eq(entry.title, chosen.title):
        diffs.append(("title", chosen.title))
    if chosen.authors and not _author_eq(entry.authors, chosen.authors):
        rendered = " and ".join(f"{f}, {g}" if g else f for f, g in chosen.authors)
        diffs.append(("author", rendered))
    if chosen.year is not None and entry.year != chosen.year:
        diffs.append(("year", str(chosen.year)))
    if chosen.venue and not _norm_eq(entry.venue, chosen.venue):
        field = "booktitle" if entry.entry_kind == "conference" else "journal"
        diffs.append((field, chosen.venue))
    if chosen.doi and entry.doi != chosen.doi:
        diffs.append(("doi", chosen.doi))
    return diffs


class _BibIndex:
    """Parsed view of each .bib file a plan touches, keyed by byte span."""

    def __init__(self):
        self._files: dict[str, tuple[str, str, dict[tuple[int, int], BibEntry]]] = {}

    def lookup(self, path: str, span: tuple[int, int]) -> tuple[str, str, BibEntry] | None:
        if path not in self._files:
            text, encoding = read_text_exact(Path(path))
            parsed = parse_bibtex(text)
            by_span = {char_to_byte_span(text, e.span, encoding): e for e in parsed.entries}
            self._files[path] = (text, encoding, by_span)
        text, encoding, by_span = self._files[path]
        entry = by_span.get(span)
        if entry is None:
            return None
        return text, encoding, entry


def _plan_bibtex_patches(entry: ReferenceInput, chosen: CandidateRecord,
                         index: _BibIndex) -> list[Patch]:
    located = index.lookup(entry.raw.source_path, entry.raw.source_span)
    if located is None:
        return []
    text, encoding, bib_entry = located
    diffs = _bibtex_field_diffs(entry, chosen)
    if not diffs:
        return []
    patches: list[Patch] = []
    additions: list[tuple[str, str]] = []
    for name, value in diffs:
        bib_field = bib_entry.get_field(name)
        if bib_field is not None:
            span = char_to_byte_span(text, bib_field.value_span, encoding)
            patches.append(Patch(
                target_path=entry.raw.source_path, span=span,
                replacement_text="{%s}" % value,
                entry_ordinal=entry.ordinal, kind="field_update",
            ))
        else:
            additions.append((name, value))
    if additions:
        if bib_entry.fields:
            anchor = bib_entry.fields[-1].value_span[1]
        else:
            anchor = bib_entry.key_span[1]
        insert_at = char_to_byte_span(text, (anchor, anchor), encoding)
        added = "".join(",\n  %s = {%s}" % (name, value) for name, value in additions)
        patches.append(Patch(
            target_path=entry.raw.source_path, span=insert_at,
            replacement_text=added,
            entry_ordinal=entry.ordinal, kind="field_update",
        ))
    return patches


def _plan_text_patch(entry: ReferenceInput, chosen: CandidateRecord,
                     key: str) -> Patch | None:
    if entry.raw.origin_format == "docx":
        return None  # review-only format, no write-back path
    merged = merge_entry(entry, chosen, key)
    if _text_entry_current(entry, merged):
        return None
    body = patch_text_entry(merged)
    original = entry.raw.original_text
    if entry.raw.origin_format == "tex" and original.lstrip().startswith("\\bibitem"):
        head_len = len(original) - len(original.lstrip())
        brace_end = original.find("}", head_len)
        if brace_end == -1:
            return None
        replacement = original[: brace_end + 1] + "\n" + body + "\n"
    else:
        marker = entry_marker(original) or ""
        replacement = f"{marker}{body}"
    return Patch(
        target_path=entry.raw.source_path,
        span=entry.raw.source_span,
        replacement_text=replacement,
        entry_ordinal=entry.ordinal,
        kind="entry_replace",
    )


def _text_entry_current(entry: ReferenceInput, merged: MergedEntry) -> bool:
    return (_norm_eq(entry.title, merged.title)
            and entry.year == merged.year
            and entry.doi == merged.doi
            and _norm_eq(entry.venue, merged.venue))


def plan_rewrite(artifact_path: str | Path, extraction: ExtractionResult,
                 verdicts: list[EntryVerdict], mode: str, policy: PolicyDecision,
                 key_mapping: KeyMapping | None = None,
                 regenerate_keys: bool = False,
                 workspace_root: str | Path | None = None) -> RewritePlan:
    """Build the rewrite plan for one artifact.

    Review mode always plans zero patches (report only). Replacement mode
    plans patches for replacement-eligible entries whose chosen record
    differs from the cited fields, unless the policy decision blocked
    replacement, in which case the plan is empty and its safety counts say
    why. Key renames require an explicitly requested, collision-free,
    fully-resolved mapping.
    """
    if len(verdicts) != len(extraction.entries) or any(
            v.entry.ordinal != e.ordinal for v, e in zip(verdicts, extraction.entries)):
        raise AlignmentMismatch("verdicts do not align with extraction entries")

    if key_mapping is None:
        key_mapping = analyze_key_mapping(extraction, workspace_root, regenerate_keys)

    allow_needs_review = policy.preset.allow_replacement_with_needs_review
    pairs = [(v.entry, v.chosen if replacement_eligible(v, allow_needs_review) else None)
             for v in verdicts]
    rendered = {fmt: render_bibliography(pairs, fmt)
                for fmt in ("json", "bibtex", "text", "markdown", "endnote")}

    safety = {
        "duplicate_keys": sum(1 for f in extraction.lint if f.code == "duplicate_key"),
        "unsafe_key_rewrites": key_mapping.unsafe_rewrite_count(),
        "manifestation_conflicts": sum(
            1 for v in verdicts
            if any(i.code == "manifestation_conflict" for i in v.issues)),
    }

    digest_paths = [str(Path(artifact_path))]
    for path in _patched_paths(extraction):
        if path not in digest_paths:
            digest_paths.append(path)
    digests: list[tuple[str, str]] = []
    encodings: list[tuple[str, str]] = []
    for path in digest_paths:
        p = Path(path)
        if p.is_file():
            digests.append((path, file_digest(p.read_bytes())))
            try:
                _, encoding = read_text_exact(p)
            except Exception:
                encoding = "utf-8"
            encodings.append((path, encoding))

    blocked = mode == "replacement" and not policy.replacement_allowed
    patches: list[Patch] = []
    if mode == "replacement" and not blocked:
        index = _BibIndex()
        keys = assign_citation_keys([v.entry for v in verdicts])
        for verdict in verdicts:
            if not replacement_eligible(verdict, allow_needs_review):
                continue
            entry, chosen = verdict.entry, verdict.chosen
            assert chosen is not None
            if entry.raw.origin_format == "bibtex":
                patches.extend(_plan_bibtex_patches(entry, chosen, index))
            else:
                patch = _plan_text_patch(entry, chosen,
                                         entry.citation_key or keys[entry.ordinal])
                if patch is not None:
                    patches.append(patch)
        if regenerate_keys and key_mapping.mapping and not key_mapping.unsafe:
            rename_map = dict(key_mapping.mapping)
            for entry in extraction.entries:
                if entry.citation_key in rename_map:
                    located = index.lookup(entry.raw.source_path, entry.raw.source_span)
                    if located is None:
                        continue
                    text, encoding, bib_entry = located
                    patches.append(Patch(
                        target_path=entry.raw.source_path,
                        span=char_to_byte_span(text, bib_entry.key_span, encoding),
                        replacement_text=rename_map[entry.citation_key],
                        entry_ordinal=entry.ordinal,
                        kind="key_rename",
                    ))

    patches.sort(key=lambda p: (p.target_path, p.span[0], p.span[1]))
    plan_digest = file_digest(json.dumps(
        [p.to_dict() for p in patches] + [key_mapping.to_dict()],
        sort_keys=True).encode("utf-8"))
    return RewritePlan(
        mode=mode,
        patches=tuple(patches),
        key_mapping=key_mapping,
        rendered=rendered,
        safety=safety,
        content_digests=tuple(digests),
        encodings=tuple(encodings),
        blocked=blocked,
        plan_digest=plan_digest,
    )


# --------------------------------------------------------------------------
# Application
# --------------------------------------------------------------------------

def _apply_patches(original: bytes, patches: list[Patch], encoding: str) -> bytes:
    data = original
    for patch in sorted(patches, key=lambda p: p.span[0], reverse=True):
        start, end = patch.span
        data = data[:start] + patch.replacement_text.encode(encoding) + data[end:]
    return data


def _unified_diff(path: str, original: bytes, patched: bytes, encoding: str) -> str:
    before = original.decode(encoding, errors="replace").splitlines(keepends=True)
    after = patched.decode(encoding, errors="replace").splitlines(keepends=True)
    name = Path(path).name
    diff = difflib.unified_diff(before, after, fromfile=name, tofile=f"{name} (rewritten)")
    return "".join(diff)


def apply_rewrite(plan: RewritePlan, write_mode: str) -> ApplyResult:
    """Apply a plan in preview, sidecar, or replace mode.

    Preview never writes. Sidecar writes `<stem>.citecheck.<ext>` next to
    each patched file and leaves originals untouched. Replace backs each
    file up to `<name>.bak` first (refusing to clobber an existing backup)
    and patches in descending span order so byte offsets stay valid.
    """
    if write_mode not in ("preview", "sidecar", "replace"):
        raise ValueError(f"unknown write mode: {write_mode}")
    if plan.blocked and write_mode in ("sidecar", "replace"):
        details = ", ".join(f"{k}={v}" for k, v in sorted(plan.safety.items()) if v)
        raise BlockedByPolicy(
            f"replacement plan is blocked by policy ({details or 'policy gate'})")

    digests = dict(plan.content_digests)
    for path, expected in digests.items():
        p = Path(path)
        if not p.is_file() or file_digest(p.read_bytes()) != expected:
            raise StaleFile(f"{path} changed since the plan was computed")

    by_target: dict[str, list[Patch]] = {}
    for patch in plan.patches:
        by_target.setdefault(patch.target_path, []).append(patch)

    encodings = dict(plan.encodings)
    diffs: list[str] = []
    written: list[str] = []
    applied = False
    for target in sorted(by_target):
        encoding = encodings.get(target, "utf-8")
        original = Path(target).read_bytes()
        patched = _apply_patches(original, by_target[target], encoding)
        diffs.append(_unified_diff(target, original, patched, encoding))
        if write_mode == "preview":
            continue
        if write_mode == "sidecar":
            out_path = sidecar_path(Path(target))
            out_path.write_bytes(patched)
            written.append(str(out_path))
            applied = True
        else:
            backup = Path(target).with_name(Path(target).name + ".bak")
            if backup.exists():
                raise WriteDenied(f"backup already exists, refusing to overwrite: {backup}")
            backup.write_bytes(original)
            Path(target).write_bytes(patched)
            written.append(str(Path(target)))
            applied = True

    return ApplyResult(
        write_mode=write_mode,
        written_paths=tuple(written),
        diff_text="".join(diffs),
        applied=applied,
    )
