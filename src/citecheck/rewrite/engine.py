"""Rewrite planning and application.

One rule decides what a correction changes: `_field_diffs` compares an entry
with its merged view. An eligible BibTeX entry gets field updates, a text
entry is rewritten whole unless only its authors differ, .docx is review-only.

Planning is pure: it reads the current file bytes, records their digests,
and emits non-overlapping byte-span patches. Application re-hashes before
touching anything, so a file edited since planning raises StaleFile rather
than corrupting spans. Replacement-blocked plans carry zero patches; there
is no partially-safe application path.
"""

from __future__ import annotations

import bisect
import difflib
import hashlib
import itertools
import json
from pathlib import Path

from .. import textnorm
from ..errors import AlignmentMismatch, BlockedByPolicy, StaleFile, WriteDenied
from ..extraction import ExtractionResult, decode_exact, read_text_exact
from ..extraction.latex import find_cited_keys
from ..extraction.models import RawReference, ReferenceInput
from ..matching import BLOCKING_ISSUES, EntryVerdict
from ..policy import PolicyDecision
from ..sources import CandidateRecord
from ..workspace import sidecar_path
from .keys import assign_citation_keys
from .models import WRITE_MODES, ApplyResult, KeyMapping, Patch, RewritePlan
from .render import MergedEntry, bibtex_authors, merge_pairs, patch_text_entry


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
    return list(dict.fromkeys(entry.raw.source_path for entry in extraction.entries
                              if entry.raw.source_path))


# --------------------------------------------------------------------------
# Planning
# --------------------------------------------------------------------------

def replacement_eligible(verdict: EntryVerdict, allow_needs_review: bool) -> bool:
    if verdict.chosen is None:
        return False
    if any(i.code in BLOCKING_ISSUES for i in verdict.issues):
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


def _field_diffs(entry: ReferenceInput, merged: MergedEntry) -> list[tuple[str, str]]:
    """(BibTeX field, value) pairs the merged entry corrects; none without a record."""
    diffs: list[tuple[str, str]] = []
    if not _norm_eq(entry.title, merged.title):
        diffs.append(("title", merged.title))
    if ([textnorm.family_key(f) for f, _ in entry.authors]
            != [textnorm.family_key(f) for f, _ in merged.authors]):
        diffs.append(("author", bibtex_authors(merged.authors)))
    if entry.year != merged.year:
        diffs.append(("year", str(merged.year)))
    if not _norm_eq(entry.venue, merged.venue):
        diffs.append(("booktitle" if entry.entry_kind == "conference" else "journal",
                      merged.venue))
    if entry.doi != merged.doi:
        diffs.append(("doi", merged.doi))
    return diffs


def _unmoved_codec(raw: RawReference, files: dict[str, tuple[bytes, str]]) -> str | None:
    """The codec of the entry's file if its planned bytes still hold the
    extracted text at the extracted span; None if not, as a patch there
    would land on whatever moved in. Where it holds, a character offset into
    the extracted text lies at its encoded prefix's length past the span's start."""
    data, encoding = files.get(raw.source_path, (b"", "utf-8"))
    start, end = raw.source_span
    try:
        expected = raw.original_text.encode(encoding)
    except UnicodeEncodeError:  # the file no longer decodes as it did at extraction
        return None
    return encoding if data[start:end] == expected else None


def _plan_bibtex_patches(entry: ReferenceInput, diffs: list[tuple[str, str]],
                         new_key: str | None,
                         files: dict[str, tuple[bytes, str]]) -> list[Patch]:
    """Field updates for `diffs` and a rename to `new_key`, either optional,
    on the spans extraction recorded."""
    raw = entry.raw
    codec = None if not diffs and new_key is None else _unmoved_codec(raw, files)
    if codec is None:
        return []

    def at(i: int) -> int:  # the file's byte offset of the i-th recorded offset
        return raw.source_span[0] + len(raw.original_text[:raw.inner_spans[i]].encode(codec))

    edits: list[tuple[tuple[int, int], str, str]] = []  # (span, text, kind)
    additions: list[str] = []
    for name, value in diffs:
        if name in raw.field_names:  # the first field of a name is the one read
            i = 2 + 2 * raw.field_names.index(name)
            edits.append(((at(i), at(i + 1)), "{%s}" % value, "field_update"))
        else:
            additions.append(",\n  %s = {%s}" % (name, value))
    if additions:  # after the last field's value, or the key if there is none
        anchor = at(-1)
        edits.append(((anchor, anchor), "".join(additions), "field_update"))
    if new_key is not None:
        edits.append(((at(0), at(1)), new_key, "key_rename"))
    return [Patch(target_path=raw.source_path, span=span, replacement_text=text,
                  entry_ordinal=entry.ordinal, kind=kind) for span, text, kind in edits]


def _plan_text_patches(entry: ReferenceInput, diffs: list[tuple[str, str]],
                       merged: MergedEntry, files: dict[str, tuple[bytes, str]]) -> list[Patch]:
    raw = entry.raw
    if raw.origin_format == "docx":
        return []  # review-only format, no write-back path
    # Authors alone call for no rewrite: not every author list reads back as
    # written (see patch_text_entry), and such an entry would be patched on every run.
    if all(name == "author" for name, _ in diffs) or _unmoved_codec(raw, files) is None:
        return []
    head, body = raw.original_text[:raw.head_length], patch_text_entry(merged)
    replacement = f"{head}\n{body}\n" if raw.body_on_own_line else head + body
    return [Patch(
        target_path=raw.source_path,
        span=raw.source_span,
        replacement_text=replacement,
        entry_ordinal=entry.ordinal,
        kind="entry_replace",
    )]


def _encodable(patches: list[Patch], files: dict[str, tuple[bytes, str]]) -> list[Patch]:
    """An entry's patches, or none if a replacement has no form in its file's
    codec (a latin-1 file cannot take a title with `Ł`)."""
    try:
        for patch in patches:
            patch.replacement_text.encode(files[patch.target_path][1])
    except UnicodeEncodeError:
        return []
    return patches


def eligible_pairs(verdicts: list[EntryVerdict], allow_needs_review: bool
                   ) -> list[tuple[ReferenceInput, CandidateRecord | None]]:
    """(entry, chosen record) per verdict; the record only where replacement is eligible."""
    return [(v.entry, v.chosen if replacement_eligible(v, allow_needs_review) else None)
            for v in verdicts]


def plan_rewrite(artifact_path: str | Path, extraction: ExtractionResult,
                 verdicts: list[EntryVerdict], mode: str, policy: PolicyDecision,
                 key_mapping: KeyMapping | None = None,
                 regenerate_keys: bool = False,
                 workspace_root: str | Path | None = None) -> RewritePlan:
    """Build the rewrite plan for one artifact.

    Review mode always plans zero patches (report only). Replacement mode
    plans patches for replacement-eligible entries whose chosen record
    differs from the cited fields, unless the policy decision blocked
    replacement, in which case the plan is empty and its safety counts,
    taken from the policy's summary, say why. Key renames require an explicitly requested, collision-free,
    fully-resolved mapping.
    """
    if len(verdicts) != len(extraction.entries) or any(
            v.entry.ordinal != e.ordinal for v, e in zip(verdicts, extraction.entries)):
        raise AlignmentMismatch("verdicts do not align with extraction entries")

    if key_mapping is None:
        key_mapping = analyze_key_mapping(extraction, workspace_root, regenerate_keys)

    pairs = eligible_pairs(verdicts, policy.preset.allow_replacement_with_needs_review)

    # path -> (bytes, codec): read once, hashed, and planned over.
    files: dict[str, tuple[bytes, str]] = {}
    for path in dict.fromkeys([str(Path(artifact_path)), *_patched_paths(extraction)]):
        if Path(path).is_file():
            data = Path(path).read_bytes()
            files[path] = (data, decode_exact(data)[1])

    blocked = mode == "replacement" and not policy.replacement_allowed
    patches: list[Patch] = []
    if mode == "replacement" and not blocked:
        renames = (dict(key_mapping.mapping)
                   if regenerate_keys and not key_mapping.unsafe else {})
        for (entry, _), merged in zip(pairs, merge_pairs(pairs)):
            diffs = _field_diffs(entry, merged)
            if entry.raw.origin_format == "bibtex":
                planned = _plan_bibtex_patches(entry, diffs,
                                               renames.get(entry.citation_key), files)
            else:
                planned = _plan_text_patches(entry, diffs, merged, files)
            patches += _encodable(planned, files)

    patches.sort(key=lambda p: (p.target_path, p.span[0], p.span[1]))
    plan_digest = file_digest(json.dumps(
        [p.to_dict() for p in patches] + [key_mapping.to_dict()],
        sort_keys=True).encode("utf-8"))
    return RewritePlan(
        mode=mode,
        patches=tuple(patches),
        key_mapping=key_mapping,
        safety=policy.summary.safety,
        content_digests=tuple((path, file_digest(data)) for path, (data, _) in files.items()),
        encodings=tuple((path, encoding) for path, (_, encoding) in files.items()),
        blocked=blocked,
        plan_digest=plan_digest,
    )


# --------------------------------------------------------------------------
# Application
# --------------------------------------------------------------------------

def _apply_patches(original: bytes, patches: list[Patch], encoding: str) -> bytes:
    parts, pos = [], 0
    for patch in sorted(patches, key=lambda p: p.span):
        parts += (original[pos:patch.span[0]], patch.replacement_text.encode(encoding))
        pos = patch.span[1]
    return b"".join(parts + [original[pos:]])


class _StitchedMatcher(difflib.SequenceMatcher):
    """A matcher over opcodes built elsewhere, for `get_grouped_opcodes`."""

    def __init__(self, opcodes: list[tuple[str, int, int, int, int]]):
        super().__init__(None, (), ())
        self._stitched = opcodes

    def get_opcodes(self) -> list[tuple[str, int, int, int, int]]:
        return list(self._stitched)  # get_grouped_opcodes edits the list it gets


def _line_window(starts: list[int], start: int, end: int) -> tuple[int, int]:
    """The lines holding characters start-1 through end. A patch can move the
    line break just before or after its span (it may split or join a CRLF),
    so those lines can change too; no line outside them can."""
    lo = bisect.bisect_right(starts, max(start - 1, 0)) - 1
    hi = bisect.bisect_right(starts, end) if end < starts[-1] else len(starts) - 1
    return lo, hi


def _add_opcode(opcodes: list[tuple[str, int, int, int, int]],
                opcode: tuple[str, int, int, int, int]) -> None:
    """Append, merging adjacent `equal`s as difflib would emit them."""
    if opcode[0] == "equal" and opcodes and opcodes[-1][0] == "equal":
        tag, i1, _, j1, _ = opcodes[-1]
        opcodes[-1] = (tag, i1, opcode[2], j1, opcode[4])
    else:
        opcodes.append(opcode)


def _hunk_range(start: int, stop: int) -> str:
    """A unified-diff range: 1-based first line and count; an empty range
    names the line before it."""
    length = stop - start
    if length == 1:
        return str(start + 1)
    return f"{start + 1 if length else start},{length}"


def _unified_diff(path: str, original: bytes, patches: list[Patch], encoding: str) -> str:
    """The file before and after its patches as a unified diff with 3 lines of
    context. Lines are matched only in a window around each patch; between
    windows both sides hold the same unpatched text, line for line."""
    before_parts: list[str] = []
    after_parts: list[str] = []
    spans: list[tuple[int, int, int, int]] = []  # character spans, before and after
    pos = before_len = after_len = 0
    for patch in sorted(patches, key=lambda p: p.span):
        kept = original[pos:patch.span[0]].decode(encoding, errors="replace")
        removed = original[patch.span[0]:patch.span[1]].decode(encoding, errors="replace")
        b_start, a_start = before_len + len(kept), after_len + len(kept)
        before_len, after_len = b_start + len(removed), a_start + len(patch.replacement_text)
        spans.append((b_start, before_len, a_start, after_len))
        before_parts += (kept, removed)
        after_parts += (kept, patch.replacement_text)
        pos = patch.span[1]
    tail = original[pos:].decode(encoding, errors="replace")
    before = "".join(before_parts + [tail]).splitlines(keepends=True)
    after = "".join(after_parts + [tail]).splitlines(keepends=True)
    before_starts = list(itertools.accumulate(map(len, before), initial=0))
    after_starts = list(itertools.accumulate(map(len, after), initial=0))

    # Windows that overlap or touch are merged, then trimmed to the lines that
    # differ. A window also absorbs a lone shared line between it and the one
    # before it, or the file's start or end: whole-file difflib can pair such a
    # line with its twin inside the window, where a longer run of shared lines
    # stays paired with itself.
    touching: list[list[int]] = []
    for b_start, b_end, a_start, a_end in spans:
        i1, i2 = _line_window(before_starts, b_start, b_end)
        j1, j2 = _line_window(after_starts, a_start, a_end)
        if touching and (i1 <= touching[-1][1] or j1 <= touching[-1][3]):
            touching[-1][1], touching[-1][3] = i2, j2
        else:
            touching.append([i1, i2, j1, j2])
    windows = [[0, 0, 0, 0]]
    for i1, i2, j1, j2 in touching + [[len(before), len(before), len(after), len(after)]]:
        while i1 < i2 and j1 < j2 and before[i2 - 1] == after[j2 - 1]:
            i2, j2 = i2 - 1, j2 - 1
        while i1 < i2 and j1 < j2 and before[i1] == after[j1]:
            i1, j1 = i1 + 1, j1 + 1
        if i1 <= windows[-1][1] + 1:
            windows[-1][1], windows[-1][3] = i2, j2
        else:
            windows.append([i1, i2, j1, j2])

    opcodes: list[tuple[str, int, int, int, int]] = []
    i = j = 0
    for i1, i2, j1, j2 in windows:
        if i < i1:
            _add_opcode(opcodes, ("equal", i, i1, j, j1))
        matcher = difflib.SequenceMatcher(None, before[i1:i2], after[j1:j2], autojunk=False)
        for tag, a1, a2, b1, b2 in matcher.get_opcodes():
            _add_opcode(opcodes, (tag, i1 + a1, i1 + a2, j1 + b1, j1 + b2))
        i, j = i2, j2

    name = Path(path).name
    lines: list[str] = []
    for group in _StitchedMatcher(opcodes).get_grouped_opcodes(3):
        if not lines:
            lines += (f"--- {name}\n", f"+++ {name} (rewritten)\n")
        lines.append(f"@@ -{_hunk_range(group[0][1], group[-1][2])} "
                     f"+{_hunk_range(group[0][3], group[-1][4])} @@\n")
        for tag, a1, a2, b1, b2 in group:
            if tag == "equal":
                lines += (" " + line for line in before[a1:a2])
            else:
                lines += ("-" + line for line in before[a1:a2])
                lines += ("+" + line for line in after[b1:b2])
    return "".join(lines)


def apply_rewrite(plan: RewritePlan, write_mode: str) -> ApplyResult:
    """Apply a plan in preview, sidecar, or replace mode.

    Preview never writes. Sidecar writes `<stem>.citecheck.<ext>` next to
    each patched file and leaves originals untouched. Replace backs each
    file up to `<name>.bak` first; if any backup already exists it writes
    nothing at all. A write the system refuses (an OSError) raises
    WriteDenied; files written before it stay written. Each file's patches
    are joined in ascending span order over the bytes checked against the
    plan, so byte offsets stay valid.
    `diff_text` shows the hunks around each patch with 3 lines of context.
    """
    if write_mode not in WRITE_MODES:
        raise ValueError(f"unknown write mode: {write_mode}")
    if plan.blocked and write_mode in ("sidecar", "replace"):
        details = ", ".join(f"{k}={v}" for k, v in sorted(plan.safety.items()) if v)
        raise BlockedByPolicy(
            f"replacement plan is blocked by policy ({details or 'policy gate'})")

    # The bytes checked against the plan are the bytes patched.
    originals: dict[str, bytes] = {}
    for path, expected in plan.content_digests:
        p = Path(path)
        data = p.read_bytes() if p.is_file() else None
        if data is None or file_digest(data) != expected:
            raise StaleFile(f"{path} changed since the plan was computed")
        originals[path] = data

    by_target: dict[str, list[Patch]] = {}
    for patch in plan.patches:
        by_target.setdefault(patch.target_path, []).append(patch)

    encodings = dict(plan.encodings)
    patched: dict[str, bytes] = {}
    diffs: list[str] = []
    for target in sorted(by_target):
        if target not in originals:
            raise StaleFile(f"{target} was not read when the plan was computed")
        encoding = encodings.get(target, "utf-8")
        patched[target] = _apply_patches(originals[target], by_target[target], encoding)
        diffs.append(_unified_diff(target, originals[target], by_target[target], encoding))

    # Every refusal comes before the first write: a plan lands whole or not at all.
    backups = {target: Path(target).with_name(Path(target).name + ".bak")
               for target in patched}
    if write_mode == "replace":
        for backup in backups.values():
            if backup.exists():
                raise WriteDenied(f"backup already exists, refusing to overwrite: {backup}")
    written: list[str] = []
    try:
        for target, data in patched.items():
            if write_mode == "sidecar":
                out_path = sidecar_path(Path(target))
                out_path.write_bytes(data)
                written.append(str(out_path))
            elif write_mode == "replace":
                backups[target].write_bytes(originals[target])
                Path(target).write_bytes(data)
                written.append(str(Path(target)))
    except OSError as exc:
        raise WriteDenied(f"cannot write: {exc}") from exc

    return ApplyResult(
        write_mode=write_mode,
        written_paths=tuple(written),
        diff_text="".join(diffs),
        applied=bool(written),
    )
