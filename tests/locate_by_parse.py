"""BibTeX patch planning as it was before extraction recorded the spans,
kept as the reference for the recorded ones: each patched entry is parsed
again alone and its spans converted to byte offsets."""

from __future__ import annotations

from dataclasses import replace

from citecheck.extraction.bibtex import BibEntry, BibField, char_to_byte_spans, parse_bibtex
from citecheck.extraction.models import RawReference, ReferenceInput
from citecheck.rewrite.engine import _unmoved_codec
from citecheck.rewrite.models import Patch


def _get_field(entry: BibEntry, name: str) -> BibField | None:
    return next((f for f in entry.fields if f.name == name), None)


def _locate_bib_entry(raw: RawReference,
                      files: dict[str, tuple[bytes, str]]) -> BibEntry | None:
    """The entry parsed alone, key and field value spans shifted to byte
    offsets into the planned bytes of its file (@string macros change values,
    not spans). None when those bytes no longer hold the extracted text.
    """
    encoding = _unmoved_codec(raw, files)
    if encoding is None:
        return None
    start = raw.source_span[0]
    entry = parse_bibtex(raw.original_text).entries[0]
    spans = char_to_byte_spans(raw.original_text,
                               [entry.key_span] + [f.value_span for f in entry.fields],
                               encoding)
    key_span, *value_spans = [(start + s, start + e) for s, e in spans]
    return replace(entry, key_span=key_span, fields=tuple(
        replace(f, value_span=span) for f, span in zip(entry.fields, value_spans)))


def plan_bibtex_patches(entry: ReferenceInput, diffs: list[tuple[str, str]],
                        new_key: str | None,
                        files: dict[str, tuple[bytes, str]]) -> list[Patch]:
    """Field updates for `diffs` and a rename to `new_key`, either optional."""
    if not diffs and new_key is None:
        return []
    bib_entry = _locate_bib_entry(entry.raw, files)
    if bib_entry is None:
        return []
    edits: list[tuple[tuple[int, int], str, str]] = []  # (span, text, kind)
    additions: list[str] = []
    for name, value in diffs:
        bib_field = _get_field(bib_entry, name)
        if bib_field is not None:
            edits.append((bib_field.value_span, "{%s}" % value, "field_update"))
        else:
            additions.append(",\n  %s = {%s}" % (name, value))
    if additions:
        if bib_entry.fields:
            anchor = bib_entry.fields[-1].value_span[1]
        else:
            anchor = bib_entry.key_span[1]
        edits.append(((anchor, anchor), "".join(additions), "field_update"))
    if new_key is not None:
        edits.append((bib_entry.key_span, new_key, "key_rename"))
    return [Patch(target_path=entry.raw.source_path, span=span, replacement_text=text,
                  entry_ordinal=entry.ordinal, kind=kind) for span, text, kind in edits]
