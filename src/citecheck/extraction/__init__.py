"""Reference extraction: artifact bytes in, normalized entries out.

`ORIGINS` maps each extension to its origin format. Entries come from a
.bib, each bib resource a .tex names, a .tex's inline \\bibitems, or a
references section (md, txt, docx, and .tex with neither), and all of them
go through one entry builder. BibTeX entries keep exact byte spans into
their own file (for .tex artifacts that means the traced .bib resources);
text formats keep spans into the manuscript; .docx spans reference the
UTF-8 encoding of the extracted paragraph text, which is read-only
downstream.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from ..errors import UnreadableFile, UnsupportedFormat
from . import bibtex as bibtex_mod
from . import latex as latex_mod
from .bibtex import char_to_byte_spans, parse_bibtex
from .docx import extract_docx_text
from .lint import lint_bibliography
from .models import (ExtractionResult, LintFinding, RawReference, ReferenceInput,
                     RejectedReference)
from .normalize import normalize_reference
from .text import (detect_reference_section, marker_length, parse_freetext_fields,
                   segment_references, strip_markdown_links)

__all__ = [
    "ExtractionResult", "LintFinding", "RawReference", "ReferenceInput",
    "RejectedReference", "extract_references", "detect_reference_section",
    "parse_bibtex", "extract_docx_text", "normalize_reference", "lint_bibliography",
    "read_text_exact", "decode_exact",
]

# Origin format of each supported extension.
ORIGINS = {"bib": "bibtex", "tex": "tex", "md": "markdown", "txt": "plaintext",
           "docx": "docx"}


def decode_exact(raw: bytes) -> tuple[str, str]:
    """Decode file bytes for span-accurate parsing.

    Returns (text, encoding). UTF-8 first; latin-1 fallback keeps a 1:1
    byte/char mapping for files with stray high bytes, so spans stay exact
    either way.
    """
    try:
        return raw.decode("utf-8"), "utf-8"
    except UnicodeDecodeError:
        return raw.decode("latin-1"), "latin-1"


def _read_bytes(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:
        raise UnreadableFile(f"{path}: {exc}") from exc


def read_text_exact(path: Path) -> tuple[str, str]:
    """Read and decode a file with :func:`decode_exact`."""
    return decode_exact(_read_bytes(path))


def extract_references(artifact_path: str | Path) -> ExtractionResult:
    """Extract and normalize every reference in the artifact.

    Deterministic for fixed file bytes. Rejected raw entries are reported
    in `result.rejected`, and BibTeX that does not parse as `syntax_error`
    lint findings: nothing is dropped unreported.
    """
    path = Path(artifact_path)
    origin = ORIGINS.get(path.suffix.lower().lstrip("."))
    if origin is None:
        raise UnsupportedFormat(f"unsupported artifact extension: {path.name}")
    if not path.is_file():
        raise UnreadableFile(f"no such file: {path}")

    result = ExtractionResult(artifact_path=str(path), origin_format=origin)
    raw = _read_bytes(path)
    if origin == "docx":
        text, encoding = "\n".join(extract_docx_text(raw)), "utf-8"
    else:
        text, encoding = decode_exact(raw)
    add = {"bibtex": _add_bib, "tex": _add_tex}.get(origin, _add_section)
    add(result, path, text, encoding)

    result.lint.extend(lint_bibliography(result.entries))
    for rejected in result.rejected:
        result.lint.append(LintFinding(
            code="empty_entry",
            entry_ordinal=rejected.raw.ordinal,
            message=rejected.reason,
            severity="warning",
        ))
    result.lint.sort(key=lambda f: (f.entry_ordinal, f.code))
    return result


class _Item(NamedTuple):
    """An entry's character span in the text, its fields, the rest as RawReference has them."""

    span: tuple[int, int]
    fields: dict[str, str]
    key: str | None = None
    field_names: tuple[str, ...] = ()
    inner_spans: tuple[int, ...] = ()
    head_length: int = 0
    body_on_own_line: bool = False


def _add_entries(result: ExtractionResult, path: Path, text: str, encoding: str,
                 origin: str, items: list[_Item]) -> None:
    """File each item of `text` as an entry or a reject: spans become byte
    spans into `path`'s bytes in one pass, and ordinals go on from the
    entries and rejects already in `result`.
    """
    spans = char_to_byte_spans(text, [item.span for item in items], encoding)
    base = len(result.entries) + len(result.rejected)
    for i, (item, span) in enumerate(zip(items, spans)):
        start, end = item.span
        raw = RawReference(
            source_span=span,
            original_text=text[start:end],
            origin_format=origin,
            ordinal=base + i + 1,
            citation_key=item.key,
            source_path=str(path),
            field_names=item.field_names,
            inner_spans=item.inner_spans,
            head_length=item.head_length,
            body_on_own_line=item.body_on_own_line,
        )
        outcome = normalize_reference(raw, item.fields)
        if isinstance(outcome, RejectedReference):
            result.rejected.append(outcome)
        else:
            result.entries.append(outcome)


def _add_bib(result: ExtractionResult, path: Path, text: str, encoding: str) -> None:
    parsed = parse_bibtex(text)
    for error in parsed.errors:  # an entry that does not parse is not read, but reported
        line = text.count("\n", 0, error.offset) + 1
        result.lint.append(LintFinding(
            code="syntax_error",
            entry_ordinal=0,
            message=f"{path.name} line {line}: {error.message}",
            severity="error",
        ))
    items = []
    for entry in parsed.entries:
        fields = {name: bibtex_mod.strip_braces(value)
                  for name, value in entry.field_map().items()}
        fields["_entry_type"] = entry.entry_type
        start, names = entry.span[0], []
        inner = [entry.key_span[0] - start, entry.key_span[1] - start]
        for f in entry.fields:  # a loop: under half the cost of two generator expressions
            names.append(f.name)
            inner += (f.value_span[0] - start, f.value_span[1] - start)
        items.append(_Item(entry.span, fields, entry.key, tuple(names), tuple(inner)))
    _add_entries(result, path, text, encoding, "bibtex", items)


def _add_tex(result: ExtractionResult, path: Path, text: str, encoding: str) -> None:
    cleaned = latex_mod.strip_comments(text)
    found: dict[Path, bool] = {}  # each named file, checked once
    for name in latex_mod.named_bib_resources(cleaned):
        resource = path.parent / name
        if resource not in found:
            found[resource] = resource.is_file()
        if not found[resource]:
            result.lint.append(LintFinding(
                code="missing_field",
                entry_ordinal=0,
                message=f"bibliography resource {name!r} not found next to the manuscript",
                severity="warning",
            ))
    resources = [resource for resource, is_file in found.items() if is_file]
    result.bib_resources = [str(p) for p in resources]

    if resources:
        for resource in resources:
            _add_bib(result, resource, *read_text_exact(resource))
        return
    items = latex_mod.extract_bibitems(cleaned)
    if items:
        _add_entries(result, path, text, encoding, "tex",
                     [_Item(item.span, parse_freetext_fields(item.text),
                            head_length=item.head_length, body_on_own_line=True)
                      for item in items])
    else:
        # No bib resources and no bibitems: fall back to a plain references section.
        _add_section(result, path, text, encoding, cleaned)


def _add_section(result: ExtractionResult, path: Path, text: str, encoding: str,
                 search_text: str | None = None) -> None:
    """The references section's entries: md, txt, docx and the .tex fallback.

    `search_text` may be a comment-stripped copy with identical offsets;
    spans and original_text always come from `text`.
    """
    search_text = text if search_text is None else search_text
    section = detect_reference_section(search_text)
    if section is None:
        return
    result.section_span = char_to_byte_spans(text, [section], encoding)[0]
    items = []
    for start, end in segment_references(search_text, section):
        cleaned = search_text[start:end]
        if result.origin_format == "markdown":
            cleaned = strip_markdown_links(cleaned)
        items.append(_Item((start, end), parse_freetext_fields(cleaned),
                           head_length=marker_length(text[start:end])))
    _add_entries(result, path, text, encoding, result.origin_format, items)
