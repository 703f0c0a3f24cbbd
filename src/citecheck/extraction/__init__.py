"""Reference extraction: artifact bytes in, normalized entries out.

Dispatch is by extension. BibTeX entries keep exact byte spans into their
own file (for .tex artifacts that means the traced .bib resources); text
formats keep spans into the manuscript; .docx spans reference the UTF-8
encoding of the extracted paragraph text, which is read-only downstream.
"""

from __future__ import annotations

from pathlib import Path

from ..errors import UnreadableFile, UnsupportedFormat
from . import bibtex as bibtex_mod
from . import latex as latex_mod
from .bibtex import char_to_byte_spans, parse_bibtex
from .docx import extract_docx_text
from .lint import lint_bibliography
from .models import (ExtractionResult, LintFinding, RawReference, ReferenceInput,
                     RejectedReference)
from .normalize import normalize_reference
from .text import (detect_reference_section, parse_freetext_fields, segment_references,
                   strip_markdown_links)

__all__ = [
    "ExtractionResult", "LintFinding", "RawReference", "ReferenceInput",
    "RejectedReference", "extract_references", "detect_reference_section",
    "parse_bibtex", "extract_docx_text", "normalize_reference", "lint_bibliography",
    "resolve_tex_bib_resources", "read_text_exact", "decode_exact",
]

resolve_tex_bib_resources = latex_mod.resolve_tex_bib_resources

SUPPORTED_EXTENSIONS = ("bib", "tex", "md", "txt", "docx")


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


def read_text_exact(path: Path) -> tuple[str, str]:
    """Read and decode a file with :func:`decode_exact`."""
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise UnreadableFile(f"{path}: {exc}") from exc
    return decode_exact(raw)


def extract_references(artifact_path: str | Path) -> ExtractionResult:
    """Extract and normalize every reference in the artifact.

    Deterministic for fixed file bytes. Rejected raw entries are reported
    in `result.rejected`, never dropped.
    """
    path = Path(artifact_path)
    ext = path.suffix.lower().lstrip(".")
    if ext not in SUPPORTED_EXTENSIONS:
        raise UnsupportedFormat(f"unsupported artifact extension: {path.name}")
    if not path.is_file():
        raise UnreadableFile(f"no such file: {path}")

    if ext == "bib":
        return _finish(_extract_bib(path))
    if ext == "tex":
        return _extract_tex(path)
    if ext == "docx":
        return _extract_docx(path)
    return _extract_textual(path, "markdown" if ext == "md" else "plaintext")


def _finish(result: ExtractionResult) -> ExtractionResult:
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


def _normalize_all(result: ExtractionResult,
                   raws: list[tuple[RawReference, dict[str, str]]]) -> None:
    for raw, fields in raws:
        outcome = normalize_reference(raw, fields)
        if isinstance(outcome, RejectedReference):
            result.rejected.append(outcome)
        else:
            result.entries.append(outcome)


def _extract_bib(path: Path, result: ExtractionResult | None = None,
                 ordinal_base: int = 0) -> ExtractionResult:
    if result is None:
        result = ExtractionResult(artifact_path=str(path), origin_format="bibtex")
    text, encoding = read_text_exact(path)
    parsed = parse_bibtex(text)
    spans = char_to_byte_spans(text, [entry.span for entry in parsed.entries], encoding)
    raws: list[tuple[RawReference, dict[str, str]]] = []
    for i, (entry, span) in enumerate(zip(parsed.entries, spans)):
        raw = RawReference(
            source_span=span,
            original_text=text[entry.span[0]:entry.span[1]],
            origin_format="bibtex",
            ordinal=ordinal_base + i + 1,
            citation_key=entry.key,
            source_path=str(path),
        )
        fields = {name: bibtex_mod.strip_braces(value)
                  for name, value in entry.field_map().items()}
        fields["_entry_type"] = entry.entry_type
        raws.append((raw, fields))
    _normalize_all(result, raws)
    return result


def _extract_tex(path: Path) -> ExtractionResult:
    result = ExtractionResult(artifact_path=str(path), origin_format="tex")
    text, encoding = read_text_exact(path)

    resources = latex_mod.resolve_tex_bib_resources(text, path.parent)
    result.bib_resources = [str(p) for p in resources]
    missing = [name for name in latex_mod.named_bib_resources(text)
               if not (path.parent / name).is_file()]
    for name in missing:
        result.lint.append(LintFinding(
            code="missing_field",
            entry_ordinal=0,
            message=f"bibliography resource {name!r} not found next to the manuscript",
            severity="warning",
        ))

    if resources:
        for resource in resources:
            base = len(result.entries) + len(result.rejected)
            _extract_bib(resource, result=result, ordinal_base=base)
        return _finish(result)

    items = latex_mod.extract_bibitems(text)
    if items:
        spans = char_to_byte_spans(text, [item.span for item in items], encoding)
        raws: list[tuple[RawReference, dict[str, str]]] = []
        for i, (item, span) in enumerate(zip(items, spans)):
            raw = RawReference(
                source_span=span,
                original_text=text[item.span[0]:item.span[1]],
                origin_format="tex",
                ordinal=i + 1,
                source_path=str(path),
            )
            raws.append((raw, parse_freetext_fields(item.text)))
        _normalize_all(result, raws)
        return _finish(result)

    # No bib resources and no bibitems: fall back to a plain references section.
    plain = latex_mod.strip_comments(text)
    _extract_section_entries(result, path, text, plain, "tex", encoding)
    return _finish(result)


def _extract_textual(path: Path, origin: str) -> ExtractionResult:
    result = ExtractionResult(artifact_path=str(path), origin_format=origin)
    text, encoding = read_text_exact(path)
    _extract_section_entries(result, path, text, text, origin, encoding)
    return _finish(result)


def _extract_docx(path: Path) -> ExtractionResult:
    result = ExtractionResult(artifact_path=str(path), origin_format="docx")
    try:
        payload = path.read_bytes()
    except OSError as exc:
        raise UnreadableFile(f"{path}: {exc}") from exc
    paragraphs = extract_docx_text(payload)
    text = "\n".join(paragraphs)
    _extract_section_entries(result, path, text, text, "docx", "utf-8")
    return _finish(result)


def _extract_section_entries(result: ExtractionResult, path: Path, original_text: str,
                             search_text: str, origin: str, encoding: str) -> None:
    """Shared section-detection + segmentation path for md/txt/docx/tex-fallback.

    `search_text` may be a comment-stripped copy with identical offsets;
    spans and original_text always come from `original_text`.
    """
    section = detect_reference_section(search_text)
    if section is None:
        return
    segments = segment_references(search_text, section)
    result.section_span, *spans = char_to_byte_spans(original_text, [section, *segments],
                                                     encoding)
    raws: list[tuple[RawReference, dict[str, str]]] = []
    for i, ((start, end), span) in enumerate(zip(segments, spans)):
        raw = RawReference(
            source_span=span,
            original_text=original_text[start:end],
            origin_format=origin,
            ordinal=i + 1,
            source_path=str(path),
        )
        cleaned = search_text[start:end]
        if origin == "markdown":
            cleaned = strip_markdown_links(cleaned)
        raws.append((raw, parse_freetext_fields(cleaned)))
    _normalize_all(result, raws)
