"""Data types produced by reference extraction."""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import textnorm

ORIGIN_FORMATS = ("bibtex", "tex", "markdown", "plaintext", "docx")
ENTRY_KINDS = ("journal", "conference", "preprint", "book", "other", "unknown")
LINT_CODES = ("missing_field", "malformed_doi", "duplicate_key",
              "suspicious_year", "empty_entry", "control_chars", "syntax_error")


@dataclass(frozen=True)
class RawReference:
    """One raw bibliography entry, anchored to exact source bytes.

    `source_span` is a byte range into `source_path`'s bytes (for docx, into
    the extracted paragraph text encoded as UTF-8). `original_text` must
    round-trip exactly, because the rewrite engine patches by these offsets,
    and by character offsets into `original_text`, never parsing an entry
    again: BibTeX's `inner_spans` are the key's start and end, then each field
    value's, delimiters included, in `field_names` order; `head_length` is a
    text entry's list marker or \\bibitem head.
    """

    source_span: tuple[int, int]
    original_text: str
    origin_format: str
    ordinal: int
    citation_key: str | None = None  # bibtex only
    source_path: str = ""
    field_names: tuple[str, ...] = ()  # bibtex only
    inner_spans: tuple[int, ...] = ()  # bibtex only
    head_length: int = 0
    body_on_own_line: bool = False  # a \bibitem's body goes on the lines after its head

    def __post_init__(self) -> None:
        start, end = self.source_span
        if not (0 <= start < end):
            raise ValueError(f"empty or negative source span: {self.source_span}")
        if self.origin_format not in ORIGIN_FORMATS:
            raise ValueError(f"unknown origin format: {self.origin_format}")
        if (self.citation_key is not None) != (self.origin_format == "bibtex"):
            raise ValueError("citation_key is present iff origin_format is bibtex")


@dataclass(frozen=True)
class ReferenceInput:
    """Normalized entry ready for matching.

    At least one of title / doi / pmid / arxiv_id is present; entries with
    none are rejected, never silently dropped. `fields` keeps the original
    display-form field map (BibTeX fields, or synthesized keys for free
    text) for rendering and patch planning; `suspect_doi` holds a DOI that
    failed the syntax check so lint can report it without polluting `doi`.
    """

    raw: RawReference
    title: str | None = None
    authors: tuple[tuple[str, str], ...] = ()
    year: int | None = None
    venue: str | None = None
    doi: str | None = None
    pmid: str | None = None
    arxiv_id: str | None = None
    arxiv_version: int | None = None
    entry_kind: str = "unknown"
    fields: dict[str, str] = field(default_factory=dict)
    suspect_doi: str | None = None

    def __post_init__(self) -> None:
        if self.entry_kind not in ENTRY_KINDS:
            raise ValueError(f"unknown entry kind: {self.entry_kind}")
        if not (self.title or self.doi or self.pmid or self.arxiv_id):
            raise ValueError("entry carries neither a title nor an identifier")

    @property
    def ordinal(self) -> int:
        return self.raw.ordinal

    @property
    def citation_key(self) -> str | None:
        return self.raw.citation_key

    def identifier_map(self) -> dict[str, str]:
        return textnorm.identifier_map(self.doi, self.pmid, self.arxiv_id)


@dataclass(frozen=True)
class LintFinding:
    code: str
    entry_ordinal: int
    message: str
    severity: str  # info | warning | error

    def __post_init__(self) -> None:
        if self.code not in LINT_CODES:
            raise ValueError(f"unknown lint code: {self.code}")
        if self.severity not in ("info", "warning", "error"):
            raise ValueError(f"unknown severity: {self.severity}")


@dataclass(frozen=True)
class RejectedReference:
    raw: RawReference
    reason: str


@dataclass
class ExtractionResult:
    """Everything pulled out of one artifact, in document order."""

    artifact_path: str
    origin_format: str
    entries: list[ReferenceInput] = field(default_factory=list)
    rejected: list[RejectedReference] = field(default_factory=list)
    section_span: tuple[int, int] | None = None
    bib_resources: list[str] = field(default_factory=list)
    lint: list[LintFinding] = field(default_factory=list)
