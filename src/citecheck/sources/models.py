"""Query/result types for the external metadata sources."""

from __future__ import annotations

from dataclasses import dataclass

from .. import textnorm

SOURCES = ("pubmed", "crossref", "arxiv", "semantic_scholar")

QUERY_KINDS = ("doi_lookup", "pmid_lookup", "arxiv_lookup",
               "title_search", "title_author_search", "relaxed_search")

FAILURE_CLASSES = ("transport", "authentication", "rate_limit", "payload_shape", "not_found")

# Transient classes: operational trouble rather than content trouble, and
# the only ones worth retrying. LiveTransport retries them, and the MCP
# server's carry across calls skips them.
TRANSIENT_FAILURES = frozenset({"transport", "rate_limit"})

MANIFESTATION_KINDS = ("journal", "conference", "preprint", "unknown")

MAX_QUERY_LIMIT = 20
DEFAULT_QUERY_LIMIT = 5


@dataclass(frozen=True)
class Query:
    kind: str
    text: str
    year: int | None = None
    limit: int = DEFAULT_QUERY_LIMIT

    def __post_init__(self) -> None:
        if self.kind not in QUERY_KINDS:
            raise ValueError(f"unknown query kind: {self.kind}")
        if not (1 <= self.limit <= MAX_QUERY_LIMIT):
            raise ValueError(f"limit must be 1..{MAX_QUERY_LIMIT}, got {self.limit}")
        if not self.text.strip():
            raise ValueError("query text must be non-empty")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "text": self.text, "year": self.year, "limit": self.limit}


@dataclass(frozen=True)
class CandidateRecord:
    """One external record in canonical form, with provenance."""

    source: str
    source_id: str
    title: str
    authors: tuple[tuple[str, str], ...] = ()
    year: int | None = None
    venue: str | None = None
    doi: str | None = None
    pmid: str | None = None
    arxiv_id: str | None = None
    manifestation_kind: str = "unknown"
    related_ids: tuple[tuple[str, str], ...] = ()  # (kind, value) cross-assertions
    raw_provenance: str = ""  # canonical request key that produced it

    def __post_init__(self) -> None:
        if self.source not in SOURCES:
            raise ValueError(f"unknown source: {self.source}")
        if not self.source_id:
            raise ValueError("source_id must be non-empty")
        if self.manifestation_kind not in MANIFESTATION_KINDS:
            raise ValueError(f"unknown manifestation kind: {self.manifestation_kind}")
        # Parsers build records from remote payloads; a wrong type here would
        # crash matching later instead of failing this one response.
        if not isinstance(self.title, str):
            raise ValueError(f"title must be a string, got {self.title!r}")
        if not all(isinstance(author, tuple) and len(author) == 2
                   and all(isinstance(part, str) for part in author)
                   for author in self.authors):
            raise ValueError(f"authors must be (family, given) strings, got {self.authors!r}")
        if self.year is not None and (isinstance(self.year, bool)
                                      or not isinstance(self.year, int)):
            raise ValueError(f"year must be an integer, got {self.year!r}")
        for name in ("source_id", "venue", "doi", "pmid", "arxiv_id"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise ValueError(f"{name} must be a string, got {value!r}")

    @property
    def key(self) -> str:
        """The record's identity across queries and passes, "source:source_id"."""
        return f"{self.source}:{self.source_id}"

    def identifier_map(self) -> dict[str, str]:
        return textnorm.identifier_map(self.doi, self.pmid, self.arxiv_id)

    def all_identifiers(self) -> frozenset[tuple[str, str]]:
        """Direct identifiers plus related-id assertions, for linkage."""
        direct = frozenset(self.identifier_map().items())
        return direct | frozenset(self.related_ids)

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "source_id": self.source_id,
            "title": self.title,
            "authors": [list(a) for a in self.authors],
            "year": self.year,
            "venue": self.venue,
            "doi": self.doi,
            "pmid": self.pmid,
            "arxiv_id": self.arxiv_id,
            "manifestation_kind": self.manifestation_kind,
            "related_ids": [list(r) for r in self.related_ids],
            "raw_provenance": self.raw_provenance,
        }


@dataclass(frozen=True)
class FailureClass:
    failure: str  # transport | authentication | rate_limit | payload_shape | not_found
    detail: str

    def __post_init__(self) -> None:
        if self.failure not in FAILURE_CLASSES:
            raise ValueError(f"unknown failure class: {self.failure}")

    @property
    def retryable(self) -> bool:
        """True exactly when the class is transient."""
        return self.failure in TRANSIENT_FAILURES


@dataclass(frozen=True)
class QueryOutcome:
    source: str
    query: Query
    records: tuple[CandidateRecord, ...] | None = None
    failure: FailureClass | None = None

    def __post_init__(self) -> None:
        if (self.records is None) == (self.failure is None):
            raise ValueError("exactly one of records/failure must be present")

    @property
    def failed(self) -> bool:
        """A failure of a real class; not_found is evidence of absence, not a failure."""
        return self.failure is not None and self.failure.failure != "not_found"

    def digest(self) -> dict:
        """Compact evidence form for reports; the evidence step holds the query."""
        out: dict = {"source": self.source}
        if self.records is not None:
            out["result"] = "ok"
            out["record_ids"] = [r.source_id for r in self.records]
        else:
            assert self.failure is not None
            out["result"] = "failure"
            out["failure_class"] = self.failure.failure
            out["detail"] = self.failure.detail
            out["retryable"] = self.failure.retryable
        return out


@dataclass(frozen=True)
class SourceHealth:
    source: str
    attempted: int
    succeeded: int
    failures_by_class: tuple[tuple[str, int], ...]
    enabled: bool

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "attempted": self.attempted,
            "succeeded": self.succeeded,
            "failures_by_class": {k: v for k, v in self.failures_by_class},
            "enabled": self.enabled,
        }
