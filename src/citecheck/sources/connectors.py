"""Connectors for PubMed, Crossref, arXiv, and Semantic Scholar.

Each connector documents exactly which wire fields it reads. Remote
trouble of any kind becomes a FailureClass value: a response that is not
a 2xx answer takes the class `transport.response_failure` gives it, a 2xx
body that cannot be parsed is payload_shape, an empty parse is not_found,
and a missing fixture is transport. Connectors only raise for local
misuse (disabled source, unsupported query kind), which is a programming
error by the caller.

Wire formats:
  crossref          REST JSON: message.DOI, .title[0], .author[].family/given,
                    .issued/.published-print date-parts, .container-title[0],
                    .type, .relation (preprint/published cross-assertions)
  pubmed            E-utilities JSON, esearch (esearchresult.idlist) then
                    esummary (result.<uid>.title/authors/pubdate/fulljournalname/
                    articleids)
  arxiv             Atom XML: entry id/title/author/published, arxiv:doi
                    treated as a journal-DOI assertion, never a direct id
  semantic_scholar  Graph JSON: paperId, title, authors[].name, year, venue,
                    externalIds.{DOI,ArXiv,PubMed}, publicationTypes
"""

from __future__ import annotations

import json
import re
import xml.etree.ElementTree as ET
from collections import Counter
from urllib.parse import quote

from .. import textnorm
from ..errors import FixtureMissing
from .config import SourceConfig
from .models import (CandidateRecord, FailureClass, Query, QueryOutcome, SOURCES,
                     SourceHealth)
from .transport import HttpRequest, Transport, response_failure

CROSSREF_WORKS_URL = "https://api.crossref.org/works"
PUBMED_ESEARCH_URL = "https://eutils.ncbi.nlm.nih.gov/entrez/eutils/esearch.fcgi"
PUBMED_ESUMMARY_URL = "https://eutils.ncbi.nlm.nih.gov/entrez/eutils/esummary.fcgi"
ARXIV_QUERY_URL = "https://export.arxiv.org/api/query"
S2_PAPER_URL = "https://api.semanticscholar.org/graph/v1/paper"

S2_FIELDS = "title,authors,year,venue,externalIds,publicationTypes"

SOURCE_CAPABILITIES: dict[str, frozenset[str]] = {
    "crossref": frozenset({"doi_lookup", "title_search", "title_author_search",
                           "relaxed_search"}),
    "pubmed": frozenset({"doi_lookup", "pmid_lookup", "title_search",
                         "title_author_search", "relaxed_search"}),
    "arxiv": frozenset({"arxiv_lookup", "title_search", "title_author_search",
                        "relaxed_search"}),
    "semantic_scholar": frozenset({"doi_lookup", "pmid_lookup", "arxiv_lookup",
                                   "title_search", "title_author_search",
                                   "relaxed_search"}),
}


def supports(source: str, kind: str) -> bool:
    return kind in SOURCE_CAPABILITIES[source]


# --------------------------------------------------------------------------
# Request builders (pure; also used by fixture tooling to precompute keys)
# --------------------------------------------------------------------------

def crossref_request(query: Query, config: SourceConfig) -> HttpRequest:
    auth = (("mailto", config.crossref_mailto),) if config.crossref_mailto else ()
    if query.kind == "doi_lookup":
        return HttpRequest(source="crossref",
                           url=f"{CROSSREF_WORKS_URL}/{quote(query.text, safe='')}",
                           auth_params=auth)
    return HttpRequest(source="crossref", url=CROSSREF_WORKS_URL,
                       params=(("query.bibliographic", query.text),
                               ("rows", str(query.limit))),
                       auth_params=auth)


def pubmed_term(query: Query) -> str:
    if query.kind == "doi_lookup":
        return f"{query.text}[doi]"
    term = query.text
    if query.year is not None:
        term = f"{term} AND {query.year}[pdat]"
    return term


def pubmed_esearch_request(query: Query, config: SourceConfig) -> HttpRequest:
    auth = (("api_key", config.pubmed_api_key),) if config.pubmed_api_key else ()
    return HttpRequest(source="pubmed", url=PUBMED_ESEARCH_URL,
                       params=(("db", "pubmed"), ("retmax", str(query.limit)),
                               ("retmode", "json"), ("term", pubmed_term(query))),
                       auth_params=auth)


def pubmed_esummary_request(ids: list[str], config: SourceConfig) -> HttpRequest:
    auth = (("api_key", config.pubmed_api_key),) if config.pubmed_api_key else ()
    return HttpRequest(source="pubmed", url=PUBMED_ESUMMARY_URL,
                       params=(("db", "pubmed"), ("id", ",".join(ids)),
                               ("retmode", "json")),
                       auth_params=auth)


def arxiv_request(query: Query, config: SourceConfig) -> HttpRequest:
    if query.kind == "arxiv_lookup":
        params = (("id_list", query.text), ("max_results", str(query.limit)))
    else:
        params = (("search_query", f'all:"{query.text}"'),
                  ("start", "0"), ("max_results", str(query.limit)))
    return HttpRequest(source="arxiv", url=ARXIV_QUERY_URL, params=params)


# Identifier lookups, each answered by one paper at /paper/<prefix>:<id>;
# every other query kind is a search answered by a list under "data".
_S2_LOOKUP_PREFIX = {"doi_lookup": "DOI", "pmid_lookup": "PMID", "arxiv_lookup": "ARXIV"}


def s2_request(query: Query, config: SourceConfig) -> HttpRequest:
    headers = (("x-api-key", config.s2_api_key),) if config.s2_api_key else ()
    prefix = _S2_LOOKUP_PREFIX.get(query.kind)
    if prefix is None:
        return HttpRequest(source="semantic_scholar", url=f"{S2_PAPER_URL}/search",
                           params=(("query", query.text), ("limit", str(query.limit)),
                                   ("fields", S2_FIELDS)),
                           headers=headers)
    return HttpRequest(source="semantic_scholar",
                       url=f"{S2_PAPER_URL}/{prefix}:{quote(query.text, safe='')}",
                       params=(("fields", S2_FIELDS),), headers=headers)


# --------------------------------------------------------------------------
# Response parsing
# --------------------------------------------------------------------------

def _split_authors(names: list[str]) -> tuple[tuple[str, str], ...]:
    return tuple(textnorm.split_person_name(n) for n in names if n and n.strip())


def _crossref_year(work: dict) -> int | None:
    for field in ("issued", "published-print", "published-online", "created"):
        block = work.get(field) or {}
        parts = block.get("date-parts") or []
        if parts and parts[0] and isinstance(parts[0][0], int):
            return parts[0][0]
    return None


_CROSSREF_KIND = {"journal-article": "journal", "proceedings-article": "conference",
                  "posted-content": "preprint"}


def parse_crossref_work(work: dict, provenance: str) -> CandidateRecord | None:
    doi = textnorm.normalize_doi(work.get("DOI", "") or "")
    titles = work.get("title") or []
    title = textnorm.normalize_display(titles[0]) if titles else ""
    if not title and not doi:
        return None
    authors = []
    for author in work.get("author") or []:
        family = author.get("family") or ""
        given = author.get("given") or ""
        if family:
            authors.append((family, given))
    containers = work.get("container-title") or []
    venue = textnorm.normalize_display(containers[0]) if containers else None
    related: list[tuple[str, str]] = []
    relation = work.get("relation") or {}
    for rel_name in ("is-preprint-of", "has-preprint", "is-same-as"):
        for item in relation.get(rel_name) or []:
            if item.get("id-type") == "doi":
                rel_doi = textnorm.normalize_doi(str(item.get("id", "")))
                if rel_doi and rel_doi != doi:
                    related.append(("doi", rel_doi))
    return CandidateRecord(
        source="crossref",
        source_id=doi or title,
        title=title,
        authors=tuple(authors),
        year=_crossref_year(work),
        venue=venue,
        doi=doi,
        manifestation_kind=_CROSSREF_KIND.get(work.get("type", ""), "unknown"),
        related_ids=tuple(sorted(set(related))),
        raw_provenance=provenance,
    )


def parse_crossref_body(body: bytes, kind: str, provenance: str) -> list[CandidateRecord]:
    data = json.loads(body.decode("utf-8"))
    message = data["message"]
    works = [message] if kind == "doi_lookup" else message["items"]
    records = []
    for work in works:
        record = parse_crossref_work(work, provenance)
        if record is not None:
            records.append(record)
    return records


def _pubmed_year(pubdate: str) -> int | None:
    m = re.match(r"(\d{4})", pubdate or "")
    return int(m.group(1)) if m else None


def parse_pubmed_esearch(body: bytes) -> list[str]:
    data = json.loads(body.decode("utf-8"))
    ids = data["esearchresult"]["idlist"]
    if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
        raise ValueError("esearchresult.idlist is not a list of id strings")
    return ids


def parse_pubmed_esummary(body: bytes, provenance: str) -> list[CandidateRecord]:
    data = json.loads(body.decode("utf-8"))
    result = data["result"]
    records = []
    for uid in result.get("uids", []):
        item = result.get(uid)
        if not isinstance(item, dict):
            continue
        doi = None
        for article_id in item.get("articleids", []):
            if article_id.get("idtype") == "doi":
                doi = textnorm.normalize_doi(str(article_id.get("value", "")))
                break
        if doi is None:
            eloc = item.get("elocationid", "")
            if eloc:
                doi = textnorm.normalize_doi(eloc)
        records.append(CandidateRecord(
            source="pubmed",
            source_id=str(uid),
            title=textnorm.normalize_display(item.get("title", "")).rstrip("."),
            authors=_split_authors([a.get("name", "") for a in item.get("authors", [])]),
            year=_pubmed_year(item.get("pubdate", "")),
            venue=textnorm.normalize_display(
                item.get("fulljournalname") or item.get("source") or "") or None,
            doi=doi,
            pmid=str(uid),
            manifestation_kind="journal",
            raw_provenance=provenance,
        ))
    return records


_ATOM_NS = "{http://www.w3.org/2005/Atom}"
_ARXIV_NS = "{http://arxiv.org/schemas/atom}"


def parse_arxiv_feed(body: bytes, provenance: str) -> list[CandidateRecord]:
    root = ET.fromstring(body.decode("utf-8"))
    records = []
    for entry in root.findall(f"{_ATOM_NS}entry"):
        raw_id = (entry.findtext(f"{_ATOM_NS}id") or "").strip()
        parsed = textnorm.normalize_arxiv_id(raw_id)
        if parsed is None:
            continue
        arxiv_id, _version = parsed
        title = textnorm.normalize_display(entry.findtext(f"{_ATOM_NS}title") or "")
        authors = [(a.findtext(f"{_ATOM_NS}name") or "").strip()
                   for a in entry.findall(f"{_ATOM_NS}author")]
        published = entry.findtext(f"{_ATOM_NS}published") or ""
        year = int(published[:4]) if re.match(r"\d{4}", published) else None
        related: list[tuple[str, str]] = []
        journal_doi = entry.findtext(f"{_ARXIV_NS}doi")
        if journal_doi:
            normalized = textnorm.normalize_doi(journal_doi)
            if normalized:
                # A publisher DOI asserted by arXiv names the *published*
                # manifestation, so it is a cross-assertion, not a direct id.
                related.append(("doi", normalized))
        records.append(CandidateRecord(
            source="arxiv",
            source_id=arxiv_id,
            title=title,
            authors=_split_authors(authors),
            year=year,
            venue=None,
            arxiv_id=arxiv_id,
            manifestation_kind="preprint",
            related_ids=tuple(related),
            raw_provenance=provenance,
        ))
    return records


_S2_KIND = {"JournalArticle": "journal", "Conference": "conference"}


def parse_s2_paper(paper: dict, provenance: str) -> CandidateRecord | None:
    paper_id = paper.get("paperId")
    title = textnorm.normalize_display(paper.get("title") or "")
    if not paper_id or not title:
        return None
    external = paper.get("externalIds") or {}
    doi = textnorm.normalize_doi(str(external.get("DOI", ""))) if external.get("DOI") else None
    arxiv = external.get("ArXiv")
    arxiv_id = None
    if arxiv:
        parsed = textnorm.normalize_arxiv_id(str(arxiv))
        arxiv_id = parsed[0] if parsed else None
    pmid = str(external.get("PubMed")) if external.get("PubMed") else None
    kind = "unknown"
    for pub_type in paper.get("publicationTypes") or []:
        if pub_type in _S2_KIND:
            kind = _S2_KIND[pub_type]
            break
    if kind == "unknown" and arxiv_id and not paper.get("venue"):
        kind = "preprint"
    return CandidateRecord(
        source="semantic_scholar",
        source_id=str(paper_id),
        title=title,
        authors=_split_authors([a.get("name", "") for a in paper.get("authors") or []]),
        year=paper.get("year"),
        venue=textnorm.normalize_display(paper.get("venue") or "") or None,
        doi=doi,
        pmid=pmid,
        arxiv_id=arxiv_id,
        manifestation_kind=kind,
        raw_provenance=provenance,
    )


def parse_s2_body(body: bytes, kind: str, provenance: str) -> list[CandidateRecord]:
    data = json.loads(body.decode("utf-8"))
    papers = [data] if kind in _S2_LOOKUP_PREFIX else data.get("data", [])
    records = []
    for paper in papers:
        record = parse_s2_paper(paper, provenance)
        if record is not None:
            records.append(record)
    return records


# --------------------------------------------------------------------------
# Query execution
# --------------------------------------------------------------------------

# Single-request sources: (request builder, parser). PubMed needs two
# requests (esearch, then esummary) and has its own path, _query_pubmed.
_SINGLE_REQUEST = {
    "crossref": (crossref_request, parse_crossref_body),
    "arxiv": (arxiv_request, lambda body, kind, key: parse_arxiv_feed(body, key)),
    "semantic_scholar": (s2_request, parse_s2_body),
}


def _fetch_parsed(query: Query, transport: Transport, request: HttpRequest,
                  parse) -> list | FailureClass:
    """Fetch one request: parse(body, query kind, request key), or the failure it is."""
    response = transport.fetch(request)
    failure = response_failure(response)
    if failure is not None:
        return failure
    try:
        parsed = parse(response.body, query.kind, request.key)
    except Exception as exc:  # a remote body must never crash the run
        return FailureClass("payload_shape", f"response body could not be parsed: {exc}")
    return parsed or FailureClass("not_found", "empty result set")


def query_source(source: str, query: Query, transport: Transport,
                 config: SourceConfig) -> QueryOutcome:
    """Run one query against one source; remote failures become values.

    Raises ValueError only for local misuse: a disabled source or a query
    kind the source cannot serve.
    """
    if not config.is_enabled(source):
        raise ValueError(f"source {source!r} is not enabled")
    if not supports(source, query.kind):
        raise ValueError(f"source {source!r} does not support {query.kind}")

    try:
        if source == "pubmed":
            result = _query_pubmed(query, transport, config)
        else:
            build, parse = _SINGLE_REQUEST[source]
            result = _fetch_parsed(query, transport, build(query, config), parse)
    except FixtureMissing as exc:
        # Incomplete fixture stores degrade to a transport failure so replay
        # runs report health instead of crashing mid-batch.
        result = FailureClass("transport", str(exc))
    if isinstance(result, FailureClass):
        return QueryOutcome(source=source, query=query, failure=result)
    return QueryOutcome(source=source, query=query, records=tuple(result))


def _query_pubmed(query: Query, transport: Transport,
                  config: SourceConfig) -> list | FailureClass:
    if query.kind == "pmid_lookup":
        ids = [query.text]
    else:
        ids = _fetch_parsed(query, transport, pubmed_esearch_request(query, config),
                            lambda body, kind, key: parse_pubmed_esearch(body))
        if isinstance(ids, FailureClass):
            return ids
        ids = ids[: query.limit]
    return _fetch_parsed(query, transport, pubmed_esummary_request(ids, config),
                         lambda body, kind, key: parse_pubmed_esummary(body, key))


def sort_candidates(records: list[CandidateRecord]) -> list[CandidateRecord]:
    """Canonical order, so merged multi-source results are schedule-independent."""
    return sorted(records, key=lambda r: (r.source, r.source_id))


def summarize_health(outcomes: list[QueryOutcome], config: SourceConfig) -> list[SourceHealth]:
    """One SourceHealth per known source, disabled ones included (all zero).

    not_found outcomes count as succeeded: an authoritative "no such
    record" is a working source, not a failing one.
    """
    # (source, failure class), with None for an outcome that succeeded.
    counts = Counter((o.source, o.failure.failure if o.failed else None) for o in outcomes)
    health = []
    for source in SOURCES:
        failures = sorted((failure, n) for (s, failure), n in counts.items()
                          if s == source and failure is not None)
        succeeded = counts[(source, None)]
        health.append(SourceHealth(
            source=source,
            attempted=succeeded + sum(n for _, n in failures),
            succeeded=succeeded,
            failures_by_class=tuple(failures),
            enabled=config.is_enabled(source),
        ))
    return health
