"""Simulated Crossref, PubMed and arXiv, answering from reference specs.

`CatalogSession` stands in for the `requests.Session` of citecheck's live
transport and answers in each source's wire format. A spec's mode at a source
decides the answer to a request that finds it: `match` (its record), `empty`
(unknown there), or a fault: `s401`, `s429`, `truncated` (a cut-off 200 body)
or `io_error` (a refused connection). Lookups find specs by identifier
(Crossref `/works/<doi>`, PubMed `<doi>[doi]` and esummary ids, arXiv
`id_list`); a search finds those whose record title and author family names
hold at least a `share` of the query's words, most shared words first, as a
bibliographic search ranks by relevance. The module imports nothing from
citecheck, so no answer depends on the normalization under test.
"""

from __future__ import annotations

import json
import re
import threading
import time
import unicodedata
from collections import Counter
from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace
from urllib.parse import unquote, urlsplit

import requests


@dataclass(frozen=True)
class RefSpec:
    ident: str
    title: str
    authors: tuple[tuple[str, str], ...]  # (family, given)
    year: int
    venue: str | None = None
    doi: str | None = None
    pmid: str | None = None
    arxiv: str | None = None
    key: str | None = None
    bibtype: str = "article"
    volume: str | None = None
    pages: str | None = None
    cite_doi: bool = True  # write the DOI into the source file
    cite_arxiv: bool = True  # write the arXiv id into the source file
    # Each source's mode: match, empty, or a fault (s401, s429, truncated, io_error).
    crossref_mode: str = "match"
    pubmed_mode: str = "empty"
    arxiv_mode: str = "empty"
    crossref_type: str = "journal-article"
    crossref_year_offset: int = 0
    related_journal_doi: str | None = None  # asserted by the arXiv feed
    result_title: str | None = None  # source records carry this title when set

    @property
    def journal_year(self) -> int:
        return self.year + self.crossref_year_offset

    @property
    def record_title(self) -> str:
        return self.result_title or self.title


def crossref_work(spec: RefSpec) -> dict:
    work = {
        "DOI": spec.doi,
        "title": [spec.record_title],
        "author": [{"family": f, "given": g} for f, g in spec.authors],
        "issued": {"date-parts": [[spec.journal_year]]},
        "type": spec.crossref_type,
    }
    if spec.venue:
        work["container-title"] = [spec.venue]
    return work


def pubmed_name(family: str, given: str) -> str:
    initials = "".join(chunk[0] for chunk in given.replace(".", " ").split() if chunk)
    return f"{family} {initials}" if initials else family


def pubmed_summary_record(spec: RefSpec) -> dict:
    article_ids = [{"idtype": "pubmed", "value": spec.pmid}]
    if spec.doi:
        article_ids.append({"idtype": "doi", "value": spec.doi})
    return {
        "uid": spec.pmid,
        "title": spec.record_title + ".",
        "authors": [{"name": pubmed_name(f, g), "authtype": "Author"}
                    for f, g in spec.authors],
        "pubdate": f"{spec.journal_year} Mar 14",
        "fulljournalname": spec.venue or "",
        "articleids": article_ids,
    }


def arxiv_feed(entries: list[RefSpec]) -> str:
    blocks = []
    for spec in entries:
        authors = "".join(f"<author><name>{g} {f}</name></author>"
                          for f, g in spec.authors)
        doi_tag = (f"<arxiv:doi>{spec.related_journal_doi}</arxiv:doi>"
                   if spec.related_journal_doi else "")
        blocks.append(
            f"<entry><id>http://arxiv.org/abs/{spec.arxiv}v1</id>"
            f"<title>{spec.record_title}</title>{authors}"
            f"<published>{spec.year}-05-02T00:00:00Z</published>{doi_tag}</entry>"
        )
    return ('<?xml version="1.0" encoding="UTF-8"?>'
            '<feed xmlns="http://www.w3.org/2005/Atom" '
            'xmlns:arxiv="http://arxiv.org/schemas/atom">'
            + "".join(blocks) + "</feed>")


_NON_WORD = re.compile(r"[^0-9a-z]+")
_PDAT = re.compile(r"^(.*) AND (\d{4})\[pdat\]$")


def words(text: str) -> frozenset[str]:
    """The casefolded, diacritic-free words of `text`."""
    decomposed = unicodedata.normalize("NFKD", text)
    folded = "".join(ch for ch in decomposed if not unicodedata.combining(ch)).casefold()
    return frozenset(w for w in _NON_WORD.split(folded) if w)


def _answer(status: int, body: bytes, content_type: str | None = None) -> SimpleNamespace:
    return SimpleNamespace(status_code=status, content=body,
                           headers={"Content-Type": content_type} if content_type else {})


def _json(payload: dict) -> SimpleNamespace:
    return _answer(200, json.dumps(payload).encode("utf-8"), "application/json")


def _fault(mode: str) -> SimpleNamespace:
    if mode == "io_error":
        raise requests.ConnectionError("connection refused by stub")
    return _answer(*{"s401": (401, b"{}"), "s429": (429, b""),
                     "truncated": (200, b'{"message": {"items": [{')}[mode])


def _by(known, field: str, values: str) -> list[RefSpec]:
    """The known specs whose `field` is one of the comma-separated `values`."""
    return [spec for value in values.lower().split(",") for spec, _ in known
            if (getattr(spec, field) or "").lower() == value]


def _search(known, share: float, text: str, year: str | None = None) -> list[RefSpec]:
    """The known specs whose record words hold at least a `share` of the words
    of `text`, most shared first."""
    query = words(text)
    held = sorted(((len(query & record), spec) for spec, record in known
                   if year in (None, str(spec.journal_year))), key=lambda hit: -hit[0])
    return [spec for shared, spec in held if query and shared >= share * len(query)]


# Each source's handler: (URL path, params, `_by` and `_search` over the specs
# the source knows) -> (the specs the request finds, how the source answers
# with them).

def _crossref(path: str, params: dict, by, search):
    if path.startswith("/works/"):
        return by("doi", path.removeprefix("/works/")), lambda hits: (
            _json({"message": crossref_work(hits[0])}) if hits
            else _answer(404, b"Resource not found."))
    return search(params["query.bibliographic"])[:int(params["rows"])], lambda hits: (
        _json({"message": {"items": [crossref_work(spec) for spec in hits]}}))


def _pubmed(path: str, params: dict, by, search):
    if path.endswith("/esummary.fcgi"):
        return by("pmid", params["id"]), lambda hits: _json({"result": {
            "uids": [spec.pmid for spec in hits],
            **{spec.pmid: pubmed_summary_record(spec) for spec in hits}}})
    term = params["term"]
    dated = _PDAT.match(term)
    found = (by("doi", term.removesuffix("[doi]")) if term.endswith("[doi]")
             else search(*dated.groups()) if dated else search(term))
    return found[:int(params["retmax"])], lambda hits: _json(
        {"esearchresult": {"idlist": [spec.pmid for spec in hits]}})


def _arxiv(path: str, params: dict, by, search):
    found = (by("arxiv", params["id_list"]) if "id_list" in params else
             search(params["search_query"].removeprefix('all:"').removesuffix('"')))
    return found[:int(params["max_results"])], lambda hits: _answer(
        200, arxiv_feed(hits).encode("utf-8"), "application/atom+xml")


_HOSTS = {"api.crossref.org": ("crossref", _crossref),
          "eutils.ncbi.nlm.nih.gov": ("pubmed", _pubmed),
          "export.arxiv.org": ("arxiv", _arxiv)}


class CatalogSession:
    """A `requests.Session` stand-in that answers from `specs` after `delay_s`.

    A search finds the records that hold at least a `share` of its words: 1.0
    finds only records holding them all, 0.5 also the near misses a relevance
    ranking returns. `received` counts the requests it got by (source, URL
    path, sorted params).
    """

    def __init__(self, specs: list[RefSpec], delay_s: float = 0.0, share: float = 1.0):
        self.delay_s, self.share = delay_s, share
        self.received: Counter[tuple] = Counter()
        self._lock = threading.Lock()
        self._indexed = [(spec, words(" ".join([spec.record_title]
                                               + [family for family, _ in spec.authors])))
                         for spec in specs]

    def get(self, url, params=None, headers=None, timeout=None):
        parts = urlsplit(url)
        (source, handler), params = _HOSTS[parts.hostname], dict(params or {})
        with self._lock:
            self.received[source, parts.path, tuple(sorted(params.items()))] += 1
        if self.delay_s:
            time.sleep(self.delay_s)
        known = [(spec, record) for spec, record in self._indexed
                 if getattr(spec, f"{source}_mode") != "empty"]
        found, render = handler(unquote(parts.path), params, partial(_by, known),
                                partial(_search, known, self.share))
        faults = [mode for spec in found if (mode := getattr(spec, f"{source}_mode")) != "match"]
        return _fault(faults[0]) if faults else render(found)
