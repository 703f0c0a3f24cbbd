"""Simulated PubMed, Crossref and arXiv, answering from a generated catalog.

The simulation stands in for the HTTP client of citecheck's live
transport (``requests.Session``): ``LiveTransport`` still builds, sends,
times and retries every request, and the connectors parse real wire
formats. Each source has a fixed latency; jitter of +/-10 % is a hash of
the request, never of call order, so a run waits the same however its
threads interleave.

Search semantics, over folded casefolded tokens of a work's title and its
authors' family names:
  crossref  query.bibliographic returns works sharing at least half the
            query's tokens, most shared first (a fuzzy ranking engine);
  pubmed    esearch terms are ANDed, ``[pdat]`` filters the year and
            ``[doi]`` looks a DOI up; esummary takes comma-joined ids;
  arxiv     ``all:"..."`` ANDs the phrase's tokens; ``id_list`` looks up.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
import time
import unicodedata
from urllib.parse import unquote, urlsplit

SOURCES = ("pubmed", "crossref", "arxiv")
HOSTS = {"api.crossref.org": "crossref", "eutils.ncbi.nlm.nih.gov": "pubmed",
         "export.arxiv.org": "arxiv"}
JITTER = 0.10

_TOKEN_RE = re.compile(r"[^0-9a-z]+")
_PDAT_RE = re.compile(r"^(.*) AND (\d{4})\[pdat\]$")


def tokens(text: str) -> frozenset[str]:
    decomposed = unicodedata.normalize("NFKD", text)
    folded = "".join(ch for ch in decomposed if unicodedata.category(ch) != "Mn").casefold()
    return frozenset(t for t in _TOKEN_RE.split(folded) if t)


def _xml(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class SimResponse:
    def __init__(self, status: int, body: bytes, content_type: str):
        self.status_code = status
        self.content = body
        self.headers = {"Content-Type": content_type}


class Catalog:
    """Per-source records and token indexes built from the generated works."""

    def __init__(self, works: list[dict]):
        self.works = works
        self.by_doi = {w["doi"]: w for w in works if w["doi"]}
        self.by_pmid = {w["pmid"]: w for w in works if w["pmid"]}
        self.by_arxiv = {w["arxiv"]: w for w in works if w["arxiv"]}
        self.toks = [tokens(w["title"] + " " + " ".join(f for f, _ in w["authors"]))
                     for w in works]
        self.index: dict[str, list[int]] = {}
        for i, toks in enumerate(self.toks):
            for tok in toks:
                self.index.setdefault(tok, []).append(i)

    def search(self, query: str, member, need_all: bool) -> list[dict]:
        q = tokens(query)
        if not q:
            return []
        shared: dict[int, int] = {}
        for tok in q:
            for i in self.index.get(tok, ()):
                shared[i] = shared.get(i, 0) + 1
        need = len(q) if need_all else (len(q) + 1) // 2
        hits = [(-n, i) for i, n in shared.items() if n >= need and member(self.works[i])]
        return [self.works[i] for _, i in sorted(hits)]


# --------------------------------------------------------------------------
# Wire formats
# --------------------------------------------------------------------------

def crossref_work(w: dict) -> dict:
    return {
        "DOI": w["doi"],
        "title": [w["title"]],
        "author": [{"family": f, "given": g} for f, g in w["authors"]],
        "issued": {"date-parts": [[w["year"]]]},
        "container-title": [w["venue"]],
        "type": "journal-article" if w["kind"] == "journal" else "proceedings-article",
    }


def pubmed_summary(w: dict) -> dict:
    return {
        "uid": w["pmid"],
        "title": w["title"] + ".",
        "authors": [{"name": f"{f} {g[0]}", "authtype": "Author"} for f, g in w["authors"]],
        "pubdate": f"{w['year']} Mar 14",
        "fulljournalname": w["venue"],
        "articleids": [{"idtype": "pubmed", "value": w["pmid"]},
                       {"idtype": "doi", "value": w["doi"]}],
    }


def arxiv_entry(w: dict) -> str:
    authors = "".join(f"<author><name>{_xml(g)} {_xml(f)}</name></author>"
                      for f, g in w["authors"])
    doi = f"<arxiv:doi>{w['doi']}</arxiv:doi>" if w["doi"] else ""
    return (f"<entry><id>http://arxiv.org/abs/{w['arxiv']}v1</id>"
            f"<title>{_xml(w['title'])}</title>{authors}"
            f"<published>{w['preprint_year']}-03-01T00:00:00Z</published>{doi}</entry>")


def _json(payload: dict) -> SimResponse:
    return SimResponse(200, json.dumps(payload, ensure_ascii=False).encode("utf-8"),
                       "application/json")


def _feed(entries: list[dict]) -> SimResponse:
    body = ('<?xml version="1.0" encoding="UTF-8"?>'
            '<feed xmlns="http://www.w3.org/2005/Atom" '
            'xmlns:arxiv="http://arxiv.org/schemas/atom">'
            + "".join(arxiv_entry(w) for w in entries) + "</feed>")
    return SimResponse(200, body.encode("utf-8"), "application/atom+xml")


# --------------------------------------------------------------------------
# The simulated sources
# --------------------------------------------------------------------------

class SimulatedSources:
    """Answers every request the connectors build; counts what it served."""

    def __init__(self, catalog: Catalog, latency_s: dict[str, float] | None = None,
                 sleep=time.sleep):
        self.catalog = catalog
        self.latency_s = {s: (latency_s or {}).get(s, 0.0) for s in SOURCES}
        self._sleep = sleep
        self._lock = threading.Lock()
        self.requests = {s: 0 for s in SOURCES}
        self.wait_s = 0.0

    @classmethod
    def load(cls, catalog_path: str, latency_s: dict[str, float] | None = None):
        with open(catalog_path, encoding="utf-8") as fh:
            return cls(Catalog(json.load(fh)), latency_s)

    def latency(self, source: str, key: str) -> float:
        base = self.latency_s[source]
        if base <= 0:
            return 0.0
        h = int.from_bytes(hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest(), "big")
        return base * (1.0 + JITTER * (2.0 * h / 2 ** 64 - 1.0))

    def get(self, url: str, params: dict | None = None, headers=None, timeout=None):
        params = {k: str(v) for k, v in (params or {}).items()}
        parts = urlsplit(url)
        source = HOSTS.get(parts.netloc)
        if source is None:
            return SimResponse(404, b"unknown host", "text/plain")
        key = source + "|" + parts.path + "|" + "&".join(f"{k}={v}" for k, v in
                                                            sorted(params.items()))
        delay = self.latency(source, key)
        with self._lock:
            self.requests[source] += 1
            self.wait_s += delay
        if delay:
            self._sleep(delay)
        handler = getattr(self, f"_{source}")
        return handler(parts.path, params)

    def stats(self) -> dict:
        with self._lock:
            return {"requests": dict(self.requests), "wait_s": self.wait_s}

    # -- sources ---------------------------------------------------------

    def _crossref(self, path: str, params: dict) -> SimResponse:
        cat = self.catalog
        if path.startswith("/works/"):
            work = cat.by_doi.get(unquote(path[len("/works/"):]).lower())
            if work is None:
                return SimResponse(404, b"Resource not found.", "text/plain")
            return _json({"message": crossref_work(work)})
        rows = int(params.get("rows", "5"))
        hits = cat.search(params.get("query.bibliographic", ""),
                          lambda w: w["doi"] is not None, need_all=False)
        return _json({"message": {"items": [crossref_work(w) for w in hits[:rows]]}})

    def _pubmed(self, path: str, params: dict) -> SimResponse:
        cat = self.catalog
        if path.endswith("esummary.fcgi"):
            ids = [i for i in params.get("id", "").split(",") if i in cat.by_pmid]
            result: dict = {"uids": ids}
            for i in ids:
                result[i] = pubmed_summary(cat.by_pmid[i])
            return _json({"result": result})
        term = params.get("term", "")
        retmax = int(params.get("retmax", "20"))
        if term.endswith("[doi]"):
            work = cat.by_doi.get(term[:-len("[doi]")].lower())
            ids = [work["pmid"]] if work is not None and work["pmid"] else []
        else:
            year = None
            m = _PDAT_RE.match(term)
            if m:
                term, year = m.group(1), int(m.group(2))
            hits = cat.search(term, lambda w: w["pmid"] is not None
                              and (year is None or w["year"] == year), need_all=True)
            ids = [w["pmid"] for w in hits]
        return _json({"esearchresult": {"count": str(len(ids)), "idlist": ids[:retmax]}})

    def _arxiv(self, path: str, params: dict) -> SimResponse:
        cat = self.catalog
        limit = int(params.get("max_results", "10"))
        if "id_list" in params:
            entries = [cat.by_arxiv[i] for i in params["id_list"].split(",")
                       if i in cat.by_arxiv]
            return _feed(entries[:limit])
        query = params.get("search_query", "")
        if query.startswith('all:"') and query.endswith('"'):
            query = query[5:-1]
        hits = cat.search(query, lambda w: w["arxiv"] is not None, need_all=True)
        return _feed(hits[:limit])


def install(sim: SimulatedSources) -> None:
    """Make citecheck's live transport send its requests to `sim`.

    ``LiveTransport`` builds ``requests.Session()`` when no session is
    passed; the module-level name is swapped for one whose Session is the
    simulation. Exceptions keep their real types.
    """
    import types

    import requests
    from citecheck.sources import transport

    transport.requests = types.SimpleNamespace(
        Session=lambda: sim, RequestException=requests.RequestException)
