"""Seeded inputs for the benchmark: a catalog of works, the manuscripts that
cite them, and a ground-truth record per cited entry.

Everything here is a pure function of the seed and the size. The program
under test never sees this module; it receives only the files written to
disk and, through the simulated source, the catalog.

Vocabulary
    Catalog words (titles, family names, venues) are pseudo-words built from
    the consonants ``bdfgklmnprstv`` and the vowels ``aeio``; every catalog
    token therefore holds one of ``aeio``. Fabricated words use only
    ``hjwxz`` and ``uy``, so a fabricated entry shares no content word with
    the catalog and no source can return a candidate for it.

Cases
    Every cited entry carries one planted case. ``CASES`` records, per case,
    which works it may cite, the verdict the documented thresholds imply
    (``matching.py``: verified >= 0.9, weak < 0.6, identifier override, the
    0.5/0.2/0.15/0.15 weighting), and whether a replacement-mode run must
    patch it. The comment on each case gives the arithmetic.
"""

from __future__ import annotations

import io
import itertools
import json
import random
import unicodedata
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

CAT_CONS = "bdfgklmnprstv"
CAT_VOWELS = "aeio"
FAB_CONS = "hjwxz"
FAB_VOWELS = "uy"
ACCENTED = {"a": "á", "e": "é", "i": "í", "o": "ó"}
# Family names with diacritics; all decompose under NFKD, so folding is exact.
DIACRITIC_FAMILIES = ("Müller", "Šimek", "Novák", "Çelik", "Ångström", "Peña",
                      "Dvořák", "Jääskeläinen", "Gómez")

YEARS = range(2009, 2024)  # new-style arXiv ids need years >= 2008

# Default-preset bounds (policy.py, PRESETS["default"]); the expected exit
# code of a planted mix follows from them.
DEFAULT_MAX_UNRESOLVED = 0.25
DEFAULT_MIN_VERIFIED = 0.50


# --------------------------------------------------------------------------
# Catalog
# --------------------------------------------------------------------------

@dataclass
class Work:
    wid: int
    words: list[str]  # title words, display form
    authors: list[tuple[str, str]]  # (family, given)
    year: int  # year of the preferred manifestation
    venue: str | None
    kind: str  # journal | conference | preprint (preprint-only work)
    doi: str | None = None
    pmid: str | None = None
    arxiv: str | None = None
    preprint_year: int | None = None
    has_diacritics: bool = False

    @property
    def title(self) -> str:
        return " ".join(self.words)

    @property
    def preferred(self) -> tuple[str, str]:
        return ("doi", self.doi) if self.doi else ("arxiv", self.arxiv)

    def to_json(self) -> dict:
        return {"wid": self.wid, "title": self.title, "authors": self.authors,
                "year": self.year, "venue": self.venue, "kind": self.kind,
                "doi": self.doi, "pmid": self.pmid, "arxiv": self.arxiv,
                "preprint_year": self.preprint_year}


def fold(text: str) -> str:
    decomposed = unicodedata.normalize("NFKD", text)
    return "".join(ch for ch in decomposed if unicodedata.category(ch) != "Mn")


class Vocabulary:
    """Disjoint pools of catalog title words, family names, given names,
    venue words, and fabricated words."""

    def __init__(self, rng: random.Random, n_title: int = 4000):
        seen: set[str] = set()

        def draw(cons: str, vowels: str, syllables: tuple[int, ...], n: int) -> list[str]:
            out: list[str] = []
            while len(out) < n:
                word = "".join(rng.choice(cons) + rng.choice(vowels)
                               for _ in range(rng.choice(syllables)))
                if rng.random() < 0.5:
                    word += rng.choice(cons)
                if len(word) >= 5 and word not in seen:
                    seen.add(word)
                    out.append(word)
            return out

        self.title = draw(CAT_CONS, CAT_VOWELS, (2, 3), n_title)
        self.family = [w.capitalize() for w in draw(CAT_CONS, CAT_VOWELS, (2, 3), 900)]
        self.given = [w.capitalize() for w in draw(CAT_CONS, CAT_VOWELS, (2,), 300)]
        self.venue = [w.capitalize() for w in draw(CAT_CONS, CAT_VOWELS, (3,), 200)]
        self.fabricated = draw(FAB_CONS, FAB_VOWELS, (3, 4), 1500)


def _venues(rng: random.Random, vocab: Vocabulary, n: int) -> tuple[list[str], list[str]]:
    words = list(vocab.venue)
    rng.shuffle(words)
    journals, conferences = [], []
    for i in range(n):
        a, b, c = words[3 * i], words[3 * i + 1], words[3 * i + 2]
        shape = i % 3
        if shape == 0:
            journals.append(f"Journal of {a} {b}")
        elif shape == 1:
            journals.append(f"{a} {b} Letters")
        else:
            journals.append(f"Annals of {a} {b} {c}")
        conferences.append(f"Proceedings of the {a} Conference on {b} {c}")
    return journals, conferences


def abbreviate_venue(venue: str) -> str:
    fixed = {"Journal": "J.", "Proceedings": "Proc.", "Conference": "Conf.",
             "Annals": "Ann.", "Letters": "Lett."}
    out = []
    for word in venue.split():
        if word in fixed:
            out.append(fixed[word])
        elif word in ("of", "the", "on"):
            continue
        else:
            out.append(word[:4] + ".")
    return " ".join(out)


def _exact_counts(n: int, shares: dict[str, float]) -> list[str]:
    """Largest-remainder apportionment: exactly n labels in fixed shares."""
    keys = list(shares)
    raw = [n * shares[k] for k in keys]
    counts = [int(v) for v in raw]
    rest = n - sum(counts)
    for i in sorted(range(len(keys)), key=lambda i: (counts[i] - raw[i], i))[:rest]:
        counts[i] += 1
    return [k for k, c in zip(keys, counts) for _ in range(c)]


def build_catalog(rng: random.Random, vocab: Vocabulary, n_works: int) -> list[Work]:
    """Works with fixed shares of each property, so every seed has the same mix.

    60 % journal articles (half of them PubMed-indexed), 30 % conference
    papers, 10 % preprint-only works. 40 % of the journal and conference
    works also have an arXiv preprint whose feed asserts the published DOI;
    half of those preprints carry the publication year, half the year before.
    Titles have 7 to 11 words in equal shares; a sixth of the works carry a
    diacritic in the first author's family name or in a title word.
    """
    journals, conferences = _venues(rng, vocab, 40)

    def shuffled(n: int, shares: dict) -> list:
        labels = _exact_counts(n, shares)
        rng.shuffle(labels)
        return labels

    kinds = shuffled(n_works, {"journal": 0.6, "conference": 0.3, "preprint": 0.1})
    lengths = shuffled(n_works, {n: 0.2 for n in range(7, 12)})
    accents = shuffled(n_works, {"family": 1 / 12, "title": 1 / 12, None: 5 / 6})
    n_published = sum(k != "preprint" for k in kinds)
    preprint_lag = iter(shuffled(n_published, {0: 0.2, 1: 0.2, None: 0.6}))
    pubmed = iter(shuffled(kinds.count("journal"), {True: 0.5, False: 0.5}))

    works: list[Work] = []
    arxiv_seq: dict[tuple[int, int], int] = {}
    for wid, (kind, n_words, accent) in enumerate(zip(kinds, lengths, accents)):
        words = rng.sample(vocab.title, n_words)
        words[0] = words[0].capitalize()
        authors = [(rng.choice(vocab.family), rng.choice(vocab.given))
                   for _ in range(1 + rng.randrange(4))]
        if accent == "family":
            authors[0] = (rng.choice(DIACRITIC_FAMILIES), authors[0][1])
        elif accent == "title":
            i = 1 + rng.randrange(n_words - 1)
            pos = next(j for j, ch in enumerate(words[i]) if ch in ACCENTED)
            words[i] = words[i][:pos] + ACCENTED[words[i][pos]] + words[i][pos + 1:]
        year = rng.choice(YEARS)
        work = Work(wid=wid, words=words, authors=authors, year=year, venue=None,
                    kind=kind, has_diacritics=accent is not None)
        if kind == "preprint":
            work.preprint_year = year
        else:
            venue_pool = journals if kind == "journal" else conferences
            work.venue = rng.choice(venue_pool)
            registrant = 5000 + venue_pool.index(work.venue) + (0 if kind == "journal" else 100)
            work.doi = f"10.{registrant}/{fold(words[1]).lower()}.{year}.{wid:05d}"
            if kind == "journal" and next(pubmed):
                work.pmid = str(20000000 + wid * 7)
            lag = next(preprint_lag)
            if lag is not None:
                work.preprint_year = year - lag
        if work.preprint_year is not None:
            key = (work.preprint_year % 100, 1 + rng.randrange(12))
            arxiv_seq[key] = arxiv_seq.get(key, 0) + 1
            work.arxiv = f"{key[0]:02d}{key[1]:02d}.{10000 + arxiv_seq[key]:05d}"
        works.append(work)
    return works


# --------------------------------------------------------------------------
# Cases and cited entries
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Case:
    name: str
    status: str  # expected verdict status
    patch: bool  # replacement mode must patch it (bibtex artifacts)


CASES = {c.name: c for c in (
    # DOI exact and title >= 0.6 lift confidence to >= 0.95.
    Case("clean_doi", "verified", False),
    Case("year_off", "verified", True),
    Case("truncated_title", "verified", True),  # keeps >= 75 % of the title words
    Case("abbrev_venue", "verified", True),
    Case("initials", "verified", False),  # family names equal: no author patch
    Case("diacritics", "verified", False),  # folded forms match: nothing to patch
    # A malformed DOI is dropped at extraction; the title search then scores
    # 0.5 + 0.2 + 0.15 + 0.15 = 1.0 and the patch rewrites the doi field.
    # BibTeX only: free text would not read it as a DOI at all.
    Case("malformed_doi", "verified", True),
    # Title search, every field exact: 1.0. The patch adds the DOI.
    Case("missing_doi", "verified", True),
    # PMID exact on the PubMed record; Crossref ties at 1.0 and wins the
    # source order, same DOI. Bib patch adds the DOI.
    Case("pmid_cited", "verified", True),
    # Cites the preprint by title, same year, no venue: the journal record
    # scores 0.5 + 0.2 + 0.15 + 0.075 = 0.925 and is preferred.
    Case("preprint_title_same_year", "verified", True),
    # Same with the preprint a year older: year term 0.7 gives 0.88.
    Case("preprint_title_later", "needs_review", False),
    # Preprint-only work cited by arXiv id: identifier exact.
    Case("preprint_only", "verified", False),
    # Cites the arXiv id while a journal version exists: manifestation_conflict.
    Case("preprint_id_conflict", "needs_review", False),
    # A well-formed DOI no source knows: passes 1-3, identifier_conflict caps
    # confidence at 0.5 on the record the searches find.
    Case("wrong_doi", "needs_review", False),
    # Title plus n+2 fabricated words: passes 1 and 2 find nothing, the
    # relaxed pass 3 does; title similarity n/(2n+2) < 0.6 -> title_mismatch.
    Case("subtitle_junk", "needs_review", False),
    # (n-1)/2 of n (odd) title words kept: only the pass-2 query with the
    # family name reaches half overlap; 0.5*t + 0.5 with t ~ 0.29 -> ~0.64.
    Case("garbled_half", "needs_review", False),
    # No catalog word anywhere: no candidates after three passes.
    Case("fabricated", "unresolved", False),
)}


def _compatible(case: str, work: Work) -> bool:
    has_doi = work.doi is not None
    if case in ("clean_doi", "year_off", "truncated_title", "abbrev_venue", "initials",
                "malformed_doi", "missing_doi", "subtitle_junk"):
        return has_doi
    if case == "diacritics":
        return has_doi and work.has_diacritics
    if case == "pmid_cited":
        return work.pmid is not None
    if case == "preprint_title_same_year":
        return has_doi and work.arxiv is not None and work.preprint_year == work.year
    if case == "preprint_title_later":
        return has_doi and work.arxiv is not None and work.preprint_year == work.year - 1
    if case == "preprint_id_conflict":
        return has_doi and work.arxiv is not None
    if case == "preprint_only":
        return work.kind == "preprint"
    if case == "wrong_doi":
        return has_doi and work.arxiv is None
    if case == "garbled_half":
        return has_doi and len(work.words) % 2 == 1
    raise ValueError(case)


@dataclass
class Cited:
    """One cited entry as written, plus its ground truth."""

    case: str
    work: Work | None
    authors: list[tuple[str, str]]
    title: str
    year: int
    venue: str | None
    entry_type: str = "article"
    doi: str | None = None  # as written (may be malformed or wrong)
    pmid: str | None = None
    arxiv: str | None = None
    key: str = ""

    @property
    def expected_status(self) -> str:
        return CASES[self.case].status

    @property
    def expected_chosen(self) -> tuple[str, str] | None:
        return self.work.preferred if self.work is not None else None


def _fabricated_words(rng: random.Random, vocab: Vocabulary, n: int) -> list[str]:
    return rng.sample(vocab.fabricated, n)


def make_cited(rng: random.Random, vocab: Vocabulary, case: str,
               work: Work | None) -> Cited:
    if case == "fabricated":
        words = _fabricated_words(rng, vocab, 6 + rng.randrange(5))
        words[0] = words[0].capitalize()
        fam = _fabricated_words(rng, vocab, 2)
        return Cited(case=case, work=None,
                     authors=[(f.capitalize(), "Hu") for f in fam],
                     title=" ".join(words), year=rng.choice(YEARS),
                     venue=f"Journal of {_fabricated_words(rng, vocab, 1)[0].capitalize()}",
                     entry_type="article")
    assert work is not None
    c = Cited(case=case, work=work, authors=list(work.authors), title=work.title,
              year=work.year, venue=work.venue,
              entry_type="inproceedings" if work.kind == "conference" else "article",
              doi=work.doi)
    if case == "year_off":
        c.year = work.year + rng.choice((-1, 1))
    elif case == "truncated_title":
        keep = -(-3 * len(work.words) // 4)
        c.title = " ".join(work.words[:keep])
    elif case == "abbrev_venue":
        c.venue = abbreviate_venue(work.venue)
    elif case == "initials":
        c.authors = [(f, g[0] + ".") for f, g in work.authors]
    elif case == "diacritics":
        c.authors = [(fold(f), g) for f, g in work.authors]
        c.title = fold(work.title)
    elif case == "malformed_doi":
        c.doi = "10," + work.doi[3:]
    elif case in ("missing_doi", "subtitle_junk", "garbled_half"):
        c.doi = None
        if case == "subtitle_junk":
            junk = _fabricated_words(rng, vocab, len(work.words) + 2)
            c.title = work.title + ": " + " ".join(junk)
        elif case == "garbled_half":
            n = len(work.words)
            keep = (n - 1) // 2
            junk = _fabricated_words(rng, vocab, n - keep)
            c.title = " ".join(work.words[:keep] + junk)
    elif case == "pmid_cited":
        c.doi, c.pmid = None, work.pmid
    elif case in ("preprint_title_same_year", "preprint_title_later"):
        c.doi, c.venue, c.year, c.entry_type = None, None, work.preprint_year, "misc"
    elif case in ("preprint_only", "preprint_id_conflict"):
        c.doi, c.venue, c.year, c.entry_type = None, None, work.preprint_year, "misc"
        c.arxiv = work.arxiv
    elif case == "wrong_doi":
        c.doi = f"10.9999/{fold(work.words[2]).lower()}.{work.wid:05d}"
    return c


def assign_keys(cited: list[Cited]) -> None:
    """Unique BibTeX keys: family + year + ordinal (no duplicate_key lint)."""
    for i, c in enumerate(cited, start=1):
        c.key = f"{fold(c.authors[0][0]).lower()}{c.year}n{i}"


def expected_exit(cited: list[Cited]) -> int:
    total = len(cited)
    unresolved = sum(c.expected_status == "unresolved" for c in cited) / total
    verified = sum(c.expected_status == "verified" for c in cited) / total
    return 1 if unresolved > DEFAULT_MAX_UNRESOLVED or verified < DEFAULT_MIN_VERIFIED else 0


# --------------------------------------------------------------------------
# Renderers
# --------------------------------------------------------------------------

def bibtex_entry(c: Cited) -> str:
    fields = [("author", " and ".join(f"{f}, {g}" for f, g in c.authors)),
              ("title", c.title)]
    if c.venue:
        fields.append(("booktitle" if c.entry_type == "inproceedings" else "journal",
                       c.venue))
    fields.append(("year", str(c.year)))
    if c.doi:
        fields.append(("doi", c.doi))
    if c.pmid:
        fields.append(("pmid", c.pmid))
    if c.arxiv:
        fields.append(("eprint", c.arxiv))
        fields.append(("archiveprefix", "arXiv"))
    body = ",\n".join(f"  {name} = {{{value}}}" for name, value in fields)
    return f"@{c.entry_type}{{{c.key},\n{body}\n}}"


def freetext_body(c: Cited) -> str:
    """'Family, G. and ... (Year). Title. Venue. identifier' with initials."""
    authors = " and ".join(f"{f}, {g[0]}." for f, g in c.authors)
    parts = [f"{authors} ({c.year}).", f"{c.title}."]
    if c.venue:
        parts.append(f"{c.venue}.")
    if c.doi:
        parts.append(f"https://doi.org/{c.doi}")
    if c.pmid:
        parts.append(f"PMID: {c.pmid}.")
    if c.arxiv:
        parts.append(f"arXiv:{c.arxiv}.")
    return " ".join(parts)


def write_bib(path: Path, cited: list[Cited]) -> None:
    path.write_text("\n\n".join(bibtex_entry(c) for c in cited) + "\n", encoding="utf-8")


def write_bibitem_tex(path: Path, cited: list[Cited]) -> None:
    lines = ["\\documentclass{article}", "\\begin{document}",
             "Prior work is summarised in the introduction.", "",
             "\\begin{thebibliography}{99}"]
    for i, c in enumerate(cited, start=1):
        lines.append(f"\\bibitem{{r{i}}} {freetext_body(c)}")
    lines += ["\\end{thebibliography}", "\\end{document}"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_tex_with_bib(tex: Path, bib_name: str) -> None:
    tex.write_text("\\documentclass{article}\n\\begin{document}\n"
                   "Results follow~\\cite{placeholder}.\n"
                   f"\\bibliography{{{bib_name[:-4]}}}\n\\end{{document}}\n",
                   encoding="utf-8")


def write_markdown(path: Path, cited: list[Cited], rejected_line: bool) -> None:
    lines = ["# Working notes", "", "Draft of the related-work section.", "",
             "## References", ""]
    for i, c in enumerate(cited, start=1):
        lines.append(f"{i}. {freetext_body(c)}")
    if rejected_line:
        lines.append(f"{len(cited) + 1}. ———")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_txt(path: Path, cited: list[Cited], rejected_line: bool) -> None:
    lines = ["Manuscript draft, plain text.", "", "References", ""]
    for i, c in enumerate(cited, start=1):
        lines.append(f"[{i}] {freetext_body(c)}")
    if rejected_line:
        lines.append(f"[{len(cited) + 1}] ———")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _xml_escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def write_docx(path: Path, cited: list[Cited]) -> None:
    paragraphs = ["Project report", "Summary of the work so far.", "References"]
    paragraphs += [f"[{i}] {freetext_body(c)}" for i, c in enumerate(cited, start=1)]
    body = "".join(f'<w:p><w:r><w:t xml:space="preserve">{_xml_escape(p)}</w:t></w:r></w:p>'
                   for p in paragraphs)
    xml = ('<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
           '<w:document xmlns:w="http://schemas.openxmlformats.org/wordprocessingml/2006/main">'
           f"<w:body>{body}</w:body></w:document>")
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", zipfile.ZIP_DEFLATED) as archive:
        # A fixed timestamp: the same seed must give the same bytes.
        archive.writestr(zipfile.ZipInfo("word/document.xml", (1980, 1, 1, 0, 0, 0)), xml,
                         compress_type=zipfile.ZIP_DEFLATED)
    path.write_bytes(buffer.getvalue())


def write_catalog(path: Path, works: list[Work]) -> None:
    path.write_text(json.dumps([w.to_json() for w in works], ensure_ascii=False),
                    encoding="utf-8")


# --------------------------------------------------------------------------
# Workload corpora
# --------------------------------------------------------------------------

@dataclass
class Paper:
    """One folder: what the client targets and what the checks expect."""

    folder: Path
    target: Path  # path handed to analyze / repair (folder, or the .tex)
    artifact: str  # path the scan must select, relative to the folder
    fmt: str
    cited: list[Cited]
    rejected: int = 0
    exit_code: int = 0


@dataclass
class Corpus:
    works: list[Work]
    papers: list[Paper] = field(default_factory=list)


def _cite_mix(rng: random.Random, vocab: Vocabulary, works: list[Work],
              labels: list[str], weights: list[float] | None = None) -> list[Cited]:
    """One entry per label, citing distinct compatible works: uniformly, or
    with the given per-work weights when there are any."""
    pools: dict[str, list[Work]] = {}
    cum: dict[str, list[float]] = {}
    used: set[int] = set()
    cited = []
    for case in labels:
        work = None
        if case != "fabricated":
            if case not in pools:
                pools[case] = [w for w in works if _compatible(case, w)]
                if weights is None:
                    rng.shuffle(pools[case])
                else:
                    cum[case] = list(itertools.accumulate(weights[w.wid] for w in pools[case]))
            pool = pools[case]
            if weights is None:
                while pool and pool[-1].wid in used:
                    pool.pop()
                if not pool:
                    raise ValueError(f"catalog too small for case {case}")
                work = pool.pop()
            else:
                for _ in range(1000):
                    work = rng.choices(pool, cum_weights=cum[case])[0]
                    if work.wid not in used:
                        break
                else:
                    raise ValueError(f"catalog too small for case {case}")
            used.add(work.wid)
        cited.append(make_cited(rng, vocab, case, work))
    return cited


BULK_SHARES = {
    "clean_doi": 0.58, "year_off": 0.06, "malformed_doi": 0.04, "missing_doi": 0.06,
    "truncated_title": 0.05, "abbrev_venue": 0.05, "initials": 0.05, "diacritics": 0.04,
    "preprint_title_same_year": 0.02, "preprint_only": 0.02, "pmid_cited": 0.01,
    "fabricated": 0.02,
}


def bulk_corpus(seed: int, n_entries: int, base: Path) -> Corpus:
    """One folder with one refs.bib of n_entries entries, no duplicate works,
    keys or manifestation conflicts, so the default preset allows replacement."""
    rng = random.Random(f"bulk-{seed}")
    vocab = Vocabulary(rng)
    works = build_catalog(rng, vocab, int(n_entries * 1.6) + 200)
    labels = _exact_counts(n_entries, BULK_SHARES)
    rng.shuffle(labels)
    cited = _cite_mix(rng, vocab, works, labels)
    assign_keys(cited)
    folder = base / "paper"
    folder.mkdir(parents=True)
    write_bib(folder / "refs.bib", cited)
    corpus = Corpus(works=works)
    corpus.papers.append(Paper(folder=folder, target=folder, artifact="refs.bib",
                               fmt="bib", cited=cited, exit_code=expected_exit(cited)))
    return corpus


SLOW_SHARES = {
    "missing_doi": 0.20, "clean_doi": 0.10, "pmid_cited": 0.06, "subtitle_junk": 0.20,
    "garbled_half": 0.16, "wrong_doi": 0.08, "preprint_id_conflict": 0.04,
    "preprint_title_later": 0.04, "preprint_only": 0.04, "year_off": 0.03,
    "fabricated": 0.05,
}


def slow_corpus(seed: int, n_entries: int, base: Path) -> Corpus:
    """One free-text manuscript; a sixth of the entries repeat an earlier one.

    Even seeds write a .tex with \\bibitem entries, odd seeds a Markdown
    References section.
    """
    rng = random.Random(f"slow-{seed}")
    vocab = Vocabulary(rng)
    works = build_catalog(rng, vocab, max(400, n_entries * 2))
    n_repeat = n_entries // 6
    labels = _exact_counts(n_entries - n_repeat, SLOW_SHARES)
    rng.shuffle(labels)
    distinct = _cite_mix(rng, vocab, works, labels)
    cited = list(distinct)
    for case in _exact_counts(n_repeat, SLOW_SHARES):
        original = rng.choice([c for c in distinct if c.case == case])
        first = next(i for i, c in enumerate(cited) if c is original)
        cited.insert(first + 1 + rng.randrange(len(cited) - first), original)
    folder = base / "manuscript"
    folder.mkdir(parents=True)
    if seed % 2 == 0:
        write_bibitem_tex(folder / "paper.tex", cited)
        artifact, fmt = "paper.tex", "bibitem"
    else:
        write_markdown(folder / "paper.md", cited, rejected_line=False)
        artifact, fmt = "paper.md", "md"
    corpus = Corpus(works=works)
    corpus.papers.append(Paper(folder=folder, target=folder, artifact=artifact, fmt=fmt,
                               cited=cited, exit_code=expected_exit(cited)))
    return corpus


MCP_SHARES = {
    "clean_doi": 0.40, "missing_doi": 0.12, "year_off": 0.05, "truncated_title": 0.05,
    "abbrev_venue": 0.04, "initials": 0.04, "diacritics": 0.03, "pmid_cited": 0.03,
    "preprint_title_same_year": 0.02, "preprint_title_later": 0.02,
    "preprint_id_conflict": 0.05, "preprint_only": 0.03, "wrong_doi": 0.03,
    "subtitle_junk": 0.03, "garbled_half": 0.02, "fabricated": 0.04,
}
MCP_FORMATS = ("bib", "texbib", "bibitem", "md", "txt", "docx")


def _distractors(folder: Path, fmt: str) -> None:
    (folder / "analysis.py").write_text("print('figures')\n", encoding="utf-8")
    (folder / "figures").mkdir()
    (folder / "figures" / "fig1.png").write_bytes(b"\x89PNG\r\n\x1a\n" + bytes(64))
    (folder / "data" / "raw").mkdir(parents=True)
    (folder / "data" / "raw" / "measurements.csv").write_text("x,y\n1,2\n", encoding="utf-8")
    (folder / ".git").mkdir()
    (folder / ".git" / "old_refs.bib").write_text("@misc{ghost, title={Ghost}}\n",
                                                 encoding="utf-8")
    (folder / "node_modules" / "lib").mkdir(parents=True)
    (folder / "node_modules" / "lib" / "refs.bib").write_text("@misc{junk, title={Junk}}\n",
                                                            encoding="utf-8")
    (folder / "build").mkdir()
    (folder / "build" / "out.tex").write_text("\\bibitem{x} Stale.\n", encoding="utf-8")
    if fmt in ("bib", "texbib", "bibitem", "md"):
        # A lower-ranked supported file, nested: must not win the scan.
        (folder / "notes").mkdir()
        (folder / "notes" / "todo.txt").write_text("Check the figures.\n", encoding="utf-8")


def mcp_corpus(seed: int, n_folders: int, base: Path) -> Corpus:
    """Folders of 10-60 entries over one shared catalog, cited Zipf-like.

    Folder sizes are evenly spaced over 10..60 and formats come in equal
    shares; only their order and the cited works depend on the seed.
    """
    rng = random.Random(f"mcp-{seed}")
    vocab = Vocabulary(rng)
    works = build_catalog(rng, vocab, 900)
    order = list(range(len(works)))
    rng.shuffle(order)
    weights = [0.0] * len(works)
    for rank, wid in enumerate(order, start=1):
        weights[wid] = 1.0 / rank
    sizes = [10 + round(50 * i / max(1, n_folders - 1)) for i in range(n_folders)]
    formats = [MCP_FORMATS[i % len(MCP_FORMATS)] for i in range(n_folders)]
    rng.shuffle(sizes)
    rng.shuffle(formats)
    corpus = Corpus(works=works)
    for i, (size, fmt) in enumerate(zip(sizes, formats)):
        labels = _exact_counts(size, MCP_SHARES)
        rng.shuffle(labels)
        cited = _cite_mix(rng, vocab, works, labels, weights)
        assign_keys(cited)
        folder = base / f"paper{i:03d}"
        folder.mkdir(parents=True)
        _distractors(folder, fmt)
        target, rejected = folder, 0
        if fmt == "bib":
            artifact = "references.bib"
            write_bib(folder / artifact, cited)
        elif fmt == "texbib":
            artifact = "library.bib"
            write_bib(folder / artifact, cited)
            write_tex_with_bib(folder / "main.tex", artifact)
            target = folder / "main.tex"
        elif fmt == "bibitem":
            artifact = "paper.tex"
            write_bibitem_tex(folder / artifact, cited)
        elif fmt == "md":
            artifact, rejected = "paper.md", 1
            write_markdown(folder / artifact, cited, rejected_line=True)
        elif fmt == "txt":
            artifact, rejected = "manuscript.txt", 1
            write_txt(folder / artifact, cited, rejected_line=True)
        else:
            artifact = "paper.docx"
            write_docx(folder / artifact, cited)
        corpus.papers.append(Paper(folder=folder, target=target, artifact=artifact,
                                   fmt=fmt, cited=cited, rejected=rejected,
                                   exit_code=expected_exit(cited)))
    return corpus
