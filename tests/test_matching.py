"""Matcher: scoring formula, pass planning, clustering, verdict assembly."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import random
import re
import threading
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import corpus
from catalog import CatalogSession
from citecheck import __version__, matching, textnorm
from citecheck.extraction import extract_references
from citecheck.extraction.models import RawReference, ReferenceInput
from citecheck.matching import (cluster_join, dedupe_and_cluster, derive_issues,
                                relaxed_query_text, score_match, source_pass_query,
                                title_similarity, verify_entries, verify_entry)
from citecheck.pipeline import RunOptions, run_command
from citecheck.sources import (CandidateRecord, FixtureStore, ReplayTransport, Transport,
                               query_source, request_key, summarize_health, supports)
from citecheck.sources.config import SourceConfig
from citecheck.sources.models import SOURCES
from citecheck.sources.transport import RawResponse
from citecheck.textnorm import STOP_WORDS

CONFIG = corpus.CONFIG


def make_entry(title="A study of things", authors=(("Doe", "Jane"),), year=2020,
               venue="Nature", doi=None, pmid=None, arxiv=None, ordinal=1,
               kind="journal") -> ReferenceInput:
    raw = RawReference(source_span=(0, 10), original_text="0123456789",
                       origin_format="bibtex", ordinal=ordinal, citation_key=f"k{ordinal}",
                       source_path="mem.bib")
    return ReferenceInput(raw=raw, title=title, authors=tuple(authors), year=year,
                          venue=venue, doi=doi, pmid=pmid, arxiv_id=arxiv,
                          entry_kind=kind, fields={"title": title or ""})


def make_candidate(title="A study of things", authors=(("Doe", "Jane"),), year=2020,
                   venue="Nature", doi=None, pmid=None, arxiv=None,
                   source="crossref", source_id=None, kind="journal",
                   related=()) -> CandidateRecord:
    return CandidateRecord(source=source, source_id=source_id or f"{source}-{title[:8]}",
                           title=title, authors=tuple(authors), year=year, venue=venue,
                           doi=doi, pmid=pmid, arxiv_id=arxiv,
                           manifestation_kind=kind, related_ids=tuple(related))


# ---------------------------------------------------------------------------
# score_match
# ---------------------------------------------------------------------------

def test_identity_scores_full_confidence():
    entry = make_entry(doi="10.1/x")
    candidate = make_candidate(doi="10.1/x")
    score = score_match(entry, candidate)
    assert score.identifier_signal == "exact"
    assert score.title_sim == 1.0
    assert score.author_sim == 1.0
    assert score.year_signal == "exact"
    assert score.venue_sim == 1.0
    assert score.confidence == 1.0


def test_conflicting_doi_caps_confidence():
    entry = make_entry(doi="10.1/x")
    candidate = make_candidate(doi="10.1/DIFFERENT")
    score = score_match(entry, candidate)
    assert score.identifier_signal == "conflict"
    # Hand evaluation: weighted = 0.5*1 + 0.2*1 + 0.15*1 + 0.15*1 = 1.0,
    # conflict caps at 0.5.
    assert score.confidence == 0.5


def test_off_by_one_year_term():
    entry = make_entry(year=2023, venue=None)
    candidate = make_candidate(year=2024, venue=None)
    score = score_match(entry, candidate)
    assert score.year_signal == "off_by_one"
    # 0.5*1 + 0.2*1 + 0.15*0.7 + 0.15*1.0 (both venues absent) = 0.955
    assert score.confidence == pytest.approx(0.955)
    assert not any(i.code == "year_disagreement"
                   for i in derive_issues(entry, _single_cluster(entry, candidate)))


def test_identifier_override_requires_plausible_title():
    entry = make_entry(title="Completely different words here", doi="10.1/x",
                       authors=(), year=None, venue=None)
    candidate = make_candidate(title="Unrelated phrasing altogether", doi="10.1/x",
                               authors=(), year=None, venue=None)
    score = score_match(entry, candidate)
    assert score.identifier_signal == "exact"
    assert score.confidence < 0.95  # no override without title agreement


def test_weighted_formula_hand_check():
    entry = make_entry(title="alpha beta gamma delta", authors=(("Doe", "J."),),
                       year=2020, venue="Journal of Testing")
    candidate = make_candidate(title="alpha beta gamma epsilon",
                               authors=(("Doe", "Jane"), ("Extra", "E.")),
                               year=2020, venue="Journal of Testing")
    score = score_match(entry, candidate)
    assert score.title_sim == pytest.approx(3 / 5)
    assert score.author_sim == 1.0
    expected = 0.5 * (3 / 5) + 0.2 * 1.0 + 0.15 * 1.0 + 0.15 * 1.0
    assert score.confidence == pytest.approx(expected)


def test_title_similarity_symmetry_and_folding():
    assert title_similarity("Déjà vu: a study", "deja vu a STUDY") == 1.0
    rng = random.Random(3)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    for _ in range(50):
        a = " ".join(rng.sample(words, rng.randint(1, 6)))
        b = " ".join(rng.sample(words, rng.randint(1, 6)))
        assert title_similarity(a, b) == title_similarity(b, a)


def test_author_similarity_neutral_when_missing():
    entry = make_entry(authors=())
    candidate = make_candidate()
    assert score_match(entry, candidate).author_sim == 0.5


# ---------------------------------------------------------------------------
# Pass planning
# ---------------------------------------------------------------------------

def test_pass1_prefers_identifier():
    entry = make_entry(doi="10.1/x", arxiv="2101.00001")
    query = source_pass_query(entry, 1, "semantic_scholar")
    assert query.kind == "doi_lookup"
    assert query.text == "10.1/x"


def test_pass1_title_fallback():
    query = source_pass_query(make_entry(), 1, "semantic_scholar")
    assert query.kind == "title_search"
    assert query.text == "A study of things"
    assert query.year is None


def test_pass2_title_author_with_year_hint():
    query = source_pass_query(make_entry(), 2, "semantic_scholar")
    assert query.kind == "title_author_search"
    assert query.text == "A study of things Doe"
    assert query.year == 2020


def test_pass2_authorless_falls_back_to_title_search():
    query = source_pass_query(make_entry(authors=()), 2, "semantic_scholar")
    assert query.kind == "title_search"
    assert query.year == 2020


def test_pass3_relaxed_first_six_content_words():
    title = "On the Rapid Convergence of Stochastic Gradient Methods for Deep Networks"
    entry = make_entry(title=title)
    query = source_pass_query(entry, 3, "semantic_scholar")
    assert query.kind == "relaxed_search"
    # Hand tokenization: stop words removed, first 6 content words kept.
    assert query.text == "rapid convergence stochastic gradient methods deep"


def test_stop_word_list_has_exactly_fifty_entries():
    assert len(STOP_WORDS) == 50


def test_relaxed_text_strips_diacritics():
    assert relaxed_query_text("Études on naïve Bayes") == "etudes naive bayes"


def test_source_pass_query_adapts_to_capability():
    entry = make_entry(doi="10.1/x")
    assert source_pass_query(entry, 1, "crossref").kind == "doi_lookup"
    assert source_pass_query(entry, 1, "arxiv") is None
    arxiv_entry = make_entry(doi=None, arxiv="2101.00001")
    assert source_pass_query(arxiv_entry, 1, "arxiv").kind == "arxiv_lookup"
    assert source_pass_query(arxiv_entry, 1, "pubmed").kind == "title_search"


_IDS = {"doi": "10.1/x", "pmid": "12345", "arxiv": "2101.00001"}
_ID_SUBSETS = [ids for n in range(4) for ids in itertools.combinations(_IDS, n)]


def _entry_with(ids, title="A study of things", authors=(("Doe", "Jane"),)):
    return make_entry(title=title, authors=authors, **{kind: _IDS[kind] for kind in ids})


def test_pass1_looks_up_the_first_identifier_the_source_supports():
    """doi, then pmid, then arXiv, for every identifier subset and source; a
    title search when the source can look up none of them (none at arXiv for
    a DOI-cited entry), and a title-less entry repeats its pass-1 lookup (or
    sends nothing) in every pass."""
    for ids, source in itertools.product(_ID_SUBSETS, SOURCES):
        entry = _entry_with(ids)
        assert list(entry.identifier_map()) == [k for k in ("doi", "pmid", "arxiv") if k in ids]
        first = next((k for k in ("doi", "pmid", "arxiv")
                      if k in ids and supports(source, f"{k}_lookup")), None)
        query = source_pass_query(entry, 1, source)
        if first is None and source == "arxiv" and "doi" in ids:
            assert query is None
        elif first is None:
            assert (query.kind, query.text) == ("title_search", entry.title)
        else:
            assert (query.kind, query.text) == (f"{first}_lookup", _IDS[first])
        if ids:
            untitled = _entry_with(ids, title=None)
            lookup = query if first is not None else None
            assert [source_pass_query(untitled, n, source) for n in (1, 2, 3)] == [lookup] * 3


def test_arxiv_datacite_doi_keeps_its_pass1_title_search():
    """Only arXiv answers for its own DataCite DOIs (10.48550/), so it still
    gets a pass-1 title search for an entry that cites one."""
    entry = make_entry(doi="10.48550/arxiv.2101.00001")
    lookup = ("doi_lookup", "10.48550/arxiv.2101.00001")
    assert {source: (query.kind, query.text) for source in SOURCES
            for query in [source_pass_query(entry, 1, source)]} == {
        "pubmed": lookup, "crossref": lookup, "semantic_scholar": lookup,
        "arxiv": ("title_search", "A study of things")}


_TITLES = st.one_of(
    st.lists(st.sampled_from(sorted(STOP_WORDS)), min_size=1, max_size=8).map(" ".join),
    st.text(alphabet="Σύγχρονη φυσική量子力学Физика ", max_size=30),
    st.text(alphabet="!?.,;:-()[]{}'\"/ ", max_size=20),
    st.text(max_size=40),
)


@settings(max_examples=300, deadline=None)
@given(title=_TITLES, ids=st.sampled_from(_ID_SUBSETS), source=st.sampled_from(SOURCES),
       pass_number=st.sampled_from((1, 2, 3)),
       authors=st.sampled_from(((), (("Doe", "Jane"),), (("Ωμέγα", ""),))))
@example(title="The Of And", ids=(), source="crossref", pass_number=3, authors=())
@example(title="Σύγχρονη φυσική", ids=(), source="pubmed", pass_number=3, authors=())
def test_source_pass_query_never_raises(title, ids, source, pass_number, authors):
    """Any title extraction can produce (stop words only, non-Latin,
    punctuation), any identifiers, source and pass: a query the source
    supports, or None. A title with no content word gets no pass-3 query."""
    title = textnorm.normalize_display(title) or None
    assume(title or ids)
    entry = _entry_with(ids, title=title, authors=authors)
    query = source_pass_query(entry, pass_number, source)
    assert query is None or supports(source, query.kind)
    if title and pass_number == 3:
        assert (query is None) == (relaxed_query_text(title) == "")


# ---------------------------------------------------------------------------
# Clustering
# ---------------------------------------------------------------------------

def _single_cluster(entry, candidate):
    clusters = dedupe_and_cluster([candidate], entry)
    return clusters[0]


def test_same_doi_from_two_sources_one_cluster():
    entry = make_entry(doi="10.1/x")
    a = make_candidate(doi="10.1/x", source="crossref")
    b = make_candidate(doi="10.1/x", source="pubmed", pmid="1")
    clusters = dedupe_and_cluster([a, b], entry)
    assert len(clusters) == 1
    assert len(clusters[0].members) == 2


def test_unrelated_titles_two_clusters():
    entry = make_entry()
    a = make_candidate(title="Completely distinct topic one")
    b = make_candidate(title="Another unrelated subject two")
    assert len(dedupe_and_cluster([a, b], entry)) == 2


def test_related_id_links_manifestations():
    entry = make_entry(arxiv="2101.00001", kind="preprint")
    preprint = make_candidate(source="arxiv", arxiv="2101.00001", kind="preprint",
                              venue=None, related=(("doi", "10.1/pub"),))
    journal = make_candidate(source="crossref", doi="10.1/pub", year=2021)
    clusters = dedupe_and_cluster([preprint, journal], entry)
    assert len(clusters) == 1
    assert len(clusters[0].members) == 2


def test_exact_duplicates_collapse():
    entry = make_entry()
    a = make_candidate(source_id="dup")
    clusters = dedupe_and_cluster([a, a], entry)
    assert len(clusters) == 1
    assert len(clusters[0].members) == 1


def _brute_force_partition(records, entry):
    """Transitive closure over the pairwise join predicate, O(n^3)."""
    unique = []
    seen = set()
    for r in records:
        key = (r.source, r.source_id)
        if key not in seen:
            seen.add(key)
            unique.append(r)
    n = len(unique)
    linked = [[cluster_join(unique[i], unique[j]) or i == j for j in range(n)]
              for i in range(n)]
    changed = True
    while changed:
        changed = False
        for i, j, k in itertools.product(range(n), repeat=3):
            if linked[i][k] and linked[k][j] and not linked[i][j]:
                linked[i][j] = True
                changed = True
    groups = []
    assigned = set()
    for i in range(n):
        if i in assigned:
            continue
        group = {j for j in range(n) if linked[i][j]}
        assigned |= group
        groups.append(frozenset((unique[j].source, unique[j].source_id) for j in group))
    return frozenset(groups)


def _random_candidate(rng: random.Random) -> CandidateRecord:
    titles = ["alpha beta gamma delta", "alpha beta gamma epsilon",
              "totally different subject", "yet another topic entirely",
              "alpha beta gamma delta extended"]
    dois = [None, None, "10.1/a", "10.1/b", "10.2/c"]
    sources = ["crossref", "pubmed", "arxiv", "semantic_scholar"]
    related = rng.choice([(), (("doi", "10.1/a"),), (("arxiv", "2101.00001"),)])
    return CandidateRecord(
        source=rng.choice(sources),
        source_id=f"id{rng.randint(0, 9)}",
        title=rng.choice(titles),
        year=rng.choice([None, 2019, 2020, 2021, 2024]),
        doi=rng.choice(dois),
        arxiv_id=rng.choice([None, "2101.00001"]),
        manifestation_kind=rng.choice(["journal", "conference", "preprint", "unknown"]),
        related_ids=related,
    )


def test_clustering_matches_transitive_closure_oracle():
    rng = random.Random(1234)
    entry = make_entry(title="alpha beta gamma delta", doi="10.1/a")
    for _ in range(500):
        records = [_random_candidate(rng) for _ in range(rng.randint(0, 6))]
        clusters = dedupe_and_cluster(records, entry)
        mine = frozenset(
            frozenset((m.source, m.source_id) for m in c.members) for c in clusters)
        assert mine == _brute_force_partition(records, entry)


def test_every_candidate_in_exactly_one_cluster():
    rng = random.Random(99)
    entry = make_entry()
    for _ in range(100):
        records = [_random_candidate(rng) for _ in range(rng.randint(1, 6))]
        clusters = dedupe_and_cluster(records, entry)
        seen = [m for c in clusters for m in c.members]
        keys = {(r.source, r.source_id) for r in records}
        assert {(m.source, m.source_id) for m in seen} == keys
        assert len(seen) == len({(m.source, m.source_id) for m in seen})


@settings(max_examples=200, deadline=None)
@given(rng=st.randoms(use_true_random=False), count=st.integers(0, 8),
       prescored=st.integers(0, 8))
def test_clustering_scores_every_member(rng, count, prescored):
    """Each cluster holds a score for each of its members, computed here or
    passed in, and equal to score_match's: manifestation grouping reads them
    and scores nothing."""
    entry = make_entry(title="alpha beta gamma delta", doi="10.1/a")
    records = [_random_candidate(rng) for _ in range(count)]
    scores = {}  # as verify_entries passes them: the first record per key
    for record in records[:prescored]:
        scores.setdefault(f"{record.source}:{record.source_id}", score_match(entry, record))
    for cluster in dedupe_and_cluster(records, entry, scores):
        member_scores = dict(cluster.member_scores)
        assert len(member_scores) == len(cluster.member_scores)
        assert set(member_scores) == {f"{m.source}:{m.source_id}" for m in cluster.members}
        for member in cluster.members:
            assert member_scores[f"{member.source}:{member.source_id}"] == score_match(
                entry, member)


def test_cluster_ordering_is_deterministic():
    entry = make_entry(title="alpha beta gamma delta")
    strong = make_candidate(title="alpha beta gamma delta", source_id="s")
    weak = make_candidate(title="alpha beta unrelated thing", source_id="w",
                          year=2020)
    clusters = dedupe_and_cluster([weak, strong], entry)
    assert clusters[0].best_member.source_id == "s"


def test_exact_score_tie_picks_the_smallest_key():
    entry = make_entry(doi="10.1/x")
    twins = [make_candidate(doi="10.1/x", source=source, source_id=source_id)
             for source, source_id in (("pubmed", "1"), ("crossref", "b"), ("crossref", "a"))]
    assert len({score_match(entry, twin) for twin in twins}) == 1
    clusters = dedupe_and_cluster(twins, entry)
    assert len(clusters) == 1
    assert clusters[0].best_member.key == "crossref:a"
    assert clusters[0].best_score == score_match(entry, twins[2])


# ---------------------------------------------------------------------------
# derive_issues
# ---------------------------------------------------------------------------

def test_no_candidates_insufficient_evidence():
    issues = derive_issues(make_entry(), None)
    assert [i.code for i in issues] == ["insufficient_evidence"]


def test_clean_match_no_issues():
    entry = make_entry(doi="10.1/x")
    cluster = _single_cluster(entry, make_candidate(doi="10.1/x"))
    assert derive_issues(entry, cluster) == []


def test_year_disagreement_threshold():
    entry = make_entry(year=2019)
    cluster = _single_cluster(entry, make_candidate(year=2024))
    codes = [i.code for i in derive_issues(entry, cluster)]
    assert "year_disagreement" in codes


def test_title_mismatch_blocking():
    entry = make_entry(title="alpha beta gamma delta epsilon zeta")
    cluster = _single_cluster(entry, make_candidate(
        title="alpha unrelated words entirely different", doi="10.9/y"))
    codes = [i.code for i in derive_issues(entry, cluster)]
    assert "title_mismatch" in codes


def test_at_most_one_issue_per_code():
    entry = make_entry(year=2010, title="alpha beta gamma delta")
    cluster = _single_cluster(entry, make_candidate(
        title="unrelated thing entirely", year=2024, doi="10.9/z"))
    codes = [i.code for i in derive_issues(entry, cluster)]
    assert len(codes) == len(set(codes))


# ---------------------------------------------------------------------------
# verify_entry (replay fixtures)
# ---------------------------------------------------------------------------

def _replay(corpus_paths) -> ReplayTransport:
    return ReplayTransport(FixtureStore(corpus_paths["fixtures"]))


def test_doi_entry_verified_in_one_pass(corpus_paths):
    entries = extract_references(corpus_paths["main"] / "references.bib").entries
    verdict = verify_entry(entries[0], _replay(corpus_paths), CONFIG)
    assert verdict.status == "verified"
    assert verdict.passes_used == 1
    assert verdict.confidence >= 0.9
    assert verdict.chosen is not None
    assert verdict.chosen.doi == corpus.MAIN_BIB[0].doi
    assert verdict.evidence


def test_all_sources_failing_yields_not_checked(corpus_paths):
    entries = extract_references(corpus_paths["failures"] / "flaky.bib").entries
    verdict = verify_entry(entries[0], _replay(corpus_paths), CONFIG)
    assert verdict.status == "not_checked"
    assert verdict.passes_used == 3
    classes = {e[2]["failure_class"] for e in verdict.evidence}
    assert "authentication" in classes
    assert "rate_limit" in classes
    assert "transport" in classes


def test_zero_sources_enabled_not_checked(corpus_paths):
    entries = extract_references(corpus_paths["main"] / "references.bib").entries
    config = SourceConfig(enabled_sources=())
    verdict = verify_entry(entries[0], _replay(corpus_paths), config)
    assert verdict.status == "not_checked"
    assert verdict.evidence == ()


def test_pass_monotonicity_on_failures(corpus_paths):
    entries = extract_references(corpus_paths["failures"] / "flaky.bib").entries
    verdict = verify_entry(entries[0], _replay(corpus_paths), CONFIG)
    # Later passes only run because earlier ones produced nothing usable.
    for pass_number in (1, 2):
        outcomes = [e for e in verdict.evidence if e[0] == pass_number]
        assert all(e[2]["result"] == "failure" for e in outcomes)


def test_verdict_statuses_across_corpus(corpus_paths):
    entries = extract_references(corpus_paths["main"] / "references.bib").entries
    transport = _replay(corpus_paths)
    for entry in entries:
        verdict = verify_entry(entry, transport, CONFIG)
        assert verdict.status == "verified", (entry.citation_key, verdict.issues)


def test_score_match_random_bounds_property():
    rng = random.Random(31337)
    entry = make_entry(title="alpha beta gamma delta", doi="10.1/a")
    for _ in range(300):
        candidate = _random_candidate(rng)
        score = score_match(entry, candidate)
        assert 0.0 <= score.confidence <= 1.0
        if score.identifier_signal == "conflict":
            assert score.confidence <= 0.5


def test_entry_resolving_only_in_pass_three(corpus_paths):
    """Reformulation: nothing found until the relaxed third pass, which
    yields a moderate match -> needs_review with passes_used 3."""
    entries = extract_references(corpus_paths["multipass"] / "obscure.bib").entries
    verdict = verify_entry(entries[0], _replay(corpus_paths), CONFIG)
    assert verdict.passes_used == 3
    assert verdict.status == "needs_review"
    assert 0.6 <= verdict.confidence < 0.9
    assert verdict.chosen is not None
    assert verdict.chosen.doi == corpus.MULTIPASS[0].doi
    # Pass monotonicity: earlier passes produced nothing usable.
    for pass_number in (1, 2):
        for p, _, digest in verdict.evidence:
            if p == pass_number:
                assert digest["result"] == "failure"


def test_evidence_and_outcomes_are_views_of_the_steps(corpus_paths):
    """A verdict keeps one list of (pass, outcome) steps; the report's
    evidence and the outcomes are read off it."""
    entries = extract_references(corpus_paths["multipass"] / "obscure.bib").entries
    verdict = verify_entry(entries[0], _replay(corpus_paths), CONFIG)
    assert {p for p, _ in verdict.steps} == {1, 2, 3}
    assert verdict.evidence == tuple((p, o.query, o.digest()) for p, o in verdict.steps)
    assert verdict.outcomes == tuple(o for _, o in verdict.steps)


def test_unservable_entry_is_not_checked(corpus_paths):
    """A pmid-only, title-less entry with only arXiv enabled issues zero
    queries; that is not_checked (nothing attempted), not unresolved."""
    entry = make_entry(title=None, authors=(), year=None, venue=None, pmid="123")
    config = SourceConfig(enabled_sources=("arxiv",))
    verdict = verify_entry(entry, _replay(corpus_paths), config)
    assert verdict.status == "not_checked"
    assert verdict.evidence == ()


# ---------------------------------------------------------------------------
# verify_entries: batches, shared queries, scoring once
# ---------------------------------------------------------------------------

class _ShuffledTransport(Transport):
    """Sends each request through `inner` after a random delay of up to a
    millisecond, so concurrent requests complete in shuffled order. Counts
    the requests it serves by request key."""

    def __init__(self, inner: Transport, seed: int = 0):
        self.inner = inner
        self.rng = random.Random(seed)
        self.lock = threading.Lock()
        self.fetched: Counter[str] = Counter()

    def fetch(self, request):
        with self.lock:
            delay = self.rng.random() / 1000
            self.fetched[request_key(request)] += 1
        time.sleep(delay)
        return self.inner.fetch(request)


def _with_ordinal(entry: ReferenceInput, ordinal: int) -> ReferenceInput:
    """The same reference at another place in the bibliography."""
    return dataclasses.replace(entry, raw=dataclasses.replace(entry.raw, ordinal=ordinal))


def _corpus_entries(corpus_paths) -> list[ReferenceInput]:
    """Entries of the fixture workspaces, repeats of some of them, and
    identifier-only copies of those that carry an identifier."""
    files = [("main", "references.bib"), ("main", "notes.md"), ("main", "field_notes.txt"),
             ("biomed", "biomed.bib"), ("manifestation", "cited.bib"),
             ("duplicates", "dup.bib"), ("failures", "flaky.bib"),
             ("multipass", "obscure.bib"), ("mixed", "mixed.bib")]
    entries = [e for name, file in files
               for e in extract_references(corpus_paths[name] / file).entries]
    repeats = [_with_ordinal(e, e.ordinal + 1000) for e in entries[::4]]
    id_only = [dataclasses.replace(e, title=None) for e in entries if e.identifier_map()]
    return entries + repeats + id_only[::2]


def _sequential_passes(entry: ReferenceInput, transport: Transport,
                       config: SourceConfig) -> tuple[tuple, int]:
    """(evidence, passes_used) of the plain loop: one entry, one source
    query at a time, escalating while its best score stays weak. arXiv's
    pass-1 title search is asked after the pass's other queries, when
    `matching.asks_arxiv_title_search` says so; patch that to always ask."""
    enabled = [s for s in SOURCES if config.is_enabled(s)]
    evidence, first_records, passes_used = [], {}, 0

    def best():
        return max((score_match(entry, r).confidence for r in first_records.values()),
                   default=0.0)

    for pass_number in (1, 2, 3) if enabled else ():
        passes_used = pass_number
        queries = {source: query for source in enabled
                   if (query := source_pass_query(entry, pass_number, source)) is not None}
        last = pass_number == 1 and "arxiv" in queries and queries["arxiv"].kind == "title_search"
        outcomes = {}
        for source in sorted(queries, key=lambda source: last and source == "arxiv"):
            if last and source == "arxiv" and not matching.asks_arxiv_title_search(entry, best()):
                continue
            outcomes[source] = outcome = query_source(source, queries[source], transport, config)
            for r in outcome.records or ():
                first_records.setdefault((r.source, r.source_id), r)
        evidence += [(pass_number, queries[source], outcomes[source].digest())
                     for source in enabled if source in outcomes]
        if best() >= matching.WEAK_THRESHOLD:
            break
    return tuple(evidence), passes_used


def test_batch_verdicts_equal_single_entry_verdicts(corpus_paths):
    """However a batch is made up and however many queries are in flight,
    each entry gets the verdict it gets when verified alone, and that one
    follows the plain sequential pass loop."""
    pool = _corpus_entries(corpus_paths)
    replay = _replay(corpus_paths)
    alone = [verify_entry(entry, replay, CONFIG) for entry in pool]
    assert {v.status for v in alone} == {"verified", "needs_review", "unresolved",
                                         "not_checked"}
    for entry, verdict in zip(pool, alone):
        assert (verdict.evidence, verdict.passes_used) == _sequential_passes(
            entry, replay, CONFIG)

    @settings(max_examples=40, deadline=None, database=None)
    @given(picks=st.lists(st.integers(0, len(pool) - 1), max_size=12),
           workers=st.sampled_from((1, 2, 4, 8)), seed=st.integers(0, 2 ** 32 - 1))
    def check(picks, workers, seed):
        transport = _ShuffledTransport(replay, seed)
        verdicts = verify_entries([pool[i] for i in picks], transport, CONFIG,
                                  workers=workers)
        for i, verdict in zip(picks, verdicts, strict=True):
            expected = alone[i]
            assert (verdict.entry, verdict.status, verdict.confidence, verdict.issues,
                    verdict.chosen, verdict.evidence, verdict.passes_used) == (
                expected.entry, expected.status, expected.confidence, expected.issues,
                expected.chosen, expected.evidence, expected.passes_used)

    check()


class _InFlightTransport(Transport):
    """Answers 404 after a few milliseconds; records the most requests in
    flight at any moment, per source and across sources."""

    def __init__(self):
        self.lock = threading.Lock()
        self.now: Counter[str] = Counter()
        self.peak: Counter[str] = Counter()
        self.peak_total = 0

    def fetch(self, request):
        with self.lock:
            self.now[request.source] += 1
            self.peak[request.source] = max(self.peak[request.source],
                                            self.now[request.source])
            self.peak_total = max(self.peak_total, sum(self.now.values()))
        time.sleep(0.005)
        with self.lock:
            self.now[request.source] -= 1
        return RawResponse(status=404, body=b"")


def test_each_source_has_its_own_lane():
    """`workers` bounds the queries in flight per source, and sources wait
    side by side."""
    entries = [make_entry(title=f"Study number {i} of lanes", ordinal=i) for i in range(12)]
    transport = _InFlightTransport()
    verdicts = verify_entries(entries, transport, CONFIG, workers=2)
    assert {v.passes_used for v in verdicts} == {3}
    assert set(transport.peak) == {"pubmed", "crossref", "arxiv"}
    assert max(transport.peak.values()) <= 2
    assert transport.peak_total > 2


def test_replay_runs_inline(corpus_paths, monkeypatch):
    """Replay answers from disk, so verification starts no thread for it."""
    def no_pool(*args, **kwargs):
        raise AssertionError("a replay run started a thread pool")

    monkeypatch.setattr(matching, "ThreadPoolExecutor", no_pool)
    entries = _corpus_entries(corpus_paths)
    verdicts = verify_entries(entries, _replay(corpus_paths), CONFIG, workers=4)
    assert verdicts == verify_entries(entries, _replay(corpus_paths), CONFIG, workers=1)


def test_repeated_entries_fetch_each_request_once(corpus_paths):
    """A repeated reference adds no request, while source health still counts
    the queries each entry made, as it does when entries run one by one."""
    distinct = [e for name, file in [("main", "references.bib"), ("multipass", "obscure.bib"),
                                     ("failures", "flaky.bib")]
                for e in extract_references(corpus_paths[name] / file).entries]
    entries = distinct + [_with_ordinal(e, e.ordinal + 100) for e in distinct] + [
        _with_ordinal(e, e.ordinal + 200) for e in distinct[-3:]]
    once = _ShuffledTransport(_replay(corpus_paths))
    verify_entries(distinct, once, CONFIG)
    transport = _ShuffledTransport(_replay(corpus_paths))
    verdicts = verify_entries(entries, transport, CONFIG)

    assert set(transport.fetched.values()) == {1}
    assert transport.fetched == once.fetched
    alone = [verify_entry(e, _replay(corpus_paths), CONFIG) for e in entries]
    health = summarize_health([o for v in verdicts for o in v.outcomes], CONFIG)
    assert health == summarize_health([o for v in alone for o in v.outcomes], CONFIG)
    crossref = next(h for h in health if h.source == "crossref")
    sent = sum(n for key, n in transport.fetched.items() if key.startswith("crossref|"))
    assert crossref.attempted > sent


def test_each_pair_scored_once_per_batch(corpus_paths, monkeypatch):
    """The pass loop, clustering and manifestation grouping share one score
    per (entry, record) pair."""
    seen: Counter[tuple[int, str, str]] = Counter()

    def spy(entry, record, *args):
        seen[entry.ordinal, record.source, record.source_id] += 1
        return score_match(entry, record, *args)

    monkeypatch.setattr(matching, "score_match", spy)
    entries = [e for name, file in [("main", "references.bib"), ("biomed", "biomed.bib"),
                                    ("manifestation", "cited.bib"),
                                    ("multipass", "obscure.bib"), ("mixed", "mixed.bib")]
               for e in extract_references(corpus_paths[name] / file).entries]
    entries = [_with_ordinal(e, i) for i, e in enumerate(entries)]  # one ordinal each
    verdicts = verify_entries(entries, _replay(corpus_paths), CONFIG)

    assert any(v.passes_used == 3 for v in verdicts)
    assert seen and max(seen.values()) == 1


# ---------------------------------------------------------------------------
# Pass 1 asks arXiv no title search for a DOI-cited entry
# ---------------------------------------------------------------------------

def _outside_evidence(verdict):
    return (verdict.status, verdict.confidence, verdict.issues, verdict.chosen,
            verdict.passes_used)


def test_doi_cited_bibliography_sends_arxiv_no_pass1_title_search(tmp_path, monkeypatch):
    """Against the planner that also searched arXiv by title for a DOI-cited
    entry, and sent every pass-1 title search whatever the other sources
    answered: those searches are the only requests no longer sent, arXiv's
    `attempted` falls by exactly their count, and every verdict is the same
    outside its evidence."""
    bib = tmp_path / "references.bib"
    corpus.write_bib(bib, corpus.MAIN_BIB)
    entries = extract_references(bib).entries
    doi_cited = [e.title for e in entries if e.doi and not e.arxiv_id]
    assert len(doi_cited) == 8

    def run(plan, asks_arxiv):
        monkeypatch.setattr(matching, "source_pass_query", plan)
        monkeypatch.setattr(matching, "asks_arxiv_title_search", asks_arxiv)
        session = CatalogSession(corpus.CATALOG)
        verdicts = verify_entries(entries, _ShuffledTransport(corpus.live_over(session)),
                                  CONFIG)
        health = summarize_health([o for v in verdicts for o in v.outcomes], CONFIG)
        return (session.received, next(h.attempted for h in health if h.source == "arxiv"),
                verdicts)

    sent_before, arxiv_before, verdicts_before = run(corpus.title_searching_pass_query,
                                                     corpus.always_ask_arxiv)
    sent, arxiv_attempted, verdicts = run(source_pass_query, matching.asks_arxiv_title_search)
    queries = {f'all:"{title}"' for title in doi_cited}
    title_searches = [(source, path, params) for source, path, params in sent_before
                      if source == "arxiv" and dict(params).get("search_query") in queries]
    assert len(title_searches) == len(doi_cited)
    assert sent_before - sent == Counter(dict.fromkeys(title_searches, 1))
    assert not sent - sent_before
    assert arxiv_before - arxiv_attempted == len(doi_cited)
    assert list(map(_outside_evidence, verdicts)) == list(map(_outside_evidence,
                                                               verdicts_before))


def test_entry_whose_doi_no_source_resolves_reaches_arxiv_in_pass_two(tmp_path):
    """Pass 1 asks arXiv nothing for a DOI-cited entry; when no source
    resolves the DOI, pass 2 asks arXiv, which finds the work."""
    spec = corpus.RefSpec(
        "z1", "Tidal stream forecasting with physics informed neural operators",
        (("Haddad", "N."),), 2021, venue="Renewable Energy", doi="10.5999/re.2021.404",
        arxiv="2107.01234", cite_arxiv=False, crossref_mode="empty", arxiv_mode="match")
    bib = tmp_path / "refs.bib"
    corpus.write_bib(bib, [spec])
    verdict = verify_entry(extract_references(bib).entries[0],
                           corpus.live_over(CatalogSession([spec])), CONFIG)
    assert [(n, digest["source"], query.kind) for n, query, digest in verdict.evidence] == [
        (1, "pubmed", "doi_lookup"), (1, "crossref", "doi_lookup"),
        (2, "pubmed", "title_author_search"), (2, "crossref", "title_author_search"),
        (2, "arxiv", "title_author_search")]
    assert verdict.passes_used == 2
    assert verdict.chosen.source == "arxiv"
    assert verdict.chosen.arxiv_id == spec.arxiv


# ---------------------------------------------------------------------------
# Pass 1 asks arXiv last; entries move on as their own answers arrive
# ---------------------------------------------------------------------------

_ON_ARXIV = corpus.RefSpec(
    "a1", "Contrastive pretraining of protein language models for fold recognition",
    (("Ibarra", "L."),), 2022, doi="10.48550/arxiv.2204.05678", arxiv="2204.05678",
    arxiv_mode="match")


@pytest.mark.parametrize("crossref_mode, cited, sent", [
    ("match", {}, 0),  # verified by Crossref's title search
    ("io_error", {}, 1),
    ("s429", {}, 1),
    ("match", {"kind": "preprint"}, 1),
    ("match", {"venue": "arXiv preprint"}, 1),
    ("match", {"doi": _ON_ARXIV.doi}, 1),  # arXiv's own DOI
])
def test_arxiv_gets_its_pass1_title_search_only_when_needed(crossref_mode, cited, sent):
    """arXiv's pass-1 title search goes out once the entry's other pass-1
    answers are in, and only when they leave it short of verified, or when
    the entry is a preprint, names arXiv as its venue, or cites arXiv's DOI.
    Either way the entry is verified."""
    spec = dataclasses.replace(_ON_ARXIV, crossref_mode=crossref_mode)
    entry = make_entry(**{"title": spec.title, "authors": spec.authors, "year": spec.year,
                          "venue": None, **cited})
    session = CatalogSession([spec])
    verdict = verify_entry(entry, corpus.live_over(session), CONFIG)
    searched = sum(n for (source, _, params), n in session.received.items()
                   if source == "arxiv" and dict(params).get("search_query")
                   == f'all:"{spec.title}"')
    assert searched == sent
    assert [query.kind for n, query, digest in verdict.evidence
            if (n, digest["source"]) == (1, "arxiv")] == ["title_search"] * sent
    assert verdict.status == "verified"


class _GatedTransport(Transport):
    """Answers 404 to every request. Crossref's search for `gated` first
    waits, for up to `timeout` seconds, for the pass-2 Crossref search of
    the entry titled `other`; `opened` says whether that one arrived."""

    def __init__(self, gated: str, other: str, timeout: float = 5.0):
        self.gated, self.other, self.timeout = gated, other, timeout
        self.other_pass2 = threading.Event()
        self.opened = None

    def fetch(self, request):
        text = dict(request.params).get("query.bibliographic")
        if request.source == "crossref" and text == self.gated:
            self.opened = self.other_pass2.wait(self.timeout)
        elif request.source == "crossref" and text and text.startswith(f"{self.other} "):
            self.other_pass2.set()
        return RawResponse(status=404, body=b"")


def test_an_entry_moves_on_while_another_waits():
    """One entry's slow pass-1 answer holds no other entry back: the other
    entry's pass-2 request arrives while the first still waits."""
    slow = make_entry(title="Slow answers from a distant catalog", ordinal=1)
    quick = make_entry(title="Quick answers from a nearby catalog", ordinal=2)
    transport = _GatedTransport(slow.title, quick.title)
    verdicts = verify_entries([slow, quick], transport, CONFIG, workers=2)
    assert transport.opened is True
    assert [v.passes_used for v in verdicts] == [3, 3]


def test_steps_stay_in_pass_source_order_when_arxiv_is_asked_last():
    """Semantic Scholar answers in pass 1's first wave and arXiv in its last,
    yet the trail lists each pass in source order."""
    config = SourceConfig(enabled_sources=SOURCES)
    verdict = verify_entry(make_entry(), _InFlightTransport(), config)
    assert [(n, o.source) for n, o in verdict.steps] == [
        (n, source) for n in (1, 2, 3) for source in SOURCES]


def test_a_query_that_raises_ends_the_batch_and_its_lanes(monkeypatch):
    """An error raised by a query in a lane reaches the caller, and no lane
    thread outlives the batch."""
    calls = itertools.count()

    def raising(source, query, transport, config):
        if next(calls) == 5:
            raise RuntimeError("boom in a lane")
        return query_source(source, query, transport, config)

    monkeypatch.setattr(matching, "query_source", raising)
    entries = [make_entry(title=f"Study number {i} of lanes", ordinal=i) for i in range(12)]
    with pytest.raises(RuntimeError, match="boom in a lane"):
        verify_entries(entries, _InFlightTransport(), CONFIG, workers=2)
    assert [t.name for t in threading.enumerate() if t.name.startswith("citecheck-")] == []


# sha256 of the 40 payloads below, version blanked, as the lockstep pass loop
# printed them: each pass waited for all its queries, arXiv's pass-1 title
# search among them.
LOCKSTEP_PAYLOADS_SHA256 = "a0cc5ead4592fc830f2fb9117e5cdf4000344d7a8dc376784dd8fe27c2d1b9d2"


def test_the_scheduler_alone_changes_no_report_byte(tmp_path, monkeypatch):
    """With arXiv asked its pass-1 title search unconditionally, verifying
    each entry as its own answers arrive prints the lockstep loop's bytes:
    the 40 corpus payloads (10 bibliographies, review and replacement, JSON
    and BibTeX), recorded and run from relative paths, without the syntax
    error counts that report format 0.5.0 added."""
    monkeypatch.setattr(matching, "asks_arxiv_title_search", corpus.always_ask_arxiv)
    monkeypatch.chdir(tmp_path)
    paths = corpus.build_corpus(Path("corpus"))
    digest = hashlib.sha256()
    for bibliography in corpus.bibliographies(paths):
        for mode, fmt in itertools.product(("review", "replacement"), ("json", "bibtex")):
            payload, _ = run_command("repair", RunOptions(
                path=str(bibliography), mode=mode, fmt=fmt, transport="replay",
                fixtures_dir=str(paths["fixtures"]), env={}))
            payload = re.sub(r'\n *"syntax_error(s|_count)": 0,', "", payload)
            digest.update(payload.replace(f'"citecheck_version": "{__version__}"',
                                          '"citecheck_version": ""').encode("utf-8"))
    assert digest.hexdigest() == LOCKSTEP_PAYLOADS_SHA256
