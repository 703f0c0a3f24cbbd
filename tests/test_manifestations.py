"""Manifestation grouping and the journal > conference > preprint preference."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
from catalog import CatalogSession
from citecheck import matching
from citecheck.extraction import extract_references
from citecheck.manifestations import (PREFERENCE_RANK, group_manifestations,
                                      resolve_preference)
from citecheck.matching import dedupe_and_cluster, verify_entry
from citecheck.sources import FixtureStore, ReplayTransport
from test_matching import _random_candidate, make_candidate, make_entry

CONFIG = corpus.CONFIG


def _cluster(entry, candidates):
    clusters = dedupe_and_cluster(candidates, entry)
    assert len(clusters) == 1
    return clusters[0]


def test_single_journal_member_trivial():
    entry = make_entry(doi="10.1/x")
    cluster = _cluster(entry, [make_candidate(doi="10.1/x")])
    mset = group_manifestations(cluster, entry)
    assert len(mset.work_members) == 1
    assert mset.preferred.doi == "10.1/x"
    assert not mset.conflict
    preferred, issue = resolve_preference(mset)
    assert issue is None


def test_journal_preferred_over_linked_preprint():
    entry = make_entry(title="alpha beta gamma delta", authors=(("Doe", "J."),),
                       year=2021, venue=None, arxiv="2101.00001", kind="preprint")
    preprint = make_candidate(title="alpha beta gamma delta", source="arxiv",
                              arxiv="2101.00001", kind="preprint", venue=None,
                              year=2021, related=(("doi", "10.1/pub"),))
    journal = make_candidate(title="alpha beta gamma delta", source="crossref",
                             doi="10.1/pub", year=2022, kind="journal")
    mset = group_manifestations(_cluster(entry, [preprint, journal]), entry)
    assert mset.preferred.source == "crossref"
    assert mset.conflict  # cited the preprint while a journal form exists
    preferred, issue = resolve_preference(mset)
    assert preferred.manifestation_kind == "journal"
    assert issue is not None and issue.code == "manifestation_conflict"


def test_cited_journal_sibling_preprint_no_conflict():
    entry = make_entry(doi="10.1/pub")
    journal = make_candidate(source="crossref", doi="10.1/pub", kind="journal")
    preprint = make_candidate(source="arxiv", arxiv="2101.00001", kind="preprint",
                              venue=None, related=(("doi", "10.1/pub"),))
    mset = group_manifestations(_cluster(entry, [journal, preprint]), entry)
    assert mset.preferred.manifestation_kind == "journal"
    assert not mset.conflict
    _, issue = resolve_preference(mset)
    assert issue is None


def test_unknown_kind_only_vacuous_preference():
    entry = make_entry()
    unknown = make_candidate(kind="unknown")
    mset = group_manifestations(_cluster(entry, [unknown]), entry)
    assert mset.preferred == unknown
    assert not mset.conflict


def test_confidence_breaks_rank_ties():
    entry = make_entry(title="alpha beta gamma delta", year=2020)
    strong = make_candidate(title="alpha beta gamma delta", doi="10.1/s",
                            source_id="strong", year=2020)
    weak = make_candidate(title="alpha beta gamma delta", doi="10.1/s",
                          source_id="weak", year=2021)
    mset = group_manifestations(_cluster(entry, [strong, weak]), entry)
    assert mset.preferred.source_id == "strong"  # 0.92-style vs lower score


def test_source_order_breaks_remaining_ties():
    entry = make_entry(doi="10.1/x")
    crossref = make_candidate(source="crossref", doi="10.1/x", source_id="c")
    pubmed = make_candidate(source="pubmed", doi="10.1/x", pmid="1", source_id="p")
    mset = group_manifestations(_cluster(entry, [pubmed, crossref]), entry)
    assert mset.preferred.source == "crossref"


def test_title_only_cluster_member_never_switches_preference():
    # The journal record shares no identifiers -- it joined on title alone,
    # so it must not displace the cited preprint.
    entry = make_entry(title="alpha beta gamma delta", arxiv="2101.00001",
                       venue=None, kind="preprint")
    preprint = make_candidate(title="alpha beta gamma delta", source="arxiv",
                              arxiv="2101.00001", kind="preprint", venue=None)
    lookalike = make_candidate(title="alpha beta gamma delta", source="crossref",
                               doi="10.9/other", kind="journal")
    cluster = _cluster(entry, [preprint, lookalike])
    mset = group_manifestations(cluster, entry)
    assert [m.source for m in mset.work_members] == ["arxiv"]
    assert mset.preferred.manifestation_kind == "preprint"
    assert not mset.conflict


def test_lower_preference_member_never_changes_preferred():
    entry = make_entry(doi="10.1/x")
    journal = make_candidate(source="crossref", doi="10.1/x", kind="journal")
    mset_before = group_manifestations(_cluster(entry, [journal]), entry)
    conference = make_candidate(source="semantic_scholar", doi="10.1/x",
                                kind="conference", source_id="s2c")
    preprint = make_candidate(source="arxiv", arxiv="2101.9", kind="preprint",
                              venue=None, related=(("doi", "10.1/x"),))
    mset_after = group_manifestations(
        _cluster(entry, [journal, conference, preprint]), entry)
    assert mset_before.preferred.source_id == mset_after.preferred.source_id


def test_preference_rank_total_order():
    assert PREFERENCE_RANK["journal"] > PREFERENCE_RANK["conference"]
    assert PREFERENCE_RANK["conference"] > PREFERENCE_RANK["preprint"]
    assert PREFERENCE_RANK["preprint"] > PREFERENCE_RANK["unknown"]


def test_end_to_end_manifestation_conflict(corpus_paths):
    entries = extract_references(corpus_paths["manifestation"] / "cited.bib").entries
    transport = ReplayTransport(FixtureStore(corpus_paths["fixtures"]))
    verdict = verify_entry(entries[0], transport, CONFIG)
    assert verdict.status == "needs_review"
    assert any(i.code == "manifestation_conflict" for i in verdict.issues)
    assert verdict.chosen is not None
    assert verdict.chosen.manifestation_kind == "journal"
    assert verdict.chosen.doi == corpus.MANIFESTATION.related_journal_doi


def test_doi_cited_journal_with_preprint_keeps_its_verdict(tmp_path, monkeypatch):
    """A cited journal DOI whose work has an arXiv preprint: pass 1 no longer
    finds the preprint by title at arXiv, and the verdict (status, chosen
    record, issues) is the one the title-searching planner gives when it
    asks arXiv whatever the other sources answered."""
    spec = corpus.PUBLISHED_WITH_PREPRINT
    bib = tmp_path / "published.bib"
    corpus.write_bib(bib, [spec])
    entry = extract_references(bib).entries[0]
    assert (entry.doi, entry.arxiv_id) == (spec.doi, None)

    sources = corpus.live_over(CatalogSession(corpus.CATALOG))
    verdict = verify_entry(entry, sources, corpus.CONFIG)
    monkeypatch.setattr(matching, "source_pass_query", corpus.title_searching_pass_query)
    monkeypatch.setattr(matching, "asks_arxiv_title_search", corpus.always_ask_arxiv)
    before = verify_entry(entry, sources, corpus.CONFIG)

    found = {(r.source, r.manifestation_kind) for o in before.outcomes for r in o.records or ()}
    assert found == {("crossref", "journal"), ("arxiv", "preprint")}
    assert {o.source for o in verdict.outcomes} == {"pubmed", "crossref"}
    assert (verdict.status, verdict.chosen, verdict.issues) == (
        before.status, before.chosen, before.issues)
    assert (verdict.status, verdict.issues) == ("verified", ())
    assert (verdict.chosen.source, verdict.chosen.doi) == ("crossref", spec.doi)


def _linked_component(cluster, anchor):
    """The work set as a breadth-first walk over shared or asserted
    identifiers, as it was found before `matching.components`; kept as a
    reference."""
    members = list(cluster.members)
    component = {anchor.key}
    frontier = [anchor]
    while frontier:
        current = frontier.pop()
        for other in members:
            if other.key not in component and (current.all_identifiers()
                                               & other.all_identifiers()):
                component.add(other.key)
                frontier.append(other)
    return [m for m in members if m.key in component]


@settings(max_examples=200, deadline=None)
@given(rng=st.randoms(use_true_random=False), count=st.integers(1, 8))
def test_work_set_is_the_identifier_linked_component(rng, count):
    entry = make_entry(title="alpha beta gamma delta", doi="10.1/a")
    records = [_random_candidate(rng) for _ in range(count)]
    for cluster in dedupe_and_cluster(records, entry):
        mset = group_manifestations(cluster, entry)
        assert list(mset.work_members) == _linked_component(cluster, cluster.best_member)
