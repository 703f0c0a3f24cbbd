"""Match scoring, candidate clustering, and multi-pass verification.

Confidence is a fixed, documented combination of field signals:

    weighted = 0.5*title + 0.2*authors + 0.15*year_term + 0.15*venue
    year_term: exact 1.0, off_by_one 0.7, absent 0.5, mismatch 0.0

with an identifier override on top: a shared identifier that matches
exactly (and a title that is at least plausible, >= 0.6) lifts confidence
to at least 0.95; a shared identifier that *differs* caps it at 0.5 no
matter how good the text looks. Verification runs up to three passes and
only escalates while the best confidence stays below 0.6.

A batch is verified pass by pass. Source queries wait on the network in
one lane per source, a thread pool holding `workers` queries in flight,
so a slow source never takes a fast one's threads; under replay, which
waits on nothing, they run inline on the calling thread. Normalizing and
scoring run on the calling thread, and each (entry, record) pair is
scored once.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field

from . import textnorm
from .extraction.models import ReferenceInput
from .sources import (CandidateRecord, Query, QueryOutcome, SourceConfig, Transport,
                      query_source, sort_candidates, supports)
from .sources.models import DEFAULT_QUERY_LIMIT, SOURCES
from .textnorm import STOP_WORDS  # noqa: F401  (re-exported)

VERIFIED_THRESHOLD = 0.9
WEAK_THRESHOLD = 0.6
CLUSTER_TITLE_THRESHOLD = 0.9
TITLE_MISMATCH_THRESHOLD = 0.6
AUTHOR_MISMATCH_THRESHOLD = 0.5
VENUE_MISMATCH_THRESHOLD = 0.3
RELAXED_QUERY_WORDS = 6
ARXIV_DOI_PREFIX = "10.48550/"  # arXiv's DataCite DOIs
DEFAULT_WORKERS = 4
MAX_WORKERS = 16

ISSUE_CODES = ("title_mismatch", "identifier_conflict", "year_disagreement",
               "author_mismatch", "insufficient_evidence", "manifestation_conflict",
               "venue_mismatch")

BLOCKING_ISSUES = frozenset({"identifier_conflict", "manifestation_conflict",
                             "title_mismatch"})

STATUSES = ("verified", "needs_review", "unresolved", "not_checked")


# Venue tokens expanded before similarity; keys are period-stripped tokens.
VENUE_ABBREVIATIONS = {
    "proc": "proceedings", "conf": "conference", "int": "international",
    "intl": "international", "j": "journal", "trans": "transactions",
    "assoc": "association", "soc": "society", "natl": "national",
    "acad": "academy", "sci": "sciences", "ann": "annals", "rev": "review",
    "res": "research", "lett": "letters", "symp": "symposium",
    "med": "medicine", "biol": "biology", "chem": "chemistry",
    "phys": "physics", "comput": "computing", "eng": "engineering",
    "am": "american", "eur": "european",
}

_YEAR_TERM = {"exact": 1.0, "off_by_one": 0.7, "absent": 0.5, "mismatch": 0.0}


@dataclass(frozen=True)
class MatchScore:
    title_sim: float
    author_sim: float
    year_signal: str  # exact | off_by_one | mismatch | absent
    venue_sim: float
    identifier_signal: str  # exact | conflict | absent
    confidence: float

    def __post_init__(self) -> None:
        if self.identifier_signal == "conflict" and self.confidence > 0.5:
            raise ValueError("identifier conflict must cap confidence at 0.5")
        if not (0.0 <= self.confidence <= 1.0):
            raise ValueError(f"confidence out of range: {self.confidence}")


@dataclass(frozen=True)
class MatchCluster:
    members: tuple[CandidateRecord, ...]  # sorted by (source, source_id)
    cluster_key: str
    best_score: MatchScore
    best_member: CandidateRecord
    member_scores: tuple[tuple[str, MatchScore], ...]  # keyed by source:source_id


@dataclass(frozen=True)
class Issue:
    code: str
    detail: str

    def __post_init__(self) -> None:
        if self.code not in ISSUE_CODES:
            raise ValueError(f"unknown issue code: {self.code}")


@dataclass(frozen=True)
class EntryVerdict:
    entry: ReferenceInput
    status: str
    confidence: float
    issues: tuple[Issue, ...]
    chosen: CandidateRecord | None
    evidence: tuple[tuple[int, Query, dict], ...]  # (pass, query, outcome digest)
    passes_used: int
    outcomes: tuple[QueryOutcome, ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ValueError(f"unknown status: {self.status}")


# --------------------------------------------------------------------------
# Field similarities
# --------------------------------------------------------------------------

class _Memo(dict):
    """fn(key), computed on first lookup and kept for the memo's lifetime."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class TextKeys:
    """The normalized forms scoring compares, each computed once per distinct
    string. An instance lives for one call: `verify_entries` and
    `dedupe_and_cluster` make their own, and so does a similarity or
    `score_match` called without one. Nothing is cached across calls."""

    def __init__(self) -> None:
        self.tokens = _Memo(textnorm.match_tokens)
        self.venue_tokens = _Memo(lambda venue: textnorm.match_tokens(_expand_venue(venue)))
        # (family, given) -> (family key, first initial or "")
        self.author = _Memo(lambda author: (textnorm.family_key(author[0]),
                                            textnorm.initials_of(author[1])[:1]))


def title_similarity(a: str | None, b: str | None, keys: TextKeys | None = None) -> float:
    if not a or not b:
        return 0.0
    keys = keys or TextKeys()
    return textnorm.jaccard(keys.tokens[a], keys.tokens[b])


def author_similarity(query_authors: tuple[tuple[str, str], ...],
                      candidate_authors: tuple[tuple[str, str], ...],
                      keys: TextKeys | None = None) -> float:
    """Fraction of query family names found in the candidate list.

    A family-name hit also requires initial-compatible given names when
    both sides carry one. With authors missing on either side there is
    nothing to confirm or contradict, which scores a neutral 0.5.
    """
    if not query_authors or not candidate_authors:
        return 0.5
    keys = keys or TextKeys()
    cand = [keys.author[author] for author in candidate_authors]
    matched = 0
    for author in query_authors:
        key, initial = keys.author[author]
        for cand_key, cand_initial in cand:
            # A side without a given name cannot contradict the other.
            if key and key == cand_key and (not initial or not cand_initial
                                            or initial == cand_initial):
                matched += 1
                break
    return matched / len(query_authors)


def year_signal(query_year: int | None, candidate_year: int | None) -> str:
    if query_year is None or candidate_year is None:
        return "absent"
    delta = abs(query_year - candidate_year)
    if delta == 0:
        return "exact"
    if delta == 1:
        return "off_by_one"  # covers preprint/publication drift
    return "mismatch"


def _expand_venue(venue: str) -> str:
    tokens = []
    for token in re.split(r"\s+", venue):
        stripped = token.rstrip(".").casefold()
        tokens.append(VENUE_ABBREVIATIONS.get(stripped, token))
    return " ".join(tokens)


def venue_similarity(a: str | None, b: str | None, keys: TextKeys | None = None) -> float:
    """Token Jaccard after abbreviation expansion; vacuous agreement is 1.0."""
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.5
    keys = keys or TextKeys()
    return textnorm.jaccard(keys.venue_tokens[a], keys.venue_tokens[b])


def identifier_signal(entry_ids: dict[str, str], candidate_ids: dict[str, str]) -> str:
    """exact / conflict / absent over shared identifier types.

    When one shared type matches and another differs, conflict wins: a
    contradicted identifier is never overridden by an agreeing one.
    """
    shared = set(entry_ids) & set(candidate_ids)
    if not shared:
        return "absent"
    if any(entry_ids[k] != candidate_ids[k] for k in shared):
        return "conflict"
    return "exact"


def score_match(entry: ReferenceInput, candidate: CandidateRecord,
                keys: TextKeys | None = None) -> MatchScore:
    keys = keys or TextKeys()
    t_sim = title_similarity(entry.title, candidate.title, keys)
    a_sim = author_similarity(entry.authors, candidate.authors, keys)
    y_sig = year_signal(entry.year, candidate.year)
    v_sim = venue_similarity(entry.venue, candidate.venue, keys)
    id_sig = identifier_signal(entry.identifier_map(), candidate.identifier_map())

    weighted = 0.5 * t_sim + 0.2 * a_sim + 0.15 * _YEAR_TERM[y_sig] + 0.15 * v_sim
    if id_sig == "exact" and t_sim >= TITLE_MISMATCH_THRESHOLD:
        confidence = max(0.95, weighted)
    elif id_sig == "conflict":
        confidence = min(weighted, 0.5)
    else:
        confidence = weighted
    confidence = min(1.0, max(0.0, confidence))
    return MatchScore(title_sim=t_sim, author_sim=a_sim, year_signal=y_sig,
                      venue_sim=v_sim, identifier_signal=id_sig, confidence=confidence)


# --------------------------------------------------------------------------
# Query planning
# --------------------------------------------------------------------------

def relaxed_query_text(title: str) -> str:
    """First 6 content words of the title, stop words removed."""
    return " ".join(textnorm.content_words(title)[:RELAXED_QUERY_WORDS])


def source_pass_query(entry: ReferenceInput, pass_number: int, source: str,
                      limit: int = DEFAULT_QUERY_LIMIT) -> Query | None:
    """The query `source` gets for `entry` in a retrieval pass, or None when
    the source has nothing to contribute.

    Pass 1 is the most direct: a lookup of the first identifier, in
    `identifier_map` order (doi, then pmid, then arXiv), that the source
    supports, else a full-title search, so an arXiv-cited entry still
    reaches Crossref by title. The one exception: arXiv gets no pass-1
    title search for an entry that cites a DOI, which Crossref and PubMed
    look up, unless the DOI is arXiv's own (`10.48550/`), which only arXiv
    answers. The exception stays that narrow: the other sources' title
    searches find the published version of an arXiv-cited preprint. Pass 2
    narrows by first-author family name and year; pass 3 relaxes to the
    leading content words, and a title with none gets no pass-3 query. A
    title-less entry repeats its pass-1 query.
    """
    if pass_number not in (1, 2, 3):
        raise ValueError(f"pass must be 1..3, got {pass_number}")
    title = entry.title
    if pass_number == 1 or not title:
        for kind, value in entry.identifier_map().items():
            if supports(source, f"{kind}_lookup"):
                return Query(kind=f"{kind}_lookup", text=value, limit=limit)
        if source == "arxiv" and entry.doi and not entry.doi.startswith(ARXIV_DOI_PREFIX):
            return None
        query = Query(kind="title_search", text=title, limit=limit) if title else None
    elif pass_number == 2 and entry.authors:
        query = Query(kind="title_author_search", text=f"{title} {entry.authors[0][0]}",
                      year=entry.year, limit=limit)
    elif pass_number == 2:
        query = Query(kind="title_search", text=title, year=entry.year, limit=limit)
    else:
        relaxed = relaxed_query_text(title)
        query = (Query(kind="relaxed_search", text=relaxed, year=entry.year, limit=limit)
                 if relaxed else None)
    return query if query is not None and supports(source, query.kind) else None


# --------------------------------------------------------------------------
# Clustering
# --------------------------------------------------------------------------

def _dedupe(candidates: list[CandidateRecord]) -> list[CandidateRecord]:
    seen: set[tuple[str, str]] = set()
    out = []
    for record in candidates:
        key = (record.source, record.source_id)
        if key not in seen:
            seen.add(key)
            out.append(record)
    return out


def cluster_join(a: CandidateRecord, b: CandidateRecord, keys: TextKeys | None = None) -> bool:
    """Pairwise join predicate: shared identifier (direct or asserted), or
    near-identical titles with compatible years."""
    if a.all_identifiers() & b.all_identifiers():
        return True
    if title_similarity(a.title, b.title, keys) >= CLUSTER_TITLE_THRESHOLD:
        if a.year is None or b.year is None or abs(a.year - b.year) <= 1:
            return True
    return False


def _member_key(record: CandidateRecord) -> str:
    return f"{record.source}:{record.source_id}"


def _cluster_key(members: list[CandidateRecord]) -> str:
    dois = sorted(r.doi for r in members if r.doi)
    if dois:
        return dois[0]
    return min(f"{textnorm.match_key(r.title)}|{r.year if r.year is not None else ''}"
               for r in members)


def dedupe_and_cluster(candidates: list[CandidateRecord], entry: ReferenceInput,
                       scores: dict[str, MatchScore] | None = None) -> list[MatchCluster]:
    """Partition candidates into work clusters, best match first.

    Exact duplicates (same source and source_id) collapse before the
    transitive closure of `cluster_join` groups the rest. Every candidate
    lands in exactly one cluster. `scores` holds scores already computed
    for the first record of each "source:source_id"; the rest are scored here.
    """
    scores, keys = scores or {}, TextKeys()
    unique = sort_candidates(_dedupe(candidates))
    n = len(unique)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if cluster_join(unique[i], unique[j], keys):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj

    groups: dict[int, list[CandidateRecord]] = {}
    for i, record in enumerate(unique):
        groups.setdefault(find(i), []).append(record)

    clusters = []
    for members in groups.values():
        members = sorted(members, key=lambda r: (r.source, r.source_id))
        scored = [(m, scores.get(_member_key(m)) or score_match(entry, m, keys))
                  for m in members]
        # Highest confidence wins; exact ties resolve to the smallest
        # (source, source_id) key so clustering stays deterministic.
        top = max(s.confidence for _, s in scored)
        tied = [(m, s) for m, s in scored if s.confidence == top]
        best_member, best_score = min(tied, key=lambda pair: _member_key(pair[0]))
        clusters.append(MatchCluster(
            members=tuple(members),
            cluster_key=_cluster_key(members),
            best_score=best_score,
            best_member=best_member,
            member_scores=tuple((_member_key(m), s) for m, s in scored),
        ))
    clusters.sort(key=lambda c: (-c.best_score.confidence, c.cluster_key))
    return clusters


# --------------------------------------------------------------------------
# Issues and verdicts
# --------------------------------------------------------------------------

def derive_issues(entry: ReferenceInput, best_cluster: MatchCluster | None,
                  chosen: CandidateRecord | None = None,
                  chosen_score: MatchScore | None = None) -> list[Issue]:
    """Classify discrepancies between the entry and its best cluster.

    At most one issue per code; codes are the only classification channel.
    `chosen` comes with its `chosen_score`; both default to the cluster's
    best-scoring member and its score.
    """
    if best_cluster is None:
        return [Issue(code="insufficient_evidence",
                      detail="no candidate records retrieved after all passes")]

    if chosen is None:
        chosen, chosen_score = best_cluster.best_member, best_cluster.best_score

    issues: dict[str, Issue] = {}
    if chosen_score.title_sim < TITLE_MISMATCH_THRESHOLD:
        issues["title_mismatch"] = Issue(
            code="title_mismatch",
            detail=f"title similarity {chosen_score.title_sim:.2f} below "
                   f"{TITLE_MISMATCH_THRESHOLD} against {chosen.source}:{chosen.source_id}")
    if chosen_score.identifier_signal == "conflict":
        conflicting = sorted(set(entry.identifier_map()) & set(chosen.identifier_map()))
        issues["identifier_conflict"] = Issue(
            code="identifier_conflict",
            detail=f"shared identifier(s) {', '.join(conflicting)} disagree with "
                   f"{chosen.source}:{chosen.source_id}")
    if chosen_score.year_signal == "mismatch":
        issues["year_disagreement"] = Issue(
            code="year_disagreement",
            detail=f"cited year {entry.year} vs source year {chosen.year}")
    if chosen_score.author_sim < AUTHOR_MISMATCH_THRESHOLD and len(entry.authors) >= 2:
        issues["author_mismatch"] = Issue(
            code="author_mismatch",
            detail=f"only {chosen_score.author_sim:.0%} of cited family names matched")
    if (entry.venue and chosen.venue
            and chosen_score.venue_sim < VENUE_MISMATCH_THRESHOLD):
        issues["venue_mismatch"] = Issue(
            code="venue_mismatch",
            detail=f"venue similarity {chosen_score.venue_sim:.2f} below "
                   f"{VENUE_MISMATCH_THRESHOLD}")
    if best_cluster.best_score.confidence < WEAK_THRESHOLD:
        issues["insufficient_evidence"] = Issue(
            code="insufficient_evidence",
            detail=f"best confidence {best_cluster.best_score.confidence:.2f} below "
                   f"{WEAK_THRESHOLD}")
    return [issues[code] for code in ISSUE_CODES if code in issues]


def _status_for(confidence: float, issues: list[Issue], has_candidates: bool) -> str:
    blocking = any(i.code in BLOCKING_ISSUES for i in issues)
    if confidence >= VERIFIED_THRESHOLD and not blocking:
        return "verified"
    if confidence >= WEAK_THRESHOLD or (blocking and has_candidates):
        return "needs_review"
    return "unresolved"


@dataclass
class _Retrieval:
    """One entry's passes so far: evidence, outcomes and candidates in
    pass/source order, and the score of each candidate it has seen."""

    entry: ReferenceInput
    evidence: list[tuple[int, Query, dict]] = field(default_factory=list)
    outcomes: list[QueryOutcome] = field(default_factory=list)
    collected: list[CandidateRecord] = field(default_factory=list)
    # The score of the first record seen per "source:source_id".
    scores: dict[str, MatchScore] = field(default_factory=dict)
    passes_used: int = 0

    def add(self, pass_number: int, query: Query, outcome: QueryOutcome,
            keys: TextKeys) -> None:
        self.outcomes.append(outcome)
        self.evidence.append((pass_number, query, outcome.digest()))
        for record in outcome.records or ():
            self.collected.append(record)
            key = _member_key(record)
            if key not in self.scores:
                self.scores[key] = score_match(self.entry, record, keys)

    def best(self) -> float:
        return max((s.confidence for s in self.scores.values()), default=0.0)


def _verdict(state: _Retrieval, any_enabled: bool) -> EntryVerdict:
    """The entry's verdict once its passes are done.

    Candidates accumulated across passes and the final clustering runs over
    the whole union. Connector failures fold into the evidence trace and
    the not_checked status; nothing here raises for remote trouble.
    """
    from . import manifestations  # deferred: manifestations imports our types

    entry, outcomes = state.entry, state.outcomes
    # not_checked covers: no sources enabled, no source able to serve any
    # query for this entry (nothing attempted), or every attempt failed.
    not_checked = (not any_enabled) or (not outcomes) or all(o.failed for o in outcomes)
    if not_checked:
        return EntryVerdict(
            entry=entry, status="not_checked", confidence=0.0, issues=(),
            chosen=None, evidence=tuple(state.evidence),
            passes_used=max(state.passes_used, 1), outcomes=tuple(outcomes),
        )

    clusters = dedupe_and_cluster(state.collected, entry, state.scores)
    best_cluster = clusters[0] if clusters else None
    chosen: CandidateRecord | None = None
    chosen_score: MatchScore | None = None

    if best_cluster is not None:
        mset = manifestations.group_manifestations(best_cluster, entry)
        chosen, conflict_issue = manifestations.resolve_preference(mset)
        chosen_score = dict(best_cluster.member_scores)[_member_key(chosen)]
        issues = derive_issues(entry, best_cluster, chosen, chosen_score)
        if conflict_issue is not None:
            issues = sorted(issues + [conflict_issue],
                            key=lambda i: ISSUE_CODES.index(i.code))
    else:
        issues = derive_issues(entry, None)

    confidence = chosen_score.confidence if chosen_score is not None else 0.0
    status = _status_for(confidence, issues, chosen is not None)
    return EntryVerdict(
        entry=entry, status=status, confidence=confidence, issues=tuple(issues),
        chosen=chosen, evidence=tuple(state.evidence), passes_used=state.passes_used,
        outcomes=tuple(outcomes),
    )


def verify_entry(entry: ReferenceInput, transport: Transport, config: SourceConfig,
                 limit: int = DEFAULT_QUERY_LIMIT) -> EntryVerdict:
    """Run up to three retrieval passes and produce the entry's verdict: a
    batch of one, with at most one query in flight per source."""
    return verify_entries([entry], transport, config, limit=limit, workers=1)[0]


def verify_entries(entries: list[ReferenceInput], transport: Transport,
                   config: SourceConfig, limit: int = DEFAULT_QUERY_LIMIT,
                   workers: int = DEFAULT_WORKERS,
                   known: Mapping[tuple[str, Query], QueryOutcome] | None = None,
                   ) -> list[EntryVerdict]:
    """Verify a batch pass by pass; output order matches input.

    Each pass asks every enabled source the query each still-open entry
    puts to it, runs each distinct (source, query) once per batch, and
    hands each entry its outcomes in pass/source order. A transport that
    `waits` gets one lane per source, named `citecheck-<source>`, with up
    to `workers` of that source's queries in flight; one that does not
    (replay) is asked inline, on the calling thread. Scoring runs on the
    calling thread, once per (entry, record) pair. An entry moves on to the
    next pass only while its best confidence stays below WEAK_THRESHOLD.

    `known` holds outcomes this transport already gave, such as an earlier
    run's: a (source, query) found there is taken from it and not fetched.
    The caller decides what may be reused; an outcome is a function of the
    transport's answers and the (source, query), whose query holds `limit`.
    """
    enabled = [s for s in SOURCES if config.is_enabled(s)]
    keys = TextKeys()
    states = [_Retrieval(entry) for entry in entries]
    fetched: dict[tuple[str, Query], QueryOutcome] = {}
    known = known or {}
    open_states = states if enabled else []
    with ExitStack() as stack:
        # A pool starts its threads on first use, so an idle lane costs none.
        lanes = {source: stack.enter_context(ThreadPoolExecutor(
                     workers, thread_name_prefix=f"citecheck-{source}"))
                 for source in enabled} if transport.waits else {}
        for pass_number in (1, 2, 3):
            asked: list[tuple[_Retrieval, str, Query]] = []
            for state in open_states:
                state.passes_used = pass_number
                for source in enabled:
                    query = source_pass_query(state.entry, pass_number, source, limit=limit)
                    if query is not None:
                        asked.append((state, source, query))
            jobs = dict.fromkeys((source, query) for _, source, query in asked
                                 if (source, query) not in fetched)
            fetched.update((job, known[job]) for job in jobs if job in known)
            todo = [job for job in jobs if job not in fetched]
            if lanes:
                answers = [lanes[source].submit(query_source, source, query, transport, config)
                           for source, query in todo]
                fetched.update(zip(todo, (answer.result() for answer in answers)))
            else:
                fetched.update((job, query_source(*job, transport, config)) for job in todo)
            for state, source, query in asked:
                state.add(pass_number, query, fetched[source, query], keys)
            open_states = [s for s in open_states if s.best() < WEAK_THRESHOLD]
    return [_verdict(state, bool(enabled)) for state in states]
