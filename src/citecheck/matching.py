"""Match scoring, candidate clustering, and multi-pass verification.

Confidence is a fixed, documented combination of field signals:

    weighted = 0.5*title + 0.2*authors + 0.15*year_term + 0.15*venue
    year_term: exact 1.0, off_by_one 0.7, absent 0.5, mismatch 0.0

with an identifier override on top: a shared identifier that matches
exactly (and a title that is at least plausible, >= 0.6) lifts confidence
to at least 0.95; a shared identifier that *differs* caps it at 0.5 no
matter how good the text looks. Verification runs up to three passes and
only escalates while the best confidence stays below 0.6.

Each entry moves through its passes as its own answers arrive, never
waiting on another entry's. arXiv, the slowest source and the one with the
tightest rate, is asked last in pass 1: its title search goes out only
once the entry's other pass-1 answers are in, and only when they leave the
entry short of verified or the entry points at arXiv itself. Source
queries wait on the network in one lane per source, a thread pool holding
`workers` queries in flight, so a slow source never takes a fast one's
threads; under replay, which waits on nothing, they run inline on the
calling thread. Scheduling, normalizing and scoring run on the calling
thread, and each (entry, record) pair is scored once.
"""

from __future__ import annotations

import itertools
import queue
import re
from collections import deque
from collections.abc import Callable, Iterator, Mapping, Sequence
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field

from . import textnorm
from .extraction.models import ReferenceInput
from .sources import (CandidateRecord, Query, QueryOutcome, SourceConfig, Transport,
                      query_source, sort_candidates, supports)
from .sources.models import DEFAULT_QUERY_LIMIT, SOURCES

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
    best_member: CandidateRecord
    member_scores: Mapping[str, MatchScore]  # by CandidateRecord.key

    @property
    def best_score(self) -> MatchScore:
        return self.member_scores[self.best_member.key]


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
    steps: tuple[tuple[int, QueryOutcome], ...]  # (pass, outcome) in pass/source order
    passes_used: int

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ValueError(f"unknown status: {self.status}")

    @property
    def outcomes(self) -> tuple[QueryOutcome, ...]:
        return tuple(outcome for _, outcome in self.steps)

    @property
    def evidence(self) -> tuple[tuple[int, Query, dict], ...]:
        """(pass, query, outcome digest) per step, as the report holds them."""
        return tuple((p, outcome.query, outcome.digest()) for p, outcome in self.steps)


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
    searches find the published version of an arXiv-cited preprint.
    `verify_entries` sends arXiv's pass-1 title search last, and only when
    `asks_arxiv_title_search` says so. Pass 2 narrows by first-author
    family name and year; pass 3 relaxes to the leading content words, and
    a title with none gets no pass-3 query. A title-less entry repeats its
    pass-1 query.
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


def asks_arxiv_title_search(entry: ReferenceInput, best: float) -> bool:
    """Whether arXiv gets the entry's pass-1 title search, decided once the
    entry's other pass-1 answers are in and `best` is their best confidence.

    It is sent while those answers leave the entry short of verified, and
    whatever they say when the entry points at arXiv itself: a preprint, a
    venue that names arXiv, or arXiv's own DOI, whose record only arXiv holds.
    """
    return (best < VERIFIED_THRESHOLD or entry.entry_kind == "preprint"
            or "arxiv" in (entry.venue or "").casefold()
            or (entry.doi or "").startswith(ARXIV_DOI_PREFIX))


# --------------------------------------------------------------------------
# Clustering
# --------------------------------------------------------------------------

def linked(a: CandidateRecord, b: CandidateRecord) -> bool:
    """Identifier linkage: a shared direct or asserted identifier."""
    return bool(a.all_identifiers() & b.all_identifiers())


def cluster_join(a: CandidateRecord, b: CandidateRecord, keys: TextKeys | None = None) -> bool:
    """Pairwise join predicate: `linked`, or near-identical titles with
    compatible years."""
    return linked(a, b) or (
        title_similarity(a.title, b.title, keys) >= CLUSTER_TITLE_THRESHOLD
        and (a.year is None or b.year is None or abs(a.year - b.year) <= 1))


def components(records: Sequence[CandidateRecord],
               joined: Callable[[CandidateRecord, CandidateRecord], bool],
               ) -> list[list[CandidateRecord]]:
    """The connected components of `records` under the pairwise predicate
    `joined`, each in input order, ordered by their first record."""
    parent = list(range(len(records)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in itertools.combinations(range(len(records)), 2):
        if joined(records[i], records[j]):
            parent[find(i)] = find(j)
    groups: dict[int, list[CandidateRecord]] = {}
    for i, record in enumerate(records):
        groups.setdefault(find(i), []).append(record)
    return list(groups.values())


def _cluster_key(members: list[CandidateRecord]) -> str:
    dois = sorted(r.doi for r in members if r.doi)
    if dois:
        return dois[0]
    return min(f"{textnorm.match_key(r.title)}|{r.year if r.year is not None else ''}"
               for r in members)


def dedupe_and_cluster(candidates: list[CandidateRecord], entry: ReferenceInput,
                       scores: dict[str, MatchScore] | None = None) -> list[MatchCluster]:
    """Partition candidates into work clusters, best match first.

    Exact duplicates (same `CandidateRecord.key`) collapse to the first
    before the components of `cluster_join` group the rest. Every candidate
    lands in exactly one cluster. `scores` holds scores already computed
    for the first record of each key; the rest are scored here.
    """
    scores, keys = scores or {}, TextKeys()
    first: dict[str, CandidateRecord] = {}
    for record in candidates:
        first.setdefault(record.key, record)
    clusters = []
    for members in components(sort_candidates(list(first.values())),
                              lambda a, b: cluster_join(a, b, keys)):
        member_scores = {m.key: scores.get(m.key) or score_match(entry, m, keys)
                         for m in members}
        # Highest confidence wins; max keeps the first of exact ties, which in
        # (source, source_id) order is the smallest key, so clustering stays
        # deterministic.
        clusters.append(MatchCluster(
            members=tuple(members),
            cluster_key=_cluster_key(members),
            best_member=max(members, key=lambda m: member_scores[m.key].confidence),
            member_scores=member_scores,
        ))
    clusters.sort(key=lambda c: (-c.best_score.confidence, c.cluster_key))
    return clusters


# --------------------------------------------------------------------------
# Issues and verdicts
# --------------------------------------------------------------------------

def derive_issues(entry: ReferenceInput, best_cluster: MatchCluster | None,
                  chosen: CandidateRecord | None = None) -> list[Issue]:
    """Classify discrepancies between the entry and its best cluster.

    At most one issue per code; codes are the only classification channel.
    `chosen`, a cluster member, defaults to the best-scoring one.
    """
    if best_cluster is None:
        return [Issue(code="insufficient_evidence",
                      detail="no candidate records retrieved after all passes")]

    chosen = chosen or best_cluster.best_member
    chosen_score = best_cluster.member_scores[chosen.key]

    issues: dict[str, Issue] = {}
    if chosen_score.title_sim < TITLE_MISMATCH_THRESHOLD:
        issues["title_mismatch"] = Issue(
            code="title_mismatch",
            detail=f"title similarity {chosen_score.title_sim:.2f} below "
                   f"{TITLE_MISMATCH_THRESHOLD} against {chosen.key}")
    if chosen_score.identifier_signal == "conflict":
        conflicting = sorted(set(entry.identifier_map()) & set(chosen.identifier_map()))
        issues["identifier_conflict"] = Issue(
            code="identifier_conflict",
            detail=f"shared identifier(s) {', '.join(conflicting)} disagree with "
                   f"{chosen.key}")
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


_Job = tuple[str, Query]  # (source, query): one source query, asked once per batch


@dataclass
class _Retrieval:
    """One entry's passes so far: its steps, and the first record seen per
    `CandidateRecord.key` with its score; the wave of jobs it asked last, and
    how many of them a lane has yet to answer."""

    entry: ReferenceInput
    steps: list[tuple[int, QueryOutcome]] = field(default_factory=list)
    records: dict[str, CandidateRecord] = field(default_factory=dict)
    scores: dict[str, MatchScore] = field(default_factory=dict)
    passes_used: int = 0
    plan: Iterator[tuple[int, list[_Job]]] | None = None  # the entry's `waves`
    wave: tuple[int, Sequence[_Job]] | None = (0, ())
    unanswered: int = 0

    def add(self, pass_number: int, outcome: QueryOutcome, keys: TextKeys) -> None:
        self.steps.append((pass_number, outcome))
        for record in outcome.records or ():
            key = record.key
            if key not in self.records:
                self.records[key] = record
                self.scores[key] = score_match(self.entry, record, keys)

    def best(self) -> float:
        return max((s.confidence for s in self.scores.values()), default=0.0)

    def waves(self, enabled: list[str], limit: int) -> Iterator[tuple[int, list[_Job]]]:
        """The entry's queries as waves of (pass, jobs), each taken once the
        outcomes of the one before are in. Pass 1 asks arXiv's title search
        in a wave of its own, after the rest of the pass, and only when
        `asks_arxiv_title_search` says so. The entry moves on to the next
        pass only while its best confidence stays below WEAK_THRESHOLD."""
        for pass_number in (1, 2, 3):
            self.passes_used = pass_number
            jobs = [(source, query) for source in enabled
                    if (query := source_pass_query(self.entry, pass_number, source,
                                                   limit=limit)) is not None]
            last = [job for job in jobs if pass_number == 1 and job[0] == "arxiv"
                    and job[1].kind == "title_search"]
            yield pass_number, [job for job in jobs if job not in last]
            if last and asks_arxiv_title_search(self.entry, self.best()):
                yield pass_number, last
            if self.best() >= WEAK_THRESHOLD:
                return


def _verdict(state: _Retrieval, any_enabled: bool) -> EntryVerdict:
    """The entry's verdict once its passes are done.

    Candidates accumulated across passes and the final clustering runs over
    the whole union. Connector failures fold into the steps and the
    not_checked status; nothing here raises for remote trouble.
    """
    from . import manifestations  # deferred: manifestations imports our types

    entry = state.entry
    chosen, confidence, issues, status = None, 0.0, [], "not_checked"
    # not_checked covers: no sources enabled, no source able to serve any
    # query for this entry (nothing attempted), or every attempt failed.
    if any_enabled and any(not outcome.failed for _, outcome in state.steps):
        clusters = dedupe_and_cluster(list(state.records.values()), entry, state.scores)
        if clusters:
            mset = manifestations.group_manifestations(clusters[0], entry)
            chosen, conflict_issue = manifestations.resolve_preference(mset)
            confidence = clusters[0].member_scores[chosen.key].confidence
            issues = derive_issues(entry, clusters[0], chosen)
            if conflict_issue is not None:
                issues = sorted(issues + [conflict_issue],
                                key=lambda i: ISSUE_CODES.index(i.code))
        else:
            issues = derive_issues(entry, None)
        status = _status_for(confidence, issues, chosen is not None)
    return EntryVerdict(
        entry=entry, status=status, confidence=confidence, issues=tuple(issues),
        chosen=chosen, passes_used=max(state.passes_used, 1),
        steps=tuple(sorted(state.steps, key=lambda step: (step[0],
                                                           SOURCES.index(step[1].source)))),
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
    """Verify a batch; output order matches input.

    Each entry takes its waves of queries (`_Retrieval.waves`) as its own
    outcomes arrive: it moves on as soon as its last wave is answered, not
    when the slowest query of the batch is. Each distinct (source, query)
    runs once per batch, and an entry waiting on one that is in flight
    waits for that answer. A transport that `waits` gets one lane per
    source, named `citecheck-<source>`, with up to `workers` of that
    source's queries in flight; one that does not (replay) is asked inline,
    on the calling thread. Scheduling and scoring run on the calling thread,
    scoring once per (entry, record) pair, and each verdict holds its steps
    in pass/source order. A query that raises ends the batch with its error,
    and queries still queued in a lane are dropped.

    `known` holds outcomes this transport already gave, such as an earlier
    run's: a (source, query) found there is taken from it and not fetched.
    The caller decides what may be reused; an outcome is a function of the
    transport's answers and the (source, query), whose query holds `limit`.
    """
    enabled = [s for s in SOURCES if config.is_enabled(s)]
    keys = TextKeys()
    states = [_Retrieval(entry) for entry in entries]
    known = known or {}
    fetched: dict[_Job, QueryOutcome] = {}
    waiting: dict[_Job, list[_Retrieval]] = {}  # lane jobs not yet answered -> their askers
    answered: queue.SimpleQueue = queue.SimpleQueue()  # (job, future) as lanes finish
    lanes: dict[str, ThreadPoolExecutor] = {}

    def ask(job: _Job, state: _Retrieval) -> bool:
        """Whether `job` is answered now, from `known` or inline. Otherwise
        `state` waits for it in its lane, where it is sent once."""
        if job not in fetched:
            if job in known:
                fetched[job] = known[job]
            elif not lanes:
                fetched[job] = query_source(*job, transport, config)
            else:
                if job not in waiting:
                    waiting[job] = []
                    future = lanes[job[0]].submit(query_source, *job, transport, config)
                    future.add_done_callback(lambda future, job=job: answered.put((job, future)))
                waiting[job].append(state)
                return False
        return True

    def step(state: _Retrieval) -> bool:
        """Give the entry its answered wave's outcomes and ask its next wave;
        whether that one is answered already. False also when its passes end."""
        pass_number, jobs = state.wave
        for job in jobs:
            state.add(pass_number, fetched[job], keys)
        state.wave = next(state.plan, None)
        if state.wave is None:
            return False
        state.unanswered = sum(not ask(job, state) for job in state.wave[1])
        return not state.unanswered

    with ExitStack() as stack:
        if transport.waits:
            for source in enabled:
                # A pool starts its threads on first use, so an idle lane costs none.
                lanes[source] = ThreadPoolExecutor(workers,
                                                   thread_name_prefix=f"citecheck-{source}")
                stack.callback(lanes[source].shutdown, cancel_futures=True)
        # The entries whose last wave is answered. Each takes one wave per turn,
        # so under replay the batch moves wave by wave, which keeps each
        # source's answers together: running each entry to its end cost bulk
        # verification ~15 % more time.
        ready = deque(states if enabled else ())
        for state in ready:
            state.plan = state.waves(enabled, limit)
        while ready or waiting:
            if ready:
                state = ready.popleft()
                if step(state):
                    ready.append(state)
                continue
            job, future = answered.get()
            fetched[job] = future.result()
            for state in waiting.pop(job):
                state.unanswered -= 1
                if not state.unanswered:
                    ready.append(state)
    return [_verdict(state, bool(enabled)) for state in states]
