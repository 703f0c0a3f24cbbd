"""Manifestation grouping and preference: journal > conference > preprint.

One work may surface as a journal article, a conference paper, and an
arXiv preprint at once. The preference order picks the canonical record,
but it never silently overrides the author: when the entry cites (by
identifier) a lower-preference manifestation while a higher one exists,
the resolver emits a manifestation_conflict issue and the verdict stays
review-only.

Preference switching requires identifier-level linkage (`matching.linked`:
a shared or cross-asserted id). Members that joined the cluster on title similarity
alone are left outside the work set: they can corroborate, not replace.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from .extraction.models import ReferenceInput
from .matching import Issue, MatchCluster, MatchScore, components, linked
from .sources import CandidateRecord

# Fixed, not configurable. Book chapters and reports have no slot in the
# order and map to unknown(0).
PREFERENCE_RANK = {"journal": 3, "conference": 2, "preprint": 1, "unknown": 0}

_SOURCE_TIE_ORDER = {"crossref": 0, "pubmed": 1, "arxiv": 2, "semantic_scholar": 3}


@dataclass(frozen=True)
class ManifestationSet:
    work_members: tuple[CandidateRecord, ...]
    preferred: CandidateRecord
    conflict: bool  # implies a cited member
    cited_member: CandidateRecord | None = None


def _cited_member(entry: ReferenceInput,
                  members: list[CandidateRecord]) -> CandidateRecord | None:
    """The member whose direct identifiers match what the entry cites."""
    entry_ids = set(entry.identifier_map().items())
    for member in members:
        if entry_ids & set(member.identifier_map().items()):
            return member
    return None


def _pick_preferred(members: list[CandidateRecord],
                    scores: Mapping[str, MatchScore]) -> CandidateRecord:
    def sort_key(record: CandidateRecord):
        return (-PREFERENCE_RANK[record.manifestation_kind],
                -scores[record.key].confidence,
                _SOURCE_TIE_ORDER.get(record.source, 99),
                record.source_id)
    return sorted(members, key=sort_key)[0]


def group_manifestations(cluster: MatchCluster, entry: ReferenceInput) -> ManifestationSet:
    """Identifier-linked manifestation set around the cluster's best member."""
    if not cluster.members:
        raise ValueError("cluster must be non-empty")
    work_members = next(component for component in components(cluster.members, linked)
                        if cluster.best_member in component)
    preferred = _pick_preferred(work_members, cluster.member_scores)
    cited = _cited_member(entry, work_members)
    conflict = (
        cited is not None
        and cited.key != preferred.key
        and PREFERENCE_RANK[preferred.manifestation_kind]
        > PREFERENCE_RANK[cited.manifestation_kind]
    )
    return ManifestationSet(
        work_members=tuple(work_members),
        preferred=preferred,
        conflict=conflict,
        cited_member=cited,
    )


def resolve_preference(mset: ManifestationSet) -> tuple[CandidateRecord, Issue | None]:
    """Preferred record plus a manifestation_conflict issue when the author's
    cited manifestation would be overridden. Conflicted entries cap at
    needs_review downstream, never a silent rewrite."""
    issue = None
    if mset.conflict:
        issue = Issue(
            code="manifestation_conflict",
            detail=(f"entry cites the {mset.cited_member.manifestation_kind} "
                    f"({mset.cited_member.key}) but a "
                    f"{mset.preferred.manifestation_kind} manifestation exists "
                    f"({mset.preferred.key})"),
        )
    return mset.preferred, issue
