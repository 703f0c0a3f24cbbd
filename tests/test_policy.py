"""Policy engine: ratio math, preset gates, replacement blocking."""

from __future__ import annotations

import random

import pytest

from citecheck.extraction.models import LintFinding, RawReference, ReferenceInput
from citecheck.matching import EntryVerdict, Issue
from citecheck.policy import (BatchSummary, PRESETS, evaluate_policy, summarize_batch)
from citecheck.sources import FailureClass, Query, QueryOutcome
from citecheck.sources.models import CandidateRecord


def _verdict(status, ordinal=1, issues=(), failures=()) -> EntryVerdict:
    raw = RawReference(source_span=(0, 5), original_text="xxxxx",
                       origin_format="bibtex", ordinal=ordinal,
                       citation_key=f"k{ordinal}", source_path="m.bib")
    entry = ReferenceInput(raw=raw, title=f"T{ordinal}", fields={"title": f"T{ordinal}"})
    chosen = None
    if status in ("verified", "needs_review"):
        chosen = CandidateRecord(source="crossref", source_id=f"c{ordinal}",
                                 title=f"T{ordinal}")
    steps = tuple(
        (1, QueryOutcome(source="crossref", query=Query(kind="title_search", text="t"),
                         failure=FailureClass(f, "probe")))
        for f in failures)
    return EntryVerdict(entry=entry, status=status,
                        confidence=0.95 if status == "verified" else 0.3,
                        issues=tuple(Issue(code=c, detail="d") for c in issues),
                        chosen=chosen, steps=steps, passes_used=1)


def _summary(verified=0.0, needs_review=0.0, unresolved=0.0, not_checked=0.0,
             total=10, failures=(), duplicates=0, conflicts=0, unsafe=0) -> BatchSummary:
    return BatchSummary(total=total, verified_ratio=verified,
                        needs_review_ratio=needs_review, unresolved_ratio=unresolved,
                        not_checked_ratio=not_checked,
                        failures_by_class=tuple(failures),
                        duplicate_key_count=duplicates,
                        manifestation_conflict_count=conflicts,
                        unsafe_key_rewrite_count=unsafe)


# ---------------------------------------------------------------------------
# summarize_batch
# ---------------------------------------------------------------------------

def test_ratio_counting():
    verdicts = [_verdict("verified", i) for i in range(1, 9)] + [
        _verdict("needs_review", 9), _verdict("needs_review", 10)]
    summary = summarize_batch(verdicts)
    assert summary.total == 10
    assert summary.verified_ratio == pytest.approx(0.8)
    assert summary.needs_review_ratio == pytest.approx(0.2)
    assert summary.unresolved_ratio == 0.0
    assert summary.not_checked_ratio == 0.0


def test_empty_batch():
    summary = summarize_batch([])
    assert summary.total == 0
    assert summary.verified_ratio == 0.0


def test_duplicate_count_from_lint_recount_oracle():
    verdicts = [_verdict("verified", 1, issues=("identifier_conflict",)),
                _verdict("verified", 2), _verdict("verified", 3)]
    lint = [LintFinding(code="duplicate_key", entry_ordinal=1, message="m",
                        severity="error"),
            LintFinding(code="duplicate_key", entry_ordinal=2, message="m",
                        severity="error"),
            LintFinding(code="missing_field", entry_ordinal=3, message="m",
                        severity="warning")]
    summary = summarize_batch(verdicts, lint)
    assert summary.duplicate_key_count == 2
    assert summary.manifestation_conflict_count == 0


def test_ratios_sum_to_one():
    rng = random.Random(5)
    statuses = ["verified", "needs_review", "unresolved", "not_checked"]
    for _ in range(50):
        verdicts = [_verdict(rng.choice(statuses), i) for i in range(1, rng.randint(2, 20))]
        s = summarize_batch(verdicts)
        total = (s.verified_ratio + s.needs_review_ratio + s.unresolved_ratio
                 + s.not_checked_ratio)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_not_found_excluded_from_failures():
    verdicts = [_verdict("verified", 1, failures=("not_found", "rate_limit"))]
    summary = summarize_batch(verdicts)
    assert dict(summary.failures_by_class) == {"rate_limit": 1}


# ---------------------------------------------------------------------------
# evaluate_policy
# ---------------------------------------------------------------------------

def test_strict_fails_on_unresolved_ratio():
    decision = evaluate_policy(_summary(verified=0.7, unresolved=0.3),
                               PRESETS["strict"])
    assert decision.exit_code == 1
    assert any("unresolved" in code for code, _ in decision.reasons)


def test_lenient_passes_same_batch():
    decision = evaluate_policy(_summary(verified=0.7, unresolved=0.3),
                               PRESETS["lenient"])
    assert decision.exit_code == 0


def test_duplicate_keys_block_replacement_any_preset():
    for preset in PRESETS.values():
        decision = evaluate_policy(_summary(verified=1.0, duplicates=2), preset)
        assert decision.replacement_allowed is False
        assert any("duplicate" in code for code, _ in decision.reasons)


def test_auth_failures_trip_operational_exit():
    summary = _summary(verified=1.0, failures=(("authentication", 1),))
    assert evaluate_policy(summary, PRESETS["default"]).exit_code == 2
    assert evaluate_policy(summary, PRESETS["lenient"]).exit_code == 0


def test_transient_not_checked_is_operational():
    summary = _summary(verified=0.4, not_checked=0.6,
                       failures=(("rate_limit", 5), ("transport", 2)))
    decision = evaluate_policy(summary, PRESETS["default"])
    assert decision.exit_code == 2
    assert any(code == "not_checked_operational" for code, _ in decision.reasons)


def test_nontransient_not_checked_is_policy_failure():
    summary = _summary(verified=0.4, not_checked=0.6,
                       failures=(("payload_shape", 3),))
    decision = evaluate_policy(summary, PRESETS["default"])
    assert decision.exit_code == 1


def test_every_failing_decision_has_reasons():
    rng = random.Random(11)
    for _ in range(300):
        summary = _random_summary(rng)
        for preset in PRESETS.values():
            decision = evaluate_policy(summary, preset)
            if decision.exit_code != 0:
                assert decision.reasons


def test_needs_review_blocks_replacement_unless_allowed():
    summary = _summary(verified=0.8, needs_review=0.2)
    assert evaluate_policy(summary, PRESETS["default"]).replacement_allowed is False
    assert evaluate_policy(summary, PRESETS["lenient"]).replacement_allowed is True


def test_replacement_needs_passing_exit():
    summary = _summary(verified=0.2, unresolved=0.8)
    decision = evaluate_policy(summary, PRESETS["lenient"])
    assert decision.exit_code == 1
    assert decision.replacement_allowed is False


def _random_summary(rng: random.Random) -> BatchSummary:
    weights = [rng.random() for _ in range(4)]
    total_weight = sum(weights) or 1.0
    ratios = [w / total_weight for w in weights]
    failure_classes = rng.sample(
        ["transport", "rate_limit", "authentication", "payload_shape"],
        k=rng.randint(0, 3))
    return BatchSummary(
        total=rng.randint(1, 50),
        verified_ratio=ratios[0], needs_review_ratio=ratios[1],
        unresolved_ratio=ratios[2], not_checked_ratio=ratios[3],
        failures_by_class=tuple((c, rng.randint(1, 4)) for c in failure_classes),
        duplicate_key_count=rng.choice([0, 0, 0, 2]),
        manifestation_conflict_count=rng.choice([0, 0, 1]),
        unsafe_key_rewrite_count=rng.choice([0, 0, 1]),
    )


def test_preset_ordering_property():
    """pass(strict) implies pass(default) implies pass(lenient), 200 random batches."""
    rng = random.Random(20240301)
    checked = 0
    for _ in range(200):
        summary = _random_summary(rng)
        strict = evaluate_policy(summary, PRESETS["strict"]).exit_code == 0
        default = evaluate_policy(summary, PRESETS["default"]).exit_code == 0
        lenient = evaluate_policy(summary, PRESETS["lenient"]).exit_code == 0
        if strict:
            assert default, summary
        if default:
            assert lenient, summary
        checked += 1
    assert checked == 200


def test_worsening_a_ratio_never_flips_fail_to_pass():
    rng = random.Random(77)
    for _ in range(100):
        summary = _random_summary(rng)
        for preset in PRESETS.values():
            base = evaluate_policy(summary, preset)
            if base.exit_code == 0:
                continue
            worse = BatchSummary(
                total=summary.total,
                verified_ratio=max(0.0, summary.verified_ratio - 0.1),
                needs_review_ratio=summary.needs_review_ratio,
                unresolved_ratio=min(1.0, summary.unresolved_ratio + 0.1),
                not_checked_ratio=summary.not_checked_ratio,
                failures_by_class=summary.failures_by_class,
                duplicate_key_count=summary.duplicate_key_count,
                manifestation_conflict_count=summary.manifestation_conflict_count,
                unsafe_key_rewrite_count=summary.unsafe_key_rewrite_count,
            )
            assert evaluate_policy(worse, preset).exit_code != 0
