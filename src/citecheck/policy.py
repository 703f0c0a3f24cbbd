"""Batch policy: verdict ratios and failure summaries in, exit decisions out.

Exit codes form the CLI contract: 0 pass, 1 policy failure (content needs
humans), 2 operational failure (infrastructure got in the way). Presets
order strictly (any batch that passes strict passes default, any that
passes default passes lenient) and the property suite holds them to it.

The replacement gate is separate from the exit decision: duplicate keys,
BibTeX entries that do not parse (whose extent is unknown), unsafe key
rewrites, or manifestation conflicts block write-back outright, whatever the
ratios look like.
"""

from __future__ import annotations

from dataclasses import dataclass

from .extraction.models import LintFinding
from .matching import STATUSES, EntryVerdict
from .sources.models import TRANSIENT_FAILURES

EXIT_PASS = 0
EXIT_POLICY_FAIL = 1
EXIT_OPERATIONAL_FAIL = 2

# What each `BatchSummary.safety` count counts, as its blocking reason says.
_SAFETY_LABELS = {"duplicate_keys": "duplicate-key findings",
                  "syntax_errors": "BibTeX entries that do not parse",
                  "unsafe_key_rewrites": "unsafe key rewrites",
                  "manifestation_conflicts": "manifestation conflicts"}


@dataclass(frozen=True)
class BatchSummary:
    total: int
    verified_ratio: float
    needs_review_ratio: float
    unresolved_ratio: float
    not_checked_ratio: float
    failures_by_class: tuple[tuple[str, int], ...] = ()
    duplicate_key_count: int = 0
    manifestation_conflict_count: int = 0
    unsafe_key_rewrite_count: int = 0
    syntax_error_count: int = 0

    @property
    def safety(self) -> dict[str, int]:
        """The counts that block write-back whatever the ratios, by name."""
        return {"duplicate_keys": self.duplicate_key_count,
                "syntax_errors": self.syntax_error_count,
                "unsafe_key_rewrites": self.unsafe_key_rewrite_count,
                "manifestation_conflicts": self.manifestation_conflict_count}

    def failure_count(self, failure: str) -> int:
        return dict(self.failures_by_class).get(failure, 0)

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "ratios": {
                "verified": round(self.verified_ratio, 6),
                "needs_review": round(self.needs_review_ratio, 6),
                "unresolved": round(self.unresolved_ratio, 6),
                "not_checked": round(self.not_checked_ratio, 6),
            },
            "failures_by_class": {k: v for k, v in self.failures_by_class},
            "duplicate_key_count": self.duplicate_key_count,
            "manifestation_conflict_count": self.manifestation_conflict_count,
            "unsafe_key_rewrite_count": self.unsafe_key_rewrite_count,
            "syntax_error_count": self.syntax_error_count,
        }


@dataclass(frozen=True)
class PolicyPreset:
    name: str
    max_unresolved_ratio: float
    max_not_checked_ratio: float
    min_verified_ratio: float
    fail_on_auth_failure: bool
    allow_replacement_with_needs_review: bool


# The paper-facing presets. CLI and MCP callers choose a preset by name;
# the numbers themselves are fixed here.
PRESETS: dict[str, PolicyPreset] = {
    "strict": PolicyPreset("strict", max_unresolved_ratio=0.10,
                           max_not_checked_ratio=0.05, min_verified_ratio=0.80,
                           fail_on_auth_failure=True,
                           allow_replacement_with_needs_review=False),
    "default": PolicyPreset("default", max_unresolved_ratio=0.25,
                            max_not_checked_ratio=0.15, min_verified_ratio=0.50,
                            fail_on_auth_failure=True,
                            allow_replacement_with_needs_review=False),
    "lenient": PolicyPreset("lenient", max_unresolved_ratio=0.50,
                            max_not_checked_ratio=0.50, min_verified_ratio=0.00,
                            fail_on_auth_failure=False,
                            allow_replacement_with_needs_review=True),
}


@dataclass(frozen=True)
class PolicyDecision:
    exit_code: int  # 0 pass, 1 policy_fail, 2 operational_fail
    replacement_allowed: bool
    reasons: tuple[tuple[str, str], ...]  # (code, observed-vs-bound detail)
    summary: BatchSummary
    preset: PolicyPreset

    def to_dict(self) -> dict:
        return {
            "exit_code": self.exit_code,
            "replacement_allowed": self.replacement_allowed,
            "reasons": [{"code": code, "detail": detail} for code, detail in self.reasons],
            "preset": self.preset.name,
        }


def summarize_batch(verdicts: list[EntryVerdict],
                    lint_findings: list[LintFinding] | None = None,
                    unsafe_key_rewrite_count: int = 0) -> BatchSummary:
    """Aggregate verdicts, lint, and key-mapping safety into one summary.

    not_found outcomes never join the failure counts; they are evidence
    of absence, not operational trouble. An empty batch is total 0 with
    all ratios 0.
    """
    total = len(verdicts)
    counts = {status: 0 for status in STATUSES}
    failures: dict[str, int] = {}
    conflict_count = 0
    for verdict in verdicts:
        counts[verdict.status] += 1
        if any(issue.code == "manifestation_conflict" for issue in verdict.issues):
            conflict_count += 1
        for outcome in verdict.outcomes:
            if outcome.failed:
                failures[outcome.failure.failure] = failures.get(outcome.failure.failure, 0) + 1

    codes = [finding.code for finding in lint_findings or []]

    def ratio(status: str) -> float:
        return counts[status] / total if total else 0.0

    return BatchSummary(
        total=total,
        verified_ratio=ratio("verified"),
        needs_review_ratio=ratio("needs_review"),
        unresolved_ratio=ratio("unresolved"),
        not_checked_ratio=ratio("not_checked"),
        failures_by_class=tuple(sorted(failures.items())),
        duplicate_key_count=codes.count("duplicate_key"),
        manifestation_conflict_count=conflict_count,
        unsafe_key_rewrite_count=unsafe_key_rewrite_count,
        syntax_error_count=codes.count("syntax_error"),
    )


def evaluate_policy(summary: BatchSummary, preset: PolicyPreset) -> PolicyDecision:
    """Apply one preset to one batch summary.

    Gate order: operational gates first (exit 2), then ratio bounds
    (exit 1). Every tripped gate lands in `reasons` with the observed and
    bound values, so a non-zero exit always explains itself.
    """
    reasons: list[tuple[str, str]] = []
    exit_code = EXIT_PASS

    auth_failures = summary.failure_count("authentication")
    failure_classes = {k for k, v in summary.failures_by_class if v > 0}
    all_transient = failure_classes <= TRANSIENT_FAILURES

    if preset.fail_on_auth_failure and auth_failures > 0:
        exit_code = EXIT_OPERATIONAL_FAIL
        reasons.append(("authentication_failures",
                        f"observed {auth_failures} authentication failures; preset "
                        f"{preset.name} fails on any"))
    if (summary.not_checked_ratio > preset.max_not_checked_ratio and all_transient
            and exit_code != EXIT_OPERATIONAL_FAIL):
        exit_code = EXIT_OPERATIONAL_FAIL
        reasons.append(("not_checked_operational",
                        f"not_checked ratio {summary.not_checked_ratio:.3f} > bound "
                        f"{preset.max_not_checked_ratio:.3f} with only transient failures"))

    if exit_code == EXIT_PASS:
        if summary.unresolved_ratio > preset.max_unresolved_ratio:
            exit_code = EXIT_POLICY_FAIL
            reasons.append(("unresolved_ratio_exceeded",
                            f"observed {summary.unresolved_ratio:.3f} > bound "
                            f"{preset.max_unresolved_ratio:.3f}"))
        if summary.not_checked_ratio > preset.max_not_checked_ratio:
            exit_code = max(exit_code, EXIT_POLICY_FAIL)
            reasons.append(("not_checked_ratio_exceeded",
                            f"observed {summary.not_checked_ratio:.3f} > bound "
                            f"{preset.max_not_checked_ratio:.3f}"))
        if summary.total > 0 and summary.verified_ratio < preset.min_verified_ratio:
            exit_code = max(exit_code, EXIT_POLICY_FAIL)
            reasons.append(("verified_ratio_below_minimum",
                            f"observed {summary.verified_ratio:.3f} < bound "
                            f"{preset.min_verified_ratio:.3f}"))

    safety_clear = not any(summary.safety.values())
    reasons += [(f"replacement_blocked_{name}", f"{count} {_SAFETY_LABELS[name]}")
                for name, count in summary.safety.items() if count]

    review_clear = (summary.needs_review_ratio == 0
                    or preset.allow_replacement_with_needs_review)
    if not review_clear:
        reasons.append(("replacement_blocked_needs_review",
                        f"needs_review ratio {summary.needs_review_ratio:.3f} with preset "
                        f"{preset.name} disallowing replacement alongside review items"))

    replacement_allowed = (exit_code == EXIT_PASS and safety_clear and review_clear
                           and summary.total > 0)
    return PolicyDecision(
        exit_code=exit_code,
        replacement_allowed=replacement_allowed,
        reasons=tuple(reasons),
        summary=summary,
        preset=preset,
    )
