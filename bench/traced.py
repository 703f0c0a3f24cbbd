"""The traced run: citecheck's stages called one by one, timed from outside.

``staged_run`` calls the public function of each stage in the order
``pipeline.run_repair`` calls them and returns the same canonical output,
so its bytes can be compared with the untraced front end's. The transport
is wrapped at its boundary to count requests, failures and time spent
waiting. Scoring, clustering, manifestation resolution, response parsing
and rendering are then timed again, call by call, on the inputs the run
itself produced (``layer_costs``).
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from pathlib import Path
from urllib.parse import urlsplit

from citecheck.errors import BlockedByPolicy
from citecheck.extraction import extract_references
from citecheck.manifestations import group_manifestations, resolve_preference
from citecheck.matching import dedupe_and_cluster, score_match, verify_entries
from citecheck.pipeline import (RepairRun, RunOptions, assemble_report, render_output,
                                report_json, scan_report_dict)
from citecheck.policy import PRESETS, evaluate_policy, summarize_batch
from citecheck.rewrite import (analyze_key_mapping, apply_rewrite, plan_rewrite,
                               render_bibliography, replacement_eligible)
from citecheck.rewrite.models import RENDER_FORMATS
from citecheck.sources import (Transport, config_from_env, request_key, sort_candidates,
                               summarize_health)
from citecheck.sources.connectors import (parse_arxiv_feed, parse_crossref_body,
                                          parse_pubmed_esearch, parse_pubmed_esummary)
from citecheck.workspace import scan_workspace, select_primary_artifact


class CountingTransport(Transport):
    """Wraps a transport; counts requests per source, failures, and wait time."""

    def __init__(self, inner: Transport):
        self.inner = inner
        self._lock = threading.Lock()
        self.requests: dict[str, int] = defaultdict(int)
        self.failed = 0
        self.wait_s = 0.0
        self.responses: list = []  # (request, response), for re-parsing

    @property
    def mode(self) -> str:
        return self.inner.mode

    def fetch(self, request):
        started = time.perf_counter()
        try:
            response = self.inner.fetch(request)
        except Exception:
            with self._lock:
                self.requests[request.source] += 1
                self.failed += 1
                self.wait_s += time.perf_counter() - started
            raise
        elapsed = time.perf_counter() - started
        with self._lock:
            self.requests[request.source] += 1
            self.wait_s += elapsed
            if response.io_error is not None or response.status not in (200, 404):
                self.failed += 1
            self.responses.append((request, response))
        return response


class Timer:
    """Accumulates wall time and call counts per stage name, plus counters."""

    def __init__(self):
        self.total: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)

    def __call__(self, name: str, fn, *args, **kwargs):
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        self.total[name] += time.perf_counter() - started
        self.calls[name] += 1
        return result


def staged_run(options: RunOptions, stage: str, transport: Transport,
               t: Timer) -> tuple[str, RepairRun]:
    """run_repair's stages in run_repair's order; returns (payload, run)."""
    t.counts["runs"] += 1
    root = Path(options.path)
    scan = t("workspace.scan", scan_workspace, root, max_depth=options.max_depth)
    artifact_rel = t("workspace.select", select_primary_artifact, scan)
    if root.is_file():
        artifact_path, base_dir = root, root.parent
    else:
        artifact_path, base_dir = root / artifact_rel, root
    t.counts["files"] += len(scan.candidates)

    extraction = t("extraction", extract_references, artifact_path)
    config = config_from_env(options.env, sources=options.sources,
                             transport=options.transport, fixtures_dir=options.fixtures_dir)
    cpu = time.process_time()
    verdicts = t("matching.verify", verify_entries, extraction.entries, transport, config,
                 limit=options.limit, workers=options.workers)
    t.total["matching.cpu"] += time.process_time() - cpu
    outcomes = [o for v in verdicts for o in v.outcomes]
    health = t("sources.health", summarize_health, outcomes, config)

    key_mapping = t("rewrite.plan", analyze_key_mapping, extraction, base_dir,
                    options.regenerate_keys)
    summary = t("policy", summarize_batch, verdicts, extraction.lint,
                unsafe_key_rewrite_count=key_mapping.unsafe_rewrite_count())
    decision = t("policy", evaluate_policy, summary, PRESETS[options.preset])

    plan = apply_result = apply_error = None
    if stage in ("plan", "apply", "repair"):
        plan = t("rewrite.plan", plan_rewrite, artifact_path, extraction, verdicts,
                 options.mode, decision, key_mapping=key_mapping,
                 regenerate_keys=options.regenerate_keys, workspace_root=base_dir)
        wants_write = options.mode == "replacement" and options.write != "preview"
        if stage in ("apply", "repair") and (wants_write or stage == "apply"):
            try:
                apply_result = t("rewrite.apply", apply_rewrite, plan, options.write)
            except BlockedByPolicy as exc:
                apply_error = str(exc)

    report = t("pipeline.assemble", assemble_report, options, base_dir, scan, artifact_rel,
               extraction, verdicts, health, summary, decision, plan, apply_result,
               apply_error, config)
    run = RepairRun(report=report, exit_code=decision.exit_code, decision=decision,
                    plan=plan, apply_result=apply_result, apply_error=apply_error,
                    verdicts=verdicts, extraction=extraction)
    payload = t("pipeline.serialize", render_output, run, options.fmt)
    return payload, run


def staged_scan(path: str, t: Timer) -> str:
    """The scan_workspace tool's work, stage by stage."""
    scan = t("workspace.scan", scan_workspace, path)
    t.counts["files"] += len(scan.candidates)
    report = t("pipeline.assemble", scan_report_dict, scan)
    return t("pipeline.serialize", report_json, report)


def _per_call(fn, items) -> tuple[float, int]:
    started = time.perf_counter()
    n = 0
    for item in items:
        fn(*item)
        n += 1
    return time.perf_counter() - started, n


def _parse_call(request, response) -> tuple:
    """(parser, args) the connector applies to this response."""
    key = request_key(request)
    path = urlsplit(request.url).path
    if request.source == "crossref":
        kind = "doi_lookup" if path.startswith("/works/") else "title_search"
        return parse_crossref_body, (response.body, kind, key)
    if request.source == "pubmed":
        if path.endswith("esearch.fcgi"):
            return parse_pubmed_esearch, (response.body,)
        return parse_pubmed_esummary, (response.body, key)
    return parse_arxiv_feed, (response.body, key)


def layer_costs(runs: list[RepairRun], responses: list) -> dict[str, float]:
    """Per-call costs of the inner layers, on one round's own inputs.

    Returns microseconds per candidate scored, per entry clustered, per
    entry resolved to a manifestation, per response parsed, and seconds for
    rendering, in all five formats, the bibliographies the round planned
    (every bibliography, when the round planned none).
    """
    scored, clustered, resolved, pairs_list = [], [], [], []
    candidates_total = 0
    planned = [run for run in runs if run.plan is not None] or runs
    for run in planned:
        allow = run.decision.preset.allow_replacement_with_needs_review
        pairs_list.append([(v.entry, v.chosen if replacement_eligible(v, allow) else None)
                           for v in run.verdicts])
    for run in runs:
        for v in run.verdicts:
            records = sort_candidates(list({(r.source, r.source_id): r
                                            for o in v.outcomes for r in (o.records or ())
                                            }.values()))
            candidates_total += len(records)
            scored.extend((v.entry, r) for r in records)
            if records:
                clustered.append((records, v.entry))
    cluster_s, n_clustered = _per_call(dedupe_and_cluster, clustered)
    for records, entry in clustered:
        clusters = dedupe_and_cluster(records, entry)
        resolved.append((clusters[0], entry))
    score_s, n_scored = _per_call(score_match, scored)
    manif_s, n_resolved = _per_call(
        lambda cluster, entry: resolve_preference(group_manifestations(cluster, entry)),
        resolved)
    parse_s, n_parsed = _per_call(lambda fn, args: fn(*args),
                                  [_parse_call(rq, rs) for rq, rs in responses
                                   if rs.status == 200])
    render_s, _ = _per_call(render_bibliography,
                            [(pairs, fmt) for pairs in pairs_list for fmt in RENDER_FORMATS])
    entries = sum(len(run.verdicts) for run in runs)
    return {
        "score_us_per_candidate": 1e6 * score_s / max(1, n_scored),
        "cluster_us_per_entry": 1e6 * cluster_s / max(1, n_clustered),
        "manifestations_us_per_entry": 1e6 * manif_s / max(1, n_resolved),
        "parse_us_per_response": 1e6 * parse_s / max(1, n_parsed),
        "render_s": render_s,
        "candidates_per_entry": candidates_total / max(1, entries),
        "passes_per_entry": sum(v.passes_used for run in runs for v in run.verdicts)
        / max(1, entries),
    }


def unrun_rewrite_costs(runs: list[RepairRun]) -> tuple[float, float]:
    """Seconds to plan (review mode) and to preview-apply one round, when no
    call of the round got that far; called from outside on the round's own
    extraction and verdicts. Zero for a stage the front end did run."""
    plan_s = apply_s = 0.0
    plans = [run.plan for run in runs if run.plan is not None]
    if not plans:
        for run in runs:
            started = time.perf_counter()
            plans.append(plan_rewrite(run.extraction.artifact_path, run.extraction,
                                      run.verdicts, "review", run.decision))
            plan_s += time.perf_counter() - started
    if not any(run.apply_result is not None for run in runs):
        started = time.perf_counter()
        for plan in plans:
            apply_rewrite(plan, "preview")
        apply_s = time.perf_counter() - started
    return plan_s, apply_s
