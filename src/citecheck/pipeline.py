"""The repair pipeline: scan, extract, verify, resolve, gate, plan, apply.

Both frontends (CLI and MCP server) call into here and print the same
canonical JSON, so the human and agent paths cannot diverge. Reports are
deterministic for fixed inputs and fixed source answers, live or replayed:
sorted keys, relative forward-slash paths, no timestamps and no timings.
"""

import functools
import json
import os
import re
import typing
from collections.abc import Callable, Mapping
from dataclasses import MISSING, Field, dataclass, field, fields
from pathlib import Path
from typing import TextIO

from . import __version__
from .errors import BlockedByPolicy, UsageError
from .extraction import ExtractionResult, extract_references
from .matching import DEFAULT_WORKERS, MAX_WORKERS, EntryVerdict, verify_entries
from .policy import PRESETS, PolicyDecision, evaluate_policy, summarize_batch
from .rewrite import (ApplyResult, RewritePlan, analyze_key_mapping, apply_rewrite,
                      plan_rewrite, render_bibliography)
from .rewrite.engine import eligible_pairs
from .rewrite.models import PLAN_MODES, RENDER_FORMATS, WRITE_MODES
from .sources import (Query, QueryOutcome, SourceConfig, config_from_env, make_transport,
                      summarize_health)
from .sources.config import TRANSPORT_MODES
from .sources.models import DEFAULT_QUERY_LIMIT, MAX_QUERY_LIMIT, SOURCES
from .workspace import (DEFAULT_MAX_DEPTH, ScanReport, scan_workspace,
                        select_primary_artifact)

# The one list of commands: command -> (MCP tool name, description). `scan`
# takes scan's options, `version` none, and the four pipeline stages all of
# them. The CLI adds `serve`, which runs the MCP server.
COMMANDS = {
    "scan": ("scan_workspace", "Rank the paper-like files under a path and select the "
             "primary manuscript or bibliography artifact."),
    "analyze": ("analyze_references", "Extract references from the selected artifact and "
                "verify them against scholarly metadata sources."),
    "plan": ("plan_reference_rewrite", "Produce a policy-gated rewrite plan with patch "
             "previews and key-mapping risk; pass format for the corrected bibliography "
             "instead of the report."),
    "apply": ("apply_reference_rewrite", "Apply a rewrite plan in preview, sidecar, or "
              "replace mode. Blocked plans refuse write-back."),
    "repair": ("repair_paper", "Full pipeline: scan, extract, verify, resolve manifestations, "
               "evaluate policy, plan, and optionally write. Returns the structured report."),
    "version": ("citecheck_version", "Version of this citecheck build."),
}


def _option(help: str, default=MISSING, *, name: str | None = None, choices=None,
            minimum: int | None = None, maximum: int | None = None, scan: bool = False):
    """A RunOptions field both front ends expose; `name` overrides the field name."""
    return field(default=default, metadata=dict(
        help=help, name=name, choices=choices, minimum=minimum, maximum=maximum, scan=scan))


@dataclass(frozen=True)
class RunOptions:
    """The one table of run options; CLI flags and MCP tool schemas derive from it.

    Construction validates each option, raising UsageError. `env` is library-only.
    """

    path: str = _option("Project folder or manuscript file", scan=True)
    mode: str = _option("review, or replacement to plan patches", "review", choices=PLAN_MODES)
    write: str = _option("Where rewrite output lands", "preview", choices=WRITE_MODES)
    fmt: str = _option("Report or bibliography format", "json", name="format",
                       choices=("json", *RENDER_FORMATS))
    preset: str = _option("Policy preset", "default", choices=tuple(PRESETS))
    sources: tuple[str, ...] | None = _option("Sources to query", None, choices=SOURCES)
    transport: str | None = _option("HTTP transport mode", None, choices=TRANSPORT_MODES)
    fixtures_dir: str | None = _option("Fixture store for replay/record transports", None)
    max_depth: int = _option("Folder levels scanned", DEFAULT_MAX_DEPTH, minimum=1, scan=True)
    regenerate_keys: bool = _option("Regenerate citation keys in the rewrite", False)
    workers: int = _option("Queries in flight per source; replay runs inline",
                           DEFAULT_WORKERS, minimum=1, maximum=MAX_WORKERS)
    limit: int = _option("Candidates requested per source query", DEFAULT_QUERY_LIMIT,
                         minimum=1, maximum=MAX_QUERY_LIMIT)
    env: dict[str, str] | None = None  # defaults to os.environ

    def __post_init__(self) -> None:
        for f, name, kind in front_end_options():
            value = getattr(self, f.name)
            if value is not None or f.default is not None:
                _check_option(name, kind, f.metadata, value)

    @classmethod
    def from_arguments(cls, arguments: dict, scan: bool = False) -> "RunOptions":
        """Options from front-end arguments keyed by external name; lists become tuples."""
        fields_by_name = {name: f.name for f, name, _ in front_end_options(scan)}
        if not isinstance(arguments, dict):
            raise UsageError("arguments must be an object")
        unknown = sorted(set(arguments) - set(fields_by_name))
        if unknown:
            raise UsageError(f"unknown option: {', '.join(unknown)}")
        if "path" not in arguments:
            raise UsageError("missing required option: path")
        return cls(**{fields_by_name[name]: (tuple(v) or None) if isinstance(v, list) else v
                      for name, v in arguments.items()})

    def source_config(self) -> SourceConfig:
        """The sources, transport and fixture store this run talks to."""
        return config_from_env(self.env, sources=self.sources, transport=self.transport,
                               fixtures_dir=self.fixtures_dir)


def front_end_options(scan: bool = False) -> list[tuple[Field, str, type]]:
    """(field, external name, kind: str, int, bool or tuple) per option; `scan`: scan's."""
    options = []
    for f in fields(RunOptions):
        if f.metadata and (f.metadata["scan"] or not scan):
            hint = (typing.get_args(f.type) or (f.type,))[0]  # drop `| None`
            options.append((f, f.metadata["name"] or f.name, typing.get_origin(hint) or hint))
    return options


def _check_option(name: str, kind: type, meta, value) -> None:
    items = value if kind is tuple and isinstance(value, tuple) else (value,)
    item_kind = {tuple: str, str: (str, os.PathLike)}.get(kind, kind)  # str takes a Path
    # bool is a subclass of int, but True is no count.
    if not isinstance(value, tuple if kind is tuple else item_kind) or any(
            not isinstance(v, item_kind) or isinstance(v, bool) != (item_kind is bool)
            for v in items):
        raise UsageError(f"{name} must be of type {kind.__name__}, got {value!r}")
    choices, low, high = meta["choices"], meta["minimum"], meta["maximum"]
    if choices is not None and any(v not in choices for v in items):
        raise UsageError(f"{name} must be one of {', '.join(choices)}; got {value!r}")
    if (low is not None and value < low) or (high is not None and value > high):
        bounds = f"at least {low}" if high is None else f"between {low} and {high}"
        raise UsageError(f"{name} must be {bounds}, got {value}")


@dataclass
class RepairRun:
    report: dict
    exit_code: int
    decision: PolicyDecision
    plan: RewritePlan | None = None
    apply_result: ApplyResult | None = None
    apply_error: str | None = None
    verdicts: list[EntryVerdict] = field(default_factory=list)
    extraction: ExtractionResult | None = None


def _relativizer(base: Path) -> Callable[[str | Path], str]:
    """Paths relative to `base`, resolving `base` and each distinct path once.

    Make one per report: files can change between the calls of a session.
    """
    base = base.resolve()

    @functools.cache
    def relativize(path: str | Path) -> str:
        try:  # a path outside `base` climbs out of it with ".."
            return Path(os.path.relpath(Path(path).resolve(), base)).as_posix()
        except ValueError:  # on another drive
            return str(path).replace(os.sep, "/")
    return relativize


def report_json(report: dict) -> str:
    """Canonical serialization; CLI stdout and MCP payloads share these bytes."""
    return json.dumps(report, indent=2, ensure_ascii=False, sort_keys=True)


_LONE_SURROGATE = re.compile(r"[\ud800-\udfff]")


def write_payload(stream: TextIO, text: str) -> None:
    """Write `text` and a newline to `stream`, and flush it.

    A lone surrogate, from a source's `\\ud800` escape or an undecodable
    file name, cannot be encoded, so it is written as that JSON escape. Only
    text whose encoding fails is searched for one.
    """
    try:
        stream.write(text)
    except UnicodeEncodeError:
        stream.write(_LONE_SURROGATE.sub(lambda m: f"\\u{ord(m[0]):04x}", text))
    stream.write("\n")
    stream.flush()


def render_output(result: "RepairRun", fmt: str) -> str:
    """The payload a frontend prints for one run: report JSON or a rendering.

    A rendering is the bibliography in `fmt`, each entry corrected where
    replacement is eligible under the run's preset, whatever the stage.
    """
    if fmt == "json":
        return report_json(result.report)
    allow = result.decision.preset.allow_replacement_with_needs_review
    return render_bibliography(eligible_pairs(result.verdicts, allow), fmt)


def scan_report_dict(report: ScanReport) -> dict:
    return {
        "root": report.root,
        "selected": report.selected.path if report.selected else None,
        "candidates": [
            {
                "path": c.path,
                "extension": c.extension,
                "name_hint_score": c.name_hint_score,
                "extension_rank": c.extension_rank,
                "content_score": c.content_score,
                "total_score": c.total_score,
                "size_bytes": c.size_bytes,
                "probe_error": c.probe_error,
            }
            for c in report.candidates
        ],
        "skipped_dirs": [{"path": p, "reason": r} for p, r in report.skipped_dirs],
    }


def run_command(command: str, options: RunOptions,
                known: Mapping[tuple[str, Query], QueryOutcome] | None = None
                ) -> tuple[str, RepairRun | None]:
    """The payload both front ends print for `command` (any but version), and
    the pipeline run behind it: None for scan. `known`: see run_repair."""
    if command == "scan":
        scan = scan_workspace(options.path, max_depth=options.max_depth)
        return report_json(scan_report_dict(scan)), None
    run = run_repair(options, stage=command, known=known)
    return render_output(run, options.fmt), run


def run_repair(options: RunOptions, stage: str = "repair",
               known: Mapping[tuple[str, Query], QueryOutcome] | None = None) -> RepairRun:
    """Execute the pipeline up to `stage` and assemble the structured report.

    `known`: source outcomes to reuse instead of fetching (see verify_entries).
    """
    if stage not in COMMANDS or stage in ("scan", "version"):
        raise ValueError(f"unknown stage: {stage}")

    root = Path(options.path)
    scan = scan_workspace(root, max_depth=options.max_depth)
    artifact_rel = select_primary_artifact(scan)
    base_dir = root.parent if root.is_file() else root
    artifact_path = base_dir / artifact_rel

    extraction = extract_references(artifact_path)

    config = options.source_config()
    transport = make_transport(config.transport_mode, config.fixtures_dir)

    verdicts = verify_entries(extraction.entries, transport, config,
                              limit=options.limit, workers=options.workers, known=known)
    outcomes = [o for v in verdicts for o in v.outcomes]
    health = summarize_health(outcomes, config)

    key_mapping = analyze_key_mapping(extraction, base_dir, options.regenerate_keys)
    summary = summarize_batch(verdicts, extraction.lint,
                              unsafe_key_rewrite_count=key_mapping.unsafe_rewrite_count())
    preset = PRESETS[options.preset]
    decision = evaluate_policy(summary, preset)

    plan: RewritePlan | None = None
    apply_result: ApplyResult | None = None
    apply_error: str | None = None
    if stage in ("plan", "apply", "repair"):
        plan = plan_rewrite(artifact_path, extraction, verdicts, options.mode, decision,
                            key_mapping=key_mapping,
                            regenerate_keys=options.regenerate_keys,
                            workspace_root=base_dir)
        wants_write = options.mode == "replacement" and options.write != "preview"
        if stage in ("apply", "repair") and (wants_write or stage == "apply"):
            try:
                apply_result = apply_rewrite(plan, options.write)
            except BlockedByPolicy as exc:
                apply_error = str(exc)

    report = assemble_report(options, base_dir, scan, artifact_rel, extraction,
                             verdicts, health, summary, decision, plan,
                             apply_result, apply_error, config)
    return RepairRun(report=report, exit_code=decision.exit_code, decision=decision,
                     plan=plan, apply_result=apply_result, apply_error=apply_error,
                     verdicts=verdicts, extraction=extraction)


def _replacement_status(options: RunOptions, decision: PolicyDecision,
                        plan: RewritePlan | None, apply_result: ApplyResult | None) -> dict:
    if options.mode != "replacement":
        status = "not_requested"
    elif plan is not None and plan.blocked:
        status = "blocked"
    elif apply_result is not None and apply_result.applied:
        status = "applied"
    else:
        status = "planned"
    return {
        "requested": options.mode == "replacement",
        "allowed": decision.replacement_allowed,
        "status": status,
    }


def verdict_dict(verdict: EntryVerdict, relativize: Callable[[str | Path], str]) -> dict:
    entry = verdict.entry
    return {
        "ordinal": entry.ordinal,
        "citation_key": entry.citation_key,
        "source_path": relativize(entry.raw.source_path),
        "origin_format": entry.raw.origin_format,
        "entry_kind": entry.entry_kind,
        "title": entry.title,
        "authors": [list(a) for a in entry.authors],
        "year": entry.year,
        "venue": entry.venue,
        "doi": entry.doi,
        "pmid": entry.pmid,
        "arxiv_id": entry.arxiv_id,
        "status": verdict.status,
        "confidence": round(verdict.confidence, 6),
        "issues": [{"code": i.code, "detail": i.detail} for i in verdict.issues],
        "chosen": verdict.chosen.to_dict() if verdict.chosen else None,
        "passes_used": verdict.passes_used,
        "evidence": [{"pass": p, "query": query.to_dict(), "outcome": digest}
                     for p, query, digest in verdict.evidence],
    }


def assemble_report(options: RunOptions, base_dir: Path, scan: ScanReport,
                    artifact_rel: str, extraction: ExtractionResult,
                    verdicts: list[EntryVerdict], health, summary, decision,
                    plan: RewritePlan | None, apply_result: ApplyResult | None,
                    apply_error: str | None, config: SourceConfig) -> dict:
    relativize = _relativizer(base_dir)
    worklist = [
        {
            "ordinal": v.entry.ordinal,
            "citation_key": v.entry.citation_key,
            "title": v.entry.title,
            "status": v.status,
            "issues": [i.code for i in v.issues],
        }
        for v in verdicts if v.status != "verified"
    ]
    apply_dict = None
    if apply_result is not None:
        apply_dict = apply_result.to_dict(relativize)
    elif apply_error is not None:
        apply_dict = {"error": {"type": "BlockedByPolicy", "message": apply_error}}

    return {
        "citecheck_version": __version__,
        "root": scan.root,
        "artifact": artifact_rel,
        "config": {
            "mode": options.mode,
            "write": options.write,
            "format": options.fmt,
            "preset": options.preset,
            "sources": list(config.enabled_sources),
            "transport": config.transport_mode,
            "max_depth": options.max_depth,
            "regenerate_keys": options.regenerate_keys,
        },
        "scan": scan_report_dict(scan),
        "extraction": {
            "origin_format": extraction.origin_format,
            "entry_count": len(extraction.entries),
            "section_span": list(extraction.section_span) if extraction.section_span else None,
            "bib_resources": [relativize(p) for p in extraction.bib_resources],
            "rejected": [
                {"ordinal": r.raw.ordinal, "reason": r.reason,
                 "excerpt": r.raw.original_text[:80]}
                for r in extraction.rejected
            ],
            "lint": [
                {"code": f.code, "entry_ordinal": f.entry_ordinal,
                 "message": f.message, "severity": f.severity}
                for f in extraction.lint
            ],
        },
        "entries": [verdict_dict(v, relativize) for v in verdicts],
        "worklist": worklist,
        "source_health": [h.to_dict() for h in health],
        "summary": summary.to_dict(),
        "decision": decision.to_dict(),
        "plan": plan.to_dict(relativize) if plan is not None else None,
        "replacement": _replacement_status(options, decision, plan, apply_result),
        "apply": apply_dict,
    }
