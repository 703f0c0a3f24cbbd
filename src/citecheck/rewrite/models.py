"""Rewrite-plan data types."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

PATCH_KINDS = ("entry_replace", "field_update", "key_rename")
WRITE_MODES = ("preview", "sidecar", "replace")
PLAN_MODES = ("review", "replacement")

# The bibliography formats; the front ends also take `json`, which is the report.
RENDER_FORMATS = ("bibtex", "text", "markdown", "endnote")


@dataclass(frozen=True)
class Patch:
    target_path: str
    span: tuple[int, int]  # byte offsets into the original file
    replacement_text: str
    entry_ordinal: int
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in PATCH_KINDS:
            raise ValueError(f"unknown patch kind: {self.kind}")
        start, end = self.span
        if start < 0 or end < start:
            raise ValueError(f"invalid patch span: {self.span}")

    def to_dict(self, path: Callable[[str], str] = str) -> dict:
        """`path` maps each file path, as a report relativizes them."""
        return {
            "target_path": path(self.target_path),
            "span": list(self.span),
            "replacement_text": self.replacement_text,
            "entry_ordinal": self.entry_ordinal,
            "kind": self.kind,
        }


@dataclass(frozen=True)
class KeyMapping:
    mapping: tuple[tuple[str, str], ...] = ()  # old_key -> new_key, renames only
    collisions: tuple[str, ...] = ()  # new keys claimed by >= 2 old keys
    unresolved_usages: tuple[tuple[str, int], ...] = ()  # (file, cite count)

    @property
    def unsafe(self) -> bool:
        return bool(self.collisions) or bool(self.unresolved_usages)

    def unsafe_rewrite_count(self) -> int:
        """Distinct old keys whose rename cannot be applied safely."""
        if not self.mapping:
            return 0
        collisions = set(self.collisions)
        colliding = {old for old, new in self.mapping if new in collisions}
        outside = {old for old, _ in self.mapping} if self.unresolved_usages else set()
        return len(colliding | outside)

    def to_dict(self) -> dict:
        return {
            "mapping": {old: new for old, new in self.mapping},
            "collisions": list(self.collisions),
            "unresolved_usages": [{"file": f, "count": c} for f, c in self.unresolved_usages],
            "unsafe": self.unsafe,
        }


@dataclass(frozen=True)
class RewritePlan:
    mode: str  # review | replacement
    patches: tuple[Patch, ...]
    key_mapping: KeyMapping
    safety: dict[str, int]  # duplicate_keys / unsafe_key_rewrites / manifestation_conflicts
    content_digests: tuple[tuple[str, str], ...]  # (path, sha256) of planned-over bytes
    encodings: tuple[tuple[str, str], ...]  # (path, codec) for span arithmetic
    blocked: bool = False
    plan_digest: str = ""

    def __post_init__(self) -> None:
        if self.mode not in PLAN_MODES:
            raise ValueError(f"unknown plan mode: {self.mode}")
        spans_by_target: dict[str, list[tuple[int, int]]] = {}
        for patch in self.patches:
            spans_by_target.setdefault(patch.target_path, []).append(patch.span)
        for target, spans in spans_by_target.items():
            ordered = sorted(spans)
            for (s1, e1), (s2, _e2) in zip(ordered, ordered[1:]):
                if s2 < e1:
                    raise ValueError(f"overlapping patches in {target}")

    def to_dict(self, path: Callable[[str], str] = str) -> dict:
        return {
            "mode": self.mode,
            "blocked": self.blocked,
            "patch_count": len(self.patches),
            "patches": [p.to_dict(path) for p in self.patches],
            "key_mapping": self.key_mapping.to_dict(),
            "safety": dict(self.safety),
            "content_digests": {path(p): digest for p, digest in self.content_digests},
            "plan_digest": self.plan_digest,
        }


@dataclass(frozen=True)
class ApplyResult:
    write_mode: str
    written_paths: tuple[str, ...]
    diff_text: str
    applied: bool

    def to_dict(self, path: Callable[[str], str] = str) -> dict:
        return {
            "write_mode": self.write_mode,
            "written_paths": [path(p) for p in self.written_paths],
            "diff_text": self.diff_text,
            "applied": self.applied,
        }
