"""Source configuration from environment variables and overrides.

Environment surface:
  CITECHECK_PUBMED_API_KEY     optional PubMed E-utilities key
  CITECHECK_S2_API_KEY         optional Semantic Scholar key
  CITECHECK_CROSSREF_MAILTO    contact address for Crossref politeness
  CITECHECK_ENABLED_SOURCES    comma list overriding the default set
  CITECHECK_FIXTURES_DIR       fixture store directory
  CITECHECK_TRANSPORT          live | replay | record

Semantic Scholar is opt-in: it never joins the enabled set unless named
explicitly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..errors import ConfigError
from .models import SOURCES

DEFAULT_ENABLED = ("pubmed", "crossref", "arxiv")

TRANSPORT_MODES = ("live", "replay", "record")


@dataclass(frozen=True)
class SourceConfig:
    enabled_sources: tuple[str, ...] = DEFAULT_ENABLED
    transport_mode: str = "live"
    fixtures_dir: str | None = None
    pubmed_api_key: str | None = None
    s2_api_key: str | None = None
    crossref_mailto: str | None = None

    def __post_init__(self) -> None:
        for source in self.enabled_sources:
            if source not in SOURCES:
                raise ConfigError(f"unknown source in configuration: {source}")
        if self.transport_mode not in TRANSPORT_MODES:
            raise ConfigError(f"unknown transport mode: {self.transport_mode}")

    def is_enabled(self, source: str) -> bool:
        return source in self.enabled_sources


def config_from_env(env: dict[str, str] | None = None, *,
                    sources: tuple[str, ...] | None = None,
                    transport: str | None = None,
                    fixtures_dir: str | None = None) -> SourceConfig:
    """Build configuration from `env` (default os.environ) plus explicit overrides."""
    if env is None:
        env = dict(os.environ)
    if sources is None:
        raw = env.get("CITECHECK_ENABLED_SOURCES", "")
        if raw.strip():
            sources = tuple(s.strip() for s in raw.split(",") if s.strip())
        else:
            sources = DEFAULT_ENABLED
    return SourceConfig(
        enabled_sources=tuple(sources),
        transport_mode=transport or env.get("CITECHECK_TRANSPORT", "live"),
        fixtures_dir=fixtures_dir or env.get("CITECHECK_FIXTURES_DIR") or None,
        pubmed_api_key=env.get("CITECHECK_PUBMED_API_KEY") or None,
        s2_api_key=env.get("CITECHECK_S2_API_KEY") or None,
        crossref_mailto=env.get("CITECHECK_CROSSREF_MAILTO") or None,
    )
