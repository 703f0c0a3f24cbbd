"""External metadata sources: queries, transports, failure taxonomy."""

from .config import DEFAULT_ENABLED, SourceConfig, config_from_env
from .connectors import (SOURCE_CAPABILITIES, classify_failure, query_source,
                         sort_candidates, summarize_health, supports)
from .models import (CandidateRecord, FailureClass, Query, QueryOutcome, SOURCES,
                     SourceHealth, make_failure)
from .transport import (FixtureStore, HttpRequest, LiveTransport, RawResponse,
                        RecordTransport, ReplayTransport, Transport, make_transport,
                        request_key)

__all__ = [
    "SOURCES", "SOURCE_CAPABILITIES", "DEFAULT_ENABLED",
    "SourceConfig", "config_from_env",
    "Query", "CandidateRecord", "QueryOutcome", "FailureClass", "SourceHealth",
    "make_failure", "classify_failure", "query_source", "sort_candidates",
    "summarize_health", "supports",
    "Transport", "LiveTransport", "ReplayTransport", "RecordTransport",
    "FixtureStore", "HttpRequest", "RawResponse", "make_transport", "request_key",
]
