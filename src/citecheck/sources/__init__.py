"""External metadata sources: queries, transports, failure taxonomy."""

from .config import DEFAULT_ENABLED, SourceConfig, config_from_env
from .connectors import (SOURCE_CAPABILITIES, query_source, sort_candidates,
                         summarize_health, supports)
from .models import (CandidateRecord, FailureClass, Query, QueryOutcome, SOURCES,
                     SourceHealth)
from .transport import (FixtureStore, HttpRequest, LiveTransport, RawResponse,
                        RecordTransport, ReplayTransport, Transport, make_transport,
                        request_key, response_failure)

__all__ = [
    "SOURCES", "SOURCE_CAPABILITIES", "DEFAULT_ENABLED",
    "SourceConfig", "config_from_env",
    "Query", "CandidateRecord", "QueryOutcome", "FailureClass", "SourceHealth",
    "query_source", "sort_candidates", "summarize_health", "supports",
    "Transport", "LiveTransport", "ReplayTransport", "RecordTransport",
    "FixtureStore", "HttpRequest", "RawResponse", "make_transport", "request_key",
    "response_failure",
]
