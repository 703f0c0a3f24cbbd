"""HTTP transport with live, replay, and record modes.

Fixture replay is the backbone of deterministic testing: a replayed
response is byte-exact and reaches no socket. Request keys are canonical
(source name, URL path, sorted percent-encoded query parameters) so a
fixture written once survives parameter reordering. Auth and politeness
parameters are transport-level and deliberately excluded from the key
(fixtures must not depend on which API keys happen to be configured).
"""

from __future__ import annotations

import base64
import hashlib
import json
import random
import threading
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from urllib.parse import quote, urlsplit

from ..errors import ConfigError, FixtureMissing
from .models import FailureClass

RETRY_MAX_ATTEMPTS = 3  # 1 initial + 2 retries
RETRY_BASE_DELAY_S = 0.5
RETRY_AFTER_MAX_S = 30  # a longer Retry-After ends the retries

# The HTTP stack, imported by the first LiveTransport: scan, replay runs and
# the MCP server send no request and so never load it. A stand-in set here
# before then (tests, the benchmark's simulated sources) is kept.
requests = None


@dataclass(frozen=True)
class HttpRequest:
    source: str
    url: str  # scheme://host/path, no query string
    params: tuple[tuple[str, str], ...] = ()  # semantic parameters (keyed)
    auth_params: tuple[tuple[str, str], ...] = ()  # sent live, never keyed
    headers: tuple[tuple[str, str], ...] = ()

    @cached_property
    def key(self) -> str:
        """Canonical, reorder-stable key: source | url path | sorted encoded params.

        Computed on first use and kept with the request, so the transport and
        the parser it feeds share one computation.
        """
        path = urlsplit(self.url).path
        encoded = "&".join(
            f"{quote(k, safe='')}={quote(v, safe='')}"
            for k, v in sorted(self.params)
        )
        return f"{self.source}|{path}|{encoded}"


@dataclass(frozen=True)
class RawResponse:
    status: int | None
    body: bytes
    headers: tuple[tuple[str, str], ...] = ()
    io_error: str | None = None


def request_key(request: HttpRequest) -> str:
    """The request's canonical key, `HttpRequest.key`, under its exported name."""
    return request.key


_STATUS_FAILURES = {401: "authentication", 403: "authentication",
                    404: "not_found", 429: "rate_limit"}


def response_failure(response: RawResponse) -> FailureClass | None:
    """The failure a response is, or None when a 2xx body arrived to be parsed.

    io_error -> transport; 401/403 -> authentication; 404 -> not_found;
    429 -> rate_limit; 5xx -> transport. Any other status arrived but is
    unusable, so it is payload_shape. This is the one rule: LiveTransport
    retries exactly the failures it marks retryable, and connectors
    classify responses with it.
    """
    if response.io_error is not None:
        return FailureClass("transport", response.io_error)
    status = response.status
    if status is not None and 200 <= status < 300:
        return None
    if status in _STATUS_FAILURES:
        return FailureClass(_STATUS_FAILURES[status], f"HTTP {status}")
    if status is not None and status >= 500:
        return FailureClass("transport", f"HTTP {status}")
    return FailureClass("payload_shape", f"unexpected HTTP status {status}")


def _fixture_path(fixtures_dir: Path, key: str) -> Path:
    digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
    return fixtures_dir / f"{digest}.json"


def _recorded_response(record) -> RawResponse:
    """The response in a record `FixtureStore.save` wrote; ValueError for any other shape."""
    if not isinstance(record, dict):
        raise ValueError("not a JSON object")
    if "io_error" in record:
        if not isinstance(record["io_error"], str):
            raise ValueError("io_error is not a string")
        return RawResponse(status=None, body=b"", io_error=record["io_error"])
    status, headers = record.get("status"), record.get("headers")
    if not ("status" in record and (status is None or type(status) is int)
            and isinstance(headers, dict) and all(isinstance(v, str) for v in headers.values())):
        raise ValueError("status is not an integer or null, or headers not strings")
    headers = tuple(sorted(headers.items()))
    if isinstance(record.get("body_b64"), str):
        return RawResponse(status, base64.b64decode(record["body_b64"], validate=True), headers)
    if isinstance(record.get("body"), str):
        return RawResponse(status, record["body"].encode("utf-8"), headers)
    raise ValueError("neither body nor body_b64 is a string")


class FixtureStore:
    """One JSON file per request-key hash; bodies preserved bit-exactly."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)

    def load(self, key: str) -> RawResponse:
        """The response recorded for `key`; FixtureMissing if none is, or it is unreadable."""
        try:
            text = _fixture_path(self.directory, key).read_text(encoding="utf-8")
            return _recorded_response(json.loads(text))
        except (FileNotFoundError, IsADirectoryError):
            raise FixtureMissing(key) from None
        except (OSError, ValueError, RecursionError) as exc:
            raise FixtureMissing(key, f"unreadable fixture file ({exc})") from exc

    def save(self, key: str, response: RawResponse) -> Path:
        self.directory.mkdir(parents=True, exist_ok=True)
        record: dict = {"request_key": key}
        if response.io_error:
            record["io_error"] = response.io_error
        else:
            record["status"] = response.status
            record["headers"] = {k: v for k, v in response.headers
                                 if k.lower() in ("content-type",)}
            try:
                record["body"] = response.body.decode("utf-8")
            except UnicodeDecodeError:
                record["body_b64"] = base64.b64encode(response.body).decode("ascii")
        path = _fixture_path(self.directory, key)
        path.write_text(json.dumps(record, indent=2, ensure_ascii=False) + "\n",
                        encoding="utf-8")
        return path


class Transport:
    # Whether a fetch waits on something outside the process, such as the
    # network; verification overlaps only the fetches of a transport that waits.
    waits = True

    def fetch(self, request: HttpRequest) -> RawResponse:
        raise NotImplementedError


def _retry_after_s(response: RawResponse) -> float | None:
    """The response's `Retry-After` in seconds, or None when it has none in
    delta-seconds form (RFC 9110 section 10.2.3; an HTTP-date counts as none)."""
    value = dict(response.headers).get("retry-after", "").strip()
    return float(value) if value.isascii() and value.isdigit() else None


class LiveTransport(Transport):
    """Real HTTP with bounded retries (full-jitter exponential backoff).

    A response is retried, at most twice and starting at 500 ms, exactly
    when `response_failure` marks it retryable (connection errors, 429,
    5xx). A `Retry-After` of at most RETRY_AFTER_MAX_S seconds replaces the
    backoff; a longer one ends the retries. A passed-in `session` is shared
    by every thread; otherwise each thread that fetches gets its own.
    """

    def __init__(self, timeout_s: float = 15.0, session: requests.Session | None = None,
                 sleep=time.sleep, rng: random.Random | None = None):
        global requests
        if requests is None:
            import requests
        self.timeout_s = timeout_s
        self._shared = session
        self._local = threading.local()
        self._sleep = sleep
        self._rng = rng or random.Random()

    @property
    def session(self) -> requests.Session:
        """The session this thread sends with."""
        if self._shared is not None:
            return self._shared
        session = getattr(self._local, "session", None)
        if session is None:
            session = self._local.session = requests.Session()
        return session

    def _attempt(self, request: HttpRequest) -> RawResponse:
        params = dict(request.params)
        params.update(dict(request.auth_params))
        try:
            resp = self.session.get(
                request.url,
                params=params,
                headers=dict(request.headers) or None,
                timeout=self.timeout_s,
            )
        except requests.RequestException as exc:
            return RawResponse(status=None, body=b"", io_error=f"{type(exc).__name__}: {exc}")
        headers = tuple(sorted((k.lower(), v) for k, v in resp.headers.items()
                               if k.lower() in ("content-type", "retry-after")))
        return RawResponse(status=resp.status_code, body=resp.content, headers=headers)

    def fetch(self, request: HttpRequest) -> RawResponse:
        response = self._attempt(request)
        for attempt in range(1, RETRY_MAX_ATTEMPTS):
            failure = response_failure(response)
            if failure is None or not failure.retryable:
                break
            delay = _retry_after_s(response)
            if delay is None:
                delay = RETRY_BASE_DELAY_S * (2 ** (attempt - 1)) * self._rng.random()
            elif delay > RETRY_AFTER_MAX_S:
                break
            self._sleep(delay)
            response = self._attempt(request)
        return response


class ReplayTransport(Transport):
    """Serve recorded fixtures only; zero socket operations."""

    waits = False

    def __init__(self, store: FixtureStore):
        self.store = store

    def fetch(self, request: HttpRequest) -> RawResponse:
        return self.store.load(request.key)


class RecordTransport(Transport):
    """Live fetch, then persist the exchange for later replay."""

    def __init__(self, store: FixtureStore, live: LiveTransport | None = None):
        self.store = store
        self.live = live or LiveTransport()

    def fetch(self, request: HttpRequest) -> RawResponse:
        response = self.live.fetch(request)
        self.store.save(request.key, response)
        return response


def make_transport(mode: str, fixtures_dir: str | Path | None = None) -> Transport:
    if mode == "live":
        return LiveTransport()
    if fixtures_dir is None:
        raise ConfigError(f"{mode} transport requires a fixtures directory")
    store = FixtureStore(fixtures_dir)
    if mode == "replay":
        return ReplayTransport(store)
    if mode == "record":
        try:  # before any request: a store that cannot be written is bad config
            store.directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create fixtures directory: {exc}") from exc
        return RecordTransport(store)
    raise ConfigError(f"unknown transport mode: {mode}")

