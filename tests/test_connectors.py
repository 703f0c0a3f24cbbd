"""Connector behavior: failure classification, wire parsing, transports."""

from __future__ import annotations

import http.server
import json
import threading
from types import SimpleNamespace

import pytest
import requests
from hypothesis import example, given, settings
from hypothesis import strategies as st

import catalog
import corpus
from citecheck.errors import FixtureMissing
from citecheck.extraction import extract_references
from citecheck.matching import score_match
from citecheck.sources import (SOURCE_CAPABILITIES, SOURCES, FixtureStore, LiveTransport,
                               Query, RecordTransport, ReplayTransport, SourceConfig,
                               Transport, query_source, request_key, response_failure,
                               summarize_health)
from citecheck.sources.connectors import (arxiv_request, crossref_request,
                                          parse_arxiv_feed, parse_crossref_body,
                                          parse_pubmed_esummary, parse_s2_body)
from citecheck.sources import transport as transport_module
from citecheck.sources.models import CandidateRecord, FailureClass, QueryOutcome
from citecheck.sources.transport import HttpRequest, RawResponse
from test_matching import make_entry


CONFIG = corpus.CONFIG


# ---------------------------------------------------------------------------
# response_failure: one rule from response to failure class
# ---------------------------------------------------------------------------

class _Answer(Transport):
    """Answers every request with the same response."""

    def __init__(self, response: RawResponse):
        self.response = response

    def fetch(self, request: HttpRequest) -> RawResponse:
        return self.response


# Bodies a 2xx answer carries in each state; other statuses are classified unread.
_BODY_STATES = {"ok": b"{}", "malformed": b'{"message": {', "empty": b'{"message": {"items": []}}'}


@pytest.mark.parametrize("status,body_state,io_error,expected,retryable", [
    (401, "ok", None, "authentication", False),
    (403, "ok", None, "authentication", False),
    (429, "ok", None, "rate_limit", True),
    (200, "malformed", None, "payload_shape", False),
    (200, "empty", None, "not_found", False),
    (404, "ok", None, "not_found", False),
    (500, "ok", None, "transport", True),
    (503, "ok", None, "transport", True),
    (None, "ok", "connection refused", "transport", True),
    (400, "ok", None, "payload_shape", False),
])
def test_classify_failure_mapping(status, body_state, io_error, expected, retryable):
    response = RawResponse(status=status, body=_BODY_STATES[body_state], io_error=io_error)
    outcome = query_source("crossref", Query(kind="title_search", text="mapping probe"),
                           _Answer(response), CONFIG)
    assert outcome.failure.failure == expected
    assert outcome.failure.retryable is retryable
    # A 2xx answer is classified by parsing its body; any other by response_failure alone.
    assert response_failure(response) == (None if status == 200 else outcome.failure)


# ---------------------------------------------------------------------------
# Wire-format parsing
# ---------------------------------------------------------------------------

def test_parse_crossref_doi_body():
    spec = corpus.MAIN_BIB[0]
    body = json.dumps({"message": catalog.crossref_work(spec)}).encode()
    records = parse_crossref_body(body, "doi_lookup", "prov")
    assert len(records) == 1
    record = records[0]
    assert record.doi == spec.doi
    assert record.title == spec.title
    assert record.year == spec.year
    assert record.manifestation_kind == "journal"
    assert record.authors[0][0] == spec.authors[0][0]
    assert record.raw_provenance == "prov"


def test_parse_crossref_relation_becomes_related_id():
    work = catalog.crossref_work(corpus.MAIN_BIB[0])
    work["type"] = "posted-content"
    work["relation"] = {"is-preprint-of": [{"id-type": "doi", "id": "10.9999/pub.1"}]}
    records = parse_crossref_body(json.dumps({"message": work}).encode(),
                                  "doi_lookup", "p")
    assert records[0].manifestation_kind == "preprint"
    assert ("doi", "10.9999/pub.1") in records[0].related_ids


def test_parse_pubmed_esummary():
    spec = corpus.BIOMED[0]
    body = json.dumps({"result": {"uids": [spec.pmid],
                                  spec.pmid: catalog.pubmed_summary_record(spec)}}).encode()
    records = parse_pubmed_esummary(body, "prov")
    assert len(records) == 1
    record = records[0]
    assert record.pmid == spec.pmid
    assert record.doi == spec.doi
    assert record.title == spec.title
    assert record.manifestation_kind == "journal"
    assert record.venue == spec.venue


def test_parse_pubmed_esummary_takes_the_doi_from_elocationid():
    spec = corpus.BIOMED[0]
    item = {**catalog.pubmed_summary_record(spec), "articleids": [],
            "elocationid": f"doi: {spec.doi.upper()}"}
    body = json.dumps({"result": {"uids": [spec.pmid], spec.pmid: item}}).encode()
    assert parse_pubmed_esummary(body, "prov")[0].doi == spec.doi


def test_parse_arxiv_feed_asserts_journal_doi_as_related():
    spec = corpus.MANIFESTATION
    records = parse_arxiv_feed(catalog.arxiv_feed([spec]).encode(), "prov")
    assert len(records) == 1
    record = records[0]
    assert record.arxiv_id == spec.arxiv
    assert record.doi is None  # publisher DOI is an assertion, not a direct id
    assert ("doi", spec.related_journal_doi) in record.related_ids
    assert record.manifestation_kind == "preprint"


def test_parse_s2_paper_body():
    body = json.dumps({
        "paperId": "abc123",
        "title": "Sample Paper",
        "authors": [{"name": "Jane Doe"}],
        "year": 2020,
        "venue": "Nature",
        "externalIds": {"DOI": "10.1000/s2", "ArXiv": "2001.00001", "PubMed": 123},
        "publicationTypes": ["JournalArticle"],
    }).encode()
    records = parse_s2_body(body, "doi_lookup", "prov")
    record = records[0]
    assert record.source == "semantic_scholar"
    assert record.doi == "10.1000/s2"
    assert record.arxiv_id == "2001.00001"
    assert record.pmid == "123"
    assert record.manifestation_kind == "journal"


def test_parse_s2_paper_with_arxiv_id_and_no_venue_is_a_preprint():
    body = json.dumps({"paperId": "abc123", "title": "Sample Paper", "venue": "",
                       "externalIds": {"ArXiv": "2001.00001"},
                       "publicationTypes": ["Review"]}).encode()
    record = parse_s2_body(body, "arxiv_lookup", "prov")[0]
    assert (record.arxiv_id, record.manifestation_kind) == ("2001.00001", "preprint")


# ---------------------------------------------------------------------------
# Transport: request keys, replay, record
# ---------------------------------------------------------------------------

def test_request_key_is_order_insensitive_and_stable():
    a = HttpRequest(source="crossref", url="https://api.crossref.org/works",
                    params=(("rows", "5"), ("query.bibliographic", "deep learning")))
    b = HttpRequest(source="crossref", url="https://api.crossref.org/works",
                    params=(("query.bibliographic", "deep learning"), ("rows", "5")))
    assert request_key(a) == request_key(b)
    assert request_key(a).startswith("crossref|/works|")


def test_auth_params_never_reach_the_key():
    plain = crossref_request(Query(kind="title_search", text="t"), CONFIG)
    with_mailto = crossref_request(
        Query(kind="title_search", text="t"),
        SourceConfig(enabled_sources=("crossref",), crossref_mailto="a@b.c"))
    assert request_key(plain) == request_key(with_mailto)


@pytest.mark.parametrize("mode", ["replay", "record"])
def test_request_key_computed_once_per_fetched_request(corpus_paths, tmp_path, monkeypatch,
                                                       mode):
    from urllib.parse import urlsplit

    from citecheck.matching import verify_entries
    from citecheck.sources import transport as transport_module

    computed = []
    monkeypatch.setattr(transport_module, "urlsplit",
                        lambda url: computed.append(url) or urlsplit(url))
    inner = (_replay(corpus_paths) if mode == "replay"
             else RecordTransport(FixtureStore(tmp_path),
                                  live=_Answer(RawResponse(status=200, body=b"{}"))))
    fetched = []

    class Counting(Transport):
        def fetch(self, request):
            fetched.append(request)
            return inner.fetch(request)

    entries = extract_references(corpus_paths["main"] / "references.bib").entries
    verify_entries(entries, Counting(), CONFIG, workers=1)
    assert len(fetched) > len(entries)
    assert len(computed) == len(fetched)
    # The key, and with it each fixture's file name, is unchanged.
    request = HttpRequest(source="crossref", url="https://api.crossref.org/works",
                          params=(("rows", "5"), ("query.bibliographic", "deep learning")))
    assert request_key(request) == "crossref|/works|query.bibliographic=deep%20learning&rows=5"


def test_replay_returns_identical_bytes(tmp_path):
    store = FixtureStore(tmp_path)
    request = arxiv_request(Query(kind="arxiv_lookup", text="2101.00001"), CONFIG)
    body = catalog.arxiv_feed([]).encode()
    store.save(request_key(request), RawResponse(status=200, body=body))
    transport = ReplayTransport(store)
    assert transport.fetch(request).body == body
    assert transport.fetch(request) == transport.fetch(request)


def test_body_that_is_not_utf8_is_stored_as_base64_and_replayed_exactly(tmp_path):
    store = FixtureStore(tmp_path)
    request = arxiv_request(Query(kind="arxiv_lookup", text="2101.00001"), CONFIG)
    body = b"<feed>\xff\xfe not UTF-8</feed>"
    path = store.save(request_key(request), RawResponse(status=200, body=body))
    record = json.loads(path.read_text(encoding="utf-8"))
    assert "body" not in record and "body_b64" in record
    assert ReplayTransport(store).fetch(request).body == body


def test_replay_missing_fixture_names_key(tmp_path):
    transport = ReplayTransport(FixtureStore(tmp_path))
    request = arxiv_request(Query(kind="arxiv_lookup", text="9999.00000"), CONFIG)
    with pytest.raises(FixtureMissing) as excinfo:
        transport.fetch(request)
    assert request_key(request) in str(excinfo.value)


def test_fixture_load_messages(tmp_path):
    """No file, a directory in its place, and a file that will not parse."""
    store = FixtureStore(tmp_path)
    key = "crossref|/works|rows=1"
    with pytest.raises(FixtureMissing, match=r"^no recorded fixture for request key: "):
        store.load(key)
    path = transport_module._fixture_path(tmp_path, key)
    path.mkdir()
    with pytest.raises(FixtureMissing, match=r"^no recorded fixture for request key: "):
        store.load(key)
    path.rmdir()
    path.write_bytes(b"\xff not utf-8")
    with pytest.raises(FixtureMissing, match=r"^unreadable fixture file \(.*\) for request key: "):
        store.load(key)


class _StubHandler(http.server.BaseHTTPRequestHandler):
    payload = b'{"message": {"items": []}}'

    def do_GET(self):  # noqa: N802 (stdlib naming)
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(self.payload)

    def log_message(self, *args):  # keep test output quiet
        pass


@pytest.fixture()
def stub_server():
    server = http.server.HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


def test_record_then_replay_round_trip(tmp_path, stub_server):
    store = FixtureStore(tmp_path)
    request = HttpRequest(source="crossref", url=f"{stub_server}/works",
                          params=(("rows", "1"),))
    recorder = RecordTransport(store, live=LiveTransport(timeout_s=5))
    recorded = recorder.fetch(request)
    assert recorded.status == 200
    replayed = ReplayTransport(store).fetch(request)
    assert replayed.body == recorded.body == _StubHandler.payload


def test_live_retry_on_retryable(monkeypatch):
    import random
    attempts = []

    class FlakySession:
        def get(self, url, **kwargs):
            attempts.append(url)
            raise __import__("requests").ConnectionError("nope")

    sleeps = []
    transport = LiveTransport(timeout_s=1, session=FlakySession(),
                              sleep=sleeps.append, rng=random.Random(7))
    response = transport.fetch(HttpRequest(source="arxiv", url="http://x/api"))
    assert response.io_error is not None
    assert len(attempts) == 3  # initial + 2 retries
    assert len(sleeps) == 2
    assert all(0 <= s <= 2.0 for s in sleeps)


@settings(max_examples=300, deadline=None, database=None)
@given(st.integers(min_value=100, max_value=599) | st.none())
@example(429)
@example(None)
def test_live_retries_exactly_the_retryable_failures(status):
    """Three attempts for a status (or, at None, an I/O error) response_failure
    marks retryable, one for any other."""
    attempts = []

    class Session:
        def get(self, url, **kwargs):
            attempts.append(url)
            if status is None:
                raise requests.ConnectionError("refused")
            return SimpleNamespace(status_code=status, content=b"", headers={})

    transport = LiveTransport(session=Session(), sleep=lambda delay: None)
    failure = response_failure(transport.fetch(HttpRequest(source="arxiv", url="http://x/api")))
    assert len(attempts) == (3 if failure is not None and failure.retryable else 1)


def test_live_transport_sends_through_a_swapped_in_requests(monkeypatch):
    """The module-level name is where the benchmark's simulated sources go:
    a stand-in set before the first LiveTransport carries every send, and its
    RequestException becomes an io_error response."""
    class StandInError(Exception):
        pass

    sent = []

    class Session:
        def get(self, url, **kwargs):
            sent.append(url)
            if url.endswith("/down"):
                raise StandInError("simulated outage")
            return SimpleNamespace(status_code=200, content=b"{}", headers={})

    stand_in = SimpleNamespace(Session=Session, RequestException=StandInError)
    monkeypatch.setattr(transport_module, "requests", stand_in)
    live = LiveTransport(sleep=lambda delay: None)
    assert transport_module.requests is stand_in
    assert live.fetch(HttpRequest(source="crossref", url="http://x/works")).status == 200
    down = live.fetch(HttpRequest(source="crossref", url="http://x/down"))
    assert down.io_error == "StandInError: simulated outage"
    assert sent == ["http://x/works"] + ["http://x/down"] * 3


def _answers(*responses):
    """A session that answers (status, headers) `responses` in turn; `attempts` counts them."""
    answers = iter(responses)

    def get(url, **kwargs):
        session.attempts += 1
        status, headers = next(answers)
        return SimpleNamespace(status_code=status, content=b"{}", headers=headers)

    session = SimpleNamespace(attempts=0, get=get)
    return session


@pytest.mark.parametrize("retry_after, status, sleeps", [("2", 200, [2.0]), ("3600", 429, [])])
def test_live_honours_retry_after(retry_after, status, sleeps):
    """A Retry-After of up to RETRY_AFTER_MAX_S seconds replaces the backoff;
    a longer one ends the retries with that response."""
    session = _answers((429, {"Retry-After": retry_after}), (200, {}))
    slept = []
    live = LiveTransport(session=session, sleep=slept.append)
    response = live.fetch(HttpRequest(source="crossref", url="http://x/works"))
    assert (response.status, slept, session.attempts) == (status, sleeps, len(sleeps) + 1)


@pytest.mark.parametrize("retry_after", [None, "Wed, 21 Oct 2026 07:28:00 GMT", "-1", "1.5"])
def test_live_backs_off_without_delta_seconds(retry_after):
    """No Retry-After, or one that is not delta-seconds, keeps the jittered backoff."""
    import random
    headers = {} if retry_after is None else {"Retry-After": retry_after}
    session = _answers((503, headers), (503, headers), (200, {}))
    slept = []
    live = LiveTransport(session=session, sleep=slept.append, rng=random.Random(3))
    assert live.fetch(HttpRequest(source="crossref", url="http://x/works")).status == 200
    rng = random.Random(3)
    assert slept == [0.5 * rng.random(), 1.0 * rng.random()]


def test_saved_fixture_keeps_only_content_type(tmp_path):
    store = FixtureStore(tmp_path)
    path = store.save("k", RawResponse(200, b"{}", (("content-type", "application/json"),
                                                     ("retry-after", "2"))))
    assert json.loads(path.read_text(encoding="utf-8"))["headers"] == {
        "content-type": "application/json"}


def test_live_session_per_thread_unless_passed_in():
    own, shared = LiveTransport(), LiveTransport(session=requests.Session())
    seen = []

    def sessions():
        seen.append((own.session, own.session, shared.session))

    threads = [threading.Thread(target=sessions) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    (a, a_again, a_shared), (b, b_again, b_shared) = seen
    assert a is a_again and b is b_again and a is not b
    assert a_shared is b_shared is shared.session


# ---------------------------------------------------------------------------
# query_source against the fixture store
# ---------------------------------------------------------------------------

def _replay(corpus_paths):
    return ReplayTransport(FixtureStore(corpus_paths["fixtures"]))


def test_doi_lookup_replays_fixture(corpus_paths):
    spec = corpus.MAIN_BIB[0]
    outcome = query_source("crossref", Query(kind="doi_lookup", text=spec.doi),
                           _replay(corpus_paths), CONFIG)
    assert outcome.failure is None
    assert outcome.records[0].doi == spec.doi
    assert outcome == query_source("crossref", Query(kind="doi_lookup", text=spec.doi),
                                   _replay(corpus_paths), CONFIG)


def test_rate_limited_fixture_maps_to_rate_limit(corpus_paths, tmp_path):
    store = FixtureStore(tmp_path)
    query = Query(kind="title_search", text="anything at all")
    request = crossref_request(query, CONFIG)
    store.save(request_key(request), RawResponse(status=429, body=b""))
    outcome = query_source("crossref", query, ReplayTransport(store), CONFIG)
    assert outcome.failure is not None
    assert outcome.failure.failure == "rate_limit"
    assert outcome.failure.retryable


def test_truncated_body_maps_to_payload_shape(tmp_path):
    store = FixtureStore(tmp_path)
    query = Query(kind="title_search", text="payload shape probe")
    request = crossref_request(query, CONFIG)
    store.save(request_key(request), RawResponse(status=200, body=b'{"message": {'))
    outcome = query_source("crossref", query, ReplayTransport(store), CONFIG)
    assert outcome.failure.failure == "payload_shape"
    assert not outcome.failure.retryable


@pytest.mark.parametrize("text", [
    "{not json",
    pytest.param("[" * 100_000, id="nested-past-the-recursion-limit"),
    '{"status": "x"}',
    "[]",
    '{"headers": {}, "body": "{}"}',
    '{"status": true, "headers": {}, "body": "{}"}',
    '{"status": 200, "headers": {}, "body": 5}',
    '{"status": 200, "headers": {"content-type": 1}, "body": "{}"}',
    '{"status": 200, "headers": {}, "body_b64": "!!"}',
    '{"io_error": 3}',
])
def test_unreadable_fixture_is_a_retryable_transport_failure(tmp_path, text):
    """A fixture file that `save` could not have written is asked again, not parsed."""
    store = FixtureStore(tmp_path)
    query = Query(kind="title_search", text="corrupt fixture probe")
    request = crossref_request(query, CONFIG)
    store.save(request_key(request), RawResponse(status=200, body=b'{"message": {}}'))
    path = next(tmp_path.iterdir())
    path.write_text(text, encoding="utf-8")
    with pytest.raises(FixtureMissing, match="unreadable fixture file"):
        store.load(request_key(request))
    outcome = query_source("crossref", query, ReplayTransport(store), CONFIG)
    assert outcome.failure.failure == "transport"
    assert outcome.failure.retryable
    assert "unreadable fixture file" in outcome.failure.detail


def test_disabled_source_is_programming_error(corpus_paths):
    with pytest.raises(ValueError):
        query_source("semantic_scholar", Query(kind="title_search", text="x"),
                     _replay(corpus_paths), CONFIG)


def test_pubmed_two_step(corpus_paths):
    spec = corpus.BIOMED[0]
    from citecheck.extraction import extract_references
    entry = extract_references(corpus_paths["biomed"] / "biomed.bib").entries[0]
    from citecheck.matching import source_pass_query
    query = source_pass_query(entry, 1, "pubmed")
    outcome = query_source("pubmed", query, _replay(corpus_paths), CONFIG)
    assert outcome.failure is None
    assert outcome.records[0].pmid == spec.pmid
    assert outcome.records[0].doi == spec.doi


# ---------------------------------------------------------------------------
# Health accounting
# ---------------------------------------------------------------------------

def _ok(source, n=1):
    records = tuple(
        CandidateRecord(source=source, source_id=f"{source}-{i}", title="T")
        for i in range(n))
    return QueryOutcome(source=source, query=Query(kind="title_search", text="t"),
                        records=records)


def _fail(source, failure):
    return QueryOutcome(source=source, query=Query(kind="title_search", text="t"),
                        failure=FailureClass(failure, "probe"))


def test_health_no_outcomes_lists_all_sources():
    health = summarize_health([], CONFIG)
    assert [h.source for h in health] == ["pubmed", "crossref", "arxiv",
                                          "semantic_scholar"]
    assert all(h.attempted == 0 for h in health)
    assert [h.enabled for h in health] == [True, True, True, False]


def test_health_counts_partition():
    outcomes = [_ok("crossref"), _ok("crossref"), _ok("crossref"),
                _fail("crossref", "rate_limit")]
    health = {h.source: h for h in summarize_health(outcomes, CONFIG)}
    crossref = health["crossref"]
    assert crossref.attempted == 4
    assert crossref.succeeded == 3
    assert dict(crossref.failures_by_class) == {"rate_limit": 1}


def test_health_not_found_counts_as_succeeded():
    outcomes = [_fail("arxiv", "not_found"), _ok("arxiv")]
    health = {h.source: h for h in summarize_health(outcomes, CONFIG)}
    assert health["arxiv"].attempted == 2
    assert health["arxiv"].succeeded == 2
    assert dict(health["arxiv"].failures_by_class) == {}


def test_health_recount_oracle():
    import random
    rng = random.Random(42)
    sources = ["pubmed", "crossref", "arxiv"]
    outcomes = []
    for _ in range(200):
        source = rng.choice(sources)
        if rng.random() < 0.5:
            outcomes.append(_ok(source))
        else:
            outcomes.append(_fail(source, rng.choice(
                ["transport", "rate_limit", "authentication", "payload_shape",
                 "not_found"])))
    health = summarize_health(outcomes, CONFIG)
    for entry in health:
        mine = [o for o in outcomes if o.source == entry.source]
        succeeded = sum(1 for o in mine
                        if o.failure is None or o.failure.failure == "not_found")
        assert entry.attempted == len(mine)
        assert entry.succeeded == succeeded
        assert entry.attempted == entry.succeeded + sum(
            dict(entry.failures_by_class).values())


# ---------------------------------------------------------------------------
# Connector contract: no 2xx body crashes query_source
# ---------------------------------------------------------------------------

# Wire field names the parsers read, so generated objects reach past the
# first lookup often enough to exercise the per-record code.
_WIRE_KEYS = st.sampled_from([
    "message", "items", "DOI", "title", "author", "family", "given", "container-title",
    "relation", "is-preprint-of", "id-type", "id", "type", "issued", "date-parts",
    "esearchresult", "idlist", "result", "uids", "articleids", "idtype", "value",
    "elocationid", "authors", "name", "pubdate", "fulljournalname", "source", "data",
    "paperId", "externalIds", "ArXiv", "PubMed", "publicationTypes", "year", "venue",
])
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(_WIRE_KEYS | st.text(max_size=4), children,
                                        max_size=5)),
    max_leaves=25)
_JSON_BODIES = _JSON_VALUES.map(lambda value: json.dumps(value).encode("utf-8"))
_ATOM_FIELD = st.text(alphabet=st.characters(exclude_characters="<&"), max_size=12)
_ARXIV_BODIES = st.text() | st.lists(
    st.tuples(_ATOM_FIELD, _ATOM_FIELD, _ATOM_FIELD, _ATOM_FIELD), max_size=3).map(
    lambda entries: '<feed xmlns="http://www.w3.org/2005/Atom" '
                    'xmlns:arxiv="http://arxiv.org/schemas/atom">' + "".join(
                        f"<entry><id>{i}</id><title>{t}</title><published>{p}"
                        f"</published><arxiv:doi>{d}</arxiv:doi></entry>"
                        for i, t, p, d in entries) + "</feed>")
_ALL_ENABLED = SourceConfig(enabled_sources=SOURCES)
_CITED = make_entry(doi="10.1/x", pmid="1", arxiv="1234.5678")


def _supported(*sources: str) -> list[tuple[str, str]]:
    return [(s, k) for s in sources for k in sorted(SOURCE_CAPABILITIES[s])]


class _BodiesTransport(Transport):
    """Answers every request with 200 and the next body, cycling."""

    def __init__(self, bodies: list[bytes]):
        self.bodies = bodies
        self.calls = 0

    def fetch(self, request: HttpRequest) -> RawResponse:
        body = self.bodies[self.calls % len(self.bodies)]
        self.calls += 1
        return RawResponse(status=200, body=body)


def _assert_outcome(source: str, kind: str, bodies: list[bytes]) -> None:
    outcome = query_source(source, Query(kind=kind, text="1234.5678"),
                           _BodiesTransport(bodies), _ALL_ENABLED)
    assert isinstance(outcome, QueryOutcome)
    assert outcome.failure is None or outcome.failure.failure in ("payload_shape", "not_found")
    for record in outcome.records or ():
        score_match(_CITED, record)  # matching takes whatever a parser returns


@settings(max_examples=200, deadline=None, database=None)
@given(st.sampled_from(_supported("crossref", "pubmed", "semantic_scholar")),
       st.lists(_JSON_BODIES, min_size=2, max_size=2))
@example(("crossref", "title_search"), [b'{"message":{"items":[1]}}'] * 2)
@example(("crossref", "title_search"),
         [b'{"message":{"items":[{"DOI":5,"title":["x"]}]}}'] * 2)
@example(("crossref", "title_search"),
         [b'{"message":{"items":[{"title":["x"],"author":[{"family":5}]}]}}'] * 2)
@example(("semantic_scholar", "title_search"),
         [b'{"data":[{"paperId":"p","title":"x","year":"2020"}]}'] * 2)
def test_query_source_survives_any_json_body(source_kind, bodies):
    _assert_outcome(*source_kind, bodies)


@settings(max_examples=200, deadline=None, database=None)
@given(st.sampled_from(_supported("arxiv")), _ARXIV_BODIES)
def test_query_source_survives_any_arxiv_text(source_kind, text):
    # Lone surrogates encode to bytes that are not UTF-8, which arXiv might send too.
    _assert_outcome(*source_kind, [text.encode("utf-8", "surrogatepass")])
