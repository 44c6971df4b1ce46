import json
import socket
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from discrimpower import labeller
from discrimpower.errors import ConfigurationError
from discrimpower.labeller import (
    DEFAULT_PROMPT_TEMPLATE,
    LabellerConfig,
    LabellingError,
    ResponseParseError,
    TransportError,
    _RateLimiter,
    assemble_pairs,
    extract_grade,
    label_pair,
    label_qrels,
    load_pair_texts,
    load_query_texts,
)
from discrimpower.trec import CANDIDATE, Qrels


def make_pairs(n):
    """n distinct pairs whose doc text carries the DOC:<id> marker."""
    return [
        (f"q{i % 3}", f"d{i:02d}", f"query {i % 3}", f"some text DOC:d{i:02d} end")
        for i in range(n)
    ]


def cfg_for(url, **kw):
    kw.setdefault("max_retries", 1)
    return LabellerConfig(endpoint=url, model="stub-model", **kw)


# ---------------------------------------------------------------- parsing


def test_extract_plain_integer():
    assert extract_grade("2", 3) == (2, False)


def test_extract_integer_embedded_in_prose():
    assert extract_grade("I would say the grade is 3.", 3) == (3, False)


def test_extract_prefers_first_in_range():
    assert extract_grade("7 out of 10? No: 1", 3) == (1, False)


def test_extract_clamps_out_of_range():
    assert extract_grade("10", 3) == (3, True)
    assert extract_grade("-1", 3) == (0, True)


def test_extract_no_integer_raises():
    with pytest.raises(ResponseParseError) as exc_info:
        extract_grade("maybe relevant", 3)
    assert exc_info.value.raw_response == "maybe relevant"


def test_config_requires_prompt_slots():
    with pytest.raises(ConfigurationError, match="document"):
        LabellerConfig(endpoint="http://x", model="m", prompt_template="{query} only")
    with pytest.raises(ConfigurationError, match="query"):
        LabellerConfig(endpoint="http://x", model="m", prompt_template="{document} only")


def test_config_validation():
    with pytest.raises(ConfigurationError):
        LabellerConfig(endpoint="http://x", model="m", scale_max=0)
    with pytest.raises(ConfigurationError):
        LabellerConfig(endpoint="http://x", model="m", rate_limit=0.0)
    with pytest.raises(ConfigurationError):
        LabellerConfig(endpoint="http://x", model="m", concurrency=0)
    with pytest.raises(ConfigurationError, match="timeout must be > 0 seconds, got -1"):
        LabellerConfig(endpoint="http://x", model="m", timeout=-1)
    with pytest.raises(ConfigurationError, match="max_retries must be >= 1"):
        LabellerConfig(endpoint="http://x", model="m", max_retries=0)
    for endpoint in ("notaurl", "ftp://x/", "file:///etc/hostname", "http:///nohost",
                     "http://h:abc/"):
        with pytest.raises(ConfigurationError, match=f"got {endpoint!r}$"):
            LabellerConfig(endpoint=endpoint, model="m")


def test_default_prompt_has_both_slots():
    assert "{query}" in DEFAULT_PROMPT_TEMPLATE
    assert "{document}" in DEFAULT_PROMPT_TEMPLATE


# ---------------------------------------------------------------- labelling


def test_label_qrels_matches_reply_table(stub_server):
    url, state = stub_server
    pairs = make_pairs(10)
    expected = {}
    for i, (tid, did, _, _) in enumerate(pairs):
        grade = i % 4
        state.replies[did] = f"The grade is {grade}."
        expected[(tid, did)] = grade
    qrels, results = label_qrels(pairs, cfg_for(url))
    assert qrels.judgments == expected
    assert qrels.role == CANDIDATE
    assert state.requests == 10
    assert [r.cached for r in results] == [False] * 10
    assert [(r.topic_id, r.doc_id) for r in results] == sorted(
        (t, d) for t, d, _, _ in pairs
    )


def test_request_body_shape(stub_server):
    url, state = stub_server
    label_qrels(make_pairs(1), cfg_for(url))
    body = state.bodies[0]
    assert body["model"] == "stub-model"
    assert body["temperature"] == 0
    assert body["messages"][0]["role"] == "user"
    assert "query 0" in body["messages"][0]["content"]


def test_api_key_header(stub_server, monkeypatch):
    url, state = stub_server
    monkeypatch.delenv("LLM_API_KEY", raising=False)
    label_qrels(make_pairs(1), cfg_for(url))
    assert state.auth[-1] is None
    monkeypatch.setenv("LLM_API_KEY", "sk-test")
    state.replies.clear()
    label_qrels(make_pairs(2)[1:], cfg_for(url))
    assert state.auth[-1] == "Bearer sk-test"


def test_custom_api_key_env(stub_server, monkeypatch):
    url, state = stub_server
    monkeypatch.setenv("OTHER_KEY", "abc")
    label_qrels(make_pairs(1), cfg_for(url, api_key_env="OTHER_KEY"))
    assert state.auth[-1] == "Bearer abc"


def test_empty_input():
    qrels, results = label_qrels([], cfg_for("http://invalid.example/"))
    assert qrels.judgments == {}
    assert results == []


def test_clamped_grade_over_the_wire(stub_server):
    url, state = stub_server
    state.replies["d00"] = "8"
    qrels, results = label_qrels(make_pairs(1), cfg_for(url))
    assert qrels.judgments[("q0", "d00")] == 3
    assert results[0].clamped is True


def test_cache_prevents_second_round_trip(stub_server, tmp_path):
    url, state = stub_server
    pairs = make_pairs(6)
    for i, (_, did, _, _) in enumerate(pairs):
        state.replies[did] = str(i % 4)
    cfg = cfg_for(url, cache_dir=tmp_path)
    qrels1, results1 = label_qrels(pairs, cfg)
    sent = state.requests
    assert sent == 6
    qrels2, results2 = label_qrels(pairs, cfg)
    assert state.requests == sent  # nothing new on the wire
    assert qrels2 == qrels1
    assert all(r.cached for r in results2)
    assert [(r.grade, r.raw_response) for r in results2] == [
        (r.grade, r.raw_response) for r in results1
    ]


def test_cache_is_prompt_specific(stub_server, tmp_path):
    url, state = stub_server
    state.replies["d00"] = "2"
    cfg = cfg_for(url, cache_dir=tmp_path)
    label_qrels(make_pairs(1), cfg)
    # different document text -> different prompt -> cache miss
    other = [("q0", "d00", "query 0", "changed DOC:d00")]
    label_qrels(other, cfg)
    assert state.requests == 2


@pytest.mark.parametrize("corrupt", [
    b'{"grade": 2, "raw_resp', b'{"grade": 2}', b"\xff\xfe", b"[2]",
    b'{"grade": "7 of 3", "raw_response": "x"}', b'{"grade": 4, "raw_response": "4"}',
    b'{"grade": -1, "raw_response": "x"}', b'{"grade": true, "raw_response": "x"}',
    b'{"grade": 2.0, "raw_response": "x"}',
], ids=["invalid-json", "missing-key", "not-utf8", "not-an-object", "grade-not-int",
        "grade-above-scale", "grade-negative", "grade-bool", "grade-float"])
def test_corrupt_cache_entry_is_a_miss(stub_server, tmp_path, corrupt):
    url, state = stub_server
    state.replies["d00"] = "2"
    cfg = cfg_for(url, cache_dir=tmp_path)
    label_qrels(make_pairs(1), cfg)
    [entry] = tmp_path.iterdir()
    entry.write_bytes(corrupt)

    _, [result] = label_qrels(make_pairs(1), cfg)
    assert state.requests == 2
    assert (result.grade, result.cached) == (2, False)
    assert list(tmp_path.iterdir()) == [entry]  # rewritten in place, no temp file left
    assert json.loads(entry.read_text(encoding="utf-8"))["raw_response"] == "2"

    _, [again] = label_qrels(make_pairs(1), cfg)
    assert state.requests == 2 and again.cached


def test_rate_limit_spaces_requests(stub_server, monkeypatch):
    url, state = stub_server
    qrels, _ = label_qrels(make_pairs(6), cfg_for(url, rate_limit=20.0, concurrency=4))
    assert len(qrels.judgments) == 6 and state.requests == 6

    # On a clock that stands still, six requests arrive at once from six
    # threads: 20 req/s hands them slots 50 ms apart, and each thread
    # sleeps until its own slot, so none is sent early. The server's
    # arrival times would add the host's scheduling jitter.
    slept = []
    monkeypatch.setattr("discrimpower.labeller.time.monotonic", lambda: 100.0)
    monkeypatch.setattr("discrimpower.labeller.time.sleep", slept.append)
    limiter = _RateLimiter(20.0)
    threads = [threading.Thread(target=limiter.wait) for _ in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=5)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(slept) == pytest.approx([i / 20 for i in range(1, 6)], rel=0, abs=1e-9)


def test_server_error_fails_job_listing_pair(stub_server):
    url, state = stub_server
    pairs = make_pairs(3)
    state.replies["d01"] = None  # HTTP 500
    with pytest.raises(LabellingError, match=r"\(q1, d01\)") as exc_info:
        label_qrels(pairs, cfg_for(url))
    assert len(exc_info.value.failures) == 1


def test_failed_pairs_are_listed_in_key_order(stub_server):
    # Futures complete in no fixed order; the error lists the pairs sorted.
    url, state = stub_server
    state.default_reply, state.fail_status = None, 400
    pairs = [("t1", f"d{i}", "query", f"text DOC:d{i}") for i in range(8, 0, -1)]
    for _ in range(3):
        with pytest.raises(LabellingError) as exc_info:
            label_qrels(pairs, cfg_for(url, concurrency=4))
        assert str(exc_info.value) == (
            "8 pair(s) failed: (t1, d1), (t1, d2), (t1, d3), (t1, d4), (t1, d5) and 3 more; "
            "first: request rejected: 400")
        assert [pair[:2] for pair in exc_info.value.failures] == sorted(pair[:2] for pair in pairs)


def test_skip_failures_drops_bad_pair(stub_server):
    url, state = stub_server
    pairs = make_pairs(3)
    state.replies["d01"] = None
    qrels, results = label_qrels(pairs, cfg_for(url), skip_failures=True)
    assert set(qrels.judgments) == {("q0", "d00"), ("q2", "d02")}
    assert len(results) == 2


def test_five_hundred_is_retried(stub_server):
    url, state = stub_server
    state.replies["d00"] = None
    with pytest.raises(LabellingError):
        label_qrels(make_pairs(1), cfg_for(url, max_retries=2))
    assert state.requests == 2  # transient class: worth another attempt


def test_four_xx_fails_fast(stub_server):
    url, state = stub_server
    state.replies["d00"] = None
    state.fail_status = 404
    with pytest.raises(LabellingError):
        label_qrels(make_pairs(1), cfg_for(url, max_retries=3))
    assert state.requests == 1  # client error: retrying cannot help


def test_a_rejection_names_the_status_and_the_first_200_characters(stub_server):
    url, state = stub_server
    body = "".join(f"{i:03d}" for i in range(100))  # 300 characters, no slice repeats
    state.refusals.append((400, {}, body.encode()))
    with pytest.raises(TransportError) as exc_info:
        label_pair("q", "text DOC:d00", cfg_for(url, max_retries=3))
    assert str(exc_info.value) == f"request rejected: 400 {body[:200]}"
    assert state.requests == 1


def test_an_undecodable_rejection_body_is_replaced_not_raised(stub_server):
    url, state = stub_server
    headers = {"Content-Type": "text/plain; charset=utf-8"}
    state.refusals.append((403, headers, b"caf\xe9 denied"))
    with pytest.raises(TransportError) as exc_info:
        label_pair("q", "text DOC:d00", cfg_for(url, max_retries=3))
    assert str(exc_info.value) == "request rejected: 403 caf\ufffd denied"
    assert state.requests == 1


def test_a_success_status_other_than_200_is_rejected(stub_server):
    url, state = stub_server
    state.refusals.append((201, {}, b"created"))
    with pytest.raises(TransportError, match="^request rejected: 201 created$"):
        label_pair("q", "text DOC:d00", cfg_for(url, max_retries=3))
    assert state.requests == 1


@pytest.mark.parametrize("refusal, message", [
    ((400, {}), "request rejected: 400"),
    ((400, {}, b" \n"), "request rejected: 400"),
    ((302, {}), "request rejected: 302"),
    ((302, {}, b"moved"), "request rejected: 302 moved"),
], ids=["no-body", "blank-body", "redirect-without-location", "redirect-with-only-a-body"])
def test_a_rejection_message_holds_only_its_non_empty_parts(stub_server, refusal, message):
    url, state = stub_server
    state.refusals.append(refusal)
    with pytest.raises(TransportError) as exc_info:
        label_pair("q", "text DOC:d00", cfg_for(url, max_retries=3))
    assert str(exc_info.value) == message
    assert state.requests == 1


@pytest.mark.parametrize("refusal, timeout", [
    (("drop", 0), 60),
    ((500, {"Content-Length": "100"}, b"cut short"), 60),
    (("drop", 5), 1),
], ids=["dropped-without-reply", "five-hundred-body-cut-short", "slower-than-timeout"])
def test_a_broken_exchange_is_retried(stub_server, monkeypatch, refusal, timeout):
    url, state = stub_server
    monkeypatch.setattr("discrimpower.labeller.time.sleep", lambda seconds: None)
    state.refusals.append(refusal)
    state.replies["d00"] = "2"
    result = label_pair("q", "text DOC:d00", cfg_for(url, max_retries=2, timeout=timeout))
    assert (result.grade, state.requests) == (2, 2)


def test_a_failed_tls_handshake_is_not_retried(stub_server, monkeypatch):
    # https:// against the plain-HTTP stub: the handshake gets an HTTP reply.
    url, state = stub_server
    opened = []
    real_open = labeller._OPENER.open
    monkeypatch.setattr(labeller._OPENER, "open",
                        lambda *args, **kw: opened.append(1) or real_open(*args, **kw))
    start = time.perf_counter()
    with pytest.raises(TransportError, match="^TLS handshake failed: .*WRONG_VERSION_NUMBER"):
        label_pair("q", "text DOC:d00", cfg_for(url.replace("http://", "https://"),
                                                max_retries=3))
    assert time.perf_counter() - start < 1
    assert (len(opened), state.requests) == (1, 0)


def test_an_eof_in_the_tls_handshake_is_retried(monkeypatch):
    monkeypatch.setattr("discrimpower.labeller.time.sleep", lambda seconds: None)
    accepted = []
    with socket.create_server(("127.0.0.1", 0)) as server:
        def close_each():
            for _ in range(2):
                conn, _ = server.accept()
                accepted.append(1)
                conn.close()

        thread = threading.Thread(target=close_each, daemon=True)
        thread.start()
        url = f"https://127.0.0.1:{server.getsockname()[1]}/v1/chat/completions"
        with pytest.raises(TransportError, match="^gave up after 2 attempts: .*EOF"):
            label_pair("q", "text DOC:d00", cfg_for(url, max_retries=2, timeout=5))
        thread.join(timeout=5)
    assert not thread.is_alive() and len(accepted) == 2


def test_an_api_key_that_cannot_be_a_header_is_a_transport_error(stub_server, monkeypatch):
    url, state = stub_server
    monkeypatch.setenv("LLM_API_KEY", "sk-one\nsk-two")
    with pytest.raises(TransportError):
        label_pair("q", "text DOC:d00", cfg_for(url))
    assert state.requests == 0


@pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
def test_a_redirect_is_not_followed(stub_server, status):
    # Following one would re-send the request, as a GET for 301-303, and
    # the API key with it, to wherever Location points.
    url, state = stub_server
    state.refusals.append((status, {"Location": "/elsewhere"}))
    message = f"^request rejected: {status} redirect to /elsewhere$"
    with pytest.raises(TransportError, match=message):
        label_pair("q", "text DOC:d00", cfg_for(url, max_retries=3))
    assert state.paths == ["/v1/chat/completions"]


@pytest.mark.parametrize("key", ["sk-secret\nmore", "sk-secret\u20ac"],
                         ids=["newline", "not-latin-1"])
def test_a_refused_api_key_is_not_echoed(stub_server, monkeypatch, key):
    url, state = stub_server
    monkeypatch.setenv("LLM_API_KEY", key)
    with pytest.raises(TransportError, match=r"^request not sent: .* \$LLM_API_KEY ") as exc_info:
        label_pair("q", "text DOC:d00", cfg_for(url, max_retries=3))
    assert "sk-secret" not in str(exc_info.value)
    assert state.requests == 0


def test_rate_limited_request_is_retried(stub_server):
    url, state = stub_server
    state.refusals.append((429, {"Retry-After": "0"}))
    state.replies["d00"] = "2"
    qrels, _ = label_qrels(make_pairs(1), cfg_for(url, max_retries=2))
    assert qrels.judgments == {("q0", "d00"): 2}
    assert state.requests == 2


@pytest.mark.parametrize("headers, wait", [
    ({"Retry-After": "0"}, 0),
    ({"Retry-After": "3"}, 3),
    ({"Retry-After": "120"}, 8),
    ({}, 1),
    ({"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}, 1),
    ({"Retry-After": "-1"}, 1),
], ids=["zero", "seconds", "capped", "missing", "http-date", "negative"])
def test_retry_after_sets_the_wait(stub_server, monkeypatch, headers, wait):
    url, state = stub_server
    waits = []
    monkeypatch.setattr("discrimpower.labeller.time.sleep", waits.append)
    state.refusals += [(429, headers), (429, headers)]
    with pytest.raises(TransportError, match="429"):
        label_pair("q", "text DOC:d00", cfg_for(url, max_retries=2))
    assert waits == [wait]
    assert state.requests == 2


def test_unparseable_reply_is_a_failure(stub_server):
    url, state = stub_server
    state.replies["d00"] = "definitely relevant, five stars"
    with pytest.raises(LabellingError):
        label_qrels(make_pairs(1), cfg_for(url))


def test_duplicate_pairs_rejected():
    pairs = [("q0", "d0", "q", "t"), ("q0", "d0", "q", "t2")]
    with pytest.raises(ConfigurationError, match="duplicate"):
        label_qrels(pairs, cfg_for("http://invalid.example/"))


def test_unreachable_endpoint():
    cfg = cfg_for("http://127.0.0.1:1/v1/chat/completions", timeout=0.5)
    with pytest.raises(TransportError):
        label_pair("q", "d", cfg)


class _GarbageHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        self.rfile.read(length)
        payload = b'{"unexpected": true}'
        self.send_response(200)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


def test_malformed_completion_shape():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _GarbageHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    try:
        with pytest.raises(ResponseParseError, match="malformed"):
            label_pair("q", "d", cfg_for(url))
    finally:
        server.shutdown()
        thread.join(timeout=5)


# ---------------------------------------------------------------- text files


def test_load_query_texts(tmp_path):
    path = tmp_path / "queries.tsv"
    path.write_text("q1\twhat is x\nq2\thow to y\n\n")
    assert load_query_texts(path) == {"q1": "what is x", "q2": "how to y"}


def test_load_pair_texts_keeps_tabs_in_text(tmp_path):
    path = tmp_path / "texts.tsv"
    path.write_text("q1\td1\tbody with\ttab inside\n")
    assert load_pair_texts(path) == {("q1", "d1"): "body with\ttab inside"}


def test_load_tsv_wrong_columns(tmp_path):
    path = tmp_path / "queries.tsv"
    path.write_text("q1 no tab here\n")
    with pytest.raises(ConfigurationError, match="line 1"):
        load_query_texts(path)


def test_assemble_pairs_complete():
    gt = Qrels(judgments={("q1", "d1"): 2, ("q1", "d2"): 0})
    queries = {"q1": "the query"}
    texts = {("q1", "d1"): "text one", ("q1", "d2"): "text two"}
    pairs = assemble_pairs(gt, queries, texts)
    assert pairs == [
        ("q1", "d1", "the query", "text one"),
        ("q1", "d2", "the query", "text two"),
    ]


def test_assemble_pairs_missing_text():
    gt = Qrels(judgments={("q1", "d1"): 2})
    with pytest.raises(ConfigurationError, match="q1"):
        assemble_pairs(gt, {}, {("q1", "d1"): "t"})
    with pytest.raises(ConfigurationError, match="d1"):
        assemble_pairs(gt, {"q1": "q"}, {})


# ---------------------------------------------------------------- isolation


def test_core_import_does_not_pull_http_stack():
    code = (
        "import sys; import discrimpower; "
        "assert 'discrimpower.labeller' not in sys.modules; "
        "assert 'http.client' not in sys.modules; "
        "assert 'urllib.request' not in sys.modules; "
        "assert 'numpy' not in sys.modules"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


def test_labeller_imports_without_requests():
    code = "import sys; sys.modules['requests'] = None; import discrimpower.labeller"
    subprocess.run([sys.executable, "-c", code], check=True)
