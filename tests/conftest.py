import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from discrimpower import build_mini_collection


@pytest.fixture(autouse=True)
def cache_home(tmp_path_factory, monkeypatch):
    """Each test starts on an empty run cache of its own, never the user's:
    ``$XDG_CACHE_HOME``. A module fixture that runs the CLI sets its own."""
    path = tmp_path_factory.mktemp("xdg-cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(path))
    return path


@pytest.fixture(scope="session")
def mini():
    """(runs, qrels): the bundled 5-system, 10-topic synthetic collection."""
    return build_mini_collection()


class _StubState:
    """Mutable request log shared between handler instances."""

    def __init__(self):
        self.lock = threading.Lock()
        self.requests = 0
        self.timestamps = []
        self.bodies = []
        self.auth = []
        # doc_id -> reply text; None means HTTP 500
        self.replies = {}
        self.default_reply = "0"
        self.fail_status = 500
        # answered, in order, before any reply above: (status, headers),
        # (status, headers, body), or ("drop", seconds) to close the
        # connection without a reply after that many seconds
        self.refusals = []
        self.paths = []  # the path of every request, whatever its method


class _StubHandler(BaseHTTPRequestHandler):
    def do_GET(self):
        with self.server.state.lock:
            self.server.state.paths.append(self.path)
        self.send_error(405)

    def do_POST(self):
        import time

        state = self.server.state
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        with state.lock:
            state.requests += 1
            state.timestamps.append(time.monotonic())
            state.bodies.append(body)
            state.auth.append(self.headers.get("Authorization"))
            state.paths.append(self.path)
            refusal = state.refusals.pop(0) if state.refusals else None
        if refusal is not None:
            if refusal[0] == "drop":
                # Event.wait, not time.sleep, which tests may replace
                threading.Event().wait(refusal[1])
                return
            status, headers, payload = (*refusal, b"")[:3]
            self.send_response(status)
            for name, value in headers.items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(payload)
            return
        prompt = body["messages"][0]["content"]
        match = re.search(r"DOC:(\S+)", prompt)
        doc_id = match.group(1) if match else None
        reply = state.replies.get(doc_id, state.default_reply)
        if reply is None:
            self.send_response(state.fail_status)
            self.end_headers()
            return
        payload = json.dumps(
            {"choices": [{"message": {"role": "assistant", "content": reply}}]}
        ).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    """A local chat-completion endpoint that grades by document marker.

    The handler looks for ``DOC:<doc_id>`` in the prompt and answers with
    ``state.replies[doc_id]`` (``None`` makes it return HTTP 500).
    Yields (endpoint_url, state).
    """
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    server.state = _StubState()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    try:
        yield url, server.state
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
