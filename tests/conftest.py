"""Shared fixtures: the C9 suite time budget, a local HTTP provider server, corpus helpers."""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import strategies as st

from temporag.types import Channel, Snippet

_SESSION_START = time.perf_counter()

SUITE_BUDGET_S = 120.0


def session_elapsed() -> float:
    return time.perf_counter() - _SESSION_START


def pytest_sessionfinish(session, exitstatus):
    elapsed = session_elapsed()
    ok = elapsed < SUITE_BUDGET_S
    print(
        f"\n[acceptance] C9 whole suite under {SUITE_BUDGET_S:.0f}s: "
        f"{elapsed:.1f}s -> {'PASS' if ok else 'FAIL'}"
    )
    if not ok and exitstatus == 0:
        session.exitstatus = 1


def make_snippet(
    sid: str,
    text: str,
    t_start: float,
    t_end: float | None = None,
    channel: Channel = Channel.ASR,
) -> Snippet:
    return Snippet(
        id=sid,
        channel=channel,
        text=text,
        t_start=t_start,
        t_end=t_end if t_end is not None else t_start,
    )


# One byte-level damage to a file: ("flip", position, xor mask),
# ("truncate", position, _) or ("insert", position, byte). Positions wrap
# modulo the current length, so a strategy is independent of file size.
MUTATIONS = st.lists(
    st.tuples(
        st.sampled_from(["flip", "truncate", "insert"]),
        st.integers(0, 1 << 16),
        st.integers(1, 255),
    ),
    min_size=1,
    max_size=3,
)


def mutate_bytes(data: bytes, mutations) -> bytes:
    buf = bytearray(data)
    for kind, where, value in mutations:
        pos = where % (len(buf) + 1)
        if kind == "truncate":
            del buf[pos:]
        elif kind == "insert":
            buf[pos:pos] = bytes([value])
        elif pos < len(buf):
            buf[pos] ^= value
    return bytes(buf)


class _ProviderHandler(BaseHTTPRequestHandler):
    """Fake provider endpoints: /embed, /detect, /chat/completions, /fail500."""

    def log_message(self, *args):  # keep test output clean
        pass

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length) or b"{}")
        self.server.last_request = {
            "path": self.path,
            "payload": payload,
            "auth": self.headers.get("Authorization"),
        }
        if self.path == "/embed":
            dim = 8
            vectors = []
            for text in payload["texts"]:
                base = float(len(text) + 1)
                vectors.append([base] + [1.0] * (dim - 1))
            body = {"vectors": vectors}
            status = 200
        elif self.path == "/detect":
            body = {
                "detections": [
                    [{"label": f"obj{fid}", "box": [0.1, 0.1, 0.5, 0.5], "confidence": 0.9}]
                    for fid in payload["frame_ids"]
                ]
            }
            status = 200
        elif self.path == "/chat/completions":
            user = payload["messages"][-1]["content"]
            body = {"choices": [{"message": {"content": f"echo:{len(user)}"}}]}
            status = 200
        elif self.path == "/fail500":
            body = {"error": "boom"}
            status = 500
        else:
            body = {"error": "not found"}
            status = 404
        data = json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


@pytest.fixture(scope="session")
def provider_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ProviderHandler)
    server.last_request = None
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
