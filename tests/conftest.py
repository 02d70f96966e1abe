"""Shared fixtures: the C9 suite time budget, a local HTTP provider server, corpus
helpers, and scalar oracles of the decay and BM25 formulas."""

from __future__ import annotations

import json
import math
import threading
import time
import tracemalloc
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Sequence

import numpy as np
import pytest
from hypothesis import strategies as st

from temporag.errors import DataError
from temporag.ingest import DetectionColumns, DetectionRecord
from temporag.rescore import AnchorSet, DecayParams, TimeNorm, rescore, top_k
from temporag.textindex import Bm25Index, Hits, tokenize
from temporag.types import Channel, ScoredSnippet, Snippet

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


def hit_pairs(hits: Hits) -> list[tuple[int, float]]:
    """A ``textindex.Hits`` as its (position, score) pairs, in its order."""
    return list(zip(hits.pos.tolist(), hits.score.tolist()))


def _pool(candidates: Sequence[tuple[Snippet, float]]) -> tuple[Hits, np.ndarray]:
    """(snippet, raw score) pairs as ``Hits`` and midpoints; a position is its id's rank."""
    rank = {sid: r for r, sid in enumerate(sorted({s.id for s, _ in candidates}))}
    pool = Hits(
        np.array([rank[s.id] for s, _ in candidates], dtype=np.intp),
        np.array([raw for _, raw in candidates], dtype=np.float64),
    )
    return pool, np.array([s.t_mid for s, _ in candidates], dtype=np.float64)


def rescore_pairs(
    candidates: Sequence[tuple[Snippet, float]], anchors: AnchorSet, params: DecayParams,
    duration_s: float,
) -> list[ScoredSnippet]:
    """``rescore`` over (snippet, raw score) pairs: one ``ScoredSnippet`` each, in their order."""
    scores, decays = rescore(*_pool(candidates), anchors, params, duration_s)
    return [
        ScoredSnippet(snippet=s, raw_score=raw, decay=d, score=score)
        for (s, raw), d, score in zip(candidates, decays.tolist(), scores.tolist())
    ]


def top_k_of(scored: Sequence[ScoredSnippet], k: int) -> list[ScoredSnippet]:
    """``top_k`` over ``rescore_pairs``' output: the ``k`` best, best first."""
    pool, t_mid = _pool([(s.snippet, s.raw_score) for s in scored])
    rows = top_k(pool, t_mid, np.array([s.score for s in scored], dtype=np.float64), k)
    return [scored[row] for row in rows.tolist()]


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory it allocated, as ``tracemalloc`` traces it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def detection_columns(records: Sequence[DetectionRecord]) -> DetectionColumns:
    """Detection records as the columns ``parse_detections_jsonl`` returns."""
    objects = [o for r in records for o in r.objects]
    return DetectionColumns(
        np.array([r.frame_index for r in records], dtype=np.int64),
        np.array([len(r.objects) for r in records], dtype=np.int64),
        [o.label for o in objects],
        np.array([o.box for o in objects], dtype=np.float64).reshape(-1, 4),
        np.array([o.confidence for o in objects], dtype=np.float64),
    )


def decay_multiplier(
    t_i: float, anchors: AnchorSet, params: DecayParams, duration_s: float
) -> float:
    """exp(-sum_k lambda_k * |anchor_k - t_i|) in the configured time units."""
    scale = 1.0
    if params.time_norm is TimeNorm.NORMALIZED_BY_DURATION:
        if duration_s <= 0:
            raise DataError(f"duration_s must be positive, got {duration_s}")
        scale = duration_s
    a0, a1, a2 = anchors.as_tuple()
    l0, l1, l2 = params.lambdas
    t = t_i / scale
    exponent = l0 * abs(a0 / scale - t) + l1 * abs(a1 / scale - t) + l2 * abs(a2 / scale - t)
    return math.exp(-exponent)


def bm25_score(index: Bm25Index, query_tokens: Sequence[str], doc_id: str) -> float:
    """Okapi score of one document for a query token list.

    Reads only the index's doc ids and texts: tf, df, document lengths and
    avg_dl are counted here from the tokenized texts, so a wrong count the
    index stores cannot agree with itself. Repeated query tokens contribute
    once per occurrence. Terms absent from the document contribute zero.
    """
    docs = [tokenize(text) for text in index.texts]
    doc = docs[list(index.doc_ids).index(doc_id)]
    n = len(docs)
    avg_dl = sum(map(len, docs)) / n
    k1, b = 1.2, 0.75  # Okapi's usual constants, not read from the code under test
    score = 0.0
    for token in query_tokens:
        tf = doc.count(token)
        if tf == 0:
            continue
        # tf > 0 means some document has a token, so avg_dl > 0 here.
        df = sum(1 for toks in docs if token in toks)
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        score += idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * len(doc) / avg_dl))
    return score


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


# Pieces that build shared prefixes, "" and "a" against "a\x00", strings
# longer than one eight-byte word, and non-ASCII text of 2-4 UTF-8 bytes.
STRING_PIECES = st.sampled_from(
    ["", "a", "\x00", "b", "é", "ÿ", "日本", "\U0001f600", "aaaaaaa", "aaaaaaaa", "\x7f"]
)
STRINGS = st.one_of(st.lists(STRING_PIECES, max_size=4).map("".join), st.text(max_size=10))


# Valid JSON with a malformed provider payload, one per endpoint: a null
# completion, a non-numeric vector entry, and a box with x1 > x2. The
# /malformed-<kind>/embed routes answer vectors that are no unit rows: all
# zeros, a NaN or infinite entry, empty, of a length that grows per text, or
# with JSON booleans for entries.
MALFORMED_BODIES = {
    "/malformed/chat/completions": lambda payload: {"choices": [{"message": {"content": None}}]},
    "/malformed/embed": lambda payload: {"vectors": [["x", 1.0] for _ in payload["texts"]]},
    "/malformed/detect": lambda payload: {
        "detections": [
            [{"label": "obj", "box": [0.5, 0.1, 0.2, 0.9], "confidence": 0.9}]
            for _ in payload["frame_ids"]
        ]
    },
    "/malformed-zero/embed": lambda payload: {"vectors": [[0.0] * 8 for _ in payload["texts"]]},
    "/malformed-nan/embed": lambda payload: {
        "vectors": [[math.nan] + [1.0] * 7 for _ in payload["texts"]]
    },
    "/malformed-inf/embed": lambda payload: {
        "vectors": [[1.0] * 7 + [-math.inf] for _ in payload["texts"]]
    },
    "/malformed-empty/embed": lambda payload: {"vectors": [[] for _ in payload["texts"]]},
    "/malformed-ragged/embed": lambda payload: {
        "vectors": [[1.0] * (8 + i) for i in range(len(payload["texts"]))]
    },
    "/malformed-bool/embed": lambda payload: {
        "vectors": [[True, False, 2.0] for _ in payload["texts"]]
    },
}
# Each malformed embed route under /<route>/embed, and the problem the error names.
MALFORMED_EMBEDS = {
    "malformed": "could not convert string to float",
    "malformed-zero": "a vector has a zero, NaN or infinite norm",
    "malformed-nan": "a vector has a zero, NaN or infinite norm",
    "malformed-inf": "a vector has a zero, NaN or infinite norm",
    "malformed-empty": "vectors of shape (",
    "malformed-ragged": "setting an array element with a sequence",
    "malformed-bool": "a vector entry is not a number",
}


# JSON nested past the decoder's recursion limit of about 1,000 levels.
NESTED_JSON = "[" * 100_000


class _ProviderHandler(BaseHTTPRequestHandler):
    """Fake provider endpoints: /embed, /detect, /chat/completions, /fail500, and
    the same three under /malformed (``MALFORMED_BODIES``); /nested/chat/completions
    answers ``NESTED_JSON`` as its body, /nested-content/chat/completions as its content."""

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
        elif self.path in ("/nested/chat/completions", "/nested-content/chat/completions"):
            body = {"choices": [{"message": {"content": NESTED_JSON}}]}
            status = 200
        elif self.path in MALFORMED_BODIES:
            body = MALFORMED_BODIES[self.path](payload)
            status = 200
        elif self.path == "/fail500":
            body = {"error": "boom"}
            status = 500
        else:
            body = {"error": "not found"}
            status = 404
        data = json.dumps(body).encode()
        if self.path == "/nested/chat/completions":
            data = NESTED_JSON.encode()
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
    server.server_close()
