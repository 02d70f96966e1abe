"""In-memory spans around temporag's layers, installed from outside the program.

``tracing(recorder)`` replaces each traced function at the module or class
attribute its caller reads (``pipeline.dense_accept``, ``cli.load_bm25``,
``StubLvlm.complete``, ...) with a wrapper that records one span per call,
and puts every original back on exit.

A span holds its name, start and end (``perf_counter`` seconds), the id of
the span that caused it and the operation it belongs to. ``run_query``
runs the ASR and OCR channels in a thread pool, and ``submit`` does not
carry context into the worker threads, so the recorder does not rely on
context: the benchmark names the current operation explicitly
(``recorder.op``), and a span opened on a thread with no open span of its
own takes as parent the innermost open span of the thread that started
the operation.

Per-call attributes (pool sizes, kept ratios, ...) are computed in
``flush``, which the benchmark calls between operations, so the work of
counting never lands inside a timed span.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

from temporag import textindex

# Captured before any wrapping, so counting hits in ``flush`` opens no span.
_search = textindex.search


@dataclasses.dataclass
class Span:
    id: int
    name: str
    op: str
    parent: int | None
    start: float
    end: float = 0.0
    error: bool = False
    attrs: dict = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans for one benchmark run; not shared between runs."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = "setup"
        self._local = threading.local()
        self._op_stack: list[int] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._pending: list[tuple] = []

    def begin_op(self, op: str) -> None:
        """Start a new operation on the calling thread."""
        self.op = op
        self._op_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._op_stack[-1] if self._op_stack else None
        with self._lock:
            span_id = next(self._ids)
        span = Span(span_id, name, self.op, parent, 0.0)
        stack.append(span_id)
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def defer(self, span: Span, attrs_fn, fn, args, kwargs, result) -> None:
        """Keep a call's arguments until ``flush`` derives the span's attributes."""
        self._pending.append((span, attrs_fn, fn, args, kwargs, result))

    def flush(self) -> None:
        """Compute deferred span attributes and drop the call arguments."""
        for span, attrs_fn, fn, args, kwargs, result in self._pending:
            bound = inspect.signature(fn).bind(*args, **kwargs)
            span.attrs = attrs_fn(bound.arguments, result)
        self._pending.clear()

    def write(self, path: Path) -> None:
        """One JSON object per span, in the order the spans were opened."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(dataclasses.asdict(s)) + "\n" for s in self.spans)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration minus the union of the children's intervals, per span id.

    Children may overlap (the two retrieval channels run on two threads),
    so their intervals are merged before they are subtracted.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = s.duration - covered
    return out


# --- deferred per-call attributes -----------------------------------------------


def _search_attrs(a, result):
    """Documents with a positive BM25 score: the hits search has to sort."""
    index = a["index"]
    return {"positive_hits": len(_search(index, a["query_text"], max(index.n_docs, 1)))}


def _dense_attrs(a, result):
    return {"in": len(a["ids"]), "kept": len(result)}


def _rescore_attrs(a, result):
    return {"candidates": len(a["candidates"])}


def _keyframe_attrs(a, result):
    threshold = a["cfg"].sim_threshold
    return {
        "keyframes": len(result),
        "frames": len(a["frames"]),
        "gate_pass": sum(1 for s in a["sims"] if s >= threshold),
    }


def _compose_attrs(a, result):
    before, after = a["evidence"], result.evidence
    return {
        "trimmed_hits": len(before.asr_hits) + len(before.ocr_hits)
        - len(after.asr_hits) - len(after.ocr_hits)
    }


# (module[:class], attribute, span name, deferred attributes). An entry
# whose module or attribute no longer exists is skipped and its metrics
# read 0, so a change that removes a layer does not break the benchmark.
TRACED = (
    ("temporag.pipeline", "run_query", "pipeline.run_query", None),
    ("temporag.cli", "run_query", "pipeline.run_query", None),
    ("temporag.pipeline", "decouple_query", "pipeline.decouple_query", None),
    ("temporag.pipeline", "retrieve_channel", "pipeline.retrieve_channel", None),
    ("temporag.pipeline", "dense_accept", "pipeline.dense_accept", _dense_attrs),
    ("temporag.pipeline", "augment_query", "pipeline.augment_query", None),
    ("temporag.pipeline", "compose", "pipeline.compose", _compose_attrs),
    ("temporag.pipeline", "answer", "pipeline.answer", None),
    ("temporag.pipeline", "select_keyframes", "frames.select_keyframes", _keyframe_attrs),
    ("temporag.pipeline", "detect_on_keyframes", "frames.detect_on_keyframes", None),
    ("temporag.pipeline", "compute_anchors", "rescore.compute_anchors", None),
    ("temporag.rescore", "rescore", "rescore.rescore", _rescore_attrs),
    ("temporag.rescore", "top_k", "rescore.top_k", None),
    ("temporag.textindex", "search", "textindex.search", _search_attrs),
    ("temporag._kernels", "bm25_accumulate", "kernels.bm25_accumulate", None),
    ("temporag.cli", "build_index", "textindex.build_index", None),
    ("temporag.cli", "save_bm25", "textindex.save_index", None),
    ("temporag.cli", "load_bm25", "textindex.load_index", None),
    ("temporag.cli", "save_vectors", "vectorindex.save_vectors", None),
    ("temporag.cli", "load_vec_index", "vectorindex.load_index", None),
    ("temporag.vectorindex:HashEmbedder", "embed", "vectorindex.HashEmbedder.embed", None),
    ("temporag.providers:StubLvlm", "complete", "providers.lvlm", None),
    ("temporag.providers:FixtureDetector", "detect", "providers.detect", None),
    ("temporag.cli", "parse_srt", "ingest.parse_srt", None),
    ("temporag.cli", "parse_detections_jsonl", "ingest.parse_detections_jsonl", None),
    ("temporag.cli", "parse_snippet_jsonl", "ingest.parse_snippet_jsonl", None),
    ("temporag.cli", "cmd_ingest", "cli.ingest", None),
    ("temporag.cli", "cmd_build", "cli.build", None),
    ("temporag.cli", "_load_runtime", "cli.answer.load", None),
)


def traced_targets() -> list[tuple[object, str, str, object]]:
    """The (owner, attribute, span name, attrs_fn) of every TRACED entry that exists."""
    out = []
    for spec, attr, name, attrs_fn in TRACED:
        module_name, _, class_name = spec.partition(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            continue
        if class_name:
            owner = getattr(owner, class_name, None)
        if owner is not None and attr in vars(owner):
            out.append((owner, attr, name, attrs_fn))
    return out


def _wrap(fn, name: str, recorder: Recorder, attrs_fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.error = True
            raise
        finally:
            recorder.close(span)
        if attrs_fn is not None:
            recorder.defer(span, attrs_fn, fn, args, kwargs, result)
        return result

    return traced


@contextlib.contextmanager
def tracing(recorder: Recorder):
    """Wrap every function in ``TRACED``; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, name, attrs_fn in traced_targets():
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(original, name, recorder, attrs_fn))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
