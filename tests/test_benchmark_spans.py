"""The benchmark's tracer still fits the program it wraps.

``e2ebench/spans.py`` replaces functions at the module or class attribute
their callers read, and its attribute functions read the wrapped calls'
arguments by name. The benchmark's gated runs are untraced, so a renamed
function or argument would first break a traced run; this test runs one.
"""

from __future__ import annotations

import importlib.util
import inspect
import sys
from pathlib import Path

from temporag.cli import main
from temporag.textindex import row_similarities, tokenize

from conftest import bm25_score

ROOT = Path(__file__).resolve().parent.parent
DEMO = ROOT / "demo"
GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
QUESTION = "What does the sign near the marina office say?"
# Speech and on-screen cues: both channels pool, with other hit counts than QUESTION's.
SECOND = "What does the narrator say about the harbor, the fish market and the ferry?"
# Entries whose code is gone: the tracer skips them and their metrics read 0.
GONE = {
    ("temporag._kernels", "bm25_accumulate"),
    ("temporag.cli", "save_vectors"),
    ("temporag.cli", "load_vec_index"),
}


def _load_spans():
    spec = importlib.util.spec_from_file_location(
        "e2ebench_spans", ROOT / "e2ebench" / "spans.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


def test_every_traced_entry_resolves():
    want = [name for module, attr, name, _ in spans.TRACED if (module, attr) not in GONE]
    assert [name for _, _, name, _ in spans.traced_targets()] == want


def test_traced_answer_flushes_every_span(tmp_path, capsys):
    store, index = tmp_path / "store", tmp_path / "index"
    inputs = [DEMO / name for name in ("audio.srt", "screen_text.jsonl", "detections.jsonl")]
    assert main([*map(str, ["ingest", *inputs, "--frames", DEMO / "frames.jsonl",
                            "--video-id", "harbor", "--duration-s", "120", "--out", store])]) == 0
    config = str(DEMO / "config.json")
    assert main(["build", "--store", str(store), "--out", str(index), "--config", config]) == 0
    capsys.readouterr()

    recorder = spans.Recorder()
    rcs = []
    with spans.tracing(recorder):
        for op, question in (("answer", QUESTION), ("second", SECOND)):
            recorder.begin_op(op)
            rcs.append(main(["answer", "--index", str(index), "--query", question,
                             "--config", config]))
    # Each deferred call's arguments, by span, as ``flush`` binds them.
    calls = {
        span.id: inspect.signature(fn).bind(*args, **kwargs).arguments
        for span, _, fn, args, kwargs, _ in recorder._pending
    }
    recorder.flush()
    assert rcs == [0, 0]
    answer = capsys.readouterr().out.strip().splitlines()[0]
    assert answer == (GOLDEN / "demo_answer.txt").read_text(encoding="utf-8").strip()

    with_attrs = {name for _, _, name, attrs_fn in spans.traced_targets() if attrs_fn}
    seen = {span.name for span in recorder.spans}
    assert with_attrs <= seen
    assert not any(span.error for span in recorder.spans)
    assert all(span.attrs for span in recorder.spans if span.name in with_attrs)

    # The deferred values count hits, recounted here from the call's arguments.
    by_name = {}
    for span in recorder.spans:
        by_name.setdefault(span.name, []).append(span)
    for span in by_name["textindex.search"]:
        a = calls[span.id]
        tokens = tokenize(a["query_text"])
        positive = [i for i in a["index"].doc_ids if bm25_score(a["index"], tokens, i) > 0.0]
        assert span.attrs == {"positive_hits": len(positive)}
    kept = []
    for span in by_name["pipeline.dense_accept"]:
        a = calls[span.id]
        sims = [row_similarities(a["bm25"].vectors, a["query_vec"], [p]).item()
                for p in a["ids"].pos.tolist()]
        kept.append(sum(sim >= a["tau"] for sim in sims))
        assert span.attrs == {"in": len(sims), "kept": kept[-1]}
        assert kept[-1] <= len(sims)
    # Lexical fusion: the dense filter's survivors are the pool, rescored when not empty.
    pools = [span.attrs["candidates"] for span in by_name["rescore.rescore"]]
    assert pools == [n for n in kept if n] and pools
