"""The benchmark's tracer still fits the program it wraps.

``e2ebench/spans.py`` replaces functions at the module or class attribute
their callers read, and its attribute functions read the wrapped calls'
arguments by name. The benchmark's gated runs are untraced, so a renamed
function or argument would first break a traced run; this test runs one.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from temporag.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMO = ROOT / "demo"
GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
QUESTION = "What does the sign near the marina office say?"
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
    with spans.tracing(recorder):
        recorder.begin_op("answer")
        rc = main(["answer", "--index", str(index), "--query", QUESTION, "--config", config])
    recorder.flush()
    assert rc == 0
    answer = capsys.readouterr().out.strip()
    assert answer == (GOLDEN / "demo_answer.txt").read_text(encoding="utf-8").strip()

    with_attrs = {name for _, _, name, attrs_fn in spans.traced_targets() if attrs_fn}
    seen = {span.name for span in recorder.spans}
    assert with_attrs <= seen
    assert not any(span.error for span in recorder.spans)
    assert all(span.attrs for span in recorder.spans if span.name in with_attrs)
