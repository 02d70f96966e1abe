"""The three workloads: seeded inputs, set-up through the CLI, a timed closed loop.

Each workload runs one client in one process, which sends its next
operation only after the previous one returned (a closed loop with no
think time). Providers are the bundled stubs (``StubLvlm``, the hash
embedder, the fixture detector), so the numbers measure the engine.

* ``long_video``: one 2 h video, the paper's target. Query cost grows with
  the frame count (the per-frame loops in ``pipeline.run_query`` and
  ``rescore.compute_anchors``) and with the BM25 hit count (the sort in
  ``textindex.search``).
* ``short_clips``: a library of short clips asked round-robin. Per-question
  fixed costs dominate (thread pool, provider calls, compose), so a change
  to the long-video path should not move it.
* ``cold_answer``: one mid-size video, each operation a whole in-process
  ``temporag answer``. Load and parse of the stored index dominate, so it
  moves with the index format and not with the query path.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from temporag import cli, pipeline
from temporag.config import load_config
from temporag.textindex import tokenize

import spans
from corpus import Question, Shape, write_video

SETUP_REPEATS = 3
# p90 is reported, so every run times enough operations to leave at least
# ten samples beyond it.
MIN_OPS = 100
CONFIG = {"providers": {"detector": "fixture"}}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    op: str  # "query": pipeline.run_query on a loaded runtime; "answer": cli answer
    n_videos: int
    shape: Shape


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "long_video",
            "2 h video, 50k ASR + 50k OCR snippets, 3,600 frames: the paper's target, "
            "where per-frame loops and BM25 hit sorting dominate a query",
            "query",
            1,
            Shape(7200.0, 50_000, 3600, 24, 8, 8),
        ),
        Workload(
            "short_clips",
            "16 four-minute clips asked round-robin: fixed per-question costs "
            "(thread pool, provider calls, compose) dominate",
            "query",
            16,
            Shape(240.0, 300, 64, 3, 1, 4),
        ),
        Workload(
            "cold_answer",
            "30 min video, one whole `temporag answer` per operation: the index "
            "load and store re-read dominate, the query is ~4% of it",
            "answer",
            1,
            Shape(1800.0, 2_500, 900, 12, 4, 8),
        ),
    )
}


class SetupError(RuntimeError):
    """The CLI refused the generated inputs; no measurement is possible."""


# --- set-up ------------------------------------------------------------------


def _cli(argv: list[str]) -> None:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise SetupError(f"temporag {argv[0]} exited {rc}: {err.getvalue()[-2000:]}")


@dataclass
class Video:
    raw: Path
    store: Path
    index: Path
    duration_s: float
    questions: list[Question]


def _setup(videos: list[Video], cfg_path: Path, load: bool) -> tuple[float, list]:
    """Ingest and build every video (and load it); return (seconds, runtimes)."""
    for v in videos:
        shutil.rmtree(v.store, ignore_errors=True)
        shutil.rmtree(v.index, ignore_errors=True)
    cfg = load_config(str(cfg_path))
    runtimes = []
    t0 = time.perf_counter()
    for v in videos:
        _cli(
            [
                "ingest", str(v.raw / "audio.srt"), str(v.raw / "screen_text.jsonl"),
                str(v.raw / "detections.jsonl"), "--video-id", v.raw.parent.name,
                "--duration-s", str(v.duration_s), "--frames", str(v.raw / "frames.jsonl"),
                "--out", str(v.store),
            ]
        )
        _cli(["build", "--store", str(v.store), "--out", str(v.index), "--config", str(cfg_path)])
        if load:  # the loader `temporag answer` uses
            runtimes.append(cli._load_runtime(v.index, cfg))
    return time.perf_counter() - t0, runtimes


# --- operations and their checks ----------------------------------------------


def _check(q: Question, trace: dict) -> bool:
    """A needle question must rank its planted ASR snippet first.

    Browse questions have no single right answer; the dense filter often
    rejects their whole pool. Every hit they keep must share a term with
    the request.
    """
    asr = trace["channels"]["asr"]
    if q.kind == "needle":
        return bool(asr) and asr[0]["id"] == q.needle_id
    terms = set(tokenize(trace["request"]["asr"]))
    return all(terms & set(tokenize(hit["text"])) for hit in asr)


class Runner:
    """Runs one operation and checks its output outside the timed region."""

    def __init__(self, workload: Workload, videos: list[Video], cfg_path: Path):
        self.workload = workload
        self.videos = videos
        self.runtimes: list = []  # loaded runtimes, one per video, for "query"
        self.cfg_path = cfg_path
        cfg = load_config(str(cfg_path))
        # The arguments `temporag answer` passes for the same config.
        self.query_kwargs = dict(
            selector_cfg=cfg.selector_config(),
            decay=cfg.decay_params(),
            cfg=cfg.rescore_config(),
            fusion=cfg.fusion_mode(),
            tau=cfg.tau,
            budget_tokens=cfg.budget_tokens,
        )
        # Round-robin over videos, question slot by question slot.
        n_slots = max(len(v.questions) for v in videos)
        self.sequence = [
            (vi, qi)
            for qi in range(n_slots)
            for vi, v in enumerate(videos)
            if qi < len(v.questions)
        ]
        self.bundle_sha: dict[tuple[int, int], str] = {}

    def _question(self, i: int) -> Question:
        vi, qi = self.sequence[i % len(self.sequence)]
        return self.videos[vi].questions[qi]

    def run(self, i: int) -> tuple[float, dict | None]:
        """Operation i of the sequence: (seconds, trace, or None if it failed)."""
        vi, _ = self.sequence[i % len(self.sequence)]
        q = self._question(i)
        if self.workload.op == "query":
            t0 = time.perf_counter()
            try:
                result = pipeline.run_query(self.runtimes[vi], q.text, **self.query_kwargs)
            except Exception:
                traceback.print_exc()
                return time.perf_counter() - t0, None
            return time.perf_counter() - t0, result.trace
        argv = [
            "answer", "--index", str(self.videos[vi].index), "--config", str(self.cfg_path),
            "--query", q.text, "--json",
        ]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            except Exception:
                rc = None
                err.write(traceback.format_exc())
            elapsed = time.perf_counter() - t0
        if rc != 0:
            print(f"temporag answer exited {rc}: {err.getvalue()[-2000:]}", file=sys.stderr)
            return elapsed, None
        return elapsed, json.loads(out.getvalue())["trace"]

    def check(self, i: int, trace: dict | None) -> bool:
        """Output check; the same question must always give the same bundle."""
        if trace is None:
            return False
        key = self.sequence[i % len(self.sequence)]
        sha = trace["bundle"]["sha256"]
        if self.bundle_sha.setdefault(key, sha) != sha:
            return False
        return _check(self._question(i), trace)

    def digest(self) -> str:
        """sha256 over every distinct question's bundle sha256, in sequence order."""
        lines = "".join(f"{vi}:{qi}:{self.bundle_sha.get((vi, qi))}\n" for vi, qi in self.sequence)
        return hashlib.sha256(lines.encode()).hexdigest()


# --- the run -----------------------------------------------------------------


def _quantile(values: list[float], n: int) -> float:
    return statistics.quantiles(values, n=n)[-1]


def _dir_mb(paths: list[Path]) -> float:
    return sum(f.stat().st_size for p in paths for f in p.rglob("*") if f.is_file()) / 1e6


def _timed(runner, i, seconds, min_ops, latencies, recorder):
    """Closed loop from sequence position i; returns (next position, failures).

    Latencies go to ``latencies[traced]``. With a recorder, whole passes
    over the question sequence alternate between untraced and traced, so
    both see the same questions and the difference of their medians is
    the tracing overhead.
    """
    n_seq = len(runner.sequence)
    start, failed = i, 0
    deadline = time.perf_counter() + seconds
    while True:
        n = i - start
        done = n >= min_ops and time.perf_counter() >= deadline
        if recorder is not None:
            done = done and n % n_seq == 0 and n >= 2 * n_seq
        if done:
            return i, failed
        traced = recorder is not None and (n // n_seq) % 2 == 1
        if traced:
            with spans.tracing(recorder):
                recorder.begin_op(f"q{i}")
                span = recorder.open("bench.op")
                try:
                    elapsed, tr = runner.run(i)
                finally:
                    recorder.close(span)
            recorder.flush()
        else:
            elapsed, tr = runner.run(i)
        latencies[traced].append(elapsed)
        if not runner.check(i, tr):
            failed += 1
        i += 1


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """Run one workload; returns the report with its metrics and output checks.

    Scratch files live under ``root/.e2ebench_work`` until the run ends;
    a traced run writes its spans under ``root/.e2ebench_out``.
    """
    workload = WORKLOADS[name]
    (root / ".e2ebench_work").mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=root / ".e2ebench_work"))
    try:
        return _run(workload, seed, seconds, trace, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(workload, seed, seconds, trace, root, work) -> dict:
    shape = workload.shape
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(CONFIG), encoding="utf-8")
    videos = []
    for vi in range(workload.n_videos):
        raw = work / f"v{vi:02d}" / "raw"
        questions = write_video(shape, [seed, vi], raw)
        videos.append(Video(raw, raw.parent / "store", raw.parent / "index", shape.duration_s, questions))
    load = workload.op == "query"

    recorder = spans.Recorder()
    runner = Runner(workload, videos, cfg_path)
    warmup = len(runner.sequence) if load else 2
    # Set-up and timed blocks alternate, so that both sample the whole run
    # and not one stretch of it: the host's speed drifts over tens of
    # seconds. A traced run sets up once and traces that set-up.
    blocks = 1 if trace else SETUP_REPEATS
    setup_times = []
    latencies = {False: [], True: []}
    block_latencies = []
    failed = 0
    i = 0
    for _ in range(blocks):
        runner.runtimes = None  # free the previous set-up's runtimes first
        gc.collect()
        with spans.tracing(recorder) if trace else contextlib.nullcontext():
            elapsed, runner.runtimes = _setup(videos, cfg_path, load)
        recorder.flush()
        setup_times.append(elapsed)
        for _ in range(warmup):
            runner.check(i, runner.run(i)[1])
            i += 1
        block = {False: [], True: []}
        i, block_failed = _timed(
            runner, i, seconds / blocks, -(-MIN_OPS // blocks), block,
            recorder if trace else None,
        )
        failed += block_failed
        block_latencies.append(block[False])
        for traced in (False, True):
            latencies[traced] += block[traced]
    attempted = len(latencies[False]) + len(latencies[True])
    setup_s = statistics.median(setup_times)
    index_mb = _dir_mb([v.index for v in videos])

    untraced = latencies[False]
    report = {
        "workload": workload.name,
        "why": workload.why,
        "shape": {"n_videos": workload.n_videos, **vars(shape)},
        "seed": seed,
        "trace": trace,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "bundle_digest": runner.digest(),
        "samples": len(untraced),
    }
    p50 = statistics.median(untraced) * 1000
    if trace:
        overhead_ms = statistics.median(latencies[True]) * 1000 - p50
        report["per_layer"] = layer_metrics(recorder, len(latencies[True]), overhead_ms)
        out_dir = root / ".e2ebench_out"
        out_dir.mkdir(exist_ok=True)
        recorder.write(out_dir / f"spans-{workload.name}-seed{seed}.jsonl")
        return report
    if workload.op == "query":
        report["named"] = {
            "query_p50_ms": (p50, "ms"),
            "query_p95_ms": (_quantile(untraced, 20) * 1000, "ms"),
            # One client with no think time: questions per second of waiting.
            "queries_per_s": (len(untraced) / sum(untraced), "1/s"),
        }
    else:
        report["named"] = {
            "answer_p50_ms": (p50, "ms"),
            "answer_p90_ms": (_quantile(untraced, 10) * 1000, "ms"),
        }
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report["named"].update(
        setup_s=(setup_s, "s"),
        error_rate=(report["error_rate"], "ratio"),
        peak_rss_mb=(peak_rss_mb, "MB"),
        index_mb=(index_mb, "MB"),
    )
    # Per block, to show how the host's speed moved during the run.
    report["blocks"] = [
        {"n": len(b), "p50_ms": statistics.median(b) * 1000, "p90_ms": _quantile(b, 10) * 1000}
        for b in block_latencies
    ]
    report["end_to_end"] = {
        "setup_s": setup_s,
        "latency_p50_ms": p50,
        "peak_rss_mb": peak_rss_mb,
        "index_mb": index_mb,
    }
    return report


# --- per-layer metrics from the spans ---------------------------------------------


def layer_metrics(recorder: spans.Recorder, n_ops: int, overhead_ms: float) -> dict[str, float]:
    """Per-layer numbers from one traced run.

    ``.ms`` values are milliseconds per timed operation (a question, or a
    whole ``answer`` on cold_answer). ``.s`` values are seconds where the
    layer runs: per timed operation when it runs inside one (cold_answer
    loads the index on every answer), otherwise per set-up.
    """
    in_op: dict[str, list[spans.Span]] = {}
    in_setup: dict[str, list[spans.Span]] = {}
    for s in recorder.spans:
        (in_setup if s.op == "setup" else in_op).setdefault(s.name, []).append(s)
    self_s = spans.self_times(recorder.spans)

    def op_ms(name):
        return sum(s.duration for s in in_op.get(name, ())) / n_ops * 1000

    def setup_s(name):
        return sum(s.duration for s in in_setup.get(name, ()))

    def where_s(name):
        return op_ms(name) / 1000 if name in in_op else setup_s(name)

    def per_op(name):
        return len(in_op.get(name, ())) / n_ops

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in in_op.get(name, ()))

    def attr_mean(name, key):
        calls = len(in_op.get(name, ()))
        return attr_sum(name, key) / calls if calls else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    dense_in = attr_sum("pipeline.dense_accept", "in")
    dense_kept = attr_sum("pipeline.dense_accept", "kept")
    provider_errors = sum(
        s.error for s in recorder.spans
        if s.name.startswith("providers.") or s.name == "vectorindex.HashEmbedder.embed"
    )
    return {
        "bench.op.ms": op_ms("bench.op"),
        "pipeline.run_query.ms": op_ms("pipeline.run_query"),
        "pipeline.run_query.self_ms": sum(
            self_s[s.id] for s in in_op.get("pipeline.run_query", ())
        ) / n_ops * 1000,
        "pipeline.retrieve_channel.ms": op_ms("pipeline.retrieve_channel"),
        "pipeline.dense_accept.ms": op_ms("pipeline.dense_accept"),
        "pipeline.dense_accept.rejected": (dense_in - dense_kept) / n_ops,
        "pipeline.dense_accept.kept_ratio": ratio(dense_kept, dense_in),
        "pipeline.decouple_query.ms": op_ms("pipeline.decouple_query"),
        "pipeline.augment_query.ms": op_ms("pipeline.augment_query"),
        "pipeline.compose.ms": op_ms("pipeline.compose"),
        "pipeline.compose.trimmed_hits": attr_sum("pipeline.compose", "trimmed_hits") / n_ops,
        "pipeline.answer.ms": op_ms("pipeline.answer"),
        "textindex.search.ms": op_ms("textindex.search"),
        "textindex.search.pool": attr_mean("textindex.search", "positive_hits"),
        "kernels.bm25_accumulate.ms": op_ms("kernels.bm25_accumulate"),
        "textindex.build_index.s": setup_s("textindex.build_index"),
        "textindex.save_index.s": setup_s("textindex.save_index"),
        "textindex.load_index.s": where_s("textindex.load_index"),
        "vectorindex.HashEmbedder.embed.ms": op_ms("vectorindex.HashEmbedder.embed"),
        "vectorindex.HashEmbedder.embed.s": setup_s("vectorindex.HashEmbedder.embed"),
        "vectorindex.save_vectors.s": setup_s("vectorindex.save_vectors"),
        "vectorindex.load_index.s": where_s("vectorindex.load_index"),
        "rescore.compute_anchors.ms": op_ms("rescore.compute_anchors"),
        "rescore.rescore.ms": op_ms("rescore.rescore"),
        "rescore.top_k.ms": op_ms("rescore.top_k"),
        "rescore.candidates": attr_mean("rescore.rescore", "candidates"),
        "frames.select_keyframes.ms": op_ms("frames.select_keyframes"),
        "frames.detect_on_keyframes.ms": op_ms("frames.detect_on_keyframes"),
        "frames.keyframes": attr_mean("frames.select_keyframes", "keyframes"),
        "frames.gate_pass_ratio": ratio(
            attr_sum("frames.select_keyframes", "gate_pass"),
            attr_sum("frames.select_keyframes", "frames"),
        ),
        "ingest.parse_srt.s": where_s("ingest.parse_srt"),
        "ingest.parse_detections_jsonl.s": where_s("ingest.parse_detections_jsonl"),
        "ingest.parse_snippet_jsonl.s": where_s("ingest.parse_snippet_jsonl"),
        "providers.lvlm.calls_per_query": per_op("providers.lvlm"),
        "providers.embed.calls_per_query": per_op("vectorindex.HashEmbedder.embed"),
        "providers.detect.calls_per_query": per_op("providers.detect"),
        "providers.errors": provider_errors,
        "cli.ingest.s": setup_s("cli.ingest"),
        "cli.build.s": setup_s("cli.build"),
        "cli.answer.load_s": where_s("cli.answer.load"),
        "trace.overhead_ms": overhead_ms,
    }
