"""Tests of the benchmark itself, on tiny shapes that run in seconds.

Run from the repository root: python3 -m pytest e2ebench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "long_video": corpus.Shape(600.0, 600, 120, 3, 1, 2),
    "short_clips": corpus.Shape(120.0, 40, 16, 3, 1, 2),
    "cold_answer": corpus.Shape(300.0, 200, 60, 3, 1, 2),
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload and send the run's files to tmp_path."""
    for name, shape in TINY.items():
        w = workloads.WORKLOADS[name]
        n_videos = 2 if w.n_videos > 1 else 1
        monkeypatch.setitem(
            workloads.WORKLOADS, name, dataclasses.replace(w, shape=shape, n_videos=n_videos)
        )
    monkeypatch.setattr(run, "ROOT", tmp_path)
    return tmp_path


def _run(capsys, workload: str, trace: int, seed: int = 3) -> list[tuple[dict, dict]]:
    """(report, result) per workload run."""
    rc = run.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0.05", "--trace", str(trace)]
    )
    assert rc == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    return list(zip(lines[::2], lines[1::2]))


def _check_result(result: dict, listed: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= workloads.MIN_OPS
    assert {m["name"]: m["unit"] for m in listed} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def test_one_command_runs_every_workload(tiny, capsys):
    runs = _run(capsys, "all", 0)
    assert [report["workload"] for report, _ in runs] == list(TINY)
    for report, result in runs:
        _check_result(result, SPEC["end_to_end"])
        assert report["error_rate"] == 0.0
        assert len(report["bundle_digest"]) == 64
        assert report["host"]["nproc"] >= 1 and "using_numba" in report["host"]
        named = {"answer_p50_ms", "answer_p90_ms"} if report["workload"] == "cold_answer" else {
            "query_p50_ms", "query_p95_ms", "queries_per_s"}
        assert named | {"setup_s", "error_rate", "peak_rss_mb", "index_mb"} == set(report["named"])
    assert not list((tiny / ".e2ebench_work").iterdir())


@pytest.mark.parametrize("workload", list(TINY))
def test_traced_run_emits_every_per_layer_metric(tiny, capsys, workload):
    [(report, result)] = _run(capsys, workload, 1)
    _check_result(result, SPEC["per_layer"])
    assert result["metrics"]["providers.lvlm.calls_per_query"]["value"] == 3.0
    assert list((tiny / ".e2ebench_out").glob(f"spans-{workload}-*.jsonl"))


def test_same_seed_gives_same_bundle_digest(tiny, capsys):
    [(first, _)] = _run(capsys, "short_clips", 0, seed=5)
    [(second, _)] = _run(capsys, "short_clips", 0, seed=5)
    [(other, _)] = _run(capsys, "short_clips", 0, seed=6)
    assert first["bundle_digest"] == second["bundle_digest"] != other["bundle_digest"]


def test_wrong_needle_answer_counts_as_failed(tiny, capsys, monkeypatch):
    real = workloads.write_video

    def misplanted(shape, seed, raw_dir):
        questions = real(shape, seed, raw_dir)
        wrong = dataclasses.replace(questions[0], needle_id="asr-999999")
        return [wrong, *questions[1:]]

    monkeypatch.setattr(workloads, "write_video", misplanted)
    [(report, result)] = _run(capsys, "long_video", 0)
    assert result["correct"] is False
    assert result["failed"] > 0
    assert report["error_rate"] == result["failed"] / result["attempted"]


def test_traced_run_restores_every_wrapped_function(tiny, capsys):
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in spans.traced_targets()]
    assert len(originals) == len(spans.TRACED)
    _run(capsys, "cold_answer", 1)
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} left wrapped"


def test_tracing_restores_on_error():
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in spans.traced_targets()]
    with pytest.raises(RuntimeError):
        with spans.tracing(spans.Recorder()):
            assert all(vars(o)[a] is not f for o, a, f in originals)
            raise RuntimeError("boom")
    assert all(vars(o)[a] is f for o, a, f in originals)


def test_self_time_subtracts_union_of_overlapping_children():
    parent = spans.Span(1, "p", "q0", None, 0.0, 10.0)
    children = [
        spans.Span(2, "a", "q0", 1, 1.0, 4.0),
        spans.Span(3, "b", "q0", 1, 3.0, 6.0),  # overlaps a, as on two threads
        spans.Span(4, "c", "q0", 1, 8.0, 9.0),
        spans.Span(5, "d", "q0", 4, 8.2, 8.5),  # grandchild: not the parent's child
    ]
    self_s = spans.self_times([parent, *children])
    assert self_s[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert self_s[4] == pytest.approx(1.0 - 0.3)


def test_generator_is_seeded_and_keeps_times_in_range(tmp_path):
    # 3599 * (7200 / 3599) is 7200.000000000001 in floating point.
    shape = corpus.Shape(7200.0, 50, 3600, 2, 1, 2)
    first = corpus.write_video(shape, 4, tmp_path / "a")
    second = corpus.write_video(shape, 4, tmp_path / "b")
    assert first == second
    for name in ("audio.srt", "screen_text.jsonl", "frames.jsonl", "detections.jsonl"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    frames = [json.loads(l) for l in (tmp_path / "a" / "frames.jsonl").read_text().splitlines()]
    assert frames[-1]["t"] == 7200.0
    ocr = [json.loads(l) for l in (tmp_path / "a" / "screen_text.jsonl").read_text().splitlines()]
    assert all(0.0 <= o["t_start"] <= o["t_end"] <= 7200.0 for o in ocr)
    assert [q.kind for q in first] == ["needle", "needle", "browse"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "long_video", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
