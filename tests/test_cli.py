import contextlib
import dataclasses
import errno
import hashlib
import io
import json
import math
import os
import shutil
import struct
import sys
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from temporag import cli, evalharness, textindex, vectorindex
from temporag import frames as frames_mod
from temporag.cli import main
from temporag.config import ProviderConfig, RunConfig, load_config
from temporag.errors import ConfigError
from temporag.frames import (
    FrameTable,
    SelectorConfig,
    frame_similarities,
    load_frame_table,
    save_frame_table,
    select_keyframes,
)
from temporag.pipeline import dense_accept, run_query
from temporag.providers import FixtureDetector
from temporag.rescore import compute_anchors
from temporag.textindex import (
    IndexFileReader,
    StringTable,
    build_index,
    load_index,
    save_index,
    tokenize,
)
from temporag.types import Channel, Snippet, snippet_columns
from temporag.vectorindex import HashEmbedder, normalize

from conftest import MALFORMED_EMBEDS, MUTATIONS, NESTED_JSON, STRINGS, mutate_bytes

DEMO = Path(__file__).resolve().parent.parent / "demo"
GOLDEN = Path(__file__).resolve().parent / "data" / "golden"


def run_cli(args):
    return main([str(a) for a in args])


def store_snippets(store: Path, channel: str, duration_s: float = 120.0) -> list[Snippet]:
    """The snippets of one channel's store index, in position order, which is id order."""
    index = load_index(str(store / f"{channel}.bm25"), duration_s)
    assert index.channel == Channel(channel) and index.dim == 0
    return [index.snippet(pos) for pos in range(index.n_docs)]


def store_ids(store: Path, channel: str, duration_s: float = 120.0) -> list[str]:
    return [s.id for s in store_snippets(store, channel, duration_s)]


def build_demo(root: Path, frames: Path = DEMO / "frames.jsonl") -> Path:
    """Ingest and build the demo under ``root``; returns the index directory."""
    store = root / "store"
    index = root / "index"
    rc = run_cli(
        [
            "ingest",
            DEMO / "audio.srt",
            DEMO / "screen_text.jsonl",
            DEMO / "detections.jsonl",
            "--frames",
            frames,
            "--video-id",
            "harbor",
            "--duration-s",
            "120",
            "--out",
            store,
        ]
    )
    assert rc == 0
    rc = run_cli(["build", "--store", store, "--out", index, "--config", DEMO / "config.json"])
    assert rc == 0
    return index


@pytest.fixture()
def built_index(tmp_path):
    return build_demo(tmp_path)


def test_main_runs_the_command_bound_at_call_time(monkeypatch):
    # main builds its parser once, and looks the command up on the module on
    # every call, so a command replaced after the first call is the one run.
    run_cli(["answer", "--nonsense"])
    for argv in (["build", "--store", "s", "--out", "o"], ["answer", "--index", "i", "--query", "q"]):
        calls = []
        monkeypatch.setattr(cli, f"cmd_{argv[0]}", lambda args: calls.append(args.command) or 7)
        assert run_cli(argv) == 7
        assert calls == [argv[0]]


class TestIngest:
    def test_writes_channel_stores(self, tmp_path, capsys):
        out = tmp_path / "store"
        rc = run_cli(
            [
                "ingest",
                DEMO / "audio.srt",
                DEMO / "screen_text.jsonl",
                "--video-id",
                "v",
                "--duration-s",
                "120",
                "--out",
                out,
            ]
        )
        assert rc == 0
        assert sorted(p.name for p in out.iterdir()) == ["asr.bm25", "ocr.bm25", "video.json"]
        assert len(store_ids(out, "asr")) == 13
        stdout = capsys.readouterr().out
        assert "asr: 13 snippets" in stdout
        assert "ocr: 10 snippets" in stdout

    def test_empty_directory_is_error(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = run_cli(
            ["ingest", empty, "--video-id", "v", "--duration-s", "10", "--out", tmp_path / "o"]
        )
        assert rc == 2
        assert "no inputs" in capsys.readouterr().err

    def test_corrupt_line_survives_with_report(self, tmp_path, capsys):
        bad = tmp_path / "mixed.jsonl"
        bad.write_text(
            '{"id": "a", "channel": "ocr", "text": "ok", "t_start": 1, "t_end": 1}\n'
            "{broken\n",
            encoding="utf-8",
        )
        rc = run_cli(
            ["ingest", bad, "--video-id", "v", "--duration-s", "10", "--out", tmp_path / "o"]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "line errors: 1" in captured.out

    def test_det_tagged_line_is_line_error(self, tmp_path, capsys):
        mixed = tmp_path / "mixed.jsonl"
        mixed.write_text(
            '{"id": "a", "channel": "ocr", "text": "x", "t_start": 1, "t_end": 1}\n'
            '{"id": "d", "channel": "det", "text": "person", "t_start": 2, "t_end": 2}\n'
            '{"id": "b", "channel": "ocr", "text": "y", "t_start": 3, "t_end": 3}\n',
            encoding="utf-8",
        )
        out = tmp_path / "store"
        rc = run_cli(["ingest", mixed, "--video-id", "v", "--duration-s", "10", "--out", out])
        assert rc == 0
        captured = capsys.readouterr()
        assert "ocr: 2 snippets" in captured.out
        assert "line errors: 1," in captured.out
        assert f"{mixed}:2: unknown channel tag 'det'" in captured.err
        assert store_ids(out, "ocr", 10.0) == ["a", "b"]

    def test_all_bad_input_is_data_error(self, tmp_path):
        bad = tmp_path / "junk.srt"
        bad.write_text("not a subtitle file at all", encoding="utf-8")
        rc = run_cli(
            ["ingest", bad, "--video-id", "v", "--duration-s", "10", "--out", tmp_path / "o"]
        )
        assert rc == 2

    def test_missing_input_reported_with_file_errors(self, tmp_path, capsys):
        missing = tmp_path / "missing.srt"
        out = tmp_path / "o"
        rc = run_cli(
            ["ingest", DEMO / "audio.srt", missing, "--video-id", "v", "--duration-s", "120",
             "--out", out]
        )
        assert rc == 0
        assert f"{missing}: cannot read" in capsys.readouterr().err
        assert (out / "asr.bm25").exists()
        rc = run_cli(["ingest", missing, "--video-id", "v", "--duration-s", "120", "--out", out])
        assert rc == 2

    def test_non_utf8_jsonl_input_is_file_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b'\xff\xfe{"id": "a"}\n')
        rc = run_cli(["ingest", bad, "--video-id", "v", "--duration-s", "10", "--out", tmp_path / "o"])
        assert rc == 2
        assert f"{bad}: not valid UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, message",
        [(None, "cannot read"), (b'{"frame_index": 1, "t": 1.0, "text": "\xff"}\n', "not valid UTF-8")],
        ids=["missing", "non_utf8"],
    )
    def test_bad_frames_file_is_data_error(self, tmp_path, capsys, content, message):
        frames = tmp_path / "frames.jsonl"
        if content is not None:
            frames.write_bytes(content)
        rc = run_cli(
            ["ingest", DEMO / "audio.srt", "--frames", frames, "--video-id", "v",
             "--duration-s", "120", "--out", tmp_path / "o"]
        )
        assert rc == 2
        assert f"data error: {frames}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "record",
        [
            {"frame_index": "3", "t": 1.0},
            {"frame_index": True, "t": 1.0},
            {"frame_index": -1, "t": 1.0},
            {"frame_index": 1, "t": "1.0"},
            {"frame_index": 1, "t": float("nan")},
            {"frame_index": 1, "t": -50},
            {"frame_index": 1, "t": 120.5},
            {"frame_index": 1, "t": 1.0, "text": 5},
            {"frame_index": 0, "t": 5.0, "text": "harbor"},
            {"frame_index": 2**32, "t": 1.0},
        ],
        ids=["index_str", "index_bool", "index_negative", "t_str", "t_nan", "t_negative",
             "t_past_end", "text_int", "index_duplicate", "index_past_u32"],
    )
    def test_bad_frame_record_is_line_error(self, tmp_path, capsys, record):
        frames = tmp_path / "frames.jsonl"
        frames.write_text(
            '{"frame_index": 0, "t": 0.0, "text": "dock"}\n' + json.dumps(record) + "\n",
            encoding="utf-8",
        )
        out = tmp_path / "store"
        rc = run_cli(
            ["ingest", DEMO / "audio.srt", "--frames", frames, "--video-id", "v",
             "--duration-s", "120", "--out", out]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert f"{frames}:2: " in captured.err
        assert "frames: 1 records" in captured.out
        assert "line errors: 1," in captured.out
        table = load_frame_table(str(out / "frames.tbl"), 120.0)
        assert (table.frame_index.tolist(), table.t.tolist(), list(table.texts)) == (
            [0], [0.0], ["dock"]
        )
        assert table.matrix.shape == (1, 0)  # the store's file holds no rows

    def test_detections_derive_det_channel(self, tmp_path):
        out = tmp_path / "store"
        rc = run_cli(
            [
                "ingest",
                DEMO / "detections.jsonl",
                "--video-id",
                "v",
                "--duration-s",
                "120",
                "--out",
                out,
            ]
        )
        assert rc == 0
        assert sorted(p.name for p in out.iterdir()) == ["detections.tbl", "video.json"]
        assert len(FixtureDetector.load(str(out / "detections.tbl")).frame_index) == 15

    def test_reingest_removes_jsonl_and_stale_tables(self, tmp_path):
        out = tmp_path / "store"
        out.mkdir()
        for name in ("asr.jsonl", "ocr.jsonl", "frames.jsonl", "detections.jsonl", "asr.docs",
                     "ocr.docs", "ocr.bm25", "frames.docs", "frames.tbl", "detections.tbl",
                     "notes.txt"):
            (out / name).write_text("{}\n", encoding="utf-8")
        rc = run_cli(["ingest", DEMO / "audio.srt", "--video-id", "v", "--duration-s", "120",
                      "--out", out])
        assert rc == 0
        assert sorted(p.name for p in out.iterdir()) == ["asr.bm25", "notes.txt", "video.json"]

    def test_duplicate_snippet_id_is_data_error(self, tmp_path, capsys):
        # Two subtitle files both number their cues from asr-000001.
        out, copy = tmp_path / "store", tmp_path / "copy.srt"
        shutil.copyfile(DEMO / "audio.srt", copy)
        rc = run_cli(["ingest", DEMO / "audio.srt", copy, "--video-id", "v", "--duration-s",
                      "120", "--out", out])
        assert rc == 2
        assert "data error: duplicate doc id 'asr-000001'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "times",
        [{"t_start": True, "t_end": 2.5}, {"t_start": 1.0, "t_end": "2.5"},
         {"t_start": float("nan"), "t_end": 2.5}, {"t_start": 1.0, "t_end": 10**400}],
        ids=["t_start_bool", "t_end_str", "t_start_nan", "t_end_past_float"],
    )
    def test_snippet_time_not_a_number_is_line_error(self, tmp_path, capsys, times):
        snippets = tmp_path / "ocr.jsonl"
        good = {"id": "a", "channel": "ocr", "text": "x", "t_start": 1.0, "t_end": 1.0}
        snippets.write_text(json.dumps(good) + "\n" + json.dumps({**good, "id": "b", **times})
                            + "\n", encoding="utf-8")
        out = tmp_path / "store"
        rc = run_cli(["ingest", snippets, "--video-id", "v", "--duration-s", "10", "--out", out])
        assert rc == 0
        captured = capsys.readouterr()
        assert f"{snippets}:2: t_start and t_end must be finite numbers" in captured.err
        assert store_ids(out, "ocr", 10.0) == ["a"]

    def test_snippet_past_duration_is_line_error(self, tmp_path, capsys):
        snippets = tmp_path / "ocr.jsonl"
        good = {"id": "a", "channel": "ocr", "text": "x", "t_start": 1.0, "t_end": 2.0}
        late = {**good, "id": "b", "t_end": 10.5}
        snippets.write_text(json.dumps(good) + "\n" + json.dumps(late) + "\n", encoding="utf-8")
        out = tmp_path / "store"
        rc = run_cli(["ingest", snippets, "--video-id", "v", "--duration-s", "10", "--out", out])
        assert rc == 0
        captured = capsys.readouterr()
        assert f"{snippets}: snippet b: time 10.5 outside [0, 10.0]" in captured.err
        assert "line errors: 1," in captured.out
        assert store_ids(out, "ocr", 10.0) == ["a"]

    def test_vtt_input_and_unsupported_suffix(self, tmp_path, capsys):
        vtt = tmp_path / "talk.vtt"
        vtt.write_text("WEBVTT\n\n00:01.000 --> 00:03.000\nharbor talk\n", encoding="utf-8")
        notes = tmp_path / "notes.txt"
        notes.write_text("harbor notes\n", encoding="utf-8")
        out = tmp_path / "store"
        rc = run_cli(["ingest", vtt, notes, "--video-id", "v", "--duration-s", "10", "--out", out])
        assert rc == 0
        captured = capsys.readouterr()
        assert "asr: 1 snippets" in captured.out
        assert f"{notes}: unsupported input type" in captured.err
        (snippet,) = store_snippets(out, "asr", 10.0)
        assert (snippet.text, snippet.t_start, snippet.t_end) == ("harbor talk", 1.0, 3.0)

    def test_detection_label_not_a_string_is_line_error(self, tmp_path, capsys):
        detections = tmp_path / "detections.jsonl"
        good = {"frame_index": 1, "t": 1.0, "objects": []}
        bad = {"frame_index": 2, "t": 2.0,
               "objects": [{"label": 5, "box": [0.1, 0.1, 0.5, 0.5], "confidence": 0.5}]}
        detections.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
        rc = run_cli(["ingest", detections, "--video-id", "v", "--duration-s", "10",
                      "--out", tmp_path / "store"])
        assert rc == 0
        captured = capsys.readouterr()
        assert f"{detections}:2: detection label must be a non-empty string, got 5" in captured.err
        assert "detections: 1 records" in captured.out


class TestBuild:
    def test_outputs_exist(self, built_index):
        for name in ("asr.bm25", "ocr.bm25", "frames.tbl", "detections.tbl", "video.json"):
            assert (built_index / name).exists(), name
        assert not list(built_index.glob("*.vec"))
        assert not list(built_index.glob("det.*"))
        assert not list(built_index.glob("*.jsonl"))

    def test_deterministic_rebuild_byte_identical(self, tmp_path, built_index):
        second = tmp_path / "index2"
        rc = run_cli(
            [
                "build",
                "--store",
                built_index.parent / "store",
                "--out",
                second,
                "--config",
                DEMO / "config.json",
            ]
        )
        assert rc == 0
        for name in ("asr.bm25", "ocr.bm25", "frames.tbl", "detections.tbl"):
            a = hashlib.sha256((built_index / name).read_bytes()).hexdigest()
            b = hashlib.sha256((second / name).read_bytes()).hexdigest()
            assert a == b, name

    def test_build_under_a_profiler(self, tmp_path, built_index):
        # A profile function holds one more reference to each array a C method is called on.
        previous = sys.getprofile()
        sys.setprofile(lambda *args: None)
        try:
            rc = run_cli(["build", "--store", built_index.parent / "store", "--out",
                          tmp_path / "index2", "--config", DEMO / "config.json"])
        finally:
            sys.setprofile(previous)
        assert rc == 0
        for name in ("asr.bm25", "ocr.bm25", "frames.tbl"):
            assert (tmp_path / "index2" / name).read_bytes() == (built_index / name).read_bytes()

    def test_index_bytes_match_golden(self, built_index):
        # The sha256 of every file a build of the demo writes, pinned across
        # changes to the code: two builds of one tree cannot see their bits drift.
        golden = {}
        for line in (GOLDEN / "demo_index.sha256").read_text(encoding="utf-8").splitlines():
            digest, name = line.split()
            golden[name] = digest
        built = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in built_index.iterdir()
        }
        assert built == golden

    def test_rebuild_removes_files_it_does_not_write(self, tmp_path, built_index, capsys):
        store = tmp_path / "asr_only"
        rc = run_cli(["ingest", DEMO / "audio.srt", "--video-id", "harbor", "--duration-s", "120",
                      "--out", store])
        assert rc == 0
        (built_index / "notes.txt").write_text("kept", encoding="utf-8")
        rc = run_cli(["build", "--store", store, "--out", built_index, "--config",
                      DEMO / "config.json"])
        assert rc == 0
        names = {p.name for p in built_index.iterdir()}
        assert names == {"video.json", "asr.bm25", "frames.tbl", "notes.txt"}
        capsys.readouterr()
        rc = run_cli(["answer", "--index", built_index, "--query", "What is said?",
                      "--config", DEMO / "config.json"])
        assert rc == 2
        assert f"data error: {built_index / 'detections.tbl'} not found" in capsys.readouterr().err

    def test_build_removes_stale_vec(self, built_index):
        # Builds before format version 5 wrote each channel's vectors to a .vec file.
        stale = built_index / "asr.vec"
        stale.write_bytes(b"TVRG")
        rc = run_cli(["build", "--store", built_index.parent / "store", "--out", built_index,
                      "--config", DEMO / "config.json"])
        assert rc == 0
        assert not stale.exists()

    @pytest.mark.parametrize(
        "column, row, value, problem",
        [
            ("t", 3, float("nan"), "frame times outside [0, 120.0]"),
            ("t", 14, 120.5, "frame times outside [0, 120.0]"),
            ("frame_index", 3, 0, "duplicate frame_index"),
            ("t", 3, 0.0, "rows not sorted by (t, frame_index)"),
        ],
        ids=["t_nan", "t_past_duration", "duplicate_frame_index", "unsorted"],
    )
    def test_bad_store_frame_table_is_data_error(self, tmp_path, built_index, capsys, column,
                                                 row, value, problem):
        path = built_index.parent / "store" / "frames.tbl"
        table = load_frame_table(str(path), 120.0)
        columns = {"frame_index": table.frame_index.copy(), "t": table.t.copy()}
        columns[column][row] = value
        save_frame_table(str(path), columns["frame_index"], columns["t"], table.texts)
        rc = run_cli(["build", "--store", path.parent, "--out", tmp_path / "o"])
        assert rc == 2
        assert f"data error: {path}: truncated or corrupt index ({problem})" in (
            capsys.readouterr().err
        )

    def test_index_holds_no_snippet_jsonl(self, built_index):
        assert not (built_index / "asr.jsonl").exists()
        assert not (built_index / "ocr.jsonl").exists()

    @pytest.mark.parametrize(
        "t_start, t_end, problem",
        [
            (float("nan"), 1.0, "times not finite with 0 <= t_start <= t_end"),
            (5.0, 4.0, "times not finite with 0 <= t_start <= t_end"),
            (1.0, 120.5, "a document ends after duration_s 120.0"),
        ],
        ids=["t_start_nan", "inverted", "t_end_past_duration"],
    )
    def test_bad_store_snippet_time_is_data_error(self, tmp_path, built_index, capsys, t_start,
                                                  t_end, problem):
        path = built_index.parent / "store" / "ocr.bm25"
        index = load_index(str(path), 120.0)
        index.t_start, index.t_end = index.t_start.copy(), index.t_end.copy()
        index.t_start[0], index.t_end[0] = t_start, t_end
        save_index(index, str(path))
        rc = run_cli(["build", "--store", path.parent, "--out", tmp_path / "o"])
        assert rc == 2
        assert f"data error: {path}: truncated or corrupt index ({problem})" in (
            capsys.readouterr().err
        )

    def test_store_table_of_the_other_channel_is_data_error(self, tmp_path, built_index, capsys):
        store = built_index.parent / "store"
        shutil.copyfile(store / "asr.bm25", store / "ocr.bm25")
        rc = run_cli(["build", "--store", store, "--out", tmp_path / "o"])
        assert rc == 2
        err = capsys.readouterr().err
        assert (f"data error: {store / 'ocr.bm25'}: truncated or corrupt index "
                "(channel tag 'asr', expected 'ocr')") in err

    def test_non_utf8_detections_is_data_error(self, tmp_path, built_index, capsys):
        path = built_index.parent / "store" / "detections.tbl"
        table = FixtureDetector.load(str(path))
        labels = ["\u00e9" * 2] + list(table.labels)[1:]
        FixtureDetector(table.frame_index, table.object_offsets, labels, table.box,
                        table.confidence).save(str(path))
        # Swap the UTF-8 of the first label for as many bytes that are no UTF-8.
        data = path.read_bytes().replace("\u00e9\u00e9".encode(), b"\xff\xfe\xfd\xfc", 1)
        path.write_bytes(data)
        rc = run_cli(["build", "--store", path.parent, "--out", tmp_path / "o"])
        assert rc == 2
        assert f"data error: {path}: truncated or corrupt index (invalid UTF-8" in (
            capsys.readouterr().err
        )

    def test_store_detection_empty_label_is_data_error(self, tmp_path, built_index, capsys):
        path = built_index.parent / "store" / "detections.tbl"
        table = FixtureDetector.load(str(path))
        labels = [""] + list(table.labels)[1:]
        FixtureDetector(table.frame_index, table.object_offsets, labels, table.box,
                        table.confidence).save(str(path))
        rc = run_cli(["build", "--store", path.parent, "--out", tmp_path / "o"])
        assert rc == 2
        assert f"data error: {path}: truncated or corrupt index (empty label)" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "name",
        ["asr.jsonl", "ocr.jsonl", "frames.jsonl", "detections.jsonl", "asr.docs", "ocr.docs",
         "frames.docs"],
    )
    def test_jsonl_store_is_data_error(self, tmp_path, built_index, capsys, name):
        # A store of an older ingest: without this check it would build an empty index.
        store = built_index.parent / "store"
        (store / name).write_text("{}\n", encoding="utf-8")
        rc = run_cli(["build", "--store", store, "--out", tmp_path / "o"])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"data error: {store / name}: a store file of an older ingest; run ingest again" in err
        assert not (tmp_path / "o").exists()

    def test_build_parses_no_jsonl(self, tmp_path, built_index, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("build parsed JSONL")

        for name in ("parse_snippet_jsonl", "parse_frames_jsonl", "parse_detections_jsonl"):
            monkeypatch.setattr(cli, name, fail)
        rc = run_cli(["build", "--store", built_index.parent / "store", "--out", tmp_path / "o",
                      "--config", DEMO / "config.json"])
        assert rc == 0

    def test_build_tokenizes_each_text_once(self, tmp_path, built_index, monkeypatch):
        # Ingest built the lexical index; build only embeds, and the embedder
        # tokenizes each snippet and frame text once.
        def fail(*args, **kwargs):
            raise AssertionError("build built a lexical index")

        calls = Counter()

        def counting(module):
            real = module.tokenize

            def tokenize(text):
                calls[module.__name__] += 1
                return real(text)

            return tokenize

        for module in (textindex, vectorindex):
            monkeypatch.setattr(module, "tokenize", counting(module))
        monkeypatch.setattr(cli, "build_index", fail)
        rc = run_cli(["build", "--store", built_index.parent / "store", "--out", tmp_path / "o",
                      "--config", DEMO / "config.json"])
        assert rc == 0
        assert calls == {"temporag.vectorindex": 13 + 10 + 15}

    @pytest.mark.parametrize(
        "flag, value", [("--tau", "0.5"), ("--lambda", "1,1,1"), ("--topk", "3"),
                        ("--pool-mult", "2"), ("--fusion", "dense"), ("--budget", "4096")]
    )
    def test_query_flag_is_usage_error(self, tmp_path, built_index, capsys, flag, value):
        # build reads only the config's providers; a query setting would do nothing.
        rc = run_cli(["build", "--store", built_index.parent / "store", "--out", tmp_path / "o",
                      flag, value])
        assert rc == 1
        assert f"error: unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    def test_out_at_the_store_is_usage_error(self, built_index, capsys):
        # Store and index share file names, so building into the store would remove it.
        store = built_index.parent / "store"
        before = sorted(p.name for p in store.iterdir())
        rc = run_cli(["build", "--store", store, "--out", store / ".." / "store"])
        assert rc == 1
        assert "error: --out must not be the --store directory" in capsys.readouterr().err
        assert sorted(p.name for p in store.iterdir()) == before

    def test_missing_store_is_data_error(self, tmp_path):
        rc = run_cli(["build", "--store", tmp_path / "nope", "--out", tmp_path / "o"])
        assert rc == 2


class TestAnswer:
    QUERY = "What does the sign near the marina office say?"

    def test_prints_answer_and_writes_trace(self, built_index, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        rc = run_cli(
            [
                "answer",
                "--index",
                built_index,
                "--query",
                self.QUERY,
                "--config",
                DEMO / "config.json",
                "--trace",
                trace_path,
            ]
        )
        assert rc == 0
        answer = capsys.readouterr().out
        assert "MARINA OFFICE" in answer
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
        assert trace["request"]["ocr"] == "sign near marina office"
        assert trace["anchors"]["t_semantic"] == 88.0

    def test_no_tw_flag_zeroes_lambdas_in_trace(self, built_index, tmp_path):
        trace_path = tmp_path / "trace.json"
        rc = run_cli(
            [
                "answer",
                "--index",
                built_index,
                "--query",
                self.QUERY,
                "--config",
                DEMO / "config.json",
                "--no-tw",
                "--trace",
                trace_path,
            ]
        )
        assert rc == 0
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
        assert trace["lambdas"] == [0.0, 0.0, 0.0]

    def test_tau_one_empties_evidence(self, built_index, tmp_path):
        trace_path = tmp_path / "trace.json"
        rc = run_cli(
            [
                "answer",
                "--index",
                built_index,
                "--query",
                self.QUERY,
                "--config",
                DEMO / "config.json",
                "--tau",
                "1.0",
                "--trace",
                trace_path,
            ]
        )
        assert rc == 0
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
        assert trace["channels"]["asr"] == [] and trace["channels"]["ocr"] == []

    def test_answers_without_store(self, built_index, capsys):
        shutil.rmtree(built_index.parent / "store")
        rc = run_cli(
            ["answer", "--index", built_index, "--query", self.QUERY,
             "--config", DEMO / "config.json"]
        )
        assert rc == 0
        assert "MARINA OFFICE" in capsys.readouterr().out

    def test_video_json_with_old_fps_key_loads(self, built_index, capsys):
        # Ingests that took --fps wrote it into video.json; nothing read it.
        meta = built_index / "video.json"
        meta.write_text(json.dumps({**json.loads(meta.read_bytes()), "fps": 25.0}) + "\n",
                        encoding="utf-8")
        rc = run_cli(
            ["answer", "--index", built_index, "--query", self.QUERY,
             "--config", DEMO / "config.json"]
        )
        assert rc == 0
        assert "MARINA OFFICE" in capsys.readouterr().out

    def test_times_near_the_float_limit_answer_strict_json(self, tmp_path, capsys):
        # The midpoint of 1.6e308 and 1.7e308 overflows as a half-sum; it must not
        # reach the trace as Infinity, nor the score as NaN.
        inputs = tmp_path / "screen_text.jsonl"
        inputs.write_text(
            json.dumps({"id": "o1", "channel": "ocr", "text": "marina office sign",
                        "t_start": 1.6e308, "t_end": 1.7e308}) + "\n"
            + json.dumps({"id": "o2", "channel": "ocr", "text": "harbor sign",
                          "t_start": 1.0, "t_end": 2.0}) + "\n",
            encoding="utf-8",
        )
        store, index = tmp_path / "store", tmp_path / "index"
        assert run_cli(["ingest", inputs, "--video-id", "v", "--duration-s", "1.7e308",
                        "--out", store]) == 0
        assert run_cli(["build", "--store", store, "--out", index]) == 0
        capsys.readouterr()
        assert run_cli(["answer", "--index", index, "--query", self.QUERY, "--json"]) == 0

        def reject(constant):
            raise AssertionError(f"answer --json printed {constant}")

        trace = json.loads(capsys.readouterr().out, parse_constant=reject)["trace"]
        (hit,) = trace["channels"]["ocr"]
        assert (hit["id"], hit["t_mid"], hit["score"]) == ("o1", 1.6e308 / 2 + 1.7e308 / 2, 1.0)

    def test_reads_no_snippet_jsonl(self, built_index, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("answer parsed snippet JSONL")

        monkeypatch.setattr(cli, "parse_snippet_jsonl", fail)
        rc = run_cli(
            ["answer", "--index", built_index, "--query", self.QUERY,
             "--config", DEMO / "config.json"]
        )
        assert rc == 0

    def test_reads_no_frame_or_detection_jsonl(self, built_index, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("answer parsed frame or detection JSONL")

        monkeypatch.setattr(cli, "parse_frames_jsonl", fail)
        monkeypatch.setattr(cli, "parse_detections_jsonl", fail)
        rc = run_cli(
            ["answer", "--index", built_index, "--query", self.QUERY,
             "--config", DEMO / "config.json"]
        )
        assert rc == 0

    def test_decodes_no_id_table_whole(self, tmp_path, monkeypatch):
        # The demo store plus filler documents, so that each id table holds
        # more entries than one answer may decode from it.
        store, index = tmp_path / "store", tmp_path / "index"
        assert run_cli(
            ["ingest", DEMO / "audio.srt", DEMO / "screen_text.jsonl", DEMO / "detections.jsonl",
             "--frames", DEMO / "frames.jsonl", "--video-id", "harbor", "--duration-s", "120",
             "--out", store]
        ) == 0
        for channel in Channel:
            filler = [Snippet(f"{channel.value}-filler-{i:04d}", channel, f"filler{i} quay{i % 7}",
                              1.0, 2.0) for i in range(300)]
            docs = store_snippets(store, channel.value) + filler
            save_index(build_index(snippet_columns(docs)), str(store / f"{channel.value}.bm25"))
        assert run_cli(["build", "--store", store, "--out", index,
                        "--config", DEMO / "config.json"]) == 0

        names = {}  # id of each loaded table -> (file name, position in the file)
        tables = []  # keeps every table alive, so no id is reused
        decoded = Counter()
        real_string_table = IndexFileReader.string_table
        real_getitem = StringTable.__getitem__

        def string_table(reader, n):
            table = real_string_table(reader, n)
            name = Path(reader.path).name
            names[id(table)] = (name, sum(1 for f, _ in names.values() if f == name))
            tables.append(table)
            return table

        def getitem(table, i):
            decoded[names[id(table)]] += 1
            return real_getitem(table, i)

        monkeypatch.setattr(IndexFileReader, "string_table", string_table)
        monkeypatch.setattr(StringTable, "__getitem__", getitem)
        trace_path = tmp_path / "trace.json"
        rc = run_cli(
            ["answer", "--index", index, "--query", self.QUERY, "--config", DEMO / "config.json",
             "--trace", trace_path]
        )
        assert rc == 0
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
        pool = trace["top_k"] * trace["pool_multiplier"]
        sizes = {names[id(t)]: len(t) for t in tables}
        for channel in ("asr", "ocr"):
            request = trace["request"][channel] or ""
            n_docs = sizes[(f"{channel}.bm25", 1)]
            depth = n_docs.bit_length() + 1
            bounds = {
                (f"{channel}.bm25", 1): pool,  # doc ids: the returned pool
                (f"{channel}.bm25", 3): len(tokenize(request)) * depth,  # tokens: bisections
            }
            for table, bound in bounds.items():
                assert bound < sizes[table], table
                assert decoded[table] <= bound, table

    @pytest.mark.parametrize("damage", ["token_order", "duplicate_doc_id", "doc_id_order"])
    def test_unsorted_id_table_is_data_error(self, built_index, capsys, damage):
        path = built_index / "ocr.bm25"
        index = load_index(str(path), 120.0)
        column = "tokens" if damage == "token_order" else "doc_ids"
        table = list(getattr(index, column))
        if damage == "duplicate_doc_id":
            table[4] = table[3]
        else:
            table[3], table[4] = table[4], table[3]
        if column == "tokens":
            problem = "token table not strictly sorted"
        else:
            problem = "doc ids not unique and sorted"
        setattr(index, column, table)
        save_index(index, str(path))
        rc = run_cli(
            ["answer", "--index", built_index, "--query", self.QUERY,
             "--config", DEMO / "config.json"]
        )
        assert rc == 2
        assert f"data error: {path}: truncated or corrupt index ({problem})" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("name", ["frames.tbl", "detections.tbl"])
    def test_missing_table_is_data_error(self, built_index, capsys, name):
        path = built_index / name
        path.unlink()
        rc = run_cli(
            ["answer", "--index", built_index, "--query", self.QUERY,
             "--config", DEMO / "config.json"]
        )
        assert rc == 2
        assert f"data error: {path} not found" in capsys.readouterr().err

    @pytest.mark.parametrize("fusion", ["lexical", "dense", "max_fuse"])
    def test_dim_0_with_documents_is_data_error(self, built_index, capsys, fusion):
        # Documents without dense rows, as in a store: no fusion mode can filter or rank them.
        path = built_index / "ocr.bm25"
        shutil.copyfile(built_index.parent / "store" / "ocr.bm25", path)
        assert load_index(str(path), 120.0).dim == 0
        rc = run_cli(
            ["answer", "--index", built_index, "--query", self.QUERY,
             "--config", DEMO / "config.json", "--fusion", fusion]
        )
        assert rc == 2
        assert f"data error: {path}: no dense rows; run build on this store" in (
            capsys.readouterr().err
        )

    def test_store_frame_table_is_data_error(self, built_index, capsys):
        # The store's frame table holds the frame texts but no dense rows.
        path = built_index / "frames.tbl"
        shutil.copyfile(built_index.parent / "store" / "frames.tbl", path)
        rc = run_cli(
            ["answer", "--index", built_index, "--query", self.QUERY,
             "--config", DEMO / "config.json"]
        )
        assert rc == 2
        assert f"data error: {path}: no dense rows; run build on this store" in (
            capsys.readouterr().err
        )

    def test_index_of_the_other_channel_is_data_error(self, built_index, capsys):
        # An OCR file that holds the ASR channel would quote speech as OCR evidence.
        shutil.copyfile(built_index / "asr.bm25", built_index / "ocr.bm25")
        rc = run_cli(
            ["answer", "--index", built_index, "--query", self.QUERY,
             "--config", DEMO / "config.json"]
        )
        assert rc == 2
        assert (f"data error: {built_index / 'ocr.bm25'}: truncated or corrupt index "
                "(channel tag 'asr', expected 'ocr')") in capsys.readouterr().err

    def test_missing_index_is_data_error(self, tmp_path):
        rc = run_cli(["answer", "--index", tmp_path / "nope", "--query", "q"])
        assert rc == 2

    @pytest.mark.parametrize(
        "name, damage",
        [
            ("asr.bm25", 0.5),
            ("asr.bm25", 0.1),
            ("ocr.bm25", 0.99),
            ("asr.bm25", "matrix_truncated"),
            ("ocr.bm25", "trailing_bytes"),
            ("asr.bm25", "nan"),
            ("ocr.bm25", "inf"),
            ("video.json", b"{not json\n"),
            ("video.json", b'{"video_id": "harbor"}\n'),
            pytest.param("video.json", b'{"video_id": 5, "duration_s": 120.0}\n',
                         id="video.json-id_int"),
            pytest.param("video.json", b'{"video_id": ["a"], "duration_s": 120.0}\n',
                         id="video.json-id_list"),
            pytest.param("video.json", b'{"video_id": "harbor", "duration_s": true}\n',
                         id="video.json-duration_bool"),
            ("frames.tbl", 0.5),
            ("frames.tbl", 0.75),
            ("frames.tbl", "nan"),
            ("frames.tbl", "-inf"),
            pytest.param("frames.tbl", {"t": float("nan")}, id="frames.tbl-t_nan"),
            pytest.param("frames.tbl", {"t": 120.5}, id="frames.tbl-t_past_duration"),
            pytest.param("frames.tbl", {"frame_index": 1}, id="frames.tbl-duplicate_frame_index"),
            ("detections.tbl", 0.5),
            pytest.param("asr.bm25", {"t_start": float("nan")}, id="asr.bm25-t_start_nan"),
            pytest.param("ocr.bm25", {"t_start": 200.0}, id="ocr.bm25-t_start_after_t_end"),
            pytest.param(
                "asr.bm25", {"t_start": 100.0, "t_end": 120.5}, id="asr.bm25-t_end_past_duration"
            ),
        ],
    )
    def test_corrupt_index_file_is_data_error(self, built_index, capsys, name, damage):
        path = built_index / name
        data = path.read_bytes()
        if isinstance(damage, dict) and name == "frames.tbl":  # rewrite the first row
            table = load_frame_table(str(path), math.inf)
            columns = {"frame_index": table.frame_index.copy(), "t": table.t.copy()}
            for column, value in damage.items():
                columns[column][0] = value
            save_frame_table(
                str(path), columns["frame_index"], columns["t"], table.texts, table.matrix
            )
        elif isinstance(damage, dict):  # rewrite the first document's times
            index = load_index(str(path), math.inf)
            for column, value in damage.items():
                times = getattr(index, column).copy()
                times[0] = value
                setattr(index, column, times)
            save_index(index, str(path))
        elif isinstance(damage, float):  # truncate at this fraction of the file
            path.write_bytes(data[: int(len(data) * damage)])
        elif damage == "matrix_truncated":  # the vector matrix ends one f32 short
            path.write_bytes(data[:-4])
        elif damage == "trailing_bytes":
            path.write_bytes(data + bytes(4))
        elif isinstance(damage, str):  # the last f32 of the file's vector matrix
            path.write_bytes(data[:-4] + struct.pack("<f", float(damage)))
        else:
            path.write_bytes(damage)
        rc = run_cli(
            ["answer", "--index", built_index, "--query", self.QUERY,
             "--config", DEMO / "config.json"]
        )
        assert rc == 2
        assert f"data error: {path}" in capsys.readouterr().err

    def test_http_embed_one_call_per_question(self, tmp_path, provider_server):
        server, url = provider_server
        config = tmp_path / "http.json"
        config.write_text(
            json.dumps({"providers": {"embed": "http", "embed_url": url, "detector": "stub"}}),
            encoding="utf-8",
        )
        store = tmp_path / "store"
        index = tmp_path / "index"
        assert run_cli(
            ["ingest", DEMO / "audio.srt", DEMO / "screen_text.jsonl", "--frames",
             DEMO / "frames.jsonl", "--video-id", "harbor", "--duration-s", "120", "--out", store]
        ) == 0
        assert run_cli(["build", "--store", store, "--out", index, "--config", config]) == 0
        trace_path = tmp_path / "trace.json"
        rc = run_cli(
            ["answer", "--index", index, "--query", self.QUERY, "--config", config,
             "--trace", trace_path]
        )
        assert rc == 0
        request = json.loads(trace_path.read_text(encoding="utf-8"))["request"]
        channel_texts = [request[c] for c in ("asr", "ocr") if request[c] is not None]
        assert channel_texts
        assert server.last_request["path"] == "/embed"
        assert server.last_request["payload"]["texts"] == [request["det"], *channel_texts]

    @pytest.mark.parametrize(
        "providers, message",
        [
            ({"lvlm": "http", "lvlm_url": "@server/malformed"},
             "malformed chat completion response: content is NoneType"),
            ({"embed": "http", "embed_url": "@server/malformed"},
             "malformed embed response (could not convert string to float"),
            ({"detector": "http", "detector_url": "@server/malformed"},
             "malformed detect response (box (0.5, 0.1, 0.2, 0.9) violates"),
            *(({"embed": "http", "embed_url": f"@server/{route}"},
               f"malformed embed response ({problem}")
              for route, problem in MALFORMED_EMBEDS.items() if route != "malformed"),
        ],
        ids=["lvlm_null_content", "embed_non_numeric", "detect_bad_box", "embed_zero",
             "embed_nan", "embed_inf", "embed_empty", "embed_ragged", "embed_bool"],
    )
    def test_malformed_provider_response_is_provider_error(
        self, tmp_path, demo_index, provider_server, capsys, providers, message
    ):
        _, url = provider_server
        config = json.loads((DEMO / "config.json").read_text(encoding="utf-8"))
        config["providers"].update(
            {key: value.replace("@server", url) for key, value in providers.items()}
        )
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        rc = run_cli(["answer", "--index", demo_index, "--query", self.QUERY, "--config", cfg])
        assert rc == 3
        assert f"provider error: {message}" in capsys.readouterr().err

    def test_version_1_index_is_data_error(self, built_index, capsys):
        # A version-1 directory, as the loader sees it: each binary file's
        # header carries format version 1.
        for path in built_index.glob("*.bm25"):
            data = bytearray(path.read_bytes())
            data[4:8] = (1).to_bytes(4, "little")
            path.write_bytes(bytes(data))
        rc = run_cli(
            ["answer", "--index", built_index, "--query", self.QUERY,
             "--config", DEMO / "config.json"]
        )
        assert rc == 2
        assert "format version 1, expected 6" in capsys.readouterr().err

    def test_version_1_frame_table_is_data_error(self, built_index, capsys):
        # Version 1 frame tables kept their embeddings in frames.vec.
        path = built_index / "frames.tbl"
        data = bytearray(path.read_bytes())
        data[4:8] = (1).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        rc = run_cli(
            ["answer", "--index", built_index, "--query", self.QUERY,
             "--config", DEMO / "config.json"]
        )
        assert rc == 2
        assert f"data error: {path}: format version 1, expected 3" in capsys.readouterr().err

    def test_version_2_frame_table_is_data_error(self, built_index, capsys):
        # Version 2 frame tables kept a u8 embedded column in place of the frame texts.
        path = built_index / "frames.tbl"
        data = bytearray(path.read_bytes())
        data[4:8] = (2).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        rc = run_cli(
            ["answer", "--index", built_index, "--query", self.QUERY,
             "--config", DEMO / "config.json"]
        )
        assert rc == 2
        assert f"data error: {path}: format version 2, expected 3" in capsys.readouterr().err

    def test_builds_keyframe_records_only(self, tmp_path, monkeypatch):
        # 300 frames, most with text; an answer builds a record for each keyframe.
        frames = tmp_path / "frames.jsonl"
        words = ["harbor", "marina", "office", "sign", "gull", "pier", "boat", "market"]
        frames.write_text(
            "".join(
                json.dumps({"frame_index": i, "t": i * 0.4}
                           | ({"text": f"{words[i % 8]} {words[i * 3 % 8]}"} if i % 5 else {}))
                + "\n"
                for i in range(300)
            ),
            encoding="utf-8",
        )
        index = build_demo(tmp_path, frames)
        assert not (index / "frames.vec").exists()
        built = []
        real_record = frames_mod.FrameRecord

        def record(*args, **kwargs):
            built.append(args)
            return real_record(*args, **kwargs)

        monkeypatch.setattr(frames_mod, "FrameRecord", record)
        trace_path = tmp_path / "trace.json"
        rc = run_cli(
            ["answer", "--index", index, "--query", self.QUERY, "--config", DEMO / "config.json",
             "--trace", trace_path]
        )
        assert rc == 0
        keyframes = json.loads(trace_path.read_text(encoding="utf-8"))["keyframes"]
        max_frames = json.loads((DEMO / "config.json").read_text(encoding="utf-8"))["max_frames"]
        assert 0 < len(keyframes) <= max_frames
        assert len(built) == len(keyframes)

    def test_scans_each_id_table_order_once(self, built_index, monkeypatch):
        # The .bm25 loader scans its doc ids and tokens, and no other id table
        # is read: 2 channels x 2.
        scanned = []
        real = StringTable.is_strictly_sorted

        def spy(table):
            scanned.append(len(table))
            return real(table)

        monkeypatch.setattr(StringTable, "is_strictly_sorted", spy)
        rc = run_cli(
            ["answer", "--index", built_index, "--query", self.QUERY,
             "--config", DEMO / "config.json"]
        )
        assert rc == 0
        assert len(scanned) == 4

    def test_version_4_bm25_is_data_error(self, built_index, capsys):
        # Version 4 directories kept each channel's vectors in a .vec file beside it.
        path = built_index / "asr.bm25"
        data = bytearray(path.read_bytes())
        data[4:8] = (4).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        rc = run_cli(
            ["answer", "--index", built_index, "--query", self.QUERY,
             "--config", DEMO / "config.json"]
        )
        assert rc == 2
        assert f"data error: {path}: format version 4, expected 6" in capsys.readouterr().err

    def test_version_5_bm25_is_data_error(self, built_index, capsys):
        # Version 5 stored the Okapi k1 and b after the channel tag.
        path = built_index / "ocr.bm25"
        data = bytearray(path.read_bytes())
        data[4:8] = (5).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        rc = run_cli(
            ["answer", "--index", built_index, "--query", self.QUERY,
             "--config", DEMO / "config.json"]
        )
        assert rc == 2
        assert f"data error: {path}: format version 5, expected 6" in capsys.readouterr().err

    def test_version_2_bm25_is_data_error(self, built_index, capsys):
        # Version 2 had no text table or time columns; only .bm25 files moved on.
        path = built_index / "ocr.bm25"
        data = bytearray(path.read_bytes())
        data[4:8] = (2).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        rc = run_cli(
            ["answer", "--index", built_index, "--query", self.QUERY,
             "--config", DEMO / "config.json"]
        )
        assert rc == 2
        assert f"data error: {path}: format version 2, expected 6" in capsys.readouterr().err

    def test_version_3_bm25_is_data_error(self, built_index, capsys):
        # Version 3 directories have frames.jsonl and detections.jsonl, not tables.
        path = built_index / "asr.bm25"
        data = bytearray(path.read_bytes())
        data[4:8] = (3).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        rc = run_cli(
            ["answer", "--index", built_index, "--query", self.QUERY,
             "--config", DEMO / "config.json"]
        )
        assert rc == 2
        assert f"data error: {path}: format version 3, expected 6" in capsys.readouterr().err

    @pytest.mark.parametrize("tau", [0.3, -1.0])
    def test_frameless_index_answers_over_the_video_ends(self, tmp_path, capsys, monkeypatch, tau):
        # No frames: anchors at the video's ends and no keyframes at any gate,
        # so the fixture detector, with records for frames 0 and 1, gives no
        # scene graph.
        results = []

        def spy(*args, **kwargs):
            results.append(run_query(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli, "run_query", spy)
        store = tmp_path / "store"
        index = tmp_path / "index"
        assert run_cli(
            ["ingest", DEMO / "audio.srt", DEMO / "screen_text.jsonl", DEMO / "detections.jsonl",
             "--video-id", "v", "--duration-s", "120", "--out", store]
        ) == 0
        assert run_cli(["build", "--store", store, "--out", index]) == 0
        assert len(load_frame_table(str(index / "frames.tbl"), 120.0)) == 0
        capsys.readouterr()
        rc = run_cli(
            ["answer", "--index", index, "--query", self.QUERY, f"--tau={tau}", "--json",
             "--config", DEMO / "config.json"]
        )
        assert rc == 0
        trace = json.loads(capsys.readouterr().out)["trace"]
        assert trace["anchors"] == {"t_first": 0.0, "t_last": 120.0, "t_semantic": 0.0}
        assert trace["keyframes"] == []
        assert results[0].bundle.evidence.scene_graph == ()

    def test_json_output_mode(self, built_index, capsys):
        rc = run_cli(
            [
                "answer",
                "--index",
                built_index,
                "--query",
                self.QUERY,
                "--config",
                DEMO / "config.json",
                "--json",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert {"answer", "trace"} <= set(payload)


class TestEval:
    def test_default_spec_runs(self, tmp_path, capsys):
        out = tmp_path / "reports"
        rc = run_cli(["eval", "--seeds", "2", "--out", out])
        assert rc == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert len(report["rows"]) == 2
        assert report["rows"][0]["recall_at_1"] == 1.0
        assert "recall_at_1" in capsys.readouterr().out

    def test_sweep_writes_monotone_tokens(self, tmp_path):
        out = tmp_path / "sweep"
        rc = run_cli(["eval", "--sweep-tau", "0,0.1,0.2,0.3,0.4,0.5,1.0", "--out", out])
        assert rc == 0
        payload = json.loads((out / "sweep.json").read_text(encoding="utf-8"))
        tokens = [row["aggregate"]["tokens_retained"]["mean"] for row in payload]
        assert all(a >= b for a, b in zip(tokens, tokens[1:]))
        assert tokens[-1] == 0

    @pytest.mark.parametrize("value", ["nan", "inf", "-5", "1e400", "-5,inf"])
    def test_sweep_tau_checked_as_tau(self, capsys, value):
        run_cli(["eval", f"--tau={value.split(',')[-1]}"])
        tau_err = capsys.readouterr().err
        rc = run_cli(["eval", f"--sweep-tau={value}"])
        err = capsys.readouterr().err
        if value in ("-5",):
            assert rc == 0
        else:
            assert rc == 1
            assert "error: tau must be a finite number" in err
            assert err.splitlines()[-1] == tau_err.splitlines()[-1]

    def test_sweep_builds_one_runtime_per_seed(self, monkeypatch, capsys):
        built = []
        real = evalharness.build_runtime

        def spy(corpus, config):
            built.append(corpus.spec.seed)
            return real(corpus, config)

        monkeypatch.setattr(evalharness, "build_runtime", spy)
        rc = run_cli(["eval", "--seeds", "3", "--sweep-tau", "0.5,0,0.3"])
        assert rc == 0
        assert built == [0, 1, 2]
        rows = capsys.readouterr().out.splitlines()[2:]
        assert [float(row.split()[0]) for row in rows] == [0.5, 0.0, 0.3]

    def test_spec_file(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps({"seed": 3, "duration_s": 200.0, "n_snippets": 80, "n_duplicates": 10}),
            encoding="utf-8",
        )
        rc = run_cli(["eval", "--spec", spec, "--seeds", "1", "--out", tmp_path / "r"])
        assert rc == 0

    def test_spec_without_seed_starts_at_seed_zero(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_snippets": 80}), encoding="utf-8")
        rc = run_cli(["eval", "--spec", spec, "--out", tmp_path / "r"])
        assert rc == 0
        report = json.loads((tmp_path / "r" / "report.json").read_text(encoding="utf-8"))
        assert [row["seed"] for row in report["rows"]] == [0]

    @pytest.mark.parametrize(
        "content",
        [None, b"{not json", b'{"n_snippets": "x"}', b'{"seed": -1}', b'{"n_duplicates": 0}',
         b'{"duration_s": 8.0, "n_snippets": 20, "n_duplicates": 2}'],
        ids=["missing", "not_json", "n_snippets_str", "seed_negative", "zero_duplicates",
             "infeasible_placement"],
    )
    def test_bad_spec_is_usage_error(self, tmp_path, capsys, content):
        spec = tmp_path / "spec.json"
        if content is not None:
            spec.write_bytes(content)
        rc = run_cli(["eval", "--spec", spec])
        assert rc == 1
        assert f"error: spec {spec}: " in capsys.readouterr().err

    def test_zero_seeds_is_usage_error(self, capsys):
        rc = run_cli(["eval", "--seeds", "0"])
        assert rc == 1
        assert "error: --seeds must be at least 1" in capsys.readouterr().err

    def test_unknown_spec_key_is_usage_error(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"seed": 1, "wat": 2}), encoding="utf-8")
        rc = run_cli(["eval", "--spec", spec])
        assert rc == 1

    @pytest.mark.parametrize("key", sorted(evalharness.SPEC_LIMITS))
    def test_spec_size_past_its_limit_is_usage_error(self, tmp_path, capsys, key):
        # Checked before gen_corpus loops over the size: 10**9 returns at once.
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({key: 10**9}), encoding="utf-8")
        rc = run_cli(["eval", "--spec", spec])
        assert rc == 1
        limit = evalharness.SPEC_LIMITS[key]
        assert f"error: spec {spec}: {key} must be at most {limit}" in capsys.readouterr().err


@pytest.fixture(scope="module")
def demo_index(tmp_path_factory):
    return build_demo(tmp_path_factory.mktemp("demo"))


def _finite_scores(trace: dict) -> bool:
    values = list(trace["anchors"].values())
    for hits in trace["channels"].values():
        values += [hit[key] for hit in hits for key in ("t_mid", "raw", "decay", "score")]
    return all(math.isfinite(v) for v in values)


def test_dense_accept_matches_per_id_oracle(demo_index):
    # The acceptance rule before dense rows moved into the .bm25 file: look
    # up the document's own unit vector by id, one float64 dot product each.
    config = json.loads((DEMO / "config.json").read_text(encoding="utf-8"))["providers"]
    embedder = HashEmbedder(config["embed_dim"], config["embed_seed"])
    rng = np.random.default_rng(0)
    for channel in ("asr", "ocr"):
        index = load_index(str(demo_index / f"{channel}.bm25"), 120.0)
        ids = list(index.doc_ids)
        by_id = {
            doc_id: normalize(vec).astype(np.float32)
            for doc_id, vec in zip(ids, embedder.embed(list(index.texts)))
        }
        positions = rng.permutation(index.n_docs).tolist()
        queries = [normalize(v) for v in embedder.embed([TestAnswer.QUERY, "harbor sign"])]
        queries += [normalize(rng.standard_normal(index.dim)) for _ in range(3)]
        for q in queries:
            sims = {i: float(np.dot(by_id[i].astype(np.float64), q)) for i in ids}
            # Every threshold a document sits on exactly, so one stray bit flips a decision.
            for tau in [-1.0, 0.0, 0.3, *sims.values()]:
                want = [p for p in positions if sims[ids[p]] >= tau]
                assert dense_accept(index, q, positions, tau) == want


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    name=st.sampled_from(
        ["video.json", "asr.bm25", "ocr.bm25", "frames.tbl", "detections.tbl"]
    ),
    mutations=MUTATIONS,
    fusion=st.sampled_from(["lexical", "dense", "max_fuse"]),
)
def test_answer_over_a_mutated_index_file_exits_0_or_2(demo_index, name, mutations, fusion):
    with tempfile.TemporaryDirectory() as tmp:
        index = Path(tmp) / "index"
        shutil.copytree(demo_index, index)
        path = index / name
        path.write_bytes(mutate_bytes(path.read_bytes(), mutations))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = run_cli(
                ["answer", "--index", index, "--query", TestAnswer.QUERY,
                 "--config", DEMO / "config.json", "--fusion", fusion, "--json"]
            )
    assert rc in (0, 2), err.getvalue()
    if rc == 0:
        assert _finite_scores(json.loads(out.getvalue())["trace"])
    else:
        assert f"data error: {path}" in err.getvalue()


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        assert run_cli(["answer", "--nonsense"]) == 1

    def test_unknown_config_key_is_usage_error(self, tmp_path, built_index):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"mystery_knob": 1}), encoding="utf-8")
        rc = run_cli(["answer", "--index", built_index, "--query", "q", "--config", cfg])
        assert rc == 1

    def test_bad_lambda_flag(self, built_index):
        rc = run_cli(["answer", "--index", built_index, "--query", "q", "--lambda", "1,2"])
        assert rc == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["answer", "--index", "i", "--query", "q", "--lambda", "1,x,1"],
             "--lambda values must be numbers"),
            (["eval", "--sweep-tau", "0.3,x"], "--sweep-tau expects comma-separated numbers"),
            *(
                (["ingest", "a.srt", "--video-id", "v", f"--duration-s={value}", "--out", "o"],
                 f"duration_s must be finite and positive, got {float(value)!r}")
                for value in ("nan", "inf", "0", "-5")
            ),
            (["ingest", "a.srt", "--video-id", "", "--duration-s", "1", "--out", "o"],
             "video_id must be a non-empty string, got ''"),
            (["answer", "--index", "i", "--query", "  "], "query_text must be non-empty"),
        ],
        ids=["lambda", "sweep_tau", "duration_nan", "duration_inf", "duration_zero",
             "duration_negative", "video_id_empty", "query_blank"],
    )
    def test_bad_flag_value_is_usage_error(self, capsys, argv, message):
        assert run_cli(argv) == 1
        assert capsys.readouterr().err.endswith(f"error: {message}\n")

    @pytest.mark.parametrize(
        "flag, key",
        [("--topk", "top_k"), ("--pool-mult", "pool_multiplier"), ("--budget", "budget_tokens")],
    )
    def test_int_flag_overrides_config(self, demo_index, capsys, flag, key):
        argv = ["answer", "--index", demo_index, "--query", "q", "--config", DEMO / "config.json"]
        assert run_cli([*argv, flag, "300"]) == 0
        echo = capsys.readouterr().err.split("effective config: ", 1)[1].splitlines()[0]
        assert json.loads(echo)[key] == 300
        assert run_cli([*argv, flag, "0"]) == 1
        assert f"error: {key} must be a positive integer, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "case, reason",
        [
            ("ingest_out_is_file", "File exists"),
            ("build_out_is_file", "File exists"),
            ("eval_out_is_file", "File exists"),
            ("trace_dir_missing", "No such file or directory"),
            ("video_json_is_dir", "Is a directory"),
            ("bm25_is_dir", "cannot read index (Is a directory)"),
        ],
    )
    def test_unusable_path_is_data_error(self, tmp_path, demo_index, capsys, case, reason):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        answer = ["answer", "--query", "q", "--config", DEMO / "config.json", "--index"]
        if case == "ingest_out_is_file":
            path = taken
            argv = ["ingest", DEMO / "audio.srt", "--video-id", "v", "--duration-s", "120",
                    "--out", taken]
        elif case == "build_out_is_file":
            path, argv = taken, ["build", "--store", demo_index.parent / "store", "--out", taken]
        elif case == "eval_out_is_file":
            path, argv = taken, ["eval", "--out", taken]
        elif case == "trace_dir_missing":
            path = tmp_path / "missing" / "trace.json"
            argv = [*answer, demo_index, "--trace", path]
        else:
            index = tmp_path / "index"
            shutil.copytree(demo_index, index)
            path = index / ("video.json" if case == "video_json_is_dir" else "asr.bm25")
            path.unlink()
            path.mkdir()
            argv = [*answer, index]
        assert run_cli(argv) == 2
        assert f"data error: {path}: {reason}" in capsys.readouterr().err

    def test_failed_write_is_data_error(self, tmp_path, demo_index, capsys, monkeypatch):
        # A write that fails after the open, such as on a full disk, names no path.
        def full(*args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(Path, "write_text", full)
        rc = run_cli(["answer", "--index", demo_index, "--query", "q", "--config",
                      DEMO / "config.json", "--trace", tmp_path / "trace.json"])
        assert rc == 2
        assert capsys.readouterr().err.endswith(f"data error: {os.strerror(errno.ENOSPC)}\n")

    @pytest.mark.parametrize(
        "config, flags",
        [
            ({"tau": float("nan")}, []),
            ({"tau": "x"}, []),
            ({"tau": 10**400}, []),
            ({"lambda0": float("nan")}, []),
            ({"lambda2": float("inf")}, []),
            ({}, ["--lambda", "nan,1,1"]),
        ],
        ids=["tau_nan", "tau_str", "tau_past_float", "lambda0_nan", "lambda2_inf",
             "lambda_flag_nan"],
    )
    def test_non_finite_number_is_usage_error(self, tmp_path, built_index, capsys, config, flags):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        rc = run_cli(["answer", "--index", built_index, "--query", "q", "--config", cfg, *flags])
        assert rc == 1
        assert "must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["build", "answer"])
    @pytest.mark.parametrize(
        "key, value",
        [
            ("embed_seed", -1),
            ("embed_seed", "x"),
            ("embed_seed", 1.5),
            ("embed_seed", True),
            ("embed_dim", "64"),
            ("embed_dim", 10**12),
            ("embed_dim", 4),
            ("embed_dim", True),
        ],
        ids=["seed_negative", "seed_str", "seed_float", "seed_bool", "dim_str", "dim_huge",
             "dim_small", "dim_bool"],
    )
    def test_bad_embed_setting_is_usage_error(self, tmp_path, built_index, capsys, command,
                                              key, value):
        config = json.loads((DEMO / "config.json").read_text(encoding="utf-8"))
        config["providers"][key] = value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        if command == "build":
            args = ["--store", built_index.parent / "store", "--out", tmp_path / "index2"]
        else:
            args = ["--index", built_index, "--query", "q"]
        rc = run_cli([command, *args, "--config", cfg])
        assert rc == 1
        assert f"error: providers.{key} must be a " in capsys.readouterr().err


    # The cases the mutated-config property below found, and the frame counts
    # past numpy's integers, which it rarely draws.
    @pytest.mark.parametrize("command", ["build", "answer"])
    @pytest.mark.parametrize(
        "config, message",
        [
            ({"fusion": []}, "fusion must be one of"),
            ({"time_norm": []}, "time_norm must be one of"),
            ({"providers": {"lvlm_url": True}}, "providers.lvlm_url must be a string or null"),
            ({"providers": {"embed_url": 5}}, "providers.embed_url must be a string or null"),
            ({"providers": {"detector_url": []}}, "providers.detector_url must be a string"),
            ({"providers": {"embeddings_file": 1.5}}, "unknown provider keys: embeddings_file"),
            ({"providers": {"embed": "file"}}, "providers.embed must be hash or http, got 'file'"),
            ({"providers": {"fixtures_file": "d.jsonl"}}, "unknown provider keys: fixtures_file"),
            ({"n_bins": 2**70, "max_frames": 2**70}, "n_bins must be at most 2**32"),
            ({"max_frames": 10**400}, "max_frames must be at most 2**32"),
            ({"n_frames": 2**32 + 1}, "unknown config keys: n_frames"),
            ({"budget_tokens": 100}, "budget_tokens must be at least 256, got 100"),
            ({"n_bins": 17}, "n_bins (17) must not exceed max_frames (16)"),
            ({"lambda1": -0.5}, "lambda1 must be non-negative"),
            ({"providers": []}, "providers must be an object"),
            ({"providers": {"lvlm": "gpt"}}, "providers.lvlm must be stub or http, got 'gpt'"),
            ({"providers": {"detector": "yolo"}},
             "providers.detector must be stub, http or fixture, got 'yolo'"),
            # JSON booleans are Python ints, but no count.
            ({"top_k": True}, "top_k must be a positive integer, got True"),
            ({"pool_multiplier": True}, "pool_multiplier must be a positive integer, got True"),
            ({"budget_tokens": True}, "budget_tokens must be a positive integer, got True"),
            ({"n_bins": True}, "n_bins must be a positive integer, got True"),
            ({"max_frames": True, "n_bins": 1},
             "max_frames must be a positive integer, got True"),
        ],
        ids=["fusion_list", "time_norm_list", "lvlm_url_bool", "embed_url_int",
             "detector_url_list", "embeddings_file_float", "embed_file_gone",
             "fixtures_file_gone", "n_bins_past_int64", "max_frames_past_float",
             "n_frames_past_u32", "budget_below_compose_minimum", "n_bins_over_max_frames",
             "lambda1_negative", "providers_list", "lvlm_kind_unknown",
             "detector_kind_unknown", "top_k_bool", "pool_multiplier_bool",
             "budget_tokens_bool", "n_bins_bool", "max_frames_bool"],
    )
    def test_mistyped_config_value_is_usage_error(self, tmp_path, demo_index, capsys, command,
                                                  config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        if command == "build":
            args = ["--store", demo_index.parent / "store", "--out", tmp_path / "index"]
        else:
            args = ["--index", demo_index, "--query", "q"]
        rc = run_cli([command, *args, "--config", cfg])
        assert rc == 1
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("route", sorted(MALFORMED_EMBEDS))
    def test_malformed_embed_response_fails_build(self, tmp_path, demo_index, provider_server,
                                                  capsys, route):
        _, url = provider_server
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"providers": {"embed": "http", "embed_url": f"{url}/{route}"}}),
            encoding="utf-8",
        )
        rc = run_cli(["build", "--store", demo_index.parent / "store", "--out",
                      tmp_path / "index", "--config", cfg])
        assert rc == 3
        err = capsys.readouterr().err
        assert f"provider error: malformed embed response ({MALFORMED_EMBEDS[route]}" in err

    def test_config_directory_is_usage_error(self, tmp_path, demo_index, capsys):
        rc = run_cli(["answer", "--index", demo_index, "--query", "q", "--config", tmp_path])
        assert rc == 1
        assert f"error: cannot read config {tmp_path}: " in capsys.readouterr().err

    def test_non_utf8_config_is_usage_error(self, tmp_path, demo_index, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b"\xfb{}")
        rc = run_cli(["answer", "--index", demo_index, "--query", "q", "--config", cfg])
        assert rc == 1
        assert f"error: config {cfg} is not valid JSON" in capsys.readouterr().err


# Each JSON parse site, the exit code and the message it gives for bad JSON.
NESTED_JSON_SITES = [
    ("snippet_first_line", 0, "{path}:1: maximum recursion depth exceeded"),
    ("snippet_later_line", 0, "{path}:2: maximum recursion depth exceeded"),
    ("frames", 0, "{path}:1: maximum recursion depth exceeded"),
    ("config", 1, "error: config {path} is not valid JSON"),
    ("spec", 1, "error: spec {path}: not valid JSON"),
    ("video_json", 2, "data error: {path}: bad video record"),
    ("decouple_response", 0, "decouple response unparseable"),
    ("provider_body", 3, "provider error: {url}/nested/chat/completions returned non-JSON body"),
]


@pytest.mark.parametrize(
    "site, rc, message", NESTED_JSON_SITES, ids=[site for site, _, _ in NESTED_JSON_SITES]
)
def test_json_nested_too_deeply_fails_like_bad_json(
    tmp_path, demo_index, provider_server, capsys, caplog, site, rc, message
):
    _, url = provider_server
    snippet = json.dumps({"id": "o1", "channel": "ocr", "text": "sign", "t_start": 1.0, "t_end": 1.0})
    ingest = ["ingest", "--video-id", "v", "--duration-s", "120", "--out", tmp_path / "store"]
    answer = ["answer", "--index", demo_index, "--query", "What does the sign say?"]
    path = tmp_path / "nested.jsonl"
    if site == "snippet_first_line":
        path.write_text(f"{NESTED_JSON}\n{snippet}\n", encoding="utf-8")
        argv = [*ingest, path]
    elif site == "snippet_later_line":
        path.write_text(f"{snippet}\n{NESTED_JSON}\n", encoding="utf-8")
        argv = [*ingest, path]
    elif site == "frames":
        path.write_text(NESTED_JSON, encoding="utf-8")
        argv = [*ingest, DEMO / "screen_text.jsonl", "--frames", path]
    elif site == "config":
        path.write_text(NESTED_JSON, encoding="utf-8")
        argv = [*answer, "--config", path]
    elif site == "spec":
        path.write_text(NESTED_JSON, encoding="utf-8")
        argv = ["eval", "--spec", path]
    elif site == "video_json":
        index = shutil.copytree(demo_index, tmp_path / "index")
        path = index / "video.json"
        path.write_text(NESTED_JSON, encoding="utf-8")
        argv = ["answer", "--index", index, "--query", "What does the sign say?"]
    else:
        route = {"decouple_response": "nested-content", "provider_body": "nested"}[site]
        config = json.loads((DEMO / "config.json").read_text(encoding="utf-8"))
        config["providers"]["lvlm"] = "http"
        config["providers"]["lvlm_url"] = f"{url}/{route}"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv = [*answer, "--config", path]
    assert run_cli(argv) == rc
    assert message.format(path=path, url=url) in capsys.readouterr().err + caplog.text


@pytest.mark.parametrize("site", ["snippet_first_line", "snippet_later_line", "detections", "frames"])
def test_json_integer_past_the_digit_limit_is_a_line_error(tmp_path, capsys, site):
    # int() refuses more than 4,300 digits with a ValueError, which is no JSONDecodeError.
    big = "1" * 5000
    snippet = json.dumps({"id": "o1", "channel": "ocr", "text": "sign", "t_start": 1.0, "t_end": 1.0})
    detection = json.dumps({"frame_index": 1, "t": 1.0, "objects": []})
    lines = {
        "snippet_first_line": [snippet.replace("1.0}", big + "}"), snippet.replace("o1", "o2")],
        "snippet_later_line": [snippet, snippet.replace("o1", "o2").replace("1.0}", big + "}")],
        "detections": [detection, detection.replace('"t": 1.0', f'"t": {big}')],
        "frames": [json.dumps({"frame_index": 1, "t": 1.0}).replace("1.0", big)],
    }[site]
    path = tmp_path / "input.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    inputs = [DEMO / "screen_text.jsonl", "--frames", path] if site == "frames" else [path]
    rc = run_cli(["ingest", *inputs, "--video-id", "v", "--duration-s", "120",
                  "--out", tmp_path / "store"])
    assert rc == 0
    line_no = 2 if site in ("snippet_later_line", "detections") else 1
    err = capsys.readouterr().err
    assert f"{path}:{line_no}: Exceeds the limit (4300 digits) for integer string conversion" in err


def test_effective_config_echoed_to_stderr(built_index, capsys):
    rc = run_cli(
        [
            "answer",
            "--index",
            built_index,
            "--query",
            "What does the sign say?",
            "--config",
            DEMO / "config.json",
        ]
    )
    assert rc == 0
    assert "effective config:" in capsys.readouterr().err


def _ingest(store: Path, *inputs, frames: bool = True) -> None:
    args = [*inputs, "--video-id", "harbor", "--duration-s", "120", "--out", store]
    if frames:
        args += ["--frames", DEMO / "frames.jsonl"]
    assert run_cli(["ingest", *args]) == 0


class TestEmbedDimMismatch:
    """An index built at one embedding dim and answered at another exits 2 naming the file."""

    QUERY = "what did the narrator mention about the fish market"

    def _build(self, tmp_path, *inputs, frames, providers):
        store, index = tmp_path / "store", tmp_path / "index"
        _ingest(store, *inputs, frames=frames)
        cfg = tmp_path / "build.json"
        cfg.write_text(json.dumps({"providers": providers}), encoding="utf-8")
        assert run_cli(["build", "--store", store, "--out", index, "--config", cfg]) == 0
        return index

    @pytest.mark.parametrize("frames", [False, True], ids=["no_frames", "frames"])
    @pytest.mark.parametrize("fusion", ["lexical", "dense", "max_fuse"])
    def test_hash_dim_checked_at_load(self, tmp_path, capsys, fusion, frames):
        index = self._build(
            tmp_path, DEMO / "audio.srt", frames=frames, providers={"embed_dim": 32}
        )
        rc = run_cli(["answer", "--index", index, "--query", self.QUERY, "--fusion", fusion])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"data error: {index / 'asr.bm25'}: built with embedding dim 32" in err
        assert "gives dim 64" in err

    def test_frame_table_named(self, tmp_path, capsys):
        # No snippet channel: the frame table is the only embedded file.
        index = self._build(
            tmp_path, DEMO / "detections.jsonl", frames=True, providers={"embed_dim": 32}
        )
        assert not (index / "asr.bm25").exists()
        rc = run_cli(["answer", "--index", index, "--query", self.QUERY])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"data error: {index / 'frames.tbl'}: built with embedding dim 32" in err
        assert "gives dim 64" in err

    @pytest.mark.parametrize("frames", [False, True], ids=["no_frames", "frames"])
    @pytest.mark.parametrize("fusion", ["lexical", "dense", "max_fuse"])
    def test_http_dim_checked_on_the_first_query_vector(
        self, tmp_path, capsys, provider_server, fusion, frames
    ):
        _, url = provider_server  # its vectors have dim 8
        index = self._build(
            tmp_path, DEMO / "audio.srt", frames=frames, providers={"embed_dim": 32}
        )
        cfg = tmp_path / "http.json"
        cfg.write_text(
            json.dumps({"providers": {"embed": "http", "embed_url": url, "detector": "stub"}}),
            encoding="utf-8",
        )
        rc = run_cli(
            ["answer", "--index", index, "--query", self.QUERY, "--config", cfg,
             "--fusion", fusion]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert f"data error: {index / 'asr.bm25'}: built with embedding dim 32" in err
        assert "gives dim 8" in err


class TestOneEmbeddingSourcePerBuild:
    def test_nothing_to_embed_makes_no_embedder(self, tmp_path, monkeypatch):
        # Detections and frames without text: an HTTP embedder would exit 3
        # on the unset URL as it is made, and the build makes none.
        monkeypatch.delenv("TEMPORAG_EMBED_URL", raising=False)
        frames = tmp_path / "frames.jsonl"
        frames.write_text(
            "".join(json.dumps({"frame_index": i, "t": i * 8.0}) + "\n" for i in range(15)),
            encoding="utf-8",
        )
        store, index = tmp_path / "store", tmp_path / "index"
        assert run_cli(["ingest", DEMO / "detections.jsonl", "--frames", frames, "--video-id",
                        "harbor", "--duration-s", "120", "--out", store]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"providers": {"embed": "http"}}), encoding="utf-8")
        assert run_cli(["build", "--store", store, "--out", index, "--config", cfg]) == 0
        assert {p.name for p in index.iterdir()} == {"video.json", "frames.tbl", "detections.tbl"}
        assert len(load_frame_table(str(index / "frames.tbl"), 120.0)) == 15

    def test_hash_build_draws_each_distinct_token_once(self, tmp_path, monkeypatch):
        drawn = []
        draw = HashEmbedder._draw

        def spy(self, tokens):
            drawn.extend(tokens)
            return draw(self, tokens)

        monkeypatch.setattr(HashEmbedder, "_draw", spy)
        index = build_demo(tmp_path)
        store = index.parent / "store"
        texts = [s.text for c in ("asr", "ocr") for s in store_snippets(store, c)]
        texts += load_frame_table(str(store / "frames.tbl"), 120.0).texts
        assert len(drawn) == len(set(drawn))
        assert set(drawn) == {token for text in texts for token in tokenize(text) or [""]}


@pytest.fixture(scope="module")
def demo_store(tmp_path_factory):
    store = tmp_path_factory.mktemp("demo_store") / "store"
    _ingest(store, DEMO / "audio.srt", DEMO / "screen_text.jsonl", DEMO / "detections.jsonl")
    return store


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    name=st.sampled_from(["asr.bm25", "ocr.bm25", "frames.tbl", "detections.tbl", "video.json"]),
    mutations=MUTATIONS,
)
def test_build_over_a_mutated_store_file_exits_0_1_or_2(demo_store, name, mutations):
    with tempfile.TemporaryDirectory() as tmp:
        store = Path(tmp) / "store"
        shutil.copytree(demo_store, store)
        path = store / name
        path.write_bytes(mutate_bytes(path.read_bytes(), mutations))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = run_cli(
                ["build", "--store", store, "--out", Path(tmp) / "index",
                 "--config", DEMO / "config.json"]
            )
    assert rc in (0, 1, 2), err.getvalue()


# Frames with unique indices, times from a small set so that equal times
# occur, and texts that may be empty or non-ASCII; possibly no frame at all.
ROUND_TRIP_FRAMES = st.lists(
    st.tuples(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 2.5, 2.5, 61.25, 120.0]), STRINGS),
    max_size=12,
    unique_by=lambda frame: frame[0],
)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(frames=ROUND_TRIP_FRAMES, query=STRINGS)
def test_frame_table_round_trips_from_ingest_to_runtime(frames, query):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        frames_path, cfg_path = root / "frames.jsonl", root / "cfg.json"
        frames_path.write_text(
            "".join(json.dumps({"frame_index": i, "t": t, "text": text}) + "\n"
                    for i, t, text in frames),
            encoding="utf-8",
        )
        cfg_path.write_text(json.dumps({"providers": {"embed_dim": 16}}), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert run_cli(["ingest", DEMO / "audio.srt", "--frames", frames_path,
                            "--video-id", "v", "--duration-s", "120", "--out", root / "s"]) == 0
            assert run_cli(["build", "--store", root / "s", "--out", root / "i",
                            "--config", cfg_path]) == 0
            cfg = load_config(str(cfg_path))
            runtime = cli._load_runtime(root / "i", cfg)
    rows = sorted((t, i, text) for i, t, text in frames)
    texts = [text for _, _, text in rows]
    embedder = HashEmbedder(16, cfg.providers.embed_seed)
    with_text = [text for text in texts if text]
    matrix = embedder.embed(with_text).astype(np.float32) if with_text else np.zeros((0, 0))
    expected = FrameTable([i for _, i, _ in rows], [t for t, _, _ in rows],
                          [text != "" for text in texts], matrix)
    loaded = runtime.frames
    assert loaded.frame_index.tolist() == expected.frame_index.tolist()
    assert loaded.t.tobytes() == expected.t.tobytes()
    assert loaded.embedded.tolist() == expected.embedded.tolist()
    assert loaded.matrix.shape == expected.matrix.shape
    assert loaded.matrix.tobytes() == expected.matrix.tobytes()
    q = embedder.embed([query])[0]
    sims = frame_similarities(loaded, q)
    assert sims.tobytes() == frame_similarities(expected, q).tobytes()
    selector = SelectorConfig(max_frames=4, sim_threshold=0.0, n_bins=2)
    assert select_keyframes(loaded, sims, selector, 120.0) == select_keyframes(
        expected, sims, selector, 120.0
    )
    assert compute_anchors(loaded, sims, 120.0) == compute_anchors(expected, sims, 120.0)


# A config edit sets one key, top-level or under "providers", to any JSON
# value, or deletes it (None), or replaces the whole file (the empty path).
# Strings come from a fixed list: the names the config knows, and two
# placeholders for URLs on this host only, "@server" (the provider_server
# fixture) and "@refused" (a closed port).
CONFIG_STRINGS = st.sampled_from(
    ["", "x", "stub", "http", "hash", "file", "fixture", "lexical", "dense", "max_fuse",
     "raw_seconds", "normalized_by_duration", "@server", "@server/malformed", "@refused"]
)
CONFIG_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | CONFIG_STRINGS,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(CONFIG_STRINGS, children, max_size=3),
    max_leaves=4,
)
CONFIG_KEYS = st.sampled_from(
    [()]
    + [(f.name,) for f in dataclasses.fields(RunConfig)]
    + [("providers", f.name) for f in dataclasses.fields(ProviderConfig)]
    + [("mystery",), ("providers", "mystery")]
)
CONFIG_EDITS = st.lists(
    st.tuples(CONFIG_KEYS, st.none() | st.tuples(CONFIG_VALUES)), min_size=1, max_size=3
)


def edit_config(config, edits):
    for path, value in edits:
        if not path:
            config = value[0] if value else {}
            continue
        owner = config
        for key in path[:-1]:
            owner = owner.get(key) if isinstance(owner, dict) else None
        if not isinstance(owner, dict):
            continue
        if value is None:
            owner.pop(path[-1], None)
        else:
            owner[path[-1]] = value[0]
    return config


# A few milliseconds per eval, where the default spec takes about twice that.
SMALL_SPEC = {"n_snippets": 80, "n_duplicates": 10, "n_frames": 16}


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    command=st.sampled_from(["answer", "build", "eval"]),
    edits=CONFIG_EDITS,
    mutations=st.none() | MUTATIONS,
)
def test_any_mutated_config_exits_0_1_2_or_3(demo_index, provider_server, command, edits,
                                             mutations):
    _, url = provider_server
    config = edit_config(json.loads((DEMO / "config.json").read_text(encoding="utf-8")), edits)
    data = json.dumps(config).encode()
    if mutations is not None:
        data = mutate_bytes(data, mutations)
    # After the mutations, so that none can turn a URL into one off this host.
    data = data.replace(b"@server", url.encode()).replace(b"@refused", b"http://127.0.0.1:9")
    env = {k: v for k, v in os.environ.items() if not k.startswith("TEMPORAG_")}
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, env, clear=True):
        cfg = Path(tmp) / "cfg.json"
        cfg.write_bytes(data)
        if command == "build":
            args = ["--store", demo_index.parent / "store", "--out", Path(tmp) / "index"]
        elif command == "eval":
            spec = Path(tmp) / "spec.json"
            spec.write_text(json.dumps(SMALL_SPEC), encoding="utf-8")
            args = ["--spec", spec]
        else:
            args = ["--index", demo_index, "--query", TestAnswer.QUERY]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = run_cli([command, *args, "--config", cfg])
    assert rc in (0, 1, 2, 3), err.getvalue()


# A spec edit sets one key to any JSON value, deletes it (None) or replaces
# the whole object (the empty path); the keys are the spec's and one unknown.
SPEC_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(["", "x", "crimson", "term001"]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(["seed", "x"]), children, max_size=2),
    max_leaves=4,
)
SPEC_EDITS = st.lists(
    st.tuples(
        st.sampled_from([()] + [(f.name,) for f in dataclasses.fields(evalharness.SyntheticSpec)]
                        + [("mystery",)]),
        st.none() | st.tuples(SPEC_VALUES),
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(edits=SPEC_EDITS, mutations=st.none() | MUTATIONS)
def test_any_mutated_spec_loads_or_is_usage_error(edits, mutations):
    spec = edit_config({"seed": 3, "duration_s": 200.0, "n_snippets": 80, "n_duplicates": 10},
                       edits)
    data = json.dumps(spec).encode()
    if mutations is not None:
        data = mutate_bytes(data, mutations)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_bytes(data)
        try:
            loaded = cli._load_spec(str(path))
        except ConfigError:
            return
    assert isinstance(loaded, evalharness.SyntheticSpec)
    evalharness.gen_corpus(loaded)  # a spec that loads is one the generator can realize
