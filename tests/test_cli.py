import contextlib
import hashlib
import io
import json
import math
import shutil
import struct
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from temporag import cli, evalharness
from temporag import frames as frames_mod
from temporag.cli import main
from temporag.frames import load_frame_table, save_frame_table
from temporag.textindex import (
    IndexFileReader,
    StringTable,
    load_index,
    pack_strings,
    save_index,
    tokenize,
    write_index_file,
)
from temporag.vectorindex import load_index as load_vec_index
from temporag.vectorindex import save_vectors

from conftest import MUTATIONS, mutate_bytes

DEMO = Path(__file__).resolve().parent.parent / "demo"


def run_cli(args):
    return main([str(a) for a in args])


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
        assert (out / "asr.jsonl").exists()
        assert (out / "ocr.jsonl").exists()
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
        assert [json.loads(line)["id"] for line in (out / "ocr.jsonl").read_text().splitlines()] == ["a", "b"]

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
        assert (out / "asr.jsonl").exists()
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
        assert (out / "frames.jsonl").read_text().splitlines() == [
            '{"frame_index": 0, "t": 0.0, "text": "dock"}'
        ]

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
        assert (out / "detections.jsonl").exists()
        assert not (out / "det.jsonl").exists()


class TestBuild:
    def test_outputs_exist(self, built_index):
        for name in ("asr.bm25", "asr.vec", "ocr.bm25", "ocr.vec", "frames.tbl",
                     "detections.tbl", "video.json"):
            assert (built_index / name).exists(), name
        assert not (built_index / "frames.vec").exists()
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
        for name in ("asr.bm25", "asr.vec", "ocr.bm25", "ocr.vec", "frames.tbl",
                     "detections.tbl"):
            a = hashlib.sha256((built_index / name).read_bytes()).hexdigest()
            b = hashlib.sha256((second / name).read_bytes()).hexdigest()
            assert a == b, name

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
        assert names == {"video.json", "asr.bm25", "asr.vec", "frames.tbl", "notes.txt"}
        capsys.readouterr()
        rc = run_cli(["answer", "--index", built_index, "--query", "What is said?",
                      "--config", DEMO / "config.json"])
        assert rc == 2
        assert f"data error: {built_index / 'detections.tbl'} not found" in capsys.readouterr().err

    def test_bad_store_frame_is_data_error_at_its_line(self, tmp_path, built_index, capsys):
        path = built_index.parent / "store" / "frames.jsonl"
        data = path.read_bytes()
        path.write_bytes(data + b'{"frame_index": 99, "t": NaN}\n')
        rc = run_cli(["build", "--store", path.parent, "--out", tmp_path / "o"])
        assert rc == 2
        line_no = len(data.splitlines()) + 1
        assert f"data error: {path}:{line_no}: time nan outside" in capsys.readouterr().err

    def test_duplicate_store_frame_is_data_error_at_its_line(self, tmp_path, built_index, capsys):
        path = built_index.parent / "store" / "frames.jsonl"
        data = path.read_bytes()
        path.write_bytes(data + b'{"frame_index": 0, "t": 5.0, "text": "harbor"}\n')
        rc = run_cli(["build", "--store", path.parent, "--out", tmp_path / "o"])
        assert rc == 2
        line_no = len(data.splitlines()) + 1
        assert f"data error: {path}:{line_no}: duplicate frame_index 0" in capsys.readouterr().err

    def test_index_holds_no_snippet_jsonl(self, built_index):
        assert not (built_index / "asr.jsonl").exists()
        assert not (built_index / "ocr.jsonl").exists()

    @pytest.mark.parametrize(
        "t_start, t_end",
        [(float("nan"), 1.0), (5.0, 4.0), (1.0, 120.5)],
        ids=["t_start_nan", "inverted", "t_end_past_duration"],
    )
    def test_bad_store_snippet_time_is_data_error(self, tmp_path, built_index, capsys, t_start, t_end):
        path = built_index.parent / "store" / "ocr.jsonl"
        first, *rest = path.read_text(encoding="utf-8").splitlines(keepends=True)
        record = {**json.loads(first), "t_start": t_start, "t_end": t_end}
        path.write_text(json.dumps(record) + "\n" + "".join(rest), encoding="utf-8")
        rc = run_cli(["build", "--store", path.parent, "--out", tmp_path / "o"])
        assert rc == 2
        assert f"data error: {path}: snippet {record['id']!r}: " in capsys.readouterr().err

    def test_non_utf8_detections_is_data_error(self, tmp_path, built_index, capsys):
        path = built_index.parent / "store" / "detections.jsonl"
        path.write_bytes(path.read_bytes() + b"\xff\n")
        rc = run_cli(["build", "--store", path.parent, "--out", tmp_path / "o"])
        assert rc == 2
        assert f"data error: {path}: not valid UTF-8" in capsys.readouterr().err

    def test_missing_store_is_data_error(self, tmp_path):
        rc = run_cli(["build", "--store", tmp_path / "nope", "--out", tmp_path / "o"])
        assert rc == 2

    def test_file_provider_missing_embeddings_named(self, tmp_path, built_index):
        import numpy as np

        from temporag.vectorindex import save_vectors

        pre = tmp_path / "pre.vec"
        save_vectors(str(pre), ["asr-000001"], [np.ones(16, dtype=np.float32)], 16)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"providers": {"embed": "file", "embeddings_file": str(pre)}}),
            encoding="utf-8",
        )
        rc = run_cli(
            [
                "build",
                "--store",
                built_index.parent / "store",
                "--out",
                tmp_path / "o2",
                "--config",
                cfg,
            ]
        )
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
        for channel in ("asr", "ocr"):
            with open(store / f"{channel}.jsonl", "a", encoding="utf-8") as fh:
                for i in range(300):
                    doc = {"id": f"{channel}-filler-{i:04d}", "channel": channel,
                           "text": f"filler{i} quay{i % 7}", "t_start": 1.0, "t_end": 2.0}
                    fh.write(json.dumps(doc) + "\n")
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
            # .vec ids: the pooled ids' rows are their doc positions, found by search.
            assert decoded[(f"{channel}.vec", 0)] == 0

    @pytest.mark.parametrize(
        "damage",
        ["token_order", "duplicate_doc_id", "vec_order", "vec_reordered_doc_ids"],
    )
    def test_unsorted_id_table_is_data_error(self, built_index, capsys, damage):
        if damage.startswith("vec"):
            path = built_index / "asr.vec"
            dense = load_vec_index(str(path))
            ids = list(dense.ids)
            ids[0], ids[1] = ids[1], ids[0]
            if damage == "vec_order":
                ids[1] = "zz-" + ids[1]
            rows = [dense.get(i) if i in dense else dense.get(i[3:]) for i in ids]
            # Written by hand: save_vectors would sort the rows.
            write_index_file(
                str(path), 3, struct.pack("<II", dense.dim, len(ids)), pack_strings(ids),
                b"".join(r.tobytes() for r in rows),
            )
            problem = "duplicate ids or ids out of order"
        else:
            path = built_index / "ocr.bm25"
            index = load_index(str(path))
            column = "tokens" if damage == "token_order" else "doc_ids"
            table = list(getattr(index, column))
            if damage == "token_order":
                table[3], table[4] = table[4], table[3]
                problem = "token table not strictly sorted"
            else:
                table[4] = table[3]
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
    def test_vec_ids_differ_from_bm25_is_data_error(self, built_index, capsys, fusion):
        path = built_index / "ocr.vec"
        dense = load_vec_index(str(path))
        ids = dense.ids
        save_vectors(str(path), [f"x-{i}" for i in ids], [dense.get(i) for i in ids], dense.dim)
        rc = run_cli(
            ["answer", "--index", built_index, "--query", self.QUERY,
             "--config", DEMO / "config.json", "--fusion", fusion]
        )
        assert rc == 2
        assert f"data error: {path}: ids differ" in capsys.readouterr().err

    def test_missing_index_is_data_error(self, tmp_path):
        rc = run_cli(["answer", "--index", tmp_path / "nope", "--query", "q"])
        assert rc == 2

    @pytest.mark.parametrize(
        "name, damage",
        [
            ("asr.bm25", 0.5),
            ("asr.bm25", 0.1),
            ("ocr.bm25", 0.99),
            ("asr.vec", 0.5),
            ("ocr.vec", 0.02),
            ("asr.vec", "nan"),
            ("ocr.vec", "inf"),
            ("video.json", b"{not json\n"),
            ("video.json", b'{"video_id": "harbor"}\n'),
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
                str(path), columns["frame_index"], columns["t"], table.embedded, table.matrix
            )
        elif isinstance(damage, dict):  # rewrite the first document's times
            index = load_index(str(path))
            for column, value in damage.items():
                times = getattr(index, column).copy()
                times[0] = value
                setattr(index, column, times)
            save_index(index, str(path))
        elif isinstance(damage, float):  # truncate at this fraction of the file
            path.write_bytes(data[: int(len(data) * damage)])
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

    def test_file_embed_cannot_answer(self, tmp_path, built_index, capsys):
        config = tmp_path / "file.json"
        config.write_text(json.dumps({"providers": {"embed": "file"}}), encoding="utf-8")
        rc = run_cli(["answer", "--index", built_index, "--query", self.QUERY, "--config", config])
        assert rc == 1
        assert "providers.embed=file cannot embed" in capsys.readouterr().err

    def test_version_1_index_is_data_error(self, built_index, capsys):
        # A version-1 directory, as the loader sees it: each binary file's
        # header carries format version 1.
        for path in [*built_index.glob("*.bm25"), *built_index.glob("*.vec")]:
            data = bytearray(path.read_bytes())
            data[4:8] = (1).to_bytes(4, "little")
            path.write_bytes(bytes(data))
        rc = run_cli(
            ["answer", "--index", built_index, "--query", self.QUERY,
             "--config", DEMO / "config.json"]
        )
        assert rc == 2
        assert "format version 1, expected 3" in capsys.readouterr().err

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
        assert f"data error: {path}: format version 1, expected 2" in capsys.readouterr().err

    def test_builds_keyframe_records_only(self, tmp_path, monkeypatch):
        # 300 frames, most with text; an answer builds a record for each
        # keyframe and no frame id.
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

        def no_frame_ref(frame_index):
            raise AssertionError("answer made a frame id")

        monkeypatch.setattr(frames_mod, "FrameRecord", record)
        monkeypatch.setattr(cli, "_frame_ref", no_frame_ref)
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

    def test_version_2_vec_is_data_error(self, built_index, capsys):
        # Version 2 .vec files kept their rows in the writer's order, not by id.
        path = built_index / "asr.vec"
        data = bytearray(path.read_bytes())
        data[4:8] = (2).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        rc = run_cli(
            ["answer", "--index", built_index, "--query", self.QUERY,
             "--config", DEMO / "config.json"]
        )
        assert rc == 2
        assert f"data error: {path}: format version 2, expected 3" in capsys.readouterr().err

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
        assert f"data error: {path}: format version 2, expected 4" in capsys.readouterr().err

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
        assert f"data error: {path}: format version 3, expected 4" in capsys.readouterr().err

    def test_missing_vector_file_is_data_error(self, built_index, capsys):
        (built_index / "asr.vec").unlink()
        rc = run_cli(
            ["answer", "--index", built_index, "--query", self.QUERY,
             "--config", DEMO / "config.json"]
        )
        assert rc == 2
        assert f"data error: {built_index / 'asr.vec'}: cannot read" in capsys.readouterr().err

    def test_single_synthesized_frame(self, tmp_path, capsys):
        store = tmp_path / "store"
        index = tmp_path / "index"
        assert run_cli(
            ["ingest", DEMO / "audio.srt", DEMO / "screen_text.jsonl",
             "--video-id", "v", "--duration-s", "120", "--out", store]
        ) == 0
        assert run_cli(["build", "--store", store, "--out", index]) == 0
        assert len(load_frame_table(str(index / "frames.tbl"), 120.0)) == 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n_frames": 1, "n_bins": 1, "max_frames": 1}))
        capsys.readouterr()
        rc = run_cli(
            ["answer", "--index", index, "--query", self.QUERY, "--config", config, "--json"]
        )
        assert rc == 0
        trace = json.loads(capsys.readouterr().out)["trace"]
        assert trace["anchors"] == {"t_first": 0.0, "t_last": 0.0, "t_semantic": 0.0}

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

        monkeypatch.setattr(cli, "build_runtime", spy)
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


@pytest.fixture(scope="module")
def demo_index(tmp_path_factory):
    return build_demo(tmp_path_factory.mktemp("demo"))


def _finite_scores(trace: dict) -> bool:
    values = list(trace["anchors"].values())
    for hits in trace["channels"].values():
        values += [hit[key] for hit in hits for key in ("t_mid", "raw", "decay", "score")]
    return all(math.isfinite(v) for v in values)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    name=st.sampled_from(
        ["video.json", "asr.bm25", "asr.vec", "ocr.bm25", "ocr.vec", "frames.tbl",
         "detections.tbl"]
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
