"""The columnar parsers and ``ingest`` against line-by-line oracles, on byte-mutated inputs.

The oracles are the parsers ``ingest`` had before it parsed into columns:
one ``Snippet`` or record per cue or line, each checked as it is read, and
the ``ingest`` loop that validated one snippet at a time. Two mends are in
both: an hour count past the float range reads as inf, and a JSON integer
past ``int``'s digit limit is a line error; before, each ended in a traceback.
The per-record JSONL checks are copies here, not imports: the code under
test checks each line with its own, so a rule changed there by mistake
cannot agree with itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from temporag.cli import main
from temporag.errors import DataError, TemporagError
from temporag.ingest import (
    parse_detections_jsonl,
    parse_frames_jsonl,
    parse_snippet_jsonl,
    parse_srt,
    parse_vtt,
)
from temporag.types import CHANNELS, Channel, Snippet, VideoRecord
from temporag.types import validate_snippet

from conftest import MUTATIONS, detection_columns, mutate_bytes

# --- the line-by-line oracles ---------------------------------------------------


def _decode(data: bytes) -> str:
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DataError(f"not valid UTF-8 ({exc})") from None


_SRT_TS = re.compile(r"^(\d{2,}):(\d{2}):(\d{2}),(\d{3})$")
_VTT_TS = re.compile(r"^(?:(\d{2,}):)?(\d{2}):(\d{2})\.(\d{3})$")


def _parse_ts(raw, pattern, line_no):
    m = pattern.match(raw.strip())
    if not m:
        raise DataError(f"line {line_no}: bad timestamp {raw.strip()!r}")
    hours = float(m.group(1)) if m.group(1) else 0.0
    minutes, seconds, millis = int(m.group(2)), int(m.group(3)), int(m.group(4))
    if minutes >= 60 or seconds >= 60:
        raise DataError(f"line {line_no}: bad timestamp {raw.strip()!r}")
    return hours * 3600.0 + minutes * 60.0 + seconds + millis / 1000.0


def _cue_blocks(lines):
    blocks, current, start = [], [], 1
    for i, line in enumerate(lines, start=1):
        if line.strip():
            if not current:
                start = i
            current.append(line)
        elif current:
            blocks.append((start, current))
            current = []
    if current:
        blocks.append((start, current))
    return blocks


def _parse_cue_block(start_line, block, pattern):
    timing_offset = next((i for i, line in enumerate(block) if "-->" in line), None)
    if timing_offset is None:
        raise DataError(f"line {start_line}: cue block has no timing line")
    timing_line = block[timing_offset]
    line_no = start_line + timing_offset
    left, _, right = timing_line.partition("-->")
    right = re.split(r"\s", right.strip(), maxsplit=1)[0]
    t_start = _parse_ts(left, pattern, line_no)
    t_end = _parse_ts(right, pattern, line_no)
    if t_end < t_start:
        raise DataError(f"line {line_no}: cue ends before it starts: {timing_line.strip()!r}")
    text = " ".join(part.strip() for part in block[timing_offset + 1 :] if part.strip())
    return t_start, t_end, text


def _asr_snippets(cues):
    return [
        Snippet(id=f"asr-{i:06d}", channel=Channel.ASR, text=text, t_start=t0, t_end=t1)
        for i, (t0, t1, text) in enumerate(cues, start=1)
        if text
    ]


def oracle_srt(data: bytes) -> list[Snippet]:
    cues = [_parse_cue_block(s, b, _SRT_TS) for s, b in _cue_blocks(_decode(data).splitlines())]
    if not cues:
        raise DataError("no SRT cues found")
    return _asr_snippets(cues)


def oracle_vtt(data: bytes) -> list[Snippet]:
    lines = _decode(data).splitlines()
    if not lines or not lines[0].strip().startswith("WEBVTT"):
        raise DataError("file does not start with WEBVTT")
    cues = []
    for i, (start, block) in enumerate(_cue_blocks(lines)):
        if i == 0 and block[0].strip().startswith("WEBVTT"):
            continue
        if block[0].strip().startswith(("NOTE", "STYLE", "REGION")):
            continue
        cues.append(_parse_cue_block(start, block, _VTT_TS))
    if not cues:
        raise DataError("no WebVTT cues found")
    return _asr_snippets(cues)


FRAME_INDEX_LIMIT = 1 << 32
REQUIRED_KEYS = ("id", "channel", "text", "t_start", "t_end")


def is_finite_number(value) -> bool:
    if type(value) not in (int, float):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def snippet_from_obj(obj) -> Snippet:
    if not isinstance(obj, dict):
        raise DataError(f"expected an object, got {type(obj).__name__}")
    missing = [k for k in REQUIRED_KEYS if k not in obj]
    if missing:
        raise DataError(f"missing keys: {', '.join(missing)}")
    if not isinstance(obj["id"], str) or not isinstance(obj["text"], str):
        raise DataError("id and text must be strings")
    if not isinstance(obj["channel"], str):
        raise DataError("channel must be a string")
    if obj["channel"] not in {c.value for c in Channel}:
        raise DataError(f"unknown channel tag {obj['channel']!r}")
    t_start, t_end = obj["t_start"], obj["t_end"]
    if not (is_finite_number(t_start) and is_finite_number(t_end)):
        raise DataError("t_start and t_end must be finite numbers")
    return Snippet(obj["id"], Channel(obj["channel"]), obj["text"], float(t_start), float(t_end))


class OracleObject(NamedTuple):
    label: str
    box: tuple
    confidence: float


class OracleRecord(NamedTuple):
    frame_index: int
    t: float
    objects: tuple


def checked_object(label, box, confidence) -> OracleObject:
    """An object that keeps the rules of a detected object: label, box, then confidence."""
    if not isinstance(label, str) or not label:
        raise DataError(f"detection label must be a non-empty string, got {label!r}")
    x1, y1, x2, y2 = box
    if not (0.0 <= x1 < x2 <= 1.0 and 0.0 <= y1 < y2 <= 1.0):
        raise DataError(f"box {box} violates 0 <= x1 < x2 <= 1, 0 <= y1 < y2 <= 1")
    if not 0.0 <= confidence <= 1.0:
        raise DataError(f"confidence must be within [0, 1], got {confidence}")
    return OracleObject(label, box, confidence)


def detected_objects(entries) -> list[OracleObject]:
    if not isinstance(entries, list):
        raise DataError("objects must be a list")
    objects = []
    for entry in entries:
        try:
            box, confidence = entry["box"], entry["confidence"]
            if not (isinstance(box, list) and all(map(is_finite_number, [*box, confidence]))):
                raise ValueError
            objects.append(checked_object(entry["label"], tuple(map(float, box)), float(confidence)))
        except (KeyError, TypeError, ValueError):
            raise DataError(f"bad detection object: {entry!r}") from None
    return objects


def frame_key(obj, duration_s: float = math.inf) -> tuple[int, float]:
    if not isinstance(obj, dict):
        raise DataError(f"expected an object, got {type(obj).__name__}")
    frame_index, t = obj.get("frame_index"), obj.get("t")
    if type(frame_index) is not int or not 0 <= frame_index < FRAME_INDEX_LIMIT:
        raise DataError(f"frame_index must be an integer within [0, 2**32), got {frame_index!r}")
    if type(t) not in (int, float):
        raise DataError(f"t must be a number, got {t!r}")
    if not (0.0 <= t <= duration_s and is_finite_number(t)):
        raise DataError(f"time {t!r} outside [0, {duration_s!r}]")
    return frame_index, float(t)


def detection_from_obj(obj) -> OracleRecord:
    frame_index, t = frame_key(obj)
    return OracleRecord(frame_index, t, tuple(detected_objects(obj.get("objects"))))


def _jsonl_lines(data, from_obj):
    records, errors = [], []
    for line_no, line in enumerate(_decode(data).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append(from_obj(json.loads(line)))
        except (ValueError, RecursionError, DataError) as exc:
            errors.append((line_no, str(exc)))
    return records, errors


def oracle_snippet_jsonl(data: bytes):
    """(snippets, errors, dropped_empty)."""

    def from_obj(obj):
        snippet = snippet_from_obj(obj)
        return snippet if snippet.text.strip() else None

    records, errors = _jsonl_lines(data, from_obj)
    if errors and not records:
        raise DataError(f"all {len(errors)} lines failed to parse")
    snippets = [s for s in records if s is not None]
    return snippets, errors, len(records) - len(snippets)


def oracle_detections_jsonl(data: bytes):
    records, errors = _jsonl_lines(data, detection_from_obj)
    if errors and not records:
        raise DataError(f"all {len(errors)} lines failed to parse")
    return records, errors


def oracle_frames_jsonl(data: bytes, duration_s: float):
    """((t, frame_index, text) records, errors)."""
    seen = set()

    def from_obj(obj):
        frame_index, t = frame_key(obj, duration_s)
        text = obj.get("text", "")
        if not isinstance(text, str):
            raise DataError(f"text must be a string, got {type(text).__name__}")
        if frame_index in seen:
            raise DataError(f"duplicate frame_index {frame_index}")
        seen.add(frame_index)
        return t, frame_index, text

    return _jsonl_lines(data, from_obj)


def _classify(data: bytes) -> str:
    for line in data.splitlines():
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError):  # UnicodeDecodeError and JSONDecodeError too
            return "snippets"
        return "detections" if isinstance(obj, dict) and "objects" in obj else "snippets"
    return "snippets"


def oracle_ingest(inputs: list[Path], video: VideoRecord, frames: Path | None):
    """The exit code, stdout and stderr of the ingest loop that validated one snippet at a time."""
    out, err = io.StringIO(), io.StringIO()
    by_channel = {c: [] for c in Channel}
    n_detections, file_errors, n_line_errors, n_dropped = 0, [], 0, 0
    for path in inputs:
        try:
            data = path.read_bytes()
            if path.suffix == ".srt":
                snippets = oracle_srt(data)
            elif path.suffix == ".vtt":
                snippets = oracle_vtt(data)
            elif _classify(data) == "detections":
                records, errors = oracle_detections_jsonl(data)
                n_detections += len(records)
                n_line_errors += len(errors)
                for line_no, msg in errors:
                    print(f"{path}:{line_no}: {msg}", file=err)
                continue
            else:
                snippets, errors, dropped = oracle_snippet_jsonl(data)
                n_line_errors += len(errors)
                n_dropped += dropped
                for line_no, msg in errors:
                    print(f"{path}:{line_no}: {msg}", file=err)
        except TemporagError as exc:
            file_errors.append(f"{path}: {exc}")
            continue
        for snippet in snippets:
            try:
                by_channel[snippet.channel].append(validate_snippet(snippet, video))
            except TemporagError as exc:
                n_line_errors += 1
                print(f"{path}: snippet {snippet.id}: {exc}", file=err)
    n_frames = 0
    if frames is not None:
        try:
            records, errors = oracle_frames_jsonl(frames.read_bytes(), video.duration_s)
        except DataError as exc:
            print(f"data error: {frames}: {exc}", file=err)
            return 2, out.getvalue(), err.getvalue()
        n_frames = len(records)
        n_line_errors += len(errors)
        for line_no, msg in errors:
            print(f"{frames}:{line_no}: {msg}", file=err)
    for msg in file_errors:
        print(msg, file=err)
    if sum(map(len, by_channel.values())) + n_detections == 0:
        print("error: no data survived ingestion", file=err)
        return 2, out.getvalue(), err.getvalue()
    for snippets in by_channel.values():
        ids = sorted(s.id for s in snippets)
        repeated = next((b for a, b in zip(ids, ids[1:]) if a == b), None)
        if repeated is not None:
            print(f"data error: duplicate doc id {repeated!r}", file=err)
            return 2, out.getvalue(), err.getvalue()
    for channel in Channel:
        print(f"{channel.value}: {len(by_channel[channel])} snippets", file=out)
    print(f"detections: {n_detections} records", file=out)
    print(f"frames: {n_frames} records", file=out)
    print(f"line errors: {n_line_errors}, empty-text drops: {n_dropped}", file=out)
    return 0, out.getvalue(), err.getvalue()


# --- comparisons ----------------------------------------------------------------


def _outcome(parse, *args):
    """``parse(*args)``, or the message of the ``DataError`` it raised."""
    try:
        return parse(*args)
    except DataError as exc:
        return str(exc)


def _f8(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _snippet_rows(columns) -> tuple:
    return (
        columns.ids,
        [CHANNELS[c] for c in columns.channels.tolist()],
        columns.texts,
        _f8(columns.t_start),
        _f8(columns.t_end),
    )


def _oracle_rows(snippets: list[Snippet]) -> tuple:
    return (
        [s.id for s in snippets],
        [s.channel for s in snippets],
        [s.text for s in snippets],
        _f8([s.t_start for s in snippets]),
        _f8([s.t_end for s in snippets]),
    )


def _detection_rows(columns) -> tuple:
    return (
        columns.frame_index.tolist(),
        columns.n_objects.tolist(),
        columns.labels,
        _f8(columns.box),
        _f8(columns.confidence),
    )


DURATION_S = 90.0


def _same_parse(kind: str, data: bytes) -> None:
    if kind in ("srt", "vtt"):
        got = _outcome({"srt": parse_srt, "vtt": parse_vtt}[kind], data)
        want = _outcome({"srt": oracle_srt, "vtt": oracle_vtt}[kind], data)
        if isinstance(want, str) or isinstance(got, str):
            assert got == want
        else:
            assert _snippet_rows(got) == _oracle_rows(want)
    elif kind == "ocr":
        got, want = _outcome(parse_snippet_jsonl, data), _outcome(oracle_snippet_jsonl, data)
        if isinstance(want, str) or isinstance(got, str):
            assert got == want
        else:
            snippets, errors, dropped = want
            assert (_snippet_rows(got.snippets), got.errors, got.dropped_empty) == (
                _oracle_rows(snippets), errors, dropped
            )
    elif kind == "det":
        got, want = _outcome(parse_detections_jsonl, data), _outcome(oracle_detections_jsonl, data)
        if isinstance(want, str) or isinstance(got, str):
            assert got == want
        else:
            (columns, errors), (records, oracle_errors) = got, want
            assert (_detection_rows(columns), errors) == (
                _detection_rows(detection_columns(records)), oracle_errors
            )
    else:
        got = _outcome(parse_frames_jsonl, data, DURATION_S)
        want = _outcome(oracle_frames_jsonl, data, DURATION_S)
        if isinstance(want, str) or isinstance(got, str):
            assert got == want
        else:
            (frames, errors), (records, oracle_errors) = got, want
            assert (frames.frame_index.tolist(), _f8(frames.t), frames.texts, errors) == (
                [r[1] for r in records], _f8([r[0] for r in records]), [r[2] for r in records],
                oracle_errors,
            )


def _cli_ingest(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


# --- inputs ---------------------------------------------------------------------

SRT = (
    "1\n00:00:01,500 --> 00:00:03,000\nthe harbor at dawn\n\n"
    "2\n00:00:04,000 --> 00:00:06,250\nfirst line\n  second line  \n\n"
    "3\n00:00:07,000 --> 00:00:07,000\n\n"
    "cue-4\n00:01:00,000 --> 00:01:20,999 x\ncafé MÜNCHEN\n"
).encode()
VTT = (
    "WEBVTT\nKind: captions\n\nNOTE a note\n00:00:00.000 --> 00:00:01.000\n\n"
    "intro\n00:01.000 --> 00:02.500 align:start\nhello\nthere\n\n"
    "STYLE\n::cue { color: red }\n\n00:00:03.000 --> 00:00:04.000\r\n日本 text\r\n"
).encode()
OCR = "".join(
    json.dumps(line) + "\n"
    for line in [
        {"id": "ocr-1", "channel": "ocr", "text": "MARINA OFFICE", "t_start": 1, "t_end": 2.5},
        {"id": "ocr-2", "channel": "ocr", "text": "  ", "t_start": 3, "t_end": 3},
        {"id": "asr-spoken", "channel": "asr", "text": "spoken", "t_start": 0.5, "t_end": 1},
        {"id": "ocr-3", "channel": "ocr", "text": "exit", "t_start": 80, "t_end": 89.5, "x": 1},
    ]
).encode()
DETECTIONS = "".join(
    json.dumps(line) + "\n"
    for line in [
        {"frame_index": 0, "t": 0.0, "objects": [
            {"label": "boat", "box": [0.1, 0.2, 0.5, 0.9], "confidence": 0.75},
            {"label": "dog", "box": [0, 0, 1, 1], "confidence": 1}]},
        {"frame_index": 3, "t": 6, "objects": []},
        {"frame_index": 0, "t": 1.5, "objects": [
            {"label": "cat", "box": [0.2, 0.2, 0.3, 0.4], "confidence": 0.5}]},
    ]
).encode()
FRAMES = "".join(
    json.dumps(line) + "\n"
    for line in [
        {"frame_index": 0, "t": 0.0, "text": "the harbor"},
        {"frame_index": 2, "t": 45},
        {"frame_index": 1, "t": 22.5, "text": ""},
        {"frame_index": 3, "t": 90.0, "text": "end"},
    ]
).encode()
CLEAN = {"srt": SRT, "vtt": VTT, "ocr": OCR, "det": DETECTIONS, "frames": FRAMES}
SUFFIX = {"srt": ".srt", "vtt": ".vtt", "ocr": ".jsonl", "det": ".jsonl", "frames": ".jsonl"}


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("ingest_oracle")


@pytest.mark.parametrize("kind", sorted(CLEAN))
def test_clean_inputs_parse(kind):
    # The unmutated inputs parse, so the mutated ones start from working files.
    _same_parse(kind, CLEAN[kind])


@pytest.mark.parametrize("kind", sorted(CLEAN))
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(mutations=MUTATIONS)
def test_mutated_input_parses_and_ingests_as_line_by_line(work_dir, kind, mutations):
    data = mutate_bytes(CLEAN[kind], mutations)
    _same_parse(kind, data)

    path = work_dir / f"mutated{SUFFIX[kind]}"
    path.write_bytes(data)
    companion = work_dir / "companion.jsonl"  # OCR snippets beside every mutated file
    companion.write_bytes(OCR)
    video = VideoRecord("v", DURATION_S)
    if kind == "frames":
        inputs, frames = [companion], path
    else:
        inputs, frames = [path, companion], None
    argv = ["ingest", *map(str, inputs), "--video-id", "v", "--duration-s", str(DURATION_S),
            "--out", str(work_dir / "store")]
    if frames is not None:
        argv += ["--frames", str(frames)]
    assert _cli_ingest(argv) == oracle_ingest(inputs, video, frames)


LS, PS = chr(0x2028), chr(0x2029)  # line and paragraph separators: line breaks to splitlines
# Inputs the byte mutations seldom reach, each parsed by both sides.
EDGE_INPUTS = {
    "run_on_end_timestamp": ("srt", "00:00:01,000 --> 00:00:02,00000:00:03,000 --> 00:00:04,000\nx"),
    "vtt_run_on_note": ("vtt", "WEBVTT\n\n00:01.000 --> 00:02.000NOTE\nx\n"),
    "vtt_note_cue": ("vtt", "WEBVTT\n\nNOTE\n00:01.000 --> 00:02.000\nx\n\n00:03.000 --> 00:04.000\ny"),
    "unicode_breaks": ("srt", f"1\n00:00:01,000 --> 00:00:02,000\na\x85b{LS}c\x1c\n\x1d{PS}d\n"),
    "lines_before_timing": ("srt", "a -> b - c\nid\n00:00:01,000 --> 00:00:02,000\nx\n"),
    "arrow_before_timing": ("srt", "a --> b\n00:00:01,000 --> 00:00:02,000\nx\n"),
    "other_digits": ("srt", "1\n00:0٣:01,000 --> ٠٠:00:05,000\nx\n"),
    "hours_past_floats": ("srt", f"1\n{'9' * 400}:00:01,000 --> {'9' * 400}:00:02,000\nx\n"),
    "whitespace_line": ("srt", "1\n00:00:01,000 --> 00:00:02,000\n\xa0　\n2\n00:00:03,000 --> 00:00:04,000\nx"),
    "carriage_returns": ("srt", "1\r\n00:00:01,000 --> 00:00:02,000\r\r\nx\r\n"),
    "minutes_60": ("srt", "1\n00:00:01,000 --> 00:00:02,000\nx\n\n2\n00:60:00,000 --> 01:00:00,000\ny"),
    "inverted_after_good": ("vtt", "WEBVTT\n\n00:05.000 --> 00:06.000\nx\n\n00:05.000 --> 00:04.000\ny"),
    "huge_json_int": ("ocr", '{"id": "a", "channel": "ocr", "text": "x", "t_start": 1, "t_end": '
                      + "1" * 5000 + '}\n{"id": "b", "channel": "ocr", "text": "y", "t_start": 1, "t_end": 2}'),
    "two_values_on_a_line": ("det", '{"frame_index": 1, "t": 1, "objects": []} {}\n'
                             '{"frame_index": 2, "t": 2, "objects": []}'),
    "bool_and_big_numbers": ("det", '{"frame_index": true, "t": 1, "objects": []}\n'
                             '{"frame_index": 4294967295, "t": 1e308, "objects": []}\n'
                             '{"frame_index": 1, "t": 1, "objects": [{"label": "a", "box": [0, 0, 1, '
                             + "9" * 400 + '], "confidence": 1}]}'),
    "list_line": ("ocr", '[1, 2]\n{"id": "b", "channel": "ocr", "text": "y", "t_start": 1, "t_end": 2}'),
    "two_keys_missing": ("ocr", '{"id": "a", "text": "x", "t_end": 2}\n'
                         '{"id": "b", "channel": "ocr", "text": "y", "t_start": 1, "t_end": 2}'),
    "int_id_unknown_channel": ("ocr", '{"id": 1, "channel": "nope", "text": "x", "t_start": 1, "t_end": 2}\n'
                               '{"id": 2, "channel": 3, "text": "y", "t_start": "1", "t_end": 2}\n'
                               '{"id": "c", "channel": "ocr", "text": "z", "t_start": 1, "t_end": 2}'),
    "empty_label_short_box": ("det", '{"frame_index": 1, "t": 1, "objects": [{"label": "", "box": [0, 0, 1], '
                              '"confidence": 0.5}]}\n{"frame_index": 2, "t": 2, "objects": []}'),
    "non_object_entry": ("det", '{"frame_index": 1, "t": 1, "objects": [{"label": "a", "box": [0, 0, 1, 1], '
                         '"confidence": 1}, 5]}\n{"frame_index": 2, "t": 2, "objects": []}'),
    "bad_text_repeated_index": ("frames", '{"frame_index": 1, "t": 1}\n{"frame_index": 1, "t": 2, "text": 7}\n'
                                '{"frame_index": 1, "t": 3, "text": "x"}'),
    "frame_time_at_the_end": ("frames", '{"frame_index": 1, "t": 90}\n{"frame_index": 1, "t": 5}\n'
                              '{"frame_index": 2, "t": 90.00000000000001}\n{"frame_index": 3, "t": 1, "text": 5}'),
}


@pytest.mark.parametrize("kind, text", EDGE_INPUTS.values(), ids=EDGE_INPUTS.keys())
def test_edge_input_parses_as_line_by_line(kind, text):
    _same_parse(kind, text.encode())


def test_frame_time_that_rounds_onto_the_duration_is_an_error():
    # 2**60 + 1 rounds to 2.0**60 as a float; the check compares it unrounded.
    data = b'{"frame_index": 0, "t": 1152921504606846977}\n{"frame_index": 1, "t": 1152921504606846976}'
    frames, errors = parse_frames_jsonl(data, 2.0**60)
    assert frames.frame_index.tolist() == [1]
    assert errors == [(1, "time 1152921504606846977 outside [0, 1.152921504606847e+18]")]
    assert (frames.frame_index.tolist(), errors) == (
        [r[1] for r in oracle_frames_jsonl(data, 2.0**60)[0]], oracle_frames_jsonl(data, 2.0**60)[1]
    )


def test_rejected_snippets_ingest_as_line_by_line(work_dir):
    # Each check of validate_snippet fails once, between snippets that pass, and
    # an SRT cue repeats an id of the OCR file's ASR snippet.
    lines = [
        {"id": "o1", "channel": "ocr", "text": " kept ", "t_start": 0, "t_end": 90},
        {"id": "o2", "channel": "ocr", "text": "x", "t_start": -0.5, "t_end": 1},
        {"id": "o3", "channel": "ocr", "text": "x", "t_start": 5, "t_end": 4},
        {"id": "o4", "channel": "asr", "text": "x", "t_start": 1, "t_end": 90.5},
        {"id": "o5", "channel": "ocr", "text": "x", "t_start": -0.0, "t_end": 0},
        {"id": "o6", "channel": "asr", "text": "x", "t_start": 1e300, "t_end": 1e301},
        {"id": "asr-000002", "channel": "asr", "text": "x", "t_start": 1, "t_end": 2},
    ]
    snippets = work_dir / "rejected.jsonl"
    snippets.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    (work_dir / "cues.srt").write_bytes(SRT)
    video = VideoRecord("v", DURATION_S)
    for inputs in ([snippets], [snippets, work_dir / "cues.srt"]):
        argv = ["ingest", *map(str, inputs), "--video-id", "v", "--duration-s", str(DURATION_S),
                "--out", str(work_dir / "store")]
        assert _cli_ingest(argv) == oracle_ingest(inputs, video, None)
