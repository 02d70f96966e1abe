"""Parsers for auxiliary-text sources and the scene-graph text renderer.

Supported inputs: SRT and WebVTT subtitles (ASR channel), snippet JSONL
(OCR channel), detection JSONL and frames JSONL. Parsing is total over
the documented grammars: every input yields records or a located error,
never a silent partial loss beyond the documented empty-text drop.

Each parser returns checked columns, not one object per cue or line.
Subtitles are matched by one regular-expression pass over the decoded
file, and each JSONL line is decoded by one scanner call. The type, time,
box and confidence checks then run over whole columns. Only a cue or a
line those checks reject goes through the per-record checks below, which
word its error, so every error, its line number and its order are those
of checking one record at a time.
"""

from __future__ import annotations

import json
import math
import re
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import itemgetter

import numpy as np

from .errors import DataError
from .types import CHANNELS, Channel, SnippetColumns, is_finite_number, snippet_from_obj

# Frame indices are stored as u32 in the index's frame and detection tables.
FRAME_INDEX_LIMIT = 1 << 32


@dataclass(frozen=True)
class DetectedObject:
    """One detected object: label, normalized box, and confidence."""

    label: str
    box: tuple[float, float, float, float]
    confidence: float

    def __post_init__(self):
        if not isinstance(self.label, str) or not self.label:
            raise DataError(f"detection label must be a non-empty string, got {self.label!r}")
        x1, y1, x2, y2 = self.box
        if not (0.0 <= x1 < x2 <= 1.0 and 0.0 <= y1 < y2 <= 1.0):
            raise DataError(f"box {self.box} violates 0 <= x1 < x2 <= 1, 0 <= y1 < y2 <= 1")
        if not 0.0 <= self.confidence <= 1.0:
            raise DataError(f"confidence must be within [0, 1], got {self.confidence}")


@dataclass(frozen=True)
class DetectionRecord:
    """Objects detected on one frame."""

    frame_index: int
    t: float
    objects: tuple[DetectedObject, ...]


@dataclass(frozen=True, eq=False)
class DetectionColumns:
    """Detection records as columns, one row per record, in input order.

    Record ``r`` is on frame ``frame_index[r]`` and holds ``n_objects[r]``
    objects, which follow the objects of the records before it in
    ``labels``, ``box`` (float64 rows ``x1, y1, x2, y2``) and
    ``confidence``. A record's ``t`` is checked, not kept: the detection
    table is keyed by frame index.
    """

    frame_index: np.ndarray
    n_objects: np.ndarray
    labels: list[str]
    box: np.ndarray
    confidence: np.ndarray

    def __len__(self) -> int:
        return len(self.frame_index)

    @classmethod
    def concat(cls, parts: list[DetectionColumns]) -> DetectionColumns:
        """The records of every part, one part after another."""
        parts = [_NO_DETECTIONS, *parts]
        return cls(
            np.concatenate([p.frame_index for p in parts]),
            np.concatenate([p.n_objects for p in parts]),
            list(chain.from_iterable(p.labels for p in parts)),
            np.concatenate([p.box for p in parts]),
            np.concatenate([p.confidence for p in parts]),
        )


_NO_DETECTIONS = DetectionColumns(
    np.zeros(0, np.int64), np.zeros(0, np.int64), [], np.zeros((0, 4)), np.zeros(0)
)


@dataclass(frozen=True, eq=False)
class FrameColumns:
    """Frames JSONL records as columns, one row per record, in input order."""

    frame_index: np.ndarray
    t: np.ndarray
    texts: list[str]

    def __len__(self) -> int:
        return len(self.frame_index)


@dataclass
class JsonlReport:
    """Result of tolerant JSONL parsing: records plus located line errors."""

    snippets: SnippetColumns
    errors: list[tuple[int, str]]
    dropped_empty: int


def _decode(data: bytes) -> str:
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DataError(f"not valid UTF-8 ({exc})") from None


# An int or float strictly between -_FINITE and _FINITE converts to a finite
# float: an int from 2**1024 - 2**970 on rounds to inf. Python compares ints
# and floats exactly, and NaN and the infinities fall outside.
_FINITE = 2**1024 - 2**970
_NUMBERS = (int, float)


def _finite_floats(values: list) -> np.ndarray:
    """Each value as a float64, or NaN where it is no finite number (a bool is none).

    Every check the parsers run on a number fails on NaN.
    """
    if set(map(type, values)) <= {int, float}:
        try:
            out = np.array(values, dtype=np.float64)
        except OverflowError:  # an int past the float range
            pass
        else:
            out[np.isinf(out)] = math.nan
            return out
    return np.array(
        [v if type(v) in _NUMBERS and -_FINITE < v < _FINITE else math.nan for v in values],
        dtype=np.float64,
    )


def _frame_indices(values: list) -> np.ndarray:
    """Each value as an int64, or -1 where it is no int within [0, 2**32) (a bool is none)."""
    return np.array(
        [v if type(v) is int and 0 <= v < FRAME_INDEX_LIMIT else -1 for v in values],
        dtype=np.int64,
    )


# --- subtitles ----------------------------------------------------------------

_SRT_TS = re.compile(r"^(\d{2,}):(\d{2}):(\d{2}),(\d{3})$")
_VTT_TS = re.compile(r"^(?:(\d{2,}):)?(\d{2}):(\d{2})\.(\d{3})$")
_VTT_SKIP = ("NOTE", "STYLE", "REGION")


def _parse_ts(raw: str, pattern: re.Pattern, line_no: int) -> float:
    m = pattern.match(raw.strip())
    if not m:
        raise DataError(f"line {line_no}: bad timestamp {raw.strip()!r}")
    # An hour count past the float range reads as inf, which no video holds.
    hours = float(m.group(1)) if m.group(1) else 0.0
    minutes, seconds, millis = int(m.group(2)), int(m.group(3)), int(m.group(4))
    if minutes >= 60 or seconds >= 60:
        raise DataError(f"line {line_no}: bad timestamp {raw.strip()!r}")
    return hours * 3600.0 + minutes * 60.0 + seconds + millis / 1000.0


def _cue_blocks(lines: list[str]) -> list[tuple[int, list[str]]]:
    """Split lines into blank-separated blocks of (first line number, lines)."""
    blocks = []
    current: list[str] = []
    start = 1
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


def _check_cue_block(start_line: int, block: list[str], pattern: re.Pattern) -> None:
    """Raise the located error of a cue block that does not parse."""
    timing_offset = next((i for i, line in enumerate(block) if "-->" in line), None)
    if timing_offset is None:
        raise DataError(f"line {start_line}: cue block has no timing line")
    timing_line = block[timing_offset]
    line_no = start_line + timing_offset
    left, _, right = timing_line.partition("-->")
    # WebVTT allows cue settings after the end timestamp.
    right = re.split(r"\s", right.strip(), maxsplit=1)[0]
    t_start = _parse_ts(left, pattern, line_no)
    if _parse_ts(right, pattern, line_no) < t_start:
        raise DataError(f"line {line_no}: cue ends before it starts: {timing_line.strip()!r}")


def _raise_cue_error(text: str, pattern: re.Pattern, vtt: bool) -> None:
    """Raise the error of the first cue block, in file order, that does not parse.

    The one-pass match finds that some cue fails, not which one or why;
    this walks the blocks line by line to word the error.
    """
    for i, (start, block) in enumerate(_cue_blocks(text.splitlines())):
        if not (vtt and (i == 0 or block[0].strip().startswith(_VTT_SKIP))):
            _check_cue_block(start, block, pattern)
    raise AssertionError("a cue failed the one-pass match but passes the block checks")


# ``str.splitlines`` breaks a line at "\r\n" and at each of these characters.
_BREAKS = r"\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_LB = rf"(?:\r\n|[{_BREAKS}])"
_W = rf"[^\S{_BREAKS}]"  # whitespace within a line
_REST = rf"[^{_BREAKS}]*"  # the rest of the line
_LINE = rf"(?={_W}*\S){_REST}"  # a line that is not blank
_MORE_LINES = rf"(?:{_LB}{_LINE})*"  # the lines up to the next blank one
_LINE_START = rf"(?<![^{_BREAKS}])"


def _cue_pattern(clock: str) -> str:
    """One cue block that parses, ``clock`` capturing an hour count and ``mm:ss.mmm``.

    Lines without "-->" (a cue number or identifier), then the timing line,
    whose end timestamp may be followed by whitespace and cue settings, then
    the text lines, captured as the first and the rest. Each clock is
    matched whole, as ``_parse_ts`` matches the stripped timestamp; minutes
    and seconds are range-checked after the match. A line before the timing
    line is refused at its start if it holds "-->", so the timing line is
    never taken for one and given back.
    """
    return (
        rf"(?:(?![^{_BREAKS}]*-->){_LINE}{_LB})*"
        rf"{_W}*{clock}{_W}*-->{_W}*{clock}(?:{_W}{_REST})?"
        rf"(?:{_LB}({_LINE})({_MORE_LINES}))?"
    )


# Each match is one block: a cue that parses, captured as (hours, "mm:ss,mmm")
# twice and its text lines; a WebVTT block that is skipped, which captures
# nothing; or any other block, captured last, which fails the file. The first
# two start only at a line's start. Text lines run to the next blank line,
# so a match ends inside a block only when its timing line ends in more than
# whitespace and settings, and the rest of that block is then a failing match.
_SRT_CLOCK = r"(\d{2,}):(\d{2}:\d{2},\d{3})"
_VTT_CLOCK = r"(?:(\d{2,}):)?(\d{2}:\d{2}\.\d{3})"
_VTT_SKIPPED = rf"{_W}*(?:{'|'.join(_VTT_SKIP)}){_REST}{_MORE_LINES}"
_SRT_CUES = re.compile(rf"{_LINE_START}{_cue_pattern(_SRT_CLOCK)}|({_LINE}{_MORE_LINES})")
_VTT_CUES = re.compile(
    rf"{_LINE_START}(?:{_VTT_SKIPPED}|{_cue_pattern(_VTT_CLOCK)})|({_LINE}{_MORE_LINES})"
)
_VTT_HEADER = re.compile(rf"{_W}*WEBVTT{_REST}{_MORE_LINES}")


def _clock_seconds(hours: list[str], clocks: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The seconds of each (hours, "mm:ss,mmm") pair, as ``_parse_ts`` computes them.

    Also whether each has minutes and seconds below 60. An empty hour
    count (a WebVTT clock without one) is zero.
    """
    joined = "".join(clocks)
    if not joined.isascii():  # other decimal digits, which \d and int() both read
        joined = "".join(c if c in ":,." else str(int(c)) for c in joined)
    digits = np.frombuffer(joined.encode("ascii"), dtype=np.uint8).reshape(-1, 9) - np.int64(48)
    minutes = digits[:, 0] * 10 + digits[:, 1]
    seconds = digits[:, 3] * 10 + digits[:, 4]
    millis = digits[:, 6] * 100 + digits[:, 7] * 10 + digits[:, 8]
    whole_hours = np.array([float(h) if h else 0.0 for h in hours], dtype=np.float64)
    t = whole_hours * 3600.0 + minutes * 60.0 + seconds + millis / 1000.0
    return t, (minutes < 60) & (seconds < 60)


def _asr_columns(text: str, start: int, vtt: bool) -> SnippetColumns:
    """The cues of the decoded subtitles ``text`` from offset ``start`` on, as ASR columns.

    The i-th cue, counted from 1, is snippet ``asr-{i:06d}``; cues without
    text are dropped after numbering, so dropping one renames no other.
    Raises the located error of the first cue that does not parse, else a
    ``DataError`` if there is no cue.
    """
    pattern, ts = (_VTT_CUES, _VTT_TS) if vtt else (_SRT_CUES, _SRT_TS)
    matches = pattern.findall(text, start)
    if any(bad for *_, bad in matches):
        _raise_cue_error(text, ts, vtt)
    # One list per group, without skipped blocks, which have no clock. Each
    # intermediate goes once read, which keeps the parse's peak under that
    # of one object per line (tests/test_setup.py bounds it).
    columns = [list(column) for column in zip(*(cue for cue in matches if cue[1]))]
    del matches
    if not columns:
        raise DataError(f"no {'WebVTT' if vtt else 'SRT'} cues found")
    h0, c0, h1, c1, first, rest, _ = columns
    del columns
    t_start, start_ok = _clock_seconds(h0, c0)
    t_end, end_ok = _clock_seconds(h1, c1)
    del h0, c0, h1, c1
    if not np.all(start_ok & end_ok & (t_end >= t_start)):
        _raise_cue_error(text, ts, vtt)
    # The text lines, each stripped, joined by single spaces.
    texts = [
        line.strip() if not more else " ".join(map(str.strip, (line + more).splitlines()))
        for line, more in zip(first, rest)
    ]
    del first, rest
    kept = [i for i, cue_text in enumerate(texts) if cue_text]
    return SnippetColumns(
        [f"asr-{i + 1:06d}" for i in kept],
        np.full(len(kept), CHANNELS.index(Channel.ASR), dtype=np.uint8),
        [texts[i] for i in kept],
        t_start[kept],
        t_end[kept],
    )


def parse_srt(data: bytes) -> SnippetColumns:
    """Parse SubRip subtitles into ASR snippet columns.

    Cue counters are ignored, multi-line text joins with single spaces, and
    a UTF-8 BOM is tolerated. Raises ``DataError`` when no cue is found,
    or naming the line of a malformed cue.
    """
    return _asr_columns(_decode(data), 0, vtt=False)


def parse_vtt(data: bytes) -> SnippetColumns:
    """Parse WebVTT subtitles into ASR snippet columns.

    Same semantics as ``parse_srt`` with dot millisecond separators;
    NOTE/STYLE/REGION blocks are skipped and optional cue identifiers
    tolerated. Hours may be omitted.
    """
    text = _decode(data)
    header = _VTT_HEADER.match(text)
    if header is None:
        raise DataError("file does not start with WEBVTT")
    return _asr_columns(text, header.end(), vtt=True)


# --- JSONL ----------------------------------------------------------------------

_scan_value = json.JSONDecoder().scan_once


@dataclass(frozen=True, eq=False)
class _JsonlRows:
    """The fields of each non-blank line of a JSONL file that decodes, and the errors of the rest.

    ``columns`` holds one list per field, with one entry per decoded line,
    whose number is in ``line_nos``; a line whose value lacks a field has
    ``None`` in every column. ``errors`` are the lines that do not decode.
    """

    data: bytes
    line_nos: list[int]
    columns: list[list]
    errors: list[tuple[int, str]]

    @cached_property
    def _lines(self) -> list[str]:
        return _decode(self.data).splitlines()

    def located(self, rows: np.ndarray, check: Callable, *args) -> list[tuple[int, str]]:
        """The decode errors and the errors of ``rows``, rejected by the column checks, by line.

        A rejected row's value is decoded again, and ``check(value, *args)``,
        the per-record check, words its error.
        """
        errors = list(self.errors)
        for row in rows.tolist():
            line_no = self.line_nos[row]
            try:
                check(json.loads(self._lines[line_no - 1]), *args)
            except DataError as exc:
                errors.append((line_no, str(exc)))
            else:
                raise AssertionError(f"{check.__name__} accepts line {line_no}")
        return sorted(errors)


def _jsonl_rows(data: bytes, fields: Callable[[object], tuple], n_fields: int) -> _JsonlRows:
    """``fields`` of the JSON value of each non-blank line of ``data``.

    A line that is one JSON value and nothing more decodes in one scanner
    call; any other goes through ``json.loads``, which decodes it or words
    its error (an integer past ``int``'s digit limit is one too). Only the
    fields of a value are kept, and ``fields`` raising ``KeyError`` or
    ``TypeError`` (no object, or one without a field it needs) gives
    ``None`` for each. Each line is dropped once read, so the file's lines
    and its fields are never all held at once.
    """
    lines = _decode(data).splitlines()
    lines.reverse()  # popped in file order
    line_nos, rows, errors = [], [], []
    missing = (None,) * n_fields
    line_no = 0
    while lines:
        line = lines.pop()
        line_no += 1
        try:
            value, end = _scan_value(line, 0)
            if end != len(line):
                raise ValueError("more than one value")
        except (StopIteration, ValueError, RecursionError):
            if not line.strip():
                continue
            try:
                value = json.loads(line)
            except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
                errors.append((line_no, str(exc)))
                continue
        line_nos.append(line_no)
        rows.append(_fields_of(fields, value, missing))
    return _JsonlRows(data, line_nos, _columns(rows, n_fields), errors)


def _fields_of(fields: Callable[[object], tuple], value: object, missing: tuple) -> tuple:
    try:
        return fields(value)
    except (KeyError, TypeError):  # no object, or one without a field ``fields`` needs
        return missing


def _columns(rows: list[tuple], n_fields: int) -> list[list]:
    return [list(column) for column in zip(*rows)] if rows else [[] for _ in range(n_fields)]


# --- snippet JSONL ----------------------------------------------------------

_SNIPPET_KEYS = ("id", "channel", "text", "t_start", "t_end")
_snippet_fields = itemgetter(*_SNIPPET_KEYS)
_CHANNEL_CODES = {c.value: code for code, c in enumerate(CHANNELS)}


def parse_snippet_jsonl(data: bytes) -> JsonlReport:
    """Tolerantly parse snippet JSONL into columns, collecting per-line errors.

    A line is checked as ``types.snippet_from_obj`` checks it, which words
    the error of a rejected line. Empty-text lines are dropped and counted.
    The file is rejected (with a ``DataError``) only when lines exist and
    every one fails.
    """
    jsonl = _jsonl_rows(data, _snippet_fields, len(_SNIPPET_KEYS))
    ids, tags, texts, t_start, t_end = jsonl.columns
    t_start, t_end = _finite_floats(t_start), _finite_floats(t_end)
    ok = np.isfinite(t_start) & np.isfinite(t_end)
    ok &= np.array(
        [type(i) is str and type(x) is str and type(c) is str and c in _CHANNEL_CODES
         for i, c, x in zip(ids, tags, texts)],
        dtype=bool,
    )
    errors = jsonl.located(np.flatnonzero(~ok), snippet_from_obj)
    if errors and not ok.any():
        raise DataError(f"all {len(errors)} lines failed to parse")
    rows = [i for i in np.flatnonzero(ok).tolist() if texts[i].strip()]
    snippets = SnippetColumns(
        [ids[i] for i in rows],
        np.array([_CHANNEL_CODES[tags[i]] for i in rows], dtype=np.uint8),
        [texts[i] for i in rows],
        t_start[rows],
        t_end[rows],
    )
    return JsonlReport(snippets, errors, int(ok.sum()) - len(rows))


# --- detections ---------------------------------------------------------------


def _frame_key(obj: object, duration_s: float = math.inf) -> tuple[int, float]:
    """The checked ``frame_index`` and ``t`` of a frames or detection record.

    ``frame_index`` must be an int in [0, 2**32) and ``t`` a finite number
    within [0, duration_s]; a bool is neither. ``duration_s`` defaults to
    no upper bound.
    """
    if not isinstance(obj, dict):
        raise DataError(f"expected an object, got {type(obj).__name__}")
    frame_index, t = obj.get("frame_index"), obj.get("t")
    if type(frame_index) is not int or not 0 <= frame_index < FRAME_INDEX_LIMIT:
        raise DataError(f"frame_index must be an integer within [0, 2**32), got {frame_index!r}")
    if type(t) not in (int, float):
        raise DataError(f"t must be a number, got {t!r}")
    if not (0.0 <= t <= duration_s and is_finite_number(t)):  # NaN fails too
        raise DataError(f"time {t!r} outside [0, {duration_s!r}]")
    return frame_index, float(t)


def detected_objects(entries: object) -> list[DetectedObject]:
    """Check a list of {"label", "box", "confidence"} objects, as stored or as detected.

    The box's four coordinates and the confidence are finite numbers, not
    bools or strings; any other shape, or a ``DetectedObject`` rule broken,
    is a ``DataError``.
    """
    if not isinstance(entries, list):
        raise DataError("objects must be a list")
    objects = []
    for entry in entries:
        try:
            box, confidence = entry["box"], entry["confidence"]
            if not (isinstance(box, list) and all(map(is_finite_number, [*box, confidence]))):
                raise ValueError
            objects.append(
                DetectedObject(
                    label=entry["label"],
                    box=tuple(map(float, box)),
                    confidence=float(confidence),
                )
            )
        except (KeyError, TypeError, ValueError):
            raise DataError(f"bad detection object: {entry!r}") from None
    return objects


def detection_from_obj(obj: object) -> DetectionRecord:
    frame_index, t = _frame_key(obj)
    objects = tuple(detected_objects(obj.get("objects")))
    return DetectionRecord(frame_index=frame_index, t=t, objects=objects)


_record_fields = itemgetter("frame_index", "t", "objects")
_object_fields = itemgetter("label", "box", "confidence")


def parse_detections_jsonl(data: bytes) -> tuple[DetectionColumns, list[tuple[int, str]]]:
    """Tolerantly parse detection JSONL into columns, with the same rules as snippet JSONL.

    A line is checked as ``detection_from_obj`` checks it, which words the
    error of a rejected line.
    """
    jsonl = _jsonl_rows(data, _record_fields, 3)
    frame_index, t, objects = jsonl.columns
    frame_index = _frame_indices(frame_index)
    ok = (frame_index >= 0) & (_finite_floats(t) >= 0.0)
    ok &= np.array([type(entries) is list for entries in objects], dtype=bool)
    # The objects of the records that pass so far, each with its record's position.
    objects = [entries if k else [] for entries, k in zip(objects, ok.tolist())]
    n_objects = np.array(list(map(len, objects)), dtype=np.int64)
    record_of = np.repeat(np.arange(len(objects)), n_objects)
    labels, boxes, confidence = _columns(
        [_fields_of(_object_fields, e, (None,) * 3) for e in chain.from_iterable(objects)], 3
    )
    shaped = [
        type(label) is str and label != "" and type(box) is list and len(box) == 4
        for label, box in zip(labels, boxes)
    ]
    box = _finite_floats(
        list(chain.from_iterable(b if k else (None,) * 4 for b, k in zip(boxes, shaped)))
    ).reshape(-1, 4)
    confidence = _finite_floats(confidence)
    x1, y1, x2, y2 = box.T  # NaN fails every comparison
    fine = np.array(shaped, dtype=bool) & (0.0 <= confidence) & (confidence <= 1.0)
    fine &= (0.0 <= x1) & (x1 < x2) & (x2 <= 1.0) & (0.0 <= y1) & (y1 < y2) & (y2 <= 1.0)
    ok[record_of[~fine]] = False
    errors = jsonl.located(np.flatnonzero(~ok), detection_from_obj)
    if errors and not ok.any():
        raise DataError(f"all {len(errors)} lines failed to parse")
    kept = ok[record_of]
    columns = DetectionColumns(
        frame_index[ok],
        n_objects[ok],
        [labels[j] for j in np.flatnonzero(kept).tolist()],
        box[kept],
        confidence[kept],
    )
    return columns, errors


# --- frames -------------------------------------------------------------------


def _frame_fields(value: object) -> tuple:
    return value["frame_index"], value["t"], value.get("text", "")


def _check_frame(obj: object, duration_s: float) -> None:
    """Raise the error of a frames record whose frame index, time or text is bad."""
    _frame_key(obj, duration_s)
    text = obj.get("text", "")
    if not isinstance(text, str):
        raise DataError(f"text must be a string, got {type(text).__name__}")


def parse_frames_jsonl(
    data: bytes, duration_s: float
) -> tuple[FrameColumns, list[tuple[int, str]]]:
    """Parse frames JSONL into columns plus located line errors.

    A line is {"frame_index", "t", optional "text"}: ``frame_index`` and
    ``t`` are checked as ``_frame_key`` says, ``text`` must be a string
    ("" when absent), and unknown keys are dropped. A record that repeats an
    earlier record's ``frame_index`` is a line error.
    """
    jsonl = _jsonl_rows(data, _frame_fields, 3)
    frame_index, t_given, texts = jsonl.columns
    frame_index = _frame_indices(frame_index)
    t = _finite_floats(t_given)
    ok = (frame_index >= 0) & (0.0 <= t) & (t <= duration_s)
    # ``_frame_key`` compares t unrounded, and an int past 2**53 may round onto duration_s.
    at_end = np.flatnonzero(t == duration_s)
    ok[at_end] &= np.array([t_given[i] <= duration_s for i in at_end.tolist()], dtype=bool)
    ok &= np.array([type(text) is str for text in texts], dtype=bool)
    errors = jsonl.located(np.flatnonzero(~ok), _check_frame, duration_s)
    # A record that repeats the frame index of an earlier one that passed is an error too.
    passed = np.flatnonzero(ok)
    by_index = passed[np.argsort(frame_index[passed], kind="stable")]
    repeats = by_index[1:][frame_index[by_index[1:]] == frame_index[by_index[:-1]]]
    ok[repeats] = False
    errors += [(jsonl.line_nos[i], f"duplicate frame_index {frame_index.item(i)}")
               for i in repeats.tolist()]
    frames = FrameColumns(frame_index[ok], t[ok], [texts[i] for i in np.flatnonzero(ok).tolist()])
    return frames, sorted(errors)


# --- scene graph ----------------------------------------------------------------


def _sorted_objects(record: DetectionRecord) -> list[DetectedObject]:
    return sorted(record.objects, key=lambda o: (-o.confidence, o.label))


def serialize_scene_graph(dets: list[DetectionRecord]) -> tuple[str, ...]:
    """Render detections as one deterministic line per keyframe.

    Format: ``t=<1 decimal>s: label(x1,y1,x2,y2)[c=conf], ...`` with
    coordinates and confidence at 3 decimals, objects sorted by descending
    confidence then label, records in chronological order. An empty object
    list renders ``(none)``.
    """
    lines = []
    for record in sorted(dets, key=lambda r: (r.t, r.frame_index)):
        if record.objects:
            rendered = ", ".join(
                f"{o.label}({o.box[0]:.3f},{o.box[1]:.3f},{o.box[2]:.3f},{o.box[3]:.3f})[c={o.confidence:.3f}]"
                for o in _sorted_objects(record)
            )
        else:
            rendered = "(none)"
        lines.append(f"t={record.t:.1f}s: {rendered}")
    return tuple(lines)
