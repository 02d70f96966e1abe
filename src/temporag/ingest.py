"""Parsers for auxiliary-text sources and the scene-graph text renderer.

Supported inputs: SRT and WebVTT subtitles (ASR channel), snippet JSONL
(OCR channel), detection JSONL and frames JSONL. Parsing is total over
the documented grammars: every input yields records or a located error,
never a silent partial loss beyond the documented empty-text drop.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

from .errors import DataError
from .types import Channel, Snippet, is_finite_number, snippet_from_obj

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


@dataclass
class JsonlReport:
    """Result of tolerant JSONL parsing: records plus located line errors."""

    snippets: list[Snippet]
    errors: list[tuple[int, str]]
    dropped_empty: int


def _decode(data: bytes) -> str:
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DataError(f"not valid UTF-8 ({exc})") from None


# --- subtitles ----------------------------------------------------------------

_SRT_TS = re.compile(r"^(\d{2,}):(\d{2}):(\d{2}),(\d{3})$")
_VTT_TS = re.compile(r"^(?:(\d{2,}):)?(\d{2}):(\d{2})\.(\d{3})$")


def _parse_ts(raw: str, pattern: re.Pattern, line_no: int) -> float:
    m = pattern.match(raw.strip())
    if not m:
        raise DataError(f"line {line_no}: bad timestamp {raw.strip()!r}")
    hours = int(m.group(1)) if m.group(1) else 0
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


def _parse_cue_block(
    start_line: int, block: list[str], pattern: re.Pattern
) -> tuple[int, float, float, str]:
    timing_offset = None
    for offset, line in enumerate(block):
        if "-->" in line:
            timing_offset = offset
            break
    if timing_offset is None:
        raise DataError(f"line {start_line}: cue block has no timing line")
    timing_line = block[timing_offset]
    line_no = start_line + timing_offset
    left, _, right = timing_line.partition("-->")
    # WebVTT allows cue settings after the end timestamp.
    right = re.split(r"\s", right.strip(), maxsplit=1)[0]
    t_start = _parse_ts(left, pattern, line_no)
    t_end = _parse_ts(right, pattern, line_no)
    if t_end < t_start:
        raise DataError(f"line {line_no}: cue ends before it starts: {timing_line.strip()!r}")
    text = " ".join(part.strip() for part in block[timing_offset + 1 :] if part.strip())
    return line_no, t_start, t_end, text


def _asr_snippets(cues: list[tuple[int, float, float, str]]) -> list[Snippet]:
    """The i-th cue, counted from 1, as snippet ``asr-{i:06d}``; cues without text are dropped.

    Every parsed cue takes a number, so dropping one renames no other.
    """
    return [
        Snippet(id=f"asr-{i:06d}", channel=Channel.ASR, text=text, t_start=t0, t_end=t1)
        for i, (_, t0, t1, text) in enumerate(cues, start=1)
        if text
    ]


def parse_srt(data: bytes) -> list[Snippet]:
    """Parse SubRip subtitles into ASR snippets.

    Cue counters are ignored, multi-line text joins with single spaces, and
    a UTF-8 BOM is tolerated. Raises ``DataError`` when no cue is found,
    or naming the line of a malformed cue.
    """
    blocks = _cue_blocks(_decode(data).splitlines())
    cues = [_parse_cue_block(start, block, _SRT_TS) for start, block in blocks]
    if not cues:
        raise DataError("no SRT cues found")
    return _asr_snippets(cues)


def parse_vtt(data: bytes) -> list[Snippet]:
    """Parse WebVTT subtitles into ASR snippets.

    Same semantics as ``parse_srt`` with dot millisecond separators;
    NOTE/STYLE/REGION blocks are skipped and optional cue identifiers
    tolerated. Hours may be omitted.
    """
    lines = _decode(data).splitlines()
    if not lines or not lines[0].strip().startswith("WEBVTT"):
        raise DataError("file does not start with WEBVTT")
    blocks = _cue_blocks(lines)
    cues = []
    for i, (start, block) in enumerate(blocks):
        if i == 0 and block[0].strip().startswith("WEBVTT"):
            continue  # header block, may carry metadata lines
        if block[0].strip().startswith(("NOTE", "STYLE", "REGION")):
            continue
        cues.append(_parse_cue_block(start, block, _VTT_TS))
    if not cues:
        raise DataError("no WebVTT cues found")
    return _asr_snippets(cues)


# --- snippet JSONL ----------------------------------------------------------


def parse_snippet_jsonl(data: bytes) -> JsonlReport:
    """Tolerantly parse snippet JSONL, collecting per-line errors.

    Empty-text lines are dropped and counted. The file is rejected (with a
    ``DataError``) only when lines exist and every one fails.
    """

    def from_obj(obj: object) -> Snippet | None:
        snippet = snippet_from_obj(obj)
        return snippet if snippet.text.strip() else None

    records, errors = _parse_jsonl_lines(data, from_obj)
    if errors and not records:
        raise DataError(f"all {len(errors)} lines failed to parse")
    snippets = [s for s in records if s is not None]
    return JsonlReport(snippets, errors, len(records) - len(snippets))


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


def _parse_jsonl_lines(data: bytes, from_obj) -> tuple[list, list[tuple[int, str]]]:
    """Records built by ``from_obj`` from each non-blank line, plus located errors."""
    records = []
    errors = []
    for line_no, line in enumerate(_decode(data).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append(from_obj(json.loads(line)))
        except (json.JSONDecodeError, RecursionError, DataError) as exc:
            errors.append((line_no, str(exc)))
    return records, errors


def parse_detections_jsonl(data: bytes) -> tuple[list[DetectionRecord], list[tuple[int, str]]]:
    """Tolerantly parse detection JSONL with the same rules as snippet JSONL."""
    records, errors = _parse_jsonl_lines(data, detection_from_obj)
    if errors and not records:
        raise DataError(f"all {len(errors)} lines failed to parse")
    return records, errors


# --- frames -------------------------------------------------------------------


def parse_frames_jsonl(data: bytes, duration_s: float) -> tuple[list[tuple], list[tuple[int, str]]]:
    """Parse frames JSONL into ``(t, frame_index, text)`` records plus located line errors.

    A line is {"frame_index", "t", optional "text"}: ``frame_index`` and
    ``t`` are checked as ``_frame_key`` says, ``text`` must be a string
    ("" when absent), and unknown keys are dropped. A record that repeats an
    earlier record's ``frame_index`` is a line error.
    """
    seen: set[int] = set()

    def from_obj(obj: object) -> tuple[float, int, str]:
        frame_index, t = _frame_key(obj, duration_s)
        text = obj.get("text", "")
        if not isinstance(text, str):
            raise DataError(f"text must be a string, got {type(text).__name__}")
        if frame_index in seen:
            raise DataError(f"duplicate frame_index {frame_index}")
        seen.add(frame_index)
        return t, frame_index, text

    return _parse_jsonl_lines(data, from_obj)


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
