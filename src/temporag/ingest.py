"""Parsers for auxiliary-text sources and the scene-graph text renderer.

Supported inputs: SRT and WebVTT subtitles (ASR channel), snippet JSONL
(OCR channel), detection JSONL and frames JSONL. Parsing is total over
the documented grammars: every input yields records or a located error,
never a silent partial loss beyond the documented empty-text drop.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from .errors import (
    DataError,
    EmptyFileError,
    InvalidBoxError,
    MalformedTimestampError,
    MissingHeaderError,
    NoValidLinesError,
    TimeOutOfRangeError,
)
from .types import Channel, Snippet, snippet_from_obj, snippet_to_json


@dataclass(frozen=True)
class DetectedObject:
    """One detected object: label, normalized box, and confidence."""

    label: str
    box: tuple[float, float, float, float]
    confidence: float

    def __post_init__(self):
        if not self.label:
            raise DataError("detection label must be non-empty")
        x1, y1, x2, y2 = self.box
        if not (0.0 <= x1 < x2 <= 1.0 and 0.0 <= y1 < y2 <= 1.0):
            raise InvalidBoxError(f"box {self.box} violates 0 <= x1 < x2 <= 1, 0 <= y1 < y2 <= 1")
        if not 0.0 <= self.confidence <= 1.0:
            raise DataError(f"confidence must be within [0, 1], got {self.confidence}")


@dataclass(frozen=True)
class DetectionRecord:
    """Objects detected on one frame."""

    frame_index: int
    t: float
    objects: tuple[DetectedObject, ...]


@dataclass(frozen=True)
class SceneGraphText:
    """Deterministic per-keyframe textual rendering of detections."""

    lines: tuple[str, ...]

    @property
    def text(self) -> str:
        return "\n".join(self.lines)


@dataclass
class JsonlReport:
    """Result of tolerant JSONL parsing: records plus located line errors."""

    snippets: list[Snippet] = field(default_factory=list)
    errors: list[tuple[int, str]] = field(default_factory=list)
    dropped_empty: int = 0


def _decode(data: bytes) -> str:
    if isinstance(data, str):
        return data
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
        raise MalformedTimestampError(line_no, f"bad timestamp {raw.strip()!r}")
    hours = int(m.group(1)) if m.group(1) else 0
    minutes, seconds, millis = int(m.group(2)), int(m.group(3)), int(m.group(4))
    if minutes >= 60 or seconds >= 60:
        raise MalformedTimestampError(line_no, f"bad timestamp {raw.strip()!r}")
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
        raise MalformedTimestampError(start_line, "cue block has no timing line")
    timing_line = block[timing_offset]
    line_no = start_line + timing_offset
    left, _, right = timing_line.partition("-->")
    # WebVTT allows cue settings after the end timestamp.
    right = right.strip().split(" ", 1)[0]
    t_start = _parse_ts(left, pattern, line_no)
    t_end = _parse_ts(right, pattern, line_no)
    if t_end < t_start:
        raise MalformedTimestampError(line_no, f"cue ends before it starts: {timing_line.strip()!r}")
    text = " ".join(part.strip() for part in block[timing_offset + 1 :] if part.strip())
    return line_no, t_start, t_end, text


def parse_srt(data: bytes) -> list[Snippet]:
    """Parse SubRip subtitles into ASR snippets.

    Cue counters are ignored, multi-line text joins with single spaces, and
    a UTF-8 BOM is tolerated. Raises ``EmptyFileError`` when no cue is found
    and ``MalformedTimestampError`` with the offending line number.
    """
    blocks = _cue_blocks(_decode(data).splitlines())
    cues = [_parse_cue_block(start, block, _SRT_TS) for start, block in blocks]
    if not cues:
        raise EmptyFileError("no SRT cues found")
    return [
        Snippet(id=f"asr-{i:06d}", channel=Channel.ASR, text=text, t_start=t0, t_end=t1)
        for i, (_, t0, t1, text) in enumerate(cues, start=1)
        if text
    ]


def parse_vtt(data: bytes) -> list[Snippet]:
    """Parse WebVTT subtitles into ASR snippets.

    Same semantics as ``parse_srt`` with dot millisecond separators;
    NOTE/STYLE/REGION blocks are skipped and optional cue identifiers
    tolerated. Hours may be omitted.
    """
    lines = _decode(data).splitlines()
    if not lines or not lines[0].strip().startswith("WEBVTT"):
        raise MissingHeaderError("file does not start with WEBVTT")
    blocks = _cue_blocks(lines)
    cues = []
    for i, (start, block) in enumerate(blocks):
        if i == 0 and block[0].strip().startswith("WEBVTT"):
            continue  # header block, may carry metadata lines
        if block[0].strip().startswith(("NOTE", "STYLE", "REGION")):
            continue
        cues.append(_parse_cue_block(start, block, _VTT_TS))
    if not cues:
        raise EmptyFileError("no WebVTT cues found")
    return [
        Snippet(id=f"asr-{i:06d}", channel=Channel.ASR, text=cue_text, t_start=t0, t_end=t1)
        for i, (_, t0, t1, cue_text) in enumerate(cues, start=1)
        if cue_text
    ]


# --- snippet JSONL ----------------------------------------------------------


def parse_snippet_jsonl(data: bytes, expect_channel: Channel | None = None) -> JsonlReport:
    """Tolerantly parse snippet JSONL, collecting per-line errors.

    Empty-text lines are dropped and counted. The file is rejected (with
    ``NoValidLinesError``) only when lines exist and every one fails.
    """
    report = JsonlReport()
    lines = _decode(data).splitlines()
    n_attempted = 0
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        n_attempted += 1
        try:
            obj = json.loads(line)
            snippet = snippet_from_obj(obj)
        except (json.JSONDecodeError, DataError) as exc:
            report.errors.append((line_no, str(exc)))
            continue
        if expect_channel is not None and snippet.channel is not expect_channel:
            report.errors.append(
                (line_no, f"channel mismatch: expected {expect_channel.value}, got {snippet.channel.value}")
            )
            continue
        if not snippet.text.strip():
            report.dropped_empty += 1
            continue
        report.snippets.append(snippet)
    if n_attempted and not report.snippets and not report.dropped_empty:
        raise NoValidLinesError(f"all {n_attempted} lines failed to parse")
    return report


def write_snippet_jsonl(snippets: list[Snippet]) -> str:
    return "".join(snippet_to_json(s) + "\n" for s in snippets)


# --- detections ---------------------------------------------------------------


def detection_from_obj(obj: object) -> DetectionRecord:
    if not isinstance(obj, dict):
        raise DataError(f"expected an object, got {type(obj).__name__}")
    try:
        frame_index = int(obj["frame_index"])
        t = float(obj["t"])
        raw_objects = obj["objects"]
    except (KeyError, TypeError, ValueError):
        raise DataError("detection record needs frame_index, t, objects") from None
    if not isinstance(raw_objects, list):
        raise DataError("objects must be a list")
    objects = []
    for entry in raw_objects:
        try:
            objects.append(
                DetectedObject(
                    label=entry["label"],
                    box=tuple(float(c) for c in entry["box"]),
                    confidence=float(entry["confidence"]),
                )
            )
        except (KeyError, TypeError, ValueError):
            raise DataError(f"bad detection object: {entry!r}") from None
    return DetectionRecord(frame_index=frame_index, t=t, objects=tuple(objects))


def detection_to_json(record: DetectionRecord) -> str:
    return json.dumps(
        {
            "frame_index": record.frame_index,
            "t": record.t,
            "objects": [
                {"label": o.label, "box": list(o.box), "confidence": o.confidence}
                for o in record.objects
            ],
        },
        ensure_ascii=False,
    )


def _parse_jsonl_lines(data: bytes, from_obj) -> tuple[list, list[tuple[int, str]]]:
    """Records built by ``from_obj`` from each non-blank line, plus located errors."""
    records = []
    errors = []
    for line_no, line in enumerate(_decode(data).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append(from_obj(json.loads(line)))
        except (json.JSONDecodeError, DataError) as exc:
            errors.append((line_no, str(exc)))
    return records, errors


def parse_detections_jsonl(data: bytes) -> tuple[list[DetectionRecord], list[tuple[int, str]]]:
    """Tolerantly parse detection JSONL with the same rules as snippet JSONL."""
    records, errors = _parse_jsonl_lines(data, detection_from_obj)
    if errors and not records:
        raise NoValidLinesError(f"all {len(errors)} lines failed to parse")
    return records, errors


# --- frames -------------------------------------------------------------------


def frame_from_obj(obj: object, duration_s: float) -> dict:
    """Check one frames JSONL record: {"frame_index", "t", optional "text"}.

    ``frame_index`` must be a non-negative int, ``t`` a number within
    [0, duration_s] (so never NaN or infinite), and ``text``, when present,
    a string. Returns the record with ``t`` as a float and unknown keys
    dropped.
    """
    if not isinstance(obj, dict):
        raise DataError(f"expected an object, got {type(obj).__name__}")
    frame_index, t = obj.get("frame_index"), obj.get("t")
    if type(frame_index) is not int or frame_index < 0:
        raise DataError(f"frame_index must be a non-negative integer, got {frame_index!r}")
    if type(t) not in (int, float):
        raise DataError(f"t must be a number, got {t!r}")
    if not 0.0 <= t <= duration_s:
        raise TimeOutOfRangeError(t, duration_s)
    frame = {"frame_index": frame_index, "t": float(t)}
    if "text" in obj:
        if not isinstance(obj["text"], str):
            raise DataError(f"text must be a string, got {type(obj['text']).__name__}")
        frame["text"] = obj["text"]
    return frame


def parse_frames_jsonl(data: bytes, duration_s: float) -> tuple[list[dict], list[tuple[int, str]]]:
    """Parse frames JSONL into ``frame_from_obj`` records plus located line errors.

    A record that repeats an earlier record's ``frame_index`` is a line error.
    """
    seen: set[int] = set()

    def from_obj(obj: object) -> dict:
        frame = frame_from_obj(obj, duration_s)
        if frame["frame_index"] in seen:
            raise DataError(f"duplicate frame_index {frame['frame_index']}")
        seen.add(frame["frame_index"])
        return frame

    return _parse_jsonl_lines(data, from_obj)


def _sorted_objects(record: DetectionRecord) -> list[DetectedObject]:
    return sorted(record.objects, key=lambda o: (-o.confidence, o.label))


def serialize_scene_graph(dets: list[DetectionRecord]) -> SceneGraphText:
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
    return SceneGraphText(lines=tuple(lines))
