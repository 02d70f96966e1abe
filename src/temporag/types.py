"""Core domain types: videos, frames, time-stamped snippets, and requests.

All timestamps are seconds (float). Frames arrive with their time in
seconds; frame indices are never used in downstream math. Every type here is
immutable after validation and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DataError


def is_finite_number(value: object) -> bool:
    """True for an int or float that converts to a finite float; bools are not numbers."""
    if type(value) not in (int, float):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


class Channel(str, Enum):
    """Auxiliary text channel a snippet belongs to: speech or on-screen text."""

    ASR = "asr"
    OCR = "ocr"

    @classmethod
    def parse(cls, tag: str) -> "Channel":
        """Parse a channel tag. Unknown tags are an error, never coerced."""
        try:
            return cls(tag)
        except ValueError:
            raise DataError(f"unknown channel tag {tag!r}") from None


@dataclass(frozen=True)
class VideoRecord:
    """One indexed video: an opaque id plus its duration."""

    video_id: str
    duration_s: float

    def __post_init__(self):
        if not isinstance(self.video_id, str) or not self.video_id:
            raise DataError(f"video_id must be a non-empty string, got {self.video_id!r}")
        if not is_finite_number(self.duration_s) or self.duration_s <= 0:
            raise DataError(f"duration_s must be finite and positive, got {self.duration_s!r}")


@dataclass(frozen=True)
class FrameRecord:
    """A sampled frame: index and timestamp."""

    frame_index: int
    t: float

    def __post_init__(self):
        if self.frame_index < 0:
            raise DataError(f"frame_index must be non-negative, got {self.frame_index}")


@dataclass(frozen=True)
class Snippet:
    """One time-stamped auxiliary text unit from a single channel."""

    id: str
    channel: Channel
    text: str
    t_start: float
    t_end: float

    @property
    def t_mid(self) -> float:
        """Canonical single timestamp of the snippet (interval midpoint)."""
        return (self.t_start + self.t_end) / 2.0


@dataclass(frozen=True)
class QueryRequest:
    """A user question about one video."""

    query_text: str
    video_id: str

    def __post_init__(self):
        if not self.query_text.strip():
            raise DataError("query_text must be non-empty")


@dataclass(frozen=True)
class RetrievalRequest:
    """Per-channel retrieval texts produced by query decoupling.

    ``None`` means the channel is not needed; downstream retrieval skips
    such channels and never searches with an empty string. ``det`` is not a
    retrieval channel: it is the text matched against frame embeddings.
    """

    asr: str | None = None
    ocr: str | None = None
    det: str | None = None


@dataclass(frozen=True)
class ScoredSnippet:
    """A retrieval candidate after temporal rescoring.

    ``raw_score`` is the lexical (or fused) score, ``decay`` the temporal
    multiplier in (0, 1], and ``score`` the pool-normalized result.
    """

    snippet: Snippet
    raw_score: float
    decay: float
    score: float


def validate_snippet(s: Snippet, video: VideoRecord) -> Snippet:
    """Check a snippet against its video and return it with trimmed text.

    Raises ``DataError`` for empty text, ``t_start > t_end`` or a time
    outside ``[0, duration_s]``. The returned snippet's text is whitespace
    trimmed; timestamps are kept as given.
    """
    text = s.text.strip()
    if not text:
        raise DataError(f"snippet {s.id!r} has empty text")
    if s.t_start > s.t_end:
        raise DataError(f"snippet {s.id!r}: t_start {s.t_start} > t_end {s.t_end}")
    for t in (s.t_start, s.t_end):
        if not math.isfinite(t) or t < 0 or t > video.duration_s:
            raise DataError(f"time {t!r} outside [0, {video.duration_s!r}]")
    if text == s.text:
        return s
    return Snippet(id=s.id, channel=s.channel, text=text, t_start=s.t_start, t_end=s.t_end)


# --- snippet JSONL line format ---------------------------------------------
#
# One object per line: {"id", "channel", "text", "t_start", "t_end"}, with
# the times numbers (not bools or strings). Unknown keys are ignored;
# anything else is a per-line error.

_REQUIRED_KEYS = ("id", "channel", "text", "t_start", "t_end")


def snippet_from_obj(obj: object) -> Snippet:
    """Build a snippet from a decoded JSONL object, ignoring unknown keys."""
    if not isinstance(obj, dict):
        raise DataError(f"expected an object, got {type(obj).__name__}")
    missing = [k for k in _REQUIRED_KEYS if k not in obj]
    if missing:
        raise DataError(f"missing keys: {', '.join(missing)}")
    if not isinstance(obj["id"], str) or not isinstance(obj["text"], str):
        raise DataError("id and text must be strings")
    if not isinstance(obj["channel"], str):
        raise DataError("channel must be a string")
    channel = Channel.parse(obj["channel"])
    t_start, t_end = obj["t_start"], obj["t_end"]
    if not (is_finite_number(t_start) and is_finite_number(t_end)):
        raise DataError("t_start and t_end must be finite numbers")
    return Snippet(obj["id"], channel, obj["text"], float(t_start), float(t_end))
