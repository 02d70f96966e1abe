"""Core domain types: videos, frames, time-stamped snippets, and requests.

All timestamps are seconds (float). Frames arrive with their time in
seconds; frame indices are never used in downstream math. Every type here is
immutable after validation and safe to share across threads.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from operator import itemgetter

import numpy as np

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
        """Canonical single timestamp of the snippet (interval midpoint).

        ``(t_start + t_end) / 2``, except where that sum overflows: there the
        halves are added, which cannot. Halving is exact above the subnormal
        range, so both give the same bits wherever the sum is finite; the
        sum is kept there because halving a subnormal time rounds it.
        """
        mid = (self.t_start + self.t_end) / 2.0
        return mid if math.isfinite(mid) else self.t_start / 2.0 + self.t_end / 2.0


def midpoints(t_start: np.ndarray, t_end: np.ndarray) -> np.ndarray:
    """``Snippet.t_mid`` of each pair of float64 times, with the same bits."""
    with np.errstate(over="ignore"):  # an overflowing sum takes the halves
        mid = (t_start + t_end) / 2.0
    return np.where(np.isfinite(mid), mid, t_start / 2.0 + t_end / 2.0)


# A row's channel code in ``SnippetColumns.channels`` is the channel's position here.
CHANNELS = tuple(Channel)


@dataclass(frozen=True, eq=False)
class SnippetColumns:
    """Snippets as columns, one row per snippet.

    ``channels`` holds each row's channel code (see ``CHANNELS``) as a u1
    array; ``t_start`` and ``t_end`` are float64 arrays. The parsers in
    ``ingest`` return these (snippet JSONL from the rows ``snippet_fields``
    returns), ``validate_snippets`` checks them and
    ``textindex.build_index`` indexes them. Indexing builds one row's
    ``Snippet``, which set-up does only to word a row's error.
    """

    ids: list[str]
    channels: np.ndarray
    texts: list[str]
    t_start: np.ndarray
    t_end: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, row: int) -> Snippet:
        return Snippet(
            self.ids[row],
            CHANNELS[self.channels.item(row)],
            self.texts[row],
            self.t_start.item(row),
            self.t_end.item(row),
        )

    def take(self, rows: np.ndarray) -> "SnippetColumns":
        """The rows at the positions ``rows``, in that order."""
        return SnippetColumns(
            [self.ids[r] for r in rows.tolist()],
            self.channels[rows],
            [self.texts[r] for r in rows.tolist()],
            self.t_start[rows],
            self.t_end[rows],
        )

    def of_channel(self, channel: Channel) -> "SnippetColumns":
        """The rows of ``channel``, in row order."""
        return self.take(np.flatnonzero(self.channels == CHANNELS.index(channel)))

    @classmethod
    def concat(cls, parts: Sequence["SnippetColumns"]) -> "SnippetColumns":
        """The rows of every part, one part after another."""
        parts = [snippet_columns(()), *parts]
        return cls(
            list(chain.from_iterable(p.ids for p in parts)),
            np.concatenate([p.channels for p in parts]),
            list(chain.from_iterable(p.texts for p in parts)),
            np.concatenate([p.t_start for p in parts]),
            np.concatenate([p.t_end for p in parts]),
        )


def snippet_columns(snippets: Sequence[Snippet]) -> SnippetColumns:
    """The columns of ``snippets``, one row each in the order given."""
    return SnippetColumns(
        [s.id for s in snippets],
        np.array([CHANNELS.index(s.channel) for s in snippets], dtype=np.uint8),
        [s.text for s in snippets],
        np.array([s.t_start for s in snippets], dtype=np.float64),
        np.array([s.t_end for s in snippets], dtype=np.float64),
    )


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


def validate_snippets(
    snippets: SnippetColumns, video: VideoRecord
) -> tuple[SnippetColumns, list[tuple[str, str]]]:
    """The rows ``validate_snippet`` accepts, texts trimmed, and the id and error of each other.

    The checks run over the columns: a row is kept when its trimmed text is
    not empty and ``0 <= t_start <= t_end <= duration_s``, which a NaN
    fails. Only a rejected row is built as a ``Snippet``, for
    ``validate_snippet`` to word its error; errors are in row order.
    """
    texts = list(map(str.strip, snippets.texts))
    t_start, t_end = snippets.t_start, snippets.t_end
    ok = (0.0 <= t_start) & (t_start <= t_end) & (t_end <= video.duration_s)
    ok &= np.fromiter(map(bool, texts), dtype=bool, count=len(texts))
    errors = []
    for row in np.flatnonzero(~ok).tolist():
        try:
            validate_snippet(snippets[row], video)
        except DataError as exc:
            errors.append((snippets.ids[row], str(exc)))
        else:
            raise AssertionError(f"validate_snippet accepts snippet {snippets.ids[row]!r}")
    trimmed = SnippetColumns(snippets.ids, snippets.channels, texts, t_start, t_end)
    return (trimmed if ok.all() else trimmed.take(np.flatnonzero(ok))), errors


# --- snippet JSONL line format ---------------------------------------------
#
# One object per line: {"id", "channel", "text", "t_start", "t_end"}, with
# the times numbers (not bools or strings). Unknown keys are ignored;
# anything else is a per-line error.

_REQUIRED_KEYS = ("id", "channel", "text", "t_start", "t_end")
_required = itemgetter(*_REQUIRED_KEYS)
_CHANNEL_CODES = {channel.value: code for code, channel in enumerate(CHANNELS)}


def snippet_fields(obj: object) -> tuple[str, int, str, float, float]:
    """The id, channel code (see ``CHANNELS``), text and times of a decoded JSONL object.

    Unknown keys are ignored. The first rule the object breaks, in this
    order, is its ``DataError``: an object, every key present, a string id
    and text, a string channel, a known channel tag, finite number times.
    """
    try:
        doc_id, tag, text, t_start, t_end = _required(obj)
    except (KeyError, TypeError):  # no object, or one without a key
        if not isinstance(obj, dict):
            raise DataError(f"expected an object, got {type(obj).__name__}") from None
        missing = [k for k in _REQUIRED_KEYS if k not in obj]
        raise DataError(f"missing keys: {', '.join(missing)}") from None
    if type(doc_id) is not str or type(text) is not str:
        raise DataError("id and text must be strings")
    if type(tag) is not str:
        raise DataError("channel must be a string")
    code = _CHANNEL_CODES.get(tag)
    if code is None:
        raise DataError(f"unknown channel tag {tag!r}")
    if not (is_finite_number(t_start) and is_finite_number(t_end)):
        raise DataError("t_start and t_end must be finite numbers")
    return doc_id, code, text, float(t_start), float(t_end)


def snippet_from_obj(obj: object) -> Snippet:
    """Build a snippet from a decoded JSONL object, ignoring unknown keys."""
    doc_id, code, text, t_start, t_end = snippet_fields(obj)
    return Snippet(doc_id, CHANNELS[code], text, t_start, t_end)
