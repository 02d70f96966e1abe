"""Temporal rescoring of lexical retrieval candidates.

Candidate scores are multiplied by an exponential decay in the time
distance to three query anchors (first frame, last frame, and the frame
most similar to the query), then normalized over the candidate pool and
cut to the top K. With all decay strengths at zero the ranking reduces to
the raw lexical ranking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import AllZeroMassError, DataError, EmptyFrameListError, LengthMismatchError
from .types import FrameRecord, ScoredSnippet, Snippet


class TimeNorm(str, Enum):
    """Whether anchor distances are measured in duration fractions or raw seconds.

    Normalized time is the default: with unit decay strength over raw
    seconds, hour-long videos drive the exponential to underflow and every
    distant candidate to exactly zero.
    """

    NORMALIZED_BY_DURATION = "normalized_by_duration"
    RAW_SECONDS = "raw_seconds"


@dataclass(frozen=True)
class AnchorSet:
    """The three reference timestamps used by the decay."""

    t_last: float
    t_first: float
    t_semantic: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.t_last, self.t_first, self.t_semantic)


@dataclass(frozen=True)
class DecayParams:
    """Per-anchor decay strengths and the time convention."""

    lambdas: tuple[float, float, float] = (1.0, 1.0, 1.0)
    time_norm: TimeNorm = TimeNorm.NORMALIZED_BY_DURATION

    def __post_init__(self):
        if len(self.lambdas) != 3:
            raise DataError(f"exactly three decay strengths required, got {len(self.lambdas)}")
        if any(l < 0 for l in self.lambdas):
            raise DataError(f"decay strengths must be non-negative, got {self.lambdas}")


@dataclass(frozen=True)
class RescoreConfig:
    """Final cut size and the candidate pool multiplier."""

    top_k: int = 10
    pool_multiplier: int = 3

    def __post_init__(self):
        if self.top_k < 1:
            raise DataError(f"top_k must be positive, got {self.top_k}")
        if self.pool_multiplier < 1:
            raise DataError(f"pool_multiplier must be positive, got {self.pool_multiplier}")

    @property
    def pool_size(self) -> int:
        return self.pool_multiplier * self.top_k


def compute_anchors(frames: Sequence[FrameRecord], sims: Sequence[float]) -> AnchorSet:
    """Derive the three anchors from a time-sorted frame list.

    ``sims`` holds each frame's query similarity (see
    ``frames.frame_similarities``). The semantic anchor is the time of the
    frame with maximal similarity; ties break toward the earliest time.
    Frames without a stored embedding are skipped, whatever placeholder
    their similarity holds; if no frame has one, the semantic anchor falls
    back to the first frame time.
    """
    if not frames:
        raise EmptyFrameListError("at least one frame required")
    if len(frames) != len(sims):
        raise LengthMismatchError(len(frames), len(sims))
    t_first = frames[0].t
    t_last = frames[-1].t

    best_sim = -math.inf
    t_semantic = t_first
    for frame, sim in zip(frames, sims):
        if frame.embedding_ref is not None and sim > best_sim:
            best_sim = sim
            t_semantic = frame.t
    return AnchorSet(t_last=t_last, t_first=t_first, t_semantic=t_semantic)


def decay_multiplier(
    t_i: float, anchors: AnchorSet, params: DecayParams, duration_s: float
) -> float:
    """exp(-sum_k lambda_k * |anchor_k - t_i|) in the configured time units."""
    scale = 1.0
    if params.time_norm is TimeNorm.NORMALIZED_BY_DURATION:
        if duration_s <= 0:
            raise DataError(f"duration_s must be positive, got {duration_s}")
        scale = duration_s
    a0, a1, a2 = anchors.as_tuple()
    l0, l1, l2 = params.lambdas
    t = t_i / scale
    exponent = l0 * abs(a0 / scale - t) + l1 * abs(a1 / scale - t) + l2 * abs(a2 / scale - t)
    return math.exp(-exponent)


def rescore(
    candidates: Sequence[tuple[Snippet, float]],
    anchors: AnchorSet,
    params: DecayParams,
    duration_s: float,
) -> list[ScoredSnippet]:
    """Apply temporal decay and normalize scores over the candidate pool.

    Every candidate's raw score must be non-negative; the normalized scores
    sum to one. When every decay underflows (long videos in raw seconds),
    the exponents are shifted by their minimum over positive-raw candidates,
    a common factor that cancels in the normalization. Raises
    ``AllZeroMassError`` when every raw score is zero.
    """
    if not candidates:
        raise DataError("candidate pool must be non-empty")
    raws = np.array([raw for _, raw in candidates], dtype=np.float64)
    if np.any(raws < 0):
        raise DataError("raw scores must be non-negative")

    scale = 1.0
    if params.time_norm is TimeNorm.NORMALIZED_BY_DURATION:
        if duration_s <= 0:
            raise DataError(f"duration_s must be positive, got {duration_s}")
        scale = duration_s
    times = np.array([snippet.t_mid / scale for snippet, _ in candidates], dtype=np.float64)
    a0, a1, a2 = (a / scale for a in anchors.as_tuple())
    l0, l1, l2 = params.lambdas
    exponents = l0 * np.abs(a0 - times) + l1 * np.abs(a1 - times) + l2 * np.abs(a2 - times)
    decays = np.exp(-exponents)

    mass = raws * decays
    total = float(np.sum(mass))
    if total <= 0.0:
        positive = raws > 0.0
        if not np.any(positive):
            raise AllZeroMassError("every raw score is zero")
        mass = raws * np.exp(-(exponents - exponents[positive].min()))
        total = float(np.sum(mass))
    scores = mass / total
    return [
        ScoredSnippet(snippet=snippet, raw_score=float(raw), decay=float(d), score=float(s))
        for (snippet, raw), d, s in zip(candidates, decays, scores)
    ]


def top_k(scored: Sequence[ScoredSnippet], k: int) -> list[ScoredSnippet]:
    """The k highest-scoring snippets, ties broken by earlier t_mid then id."""
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    ordered = sorted(scored, key=lambda s: (-s.score, s.snippet.t_mid, s.snippet.id))
    return ordered[:k]
