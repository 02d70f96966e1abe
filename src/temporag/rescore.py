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

from .errors import DataError
from .frames import FrameTable
from .textindex import Hits


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
        if not all(0 <= l < math.inf for l in self.lambdas):  # NaN fails too
            raise DataError(f"decay strengths must be non-negative and finite, got {self.lambdas}")


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


def compute_anchors(frames: FrameTable, sims: Sequence[float], duration_s: float) -> AnchorSet:
    """Derive the three anchors from a time-sorted frame table.

    ``sims`` holds each frame's query similarity (see
    ``frames.frame_similarities``). The semantic anchor is the time of the
    frame with maximal similarity; ties break toward the earliest time.
    Frames without a stored embedding are skipped, whatever placeholder
    their similarity holds; if no frame has one, the semantic anchor falls
    back to the first frame time. A table without frames gives the video's
    ends: first and semantic anchor 0, last anchor ``duration_s``.
    """
    if len(frames) != len(sims):
        raise DataError(f"{len(frames)} frames but {len(sims)} similarities")
    if not len(frames):
        return AnchorSet(t_last=float(duration_s), t_first=0.0, t_semantic=0.0)
    sims = np.asarray(sims, dtype=np.float64)
    # NaN, -inf and unembedded frames never win; with no winner, argmax picks the first frame.
    best = int(np.argmax(np.where(frames.embedded & (sims > -np.inf), sims, -np.inf)))
    t = frames.t
    return AnchorSet(t_last=t[-1].item(), t_first=t[0].item(), t_semantic=t[best].item())


def rescore(
    candidates: Hits, t_mid: np.ndarray, anchors: AnchorSet, params: DecayParams, duration_s: float
) -> tuple[np.ndarray, np.ndarray]:
    """Each candidate's score, decayed and normalized over the pool, and its decay.

    ``t_mid`` holds the candidates' midpoints, row by row. Every raw score
    must be non-negative; the normalized scores sum to one. The masses
    ``raw * exp(-exponent)`` are normalized in log space: every exponent is
    first shifted by the smallest one over the positive-raw candidates, a
    common factor that cancels in the normalization. So no leading mass
    underflows, to 0.0 or to a subnormal of a few significant bits,
    whatever the video's length in raw seconds. An exponent past the float
    range is a decay of exactly 0; when every positive-raw exponent is, the
    shift is taken in units of the largest strength, which is the scores'
    limit as the strengths grow. A candidate's decay is its unshifted
    ``exp(-exponent)``. Raises a ``DataError`` when every raw score is zero.
    """
    if not len(candidates):
        raise DataError("candidate pool must be non-empty")
    raws = candidates.score
    if np.any(raws < 0):
        raise DataError("raw scores must be non-negative")

    scale = 1.0
    if params.time_norm is TimeNorm.NORMALIZED_BY_DURATION:
        if duration_s <= 0:
            raise DataError(f"duration_s must be positive, got {duration_s}")
        scale = duration_s
    positive = raws > 0.0
    if not np.any(positive):
        raise DataError("every raw score is zero")
    times = t_mid / scale
    distances = [np.abs(a / scale - times) for a in anchors.as_tuple()]
    with np.errstate(over="ignore"):  # an exponent past the float range is a decay of exactly 0
        exponents = sum(l * d for l, d in zip(params.lambdas, distances))
        lowest = exponents[positive].min()
        if lowest < np.inf:
            shifted = exponents - lowest
        else:  # the large-strength limit: exponents in units of the largest strength
            top = max(params.lambdas)
            # A quarter of each distance keeps a sum of three finite, whatever the duration.
            e = sum(l / top * (d / 4) for l, d in zip(params.lambdas, distances))
            shifted = top * (4 * (e - e[positive].min()))
    # A zero-raw candidate's shifted exponent may be negative; clipping it keeps its mass 0.
    mass = raws * np.exp(-np.maximum(shifted, 0.0))
    return mass / float(np.sum(mass)), np.exp(-exponents)


def top_k(candidates: Hits, t_mid: np.ndarray, scores: np.ndarray, k: int) -> np.ndarray:
    """The rows of the ``k`` highest ``scores``, best first.

    Ties break by earlier ``t_mid``, then by position, which is id order.
    """
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    return np.lexsort((candidates.pos, t_mid, -scores))[:k]
