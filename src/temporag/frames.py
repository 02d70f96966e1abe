"""Entropy-weighted frame ranking and temporally stratified keyframe selection.

Each sampled frame gets a weight from the normalized Shannon entropy of its
normalized query similarity; selection gates on raw similarity, ranks by
weight * similarity, and round-robins across equal time bins so keyframes
stay spread over the video.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError, LengthMismatchError
from .ingest import DetectionRecord
from .providers import DetectorProvider
from .types import FrameRecord
from .vectorindex import FlatVectorIndex


@dataclass(frozen=True)
class FrameWeighting:
    """Per-frame similarity distribution, entropies, and normalized weights.

    ``probs`` normalizes the non-negative part of the similarities,
    ``entropy`` is -p*ln(p) per frame (0 at p = 0), and ``alpha`` is the
    entropy renormalized to sum 1 (uniform when total entropy is zero).
    Arrays are read-only views; treat them as immutable.
    """

    sims: np.ndarray
    probs: np.ndarray
    entropy: np.ndarray
    alpha: np.ndarray


@dataclass(frozen=True)
class SelectorConfig:
    """Similarity gate, output budget, and time stratification granularity."""

    max_frames: int
    sim_threshold: float = 0.3
    n_bins: int = 8

    def __post_init__(self):
        if self.max_frames < 1:
            raise DataError(f"max_frames must be positive, got {self.max_frames}")
        if self.n_bins < 1:
            raise DataError(f"n_bins must be positive, got {self.n_bins}")
        if self.n_bins > self.max_frames:
            raise DataError(f"n_bins ({self.n_bins}) must not exceed max_frames ({self.max_frames})")


def frame_similarities(
    frames: Sequence[FrameRecord], frame_index: FlatVectorIndex, query_vec: np.ndarray
) -> list[float]:
    """Inner product of each frame's stored embedding with a unit query vector.

    This is the one per-query similarity pass: it feeds both keyframe
    gating and the semantic anchor. A frame without a stored embedding gets
    -1.0, the lowest cosine, so it passes no gate above -1. An
    ``embedding_ref`` missing from ``frame_index`` is a ``DataError``.
    """
    sims = []
    for frame in frames:
        if frame.embedding_ref is None:
            sims.append(-1.0)
            continue
        if frame.embedding_ref not in frame_index:
            raise DataError(
                f"frame {frame.frame_index}: embedding {frame.embedding_ref!r} "
                "is not in the frame index"
            )
        vec = frame_index.get(frame.embedding_ref).astype(np.float64)
        sims.append(float(np.dot(vec, query_vec)))
    return sims


def weight_frames(sims: Sequence[float]) -> FrameWeighting:
    """Compute the entropy weighting of a non-empty similarity list.

    Negative similarities are clipped to zero before normalization so the
    distribution is valid. Natural log; the base cancels in alpha anyway.
    """
    arr = np.ascontiguousarray(sims, dtype=np.float64)
    n = arr.size
    if n == 0:
        raise DataError("similarity list must be non-empty")
    pos = np.maximum(arr, 0.0)
    total = float(np.sum(pos))
    probs = pos / total if total > 0.0 else np.zeros(n, dtype=np.float64)
    entropy = np.zeros(n, dtype=np.float64)
    nz = probs > 0.0
    entropy[nz] = -probs[nz] * np.log(probs[nz])
    h_total = float(np.sum(entropy))
    alpha = entropy / h_total if h_total > 0.0 else np.full(n, 1.0 / n, dtype=np.float64)
    return FrameWeighting(sims=arr, probs=probs, entropy=entropy, alpha=alpha)


def select_keyframes(
    frames: Sequence[FrameRecord],
    sims: Sequence[float],
    cfg: SelectorConfig,
    duration_s: float | None = None,
    entropy_weighted: bool = True,
) -> list[FrameRecord]:
    """Pick an information-dense, temporally stratified keyframe subset.

    Steps: gate frames at ``sim_threshold`` on raw similarity; split
    [0, duration] into ``n_bins`` equal intervals; rank candidates within
    each bin by alpha * similarity; round-robin across bins taking each
    bin's best remaining candidate until ``max_frames`` are picked or
    candidates run out. Output is time-sorted.

    ``duration_s`` defaults to the latest frame time. With
    ``entropy_weighted`` off, ranking uses raw similarity alone (uniform
    alpha), which is the ablation behavior.
    """
    frames = list(frames)
    if len(frames) != len(sims):
        raise LengthMismatchError(len(frames), len(sims))
    if not frames:
        return []
    weighting = weight_frames(sims)
    alpha = weighting.alpha if entropy_weighted else np.full(len(frames), 1.0 / len(frames))

    candidates = [i for i in range(len(frames)) if weighting.sims[i] >= cfg.sim_threshold]
    if not candidates:
        return []

    duration = duration_s if duration_s is not None else max(f.t for f in frames)
    width = duration / cfg.n_bins if duration > 0 else 0.0

    bins: list[list[int]] = [[] for _ in range(cfg.n_bins)]
    for i in candidates:
        b = min(int(frames[i].t / width), cfg.n_bins - 1) if width > 0 else 0
        bins[b].append(i)
    for b in bins:
        b.sort(key=lambda i: (-alpha[i] * weighting.sims[i], frames[i].t, frames[i].frame_index))

    selected: list[int] = []
    queues = [list(reversed(b)) for b in bins]  # pop() takes the bin's best
    while len(selected) < cfg.max_frames and any(queues):
        for queue in queues:
            if queue:
                selected.append(queue.pop())
                if len(selected) >= cfg.max_frames:
                    break

    selected.sort(key=lambda i: (frames[i].t, frames[i].frame_index))
    return [frames[i] for i in selected]


def detect_on_keyframes(
    keyframes: Sequence[FrameRecord], detector: DetectorProvider
) -> list[DetectionRecord]:
    """Run the detector provider over keyframes, one record per frame in order."""
    if not keyframes:
        return []
    per_frame = detector.detect(keyframes)
    if len(per_frame) != len(keyframes):
        raise DataError(
            f"detector returned {len(per_frame)} results for {len(keyframes)} frames"
        )
    return [
        DetectionRecord(frame_index=frame.frame_index, t=frame.t, objects=tuple(objects))
        for frame, objects in zip(keyframes, per_frame)
    ]
