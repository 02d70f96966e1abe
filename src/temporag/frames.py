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

from .errors import DataError
from .ingest import DetectionRecord
from .providers import DetectorProvider
from .textindex import row_similarities
from .types import FrameRecord


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


class FrameTable:
    """The sampled frames of one video, held as columns.

    ``frame_index`` and ``t`` hold one entry per frame. ``embedded`` marks
    the frames with a stored embedding, and ``matrix`` holds those
    embeddings as float64 rows, cast once when the table is made, one per
    embedded frame in table order, so the i-th embedded frame's vector is
    row i. A video without frame metadata has a table of zero frames. In
    a loaded table, ``texts`` holds each frame's text, and the frames with
    text are the embedded ones; a table built in memory may leave it empty.
    ``record(i)`` builds frame i's ``FrameRecord`` on first use and keeps
    it, so a runtime that answers many questions builds each keyframe's
    record once.
    """

    def __init__(
        self,
        frame_index: Sequence[int] | np.ndarray,
        t: Sequence[float] | np.ndarray,
        embedded: Sequence[bool] | np.ndarray | None = None,
        matrix: np.ndarray | None = None,
        texts: Sequence[str] = (),
    ):
        self.frame_index = np.asarray(frame_index, dtype=np.int64)
        self.t = np.asarray(t, dtype=np.float64)
        if len(self.frame_index) != len(self.t):
            raise DataError(f"{len(self.frame_index)} frame indices but {len(self.t)} times")
        if embedded is None:
            embedded = np.zeros(len(self.t), dtype=bool)
        self.embedded = np.asarray(embedded, dtype=bool)
        if len(self.embedded) != len(self.t):
            raise DataError(f"{len(self.t)} frame times but {len(self.embedded)} embedded flags")
        self.matrix = np.zeros((0, 0)) if matrix is None else np.asarray(matrix, dtype=np.float64)
        if len(self.matrix) != np.count_nonzero(self.embedded):
            raise DataError(
                f"{len(self.matrix)} embeddings for {np.count_nonzero(self.embedded)} "
                "embedded frames"
            )
        self.texts = texts
        self._records: dict[int, FrameRecord] = {}

    def __len__(self) -> int:
        return len(self.t)

    def record(self, i: int) -> FrameRecord:
        rec = self._records.get(i)
        if rec is None:
            rec = self._records[i] = FrameRecord(self.frame_index.item(i), self.t.item(i))
        return rec


def frame_similarities(frames: FrameTable, query_vec: np.ndarray) -> np.ndarray:
    """Inner product of each frame's stored embedding with a unit query vector.

    This is the one per-query similarity pass, over the table's float64
    rows: it feeds both keyframe gating and the semantic anchor. A frame
    without a stored embedding gets -1.0, the lowest cosine, so it passes
    no gate above -1; a table without frames gives no similarities.
    """
    sims = np.full(len(frames), -1.0)
    if len(frames.matrix):
        sims[frames.embedded] = row_similarities(frames.matrix, query_vec)
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
    frames: FrameTable,
    sims: Sequence[float],
    cfg: SelectorConfig,
    duration_s: float,
    entropy_weighted: bool = True,
) -> list[FrameRecord]:
    """Pick an information-dense, temporally stratified keyframe subset.

    Steps: gate frames at ``sim_threshold`` on raw similarity; split
    [0, duration] into ``n_bins`` equal intervals; rank candidates within
    each bin by alpha * similarity; round-robin across bins taking each
    bin's best remaining candidate until ``max_frames`` are picked or
    candidates run out. Output is time-sorted.

    With ``entropy_weighted`` off, ranking uses raw similarity alone
    (uniform alpha), which is the ablation behavior.
    """
    if len(frames) != len(sims):
        raise DataError(f"{len(frames)} frames but {len(sims)} similarities")
    if not len(frames):
        return []
    weighting = weight_frames(sims)
    sims = weighting.sims
    alpha = weighting.alpha if entropy_weighted else np.full(len(frames), 1.0 / len(frames))

    candidates = np.flatnonzero(sims >= cfg.sim_threshold)
    if not len(candidates):
        return []
    t = frames.t[candidates]
    index = frames.frame_index[candidates]

    width = duration_s / cfg.n_bins if duration_s > 0 else 0.0
    bins = np.zeros(len(candidates), dtype=np.intp)
    if width > 0:
        bins = np.minimum((t / width).astype(np.intp), cfg.n_bins - 1)

    # Within each bin, best alpha * similarity first, then earlier (t, frame_index).
    order = np.lexsort((index, t, -alpha[candidates] * sims[candidates], bins))
    in_bin = np.arange(len(order)) - np.searchsorted(bins[order], bins[order])
    # Round-robin: every bin's best, then every bin's second best, and so on.
    picked = order[np.lexsort((bins[order], in_bin))][: cfg.max_frames]
    picked = picked[np.lexsort((index[picked], t[picked]))]
    return [frames.record(i) for i in candidates[picked].tolist()]


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
