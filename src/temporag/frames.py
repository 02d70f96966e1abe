"""Entropy-weighted frame ranking and temporally stratified keyframe selection.

Each sampled frame gets a weight from the normalized Shannon entropy of its
normalized query similarity; selection gates on raw similarity, ranks by
weight * similarity, and round-robins across equal time bins so keyframes
stay spread over the video.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DataError, LengthMismatchError
from .ingest import DetectionRecord
from .providers import DetectorProvider
from .textindex import F4, F8, U1, U4, IndexFileReader, f4_matrix, write_index_file
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
    embeddings as ``<f4`` rows, one per embedded frame in table order, so
    the i-th embedded frame's vector is row i. ``record(i)`` builds frame
    i's ``FrameRecord`` on first use and keeps it, so a runtime that answers
    many questions builds each keyframe's record once.
    """

    def __init__(
        self,
        frame_index: Sequence[int] | np.ndarray,
        t: Sequence[float] | np.ndarray,
        embedded: Sequence[bool] | np.ndarray | None = None,
        matrix: np.ndarray | None = None,
    ):
        self.frame_index = np.asarray(frame_index, dtype=np.int64)
        self.t = np.asarray(t, dtype=np.float64)
        if len(self.frame_index) != len(self.t):
            raise LengthMismatchError(len(self.frame_index), len(self.t))
        if embedded is None:
            embedded = np.zeros(len(self.t), dtype=bool)
        self.embedded = np.asarray(embedded, dtype=bool)
        if len(self.embedded) != len(self.t):
            raise LengthMismatchError(len(self.t), len(self.embedded))
        self.matrix = np.zeros((0, 0), dtype=F4) if matrix is None else matrix
        if len(self.matrix) != np.count_nonzero(self.embedded):
            raise DataError(
                f"{len(self.matrix)} embeddings for {np.count_nonzero(self.embedded)} "
                "embedded frames"
            )
        self._records: dict[int, FrameRecord] = {}

    def __len__(self) -> int:
        return len(self.t)

    def record(self, i: int) -> FrameRecord:
        rec = self._records.get(i)
        if rec is None:
            rec = self._records[i] = FrameRecord(self.frame_index.item(i), self.t.item(i))
        return rec

    @cached_property
    def _f8(self) -> np.ndarray:
        return self.matrix.astype(np.float64)

    def similarities(self, q: np.ndarray) -> np.ndarray:
        """Inner products of the query with every embedding, in row order."""
        return row_similarities(self._f8, q)


def frame_similarities(frames: FrameTable, query_vec: np.ndarray) -> np.ndarray:
    """Inner product of each frame's stored embedding with a unit query vector.

    This is the one per-query similarity pass: it feeds both keyframe
    gating and the semantic anchor. A frame without a stored embedding
    gets -1.0, the lowest cosine, so it passes no gate above -1.
    """
    sims = np.full(len(frames), -1.0)
    if len(frames.matrix):
        sims[frames.embedded] = frames.similarities(query_vec)
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
    if len(frames) != len(sims):
        raise LengthMismatchError(len(frames), len(sims))
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

    duration = duration_s if duration_s is not None else frames.t.max().item()
    width = duration / cfg.n_bins if duration > 0 else 0.0
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


# --- frame table, format version 2 ----------------------------------------------
#
# magic "TVRG" | u32 version | u32 n | <u4 frame_index[n] | <f8 t[n]
# | u8 embedded[n] | u32 dim | <f4 matrix[n_embedded][dim]
# ``build`` writes the rows sorted by (t, frame_index). The matrix holds
# one row per frame whose ``embedded`` byte is 1, in table order; ``dim``
# is 0 exactly when no frame is embedded. Zero rows means the store had no
# frame metadata.

FRAME_TABLE_VERSION = 2


def save_frame_table(
    path: str,
    frame_index: Sequence[int],
    t: Sequence[float],
    embedded: Sequence[bool],
    vectors: Sequence[np.ndarray],
) -> None:
    """Write the frame columns in the order given, with one vector per embedded frame."""
    embedded = np.asarray(embedded, dtype=bool)
    if len(vectors) != np.count_nonzero(embedded):
        raise DataError(f"{len(vectors)} vectors for {np.count_nonzero(embedded)} embedded frames")
    dim = len(vectors[0]) if len(vectors) else 0
    frame_index = np.asarray(frame_index, dtype=U4)
    write_index_file(
        path,
        FRAME_TABLE_VERSION,
        struct.pack("<I", len(frame_index)),
        frame_index.tobytes(),
        np.asarray(t, dtype=F8).tobytes(),
        embedded.astype(U1).tobytes(),
        struct.pack("<I", dim),
        f4_matrix(vectors, dim).tobytes(),
    )


def load_frame_table(path: str, duration_s: float) -> FrameTable:
    """A frame table whose columns and matrix are views of the file.

    Besides the errors of ``textindex.IndexFileReader``, the loader requires
    ``0 <= t <= duration_s``, unique frame indices, rows sorted by
    ``(t, frame_index)``, flags of 0 or 1, and finite embeddings; each
    failure is a ``DataError`` naming the path.
    """
    reader = IndexFileReader(path, FRAME_TABLE_VERSION)
    (n,) = reader.unpack("<I")
    frame_index = reader.array(n)
    t = reader.array(n, F8)
    embedded = reader.array(n, U1)
    (dim,) = reader.unpack("<I")
    if np.any(embedded > 1):
        raise reader.corrupt("embedded flags other than 0 and 1")
    n_embedded = int(np.count_nonzero(embedded))
    if (dim == 0) != (n_embedded == 0):
        raise reader.corrupt(f"dim {dim} for {n_embedded} embedded frames")
    matrix = reader.array(n_embedded * dim, F4).reshape(n_embedded, dim)
    reader.end()
    if not np.all((0.0 <= t) & (t <= duration_s)):  # NaN fails too
        raise reader.corrupt(f"frame times outside [0, {duration_s}]")
    ranked = np.sort(frame_index)  # not np.unique, which imports numpy.ma
    if np.any(ranked[1:] == ranked[:-1]):
        raise reader.corrupt("duplicate frame_index")
    dt = np.diff(t)
    if np.any((dt < 0.0) | ((dt == 0.0) & (frame_index[1:] <= frame_index[:-1]))):
        raise reader.corrupt("rows not sorted by (t, frame_index)")
    if not np.all(np.isfinite(matrix)):
        raise reader.corrupt("non-finite embedding values")
    return FrameTable(frame_index, t, embedded.view(bool), matrix)
