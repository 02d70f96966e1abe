"""Entropy-weighted frame ranking and temporally stratified keyframe selection.

Each sampled frame gets a weight from the normalized Shannon entropy of its
normalized query similarity; selection gates on raw similarity, ranks by
weight * similarity, and round-robins across equal time bins so keyframes
stay spread over the video.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError, LengthMismatchError
from .ingest import DetectionRecord
from .providers import DetectorProvider
from .textindex import F8, U4, IndexFileReader, write_index_file
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


def frame_rows(frames: Sequence[FrameRecord], frame_index: FlatVectorIndex) -> np.ndarray:
    """Each frame's row in ``frame_index`` (``intp``), -1 for a frame without an embedding.

    An ``embedding_ref`` missing from ``frame_index`` is a ``DataError``
    naming the frame.
    """
    embedded = [i for i, frame in enumerate(frames) if frame.embedding_ref is not None]
    found = frame_index.rows([frames[i].embedding_ref for i in embedded])
    if np.any(found < 0):
        frame = frames[embedded[int(np.argmax(found < 0))]]
        raise DataError(
            f"frame {frame.frame_index}: embedding {frame.embedding_ref!r} "
            "is not in the frame index"
        )
    rows = np.full(len(frames), -1, dtype=np.intp)
    rows[embedded] = found
    return rows


def frame_similarities(
    rows: np.ndarray, frame_index: FlatVectorIndex, query_vec: np.ndarray
) -> np.ndarray:
    """Inner product of each frame's stored embedding with a unit query vector.

    ``rows`` is ``frame_rows`` of the frames. This is the one per-query
    similarity pass, one ``f8`` matrix-vector product: it feeds both
    keyframe gating and the semantic anchor. A frame without a stored
    embedding gets -1.0, the lowest cosine, so it passes no gate above -1.
    """
    sims = np.full(len(rows), -1.0)
    embedded = rows >= 0
    if embedded.any():
        sims[embedded] = frame_index.similarities(query_vec)[rows[embedded]]
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
    t = np.array([frames[i].t for i in candidates.tolist()], dtype=np.float64)
    index = np.array([frames[i].frame_index for i in candidates.tolist()], dtype=np.int64)

    duration = duration_s if duration_s is not None else max(f.t for f in frames)
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
    return [frames[i] for i in candidates[picked].tolist()]


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


# --- frame table, format version 1 ----------------------------------------------
#
# magic "TVRG" | u32 version | u32 n | <u4 frame_index[n] | <f8 t[n]
# ``build`` writes the rows sorted by (t, frame_index). Zero rows means the
# store had no frame metadata.

FRAME_TABLE_VERSION = 1


def save_frame_table(path: str, frame_index: Sequence[int], t: Sequence[float]) -> None:
    """Write the two frame columns in the order given."""
    frame_index = np.asarray(frame_index, dtype=U4)
    write_index_file(
        path,
        FRAME_TABLE_VERSION,
        struct.pack("<I", len(frame_index)),
        frame_index.tobytes(),
        np.asarray(t, dtype=F8).tobytes(),
    )


def load_frame_table(path: str, duration_s: float) -> tuple[np.ndarray, np.ndarray]:
    """The ``(frame_index, t)`` columns of a frame table, as views of the file.

    Besides the errors of ``textindex.IndexFileReader``, the loader requires
    ``0 <= t <= duration_s``, unique frame indices and rows sorted by
    ``(t, frame_index)``; each failure is a ``DataError`` naming the path.
    """
    reader = IndexFileReader(path, FRAME_TABLE_VERSION)
    (n,) = reader.unpack("<I")
    frame_index = reader.array(n)
    t = reader.array(n, F8)
    reader.end()
    if not np.all((0.0 <= t) & (t <= duration_s)):  # NaN fails too
        raise reader.corrupt(f"frame times outside [0, {duration_s}]")
    ranked = np.sort(frame_index)  # not np.unique, which imports numpy.ma
    if np.any(ranked[1:] == ranked[:-1]):
        raise reader.corrupt("duplicate frame_index")
    dt = np.diff(t)
    if np.any((dt < 0.0) | ((dt == 0.0) & (frame_index[1:] <= frame_index[:-1]))):
        raise reader.corrupt("rows not sorted by (t, frame_index)")
    return frame_index, t
