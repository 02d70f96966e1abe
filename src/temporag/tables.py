"""Every file of a store and an index: its name, its byte layout, its one writer and reader.

A binary table is the magic, a u32 format version and its layout's parts.
It loads as views of the file's bytes, so each loader checks every
invariant that its table's users rely on.
"""

from __future__ import annotations

import json
import struct
from collections.abc import Sequence
from dataclasses import asdict
from itertools import accumulate, pairwise
from pathlib import Path

import numpy as np

from .errors import DataError
from .frames import FrameTable
from .providers import FixtureDetector
from .textindex import F4, F8, U4, Bm25Index
from .types import Channel, VideoRecord

VIDEO_FILE = "video.json"
FRAME_TABLE = "frames.tbl"
DETECTION_TABLE = "detections.tbl"
# Every file ingest may write. Ingest removes them all first, and the files
# of older stores, which build refuses: JSONL, then one snippet table per
# channel and the frame text table, which the .bm25 files and frames.tbl replaced.
STORE_FILES = frozenset({VIDEO_FILE, "asr.bm25", "ocr.bm25", FRAME_TABLE, DETECTION_TABLE})
OLD_STORE_FILES = (
    "asr.jsonl", "ocr.jsonl", "frames.jsonl", "detections.jsonl", "asr.docs", "ocr.docs",
    "frames.docs",
)
# Every file build may write, and the .vec files that builds wrote before
# the frame table and the .bm25 files held the embeddings. Build removes
# them all first, so a rebuild leaves none of an earlier build's files behind.
INDEX_FILES = frozenset(
    {VIDEO_FILE, FRAME_TABLE, "frames.vec", DETECTION_TABLE}
    | {f"{c.value}.{ext}" for c in Channel for ext in ("bm25", "vec")}
)

MAGIC = b"TVRG"
U1 = np.dtype("u1")


def save_video(path: Path, video: VideoRecord) -> None:
    path.write_text(json.dumps(asdict(video)) + "\n", encoding="utf-8")


def load_video(path: Path) -> VideoRecord:
    try:
        meta = json.loads(path.read_bytes())
        return VideoRecord(video_id=meta["video_id"], duration_s=meta["duration_s"])
    except (ValueError, RecursionError, KeyError, TypeError, AttributeError, DataError) as exc:
        raise DataError(f"{path}: bad video record ({exc})") from None


# --- the binary tables' shared machinery ------------------------------------------
# All integers are little-endian u32 unless a layout marks them otherwise.
# A string table is u32 offsets[n + 1] into one UTF-8 blob that follows them.
# No table is decoded whole: a loader checks each one's order on its bytes,
# and lookups bisect.


def pack_strings(strings: Sequence[str]) -> bytes:
    """A string table: u32 offsets[n + 1], then the concatenated UTF-8.

    A loaded ``StringTable`` is written as the bytes it was read from.
    """
    if isinstance(strings, StringTable):
        return strings.offsets.tobytes() + strings._blob().tobytes()
    blobs = [s.encode("utf-8") for s in strings]
    offsets = np.array(list(accumulate(map(len, blobs), initial=0)), dtype=U4)
    return offsets.tobytes() + b"".join(blobs)


class StringTable(Sequence):
    """A loaded string table that decodes one entry per lookup.

    ``IndexFileReader.string_table`` checks the blob once, so no lookup
    raises on its bytes: the whole blob is valid UTF-8 and every entry
    starts on a character boundary.
    """

    def __init__(self, data: bytes, base: int, offsets: np.ndarray):
        self._data = data
        self._base = base
        self.offsets = offsets

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, i: int) -> str:
        if not 0 <= i < len(self):
            raise IndexError(i)
        lo = self._base + self.offsets.item(i)
        return self._data[lo : self._base + self.offsets.item(i + 1)].decode("utf-8")

    def decode_all(self) -> list[str]:
        """Every entry, decoded: for a reader of the whole table, not for lookups."""
        blob = self._data[self._base : self._base + self.offsets.item(-1)]
        return [blob[lo:hi].decode("utf-8") for lo, hi in pairwise(self.offsets.tolist())]

    def _blob(self) -> np.ndarray:
        return np.frombuffer(self._data, dtype=U1, count=self.offsets.item(-1), offset=self._base)

    def is_strictly_sorted(self) -> bool:
        """Whether every entry is less than the next, compared as UTF-8 bytes.

        UTF-8 byte order is code-point order, Python's ``str`` order. In a
        sorted table every entry starts with the prefix that the first and
        last share, so the check asks that of all entries, one masked word
        per eight bytes of prefix, and an entry shorter than the prefix fails
        it at once. Past the prefix, adjacent entries are compared eight bytes
        at a time, every pair at once in the first round and only the pairs
        still tied after it; time and memory stay linear in the table's size.
        """
        if len(self) < 2:
            return True
        size = self.offsets.item(-1)
        padded = np.zeros(size + 8, dtype=U1)
        padded[:size] = self._blob()
        # words[i]: the eight bytes from byte i on, as one big-endian integer.
        words = np.ndarray((size + 1,), dtype=">u8", buffer=padded, strides=(1,))
        offsets = self.offsets.astype(np.intp)
        starts, lens = offsets[:-1], offsets[1:] - offsets[:-1]
        # The prefix the first and last entries share: their XOR's leading zero bytes.
        first = padded[: lens[0]].tobytes()
        last = padded[starts[-1] : size].tobytes()
        common = min(len(first), len(last))
        diff = int.from_bytes(first[:common], "big") ^ int.from_bytes(last[:common], "big")
        prefix = common - (diff.bit_length() + 7) // 8
        if lens.min() < prefix:  # which also bounds the prefix passes by the blob's size
            return False

        def heads(entries, done):
            # The entries' eight bytes from byte ``done`` on, masked where each ends,
            # and the bytes each has left there; take's clip mode caps those at 8.
            rest = lens[entries] - done
            return words[starts[entries] + done] & _HEAD_MASKS.take(rest, mode="clip"), rest

        for done in range(0, prefix, 8):  # words[done]: the first entry's bytes
            mask = _HEAD_MASKS[min(prefix - done, 8)]
            if np.any(words[starts + done] & mask != words[done] & mask):
                return False
        word, rest = heads(slice(None), prefix)
        word_l, word_r, rest_l, rest_r = word[:-1], word[1:], rest[:-1], rest[1:]
        pairs = None  # left entry of each pair still tied; None for every pair
        done = prefix  # bytes compared so far in every tied pair
        while True:
            if np.any(word_l > word_r):
                return False
            tied = word_l == word_r
            # A tie where the right entry ends is ordered only if the left one ended first.
            if np.any(tied & (rest_r <= 8) & (rest_l >= rest_r)):
                return False
            tied &= np.minimum(rest_l, rest_r) > 8
            pairs = np.flatnonzero(tied) if pairs is None else pairs[tied]
            if not len(pairs):
                return True
            done += 8
            word_l, rest_l = heads(pairs, done)
            word_r, rest_r = heads(pairs + 1, done)


# _HEAD_MASKS[k] keeps the first k bytes of a big-endian u8 word.
_HEAD_MASKS = np.array(
    [(2**64 - 1) ^ (2 ** (64 - 8 * k) - 1) for k in range(9)], dtype=np.uint64
)


class IndexFileReader:
    """Bounds-checked reads over one index file, read whole at open.

    Arrays are ``np.frombuffer`` views of the file's bytes. Every failure,
    a bad magic or a format version other than ``version`` included, is a
    ``DataError`` naming the path.
    """

    def __init__(self, path: str | Path, version: int):
        self.path = path
        try:
            with open(path, "rb") as fh:
                self.data = fh.read()
        except OSError as exc:
            raise DataError(f"{path}: cannot read index ({exc.strerror})") from None
        if self.data[:4] != MAGIC:
            raise DataError(f"{path}: bad magic, not a temporag index")
        self.pos = 4
        (found,) = self.unpack("<I")
        if found != version:
            raise DataError(f"{path}: format version {found}, expected {version}")

    def corrupt(self, problem: str) -> DataError:
        return DataError(f"{self.path}: truncated or corrupt index ({problem})")

    def _take(self, n_bytes: int) -> int:
        start = self.pos
        if start + n_bytes > len(self.data):
            raise self.corrupt(f"needs {start + n_bytes} bytes, has {len(self.data)}")
        self.pos += n_bytes
        return start

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack_from(fmt, self.data, self._take(struct.calcsize(fmt)))

    def array(self, count: int, dtype: np.dtype = U4) -> np.ndarray:
        offset = self._take(count * dtype.itemsize)
        return np.frombuffer(self.data, dtype=dtype, count=count, offset=offset)

    def offsets(self, n: int) -> np.ndarray:
        """``n + 1`` u32 offsets that start at 0 and never decrease."""
        offsets = self.array(n + 1)
        if offsets[0] != 0 or np.any(offsets[1:] < offsets[:-1]):
            raise self.corrupt("offsets not monotone")
        return offsets

    def string_table(self, n: int) -> StringTable:
        """A string table of ``n`` entries, checked whole and decoded per lookup.

        The blob must be valid UTF-8 with every entry starting on a character
        boundary. An all-ASCII blob is both, so one ``isascii`` pass checks
        it; any other blob is decoded whole and its entry starts are read.
        """
        offsets = self.offsets(n)
        size = int(offsets[-1])
        base = self._take(size)
        if self.data[base : base + size].isascii():
            return StringTable(self.data, base, offsets)
        try:
            str(memoryview(self.data)[base : base + size], "utf-8")
        except UnicodeDecodeError as exc:
            raise self.corrupt(f"invalid UTF-8: {exc.reason}") from None
        starts = offsets[offsets < size]
        blob = np.frombuffer(self.data, dtype=U1, count=size, offset=base)
        if np.any((blob[starts] & 0xC0) == 0x80):  # a UTF-8 continuation byte
            raise self.corrupt("string offset inside a UTF-8 character")
        return StringTable(self.data, base, offsets)

    def end(self) -> None:
        if self.pos != len(self.data):
            raise self.corrupt(f"{len(self.data) - self.pos} trailing bytes")


def write_index_file(path: str | Path, version: int, *parts: bytes) -> None:
    """Write the magic, ``version`` and ``parts``: a file ``IndexFileReader`` opens."""
    with open(path, "wb") as fh:
        fh.writelines((MAGIC, struct.pack("<I", version), *parts))


def f4_matrix(vectors: Sequence[np.ndarray] | np.ndarray, dim: int) -> np.ndarray:
    """The vectors as the rows of one ``<f4`` matrix, stacked and cast in one numpy step.

    A vector of another length is a ``DataError``; no vectors give no rows.
    """
    try:
        matrix = np.asarray(vectors, dtype=F4)
    except ValueError:
        raise DataError(f"rows of unequal lengths, expected dim {dim}") from None
    if matrix.shape == (0,):
        matrix = matrix.reshape(0, dim)
    if matrix.ndim != 2 or matrix.shape[1] != dim:
        raise DataError(f"expected dim {dim}, got {matrix.shape[-1] if matrix.ndim else 0}")
    return matrix


# --- the channel index, format version 6 ------------------------------------------
#
# Floats are f64 unless marked:
#   magic "TVRG" | version | channel (a one-string table)
#   | n_docs | n_tokens | doc-id table (sorted) | text table
#   | t_start[n_docs] | t_end[n_docs] | token table (sorted)
#   | doc_len[n_docs] | offsets[n_tokens + 1] | doc_pos[n_postings] | tf[n_postings]
#   | dim | <f4 vectors[n_docs][dim]
# n_postings is offsets[n_tokens]. The vector rows are in doc-position
# order, so they carry no ids of their own. A store file, which ``ingest``
# writes, has dim 0; ``build`` adds the rows.
# The arrays load as views of the file's bytes, so the loader checks every
# invariant that both searches and the document lookup rely on.
BM25_VERSION = 6


def save_index(index: Bm25Index, path: str | Path) -> None:
    write_index_file(
        path,
        BM25_VERSION,
        pack_strings([index.channel.value]),
        struct.pack("<II", index.n_docs, len(index.tokens)),
        pack_strings(index.doc_ids),
        pack_strings(index.texts),
        *(a.tobytes() for a in (index.t_start, index.t_end)),
        pack_strings(index.tokens),
        *(a.tobytes() for a in (index.doc_len, index.offsets, index.doc_pos, index.tf)),
        struct.pack("<I", index.dim),
        index.vectors.tobytes(),
    )


def load_index(path: str | Path, channel: Channel, duration_s: float) -> Bm25Index:
    """``channel``'s index as ``save_index`` wrote it, no document ending after ``duration_s``.

    The ids must be unique and sorted, the times finite with
    ``0 <= t_start <= t_end <= duration_s``, and the channel tag
    ``channel``'s; see ``IndexFileReader`` for the other errors.
    """
    reader = IndexFileReader(path, BM25_VERSION)
    (channel_tag,) = reader.string_table(1)
    n_docs, n_tokens = reader.unpack("<II")
    try:
        found = Channel.parse(channel_tag)
    except DataError as exc:
        raise reader.corrupt(str(exc)) from None
    doc_ids = reader.string_table(n_docs)
    texts = reader.string_table(n_docs)
    t_start = reader.array(n_docs, F8)
    t_end = reader.array(n_docs, F8)
    tokens = reader.string_table(n_tokens)
    doc_len = reader.array(n_docs)
    offsets = reader.offsets(n_tokens)
    doc_pos = reader.array(int(offsets[-1]))
    tf = reader.array(int(offsets[-1]))
    (dim,) = reader.unpack("<I")
    vectors = reader.array(n_docs * dim, F4).reshape(n_docs, dim)
    reader.end()
    if not doc_ids.is_strictly_sorted():
        raise reader.corrupt("doc ids not unique and sorted")
    # NaN fails every comparison, and t_end < inf bounds both columns.
    if not np.all((0.0 <= t_start) & (t_start <= t_end) & (t_end < np.inf)):
        raise reader.corrupt("times not finite with 0 <= t_start <= t_end")
    if np.any(t_end > duration_s):
        raise reader.corrupt(f"a document ends after duration_s {duration_s}")
    if not tokens.is_strictly_sorted():
        raise reader.corrupt("token table not strictly sorted")
    if len(doc_pos) and (doc_pos.max() >= n_docs or tf.min() < 1):
        raise reader.corrupt("posting out of range")
    if not np.all(np.isfinite(vectors)):
        raise reader.corrupt("non-finite vector values")
    if found != channel:
        raise reader.corrupt(f"channel tag {found.value!r}, expected {channel.value!r}")
    return Bm25Index(
        channel=channel,
        doc_ids=doc_ids,
        texts=texts,
        t_start=t_start,
        t_end=t_end,
        tokens=tokens,
        doc_len=doc_len,
        offsets=offsets,
        doc_pos=doc_pos,
        tf=tf,
        vectors=vectors,
    )


# --- the frame table, format version 3 ---------------------------------------------
#
# One file, frames.tbl, for the store and the index:
# magic "TVRG" | u32 version | u32 n | <u4 frame_index[n] | <f8 t[n]
# | text table | u32 dim | <f4 matrix[n_rows][dim]. The frames are sorted
# by (t, frame_index), and an empty text means the frame has none. A frame
# is embedded exactly when its text is not empty. The matrix holds one row
# per embedded frame, in table order; the store's file, which ingest
# writes, holds none and has ``dim`` 0. Zero frames means the store had no
# frame metadata.
FRAME_TABLE_VERSION = 3


def save_frame_table(
    path: str | Path,
    frame_index: Sequence[int],
    t: Sequence[float],
    texts: Sequence[str],
    vectors: Sequence[np.ndarray] = (),
) -> None:
    """Write the frame columns in the order given, with no vectors or one per frame with text."""
    n_with_text = sum(1 for text in texts if text)
    if len(vectors) not in (0, n_with_text):
        raise DataError(f"{len(vectors)} vectors for {n_with_text} frames with text")
    dim = len(vectors[0]) if len(vectors) else 0
    write_index_file(
        path,
        FRAME_TABLE_VERSION,
        struct.pack("<I", len(t)),
        np.asarray(frame_index, dtype=U4).tobytes(),
        np.asarray(t, dtype=F8).tobytes(),
        pack_strings(texts),
        struct.pack("<I", dim),
        f4_matrix(vectors, dim).tobytes(),
    )


def load_frame_table(path: str | Path, duration_s: float) -> FrameTable:
    """A frame table whose columns and texts are views of the file, its matrix a float64 cast.

    The times must be within ``[0, duration_s]``, the frame indices unique,
    the frames sorted by ``(t, frame_index)`` and the embeddings finite. A
    frame is embedded when its text table entry is not empty, which the
    offsets tell without decoding a text; in a store's file, ``dim`` 0
    gives its row zero width. Besides the errors of ``IndexFileReader``,
    each failure is a ``DataError`` naming the path.
    """
    reader = IndexFileReader(path, FRAME_TABLE_VERSION)
    (n,) = reader.unpack("<I")
    frame_index = reader.array(n)
    t = reader.array(n, F8)
    if not np.all((0.0 <= t) & (t <= duration_s)):  # NaN fails too
        raise reader.corrupt(f"frame times outside [0, {duration_s}]")
    ranked = np.sort(frame_index)  # not np.unique, which imports numpy.ma
    if np.any(ranked[1:] == ranked[:-1]):
        raise reader.corrupt("duplicate frame_index")
    dt = np.diff(t)
    if np.any((dt < 0.0) | ((dt == 0.0) & (frame_index[1:] <= frame_index[:-1]))):
        raise reader.corrupt("rows not sorted by (t, frame_index)")
    texts = reader.string_table(n)
    embedded = texts.offsets[1:] > texts.offsets[:-1]
    n_embedded = int(np.count_nonzero(embedded))
    (dim,) = reader.unpack("<I")
    if dim and not n_embedded:
        raise reader.corrupt(f"dim {dim} for 0 embedded frames")
    matrix = reader.array(n_embedded * dim, F4).reshape(n_embedded, dim)
    reader.end()
    if not np.all(np.isfinite(matrix)):
        raise reader.corrupt("non-finite embedding values")
    return FrameTable(frame_index, t, embedded, matrix, texts)


# --- the detection table, format version 1 -----------------------------------------
#
#   magic "TVRG" | u32 version | u32 n_frames | <u4 frame_index[n_frames]
#   | u32 object_offsets[n_frames + 1] | label table | <f8 box[n_objects][4]
#   | <f8 confidence[n_objects]
# Frame indices are unique and ascending. The objects of row r are
# object_offsets[r] up to object_offsets[r + 1], and n_objects is
# object_offsets[n_frames]. The label table has one entry per object.
DETECTION_TABLE_VERSION = 1


def save_detections(detector: FixtureDetector, path: str | Path) -> None:
    write_index_file(
        path,
        DETECTION_TABLE_VERSION,
        struct.pack("<I", len(detector.frame_index)),
        detector.frame_index.tobytes(),
        detector.object_offsets.tobytes(),
        pack_strings(detector.labels),
        detector.box.tobytes(),
        detector.confidence.tobytes(),
    )


def load_detections(path: str | Path) -> FixtureDetector:
    """Read a detection table; the detector's arrays are views of the file.

    Besides the errors of ``IndexFileReader``, the loader checks every
    object as ``DetectedObject`` would, so ``detect`` never raises.
    """
    reader = IndexFileReader(path, DETECTION_TABLE_VERSION)
    (n_frames,) = reader.unpack("<I")
    frame_index = reader.array(n_frames)
    object_offsets = reader.offsets(n_frames)
    n_objects = int(object_offsets[-1])
    labels = reader.string_table(n_objects)
    box = reader.array(4 * n_objects, F8).reshape(n_objects, 4)
    confidence = reader.array(n_objects, F8)
    reader.end()
    if np.any(frame_index[1:] <= frame_index[:-1]):
        raise reader.corrupt("frame indices not unique and sorted")
    if np.any(labels.offsets[1:] == labels.offsets[:-1]):
        raise reader.corrupt("empty label")
    x1, y1, x2, y2 = box.T  # NaN fails every comparison below
    if not np.all((0.0 <= x1) & (x1 < x2) & (x2 <= 1.0) & (0.0 <= y1) & (y1 < y2) & (y2 <= 1.0)):
        raise reader.corrupt("box outside 0 <= x1 < x2 <= 1, 0 <= y1 < y2 <= 1")
    if not np.all((0.0 <= confidence) & (confidence <= 1.0)):
        raise reader.corrupt("confidence outside [0, 1]")
    return FixtureDetector(frame_index, object_offsets, labels, box, confidence)
