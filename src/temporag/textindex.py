"""Tokenization, inverted index construction, and Okapi BM25 scoring.

One index per channel. Indices are write-once/read-many: ``build_index``
is the single writer, after which concurrent searches need no locking.
"""

from __future__ import annotations

import math
import re
import struct
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, pairwise
from typing import Sequence

import numpy as np

from .errors import (
    DataError,
    DuplicateDocIdError,
    MixedChannelsError,
    UnknownDocIdError,
    VersionMismatchError,
)
from .types import Channel, Snippet

MAGIC = b"TVRG"
FORMAT_VERSION = 3
U4 = np.dtype("<u4")
F8 = np.dtype("<f8")

# Alphanumeric runs; underscore is a boundary like any other punctuation.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric boundaries, keeping order."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class Bm25Params:
    """Okapi parameters, serialized with the index for reproducibility."""

    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self):
        if not 0.0 < self.k1 < math.inf:
            raise DataError(f"k1 must be positive and finite, got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise DataError(f"b must be within [0, 1], got {self.b}")


@dataclass(eq=False)
class Bm25Index:
    """One channel's document table and its inverted index, in CSR form.

    ``doc_ids`` is sorted, so a document's position is its rank by id;
    ``texts``, ``t_start`` and ``t_end`` (``<f8``) are the documents' columns
    in that order. ``token_row`` maps each token, in sorted order, to its
    row ``r``; the postings of row ``r`` are ``doc_pos[offsets[r]:offsets[r + 1]]``
    (doc positions, ascending) and the matching ``tf`` term frequencies.
    These and ``doc_len`` are ``<u4``. After a load, every array is a
    read-only view of the file.
    """

    channel: Channel
    params: Bm25Params
    doc_ids: list[str]
    texts: list[str]
    t_start: np.ndarray
    t_end: np.ndarray
    token_row: dict[str, int]
    doc_len: np.ndarray
    offsets: np.ndarray
    doc_pos: np.ndarray
    tf: np.ndarray
    avg_dl: float = field(init=False)
    dl_norm: np.ndarray = field(init=False, repr=False)
    _snippets: dict[str, Snippet] = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        n_docs = len(self.doc_ids)
        self.avg_dl = int(self.doc_len.sum(dtype=np.int64)) / n_docs if n_docs else 0.0
        k1, b = self.params.k1, self.params.b
        dl = self.doc_len.astype(np.float64)
        self.dl_norm = k1 * (1.0 - b + b * dl / self.avg_dl) if self.avg_dl else dl

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

    def position(self, doc_id: str) -> int:
        """Rank of ``doc_id`` in the sorted doc table; ``UnknownDocIdError`` if absent."""
        pos = bisect_left(self.doc_ids, doc_id)
        if pos == self.n_docs or self.doc_ids[pos] != doc_id:
            raise UnknownDocIdError(doc_id)
        return pos

    def snippet(self, doc_id: str) -> Snippet:
        """The stored document ``doc_id``, built at its first lookup and then kept.

        A load builds no ``Snippet``; an index asked many questions builds
        each pooled document once. Concurrent lookups need no lock: a race
        at worst builds an equal snippet twice.
        """
        snippet = self._snippets.get(doc_id)
        if snippet is None:
            pos = self.position(doc_id)
            snippet = self._snippets[doc_id] = Snippet(
                id=doc_id,
                channel=self.channel,
                text=self.texts[pos],
                t_start=self.t_start.item(pos),
                t_end=self.t_end.item(pos),
            )
        return snippet

    def _span(self, token: str) -> tuple[int, int]:
        row = self.token_row.get(token)
        if row is None:
            return 0, 0
        return self.offsets.item(row), self.offsets.item(row + 1)

    def postings(self, token: str) -> list[tuple[str, int]]:
        """``[(doc_id, tf)]`` of one token, ascending by doc_id; empty if unseen."""
        lo, hi = self._span(token)
        return [
            (self.doc_ids[p], f)
            for p, f in zip(self.doc_pos[lo:hi].tolist(), self.tf[lo:hi].tolist())
        ]

    def idf(self, token: str) -> float:
        """ln(1 + (N - df + 0.5) / (df + 0.5)); 0 for unseen tokens."""
        lo, hi = self._span(token)
        return _idf(self.n_docs, hi - lo) if hi > lo else 0.0


def _idf(n_docs: int, df: int) -> float:
    return math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))


def build_index(docs: Sequence[Snippet], params: Bm25Params | None = None) -> Bm25Index:
    """Build a BM25 index over snippets that all share one channel."""
    params = params or Bm25Params()
    channels = {d.channel for d in docs}
    if len(channels) > 1:
        raise MixedChannelsError(f"documents span channels {sorted(c.value for c in channels)}")
    channel = channels.pop() if channels else Channel.ASR

    ordered = sorted(docs, key=lambda d: d.id)
    for prev, doc in pairwise(ordered):
        if prev.id == doc.id:
            raise DuplicateDocIdError(doc.id)
    doc_len = []
    rows: dict[str, list[tuple[int, int]]] = {}  # token -> [(doc position, tf)]
    for pos, doc in enumerate(ordered):
        tokens = tokenize(doc.text)
        doc_len.append(len(tokens))
        for token, tf in Counter(tokens).items():
            rows.setdefault(token, []).append((pos, tf))

    vocab = sorted(rows)
    postings = [p for token in vocab for p in rows[token]]
    return Bm25Index(
        channel=channel,
        params=params,
        doc_ids=[d.id for d in ordered],
        texts=[d.text for d in ordered],
        t_start=np.array([d.t_start for d in ordered], dtype=F8),
        t_end=np.array([d.t_end for d in ordered], dtype=F8),
        token_row={token: r for r, token in enumerate(vocab)},
        doc_len=np.array(doc_len, dtype=U4),
        offsets=np.array(list(accumulate((len(rows[t]) for t in vocab), initial=0)), dtype=U4),
        doc_pos=np.array([p for p, _ in postings], dtype=U4),
        tf=np.array([f for _, f in postings], dtype=U4),
    )


def bm25_score(index: Bm25Index, query_tokens: Sequence[str], doc_id: str) -> float:
    """Okapi score of one document for a query token list.

    Repeated query tokens contribute once per occurrence. Terms absent
    from the document contribute zero.
    """
    pos = index.position(doc_id)
    k1, b = index.params.k1, index.params.b
    dl = int(index.doc_len[pos])
    score = 0.0
    for token in query_tokens:
        tf = dict(index.postings(token)).get(doc_id, 0)
        if tf == 0:
            continue
        # tf > 0 means some document has a token, so avg_dl > 0 here.
        norm = k1 * (1.0 - b + b * dl / index.avg_dl)
        score += index.idf(token) * tf * (k1 + 1.0) / (tf + norm)
    return score


def search(index: Bm25Index, query_text: str, pool_size: int) -> list[tuple[str, float]]:
    """Top ``pool_size`` documents with positive score, best first.

    Ties break by ascending doc_id. Fewer results are returned when fewer
    documents match any query token.
    """
    if pool_size < 1:
        raise DataError(f"pool_size must be >= 1, got {pool_size}")
    query_tokens = tokenize(query_text)
    if not query_tokens or index.n_docs == 0:
        return []

    spans = [(lo, hi) for lo, hi in map(index._span, query_tokens) if hi > lo]
    if not spans:
        return []
    # intp, not the stored u4: numpy fancy-indexes with intp several times faster.
    positions = np.concatenate([index.doc_pos[lo:hi] for lo, hi in spans], dtype=np.intp)
    tfs = np.concatenate([index.tf[lo:hi] for lo, hi in spans], dtype=np.float64)
    idfs = np.array([idf for lo, hi in spans for idf in [_idf(index.n_docs, hi - lo)] * (hi - lo)])
    k1 = index.params.k1
    scores = np.zeros(index.n_docs, dtype=np.float64)
    # Okapi term contributions, accumulated per document in query-token order.
    np.add.at(scores, positions, idfs * tfs * (k1 + 1.0) / (tfs + index.dl_norm[positions]))

    hits = [(index.doc_ids[i], float(scores[i])) for i in np.nonzero(scores > 0.0)[0]]
    hits.sort(key=lambda h: (-h[1], h[0]))
    return hits[:pool_size]


# --- binary persistence, format version 3 ---------------------------------------
#
# All integers little-endian u32, floats f64:
#   magic "TVRG" | version | channel (a one-string table) | k1 | b
#   | n_docs | n_tokens | doc-id table (sorted) | text table
#   | t_start[n_docs] | t_end[n_docs] | token table (sorted)
#   | doc_len[n_docs] | offsets[n_tokens + 1] | doc_pos[n_postings] | tf[n_postings]
# A string table is offsets[n + 1] into one UTF-8 blob that follows them.
# n_postings is offsets[n_tokens]. The arrays load as views of the file's
# bytes, so the loader checks every invariant that search and the document
# lookup rely on.


def pack_strings(strings: Sequence[str]) -> bytes:
    """A string table: u32 offsets[n + 1], then the concatenated UTF-8."""
    blobs = [s.encode("utf-8") for s in strings]
    offsets = np.array(list(accumulate(map(len, blobs), initial=0)), dtype=U4)
    return offsets.tobytes() + b"".join(blobs)


class IndexFileReader:
    """Bounds-checked reads over one index file, read whole at open.

    Arrays are ``np.frombuffer`` views of the file's bytes. A bad magic or
    a format version other than ``version`` raises ``VersionMismatchError``;
    every other failure is a ``DataError`` naming the path.
    """

    def __init__(self, path: str, version: int):
        self.path = path
        try:
            with open(path, "rb") as fh:
                self.data = fh.read()
        except OSError as exc:
            raise DataError(f"{path}: cannot read index ({exc.strerror})") from None
        if self.data[:4] != MAGIC:
            raise VersionMismatchError(f"{path}: bad magic, not a temporag index")
        self.pos = 4
        (found,) = self.unpack("<I")
        if found != version:
            raise VersionMismatchError(f"{path}: format version {found}, expected {version}")

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

    def strings(self, n: int) -> list[str]:
        offsets = self.offsets(n)
        base = self._take(int(offsets[-1]))
        bounds = [base + o for o in offsets.tolist()]
        data = self.data
        try:
            return [data[lo:hi].decode("utf-8") for lo, hi in zip(bounds, bounds[1:])]
        except UnicodeDecodeError as exc:
            raise self.corrupt(f"invalid UTF-8: {exc.reason}") from None

    def end(self) -> None:
        if self.pos != len(self.data):
            raise self.corrupt(f"{len(self.data) - self.pos} trailing bytes")


def save_index(index: Bm25Index, path: str) -> None:
    k1, b = index.params.k1, index.params.b
    head = MAGIC + struct.pack("<I", FORMAT_VERSION) + pack_strings([index.channel.value])
    head += struct.pack("<ddII", k1, b, index.n_docs, len(index.token_row))
    tables = (
        pack_strings(index.doc_ids)
        + pack_strings(index.texts)
        + index.t_start.tobytes()
        + index.t_end.tobytes()
        + pack_strings(list(index.token_row))
    )
    arrays = (index.doc_len, index.offsets, index.doc_pos, index.tf)
    with open(path, "wb") as fh:
        fh.write(head + tables + b"".join(a.tobytes() for a in arrays))


def load_index(path: str) -> Bm25Index:
    """Read an index written by ``save_index``; see ``IndexFileReader`` for errors."""
    reader = IndexFileReader(path, FORMAT_VERSION)
    (channel_tag,) = reader.strings(1)
    k1, b, n_docs, n_tokens = reader.unpack("<ddII")
    try:
        channel = Channel.parse(channel_tag)
        params = Bm25Params(k1=k1, b=b)
    except DataError as exc:
        raise reader.corrupt(str(exc)) from None
    doc_ids = reader.strings(n_docs)
    texts = reader.strings(n_docs)
    t_start = reader.array(n_docs, F8)
    t_end = reader.array(n_docs, F8)
    tokens = reader.strings(n_tokens)
    doc_len = reader.array(n_docs)
    offsets = reader.offsets(n_tokens)
    doc_pos = reader.array(int(offsets[-1]))
    tf = reader.array(int(offsets[-1]))
    reader.end()
    if not all(x < y for x, y in pairwise(doc_ids)):
        raise reader.corrupt("doc ids not unique and sorted")
    # NaN fails every comparison, and t_end < inf bounds both columns.
    if not np.all((0.0 <= t_start) & (t_start <= t_end) & (t_end < np.inf)):
        raise reader.corrupt("times not finite with 0 <= t_start <= t_end")
    if not all(x < y for x, y in pairwise(tokens)):
        raise reader.corrupt("token table not strictly sorted")
    if len(doc_pos) and (doc_pos.max() >= n_docs or tf.min() < 1):
        raise reader.corrupt("posting out of range")
    return Bm25Index(
        channel=channel,
        params=params,
        doc_ids=doc_ids,
        texts=texts,
        t_start=t_start,
        t_end=t_end,
        token_row=dict(zip(tokens, range(n_tokens))),
        doc_len=doc_len,
        offsets=offsets,
        doc_pos=doc_pos,
        tf=tf,
    )
