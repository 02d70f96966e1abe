"""Tokenization, inverted index construction, and Okapi BM25 scoring.

One index per channel. Indices are write-once/read-many: ``build_index``
is the single writer, after which concurrent searches need no locking.
"""

from __future__ import annotations

import io
import math
import re
import struct
from dataclasses import dataclass, field
from typing import BinaryIO, Sequence

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
FORMAT_VERSION = 1

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
        if self.k1 <= 0:
            raise DataError(f"k1 must be positive, got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise DataError(f"b must be within [0, 1], got {self.b}")


@dataclass
class Bm25Index:
    """Inverted index with document statistics for one channel.

    ``postings`` maps token -> [(doc_id, term_frequency)] sorted by doc_id.
    The private arrays mirror the postings in dense positional form for
    vectorized scoring.
    """

    channel: Channel
    params: Bm25Params
    postings: dict[str, list[tuple[str, int]]]
    doc_len: dict[str, int]
    n_docs: int
    avg_dl: float
    _doc_ids: list[str] = field(default_factory=list, repr=False)
    _doc_pos: dict[str, int] = field(default_factory=dict, repr=False)
    _dl_norm: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]
    _token_arrays: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict, repr=False)

    def idf(self, token: str) -> float:
        """ln(1 + (N - df + 0.5) / (df + 0.5)); 0 for unseen tokens."""
        df = len(self.postings.get(token, ()))
        if df == 0:
            return 0.0
        return math.log(1.0 + (self.n_docs - df + 0.5) / (df + 0.5))

    def __len__(self) -> int:
        return self.n_docs


def _finalize(index: Bm25Index) -> Bm25Index:
    """Derive the positional arrays used by ``search``."""
    k1, b = index.params.k1, index.params.b
    dl = np.array([index.doc_len[d] for d in index._doc_ids], dtype=np.float64)
    index._dl_norm = k1 * (1.0 - b + b * dl / index.avg_dl) if index.n_docs else dl
    for token, plist in index.postings.items():
        positions = np.array([index._doc_pos[d] for d, _ in plist], dtype=np.int64)
        tfs = np.array([tf for _, tf in plist], dtype=np.float64)
        index._token_arrays[token] = (positions, tfs)
    return index


def build_index(docs: Sequence[Snippet], params: Bm25Params | None = None) -> Bm25Index:
    """Build a BM25 index over snippets that all share one channel."""
    params = params or Bm25Params()
    channels = {d.channel for d in docs}
    if len(channels) > 1:
        raise MixedChannelsError(f"documents span channels {sorted(c.value for c in channels)}")
    channel = channels.pop() if channels else Channel.ASR

    doc_len: dict[str, int] = {}
    doc_ids: list[str] = []
    postings: dict[str, dict[str, int]] = {}
    for doc in docs:
        if doc.id in doc_len:
            raise DuplicateDocIdError(doc.id)
        tokens = tokenize(doc.text)
        doc_len[doc.id] = len(tokens)
        doc_ids.append(doc.id)
        for token in tokens:
            postings.setdefault(token, {}).setdefault(doc.id, 0)
            postings[token][doc.id] += 1

    sorted_postings = {
        token: sorted(per_doc.items()) for token, per_doc in sorted(postings.items())
    }
    n_docs = len(doc_ids)
    avg_dl = (sum(doc_len.values()) / n_docs) if n_docs else 0.0
    index = Bm25Index(
        channel=channel,
        params=params,
        postings=sorted_postings,
        doc_len=doc_len,
        n_docs=n_docs,
        avg_dl=avg_dl,
        _doc_ids=doc_ids,
        _doc_pos={d: i for i, d in enumerate(doc_ids)},
    )
    return _finalize(index)


def bm25_score(index: Bm25Index, query_tokens: Sequence[str], doc_id: str) -> float:
    """Okapi score of one document for a query token list.

    Repeated query tokens contribute once per occurrence. Terms absent
    from the document contribute zero.
    """
    if doc_id not in index.doc_len:
        raise UnknownDocIdError(doc_id)
    k1, b = index.params.k1, index.params.b
    dl = index.doc_len[doc_id]
    norm = k1 * (1.0 - b + b * dl / index.avg_dl)
    score = 0.0
    for token in query_tokens:
        plist = index.postings.get(token)
        if not plist:
            continue
        tf = 0
        for d, f in plist:
            if d == doc_id:
                tf = f
                break
        if tf == 0:
            continue
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

    positions_parts = []
    tfs_parts = []
    idfs_parts = []
    for token in query_tokens:
        arrays = index._token_arrays.get(token)
        if arrays is None:
            continue
        positions, tfs = arrays
        positions_parts.append(positions)
        tfs_parts.append(tfs)
        idfs_parts.append(np.full(len(positions), index.idf(token), dtype=np.float64))
    if not positions_parts:
        return []

    positions = np.concatenate(positions_parts)
    tfs = np.concatenate(tfs_parts)
    idfs = np.concatenate(idfs_parts)
    k1 = index.params.k1
    scores = np.zeros(index.n_docs, dtype=np.float64)
    # Okapi term contributions, accumulated per document in posting order.
    np.add.at(scores, positions, idfs * tfs * (k1 + 1.0) / (tfs + index._dl_norm[positions]))

    hits = [(index._doc_ids[i], float(scores[i])) for i in np.nonzero(scores > 0.0)[0]]
    hits.sort(key=lambda h: (-h[1], h[0]))
    return hits[:pool_size]


# --- binary persistence ------------------------------------------------------
#
# Layout (all integers little-endian):
#   magic "TVRG" | u32 version | str channel | f64 k1 | f64 b
#   u32 n_docs | per doc: str doc_id, u32 doc_len
#   u32 n_tokens | per token: str token, u32 n_postings,
#                  per posting: u32 doc_index, u32 tf
# Strings are u32 length + UTF-8 bytes.


def _write_str(fh: BinaryIO, s: str) -> None:
    data = s.encode("utf-8")
    fh.write(struct.pack("<I", len(data)))
    fh.write(data)


def _read_str(fh: BinaryIO) -> str:
    (n,) = struct.unpack("<I", fh.read(4))
    return fh.read(n).decode("utf-8")


def save_index(index: Bm25Index, path: str) -> None:
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<I", FORMAT_VERSION))
    _write_str(buf, index.channel.value)
    buf.write(struct.pack("<dd", index.params.k1, index.params.b))
    buf.write(struct.pack("<I", index.n_docs))
    for doc_id in index._doc_ids:
        _write_str(buf, doc_id)
        buf.write(struct.pack("<I", index.doc_len[doc_id]))
    buf.write(struct.pack("<I", len(index.postings)))
    for token, plist in index.postings.items():
        _write_str(buf, token)
        buf.write(struct.pack("<I", len(plist)))
        for doc_id, tf in plist:
            buf.write(struct.pack("<II", index._doc_pos[doc_id], tf))
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def load_index(path: str) -> Bm25Index:
    """Read an index written by ``save_index``.

    A truncated or corrupt file raises ``DataError`` naming the path; an
    unknown magic or format version raises ``VersionMismatchError``.
    """
    with open(path, "rb") as fh:
        try:
            return _read_index(fh, path)
        except (struct.error, IndexError, UnicodeDecodeError) as exc:
            raise DataError(f"{path}: truncated or corrupt index ({exc})") from None


def _read_index(fh: BinaryIO, path: str) -> Bm25Index:
    if fh.read(4) != MAGIC:
        raise VersionMismatchError(f"{path}: bad magic, not a temporag index")
    (version,) = struct.unpack("<I", fh.read(4))
    if version != FORMAT_VERSION:
        raise VersionMismatchError(f"{path}: format version {version}, expected {FORMAT_VERSION}")
    channel = Channel.parse(_read_str(fh))
    k1, b = struct.unpack("<dd", fh.read(16))
    (n_docs,) = struct.unpack("<I", fh.read(4))
    doc_ids = []
    doc_len = {}
    for _ in range(n_docs):
        doc_id = _read_str(fh)
        (length,) = struct.unpack("<I", fh.read(4))
        doc_ids.append(doc_id)
        doc_len[doc_id] = length
    (n_tokens,) = struct.unpack("<I", fh.read(4))
    postings: dict[str, list[tuple[str, int]]] = {}
    for _ in range(n_tokens):
        token = _read_str(fh)
        (n_postings,) = struct.unpack("<I", fh.read(4))
        plist = []
        for _ in range(n_postings):
            doc_index, tf = struct.unpack("<II", fh.read(8))
            plist.append((doc_ids[doc_index], tf))
        postings[token] = plist

    avg_dl = (sum(doc_len.values()) / n_docs) if n_docs else 0.0
    index = Bm25Index(
        channel=channel,
        params=Bm25Params(k1=k1, b=b),
        postings=postings,
        doc_len=doc_len,
        n_docs=n_docs,
        avg_dl=avg_dl,
        _doc_ids=doc_ids,
        _doc_pos={d: i for i, d in enumerate(doc_ids)},
    )
    return _finalize(index)
