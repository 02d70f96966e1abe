"""One channel's index: tokenization, Okapi BM25 and exact dense search.

One index per channel, one file per index. Indices are write-once/read-many:
``build_index`` is the single writer, after which concurrent searches need
no locking.

Both searches return document positions, not ids: a position indexes the
doc table, the postings and the dense rows alike. A loaded index decodes
no id table whole: its doc ids and tokens stay sorted ``StringTable``s, a
token lookup bisects (decoding one entry per probe, once per distinct
token), and only the documents turned into ``Snippet``s decode their id.
"""

from __future__ import annotations

import math
import re
import struct
from array import array
from bisect import bisect_left
from collections import defaultdict
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, pairwise

import numpy as np

from .errors import DataError
from .types import Channel, Snippet

MAGIC = b"TVRG"
FORMAT_VERSION = 6
U1 = np.dtype("u1")
U4 = np.dtype("<u4")
F4 = np.dtype("<f4")
F8 = np.dtype("<f8")

# Alphanumeric runs; underscore is a boundary like any other punctuation.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric boundaries, keeping order."""
    return _TOKEN_RE.findall(text.lower())


def first_seen_ids() -> defaultdict[str, int]:
    """A token-to-id dict that gives a token it lacks the next id, 0 first, at its lookup.

    Its keys stay in first-seen order, which is id order.
    """
    ids: defaultdict[str, int] = defaultdict()
    ids.default_factory = ids.__len__
    return ids


def stream_token_ids(
    texts: Iterable[str], ids: defaultdict[str, int], split: Callable[[str], list[str]] = tokenize
) -> tuple[np.ndarray, np.ndarray]:
    """The ids in ``ids`` (see ``first_seen_ids``) of every token of ``texts``, and their counts.

    The ids are one int64 array in text order, then token order: no token
    string outlives its text's ``split``, which is ``tokenize`` by default.
    """
    streamed = array("q")
    counts = []
    for text in texts:
        start = len(streamed)
        streamed.extend(map(ids.__getitem__, split(text)))
        counts.append(len(streamed) - start)
    return np.frombuffer(streamed, dtype=np.int64), np.array(counts, dtype=np.int64)


# Okapi BM25 term-frequency saturation and length normalization.
K1 = 1.2
B = 0.75


@dataclass(eq=False)
class Bm25Index:
    """One channel's document table, its inverted index in CSR form, and its dense rows.

    ``doc_ids`` is strictly sorted, so a document's position is its rank by
    id; ``texts``, ``t_start`` and ``t_end`` (``<f8``) are the documents'
    columns in that order, and row ``p`` of ``vectors`` (``<f4``, one unit
    embedding per document, ``dim`` columns) is document ``p``'s. ``tokens``
    is the strictly sorted vocabulary; the postings of token row ``r`` are
    ``doc_pos[offsets[r]:offsets[r + 1]]`` (doc positions, ascending) and
    the matching ``tf`` term frequencies. These and ``doc_len`` are
    ``<u4``. After a load, ``doc_ids``, ``texts`` and ``tokens`` are
    ``StringTable``s that decode one entry per lookup, and every array is a
    read-only view of the file. An index built without vectors, such as
    the store file ``ingest`` writes, has ``dim`` 0: it can rank lexically,
    not densely.

    ``token_row`` is a lookup cache, filled as tokens are asked for: token
    to row, -1 for a token the index does not hold.
    """

    channel: Channel
    doc_ids: Sequence[str]
    texts: Sequence[str]
    t_start: np.ndarray
    t_end: np.ndarray
    tokens: Sequence[str]
    doc_len: np.ndarray
    offsets: np.ndarray
    doc_pos: np.ndarray
    tf: np.ndarray
    vectors: np.ndarray
    avg_dl: float = field(init=False)
    dl_norm: np.ndarray = field(init=False, repr=False)
    token_row: dict[str, int] = field(init=False, repr=False, default_factory=dict)
    _snippets: dict[int, Snippet] = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        n_docs = len(self.doc_ids)
        self.avg_dl = int(self.doc_len.sum(dtype=np.int64)) / n_docs if n_docs else 0.0
        dl = self.doc_len.astype(np.float64)
        self.dl_norm = K1 * (1.0 - B + B * dl / self.avg_dl) if self.avg_dl else dl

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def snippet(self, pos: int) -> Snippet:
        """The document at position ``pos``, built at its first lookup and then kept.

        A load builds no ``Snippet``; an index asked many questions builds
        each pooled document once. Concurrent lookups need no lock: a race
        at worst builds an equal snippet twice.
        """
        snippet = self._snippets.get(pos)
        if snippet is None:
            snippet = self._snippets[pos] = Snippet(
                id=self.doc_ids[pos],
                channel=self.channel,
                text=self.texts[pos],
                t_start=self.t_start.item(pos),
                t_end=self.t_end.item(pos),
            )
        return snippet

    @cached_property
    def _f8(self) -> np.ndarray:
        return self.vectors.astype(np.float64)

    def similarities(self, q: np.ndarray) -> np.ndarray:
        """Inner products of the query with every document's row, in position order."""
        return row_similarities(self._f8, q)

    def _span(self, token: str) -> tuple[int, int]:
        row = cached_rank(self.token_row, self.tokens, token)
        if row < 0:
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


def row_similarities(rows: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Inner products of ``q`` with every row of the float64 matrix ``rows``, in row order.

    One matrix-vector product; a ``q`` that is not one vector as wide as the rows is a
    ``DataError``.
    """
    q = np.asarray(q, dtype=np.float64)
    dim = rows.shape[1]
    if q.ndim != 1:
        raise DataError(f"query of shape {q.shape}, expected one vector of dim {dim}")
    if q.shape[0] != dim:
        raise DataError(f"expected dim {dim}, got {q.shape[0]}")
    return rows @ q


def cached_rank(cache: dict[str, int], table: Sequence[str], key: str) -> int:
    """Position of ``key`` in the strictly sorted ``table``, or -1 if absent.

    ``cache`` keeps every answer, so a key costs one bisection (one decode
    per probe of a ``StringTable``) and then dict hits. A race at worst
    bisects for the same key twice.
    """
    pos = cache.get(key)
    if pos is None:
        pos = bisect_left(table, key)
        if pos == len(table) or table[pos] != key:
            pos = -1
        cache[key] = pos
    return pos


def top_hits(scores: np.ndarray, keep: np.ndarray, k: int) -> tuple[list[int], list[float]]:
    """The ``k`` best positions ``i`` with ``keep[i]`` and their scores.

    Order is score descending, then position: over a strictly sorted id
    table, position order is id order.
    """
    hits = np.flatnonzero(keep)
    if len(hits) > k:
        # Keep every hit tied with the k-th best score; the sort then cuts exactly.
        kth = np.partition(scores[hits], len(hits) - k)[len(hits) - k]
        hits = hits[scores[hits] >= kth]
    hit_scores = scores[hits]
    best = np.lexsort((hits, -hit_scores))[:k]
    return hits[best].tolist(), hit_scores[best].tolist()


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


def build_index(
    docs: Sequence[Snippet],
    vectors: Sequence[np.ndarray] | np.ndarray | None = None,
) -> Bm25Index:
    """Build a BM25 index over snippets that all share one channel.

    The documents are ordered by id, and a document's position is its
    rank; a repeated id is a ``DataError``. The vocabulary is every token
    they hold, sorted, and a token's row is its rank in it. Tokenizing
    keeps no token string past its document: each occurrence becomes its
    token's first-seen id, streamed into one integer array, and one lookup
    array then maps those ids to rows. Each token occurrence becomes one
    integer key ``row * n_docs + position``, and one sort of the keys
    groups them by row, then by position: each run of equal keys is one
    posting, and the run's length is its term frequency. So each row's
    postings come out in ascending position order, and a row's offset is
    the number of postings of the rows before it.

    ``vectors`` holds one unit embedding per document, in ``docs`` order
    (a sequence of vectors or one 2-D array); they become the dense rows,
    reordered with the documents. Without them the index has ``dim`` 0.
    """
    channels = {d.channel for d in docs}
    if len(channels) > 1:
        raise DataError(f"documents span channels {sorted(c.value for c in channels)}")
    channel = channels.pop() if channels else Channel.ASR
    if vectors is not None and len(vectors) != len(docs):
        raise DataError(f"{len(docs)} documents but {len(vectors)} vectors")

    order = sorted(range(len(docs)), key=lambda i: docs[i].id)
    ordered = [docs[i] for i in order]
    for prev, doc in pairwise(ordered):
        if prev.id == doc.id:
            raise DataError(f"duplicate doc id {doc.id!r}")
    n_docs = len(ordered)
    first_seen = first_seen_ids()
    ids, doc_len = stream_token_ids((doc.text for doc in ordered), first_seen)
    vocab = sorted(first_seen)
    rank = np.empty(len(vocab), dtype=np.int64)  # first-seen id to row
    rank[[first_seen[token] for token in vocab]] = np.arange(len(vocab))
    keys = rank[ids]
    del ids  # the stream goes before the keys' temporaries come
    keys *= n_docs
    keys += np.repeat(np.arange(n_docs), doc_len)
    keys.sort()
    firsts = np.flatnonzero(np.diff(keys, prepend=-1))  # the first key of each run
    token_row, doc_pos = np.divmod(keys[firsts], n_docs)
    if vectors is None or not len(vectors):
        matrix = np.zeros((len(docs), 0), dtype=F4)
    else:
        matrix = f4_matrix(vectors, len(vectors[0]))[order]
    return Bm25Index(
        channel=channel,
        doc_ids=[d.id for d in ordered],
        texts=[d.text for d in ordered],
        t_start=np.array([d.t_start for d in ordered], dtype=F8),
        t_end=np.array([d.t_end for d in ordered], dtype=F8),
        tokens=vocab,
        doc_len=doc_len.astype(U4),
        offsets=np.searchsorted(token_row, np.arange(len(vocab) + 1)).astype(U4),
        doc_pos=doc_pos.astype(U4),
        tf=np.diff(firsts, append=len(keys)).astype(U4),
        vectors=matrix,
    )


def search(index: Bm25Index, query_text: str, pool_size: int) -> list[tuple[int, float]]:
    """Positions and scores of the top ``pool_size`` documents with positive score, best first.

    Ties break by ascending position, which is doc-id order. Fewer results
    are returned when fewer documents match any query token.
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
    dfs = [hi - lo for lo, hi in spans]
    idfs = np.repeat([_idf(index.n_docs, df) for df in dfs], dfs)
    scores = np.zeros(index.n_docs, dtype=np.float64)
    # Okapi term contributions, accumulated per document in query-token order.
    np.add.at(scores, positions, idfs * tfs * (K1 + 1.0) / (tfs + index.dl_norm[positions]))
    best, best_scores = top_hits(scores, scores > 0.0, pool_size)
    return list(zip(best, best_scores))


def dense_search(
    index: Bm25Index, q: np.ndarray, k: int, threshold: float
) -> list[tuple[int, float]]:
    """Positions and scores of up to ``k`` rows with inner product >= ``threshold``, best first.

    Exact full scan; ties break by ascending position, which is doc-id order.
    """
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    scores = index.similarities(q)
    best, best_scores = top_hits(scores, scores >= threshold, k)
    return list(zip(best, best_scores))


# --- binary persistence, format version 6 ---------------------------------------
#
# All integers little-endian u32, floats f64 unless marked:
#   magic "TVRG" | version | channel (a one-string table)
#   | n_docs | n_tokens | doc-id table (sorted) | text table
#   | t_start[n_docs] | t_end[n_docs] | token table (sorted)
#   | doc_len[n_docs] | offsets[n_tokens + 1] | doc_pos[n_postings] | tf[n_postings]
#   | dim | <f4 vectors[n_docs][dim]
# A string table is offsets[n + 1] into one UTF-8 blob that follows them.
# n_postings is offsets[n_tokens]. The vector rows are in doc-position
# order, so they carry no ids of their own. A store file, which ``ingest``
# writes, has dim 0; ``build`` adds the rows.
# The arrays load as views of the file's bytes, so the loader checks every
# invariant that both searches and the document lookup rely on. No table
# is decoded whole: the loader checks each one's order on its bytes, and
# lookups bisect.


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

        UTF-8 byte order is code-point order, Python's ``str`` order. Adjacent
        entries are compared eight bytes at a time, all pairs at once, and
        only the pairs still tied move on to the next eight bytes; memory
        stays linear in the table's size.
        """
        if len(self) < 2:
            return True
        size = self.offsets.item(-1)
        padded = np.zeros(size + 8, dtype=U1)
        padded[:size] = self._blob()
        # words[i]: the eight bytes from byte i on, as one big-endian integer.
        words = np.ndarray((size + 1,), dtype=">u8", buffer=padded, strides=(1,))
        starts = self.offsets[:-1].astype(np.intp)
        lens = np.diff(self.offsets).astype(np.intp)
        pairs = np.arange(len(self) - 1)  # left entry of each pair still tied
        done = 0  # bytes compared so far in every tied pair
        while len(pairs):
            left, right = pairs, pairs + 1
            rest_l, rest_r = lens[left] - done, lens[right] - done
            word_l = words[starts[left] + done] & _HEAD_MASKS[np.minimum(rest_l, 8)]
            word_r = words[starts[right] + done] & _HEAD_MASKS[np.minimum(rest_r, 8)]
            if np.any(word_l > word_r):
                return False
            tied = word_l == word_r
            # A tie where either entry ends is a prefix: ordered iff the left is shorter.
            ends = tied & ((rest_l <= 8) | (rest_r <= 8))
            if np.any(rest_l[ends] >= rest_r[ends]):
                return False
            pairs = pairs[tied & ~ends]
            done += 8
        return True


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

    def __init__(self, path: str, version: int):
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
        """A string table of ``n`` entries, checked whole and decoded per lookup."""
        offsets = self.offsets(n)
        size = int(offsets[-1])
        base = self._take(size)
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


def write_index_file(path: str, version: int, *parts: bytes) -> None:
    """Write the magic, ``version`` and ``parts``: a file ``IndexFileReader`` opens."""
    with open(path, "wb") as fh:
        fh.writelines((MAGIC, struct.pack("<I", version), *parts))


def save_index(index: Bm25Index, path: str) -> None:
    write_index_file(
        path,
        FORMAT_VERSION,
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


def load_index(path: str, duration_s: float) -> Bm25Index:
    """Read an index written by ``save_index``, no document ending after ``duration_s``.

    The ids must be unique and sorted, and the times finite with
    ``0 <= t_start <= t_end <= duration_s``; see ``IndexFileReader`` for
    the other errors.
    """
    reader = IndexFileReader(path, FORMAT_VERSION)
    (channel_tag,) = reader.string_table(1)
    n_docs, n_tokens = reader.unpack("<II")
    try:
        channel = Channel.parse(channel_tag)
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
