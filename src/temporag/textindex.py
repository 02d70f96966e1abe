"""One channel's index: tokenization, Okapi BM25 and exact dense search.

One index per channel, one file per index (``tables`` holds its layout).
Indices are write-once/read-many: ``build_index`` is the single builder,
after which concurrent searches need no locking.

Both searches return ``Hits``: document positions and their scores, not
ids. A position indexes the doc table, the postings and the dense rows
alike, and a channel's candidate pool stays positions and scores until its
top K (``pipeline.retrieve_channel``). A loaded index decodes no id table
whole: its doc ids and tokens stay sorted ``StringTable``s, a token lookup
bisects (decoding one entry per probe, once per distinct token), and only
the top-K hits, turned into ``Snippet``s, decode their id.
"""

from __future__ import annotations

import math
import re
from array import array
from bisect import bisect_left
from collections import defaultdict
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import pairwise

import numpy as np

from .errors import DataError
from .types import CHANNELS, Channel, Snippet, SnippetColumns

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
    read-only view of the file. An index without dense rows, as
    ``build_index`` returns it and ``ingest`` stores it, has ``dim`` 0: it
    can rank lexically, not densely.

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
        each top-K document once. Concurrent lookups need no lock: a race
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
        """The postings span of ``token``'s row; empty for a token the index lacks.

        ``token_row`` keeps every row found, so a token costs one bisection
        (one decode per probe of a ``StringTable``) and then dict hits. A
        race at worst bisects for the same token twice.
        """
        row = self.token_row.get(token)
        if row is None:
            row = bisect_left(self.tokens, token)
            if row == len(self.tokens) or self.tokens[row] != token:
                row = -1
            self.token_row[token] = row
        if row < 0:
            return 0, 0
        return self.offsets.item(row), self.offsets.item(row + 1)


def row_similarities(
    rows: np.ndarray, q: np.ndarray, positions: Sequence[int] | None = None
) -> np.ndarray:
    """Inner products of ``q`` with rows of the matrix ``rows``, as float64.

    Without ``positions``: every row of the float64 ``rows``, in row order,
    by one matrix-vector product. With ``positions``: those rows, in that
    order, each by its own float64 dot product (a stacked matmul, with the
    bits of ``np.dot``), so a row's value does not depend on which other
    rows are asked for. A ``q`` that is not one vector as wide as the rows
    is a ``DataError``.
    """
    q = np.asarray(q, dtype=np.float64)
    dim = rows.shape[1]
    if q.ndim != 1:
        raise DataError(f"query of shape {q.shape}, expected one vector of dim {dim}")
    if q.shape[0] != dim:
        raise DataError(f"expected dim {dim}, got {q.shape[0]}")
    if positions is None:
        return rows @ q
    picked = rows[positions].astype(np.float64, copy=False)
    return (picked[:, None, :] @ q[:, None]).ravel()


@dataclass(frozen=True, eq=False)
class Hits:
    """Documents of one index, row by row: positions (intp) and scores (float64)."""

    pos: np.ndarray
    score: np.ndarray

    def __len__(self) -> int:
        return len(self.pos)


NO_HITS = Hits(np.empty(0, dtype=np.intp), np.empty(0, dtype=np.float64))


def top_hits(scores: np.ndarray, keep: np.ndarray, k: int) -> Hits:
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
    return Hits(hits[best], hit_scores[best])


def build_index(docs: SnippetColumns) -> Bm25Index:
    """Build a BM25 index over snippet columns whose rows all share one channel.

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

    The index has ``dim`` 0; ``build`` attaches the dense rows by assigning
    ``vectors`` one embedding per position, the order of ``texts``.
    """
    codes = sorted(set(docs.channels.tolist()))
    if len(codes) > 1:
        raise DataError(f"documents span channels {sorted(CHANNELS[c].value for c in codes)}")
    channel = CHANNELS[codes[0]] if codes else Channel.ASR
    n_docs = len(docs)

    order = sorted(range(n_docs), key=docs.ids.__getitem__)
    doc_ids = [docs.ids[i] for i in order]
    for prev, doc_id in pairwise(doc_ids):
        if prev == doc_id:
            raise DataError(f"duplicate doc id {doc_id!r}")
    texts = [docs.texts[i] for i in order]
    first_seen = first_seen_ids()
    ids, doc_len = stream_token_ids(texts, first_seen)
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
    return Bm25Index(
        channel=channel,
        doc_ids=doc_ids,
        texts=texts,
        t_start=docs.t_start[order].astype(F8),
        t_end=docs.t_end[order].astype(F8),
        tokens=vocab,
        doc_len=doc_len.astype(U4),
        offsets=np.searchsorted(token_row, np.arange(len(vocab) + 1)).astype(U4),
        doc_pos=doc_pos.astype(U4),
        tf=np.diff(firsts, append=len(keys)).astype(U4),
        vectors=np.zeros((n_docs, 0), dtype=F4),
    )


def search(index: Bm25Index, query_text: str, pool_size: int) -> Hits:
    """The top ``pool_size`` documents with positive score, best first.

    Ties break by ascending position, which is doc-id order. Fewer hits
    are returned when fewer documents match any query token.
    """
    if pool_size < 1:
        raise DataError(f"pool_size must be >= 1, got {pool_size}")
    spans = [(lo, hi) for lo, hi in map(index._span, tokenize(query_text)) if hi > lo]
    if not spans:
        return NO_HITS
    # intp, not the stored u4: numpy fancy-indexes with intp several times faster.
    positions = np.concatenate([index.doc_pos[lo:hi] for lo, hi in spans], dtype=np.intp)
    tfs = np.concatenate([index.tf[lo:hi] for lo, hi in spans], dtype=np.float64)
    dfs = [hi - lo for lo, hi in spans]
    n_docs = index.n_docs
    idfs = np.repeat([math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5)) for df in dfs], dfs)
    scores = np.zeros(n_docs, dtype=np.float64)
    # Okapi term contributions, accumulated per document in query-token order.
    np.add.at(scores, positions, idfs * tfs * (K1 + 1.0) / (tfs + index.dl_norm[positions]))
    return top_hits(scores, scores > 0.0, pool_size)


def dense_search(index: Bm25Index, q: np.ndarray, k: int, threshold: float) -> Hits:
    """Up to ``k`` rows with inner product >= ``threshold``, best first.

    Exact full scan; ties break by ascending position, which is doc-id order.
    """
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    scores = index.similarities(q)
    return top_hits(scores, scores >= threshold, k)
