"""Exact inner-product search over unit vectors, plus embedding utilities.

Vectors are normalized at insert so inner product equals cosine similarity
and one acceptance threshold is meaningful across providers. Storage is
one float32 matrix, the same bytes as on disk, so persistence round-trips
bit-exactly. No approximation anywhere: search is a full scan.

Rows are kept sorted by id. A loaded index keeps its ids as the file's
``StringTable``: an id lookup bisects it once per distinct id, and
``search`` decodes only the ids it returns.
"""

from __future__ import annotations

import hashlib
import struct
from bisect import bisect_left
from typing import Protocol, Sequence

import numpy as np

from .errors import DataError, DimMismatchError, DuplicateIdError, ZeroVectorError
from .textindex import (
    IndexFileReader,
    StringTable,
    cached_rank,
    pack_strings,
    tokenize,
    top_hits,
    write_index_file,
)

F4 = np.dtype("<f4")
# The vector file layout is independent of the ``.bm25`` one and versioned apart.
FORMAT_VERSION = 3


def normalize(v: Sequence[float] | np.ndarray) -> np.ndarray:
    """Scale a vector to unit L2 norm, preserving direction."""
    arr = np.asarray(v, dtype=np.float64)
    norm = float(np.linalg.norm(arr))
    if norm <= 0.0 or not np.isfinite(norm):
        raise ZeroVectorError("cannot normalize a zero vector")
    return arr / norm


class EmbeddingProvider(Protocol):
    """Maps texts to fixed-dimension vectors, deterministically."""

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]: ...


class FlatVectorIndex:
    """Exact flat index over unit vectors.

    Rows live in one ``<f4`` matrix in ascending id order, a read-only view
    of the file's bytes after a load. ``similarities`` scans a float64 copy
    made on first use. ``_row`` is a lookup cache, filled as ids are asked
    for: id to row, -1 for an id the index does not hold.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise DataError(f"dim must be positive, got {dim}")
        self.dim = dim
        self._ids: Sequence[str] = []
        self._row: dict[str, int] = {}
        self._f4 = np.zeros((0, dim), dtype=F4)
        self._f8: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self._ids)

    def _position(self, vec_id: str) -> int:
        return cached_rank(self._row, self._ids, vec_id)

    def __contains__(self, vec_id: str) -> bool:
        return self._position(vec_id) >= 0

    @property
    def ids(self) -> list[str]:
        return list(self._ids)

    @property
    def id_table(self) -> Sequence[str]:
        """The sorted ids themselves: a list, or the file's ``StringTable`` after a load."""
        return self._ids

    def share_lookups(self, cache: dict[str, int]) -> None:
        """Fill and read ``cache`` as this index's lookup cache.

        For an index whose ids are another table's, in the same order, so
        both map an id to the same position. ``add`` stops the sharing.
        """
        self._row = cache

    def rows(self, ids: Sequence[str]) -> np.ndarray:
        """The row of each id, -1 where absent.

        Over a loaded table, the ids not looked up before are searched all at
        once; every answer is cached.
        """
        todo = [vec_id for vec_id in ids if vec_id not in self._row]
        if isinstance(self._ids, StringTable):
            self._row.update(zip(todo, self._ids.find(todo).tolist()))
        else:
            for vec_id in todo:
                self._position(vec_id)
        return np.array([self._row[vec_id] for vec_id in ids], dtype=np.intp)

    def add(self, vec_id: str, v: Sequence[float] | np.ndarray) -> None:
        """Store a vector under an id, normalized to unit length, at its rank by id."""
        arr = np.asarray(v, dtype=np.float64)
        if arr.shape != (self.dim,):
            raise DimMismatchError(self.dim, arr.shape[0] if arr.ndim == 1 else -1)
        if vec_id in self:
            raise DuplicateIdError(vec_id)
        unit = normalize(arr).astype(F4)
        self._ids = list(self._ids)
        pos = bisect_left(self._ids, vec_id)
        self._ids.insert(pos, vec_id)
        self._f4 = np.insert(self._f4, pos, unit, axis=0)
        self._row = {}
        self._f8 = None

    def get(self, vec_id: str) -> np.ndarray:
        row = self._position(vec_id)
        if row < 0:
            raise KeyError(vec_id)
        return self._f4[row]

    def similarities(self, q: np.ndarray) -> np.ndarray:
        """Inner products of the query against every stored vector, in row order."""
        q = np.asarray(q, dtype=np.float64)
        if q.shape != (self.dim,):
            raise DimMismatchError(self.dim, q.shape[0] if q.ndim == 1 else -1)
        if self._f8 is None:
            self._f8 = self._f4.astype(np.float64)
        return self._f8 @ q

    def search(self, q: np.ndarray, k: int, threshold: float) -> list[tuple[str, float]]:
        """Up to k entries with score >= threshold, best first.

        Exact full scan; ties break by ascending id.
        """
        if k < 1:
            raise DataError(f"k must be >= 1, got {k}")
        scores = self.similarities(q)
        best, best_scores = top_hits(scores, scores >= threshold, k)
        return [(self._ids[i], score) for i, score in zip(best, best_scores)]


# --- deterministic hash embedder ----------------------------------------------


class HashEmbedder:
    """Seeded pseudo-random token embeddings, for tests and desk-scale runs.

    Each token maps to a fixed unit vector drawn from a PRNG keyed on
    (seed, token digest); a text embeds to the normalized mean of its token
    vectors. Identical texts embed identically on every platform; texts
    sharing tokens are more similar than disjoint ones in expectation.
    """

    def __init__(self, dim: int, seed: int = 0):
        if dim < 8:
            raise DataError(f"hash embedder dim must be >= 8, got {dim}")
        self.dim = dim
        self.seed = seed
        self._token_cache: dict[str, np.ndarray] = {}

    def _token_vector(self, token: str) -> np.ndarray:
        cached = self._token_cache.get(token)
        if cached is not None:
            return cached
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=16).digest()
        words = struct.unpack("<4I", digest)
        rng = np.random.default_rng((self.seed,) + words)
        vec = normalize(rng.standard_normal(self.dim))
        self._token_cache[token] = vec
        return vec

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        out = []
        for text in texts:
            tokens = tokenize(text) or [""]
            mean = np.zeros(self.dim, dtype=np.float64)
            for token in tokens:
                mean += self._token_vector(token)
            out.append(normalize(mean / len(tokens)))
        return out


# --- vector file, format version 3 ----------------------------------------------
#
# magic "TVRG" | u32 version | u32 dim | u32 n | id table | <f4 matrix n x dim
# The id table is a string table (see ``textindex.pack_strings``), strictly
# sorted, with the matrix rows in the same order. Version 3 has the layout
# of version 2, whose rows were in the writer's order. Used both for index
# persistence and for precomputed embedding stores.


def f4_matrix(vectors: Sequence[np.ndarray], dim: int) -> np.ndarray:
    """The vectors as the rows of one ``<f4`` matrix; a vector of another length is an error."""
    matrix = np.empty((len(vectors), dim), dtype=F4)
    for row, vec in zip(matrix, vectors):
        if np.shape(vec) != (dim,):
            raise DimMismatchError(dim, np.size(vec))
        row[:] = vec
    return matrix


def save_vectors(path: str, ids: Sequence[str], vectors: Sequence[np.ndarray], dim: int) -> None:
    """Write ``vectors`` under ``ids``, rows sorted by id."""
    ordered = sorted(zip(ids, vectors, strict=True), key=lambda row: row[0])
    write_index_file(
        path,
        FORMAT_VERSION,
        struct.pack("<II", dim, len(ordered)),
        pack_strings([vec_id for vec_id, _ in ordered]),
        f4_matrix([vec for _, vec in ordered], dim).tobytes(),
    )


def save_index(index: FlatVectorIndex, path: str) -> None:
    save_vectors(path, index._ids, index._f4, index.dim)


def load_index(path: str) -> FlatVectorIndex:
    """Read a vector file; rows keep their stored bits, with no re-normalization.

    Errors are those of ``textindex.IndexFileReader``, and a ``DataError``
    naming the path for a NaN or infinite matrix entry.
    """
    reader = IndexFileReader(path, FORMAT_VERSION)
    dim, n = reader.unpack("<II")
    if dim < 1:
        raise reader.corrupt(f"dim {dim}")
    ids = reader.string_table(n)
    matrix = reader.array(n * dim, F4).reshape(n, dim)
    reader.end()
    if not ids.is_strictly_sorted():
        raise reader.corrupt("duplicate ids or ids out of order")
    if not np.all(np.isfinite(matrix)):
        raise reader.corrupt("non-finite vector values")
    index = FlatVectorIndex(dim)
    index._ids, index._f4 = ids, matrix
    return index


class PrecomputedEmbeddings:
    """Embeddings keyed by id, loaded from a vector file."""

    def __init__(self, path: str):
        self._index = load_index(path)

    def lookup(self, ids: Sequence[str]) -> list[np.ndarray]:
        rows = self._index.rows(ids).tolist()
        missing = [i for i, row in zip(ids, rows) if row < 0]
        if missing:
            raise DataError(f"embeddings missing for ids: {', '.join(sorted(missing))}")
        return [self._index.get(i) for i in ids]
