"""Exact inner-product search over unit vectors, plus embedding utilities.

Vectors are normalized at insert so inner product equals cosine similarity
and one acceptance threshold is meaningful across providers. Storage is
one float32 matrix, the same bytes as on disk, so persistence round-trips
bit-exactly. No approximation anywhere: search is a full scan.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Protocol, Sequence

import numpy as np

from .errors import DataError, DimMismatchError, DuplicateIdError, ZeroVectorError
from .textindex import MAGIC, IndexFileReader, pack_strings, tokenize

F4 = np.dtype("<f4")
# The vector file layout is independent of the ``.bm25`` one and versioned apart.
FORMAT_VERSION = 2


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

    Rows live in one ``<f4`` matrix, a read-only view of the file's bytes
    after a load. ``similarities`` scans a float64 copy made on first use.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise DataError(f"dim must be positive, got {dim}")
        self.dim = dim
        self._ids: list[str] = []
        self._row: dict[str, int] = {}
        self._f4 = np.zeros((0, dim), dtype=F4)
        self._f8: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, vec_id: str) -> bool:
        return vec_id in self._row

    @property
    def ids(self) -> list[str]:
        return list(self._ids)

    def add(self, vec_id: str, v: Sequence[float] | np.ndarray) -> None:
        """Store a vector under an id, normalized to unit length."""
        arr = np.asarray(v, dtype=np.float64)
        if arr.shape != (self.dim,):
            raise DimMismatchError(self.dim, arr.shape[0] if arr.ndim == 1 else -1)
        if vec_id in self._row:
            raise DuplicateIdError(vec_id)
        unit = normalize(arr).astype(F4)
        self._row[vec_id] = len(self._ids)
        self._ids.append(vec_id)
        self._f4 = np.concatenate([self._f4, unit[None]])
        self._f8 = None

    def get(self, vec_id: str) -> np.ndarray:
        return self._f4[self._row[vec_id]]

    def similarities(self, q: np.ndarray) -> np.ndarray:
        """Inner products of the query against every stored vector."""
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
        kept = [(self._ids[i], float(scores[i])) for i in np.nonzero(scores >= threshold)[0]]
        kept.sort(key=lambda h: (-h[1], h[0]))
        return kept[:k]


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


# --- vector file, format version 2 ----------------------------------------------
#
# magic "TVRG" | u32 version | u32 dim | u32 n | id table | <f4 matrix n x dim
# The id table is a string table (see ``textindex.pack_strings``). Used both
# for index persistence and for precomputed embedding stores.


def save_vectors(path: str, ids: Sequence[str], vectors: Sequence[np.ndarray], dim: int) -> None:
    matrix = np.empty((len(ids), dim), dtype=F4)
    for row, vec in zip(matrix, vectors, strict=True):
        if np.shape(vec) != (dim,):
            raise DimMismatchError(dim, np.size(vec))
        row[:] = vec
    with open(path, "wb") as fh:
        fh.write(
            MAGIC
            + struct.pack("<III", FORMAT_VERSION, dim, len(ids))
            + pack_strings(ids)
            + matrix.tobytes()
        )


def save_index(index: FlatVectorIndex, path: str) -> None:
    save_vectors(path, index._ids, index._f4, index.dim)


def load_index(path: str) -> FlatVectorIndex:
    """Read a vector file; rows keep their stored bits, with no re-normalization.

    Errors are those of ``textindex.IndexFileReader``.
    """
    reader = IndexFileReader(path, FORMAT_VERSION)
    dim, n = reader.unpack("<II")
    if dim < 1:
        raise reader.corrupt(f"dim {dim}")
    ids = reader.strings(n)
    matrix = reader.array(n * dim, F4).reshape(n, dim)
    reader.end()
    row = dict(zip(ids, range(n)))
    if len(row) != n:
        raise reader.corrupt("duplicate ids")
    index = FlatVectorIndex(dim)
    index._ids, index._row, index._f4 = ids, row, matrix
    return index


class PrecomputedEmbeddings:
    """Embeddings keyed by id, loaded from a vector file."""

    def __init__(self, path: str):
        self._index = load_index(path)

    def lookup(self, ids: Sequence[str]) -> list[np.ndarray]:
        missing = [i for i in ids if i not in self._index]
        if missing:
            raise DataError(f"embeddings missing for ids: {', '.join(sorted(missing))}")
        return [self._index.get(i) for i in ids]
