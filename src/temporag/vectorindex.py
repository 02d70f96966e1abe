"""Exact inner-product search over unit vectors, plus embedding utilities.

Vectors are normalized at insert so inner product equals cosine similarity
and one acceptance threshold is meaningful across providers. Storage is
float32, matching the on-disk record format, so persistence round-trips
bit-exactly. No approximation anywhere: search is a full scan.
"""

from __future__ import annotations

import hashlib
import io
import struct
from typing import Protocol, Sequence

import numpy as np

from .errors import (
    DataError,
    DimMismatchError,
    DuplicateIdError,
    VersionMismatchError,
    ZeroVectorError,
)
from .textindex import MAGIC, FORMAT_VERSION, tokenize

DEFAULT_THRESHOLD = 0.3


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
    """Exact flat index over unit vectors with an acceptance threshold."""

    def __init__(self, dim: int, threshold: float = DEFAULT_THRESHOLD):
        if dim < 1:
            raise DataError(f"dim must be positive, got {dim}")
        self.dim = dim
        self.threshold = threshold
        self._ids: list[str] = []
        self._pos: dict[str, int] = {}
        self._rows: list[np.ndarray] = []
        self._matrix: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, vec_id: str) -> bool:
        return vec_id in self._pos

    @property
    def ids(self) -> list[str]:
        return list(self._ids)

    def add(self, vec_id: str, v: Sequence[float] | np.ndarray) -> None:
        """Store a vector under an id, normalized to unit length."""
        arr = np.asarray(v, dtype=np.float64)
        if arr.shape != (self.dim,):
            raise DimMismatchError(self.dim, arr.shape[0] if arr.ndim == 1 else -1)
        if vec_id in self._pos:
            raise DuplicateIdError(vec_id)
        unit = normalize(arr).astype(np.float32)
        self._pos[vec_id] = len(self._ids)
        self._ids.append(vec_id)
        self._rows.append(unit)
        self._matrix = None

    def get(self, vec_id: str) -> np.ndarray:
        return self._rows[self._pos[vec_id]]

    def _stacked(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = (
                np.stack(self._rows).astype(np.float64)
                if self._rows
                else np.zeros((0, self.dim), dtype=np.float64)
            )
        return self._matrix

    def similarities(self, q: np.ndarray) -> np.ndarray:
        """Inner products of the query against every stored vector."""
        q = np.asarray(q, dtype=np.float64)
        if q.shape != (self.dim,):
            raise DimMismatchError(self.dim, q.shape[0] if q.ndim == 1 else -1)
        return self._stacked() @ q

    def search(
        self, q: np.ndarray, k: int, threshold: float | None = None
    ) -> list[tuple[str, float]]:
        """Up to k entries with score >= threshold, best first.

        Exact full scan; ties break by ascending id.
        """
        if k < 1:
            raise DataError(f"k must be >= 1, got {k}")
        tau = self.threshold if threshold is None else threshold
        scores = self.similarities(q)
        kept = [(self._ids[i], float(scores[i])) for i in np.nonzero(scores >= tau)[0]]
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


# --- vector record file ---------------------------------------------------------
#
# Layout: magic "TVRG" | u32 version | u32 dim
#         | per record: u32 id length, id bytes, dim * f32 little-endian
# Used both for index persistence and for precomputed embedding stores.


def save_vectors(path: str, ids: Sequence[str], vectors: Sequence[np.ndarray], dim: int) -> None:
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<II", FORMAT_VERSION, dim))
    for vec_id, vec in zip(ids, vectors):
        data = vec_id.encode("utf-8")
        buf.write(struct.pack("<I", len(data)))
        buf.write(data)
        buf.write(np.asarray(vec, dtype="<f4").tobytes())
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def load_vectors(path: str) -> tuple[int, list[tuple[str, np.ndarray]]]:
    """Read a vector record file; a truncated or corrupt one raises ``DataError``."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return _parse_vectors(data, path)
    except (struct.error, ValueError) as exc:  # ValueError covers frombuffer and UTF-8
        raise DataError(f"{path}: truncated or corrupt vector file ({exc})") from None


def _parse_vectors(data: bytes, path: str) -> tuple[int, list[tuple[str, np.ndarray]]]:
    if data[:4] != MAGIC:
        raise VersionMismatchError(f"{path}: bad magic, not a temporag vector file")
    version, dim = struct.unpack_from("<II", data, 4)
    if version != FORMAT_VERSION:
        raise VersionMismatchError(f"{path}: format version {version}, expected {FORMAT_VERSION}")
    records = []
    offset = 12
    row_bytes = 4 * dim
    while offset < len(data):
        (id_len,) = struct.unpack_from("<I", data, offset)
        offset += 4
        vec_id = data[offset : offset + id_len].decode("utf-8")
        offset += id_len
        vec = np.frombuffer(data, dtype="<f4", count=dim, offset=offset).copy()
        offset += row_bytes
        records.append((vec_id, vec))
    return dim, records


def save_index(index: FlatVectorIndex, path: str) -> None:
    save_vectors(path, index._ids, index._rows, index.dim)


def load_index(path: str, threshold: float = DEFAULT_THRESHOLD) -> FlatVectorIndex:
    dim, records = load_vectors(path)
    index = FlatVectorIndex(dim, threshold=threshold)
    for vec_id, vec in records:
        # Already unit-norm at save time; bypass re-normalization to keep
        # the round trip bit-exact.
        index._pos[vec_id] = len(index._ids)
        index._ids.append(vec_id)
        index._rows.append(vec)
    return index


class PrecomputedEmbeddings:
    """Embeddings keyed by id, loaded from a vector record file."""

    def __init__(self, path: str):
        self.dim, records = load_vectors(path)
        self._by_id = {vec_id: vec for vec_id, vec in records}

    def lookup(self, ids: Sequence[str]) -> list[np.ndarray]:
        missing = [i for i in ids if i not in self._by_id]
        if missing:
            raise DataError(f"embeddings missing for ids: {', '.join(sorted(missing))}")
        return [self._by_id[i] for i in ids]
