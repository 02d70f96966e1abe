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
import math
import struct
from bisect import bisect_left
from typing import Protocol, Sequence

import numpy as np

from .errors import DataError, DimMismatchError, DuplicateIdError, ZeroVectorError
from .textindex import (
    IndexFileReader,
    StringTable,
    cached_rank,
    corrupt_index,
    pack_strings,
    tokenize,
    top_hits,
    write_index_file,
)

F4 = np.dtype("<f4")
# The vector file layout is independent of the ``.bm25`` one and versioned apart.
FORMAT_VERSION = 3


def _norm(arr: np.ndarray) -> float:
    """The L2 norm of a 1-D float64 array, as ``np.linalg.norm`` computes it."""
    norm = math.sqrt(arr.dot(arr))
    if not 0.0 < norm < math.inf:
        raise ZeroVectorError("cannot normalize a zero vector")
    return norm


def normalize(v: Sequence[float] | np.ndarray) -> np.ndarray:
    """Scale a vector to unit L2 norm, preserving direction."""
    arr = np.asarray(v, dtype=np.float64)
    return arr / _norm(arr)


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


# numpy's ``SeedSequence`` hash constants, from ``numpy/random/bit_generator.pyx``.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4
# The multiplier of PCG64's 128-bit linear congruential step.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1


def _hash_constants(init: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiply) constants of ``n`` successive hash steps, as ``uint32`` columns."""
    seq = [init]
    for _ in range(n):
        seq.append(seq[-1] * mult & _MASK32)
    column = np.array(seq, dtype=np.uint32)[:, None]
    return column[:-1], column[1:]


def _hash(words: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    out = words ^ xor
    out *= mult
    out ^= out >> _XSHIFT
    return out


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_MULT_L
    out -= y * _MIX_MULT_R
    out ^= out >> _XSHIFT
    return out


def seed_states(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(e).generate_state(4, np.uint64)`` for every column ``e`` of ``entropy``.

    ``entropy`` is a ``uint32`` array of at least ``_POOL_SIZE`` words by
    one column per seed. The steps are numpy's, each applied to a whole row
    of words, so the 32-bit wrap-around happens in array arithmetic, which
    never warns.
    """
    n_extra = len(entropy) - _POOL_SIZE
    xor, mult = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * (_POOL_SIZE + n_extra))
    # Hash the first words into the pool, then mix every pool word into
    # each other one, then each remaining word into every pool word.
    pool = _hash(entropy[:_POOL_SIZE], xor[:_POOL_SIZE], mult[:_POOL_SIZE])
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        steps = slice(k, k + len(dst))
        pool[dst] = _mix(pool[dst], _hash(pool[src], xor[steps], mult[steps]))
        k += len(dst)
    for word in entropy[_POOL_SIZE:]:
        pool = _mix(pool, _hash(word, xor[k : k + _POOL_SIZE], mult[k : k + _POOL_SIZE]))
        k += _POOL_SIZE
    xor, mult = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    state = _hash(np.concatenate([pool, pool]), xor, mult)
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8")


class HashEmbedder:
    """Seeded pseudo-random token embeddings, for tests and desk-scale runs.

    A token's vector is
    ``normalize(default_rng((seed, w0, w1, w2, w3)).standard_normal(dim))``,
    where ``w0..w3`` are the little-endian 32-bit words of the token's
    16-byte blake2b digest of its UTF-8 bytes. A text embeds to the
    normalized mean of its token vectors, summed in token order (an empty
    text is the one token ``""``). Identical texts embed identically on
    every platform; texts sharing tokens are more similar than disjoint
    ones in expectation.

    ``embed`` draws every token an instance has not seen in one batch: it
    seeds them all with ``seed_states`` and sets one ``PCG64`` to each
    token's state in turn, which is the generator ``default_rng`` would
    have built. The vectors are cached per instance, as rows of the batch.
    """

    def __init__(self, dim: int, seed: int = 0):
        if dim < 8:
            raise DataError(f"hash embedder dim must be >= 8, got {dim}")
        if not isinstance(seed, int) or seed < 0:
            raise DataError(f"hash embedder seed must be a non-negative integer, got {seed!r}")
        self.dim = dim
        self.seed = seed
        # The seed's little-endian 32-bit words, as ``SeedSequence`` splits it.
        self._seed_words = [
            seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)
        ]
        self._bits = np.random.PCG64()
        self._normal = np.random.Generator(self._bits)
        self._token_cache: dict[str, np.ndarray] = {}

    def _draw(self, tokens: list[str]) -> np.ndarray:
        """The unit vectors of ``tokens``, one row each."""
        digests = b"".join(
            hashlib.blake2b(token.encode("utf-8"), digest_size=16).digest() for token in tokens
        )
        n_seed = len(self._seed_words)
        entropy = np.empty((n_seed + 4, len(tokens)), dtype=np.uint32)
        entropy[:n_seed] = np.array(self._seed_words, dtype=np.uint32)[:, None]
        entropy[n_seed:] = np.frombuffer(digests, dtype="<u4").reshape(-1, 4).T
        matrix = np.empty((len(tokens), self.dim))
        for (s0, s1, s2, s3), row in zip(seed_states(entropy).tolist(), matrix):
            # PCG64's seeding: state and increment from the four state words.
            inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
            state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128
            self._bits.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            self._normal.standard_normal(out=row)
            row /= _norm(row)
        return matrix

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        token_lists = [tokenize(text) or [""] for text in texts]
        cache = self._token_cache
        missing = list(
            dict.fromkeys(token for tokens in token_lists for token in tokens if token not in cache)
        )
        if missing:
            cache.update(zip(missing, self._draw(missing)))
        out = []
        for tokens in token_lists:
            mean = np.zeros(self.dim)
            for token in tokens:
                mean += cache[token]
            mean /= len(tokens)
            out.append(normalize(mean))
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


_UNSORTED = "duplicate ids or ids out of order"


def load_index(path: str, check_order: bool = True) -> FlatVectorIndex:
    """Read a vector file; rows keep their stored bits, with no re-normalization.

    Errors are those of ``textindex.IndexFileReader``, and a ``DataError``
    naming the path for a NaN or infinite matrix entry. With
    ``check_order`` false the ids are not checked for order here:
    ``match_ids`` must check them next.
    """
    reader = IndexFileReader(path, FORMAT_VERSION)
    dim, n = reader.unpack("<II")
    if dim < 1:
        raise reader.corrupt(f"dim {dim}")
    ids = reader.string_table(n)
    matrix = reader.array(n * dim, F4).reshape(n, dim)
    reader.end()
    if check_order and not ids.is_strictly_sorted():
        raise reader.corrupt(_UNSORTED)
    if not np.all(np.isfinite(matrix)):
        raise reader.corrupt("non-finite vector values")
    index = FlatVectorIndex(dim)
    index._ids, index._f4 = ids, matrix
    return index


def match_ids(index: FlatVectorIndex, path: str, doc_ids: StringTable) -> None:
    """Require the ids of a vector file loaded without its order check to equal ``doc_ids``.

    ``doc_ids`` is a table already checked to be strictly sorted, a loaded
    ``.bm25`` file's, so ids equal to it need no order check of their own.
    Other ids are a ``DataError`` naming the path: out of order, or else
    different.
    """
    if index.id_table == doc_ids:
        return
    if not index.id_table.is_strictly_sorted():
        raise corrupt_index(path, _UNSORTED)
    raise DataError(f"{path}: ids differ from the doc ids of its .bm25 file; re-run build")


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
