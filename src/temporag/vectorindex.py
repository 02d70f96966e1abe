"""Embedding utilities: unit normalization, providers, and the precomputed-embedding store.

Vectors are normalized before they are stored so inner product equals
cosine similarity and one acceptance threshold is meaningful across
providers. A channel's dense rows live in its ``.bm25`` file (see
``textindex``), positional and searched there; this module's vector file
is the id-keyed store that ``providers.embed = "file"`` reads embeddings
from.
"""

from __future__ import annotations

import hashlib
import math
import struct
from typing import Protocol, Sequence

import numpy as np

from .errors import DataError, ZeroVectorError
from .textindex import F4, IndexFileReader, f4_matrix, pack_strings, tokenize, write_index_file

# The vector file layout is independent of the ``.bm25`` one and versioned apart.
FORMAT_VERSION = 3


def _row_norms(matrix: np.ndarray) -> np.ndarray:
    """The L2 norm of each row of a 2-D float64 array, each as ``math.sqrt(row.dot(row))``.

    The squared norms are one stacked matmul of every row with itself, which
    gives the bits of the 1-D ``dot`` (``np.einsum("ij,ij->i")`` does not).
    """
    squares = (matrix[:, None, :] @ matrix[:, :, None]).ravel()
    # NaN fails the comparison; the square root keeps 0 and inf.
    if not all(0.0 < square < math.inf for square in squares.tolist()):
        raise ZeroVectorError("cannot normalize a zero vector")
    return np.sqrt(squares)


def unit_rows(matrix: np.ndarray) -> np.ndarray:
    """A float64 copy of a 2-D array with each row scaled to unit L2 norm."""
    out = np.array(matrix, dtype=np.float64)
    out /= _row_norms(out)[:, None]
    return out


def normalize(v: Sequence[float] | np.ndarray) -> np.ndarray:
    """Scale a vector to unit L2 norm, preserving direction: the one row of ``unit_rows``."""
    return unit_rows([v])[0]


class EmbeddingProvider(Protocol):
    """Maps texts to fixed-dimension vectors, deterministically.

    ``embed`` returns one ``(len(texts), dim)`` float64 matrix of unit rows.
    """

    def embed(self, texts: Sequence[str]) -> np.ndarray: ...


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


# ``embed`` sums the token rows of up to this many texts in one padded gather.
_CHUNK_TEXTS = 256
# The most floats one gather holds (4 MB): 256 texts of 32 tokens at dim 64.
# Token positions past it are added one position at a time.
_GATHER_FLOATS = 256 * 32 * 64


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

    The token vectors are cached per instance as the rows of one float64
    matrix with spare capacity, found through a token-to-row dict. Row 0
    is all zeros. ``embed`` draws every token the instance has not seen in
    one batch, into the next free rows: it seeds them all with
    ``seed_states`` and sets one ``PCG64`` to each token's state in turn,
    which is the generator ``default_rng`` would have built. The matrix
    grows by doubling, so a call that meets new tokens copies no rows
    unless the spare capacity runs out.

    A call then sums each text's token rows in chunks of up to
    ``_CHUNK_TEXTS`` texts of similar token counts: one gather of the
    chunk's row ids, padded with row 0 to the longest text, and one
    ``np.add.reduce`` over the token axis. That reduce adds the rows one
    after another into an accumulator that starts at 0.0, which is the
    order and the bits of the per-token loop ``mean = zeros(dim); mean +=
    row``: numpy sums pairwise only along the innermost, contiguous axis,
    and the token axis is not that one. A padded zero row leaves every sum
    as it was. Positions past ``_GATHER_FLOATS`` are added one position
    at a time, in the same order. Each chunk's sums are divided by the
    token counts and normalized as one batch, into the returned matrix.
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
        self._rows = np.zeros((64, dim))
        self._row_of: dict[str, int] = {}

    def _draw(self, tokens: list[str], out: np.ndarray | None = None) -> np.ndarray:
        """The unit vectors of ``tokens``, one row each, written into ``out`` if given."""
        if out is None:
            out = np.empty((len(tokens), self.dim))
        digests = b"".join(
            hashlib.blake2b(token.encode("utf-8"), digest_size=16).digest() for token in tokens
        )
        n_seed = len(self._seed_words)
        entropy = np.empty((n_seed + 4, len(tokens)), dtype=np.uint32)
        entropy[:n_seed] = np.array(self._seed_words, dtype=np.uint32)[:, None]
        entropy[n_seed:] = np.frombuffer(digests, dtype="<u4").reshape(-1, 4).T
        for (s0, s1, s2, s3), row in zip(seed_states(entropy).tolist(), out):
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
        out /= _row_norms(out)[:, None]
        return out

    def _add(self, tokens: list[str]) -> None:
        """Draw ``tokens`` into the next free rows of the cache."""
        start = len(self._row_of) + 1
        end = start + len(tokens)
        if end > len(self._rows):
            grown = np.zeros((max(end, 2 * len(self._rows)), self.dim))
            grown[:start] = self._rows[:start]
            self._rows = grown
        self._draw(tokens, self._rows[start:end])
        self._row_of.update(zip(tokens, range(start, end)))

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        token_lists = [tokenize(text) or [""] for text in texts]
        row_of = self._row_of
        missing = list(
            dict.fromkeys(t for tokens in token_lists for t in tokens if t not in row_of)
        )
        if missing:
            self._add(missing)
        lengths = list(map(len, token_lists))
        order = sorted(range(len(token_lists)), key=lengths.__getitem__)
        out = np.empty((len(token_lists), self.dim))
        for start in range(0, len(order), _CHUNK_TEXTS):
            chunk = order[start : start + _CHUNK_TEXTS]
            width = lengths[chunk[-1]]  # the longest: the chunk is sorted by length
            ids = np.array(
                [[row_of[t] for t in token_lists[i]] + [0] * (width - lengths[i]) for i in chunk]
            )
            gathered = min(width, max(1, _GATHER_FLOATS // (len(chunk) * self.dim)))
            sums = np.add.reduce(self._rows[ids[:, :gathered]], axis=1, initial=0.0)
            for column in ids[:, gathered:].T if gathered < width else ():
                sums += self._rows[column]
            sums /= np.array([lengths[i] for i in chunk], dtype=np.float64)[:, None]
            sums /= _row_norms(sums)[:, None]
            out[chunk] = sums
        return out


# --- vector file, format version 3 ----------------------------------------------
#
# magic "TVRG" | u32 version | u32 dim | u32 n | id table | <f4 matrix n x dim
# The id table is a string table (see ``textindex.pack_strings``), strictly
# sorted, with the matrix rows in the same order. Version 3 has the layout
# of version 2, whose rows were in the writer's order. The format of the
# precomputed embedding stores that ``providers.embed = "file"`` reads.


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


class PrecomputedEmbeddings:
    """Embeddings keyed by id, read from a vector file.

    Rows keep their stored bits, with no re-normalization. The checked id
    table is decoded once, into an id-to-row dict. Errors are those
    of ``textindex.IndexFileReader``, and a ``DataError`` naming the path
    for a zero ``dim``, ids out of order or repeated, or a NaN or infinite
    matrix entry.
    """

    def __init__(self, path: str):
        reader = IndexFileReader(path, FORMAT_VERSION)
        dim, n = reader.unpack("<II")
        if dim < 1:
            raise reader.corrupt(f"dim {dim}")
        ids = reader.string_table(n)
        self._matrix = reader.array(n * dim, F4).reshape(n, dim)
        reader.end()
        if not ids.is_strictly_sorted():
            raise reader.corrupt("duplicate ids or ids out of order")
        if not np.all(np.isfinite(self._matrix)):
            raise reader.corrupt("non-finite vector values")
        self._row_of = {vec_id: row for row, vec_id in enumerate(ids)}

    def lookup(self, ids: Sequence[str]) -> np.ndarray:
        """The stored rows of ``ids``, in order; a ``DataError`` names every id the file lacks."""
        missing = [i for i in ids if i not in self._row_of]
        if missing:
            raise DataError(f"embeddings missing for ids: {', '.join(sorted(missing))}")
        return self._matrix[[self._row_of[i] for i in ids]]
