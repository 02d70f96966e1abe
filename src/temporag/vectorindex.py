"""Embedding utilities: unit normalization, the embedder contract and the hash embedder.

Vectors are normalized before they are stored so inner product equals
cosine similarity and one acceptance threshold is meaningful across
providers. A channel's dense rows live in its ``.bm25`` file (see
``textindex``), positional and searched there.
"""

from __future__ import annotations

import hashlib
import math
from itertools import islice
from typing import Protocol, Sequence

import numpy as np

from .errors import DataError
from .textindex import first_seen_ids, stream_token_ids, tokenize

# The narrowest hash embedding; ``config`` rejects a smaller ``embed_dim`` at load.
MIN_HASH_DIM = 8


def _row_norms(matrix: np.ndarray) -> np.ndarray:
    """The L2 norm of each row of a 2-D float64 array, each as ``math.sqrt(row.dot(row))``.

    The squared norms are one stacked matmul of every row with itself, which
    gives the bits of the 1-D ``dot`` (``np.einsum("ij,ij->i")`` does not).
    """
    squares = (matrix[:, None, :] @ matrix[:, :, None]).ravel()
    # NaN fails the comparison; the square root keeps 0 and inf.
    if not all(0.0 < square < math.inf for square in squares.tolist()):
        raise DataError("cannot normalize a zero vector")
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


# ``embed`` sums the token rows of up to this many texts of similar token counts at a time.
_CHUNK_TEXTS = 256


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
    matrix, one row per token drawn, found through a token-to-row dict.
    ``embed`` tokenizes its texts into one integer array of cache rows and
    keeps no token string: a token the instance has not seen takes the next
    row at its first occurrence. It then draws every such token in one
    batch: it seeds them all with ``seed_states`` and sets one ``PCG64`` to
    each token's state in turn, which is the generator ``default_rng``
    would have built, and appends their rows to the matrix, which it
    resizes in place.

    A call then sums each text's token rows in chunks of up to
    ``_CHUNK_TEXTS`` texts of similar token counts, one token position at
    a time. Each chunk lays its cache row ids out position-major, so
    position ``j`` is one gather of the ``j``-th row of each text that
    long and one add to those texts' sums. Each sum starts at 0.0 and
    takes its rows in token order, which is the order and the bits of the per-token
    loop ``mean = zeros(dim); mean += row``. Each chunk's sums are divided
    by the token counts and normalized as one batch, into the returned
    matrix.
    """

    def __init__(self, dim: int, seed: int = 0):
        if dim < MIN_HASH_DIM:
            raise DataError(f"hash embedder dim must be >= {MIN_HASH_DIM}, got {dim}")
        if type(seed) is not int or seed < 0:
            raise DataError(f"hash embedder seed must be a non-negative integer, got {seed!r}")
        self.dim = dim
        self.seed = seed
        # The seed's little-endian 32-bit words, as ``SeedSequence`` splits it.
        self._seed_words = [
            seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)
        ]
        self._bits = np.random.PCG64()
        self._normal = np.random.Generator(self._bits)
        self._rows = np.zeros((0, dim))
        self._row_of = first_seen_ids()

    def _draw(self, tokens: list[str]) -> np.ndarray:
        """The unit vectors of ``tokens``, one row each."""
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

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        # A text with no tokens embeds as the one token "".
        token_rows, lengths = stream_token_ids(texts, self._row_of, lambda t: tokenize(t) or [""])
        n_new = len(self._row_of) - len(self._rows)
        if n_new:
            newest = list(islice(reversed(self._row_of), n_new))  # the last keys, last first
            drawn = self._draw(newest[::-1])
            # In place (a realloc): a concatenate would hold the old rows and their copy at once.
            # No view of ``_rows`` outlives ``embed`` (``take`` copies, and the slice
            # assignment's view is temporary), so the reference check is not needed;
            # under a profiler or tracer it fails on the extra reference the call event holds.
            self._rows.resize((len(self._row_of), self.dim), refcheck=False)
            self._rows[-n_new:] = drawn
        starts = np.cumsum(lengths) - lengths
        order = np.argsort(lengths, kind="stable")
        out = np.empty((len(texts), self.dim))
        for lo in range(0, len(order), _CHUNK_TEXTS):
            chunk = order[lo : lo + _CHUNK_TEXTS]
            counts, firsts = lengths[chunk], starts[chunk]
            # Texts [live[j]:] of the chunk, which is sorted by length, have a j-th token.
            live = np.searchsorted(counts, np.arange(counts[-1]), side="right")
            # The chunk's cache row ids, position-major: those of token j of
            # texts [live[j]:], in chunk order, are at_position[ends[j - 1]:ends[j]].
            sizes = len(chunk) - live
            ends = sizes.cumsum()
            text = np.arange(ends[-1]) + np.repeat(live + sizes - ends, sizes)
            position = np.repeat(np.arange(len(live)), sizes)
            at_position = token_rows.take(firsts.take(text) + position)
            sums = np.zeros((len(chunk), self.dim))
            start = 0
            for first, end in zip(live.tolist(), ends.tolist()):
                sums[first:] += self._rows.take(at_position[start:end], axis=0)
                start = end
            sums /= counts[:, None]
            sums /= _row_norms(sums)[:, None]
            out[chunk] = sums
        return out

