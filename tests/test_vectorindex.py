import hashlib
import math
import struct
import sys

import numpy as np
import pytest

from temporag.errors import DataError
from temporag.textindex import build_index, dense_search, tokenize
from temporag.types import snippet_columns
from temporag.vectorindex import (
    _CHUNK_TEXTS,
    HashEmbedder,
    normalize,
    seed_states,
    unit_rows,
)

from conftest import make_snippet


class TestNormalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(normalize([3.0, 4.0]), [0.6, 0.8], atol=1e-12)

    def test_unit_vector_unchanged(self):
        v = np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(normalize(v), v, atol=1e-12)

    def test_zero_vector(self):
        with pytest.raises(DataError, match="^cannot normalize a zero vector$"):
            normalize([0.0, 0.0])

    @pytest.mark.parametrize("dim", [1, 8, 33, 64, 384])
    def test_rows_match_the_per_row_dot_bitwise(self, dim):
        rng = np.random.default_rng(dim)
        rows = rng.standard_normal((2000, dim)) * rng.uniform(1e-3, 1e3, size=(2000, 1))
        expected = [(row / math.sqrt(row.dot(row))).tobytes() for row in rows]
        assert [row.tobytes() for row in unit_rows(rows)] == expected
        assert [normalize(row).tobytes() for row in rows[:50]] == expected[:50]

    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
    def test_zero_or_non_finite_row_rejected(self, bad):
        rows = np.ones((3, 4))
        rows[1] = bad
        with pytest.raises(DataError, match="^cannot normalize a zero vector$"):
            unit_rows(rows)

    def test_unit_rows_of_no_rows(self):
        assert unit_rows(np.zeros((0, 5))).shape == (0, 5)

    def test_norm_is_one(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            v = rng.uniform(-5, 5, size=16)
            assert abs(np.linalg.norm(normalize(v)) - 1.0) <= 1e-9


def dense_index(vectors: dict[str, list[float] | np.ndarray]):
    """A channel index whose dense rows are the given vectors, normalized, by id."""
    docs = [make_snippet(doc_id, "x", 0.0, 1.0) for doc_id in vectors]
    return build_index(snippet_columns(docs), vectors=[normalize(v) for v in vectors.values()])


def filled_index(rng, n, dim=16):
    return dense_index({f"v{i:04d}": rng.standard_normal(dim) for i in range(n)})


class TestFlatVectorIndex:
    """Exact flat (full-scan) inner-product search over a channel's dense rows."""

    def test_self_similarity(self):
        index = dense_index({"a": [1.0, 2.0, 3.0, 4.0]})
        q = normalize([1.0, 2.0, 3.0, 4.0])
        hits = dense_search(index, q, 1, threshold=0.3)
        assert hits[0][0] == 0
        assert hits[0][1] == pytest.approx(1.0, abs=1e-6)

    def test_dim_mismatch(self):
        docs = [make_snippet("a", "x", 0.0, 1.0), make_snippet("b", "y", 0.0, 1.0)]
        with pytest.raises(DataError, match="^rows of unequal lengths, expected dim 4$"):
            build_index(snippet_columns(docs), vectors=[[1.0, 0.0, 0.0, 0.0], [1.0, 2.0]])
        index = dense_index({"a": [1.0, 0.0, 0.0, 0.0]})
        with pytest.raises(DataError, match="^expected dim 4, got 2$"):
            dense_search(index, np.array([1.0, 0.0]), 1, threshold=0.3)

    def test_duplicate_id(self):
        docs = [make_snippet("a", "x", 0.0, 1.0), make_snippet("a", "y", 0.0, 1.0)]
        with pytest.raises(DataError, match="^duplicate doc id 'a'$"):
            build_index(snippet_columns(docs), vectors=[[1.0, 0.0], [0.0, 1.0]])

    def test_orthogonal_below_threshold_excluded(self):
        index = dense_index({"x": [0.0, 1.0]})
        assert dense_search(index, np.array([1.0, 0.0]), 5, threshold=0.3) == []

    def test_threshold_boundary_is_inclusive(self):
        index = dense_index({"x": [1.0, 0.0]})
        hits = dense_search(index, np.array([1.0, 0.0]), 1, threshold=1.0)
        assert [h[0] for h in hits] == [0]

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(5)
        index = filled_index(rng, 50)
        for _ in range(20):
            q = normalize(rng.standard_normal(16))
            scores = np.array([float(np.dot(row.astype(np.float64), q)) for row in index.vectors])
            expected = [(j, scores[j]) for j in range(index.n_docs) if scores[j] >= 0.3]
            expected.sort(key=lambda h: (-h[1], h[0]))
            got = dense_search(index, q, 10, threshold=0.3)
            assert [i for i, _ in got] == [i for i, _ in expected[:10]]
            np.testing.assert_allclose(
                [s for _, s in got], [s for _, s in expected[:10]], atol=1e-12
            )

    def test_scores_within_bounds(self):
        rng = np.random.default_rng(6)
        index = filled_index(rng, 100)
        q = normalize(rng.standard_normal(16))
        for _, score in dense_search(index, q, 100, threshold=-1.0):
            assert -1.0 - 1e-9 <= score <= 1.0 + 1e-9

    def test_k_must_be_positive(self):
        index = dense_index({"a": [1.0, 0.0]})
        with pytest.raises(DataError):
            dense_search(index, np.array([1.0, 0.0]), 0, threshold=0.3)

    def test_rows_kept_in_id_order(self):
        index = dense_index({"c": [1.0, 0.0], "a": [0.0, 1.0], "b": [1.0, 1.0]})
        assert index.doc_ids == ["a", "b", "c"]
        np.testing.assert_array_equal(index.vectors[2], np.array([1.0, 0.0], dtype=np.float32))
        np.testing.assert_array_equal(index.vectors[0], np.array([0.0, 1.0], dtype=np.float32))

    def test_tied_scores_keep_ascending_id_at_the_cut(self):
        index = dense_index(
            {"d": [1.0, 0.0], "b": [1.0, 0.0], "a": [1.0, 0.0], "c": [1.0, 0.0], "e": [1.0, 1.0]}
        )
        q = np.array([1.0, 0.0])
        hits = dense_search(index, q, 3, threshold=0.0)
        assert [index.doc_ids[pos] for pos, _ in hits] == ["a", "b", "c"]


def oracle_token_vector(token: str, dim: int, seed: int) -> np.ndarray:
    """One ``default_rng`` per token, keyed on the seed and the token's blake2b words."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=16).digest()
    v = np.random.default_rng((seed,) + struct.unpack("<4I", digest)).standard_normal(dim)
    return v / np.linalg.norm(v)


def oracle_embed(texts, dim: int, seed: int) -> list[np.ndarray]:
    out = []
    for text in texts:
        tokens = tokenize(text) or [""]
        mean = np.zeros(dim)
        for token in tokens:
            mean += oracle_token_vector(token, dim, seed)
        mean = mean / len(tokens)
        out.append(mean / np.linalg.norm(mean))
    return out


def random_tokens(seed: int, n: int) -> list[str]:
    """``n`` distinct tokens: the edge cases, then ASCII and non-ASCII words."""
    rng = np.random.default_rng(seed)
    code_points = np.r_[0x30:0x7B, 0xC0:0x250, 0x4E00:0x4F00]
    tokens = dict.fromkeys(["", "é", "日本語", "x" * 300])
    while len(tokens) < n:
        word = rng.choice(code_points, size=rng.integers(1, 24))
        tokens["".join(map(chr, word.tolist()))] = None
    return list(tokens)


TOKENS = random_tokens(0, 5000)


class TestSeedStates:
    @pytest.mark.parametrize("n_words", [4, 5, 7])
    def test_matches_seed_sequence(self, n_words):
        rng = np.random.default_rng(n_words)
        entropy = rng.integers(0, 2**32, size=(n_words, 300), dtype=np.uint32)
        entropy[:, 0] = 0
        entropy[:, 1] = 2**32 - 1
        states = seed_states(entropy)
        assert states.shape == (300, 4)
        for column, state in zip(entropy.T, states):
            expected = np.random.SeedSequence(column).generate_state(4, np.uint64)
            assert state.tolist() == expected.tolist()


class TestHashEmbedder:
    @pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**64 + 5])
    @pytest.mark.parametrize("dim", [8, 33, 64])
    def test_token_vectors_match_default_rng_bitwise(self, dim, seed):
        drawn = HashEmbedder(dim, seed)._draw(TOKENS)
        for token, row in zip(TOKENS, drawn):
            expected = oracle_token_vector(token, dim, seed)
            assert row.tobytes() == expected.tobytes(), token

    @pytest.mark.parametrize("seed", [0, 2**32])
    def test_embed_matches_per_token_path_bitwise(self, seed):
        rng = np.random.default_rng(seed % 97)
        vocab = TOKENS[:400]
        # The edge cases, 1-token texts, and enough texts for three chunks.
        texts = ["", "É 日本語 é", "x" * 300, "a a a", "!!", "é", "", "日本語"] + [
            " ".join(rng.choice(vocab, size=rng.integers(1, 30))) for _ in range(550)
        ]
        assert len(texts) > 2 * _CHUNK_TEXTS
        for dim in (33, 384):
            expected = [v.tobytes() for v in oracle_embed(texts, dim, seed)]
            assert [v.tobytes() for v in HashEmbedder(dim, seed).embed(texts)] == expected
            one_by_one = HashEmbedder(dim, seed)
            assert [one_by_one.embed([t])[0].tobytes() for t in texts] == expected
            # Warm: every token cached, then again with half the texts new.
            assert [v.tobytes() for v in one_by_one.embed(texts)] == expected
            half = HashEmbedder(dim, seed)
            half.embed(texts[::2])
            assert [v.tobytes() for v in half.embed(texts)] == expected

    @pytest.mark.parametrize("dim", [8, 64])
    def test_one_embedder_for_three_batches_matches_three_fresh(self, dim):
        rng = np.random.default_rng(dim)
        batches = [
            [" ".join(rng.choice(TOKENS[:300], size=rng.integers(1, 12))) for _ in range(n)]
            for n in (300, 1, 40)
        ]
        shared = HashEmbedder(dim, 7)
        for batch in batches:
            got = [v.tobytes() for v in shared.embed(batch)]
            assert got == [v.tobytes() for v in HashEmbedder(dim, 7).embed(batch)]

    def test_each_token_drawn_once_as_the_cache_grows(self, monkeypatch):
        drawn = []
        draw = HashEmbedder._draw

        def spy(self, tokens):
            drawn.extend(tokens)
            return draw(self, tokens)

        monkeypatch.setattr(HashEmbedder, "_draw", spy)
        e = HashEmbedder(16, 3)
        first = e.embed(TOKENS[:100])
        e.embed([" ".join(TOKENS[:1000])])  # grows the row matrix past 1,000 rows
        assert sorted(drawn) == sorted(set(tokenize(" ".join(TOKENS[:1000]))) | {""})
        assert [v.tobytes() for v in e.embed(TOKENS[:100])] == [v.tobytes() for v in first]

    def test_cache_grows_under_a_profiler(self):
        # A profile function holds one more reference to the row matrix as it is resized.
        e = HashEmbedder(64, 7)
        texts = ["harbor sign", "sign of the marina office"]
        previous = sys.getprofile()
        sys.setprofile(lambda *args: None)
        try:
            got = [e.embed([text])[0].tobytes() for text in texts]
        finally:
            sys.setprofile(previous)
        assert got == [v.tobytes() for v in oracle_embed(texts, 64, 7)]

    def test_a_call_that_fails_while_tokenizing_leaves_no_undrawn_row(self):
        # The tokens before the bad text have rows but no vectors yet; the
        # next call draws them with its own new tokens.
        e = HashEmbedder(16, 5)
        with pytest.raises(AttributeError):
            e.embed(["harbor sign", None])
        texts = ["harbor sign", "sign of the harbor"]
        expected = [v.tobytes() for v in oracle_embed(texts, 16, 5)]
        assert [v.tobytes() for v in e.embed(texts)] == expected

    def test_one_text_wider_than_the_rest_of_its_chunk(self):
        # One chunk: 255 texts of one to three tokens and one of 158, which
        # alone has a token at most positions.
        dim = 4096
        texts = [" ".join(TOKENS[i : i + 1 + i % 3]) for i in range(_CHUNK_TEXTS - 1)]
        texts.insert(100, " ".join(TOKENS[i % 50] for i in range(158)))
        got = [v.tobytes() for v in HashEmbedder(dim, 1).embed(texts)]
        assert got == [v.tobytes() for v in oracle_embed(texts, dim, 1)]

    def test_empty_batch(self):
        vectors = HashEmbedder(8).embed([])
        assert isinstance(vectors, np.ndarray)
        assert vectors.shape == (0, 8)

    def test_one_matrix_of_unit_rows(self):
        vectors = HashEmbedder(16, seed=2).embed(["a b", "c", "", "a b c d"])
        assert isinstance(vectors, np.ndarray)
        assert vectors.shape == (4, 16)
        assert vectors.dtype == np.float64
        np.testing.assert_allclose(np.linalg.norm(vectors, axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("seed", [-1, 1.5, "7", True])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(DataError, match="seed must be a non-negative integer"):
            HashEmbedder(8, seed)

    def test_deterministic(self):
        e = HashEmbedder(16, seed=3)
        a = e.embed(["a b"])[0]
        b = HashEmbedder(16, seed=3).embed(["a b"])[0]
        np.testing.assert_array_equal(a, b)

    def test_identity_similarity(self):
        e = HashEmbedder(16, seed=1)
        v1, v2 = e.embed(["x", "x"])
        assert float(np.dot(v1, v2)) == pytest.approx(1.0, abs=1e-12)

    def test_seed_changes_vectors(self):
        a = HashEmbedder(16, seed=1).embed(["cat"])[0]
        b = HashEmbedder(16, seed=2).embed(["cat"])[0]
        assert not np.allclose(a, b)

    def test_min_dim(self):
        with pytest.raises(DataError):
            HashEmbedder(4)

    def test_shared_tokens_more_similar_than_disjoint(self):
        # Monte Carlo with fixed seed: pairs sharing a token must be more
        # similar on average than token-disjoint pairs.
        e = HashEmbedder(32, seed=9)
        rng = np.random.default_rng(9)
        shared_sims = []
        disjoint_sims = []
        for i in range(100):
            common = f"c{i}"
            a, b = e.embed([f"{common} a{i} b{i}", f"{common} d{i} e{i}"])
            shared_sims.append(float(np.dot(a, b)))
            c, d = e.embed([f"p{i} q{i} r{i}", f"s{i} t{i} u{i}"])
            disjoint_sims.append(float(np.dot(c, d)))
        assert np.mean(shared_sims) > np.mean(disjoint_sims)

    def test_embeddings_are_unit_norm(self):
        e = HashEmbedder(24, seed=4)
        for v in e.embed(["one", "two words", "three word text"]):
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-9


def test_search_equals_brute_force_at_scale():
    # Property: exact equivalence with a full scan on a 1000-vector index.
    rng = np.random.default_rng(10)
    dim = 24
    index = dense_index({f"n{i:05d}": v for i, v in enumerate(rng.standard_normal((1000, dim)))})
    rows = [row.astype(np.float64) for row in index.vectors]
    for _ in range(10):
        q = normalize(rng.standard_normal(dim))
        scores = [float(np.dot(r, q)) for r in rows]
        expected = [(i, scores[i]) for i in range(1000) if scores[i] >= 0.0]
        expected.sort(key=lambda h: (-h[1], h[0]))
        got = dense_search(index, q, 25, threshold=0.0)
        assert [i for i, _ in got] == [i for i, _ in expected[:25]]
        np.testing.assert_allclose(
            [s for _, s in got], [s for _, s in expected[:25]], atol=1e-12
        )
