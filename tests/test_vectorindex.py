import struct

import numpy as np
import pytest
from hypothesis import given, settings

from temporag.errors import (
    DataError,
    DimMismatchError,
    DuplicateIdError,
    TemporagError,
    VersionMismatchError,
    ZeroVectorError,
)
from temporag.vectorindex import (
    FlatVectorIndex,
    HashEmbedder,
    PrecomputedEmbeddings,
    load_index,
    normalize,
    save_index,
    save_vectors,
)

from conftest import MUTATIONS, mutate_bytes


class TestNormalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(normalize([3.0, 4.0]), [0.6, 0.8], atol=1e-12)

    def test_unit_vector_unchanged(self):
        v = np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(normalize(v), v, atol=1e-12)

    def test_zero_vector(self):
        with pytest.raises(ZeroVectorError):
            normalize([0.0, 0.0])

    def test_norm_is_one(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            v = rng.uniform(-5, 5, size=16)
            assert abs(np.linalg.norm(normalize(v)) - 1.0) <= 1e-9


def filled_index(rng, n, dim=16):
    index = FlatVectorIndex(dim)
    for i in range(n):
        index.add(f"v{i:04d}", rng.standard_normal(dim))
    return index


class TestFlatVectorIndex:
    def test_self_similarity(self):
        index = FlatVectorIndex(4)
        index.add("a", [1.0, 2.0, 3.0, 4.0])
        q = normalize([1.0, 2.0, 3.0, 4.0])
        hits = index.search(q, 1, threshold=0.3)
        assert hits[0][0] == "a"
        assert hits[0][1] == pytest.approx(1.0, abs=1e-6)

    def test_dim_mismatch(self):
        index = FlatVectorIndex(4)
        with pytest.raises(DimMismatchError):
            index.add("a", [1.0, 2.0])
        index.add("a", [1.0, 0.0, 0.0, 0.0])
        with pytest.raises(DimMismatchError):
            index.search(np.array([1.0, 0.0]), 1, threshold=0.3)

    def test_duplicate_id(self):
        index = FlatVectorIndex(2)
        index.add("a", [1.0, 0.0])
        with pytest.raises(DuplicateIdError):
            index.add("a", [0.0, 1.0])

    def test_orthogonal_below_threshold_excluded(self):
        index = FlatVectorIndex(2)
        index.add("x", [0.0, 1.0])
        assert index.search(np.array([1.0, 0.0]), 5, threshold=0.3) == []

    def test_threshold_boundary_is_inclusive(self):
        index = FlatVectorIndex(2)
        index.add("x", [1.0, 0.0])
        hits = index.search(np.array([1.0, 0.0]), 1, threshold=1.0)
        assert [h[0] for h in hits] == ["x"]

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(5)
        index = filled_index(rng, 50)
        for _ in range(20):
            q = normalize(rng.standard_normal(16))
            scores = np.array([float(np.dot(index.get(i).astype(np.float64), q)) for i in index.ids])
            expected = [
                (index.ids[j], scores[j]) for j in range(len(index)) if scores[j] >= 0.3
            ]
            expected.sort(key=lambda h: (-h[1], h[0]))
            got = index.search(q, 10, threshold=0.3)
            assert [i for i, _ in got] == [i for i, _ in expected[:10]]
            np.testing.assert_allclose(
                [s for _, s in got], [s for _, s in expected[:10]], atol=1e-12
            )

    def test_scores_within_bounds(self):
        rng = np.random.default_rng(6)
        index = filled_index(rng, 100)
        q = normalize(rng.standard_normal(16))
        for _, score in index.search(q, 100, threshold=-1.0):
            assert -1.0 - 1e-9 <= score <= 1.0 + 1e-9

    def test_k_must_be_positive(self):
        index = FlatVectorIndex(2)
        with pytest.raises(DataError):
            index.search(np.array([1.0, 0.0]), 0, threshold=0.3)


class TestHashEmbedder:
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


class TestPersistence:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        index = filled_index(rng, 20, dim=12)
        path = tmp_path / "v.vec"
        save_index(index, str(path))
        loaded = load_index(str(path))
        assert loaded.ids == index.ids
        for vid in index.ids:
            np.testing.assert_array_equal(loaded.get(vid), index.get(vid))

    def test_save_load_vectors_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        ids = [f"id{i}" for i in range(5)]
        vectors = [rng.standard_normal(8).astype(np.float32) for _ in ids]
        path = tmp_path / "store.vec"
        save_vectors(str(path), ids, vectors, 8)
        loaded = load_index(str(path))
        assert loaded.dim == 8
        assert loaded.ids == ids
        for vid, want in zip(ids, vectors):
            np.testing.assert_array_equal(loaded.get(vid), want)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.vec"
        path.write_bytes(b"WHAT" + b"\x00" * 16)
        with pytest.raises(VersionMismatchError):
            load_index(str(path))

    def test_version_1_file_rejected(self, tmp_path):
        # Version 1: header, then (u32 id length, id, dim x f32) records.
        path = tmp_path / "v1.vec"
        record = struct.pack("<I", 1) + b"a" + np.ones(4, dtype="<f4").tobytes()
        path.write_bytes(b"TVRG" + struct.pack("<II", 1, 4) + record)
        with pytest.raises(VersionMismatchError, match="version 1"):
            load_index(str(path))
        with pytest.raises(VersionMismatchError):
            PrecomputedEmbeddings(str(path))

    def test_precomputed_missing_ids_named(self, tmp_path):
        path = tmp_path / "pre.vec"
        save_vectors(str(path), ["a"], [np.ones(8, dtype=np.float32)], 8)
        store = PrecomputedEmbeddings(str(path))
        with pytest.raises(DataError, match="b"):
            store.lookup(["a", "b"])


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("vec_fuzz")
    index = FlatVectorIndex(8)
    for i, vid in enumerate(["a", "b", "ça", "d-03"]):
        index.add(vid, np.arange(8.0) - i)
    save_index(index, str(path / "clean.vec"))
    return path


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(mutations=MUTATIONS)
def test_mutated_file_loads_or_raises_temporag_error(fuzz_dir, mutations):
    path = fuzz_dir / "mutated.vec"
    path.write_bytes(mutate_bytes((fuzz_dir / "clean.vec").read_bytes(), mutations))
    try:
        loaded = load_index(str(path))
    except TemporagError:
        return
    q = normalize(np.ones(8))
    if loaded.dim != 8:  # a query of the wrong dimension is a defined error
        with pytest.raises(DimMismatchError):
            loaded.similarities(q)
        return
    loaded.similarities(q)
    loaded.search(q, 3, threshold=0.3)


def test_search_equals_brute_force_at_scale():
    # Property: exact equivalence with a full scan on a 1000-vector index.
    rng = np.random.default_rng(10)
    dim = 24
    index = FlatVectorIndex(dim)
    vectors = rng.standard_normal((1000, dim))
    for i, v in enumerate(vectors):
        index.add(f"n{i:05d}", v)
    rows = [index.get(f"n{i:05d}").astype(np.float64) for i in range(1000)]
    for _ in range(10):
        q = normalize(rng.standard_normal(dim))
        scores = [float(np.dot(r, q)) for r in rows]
        expected = [(f"n{i:05d}", scores[i]) for i in range(1000) if scores[i] >= 0.0]
        expected.sort(key=lambda h: (-h[1], h[0]))
        got = index.search(q, 25, threshold=0.0)
        assert [i for i, _ in got] == [i for i, _ in expected[:25]]
        np.testing.assert_allclose(
            [s for _, s in got], [s for _, s in expected[:25]], atol=1e-12
        )
