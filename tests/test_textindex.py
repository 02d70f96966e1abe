import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings

from temporag.errors import (
    DataError,
    DuplicateDocIdError,
    MixedChannelsError,
    TemporagError,
    UnknownDocIdError,
    VersionMismatchError,
)
from temporag.textindex import (
    Bm25Params,
    bm25_score,
    build_index,
    load_index,
    pack_strings,
    save_index,
    search,
    tokenize,
)
from temporag.types import Channel

from conftest import MUTATIONS, make_snippet, mutate_bytes


# Independent scalar oracle: a literal transliteration of the okapi formula
# over tokenized documents, sharing no code with the implementation.
def oracle_score(doc_tokens, query_tokens, doc_id, k1=1.2, b=0.75):
    n = len(doc_tokens)
    avg_dl = sum(len(t) for t in doc_tokens.values()) / n
    dl = len(doc_tokens[doc_id])
    total = 0.0
    for term in query_tokens:
        tf = doc_tokens[doc_id].count(term)
        if tf == 0:
            continue
        df = sum(1 for toks in doc_tokens.values() if term in toks)
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        total += idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avg_dl))
    return total


def random_corpus(rng, n_docs, vocab_size=30):
    vocab = [f"w{i}" for i in range(vocab_size)]
    docs = []
    for i in range(n_docs):
        n_words = int(rng.integers(2, 12))
        words = " ".join(vocab[int(w)] for w in rng.integers(0, vocab_size, size=n_words))
        docs.append(make_snippet(f"d{i:03d}", words, float(i), float(i) + 1.0))
    return docs


class TestTokenize:
    def test_lowercase_and_split(self):
        assert tokenize("The dog, the DOG!") == ["the", "dog", "the", "dog"]

    def test_empty(self):
        assert tokenize("") == []

    def test_alnum_boundary(self):
        assert tokenize("a1-b2") == ["a1", "b2"]

    def test_underscore_is_boundary(self):
        assert tokenize("a_b") == ["a", "b"]

    def test_unicode(self):
        assert tokenize("Café MÜNCHEN") == ["café", "münchen"]


class TestBuildIndex:
    def test_single_doc_stats(self):
        index = build_index([make_snippet("a", "cat sat", 0.0, 1.0)])
        assert index.n_docs == 1
        assert index.avg_dl == 2

    def test_avg_dl_is_mean(self):
        index = build_index(
            [make_snippet("a", "x y", 0.0, 1.0), make_snippet("b", "x y z w", 1.0, 2.0)]
        )
        assert index.avg_dl == 3

    def test_duplicate_id(self):
        docs = [make_snippet("a", "x", 0.0, 1.0), make_snippet("a", "y", 1.0, 2.0)]
        with pytest.raises(DuplicateDocIdError):
            build_index(docs)

    def test_mixed_channels(self):
        docs = [
            make_snippet("a", "x", 0.0, 1.0, channel=Channel.ASR),
            make_snippet("b", "y", 1.0, 2.0, channel=Channel.OCR),
        ]
        with pytest.raises(MixedChannelsError):
            build_index(docs)

    def test_postings_sorted_by_doc_id(self):
        docs = [make_snippet(sid, "shared word", 0.0, 1.0) for sid in ("z", "a", "m")]
        index = build_index(docs)
        assert [d for d, _ in index.postings("shared")] == ["a", "m", "z"]

    def test_bad_params(self):
        with pytest.raises(DataError):
            Bm25Params(k1=0.0)
        with pytest.raises(DataError):
            Bm25Params(b=1.5)


class TestBm25Score:
    def test_absent_term_scores_zero(self):
        index = build_index([make_snippet("a", "cat sat", 0.0, 1.0)])
        assert bm25_score(index, ["dinosaur"], "a") == 0.0

    def test_single_doc_single_term(self):
        # idf = ln(1 + 0.5/1.5) = ln(4/3); tf=1, dl=avg_dl makes the tf
        # factor exactly 1, so score = ln(4/3).
        index = build_index([make_snippet("a", "cat", 0.0, 1.0)])
        assert bm25_score(index, ["cat"], "a") == pytest.approx(math.log(4.0 / 3.0), abs=1e-9)

    def test_all_empty_token_docs_score_zero(self):
        # Every document tokenizes to nothing, so avg_dl is 0.
        index = build_index([make_snippet("a", "!!!", 0.0, 1.0)])
        assert bm25_score(index, ["x"], "a") == 0.0

    def test_unknown_doc(self):
        index = build_index([make_snippet("a", "cat", 0.0, 1.0)])
        with pytest.raises(UnknownDocIdError):
            bm25_score(index, ["cat"], "nope")
        with pytest.raises(UnknownDocIdError):
            index.snippet("b")

    def test_three_doc_brute_force(self):
        docs = [
            make_snippet("a", "cat sat on the mat", 0.0, 1.0),
            make_snippet("b", "the dog sat", 1.0, 2.0),
            make_snippet("c", "cat cat dog", 2.0, 3.0),
        ]
        index = build_index(docs)
        doc_tokens = {d.id: tokenize(d.text) for d in docs}
        for query in (["cat"], ["the", "dog"], ["cat", "sat", "mat"], ["missing"]):
            for doc in docs:
                assert bm25_score(index, query, doc.id) == pytest.approx(
                    oracle_score(doc_tokens, query, doc.id), abs=1e-9
                )

    def test_monotone_in_term_frequency(self):
        # Same doc length, increasing tf of the query term.
        docs = [
            make_snippet("a", "q x x x", 0.0, 1.0),
            make_snippet("b", "q q x x", 1.0, 2.0),
            make_snippet("c", "q q q x", 2.0, 3.0),
        ]
        index = build_index(docs)
        scores = [bm25_score(index, ["q"], d.id) for d in docs]
        assert scores[0] < scores[1] < scores[2]


class TestSearch:
    def test_no_match_is_empty(self):
        index = build_index([make_snippet("a", "cat", 0.0, 1.0)])
        assert search(index, "dinosaur", 10) == []

    def test_pool_larger_than_corpus(self):
        docs = [make_snippet(f"d{i}", "cat", float(i), float(i) + 1) for i in range(3)]
        index = build_index(docs)
        assert len(search(index, "cat", 50)) == 3

    def test_ranking_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(7)
        docs = random_corpus(rng, 20)
        index = build_index(docs)
        doc_tokens = {d.id: tokenize(d.text) for d in docs}
        query = "w0 w3 w7"
        expected = [
            (d.id, oracle_score(doc_tokens, tokenize(query), d.id)) for d in docs
        ]
        expected = [(i, s) for i, s in expected if s > 0]
        expected.sort(key=lambda h: (-h[1], h[0]))
        got = search(index, query, len(docs))
        assert [i for i, _ in got] == [i for i, _ in expected]
        for (_, a), (_, b) in zip(got, expected):
            assert a == pytest.approx(b, abs=1e-9)

    def test_tie_break_ascending_doc_id(self):
        docs = [make_snippet(sid, "cat", 0.0, 1.0) for sid in ("b", "a", "c")]
        index = build_index(docs)
        assert [i for i, _ in search(index, "cat", 3)] == ["a", "b", "c"]


def test_disjoint_doc_changes_scores_only_through_idf():
    # Adding an avg-length document with disjoint vocabulary keeps df and
    # avg_dl fixed; scores shift only by the N-driven idf recomputation, so
    # rescaling by the idf ratio recovers the old score exactly.
    base = [
        make_snippet("a", "cat sat mat", 0.0, 1.0),
        make_snippet("b", "dog ran far", 1.0, 2.0),
        make_snippet("c", "cat nap now", 2.0, 3.0),
    ]
    index_before = build_index(base)
    extra = make_snippet("z", "qqq www eee", 3.0, 4.0)  # disjoint, length 3 = avg
    index_after = build_index(base + [extra])
    assert index_after.avg_dl == index_before.avg_dl
    for doc_id in ("a", "c"):
        before = bm25_score(index_before, ["cat"], doc_id)
        after = bm25_score(index_after, ["cat"], doc_id)
        ratio = index_after.idf("cat") / index_before.idf("cat")
        assert after == pytest.approx(before * ratio, abs=1e-9)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        docs = random_corpus(rng, 15)
        index = build_index(docs, Bm25Params(k1=1.4, b=0.6))
        path = tmp_path / "asr.bm25"
        save_index(index, str(path))
        loaded = load_index(str(path))
        assert loaded.n_docs == index.n_docs
        assert loaded.avg_dl == pytest.approx(index.avg_dl, abs=1e-9)
        assert loaded.doc_ids == index.doc_ids
        assert loaded.texts == index.texts
        assert loaded.token_row == index.token_row
        for name in ("t_start", "t_end", "doc_len", "offsets", "doc_pos", "tf"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(index, name))
        assert loaded.params == index.params
        assert loaded.channel is index.channel
        query = "w1 w2 w9"
        assert search(loaded, query, 10) == search(index, query, 10)
        assert [loaded.snippet(d.id) for d in docs] == docs

    @pytest.mark.parametrize(
        "column, value",
        [("t_start", math.nan), ("t_end", math.inf), ("t_start", -1.0), ("t_start", 99.0)],
        ids=["t_start_nan", "t_end_inf", "t_start_negative", "t_start_after_t_end"],
    )
    def test_bad_times_rejected(self, tmp_path, column, value):
        index = build_index(random_corpus(np.random.default_rng(4), 5))
        times = getattr(index, column).copy()
        times[2] = value
        setattr(index, column, times)
        path = tmp_path / "bad.bm25"
        save_index(index, str(path))
        with pytest.raises(DataError, match=f"{path}: .*times not finite"):
            load_index(str(path))

    def test_save_is_deterministic(self, tmp_path):
        docs = random_corpus(np.random.default_rng(3), 15)
        p1, p2 = tmp_path / "i1", tmp_path / "i2"
        save_index(build_index(docs), str(p1))
        save_index(build_index(docs), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bm25"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(VersionMismatchError):
            load_index(str(path))

    def test_version_mismatch(self, tmp_path):
        docs = [make_snippet("a", "cat", 0.0, 1.0)]
        path = tmp_path / "v.bm25"
        save_index(build_index(docs), str(path))
        data = bytearray(path.read_bytes())
        data[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(VersionMismatchError):
            load_index(str(path))

    def test_version_1_file_rejected(self, tmp_path):
        # Version 1: per-doc (id, length) and per-token (token, postings) records.
        def s(text):
            return struct.pack("<I", len(text)) + text.encode()

        path = tmp_path / "v1.bm25"
        path.write_bytes(
            b"TVRG" + struct.pack("<I", 1) + s("asr") + struct.pack("<dd", 1.2, 0.75)
            + struct.pack("<I", 1) + s("a") + struct.pack("<I", 1)
            + struct.pack("<I", 1) + s("cat") + struct.pack("<III", 1, 0, 1)
        )
        with pytest.raises(VersionMismatchError, match="version 1"):
            load_index(str(path))

    def test_version_2_file_rejected(self, tmp_path):
        # Version 2: no text table or time columns after the doc-id table.
        path = tmp_path / "v2.bm25"
        path.write_bytes(
            b"TVRG" + struct.pack("<I", 2) + pack_strings(["asr"])
            + struct.pack("<ddII", 1.2, 0.75, 1, 1) + pack_strings(["a"]) + pack_strings(["cat"])
            + struct.pack("<IIIII", 1, 0, 1, 0, 1)
        )
        with pytest.raises(VersionMismatchError, match="version 2, expected 3"):
            load_index(str(path))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("bm25_fuzz")
    docs = random_corpus(np.random.default_rng(5), 6) + [
        make_snippet("é-doc", "café w1 münchen w2", 9.0, 10.0)
    ]
    save_index(build_index(docs), str(path / "clean.bm25"))
    return path


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(mutations=MUTATIONS)
def test_mutated_file_loads_or_raises_temporag_error(fuzz_dir, mutations):
    path = fuzz_dir / "mutated.bm25"
    path.write_bytes(mutate_bytes((fuzz_dir / "clean.bm25").read_bytes(), mutations))
    try:
        loaded = load_index(str(path))
    except TemporagError:
        return
    search(loaded, "w1 w2 café w3", 5)
    for doc_id, text in zip(loaded.doc_ids, loaded.texts):
        snippet = loaded.snippet(doc_id)
        assert snippet.text == text
        assert 0.0 <= snippet.t_start <= snippet.t_end < math.inf


def test_avg_dl_invariant_random():
    rng = np.random.default_rng(21)
    docs = random_corpus(rng, 40)
    index = build_index(docs)
    assert index.avg_dl == pytest.approx(
        sum(index.doc_len.tolist()) / index.n_docs, abs=1e-9
    )
