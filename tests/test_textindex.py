import dataclasses
import math
import struct
from collections import Counter
from itertools import accumulate, pairwise

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from temporag.errors import DataError, TemporagError
from temporag.frames import FrameTable
from temporag.textindex import (
    F4,
    StringTable,
    build_index,
    dense_search,
    f4_matrix,
    load_index,
    pack_strings,
    row_similarities,
    save_index,
    search,
    tokenize,
)
from temporag.types import Channel, snippet_columns
from temporag.vectorindex import HashEmbedder, normalize

from conftest import MUTATIONS, STRINGS, bm25_score, make_snippet, mutate_bytes


def random_corpus(rng, n_docs, vocab_size=30):
    vocab = [f"w{i}" for i in range(vocab_size)]
    docs = []
    for i in range(n_docs):
        n_words = int(rng.integers(2, 12))
        words = " ".join(vocab[int(w)] for w in rng.integers(0, vocab_size, size=n_words))
        docs.append(make_snippet(f"d{i:03d}", words, float(i), float(i) + 1.0))
    return docs


# The duration every saved index here is loaded with: past every document's t_end.
DURATION_S = 100.0


def embedded_index(docs):
    """``build_index`` with a dense row per document, as ``build`` writes them."""
    vectors = [normalize(v) for v in HashEmbedder(8).embed([d.text for d in docs])]
    return build_index(snippet_columns(docs), vectors=vectors)


def oracle_postings(docs):
    """The CSR postings built with one ``Counter`` per document, as ``build_index`` once did.

    Documents in id order; each token's postings appended in that order.
    Returns (vocab, doc_len, offsets, doc_pos, tf) as lists.
    """
    ordered = sorted(docs, key=lambda d: d.id)
    doc_len = []
    rows: dict[str, list[tuple[int, int]]] = {}  # token -> [(doc position, tf)]
    for pos, doc in enumerate(ordered):
        tokens = tokenize(doc.text)
        doc_len.append(len(tokens))
        for token, tf in Counter(tokens).items():
            rows.setdefault(token, []).append((pos, tf))
    vocab = sorted(rows)
    postings = [p for token in vocab for p in rows[token]]
    offsets = list(accumulate((len(rows[t]) for t in vocab), initial=0))
    return vocab, doc_len, offsets, [p for p, _ in postings], [f for _, f in postings]


def hit_ids(index, hits):
    return [index.doc_ids[pos] for pos, _ in hits]


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
        index = build_index(snippet_columns([make_snippet("a", "cat sat", 0.0, 1.0)]))
        assert index.n_docs == 1
        assert index.avg_dl == 2

    def test_avg_dl_is_mean(self):
        index = build_index(
            snippet_columns(
                [make_snippet("a", "x y", 0.0, 1.0), make_snippet("b", "x y z w", 1.0, 2.0)]
            )
        )
        assert index.avg_dl == 3

    def test_duplicate_id(self):
        docs = [make_snippet("a", "x", 0.0, 1.0), make_snippet("a", "y", 1.0, 2.0)]
        with pytest.raises(DataError, match="^duplicate doc id 'a'$"):
            build_index(snippet_columns(docs))

    def test_mixed_channels(self):
        docs = [
            make_snippet("a", "x", 0.0, 1.0, channel=Channel.ASR),
            make_snippet("b", "y", 1.0, 2.0, channel=Channel.OCR),
        ]
        with pytest.raises(DataError, match=r"^documents span channels \['asr', 'ocr'\]$"):
            build_index(snippet_columns(docs))

    # Each mismatch message names the two things it compares.
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: build_index(snippet_columns([make_snippet("a", "x", 0.0, 1.0)]),
                                 [[1.0, 0.0], [0.0, 1.0]]),
             "1 documents but 2 vectors"),
            (lambda: FrameTable([0, 1], [0.0, 1.0], [True]), "2 frame times but 1 embedded flags"),
            (lambda: f4_matrix([[1.0, 0.0], [1.0]], 2), "rows of unequal lengths, expected dim 2"),
            (lambda: row_similarities(np.eye(2), np.eye(2)),
             r"query of shape \(2, 2\), expected one vector of dim 2"),
        ],
        ids=["documents_vectors", "frames_flags", "ragged_rows", "query_not_1d"],
    )
    def test_mismatch_message_names_both_sides(self, call, message):
        with pytest.raises(DataError, match=f"^{message}$"):
            call()

    def test_postings_sorted_by_doc_id(self):
        docs = [make_snippet(sid, "shared word", 0.0, 1.0) for sid in ("z", "a", "m")]
        index = build_index(snippet_columns(docs))
        row = list(index.tokens).index("shared")
        span = index.doc_pos[index.offsets[row] : index.offsets[row + 1]]
        assert [index.doc_ids[p] for p in span.tolist()] == ["a", "m", "z"]

    @pytest.mark.parametrize(
        "texts",
        [
            ["a a a b", "b a", "c c", "a"],  # repeated tokens in one document
            ["!!", "x y", "", "...", "y"],  # token-less documents, first and between
            ["!!", "--"],  # no token at all
            ["É 日本語 é", "日本語 x", "ÉÉ é É"],  # non-ASCII, case-folded
            ["z" * 10_000 + " a", "a " + "z" * 10_000, "b"],  # one 10,000-character token
            [],
        ],
    )
    def test_postings_match_per_document_counter(self, texts):
        docs = [make_snippet(f"d{i:02d}", text, 0.0) for i, text in enumerate(texts)]
        self._assert_matches_oracle(docs)

    def test_postings_match_per_document_counter_random(self):
        rng = np.random.default_rng(5)
        docs = random_corpus(rng, 300, vocab_size=80)
        rng.shuffle(docs)  # the builder orders documents by id itself
        self._assert_matches_oracle(docs)

    @staticmethod
    def _assert_matches_oracle(docs):
        index = build_index(snippet_columns(docs))
        vocab, doc_len, offsets, doc_pos, tf = oracle_postings(docs)
        assert list(index.tokens) == vocab
        for got, want in zip(
            (index.doc_len, index.offsets, index.doc_pos, index.tf),
            (doc_len, offsets, doc_pos, tf),
        ):
            assert got.dtype == np.dtype("<u4")
            assert got.tolist() == want


class TestBm25Score:
    def test_absent_term_scores_zero(self):
        index = build_index(snippet_columns([make_snippet("a", "cat sat", 0.0, 1.0)]))
        assert bm25_score(index, ["dinosaur"], "a") == 0.0

    def test_single_doc_single_term(self):
        # idf = ln(1 + 0.5/1.5) = ln(4/3); tf=1, dl=avg_dl makes the tf
        # factor exactly 1, so score = ln(4/3).
        index = build_index(snippet_columns([make_snippet("a", "cat", 0.0, 1.0)]))
        assert bm25_score(index, ["cat"], "a") == pytest.approx(math.log(4.0 / 3.0), abs=1e-9)

    def test_all_empty_token_docs_score_zero(self):
        # Every document tokenizes to nothing, so avg_dl is 0.
        index = build_index(snippet_columns([make_snippet("a", "!!!", 0.0, 1.0)]))
        assert bm25_score(index, ["x"], "a") == 0.0

    def test_unknown_doc(self):
        index = build_index(snippet_columns([make_snippet("a", "cat", 0.0, 1.0)]))
        assert bm25_score(index, ["cat"], "a") > 0.0
        with pytest.raises(IndexError):
            index.snippet(1)

    def test_three_doc_brute_force(self):
        docs = [
            make_snippet("a", "cat sat on the mat", 0.0, 1.0),
            make_snippet("b", "the dog sat", 1.0, 2.0),
            make_snippet("c", "cat cat dog", 2.0, 3.0),
        ]
        index = build_index(snippet_columns(docs))
        for query in (["cat"], ["the", "dog"], ["cat", "sat", "mat"], ["missing"]):
            want = dict(search(index, " ".join(query), len(docs)))
            for pos, doc in enumerate(docs):  # ids a < b < c: position order
                assert bm25_score(index, query, doc.id) == pytest.approx(
                    want.get(pos, 0.0), abs=1e-9
                )

    def test_oracle_counts_lengths_from_the_texts(self):
        # Every stored doc_len one too high moves each length's ratio to
        # avg_dl here, so search must disagree with an oracle that counts.
        docs = [make_snippet("a", "cat", 0.0, 1.0), make_snippet("b", "cat dog", 1.0, 2.0)]
        index = build_index(snippet_columns(docs))
        wrong = dataclasses.replace(index, doc_len=index.doc_len + 1)
        assert len(search(wrong, "cat", 2)) == 2
        for pos, score in search(index, "cat", 2):
            assert score == pytest.approx(bm25_score(index, ["cat"], docs[pos].id), abs=1e-9)
        for pos, score in search(wrong, "cat", 2):
            assert score != pytest.approx(bm25_score(wrong, ["cat"], docs[pos].id), abs=1e-9)

    def test_monotone_in_term_frequency(self):
        # Same doc length, increasing tf of the query term.
        docs = [
            make_snippet("a", "q x x x", 0.0, 1.0),
            make_snippet("b", "q q x x", 1.0, 2.0),
            make_snippet("c", "q q q x", 2.0, 3.0),
        ]
        index = build_index(snippet_columns(docs))
        scores = [bm25_score(index, ["q"], d.id) for d in docs]
        assert scores[0] < scores[1] < scores[2]


class TestSearch:
    def test_no_match_is_empty(self):
        index = build_index(snippet_columns([make_snippet("a", "cat", 0.0, 1.0)]))
        assert search(index, "dinosaur", 10) == []

    def test_pool_larger_than_corpus(self):
        docs = [make_snippet(f"d{i}", "cat", float(i), float(i) + 1) for i in range(3)]
        index = build_index(snippet_columns(docs))
        assert len(search(index, "cat", 50)) == 3

    def test_ranking_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(7)
        docs = random_corpus(rng, 20)
        index = build_index(snippet_columns(docs))
        query = "w0 w3 w7"
        expected = [(d.id, bm25_score(index, tokenize(query), d.id)) for d in docs]
        expected = [(i, s) for i, s in expected if s > 0]
        expected.sort(key=lambda h: (-h[1], h[0]))
        got = search(index, query, len(docs))
        assert hit_ids(index, got) == [i for i, _ in expected]
        for (_, a), (_, b) in zip(got, expected):
            assert a == pytest.approx(b, abs=1e-9)

    def test_tie_break_ascending_doc_id(self):
        docs = [make_snippet(sid, "cat", 0.0, 1.0) for sid in ("b", "a", "c")]
        index = build_index(snippet_columns(docs))
        assert hit_ids(index, search(index, "cat", 3)) == ["a", "b", "c"]

    def test_ties_at_the_pool_cut_keep_ascending_doc_id(self):
        # One best document, then five tied ones of which the pool keeps two.
        docs = [make_snippet(sid, "cat dog", 0.0, 1.0) for sid in ("e", "c", "a", "d", "b")]
        docs.append(make_snippet("z", "cat cat dog", 0.0, 1.0))
        index = build_index(snippet_columns(docs))
        assert hit_ids(index, search(index, "cat", 3)) == ["z", "a", "b"]

    def test_loaded_search_decodes_only_the_pool(self, tmp_path, monkeypatch):
        docs = [make_snippet(f"d{i:03d}", f"cat w{i}", 0.0, 1.0) for i in range(200)]
        path = tmp_path / "asr.bm25"
        save_index(embedded_index(docs), str(path))
        loaded = load_index(str(path), DURATION_S)
        decoded = []
        table_get = StringTable.__getitem__

        def counting_get(table, i):
            if table is loaded.doc_ids:
                decoded.append(i)
            return table_get(table, i)

        monkeypatch.setattr(StringTable, "__getitem__", counting_get)
        hits = search(loaded, "cat w7", 5)
        assert hits[0][0] == 7 and not decoded  # positions: search decodes no id
        assert [loaded.snippet(pos).id for pos, _ in hits][:1] == ["d007"]
        assert len(decoded) == 5


def test_disjoint_doc_changes_scores_only_through_idf():
    # Adding an avg-length document with disjoint vocabulary keeps df and
    # avg_dl fixed; scores shift only by the N-driven idf recomputation, so
    # rescaling by the idf ratio recovers the old score exactly.
    base = [
        make_snippet("a", "cat sat mat", 0.0, 1.0),
        make_snippet("b", "dog ran far", 1.0, 2.0),
        make_snippet("c", "cat nap now", 2.0, 3.0),
    ]
    index_before = build_index(snippet_columns(base))
    extra = make_snippet("z", "qqq www eee", 3.0, 4.0)  # disjoint, length 3 = avg
    index_after = build_index(snippet_columns(base + [extra]))
    assert index_after.avg_dl == index_before.avg_dl
    before = dict(search(index_before, "cat", 10))
    after = dict(search(index_after, "cat", 10))
    assert sorted(before) == sorted(after) == [0, 2]  # a and c, at the same positions

    def idf(n, df):
        return math.log(1.0 + (n - df + 0.5) / (df + 0.5))

    ratio = idf(4, 2) / idf(3, 2)  # "cat" is in 2 of 3 documents, then 2 of 4
    for pos in before:
        assert after[pos] == pytest.approx(before[pos] * ratio, abs=1e-9)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        docs = random_corpus(rng, 15)
        index = embedded_index(docs)
        path = tmp_path / "asr.bm25"
        save_index(index, str(path))
        loaded = load_index(str(path), DURATION_S)
        assert loaded.n_docs == index.n_docs
        assert loaded.avg_dl == pytest.approx(index.avg_dl, abs=1e-9)
        assert list(loaded.doc_ids) == index.doc_ids
        assert list(loaded.texts) == index.texts
        assert list(loaded.tokens) == index.tokens
        for name in ("t_start", "t_end", "doc_len", "offsets", "doc_pos", "tf"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(index, name))
        assert loaded.vectors.tobytes() == index.vectors.tobytes()
        assert loaded.channel is index.channel
        query = "w1 w2 w9"
        assert search(loaded, query, 10) == search(index, query, 10)
        q = normalize(np.arange(8.0))
        assert dense_search(loaded, q, 10, 0.0) == dense_search(index, q, 10, 0.0)
        by_id = sorted(docs, key=lambda d: d.id)
        assert [loaded.snippet(pos) for pos in range(len(docs))] == by_id

    @pytest.mark.parametrize(
        "column, value",
        [("t_start", math.nan), ("t_end", math.inf), ("t_start", -1.0), ("t_start", 99.0)],
        ids=["t_start_nan", "t_end_inf", "t_start_negative", "t_start_after_t_end"],
    )
    def test_bad_times_rejected(self, tmp_path, column, value):
        index = embedded_index(random_corpus(np.random.default_rng(4), 5))
        times = getattr(index, column).copy()
        times[2] = value
        setattr(index, column, times)
        path = tmp_path / "bad.bm25"
        save_index(index, str(path))
        with pytest.raises(DataError, match=f"{path}: .*times not finite"):
            load_index(str(path), DURATION_S)

    def test_save_is_deterministic(self, tmp_path):
        docs = random_corpus(np.random.default_rng(3), 15)
        p1, p2 = tmp_path / "i1", tmp_path / "i2"
        save_index(embedded_index(docs), str(p1))
        save_index(embedded_index(docs), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_store_file_plus_rows_equals_an_embedded_build(self, tmp_path):
        # ingest saves the lexical index with dim 0; build loads it, adds the rows
        # in position order and saves it again: the bytes of a build from snippets.
        docs = random_corpus(np.random.default_rng(5), 15)
        store, built, want = (tmp_path / f"{name}.bm25" for name in ("store", "built", "want"))
        save_index(build_index(snippet_columns(docs)), str(store))
        index = load_index(str(store), DURATION_S)
        assert index.dim == 0
        texts = list(index.texts)
        index.vectors = np.array([normalize(v) for v in HashEmbedder(8).embed(texts)], dtype=F4)
        save_index(index, str(built))
        save_index(embedded_index(docs), str(want))
        assert built.read_bytes() == want.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bm25"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(DataError, match="junk.bm25: bad magic, not a temporag index$"):
            load_index(str(path), DURATION_S)

    def test_version_mismatch(self, tmp_path):
        docs = [make_snippet("a", "cat", 0.0, 1.0)]
        path = tmp_path / "v.bm25"
        save_index(build_index(snippet_columns(docs)), str(path))
        data = bytearray(path.read_bytes())
        data[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(DataError, match="format version 99, expected 6$"):
            load_index(str(path), DURATION_S)

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
        with pytest.raises(DataError, match="version 1"):
            load_index(str(path), DURATION_S)

    def test_version_2_file_rejected(self, tmp_path):
        # Version 2: no text table or time columns after the doc-id table.
        path = tmp_path / "v2.bm25"
        path.write_bytes(
            b"TVRG" + struct.pack("<I", 2) + pack_strings(["asr"])
            + struct.pack("<ddII", 1.2, 0.75, 1, 1) + pack_strings(["a"]) + pack_strings(["cat"])
            + struct.pack("<IIIII", 1, 0, 1, 0, 1)
        )
        with pytest.raises(DataError, match="version 2, expected 6"):
            load_index(str(path), DURATION_S)


    @pytest.mark.parametrize(
        "column, problem",
        [("tokens", "token table not strictly sorted"), ("doc_ids", "doc ids not unique and sorted")],
    )
    @pytest.mark.parametrize("damage", ["swap", "duplicate"])
    def test_unsorted_table_rejected(self, tmp_path, column, problem, damage):
        index = embedded_index(random_corpus(np.random.default_rng(4), 6))
        table = list(getattr(index, column))
        if damage == "swap":
            table[1], table[2] = table[2], table[1]
        else:
            table[2] = table[1]
        setattr(index, column, table)
        path = tmp_path / "bad.bm25"
        save_index(index, str(path))
        with pytest.raises(DataError, match=f"{path}: .*{problem}"):
            load_index(str(path), DURATION_S)

    def test_text_offset_inside_utf8_character_rejected(self, tmp_path):
        docs = [make_snippet("a", "é", 0.0, 1.0), make_snippet("b", "x", 1.0, 2.0)]
        index = build_index(snippet_columns(docs))
        path = tmp_path / "split.bm25"
        save_index(index, str(path))
        data = path.read_bytes()
        table = pack_strings(["é", "x"])  # offsets 0, 2, 3
        split = struct.pack("<III", 0, 1, 3) + "éx".encode()  # splits the é
        assert data.count(table) == 1
        path.write_bytes(data.replace(table, split))
        with pytest.raises(DataError, match=f"{path}: .*offset inside a UTF-8 character"):
            load_index(str(path), DURATION_S)


def string_table(strings):
    data = pack_strings(strings)
    n = len(strings)
    return StringTable(data, 4 * (n + 1), np.frombuffer(data, dtype="<u4", count=n + 1))


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(strings=st.lists(STRINGS, max_size=12), presort=st.booleans())
def test_sort_check_agrees_with_pairwise(strings, presort):
    if presort:
        strings = sorted(strings)
    table = string_table(strings)
    assert table.is_strictly_sorted() == all(x < y for x, y in pairwise(strings))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("bm25_fuzz")
    docs = random_corpus(np.random.default_rng(5), 6) + [
        make_snippet("é-doc", "café w1 münchen w2", 9.0, 10.0)
    ]
    save_index(embedded_index(docs), str(path / "clean.bm25"))
    return path


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(mutations=MUTATIONS)
def test_mutated_file_loads_or_raises_temporag_error(fuzz_dir, mutations):
    path = fuzz_dir / "mutated.bm25"
    path.write_bytes(mutate_bytes((fuzz_dir / "clean.bm25").read_bytes(), mutations))
    try:
        loaded = load_index(str(path), DURATION_S)
    except TemporagError:
        return
    search(loaded, "w1 w2 café w3", 5)
    if loaded.n_docs:  # then dim is at most the file's size
        dense_search(loaded, normalize(np.ones(loaded.dim)), 5, 0.3)
    for pos, text in enumerate(loaded.texts):
        snippet = loaded.snippet(pos)
        assert snippet.text == text
        assert 0.0 <= snippet.t_start <= snippet.t_end <= DURATION_S


def test_avg_dl_invariant_random():
    rng = np.random.default_rng(21)
    docs = random_corpus(rng, 40)
    index = build_index(snippet_columns(docs))
    assert index.avg_dl == pytest.approx(
        sum(index.doc_len.tolist()) / index.n_docs, abs=1e-9
    )
