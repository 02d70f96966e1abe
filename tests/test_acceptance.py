"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance and runtime bound is pinned here; the suite-wide
2-minute budget is enforced by the session hook in conftest.
"""

import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from temporag.cli import main as cli_main
from temporag.config import RunConfig
from temporag.evalharness import SyntheticSpec, gen_corpus, run_eval, sweep_threshold
from temporag.frames import weight_frames
from temporag.pipeline import AblationFlags
from temporag.rescore import AnchorSet, DecayParams, rescore, top_k
from temporag.textindex import build_index, dense_search, search, tokenize
from temporag.types import snippet_columns
from temporag.vectorindex import normalize

from conftest import bm25_score, decay_multiplier, make_snippet

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
DEMO = Path(__file__).resolve().parent.parent / "demo"


@contextmanager
def criterion(name: str, budget_s: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None:
        assert elapsed < budget_s, f"{name} took {elapsed:.2f}s, budget {budget_s}s"
    print(f"[acceptance] {name}: PASS ({elapsed:.2f}s)")


def test_c1_entropy_formula_fidelity():
    with criterion("C1 formula fidelity: entropy weights", budget_s=1.0):
        # Independent scalar oracle of the weighting formula.
        p = [0.6 / 0.8, 0.2 / 0.8]
        h = [-x * math.log(x) for x in p]
        oracle_alpha = [x / sum(h) for x in h]
        got = weight_frames([0.6, 0.2]).alpha
        assert abs(got[0] - oracle_alpha[0]) < 1e-6
        assert abs(got[1] - oracle_alpha[1]) < 1e-6
        # Exact values of the formula, frozen at double precision.
        assert got[0] == pytest.approx(0.3836885465957929, abs=1e-9)
        assert got[1] == pytest.approx(0.6163114534042071, abs=1e-9)

        rng = np.random.default_rng(100)
        for _ in range(1000):
            sims = rng.uniform(-1, 1, size=int(rng.integers(1, 65)))
            alpha = weight_frames(sims).alpha
            assert abs(float(np.sum(alpha)) - 1.0) <= 1e-9


def test_c2_decay_formula_fidelity():
    with criterion("C2 formula fidelity: temporal decay", budget_s=1.0):
        anchors = AnchorSet(t_last=10.0, t_first=0.0, t_semantic=5.0)
        got = decay_multiplier(5.0, anchors, DecayParams(lambdas=(1.0, 1.0, 1.0)), 10.0)
        assert abs(got - math.exp(-1.0)) <= 1e-9

        rng = np.random.default_rng(101)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            duration = float(rng.uniform(50, 500))
            times = rng.uniform(0, duration, size=n)
            raws = rng.uniform(0.0, 5.0, size=n)
            raws[0] = 1.0
            lambdas = tuple(float(l) for l in rng.uniform(0, 2, size=3))
            a = AnchorSet(*(float(x) for x in rng.uniform(0, duration, size=3)))
            candidates = [
                (make_snippet(f"c{i}", "x", float(t), float(t)), float(r))
                for i, (t, r) in enumerate(zip(times, raws))
            ]
            got_scores = [s.score for s in rescore(candidates, a, DecayParams(lambdas=lambdas), duration)]
            masses = [
                r * math.exp(-sum(l * abs(x / duration - t / duration) for l, x in zip(lambdas, a.as_tuple())))
                for t, r in zip(times, raws)
            ]
            want = [m / sum(masses) for m in masses]
            for g, w in zip(got_scores, want):
                assert abs(g - w) <= 1e-9


def test_c3_bm25_oracle_equivalence():
    with criterion("C3 BM25 oracle equivalence", budget_s=5.0):
        index = build_index(snippet_columns([make_snippet("a", "cat", 0.0, 1.0)]))
        assert abs(bm25_score(index, ["cat"], "a") - math.log(4.0 / 3.0)) <= 1e-9

        rng = np.random.default_rng(102)
        vocab = [f"w{i}" for i in range(25)]
        for _ in range(100):
            n_docs = int(rng.integers(2, 101))
            docs = []
            for i in range(n_docs):
                words = " ".join(
                    vocab[int(w)] for w in rng.integers(0, 25, size=int(rng.integers(2, 10)))
                )
                docs.append(make_snippet(f"d{i:03d}", words, float(i), float(i) + 1.0))
            index = build_index(snippet_columns(docs))
            query = " ".join(vocab[int(w)] for w in rng.integers(0, 25, size=3))
            tokens = tokenize(query)
            exhaustive = [(d.id, bm25_score(index, tokens, d.id)) for d in docs]
            exhaustive = [(i, s) for i, s in exhaustive if s > 0]
            exhaustive.sort(key=lambda h: (-h[1], h[0]))
            got = [(index.doc_ids[pos], score) for pos, score in search(index, query, n_docs)]
            assert [i for i, _ in got] == [i for i, _ in exhaustive]
            for (_, a), (_, b) in zip(got, exhaustive):
                assert abs(a - b) <= 1e-9


def test_c4_vector_index_exactness():
    with criterion("C4 vector index exactness", budget_s=5.0):
        rng = np.random.default_rng(103)
        dim = 32
        docs = [make_snippet(f"v{i:05d}", "x", 0.0, 1.0) for i in range(1000)]
        vectors = [normalize(rng.standard_normal(dim)) for _ in docs]
        index = build_index(snippet_columns(docs), vectors=vectors)
        rows = [row.astype(np.float64) for row in index.vectors]  # ids sort in i order
        for _ in range(100):
            q = normalize(rng.standard_normal(dim))
            scores = [float(np.dot(r, q)) for r in rows]
            expected = [(f"v{i:05d}", scores[i]) for i in range(1000) if scores[i] >= 0.3]
            expected.sort(key=lambda h: (-h[1], h[0]))
            got = dense_search(index, q, 10, threshold=0.3)
            assert [index.doc_ids[i] for i, _ in got] == [i for i, _ in expected[:10]]
            np.testing.assert_allclose(
                [s for _, s in got], [s for _, s in expected[:10]], atol=1e-12
            )


def test_c5_temporal_window_mechanism():
    with criterion("C5 temporal-window ablation mechanism", budget_s=30.0):
        cfg = RunConfig()
        with_tw = []
        without_tw = []
        for seed in range(50):
            corpus = gen_corpus(SyntheticSpec(seed=seed))
            with_tw.append(run_eval(corpus, cfg).recall_at_1)
            without_tw.append(run_eval(corpus, cfg, AblationFlags(tw=False)).recall_at_1)
        assert sum(1 for r in with_tw if r == 1.0) >= 45
        assert sum(without_tw) / len(without_tw) <= 0.2


def test_c6_threshold_sweep_trend():
    with criterion("C6 threshold sweep trend", budget_s=10.0):
        taus = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 1.0]
        cfg = RunConfig()
        for seed in range(5):
            corpus = gen_corpus(SyntheticSpec(seed=seed))
            reports = sweep_threshold(corpus, taus, cfg)
            tokens = [r.tokens_retained for _, r in reports]
            assert all(a >= b for a, b in zip(tokens, tokens[1:]))
            assert tokens[-1] == 0


def test_c7_invariance_suite():
    with criterion("C7 invariance suite"):
        rng = np.random.default_rng(104)

        # Alpha invariant to log base: rescale one oracle by ln(2) (base
        # change multiplies every entropy term by a constant).
        sims = rng.uniform(0.01, 1.0, size=48)
        alpha = weight_frames(sims).alpha
        pos = np.maximum(sims, 0)
        probs = pos / pos.sum()
        h2 = np.where(probs > 0, -probs * np.log2(probs), 0.0)
        np.testing.assert_allclose(alpha, h2 / h2.sum(), atol=1e-9)

        # Alpha invariant to positive scaling of the similarities.
        np.testing.assert_allclose(alpha, weight_frames(3.7 * sims).alpha, atol=1e-9)

        # Zero decay strengths reproduce the BM25 ranking: exact permutation
        # equality on a tie-free corpus, and equality of score-equivalence
        # classes when distinct documents share a score (search and top_k
        # break exact ties by different deterministic keys).
        anchors = AnchorSet(t_last=500.0, t_first=0.0, t_semantic=250.0)
        tie_free = [
            make_snippet(f"d{i:03d}", "q " + " ".join(f"f{i}x{j}" for j in range(i)), float(i), float(i) + 1.0)
            for i in range(1, 40)
        ]
        index = build_index(snippet_columns(tie_free))
        by_id = {d.id: d for d in tie_free}
        pool = [(index.doc_ids[pos], r) for pos, r in search(index, "q", len(tie_free))]
        scores = [r for _, r in pool]
        assert len(set(scores)) == len(scores), "corpus must be tie-free"
        scored = rescore(
            [(by_id[i], r) for i, r in pool], anchors, DecayParams(lambdas=(0, 0, 0)), 500.0
        )
        out = top_k(scored, len(pool))
        assert [s.snippet.id for s in out] == [i for i, _ in pool]

        vocab = [f"w{i}" for i in range(20)]
        docs = []
        for i in range(80):
            words = " ".join(vocab[int(w)] for w in rng.integers(0, 20, size=int(rng.integers(3, 9))))
            t = float(rng.uniform(0, 500))
            docs.append(make_snippet(f"d{i:03d}", words, t, t + 2.0))
        index = build_index(snippet_columns(docs))
        by_id = {d.id: d for d in docs}
        pool = [(index.doc_ids[pos], r) for pos, r in search(index, "w0 w4 w8", 80)]
        scored = rescore(
            [(by_id[i], r) for i, r in pool], anchors, DecayParams(lambdas=(0, 0, 0)), 500.0
        )
        out = top_k(scored, len(pool))

        def runs(pairs):
            grouped = []
            for item, score in pairs:
                if grouped and abs(grouped[-1][0] - score) <= 1e-12:
                    grouped[-1][1].add(item)
                else:
                    grouped.append((score, {item}))
            return [members for _, members in grouped]

        assert runs([(s.snippet.id, s.raw_score) for s in out]) == runs(pool)

        # Scaling raw scores leaves normalized scores unchanged.
        candidates = [(by_id[i], r) for i, r in pool[:20]]
        base = rescore(candidates, anchors, DecayParams(), 500.0)
        scaled = rescore([(s, 11.0 * r) for s, r in candidates], anchors, DecayParams(), 500.0)
        for a, b in zip(base, scaled):
            assert abs(a.score - b.score) <= 1e-9


def _run_demo(tmp_path, tag):
    store = tmp_path / f"store_{tag}"
    index = tmp_path / f"index_{tag}"
    trace = tmp_path / f"trace_{tag}.json"
    assert cli_main(
        [
            "ingest",
            str(DEMO / "audio.srt"),
            str(DEMO / "screen_text.jsonl"),
            str(DEMO / "detections.jsonl"),
            "--frames",
            str(DEMO / "frames.jsonl"),
            "--video-id",
            "harbor",
            "--duration-s",
            "120",
            "--out",
            str(store),
        ]
    ) == 0
    assert cli_main(
        ["build", "--store", str(store), "--out", str(index), "--config", str(DEMO / "config.json")]
    ) == 0
    assert cli_main(
        [
            "answer",
            "--index",
            str(index),
            "--query",
            "What does the sign near the marina office say?",
            "--config",
            str(DEMO / "config.json"),
            "--trace",
            str(trace),
        ]
    ) == 0
    return trace.read_bytes()


def test_c8_end_to_end_determinism(tmp_path, capsys):
    with criterion("C8 end-to-end determinism vs frozen goldens"):
        trace_a = _run_demo(tmp_path, "a")
        answer_a = capsys.readouterr().out.strip().splitlines()[-1]
        trace_b = _run_demo(tmp_path, "b")
        answer_b = capsys.readouterr().out.strip().splitlines()[-1]
        assert trace_a == trace_b
        assert answer_a == answer_b
        assert answer_a == (GOLDEN / "demo_answer.txt").read_text(encoding="utf-8").strip()
        assert trace_a == (GOLDEN / "demo_trace.json").read_bytes()
        # The two stub provider calls behind the pipeline match their goldens.
        golden_trace = json.loads(trace_a)
        decouple_golden = json.loads((GOLDEN / "decouple_response.json").read_text())
        assert golden_trace["request"] == decouple_golden


def test_c9_suite_runtime_budget():
    # The enforced check lives in conftest.pytest_sessionfinish; this test
    # asserts the running total so a pathological slowdown fails in-band too.
    from conftest import SUITE_BUDGET_S, session_elapsed

    with criterion("C9 suite runtime budget (in-band check)"):
        assert session_elapsed() < SUITE_BUDGET_S
