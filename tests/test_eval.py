import pytest

from temporag import evalharness
from temporag.config import RunConfig
from temporag.errors import DataError
from temporag.evalharness import (
    EvalReport,
    SyntheticSpec,
    aggregate_reports,
    eval_question,
    gen_corpus,
    render_table,
    run_eval,
    sweep_threshold,
)
from temporag.pipeline import AblationFlags
from temporag.types import Channel

CFG = RunConfig()


def key_fields(report: EvalReport) -> tuple:
    """Everything except wall time, for determinism comparisons."""
    return (
        report.recall_at_1,
        report.recall_at_k,
        report.mrr,
        report.mean_time_error_s,
        report.tokens_retained,
    )


class TestSpecValidation:
    def test_zero_duplicates_rejected(self):
        with pytest.raises(DataError):
            SyntheticSpec(seed=0, n_duplicates=0)

    def test_needle_outside_duration_rejected(self):
        with pytest.raises(DataError):
            SyntheticSpec(seed=0, duration_s=100.0, needle_time=200.0)

    def test_too_few_snippets_rejected(self):
        with pytest.raises(DataError):
            SyntheticSpec(seed=0, n_snippets=10, n_duplicates=20)


class TestGenCorpus:
    def test_same_seed_identical(self):
        a = gen_corpus(SyntheticSpec(seed=5))
        b = gen_corpus(SyntheticSpec(seed=5))
        assert a.snippets == b.snippets
        assert a.frames == b.frames
        assert a.frame_texts == b.frame_texts

    def test_different_seeds_differ(self):
        a = gen_corpus(SyntheticSpec(seed=5))
        b = gen_corpus(SyntheticSpec(seed=6))
        assert a.snippets != b.snippets

    def test_duplicates_placed_far_from_needle(self):
        spec = SyntheticSpec(seed=2, duration_s=100.0, n_snippets=60, n_duplicates=20, needle_time=50.0)
        corpus = gen_corpus(spec)
        needle_mid = corpus.ground_truth.needle_time
        dups = [s for s in corpus.snippets if s.id.startswith("dup-")]
        assert len(dups) == 20
        assert all(abs(d.t_mid - needle_mid) >= 25.0 for d in dups)

    def test_duplicates_are_lexical_clones(self):
        corpus = gen_corpus(SyntheticSpec(seed=3))
        needle = next(s for s in corpus.snippets if s.id == "needle")
        for dup in (s for s in corpus.snippets if s.id.startswith("dup-")):
            assert dup.text == needle.text

    def test_background_disjoint_from_query_terms(self):
        corpus = gen_corpus(SyntheticSpec(seed=4))
        terms = set(corpus.spec.query_terms)
        for s in corpus.snippets:
            if s.id.startswith("bg-"):
                assert not terms & set(s.text.split())

    def test_snippet_count(self):
        corpus = gen_corpus(SyntheticSpec(seed=1, n_snippets=120, n_duplicates=10))
        assert len(corpus.snippets) == 120


class TestRunEval:
    def test_temporal_decay_recovers_needle(self):
        corpus = gen_corpus(SyntheticSpec(seed=0))
        report = run_eval(corpus, CFG)
        assert report.recall_at_1 == 1.0
        assert report.mrr == 1.0

    def test_without_decay_duplicates_win(self):
        corpus = gen_corpus(SyntheticSpec(seed=0))
        report = run_eval(corpus, CFG, AblationFlags(tw=False))
        assert report.recall_at_1 == 0.0

    def test_time_error_improves_with_decay(self):
        for seed in range(5):
            corpus = gen_corpus(SyntheticSpec(seed=seed))
            with_tw = run_eval(corpus, CFG)
            without = run_eval(corpus, CFG, AblationFlags(tw=False))
            assert with_tw.mean_time_error_s < without.mean_time_error_s

    def test_asr_off_drops_everything(self):
        corpus = gen_corpus(SyntheticSpec(seed=1))
        report = run_eval(corpus, CFG, AblationFlags(asr=False))
        assert report.recall_at_k == 0.0
        assert report.tokens_retained == 0

    def test_deterministic_modulo_wall_time(self):
        corpus = gen_corpus(SyntheticSpec(seed=2))
        a = run_eval(corpus, CFG)
        b = run_eval(corpus, CFG)
        assert key_fields(a) == key_fields(b)

    def test_one_run_query_call_scored_from_its_asr_retrieval(self, monkeypatch):
        results = []

        def spy(*args, **kwargs):
            results.append(run_query(*args, **kwargs))
            return results[-1]

        run_query = evalharness.run_query
        monkeypatch.setattr(evalharness, "run_query", spy)
        corpus = gen_corpus(SyntheticSpec(seed=3))
        report = run_eval(corpus, CFG, AblationFlags(se=False, context=False))
        assert len(results) == 1
        result = results[0]
        assert result.trace["question"] == "What is mentioned about crimson anvil lantern?"
        # The speech cue sends the content words to ASR, the corpus's channel.
        content = "mentioned crimson anvil lantern"
        assert result.trace["request"] == {"asr": content, "ocr": None, "det": content}
        assert result.trace["flags"] == {
            "se": False, "tw": True, "ocr": True, "asr": True, "context": False
        }
        asr = result.retrieval[Channel.ASR]
        assert report.recall_at_1 == float(asr.hits[0].snippet.id == "needle")
        assert report.tokens_retained == sum(len(h.snippet.text.split()) for h in asr.pool)
        assert len(asr.pool) > len(asr.hits)

    def test_question_carries_a_speech_cue(self):
        spec = SyntheticSpec(seed=0, query_terms=("amber", "bell"))
        assert eval_question(spec) == "What is mentioned about amber bell?"

    def test_recall_at_1_bounded_by_recall_at_k(self):
        for seed in range(5):
            report = run_eval(gen_corpus(SyntheticSpec(seed=seed)), CFG)
            assert report.recall_at_1 <= report.recall_at_k


class TestSweep:
    TAUS = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 1.0]

    def test_tokens_monotone_non_increasing(self):
        for seed in range(3):
            corpus = gen_corpus(SyntheticSpec(seed=seed))
            reports = sweep_threshold(corpus, self.TAUS, CFG)
            tokens = [r.tokens_retained for _, r in reports]
            assert all(a >= b for a, b in zip(tokens, tokens[1:]))

    def test_tau_one_retains_nothing(self):
        corpus = gen_corpus(SyntheticSpec(seed=1))
        (_, report) = sweep_threshold(corpus, [1.0], CFG)[0]
        assert report.tokens_retained == 0

    def test_tau_zero_at_least_tau_one(self):
        corpus = gen_corpus(SyntheticSpec(seed=2))
        reports = dict(sweep_threshold(corpus, [0.0, 1.0], CFG))
        assert reports[0.0].tokens_retained >= reports[1.0].tokens_retained

    def test_taus_kept_in_given_order(self):
        corpus = gen_corpus(SyntheticSpec(seed=0))
        given = sweep_threshold(corpus, [0.5, 0.1, 0.3], CFG)
        ascending = dict(sweep_threshold(corpus, [0.1, 0.3, 0.5], CFG))
        assert [tau for tau, _ in given] == [0.5, 0.1, 0.3]
        assert [key_fields(r) for _, r in given] == [
            key_fields(ascending[tau]) for tau in (0.5, 0.1, 0.3)
        ]


def test_aggregate_reports():
    reports = [
        EvalReport(1.0, 1.0, 1.0, 2.0, 100, 5.0),
        EvalReport(0.0, 1.0, 0.5, 4.0, 80, 7.0),
    ]
    agg = aggregate_reports(reports)
    assert agg["recall_at_1"]["mean"] == 0.5
    assert agg["tokens_retained"]["mean"] == 90.0
    assert agg["mean_time_error_s"]["stddev"] == pytest.approx(1.4142135, abs=1e-6)


def test_render_table_alignment():
    rows = [{"tau": 0.0, "tokens": 105}, {"tau": 1.0, "tokens": 0}]
    table = render_table(rows)
    lines = table.splitlines()
    assert lines[0].startswith("tau")
    assert len({len(l) for l in lines[:2]}) == 1  # header and rule align
