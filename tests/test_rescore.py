import math

import numpy as np
import pytest

from temporag.errors import (
    AllZeroMassError,
    DataError,
    EmptyFrameListError,
    LengthMismatchError,
)
from temporag.frames import frame_similarities
from temporag.rescore import (
    AnchorSet,
    DecayParams,
    RescoreConfig,
    TimeNorm,
    compute_anchors,
    decay_multiplier,
    rescore,
    top_k,
)
from temporag.types import FrameRecord
from temporag.vectorindex import FlatVectorIndex, normalize

from conftest import make_snippet


# Term-by-term oracle for the rescoring formula, independent of the vectorized code:
# score_i = raw_i * exp(-sum_k lambda_k |a_k - t_i|) normalized over the pool.
def oracle_rescore(raws, times, anchors, lambdas, duration):
    masses = []
    for raw, t in zip(raws, times):
        exponent = sum(
            lam * abs(a / duration - t / duration) for lam, a in zip(lambdas, anchors)
        )
        masses.append(raw * math.exp(-exponent))
    total = sum(masses)
    return [m / total for m in masses]


def frames_at(times):
    return [FrameRecord(frame_index=i, t=t, embedding_ref=f"f{i}") for i, t in enumerate(times)]


class TestComputeAnchors:
    def build_index(self, vectors):
        index = FlatVectorIndex(4)
        for i, v in enumerate(vectors):
            index.add(f"f{i}", v)
        return index

    def test_first_last_and_given_argmax(self):
        frames = frames_at([0.0, 5.0, 10.0])
        index = self.build_index([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
        q = normalize([0.0, 1.0, 0.0, 0.0])
        anchors = compute_anchors(frames, frame_similarities(frames, index, q))
        assert (anchors.t_last, anchors.t_first, anchors.t_semantic) == (10.0, 0.0, 5.0)

    def test_single_frame(self):
        frames = frames_at([3.0])
        index = self.build_index([[1, 0, 0, 0]])
        sims = frame_similarities(frames, index, normalize([1.0, 1.0, 0.0, 0.0]))
        anchors = compute_anchors(frames, sims)
        assert anchors == AnchorSet(t_last=3.0, t_first=3.0, t_semantic=3.0)

    def test_argmax_matches_exhaustive_scan(self):
        rng = np.random.default_rng(17)
        times = sorted(rng.uniform(0, 100, size=10))
        frames = frames_at(times)
        vectors = [rng.standard_normal(4) for _ in frames]
        index = self.build_index(vectors)
        q = normalize(rng.standard_normal(4))
        sims = [float(np.dot(index.get(f"f{i}").astype(np.float64), q)) for i in range(10)]
        expected_t = frames[int(np.argmax(sims))].t
        assert frame_similarities(frames, index, q) == sims
        assert compute_anchors(frames, sims).t_semantic == expected_t

    def test_tie_breaks_to_earliest(self):
        frames = frames_at([1.0, 2.0])
        index = self.build_index([[1, 0, 0, 0], [1, 0, 0, 0]])
        sims = frame_similarities(frames, index, normalize([1.0, 0.0, 0.0, 0.0]))
        anchors = compute_anchors(frames, sims)
        assert anchors.t_semantic == 1.0

    def test_empty_frames(self):
        with pytest.raises(EmptyFrameListError):
            compute_anchors([], [])

    def test_no_embeddings_falls_back_to_first(self):
        frames = [FrameRecord(frame_index=0, t=2.0), FrameRecord(frame_index=1, t=9.0)]
        sims = frame_similarities(frames, FlatVectorIndex(4), normalize([1.0, 0.0, 0.0, 0.0]))
        assert sims == [-1.0, -1.0]
        anchors = compute_anchors(frames, sims)
        assert anchors.t_semantic == 2.0

    def test_unembedded_frame_never_wins(self):
        # An antipodal embedded frame still beats an earlier -1.0 placeholder,
        # and any value at an unembedded frame is ignored.
        frames = [
            FrameRecord(frame_index=0, t=1.0),
            FrameRecord(frame_index=1, t=2.0, embedding_ref="f1"),
            FrameRecord(frame_index=2, t=3.0),
        ]
        assert compute_anchors(frames, [-1.0, -1.0, 5.0]).t_semantic == 2.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            compute_anchors(frames_at([1.0, 2.0]), [0.5])


class TestDecayMultiplier:
    ANCHORS = AnchorSet(t_last=10.0, t_first=0.0, t_semantic=5.0)

    def test_zero_lambdas_give_one(self):
        params = DecayParams(lambdas=(0.0, 0.0, 0.0))
        for t in (0.0, 3.3, 10.0):
            assert decay_multiplier(t, self.ANCHORS, params, 10.0) == 1.0

    def test_hand_computed_value(self):
        # Normalized anchors {1, 0, 0.5}, t = 0.5: distances 0.5 + 0.5 + 0,
        # so the multiplier is exactly e^-1.
        params = DecayParams(lambdas=(1.0, 1.0, 1.0))
        got = decay_multiplier(5.0, self.ANCHORS, params, 10.0)
        assert got == pytest.approx(math.exp(-1.0), abs=1e-9)

    def test_at_all_anchors_is_one(self):
        anchors = AnchorSet(t_last=4.0, t_first=4.0, t_semantic=4.0)
        assert decay_multiplier(4.0, anchors, DecayParams(), 10.0) == 1.0

    def test_raw_seconds_mode(self):
        params = DecayParams(lambdas=(1.0, 0.0, 0.0), time_norm=TimeNorm.RAW_SECONDS)
        got = decay_multiplier(8.0, self.ANCHORS, params, 10.0)
        assert got == pytest.approx(math.exp(-2.0), abs=1e-12)

    def test_non_increasing_in_anchor_distance(self):
        params = DecayParams(lambdas=(0.0, 0.0, 1.0))
        distances = [decay_multiplier(5.0 + d, self.ANCHORS, params, 10.0) for d in (0, 1, 2, 4)]
        assert all(a >= b for a, b in zip(distances, distances[1:]))

    def test_negative_lambda_rejected(self):
        with pytest.raises(DataError):
            DecayParams(lambdas=(1.0, -0.5, 1.0))


class TestRescore:
    ANCHORS = AnchorSet(t_last=100.0, t_first=0.0, t_semantic=50.0)

    def test_single_candidate_score_one(self):
        out = rescore([(make_snippet("a", "x", 10.0, 12.0), 3.0)], self.ANCHORS, DecayParams(), 100.0)
        assert out[0].score == pytest.approx(1.0, abs=1e-12)

    def test_nearer_candidate_wins_on_equal_raw(self):
        near = make_snippet("near", "x", 49.0, 51.0)  # at the semantic anchor
        far = make_snippet("far", "x", 0.0, 2.0)
        out = rescore([(far, 2.0), (near, 2.0)], self.ANCHORS, DecayParams(), 100.0)
        by_id = {s.snippet.id: s.score for s in out}
        assert by_id["near"] > by_id["far"]

    def test_scores_sum_to_one(self):
        rng = np.random.default_rng(23)
        candidates = [
            (make_snippet(f"c{i}", "x", float(t), float(t) + 2.0), float(r))
            for i, (t, r) in enumerate(zip(rng.uniform(0, 98, 40), rng.uniform(0.1, 5, 40)))
        ]
        out = rescore(candidates, self.ANCHORS, DecayParams(), 100.0)
        assert sum(s.score for s in out) == pytest.approx(1.0, abs=1e-9)

    def test_matches_term_by_term_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            n = int(rng.integers(2, 31))
            times = rng.uniform(0, 100, size=n)
            raws = rng.uniform(0.0, 4.0, size=n)
            raws[int(rng.integers(0, n))] = 1.0  # keep total mass positive
            lambdas = tuple(float(l) for l in rng.uniform(0, 3, size=3))
            anchors = AnchorSet(*(float(a) for a in rng.uniform(0, 100, size=3)))
            candidates = [
                (make_snippet(f"c{i}", "x", t, t), r) for i, (t, r) in enumerate(zip(times, raws))
            ]
            got = rescore(candidates, anchors, DecayParams(lambdas=lambdas), 100.0)
            want = oracle_rescore(raws, times, anchors.as_tuple(), lambdas, 100.0)
            for s, w in zip(got, want):
                assert s.score == pytest.approx(w, abs=1e-9)

    def test_all_zero_mass(self):
        with pytest.raises(AllZeroMassError):
            rescore([(make_snippet("a", "x", 1.0, 2.0), 0.0)], self.ANCHORS, DecayParams(), 100.0)

    def test_raw_seconds_underflow_matches_log_space_oracle(self):
        # A 2 h video in raw seconds: every decay underflows to 0.0, yet the
        # pool normalizes as exp(log raw_i - E_i - logsumexp_j(log raw_j - E_j)).
        anchors = AnchorSet(t_last=7200.0, t_first=0.0, t_semantic=3600.0)
        params = DecayParams(lambdas=(1.0, 1.0, 1.0), time_norm=TimeNorm.RAW_SECONDS)
        times, raws = [100.0, 6000.0, 6002.0, 5999.0], [1.0, 2.0, 1.5, 0.0]
        candidates = [
            (make_snippet(f"c{i}", "x", t, t), r) for i, (t, r) in enumerate(zip(times, raws))
        ]
        got = rescore(candidates, anchors, params, 7200.0)
        assert [s.decay for s in got] == [0.0] * 4
        logs = [
            math.log(r) - sum(abs(a - t) for a in anchors.as_tuple()) if r > 0 else -math.inf
            for t, r in zip(times, raws)
        ]
        peak = max(logs)
        log_total = peak + math.log(math.fsum(math.exp(x - peak) for x in logs))
        for s, x in zip(got, logs):
            assert s.score == pytest.approx(math.exp(x - log_total), abs=1e-12)
        assert got[1].score > got[2].score > 0.0 == got[0].score == got[3].score

        two = rescore(candidates[:2], anchors, params, 7200.0)
        assert [s.score for s in two] == [0.0, 1.0]

    def test_negative_raw_rejected(self):
        with pytest.raises(DataError):
            rescore([(make_snippet("a", "x", 1.0, 2.0), -0.1)], self.ANCHORS, DecayParams(), 100.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(31)
        candidates = [
            (make_snippet(f"c{i}", "x", float(t), float(t)), float(r))
            for i, (t, r) in enumerate(zip(rng.uniform(0, 100, 20), rng.uniform(0.1, 3, 20)))
        ]
        scaled = [(s, 7.3 * r) for s, r in candidates]
        a = rescore(candidates, self.ANCHORS, DecayParams(), 100.0)
        b = rescore(scaled, self.ANCHORS, DecayParams(), 100.0)
        for x, y in zip(a, b):
            assert x.score == pytest.approx(y.score, abs=1e-9)


class TestTopK:
    def test_saturation_returns_whole_pool_sorted(self):
        anchors = AnchorSet(t_last=10.0, t_first=0.0, t_semantic=5.0)
        candidates = [
            (make_snippet(f"c{i}", "x", float(i), float(i)), float(i + 1)) for i in range(4)
        ]
        scored = rescore(candidates, anchors, DecayParams(lambdas=(0, 0, 0)), 10.0)
        out = top_k(scored, 10)
        assert len(out) == 4
        assert [s.snippet.id for s in out] == ["c3", "c2", "c1", "c0"]

    def test_exact_ties_prefer_earlier_t_mid(self):
        anchors = AnchorSet(t_last=10.0, t_first=0.0, t_semantic=5.0)
        late = make_snippet("a-late", "x", 8.0, 8.0)
        early = make_snippet("z-early", "x", 1.0, 1.0)
        scored = rescore([(late, 1.0), (early, 1.0)], anchors, DecayParams(lambdas=(0, 0, 0)), 10.0)
        out = top_k(scored, 2)
        assert [s.snippet.id for s in out] == ["z-early", "a-late"]

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(37)
        anchors = AnchorSet(t_last=50.0, t_first=0.0, t_semantic=25.0)
        candidates = [
            (make_snippet(f"c{i}", "x", float(t), float(t)), float(r))
            for i, (t, r) in enumerate(zip(rng.uniform(0, 50, 30), rng.uniform(0.1, 2, 30)))
        ]
        scored = rescore(candidates, anchors, DecayParams(), 50.0)
        expected = sorted(scored, key=lambda s: (-s.score, s.snippet.t_mid, s.snippet.id))
        for k in (1, 5, 30):
            assert top_k(scored, k) == expected[:k]


def test_lambda_zero_preserves_raw_ranking():
    # With zero decay strengths the rescored ranking must equal the raw
    # ranking whenever raw scores are distinct.
    rng = np.random.default_rng(41)
    anchors = AnchorSet(t_last=200.0, t_first=0.0, t_semantic=130.0)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        raws = rng.uniform(0.01, 5.0, size=n)
        times = rng.uniform(0, 200, size=n)
        candidates = [
            (make_snippet(f"c{i}", "x", float(t), float(t)), float(r))
            for i, (t, r) in enumerate(zip(times, raws))
        ]
        raw_ranking = [c[0].id for c in sorted(candidates, key=lambda c: -c[1])]
        out = top_k(rescore(candidates, anchors, DecayParams(lambdas=(0, 0, 0)), 200.0), n)
        assert [s.snippet.id for s in out] == raw_ranking


def test_needle_among_duplicates_ranks_first():
    # One of m lexical duplicates sits at the anchors; any positive decay
    # strength must rank it first.
    anchors = AnchorSet(t_last=100.0, t_first=0.0, t_semantic=60.0)
    needle = make_snippet("needle", "x", 59.0, 61.0)
    candidates = [(needle, 1.0)]
    for i, t in enumerate((5.0, 20.0, 90.0, 99.0)):
        candidates.append((make_snippet(f"dup{i}", "x", t, t), 1.0))
    for lam in (0.1, 1.0, 5.0):
        # The first/last anchors contribute a constant factor over [0, D];
        # only the semantic anchor separates duplicates here.
        out = top_k(
            rescore(candidates, anchors, DecayParams(lambdas=(lam, lam, lam)), 100.0), 5
        )
        assert out[0].snippet.id == "needle"


def test_rescore_config_pool():
    cfg = RescoreConfig(top_k=10, pool_multiplier=3)
    assert cfg.pool_size == 30
    with pytest.raises(DataError):
        RescoreConfig(top_k=0)
