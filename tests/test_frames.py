import math

import numpy as np
import pytest

from temporag.errors import DataError, LengthMismatchError
from temporag.frames import (
    SelectorConfig,
    detect_on_keyframes,
    frame_similarities,
    select_keyframes,
    weight_frames,
)
from temporag.ingest import DetectedObject
from temporag.providers import FixtureDetector, StubDetector
from temporag.ingest import DetectionRecord
from temporag.types import FrameRecord
from temporag.vectorindex import FlatVectorIndex, normalize


# Independent scalar oracle for the entropy weighting, parameterized by log
# base to check base invariance.
def oracle_alpha(sims, log=math.log):
    pos = [max(s, 0.0) for s in sims]
    total = sum(pos)
    probs = [p / total if total > 0 else 0.0 for p in pos]
    entropy = [-p * log(p) if p > 0 else 0.0 for p in probs]
    h_total = sum(entropy)
    if h_total > 0:
        return [h / h_total for h in entropy]
    return [1.0 / len(sims)] * len(sims)


def frames_uniform(n, duration):
    step = duration / (n - 1) if n > 1 else 0.0
    return [FrameRecord(frame_index=i, t=i * step) for i in range(n)]


class TestFrameSimilarities:
    def test_dot_per_embedded_frame_and_placeholder(self):
        index = FlatVectorIndex(2)
        index.add("a", [1.0, 0.0])
        index.add("b", [0.0, 1.0])
        frames = [
            FrameRecord(frame_index=0, t=0.0, embedding_ref="b"),
            FrameRecord(frame_index=1, t=1.0),
            FrameRecord(frame_index=2, t=2.0, embedding_ref="a"),
        ]
        q = normalize([3.0, 4.0])
        assert frame_similarities(frames, index, q) == [
            float(np.dot(index.get("b").astype(np.float64), q)),
            -1.0,
            float(np.dot(index.get("a").astype(np.float64), q)),
        ]

    def test_dangling_embedding_ref_is_data_error(self):
        frames = [FrameRecord(frame_index=4, t=0.0, embedding_ref="missing")]
        with pytest.raises(DataError, match="missing"):
            frame_similarities(frames, FlatVectorIndex(2), normalize([1.0, 0.0]))


class TestWeightFrames:
    def test_equal_sims_give_uniform_weights(self):
        w = weight_frames([0.4] * 5)
        np.testing.assert_allclose(w.probs, 0.2, atol=1e-12)
        np.testing.assert_allclose(w.alpha, 0.2, atol=1e-12)

    def test_hand_computed_pair(self):
        # sims (0.6, 0.2): p = (0.75, 0.25); H = (-0.75 ln 0.75, -0.25 ln 0.25).
        # The lower-similarity frame gets the larger weight because -p ln p
        # peaks at p = 1/e.
        w = weight_frames([0.6, 0.2])
        np.testing.assert_allclose(w.probs, [0.75, 0.25], atol=1e-12)
        h0 = -0.75 * math.log(0.75)
        h1 = -0.25 * math.log(0.25)
        np.testing.assert_allclose(w.entropy, [h0, h1], atol=1e-12)
        np.testing.assert_allclose(w.alpha, [h0 / (h0 + h1), h1 / (h0 + h1)], atol=1e-12)
        assert w.alpha[1] > w.alpha[0]

    def test_single_frame_uniform_fallback(self):
        w = weight_frames([0.9])
        assert w.probs[0] == 1.0
        assert w.entropy[0] == 0.0
        assert w.alpha[0] == 1.0

    def test_all_negative_sims(self):
        w = weight_frames([-0.5, -0.1])
        np.testing.assert_allclose(w.probs, [0.0, 0.0], atol=0)
        np.testing.assert_allclose(w.alpha, [0.5, 0.5], atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            weight_frames([])

    def test_alpha_sums_to_one_random(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            sims = rng.uniform(-1, 1, size=int(rng.integers(1, 64)))
            w = weight_frames(sims)
            assert abs(float(np.sum(w.alpha)) - 1.0) <= 1e-9

    def test_alpha_scale_invariance(self):
        rng = np.random.default_rng(3)
        sims = rng.uniform(0.01, 1, size=32)
        a = weight_frames(sims).alpha
        b = weight_frames(4.7 * sims).alpha
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_alpha_log_base_invariance(self):
        rng = np.random.default_rng(4)
        sims = rng.uniform(0.01, 1, size=32).tolist()
        got = weight_frames(sims).alpha
        for log in (math.log2, math.log10):
            np.testing.assert_allclose(got, oracle_alpha(sims, log=log), atol=1e-9)

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            sims = rng.uniform(-1, 1, size=int(rng.integers(2, 40))).tolist()
            np.testing.assert_allclose(weight_frames(sims).alpha, oracle_alpha(sims), atol=1e-12)


# Literal step-by-step reference for the selection procedure.
def oracle_select(frames, sims, cfg, duration):
    alpha = oracle_alpha(sims)
    candidates = [i for i in range(len(frames)) if sims[i] >= cfg.sim_threshold]
    width = duration / cfg.n_bins if duration > 0 else 0.0
    bins = [[] for _ in range(cfg.n_bins)]
    for i in candidates:
        b = min(int(frames[i].t / width), cfg.n_bins - 1) if width > 0 else 0
        bins[b].append(i)
    for b in bins:
        b.sort(key=lambda i: (-alpha[i] * sims[i], frames[i].t, frames[i].frame_index))
    picked = []
    while len(picked) < cfg.max_frames and any(bins):
        for b in bins:
            if b and len(picked) < cfg.max_frames:
                picked.append(b.pop(0))
    picked.sort(key=lambda i: (frames[i].t, frames[i].frame_index))
    return [frames[i] for i in picked]


class TestSelectKeyframes:
    def test_all_below_threshold_empty(self):
        frames = frames_uniform(8, 70.0)
        cfg = SelectorConfig(max_frames=4, sim_threshold=0.3, n_bins=4)
        assert select_keyframes(frames, [0.1] * 8, cfg) == []

    def test_symmetric_case_one_per_bin(self):
        frames = frames_uniform(8, 70.0)
        cfg = SelectorConfig(max_frames=4, sim_threshold=0.3, n_bins=4)
        selected = select_keyframes(frames, [0.5] * 8, cfg, duration_s=70.0)
        assert len(selected) == 4
        width = 70.0 / 4
        bins = {min(int(f.t / width), 3) for f in selected}
        assert bins == {0, 1, 2, 3}

    def test_matches_step_by_step_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = 64
            duration = 640.0
            frames = frames_uniform(n, duration)
            sims = rng.uniform(-0.2, 1.0, size=n).tolist()
            cfg = SelectorConfig(max_frames=16, sim_threshold=0.3, n_bins=8)
            got = select_keyframes(frames, sims, cfg, duration_s=duration)
            want = oracle_select(frames, sims, cfg, duration)
            assert got == want

    def test_output_strictly_increasing_in_time(self):
        rng = np.random.default_rng(12)
        frames = frames_uniform(40, 200.0)
        sims = rng.uniform(0, 1, size=40).tolist()
        cfg = SelectorConfig(max_frames=10, sim_threshold=0.2, n_bins=5)
        selected = select_keyframes(frames, sims, cfg, duration_s=200.0)
        times = [f.t for f in selected]
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_per_bin_bound_on_populated_bins(self):
        # With every bin well populated, round-robin keeps per-bin counts
        # within ceil(max_frames / n_bins) + 1.
        rng = np.random.default_rng(13)
        frames = frames_uniform(64, 320.0)
        sims = rng.uniform(0.4, 1.0, size=64).tolist()  # all pass the gate
        cfg = SelectorConfig(max_frames=12, sim_threshold=0.3, n_bins=4)
        selected = select_keyframes(frames, sims, cfg, duration_s=320.0)
        width = 320.0 / 4
        counts = [0] * 4
        for f in selected:
            counts[min(int(f.t / width), 3)] += 1
        bound = math.ceil(12 / 4) + 1
        assert all(c <= bound for c in counts)

    def test_order_independence(self):
        rng = np.random.default_rng(14)
        frames = frames_uniform(30, 150.0)
        sims = rng.uniform(0, 1, size=30).tolist()
        cfg = SelectorConfig(max_frames=8, sim_threshold=0.2, n_bins=4)
        base = select_keyframes(frames, sims, cfg, duration_s=150.0)
        perm = rng.permutation(30)
        shuffled = select_keyframes(
            [frames[i] for i in perm], [sims[i] for i in perm], cfg, duration_s=150.0
        )
        assert base == shuffled

    def test_length_mismatch(self):
        cfg = SelectorConfig(max_frames=2, n_bins=2)
        with pytest.raises(LengthMismatchError):
            select_keyframes(frames_uniform(3, 10.0), [0.5, 0.5], cfg)

    def test_uniform_alpha_mode_ranks_by_similarity(self):
        frames = frames_uniform(4, 10.0)
        sims = [0.9, 0.8, 0.5, 0.4]
        cfg = SelectorConfig(max_frames=1, sim_threshold=0.3, n_bins=1)
        top = select_keyframes(frames, sims, cfg, duration_s=10.0, entropy_weighted=False)
        assert top[0].frame_index == 0

    def test_config_validation(self):
        with pytest.raises(DataError):
            SelectorConfig(max_frames=2, n_bins=4)


class TestDetectOnKeyframes:
    def test_empty_keyframes(self):
        assert detect_on_keyframes([], StubDetector()) == []

    def test_fixture_detector_echoes_at_timestamps(self):
        obj = DetectedObject(label="cat", box=(0.1, 0.1, 0.4, 0.4), confidence=0.8)
        fixtures = [DetectionRecord(frame_index=2, t=99.0, objects=(obj,))]
        keyframes = [FrameRecord(frame_index=2, t=20.0), FrameRecord(frame_index=3, t=30.0)]
        records = detect_on_keyframes(keyframes, FixtureDetector(fixtures))
        assert records[0].t == 20.0 and records[0].objects == (obj,)
        assert records[1].objects == ()

    def test_stub_detector_stable_golden(self):
        keyframes = [FrameRecord(frame_index=i, t=float(i)) for i in range(5)]
        a = detect_on_keyframes(keyframes, StubDetector())
        b = detect_on_keyframes(keyframes, StubDetector())
        assert a == b
        # Frozen from the stub's documented rule: frame i has i % 3 objects.
        assert [len(r.objects) for r in a] == [0, 1, 2, 0, 1]
        assert a[1].objects[0].label == "car"
        assert a[2].objects[1].label == "sign"
