import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from temporag.errors import DataError, TemporagError
from temporag.frames import (
    FrameTable,
    SelectorConfig,
    detect_on_keyframes,
    frame_similarities,
    load_frame_table,
    save_frame_table,
    select_keyframes,
    weight_frames,
)
from temporag.ingest import DetectedObject
from temporag.providers import FixtureDetector, StubDetector
from temporag.textindex import F4, write_index_file
from temporag.ingest import DetectionRecord
from temporag.types import FrameRecord
from temporag.vectorindex import normalize

from conftest import MUTATIONS, detection_columns, mutate_bytes


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


def table(frames):
    """A frame table of the records, none embedded."""
    return FrameTable([f.frame_index for f in frames], [f.t for f in frames])


def unit_rows(*rows):
    return np.array([normalize(r) for r in rows], dtype=F4)


class TestFrameSimilarities:
    def test_dot_per_embedded_frame_and_placeholder(self):
        matrix = unit_rows([0.0, 1.0], [1.0, 0.0])
        frames = FrameTable([0, 1, 2], [0.0, 1.0, 2.0], [True, False, True], matrix)
        q = normalize([3.0, 4.0])
        assert frame_similarities(frames, q).tolist() == [
            float(np.dot(matrix[0].astype(np.float64), q)),
            -1.0,
            float(np.dot(matrix[1].astype(np.float64), q)),
        ]

    def test_no_frame_embedded(self):
        # No embedding, so no dimension to check the query against: no product is taken.
        frames = FrameTable([0, 1, 2], [0.0, 1.0, 2.0])
        assert frame_similarities(frames, normalize([1.0, 0.0])).tolist() == [-1.0, -1.0, -1.0]

    def test_single_frame(self):
        frames = FrameTable([7], [0.0], [True], unit_rows([0.0, 2.0]))
        assert frame_similarities(frames, normalize([0.0, 1.0])).tolist() == [1.0]

    def test_no_frames(self):
        assert frame_similarities(FrameTable([], []), normalize([0.0, 1.0])).tolist() == []

    def test_query_dim_differs_is_data_error(self):
        frames = FrameTable([0], [0.0], [True], unit_rows([0.0, 1.0]))
        with pytest.raises(DataError, match="^expected dim 2, got 3$"):
            frame_similarities(frames, normalize([1.0, 0.0, 0.0]))

    def test_matrix_rows_match_embedded_frames(self):
        with pytest.raises(DataError, match="1 embeddings for 2 embedded frames"):
            FrameTable([3, 4], [0.0, 1.0], [True, True], unit_rows([1.0, 0.0]))
        with pytest.raises(DataError, match="^2 frame indices but 1 times$"):
            FrameTable([3, 4], [0.0])

    def test_similarities_of_a_loaded_table(self, tmp_path):
        rows = [normalize([1.0, float(i)]) for i in range(3)]
        save_frame_table(
            str(tmp_path / "frames.tbl"), [5, 1, 9, 2], [0.0, 1.0, 2.0, 3.0],
            ["gull", "", "pier", "boat"], rows,
        )
        loaded = load_frame_table(str(tmp_path / "frames.tbl"), 10.0)
        in_memory = FrameTable(
            [5, 1, 9, 2], [0.0, 1.0, 2.0, 3.0], [True, False, True, True],
            np.array(rows, dtype=F4),
        )
        q = normalize([1.0, 1.0])
        sims = frame_similarities(loaded, q)
        np.testing.assert_array_equal(sims, frame_similarities(in_memory, q))
        assert sims[1] == -1.0

    def test_records_built_once(self):
        frames = FrameTable([4, 2], [0.5, 1.5])
        assert frames.record(1) == FrameRecord(frame_index=2, t=1.5)
        assert frames.record(1) is frames.record(1)



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
        assert select_keyframes(table(frames), [0.1] * 8, cfg, duration_s=70.0) == []

    def test_symmetric_case_one_per_bin(self):
        frames = frames_uniform(8, 70.0)
        cfg = SelectorConfig(max_frames=4, sim_threshold=0.3, n_bins=4)
        selected = select_keyframes(table(frames), [0.5] * 8, cfg, duration_s=70.0)
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
            got = select_keyframes(table(frames), sims, cfg, duration_s=duration)
            want = oracle_select(frames, sims, cfg, duration)
            assert got == want

    def test_matches_oracle_with_ties_and_uneven_times(self):
        rng = np.random.default_rng(14)
        for _ in range(40):
            n = int(rng.integers(1, 30))
            times = np.sort(rng.choice([0.0, 3.0, 7.5, 12.0, 40.0, 41.0, 99.0], size=n))
            frames = [FrameRecord(frame_index=int(i), t=float(t)) for i, t in
                      zip(rng.permutation(n), times)]
            sims = rng.choice([-0.5, 0.0, 0.3, 0.5, 0.9], size=n).tolist()
            cfg = SelectorConfig(max_frames=int(rng.integers(3, 9)), sim_threshold=0.3, n_bins=3)
            assert select_keyframes(table(frames), sims, cfg, duration_s=100.0) == oracle_select(
                frames, sims, cfg, 100.0
            )

    def test_output_strictly_increasing_in_time(self):
        rng = np.random.default_rng(12)
        frames = frames_uniform(40, 200.0)
        sims = rng.uniform(0, 1, size=40).tolist()
        cfg = SelectorConfig(max_frames=10, sim_threshold=0.2, n_bins=5)
        selected = select_keyframes(table(frames), sims, cfg, duration_s=200.0)
        times = [f.t for f in selected]
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_per_bin_bound_on_populated_bins(self):
        # With every bin well populated, round-robin keeps per-bin counts
        # within ceil(max_frames / n_bins) + 1.
        rng = np.random.default_rng(13)
        frames = frames_uniform(64, 320.0)
        sims = rng.uniform(0.4, 1.0, size=64).tolist()  # all pass the gate
        cfg = SelectorConfig(max_frames=12, sim_threshold=0.3, n_bins=4)
        selected = select_keyframes(table(frames), sims, cfg, duration_s=320.0)
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
        base = select_keyframes(table(frames), sims, cfg, duration_s=150.0)
        perm = rng.permutation(30)
        shuffled = select_keyframes(
            table([frames[i] for i in perm]), [sims[i] for i in perm], cfg, duration_s=150.0
        )
        assert base == shuffled

    def test_length_mismatch(self):
        cfg = SelectorConfig(max_frames=2, n_bins=2)
        with pytest.raises(DataError, match="^3 frames but 2 similarities$"):
            select_keyframes(table(frames_uniform(3, 10.0)), [0.5, 0.5], cfg, duration_s=10.0)

    def test_uniform_alpha_mode_ranks_by_similarity(self):
        frames = frames_uniform(4, 10.0)
        sims = [0.9, 0.8, 0.5, 0.4]
        cfg = SelectorConfig(max_frames=1, sim_threshold=0.3, n_bins=1)
        top = select_keyframes(table(frames), sims, cfg, duration_s=10.0, entropy_weighted=False)
        assert top[0].frame_index == 0

    def test_config_validation(self):
        with pytest.raises(DataError):
            SelectorConfig(max_frames=2, n_bins=4)


# A gate at tau >= 0, with the budget and bins any valid config may hold.
NON_NEGATIVE_TAU_CONFIGS = st.integers(1, 12).flatmap(
    lambda m: st.builds(SelectorConfig, st.just(m), st.floats(0.0, 1.0), st.integers(1, m))
)


# Similarities on a 2**-20 grid in [-1, 1]. Two similarities a few ulps
# apart can round to equal alpha * sim in one mode and not in the other,
# and then the (t, frame_index) tie-break picks differently; the property
# is about the order of the weights, not that rounding.
GRID_SIMS = st.integers(-(2**20), 2**20).map(lambda k: k / 2**20)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    rows=st.lists(st.tuples(GRID_SIMS, st.floats(0.0, 100.0)), min_size=1, max_size=40),
    cfg=NON_NEGATIVE_TAU_CONFIGS,
)
def test_entropy_weight_changes_no_keyframe_at_non_negative_tau(rows, cfg):
    # Gated frames have sim >= tau >= 0, so p is proportional to sim and
    # alpha * sim to -p**2 ln p, which keeps the order of sim: at most one
    # frame has p past the peak at e**-0.5, and it stays first.
    sims = [s for s, _ in rows]
    frames = FrameTable(range(len(rows)), [t for _, t in rows])
    weighted = select_keyframes(frames, sims, cfg, duration_s=100.0, entropy_weighted=True)
    assert weighted == select_keyframes(frames, sims, cfg, duration_s=100.0, entropy_weighted=False)


class TestDetectOnKeyframes:
    def test_empty_keyframes(self):
        assert detect_on_keyframes([], StubDetector()) == []

    def test_fixture_detector_echoes_at_timestamps(self):
        obj = DetectedObject(label="cat", box=(0.1, 0.1, 0.4, 0.4), confidence=0.8)
        fixtures = [DetectionRecord(frame_index=2, t=99.0, objects=(obj,))]
        keyframes = [FrameRecord(frame_index=2, t=20.0), FrameRecord(frame_index=3, t=30.0)]
        detector = FixtureDetector.from_columns(detection_columns(fixtures))
        records = detect_on_keyframes(keyframes, detector)
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


class TestFrameTable:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "frames.tbl"
        rows = [normalize([1.0, 2.0, 2.0]), normalize([0.0, 0.0, 1.0])]
        save_frame_table(str(path), [3, 1, 2], [0.0, 5.0, 5.0], ["quai", "", "日本"], rows)
        frames = load_frame_table(str(path), 10.0)
        assert frames.frame_index.tolist() == [3, 1, 2]
        assert frames.t.tolist() == [0.0, 5.0, 5.0]
        assert list(frames.texts) == ["quai", "", "日本"]
        assert frames.embedded.tolist() == [True, False, True]
        np.testing.assert_array_equal(frames.matrix, np.array(rows, dtype=F4))

    def test_store_table_has_no_rows(self, tmp_path):
        # As ingest writes it: the texts, dim 0 and no rows.
        path = tmp_path / "frames.tbl"
        save_frame_table(str(path), [3, 1, 2], [0.0, 5.0, 5.0], ["quai", "", "日本"])
        frames = load_frame_table(str(path), 10.0)
        assert list(frames.texts) == ["quai", "", "日本"]
        assert frames.embedded.tolist() == [True, False, True]
        assert frames.matrix.shape == (2, 0)

    def test_vectors_for_each_frame_with_text(self, tmp_path):
        with pytest.raises(DataError, match="^1 vectors for 2 frames with text$"):
            save_frame_table(str(tmp_path / "frames.tbl"), [0, 1], [0.0, 1.0], ["a", "b"],
                             unit_rows([1.0, 0.0]))

    def test_zero_rows(self, tmp_path):
        path = tmp_path / "frames.tbl"
        save_frame_table(str(path), [], [], [], [])
        frames = load_frame_table(str(path), 10.0)
        assert len(frames) == len(frames.matrix) == 0

    @pytest.mark.parametrize(
        "frame_index, t, problem",
        [
            ([0, 1], [0.0, math.nan], "frame times outside"),
            ([0, 1], [0.0, 10.5], "frame times outside"),
            ([0, 1], [-1.0, 1.0], "frame times outside"),
            ([1, 1], [0.0, 1.0], "duplicate frame_index"),
            ([0, 1], [2.0, 1.0], "not sorted"),
            ([2, 1], [1.0, 1.0], "not sorted"),
        ],
        ids=["t_nan", "t_past_duration", "t_negative", "duplicate", "t_descending", "tie_unsorted"],
    )
    def test_bad_rows_rejected(self, tmp_path, frame_index, t, problem):
        path = tmp_path / "frames.tbl"
        save_frame_table(str(path), frame_index, t, ["", ""])
        with pytest.raises(DataError, match=f"{re.escape(str(path))}: .*{problem}"):
            load_frame_table(str(path), 10.0)

    @pytest.mark.parametrize(
        "texts, rows, problem",
        [
            (["a", "b"], [[1.0, math.nan], [0.0, 1.0]], "non-finite embedding values"),
            (["", "b"], [[math.inf, 0.0]], "non-finite embedding values"),
        ],
        ids=["nan", "inf"],
    )
    def test_bad_embeddings_rejected(self, tmp_path, texts, rows, problem):
        path = tmp_path / "frames.tbl"
        save_frame_table(str(path), [0, 1], [0.0, 1.0], texts, rows)
        with pytest.raises(DataError, match=f"{re.escape(str(path))}: .*{problem}"):
            load_frame_table(str(path), 10.0)

    def test_dim_without_frame_text_rejected(self, tmp_path):
        # One frame, its text empty, and dim 2: rows of a width but none to hold.
        path = tmp_path / "frames.tbl"
        write_index_file(
            str(path), 3, struct.pack("<I", 1), struct.pack("<I", 0), struct.pack("<d", 0.0),
            struct.pack("<II", 0, 0), struct.pack("<I", 2),
        )
        with pytest.raises(DataError, match="dim 2 for 0 embedded frames"):
            load_frame_table(str(path), 10.0)

    def test_version_1_rejected(self, tmp_path):
        path = tmp_path / "frames.tbl"
        write_index_file(str(path), 1, struct.pack("<I", 1), struct.pack("<I", 0),
                         struct.pack("<d", 0.0))
        with pytest.raises(TemporagError, match="format version 1, expected 3"):
            load_frame_table(str(path), 10.0)


@pytest.fixture(scope="module")
def frame_table_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("frame_table_fuzz")
    rows = [normalize([1.0, 2.0, 0.5]), normalize([0.0, 1.0, 1.0]), normalize([3.0, 0.0, 1.0])]
    save_frame_table(
        str(path / "clean.tbl"), [4, 0, 2, 7], [0.0, 1.5, 1.5, 9.0],
        ["gull", "", "quai é", "日本"], rows,
    )
    # As ingest writes it, with no rows.
    save_frame_table(
        str(path / "store.tbl"), [4, 0, 2, 7], [0.0, 1.5, 1.5, 9.0], ["gull", "", "quai é", "日本"]
    )
    return path


@settings(max_examples=800, derandomize=True, database=None, deadline=None)
@given(name=st.sampled_from(["clean.tbl", "store.tbl"]), mutations=MUTATIONS)
def test_mutated_file_loads_or_raises_temporag_error(frame_table_dir, name, mutations):
    path = frame_table_dir / "mutated.tbl"
    path.write_bytes(mutate_bytes((frame_table_dir / name).read_bytes(), mutations))
    try:
        frames = load_frame_table(str(path), 10.0)
    except TemporagError:
        return
    records = [frames.record(i) for i in range(len(frames))]
    assert len({f.frame_index for f in records}) == len(records)
    assert all(0.0 <= f.t <= 10.0 for f in records)
    assert records == sorted(records, key=lambda f: (f.t, f.frame_index))
    assert frames.embedded.tolist() == [text != "" for text in frames.texts]
    assert frames.matrix.shape == (int(frames.embedded.sum()), frames.matrix.shape[1])
    assert np.all(np.isfinite(frames.matrix))
    if frames.matrix.size:
        q = normalize(np.ones(frames.matrix.shape[1]))
        assert np.all(np.isfinite(frame_similarities(frames, q)))
