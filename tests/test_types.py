import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from temporag.errors import DataError
from temporag.textindex import build_index, load_index, save_index
from temporag.types import (
    Channel,
    Snippet,
    VideoRecord,
    snippet_columns,
    snippet_from_obj,
    validate_snippet,
)

VIDEO = VideoRecord(video_id="v", duration_s=10.0)


def snip(text="hello", t_start=1.0, t_end=3.0, channel=Channel.ASR):
    return Snippet(id="s1", channel=channel, text=text, t_start=t_start, t_end=t_end)


class TestValidateSnippet:
    def test_midpoint(self):
        s = validate_snippet(snip(), VIDEO)
        assert s.t_mid == 2.0

    def test_empty_text(self):
        with pytest.raises(DataError, match="^snippet 's1' has empty text$"):
            validate_snippet(snip(text="  "), VIDEO)

    def test_inverted_interval(self):
        with pytest.raises(DataError, match="^snippet 's1': t_start 5.0 > t_end 2.0$"):
            validate_snippet(snip(t_start=5.0, t_end=2.0), VIDEO)

    def test_time_out_of_range(self):
        with pytest.raises(DataError, match=r"^time 11.0 outside \[0, 10.0\]$"):
            validate_snippet(snip(t_start=5.0, t_end=11.0), VIDEO)
        with pytest.raises(DataError, match=r"^time -0.1 outside \[0, 10.0\]$"):
            validate_snippet(snip(t_start=-0.1, t_end=1.0), VIDEO)

    def test_text_is_trimmed(self):
        s = validate_snippet(snip(text="  hi  "), VIDEO)
        assert s.text == "hi"


class TestVideoRecord:
    @pytest.mark.parametrize(
        "duration",
        [0.0, -1.0, math.inf, math.nan, True, "1", None, pytest.param(10**400, id="past_float")],
    )
    def test_bad_duration(self, duration):
        with pytest.raises(DataError, match="^duration_s must be finite and positive, got "):
            VideoRecord(video_id="v", duration_s=duration)

    def test_empty_id(self):
        with pytest.raises(DataError):
            VideoRecord(video_id="", duration_s=1.0)

    @pytest.mark.parametrize(
        "video_id", [5, ["a"], None, b"v"], ids=["int", "list", "none", "bytes"]
    )
    def test_id_not_a_string(self, video_id):
        with pytest.raises(DataError, match="^video_id must be a non-empty string, got "):
            VideoRecord(video_id=video_id, duration_s=1.0)

    def test_integer_duration_accepted(self):
        assert VideoRecord(video_id="v", duration_s=120).duration_s == 120


class TestChannel:
    def test_exact_members(self):
        assert {c.value for c in Channel} == {"asr", "ocr"}

    @pytest.mark.parametrize("tag", ["ASR", "subtitles", "", "audio"])
    def test_unknown_tag_is_error(self, tag):
        with pytest.raises(DataError):
            Channel.parse(tag)


finite_time = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


@settings(deadline=None)
@given(
    channel=st.sampled_from(list(Channel)),
    rows=st.dictionaries(
        st.text(max_size=20),
        st.tuples(
            st.text(min_size=1, max_size=80).filter(lambda s: s.strip()),
            finite_time,
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        ),
        max_size=8,
    ),
)
def test_store_table_round_trip_is_identity(channel, rows):
    # Snippets through ingest's store index (no dense rows) and build's loader, in id order.
    docs = [Snippet(i, channel, text, t0, t0 + delta) for i, (text, t0, delta) in rows.items()]
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / f"{channel.value}.bm25")
        save_index(build_index(snippet_columns(docs)), path)
        index = load_index(path, 1e6 + 100.0)
    assert index.dim == 0
    assert [index.snippet(p) for p in range(index.n_docs)] == sorted(docs, key=lambda d: d.id)


@given(t_start=finite_time, delta=st.floats(min_value=0.0, max_value=1e3, allow_nan=False))
def test_t_mid_is_arithmetic_mean(t_start, delta):
    s = snip(t_start=t_start, t_end=t_start + delta)
    assert abs(s.t_mid - (s.t_start + s.t_end) / 2.0) <= 1e-12


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@settings(derandomize=True, database=None)
@given(t_start=_FLOATS, t_end=_FLOATS)
def test_t_mid_keeps_the_half_sum_bits_wherever_the_sum_is_finite(t_start, t_end):
    t_mid = snip(t_start=t_start, t_end=t_end).t_mid
    if math.isfinite(t_start + t_end):
        assert t_mid.hex() == ((t_start + t_end) / 2.0).hex()
    else:  # the sum overflows: the midpoint is still finite and between the ends
        assert min(t_start, t_end) <= t_mid <= max(t_start, t_end)


def test_t_mid_of_subnormal_times_is_not_rounded_to_zero():
    tiny = math.ulp(0.0)  # 5e-324: halved alone, each end would round to 0.0
    assert snip(t_start=tiny, t_end=tiny).t_mid == tiny
    assert snip(t_start=1.6e308, t_end=1.7e308).t_mid == 1.6e308 / 2 + 1.7e308 / 2


def test_unknown_keys_ignored():
    s = snippet_from_obj(
        {"id": "a", "channel": "ocr", "text": "x", "t_start": 1, "t_end": 2, "extra": 42}
    )
    assert s.channel is Channel.OCR


@pytest.mark.parametrize(
    "obj",
    [
        {"id": "a", "channel": "asr", "text": "x", "t_start": 1},
        {"id": "a", "channel": "nope", "text": "x", "t_start": 1, "t_end": 2},
        {"id": 1, "channel": "asr", "text": "x", "t_start": 1, "t_end": 2},
        {"id": "a", "channel": "asr", "text": "x", "t_start": "one", "t_end": 2},
        ["not", "an", "object"],
        {"id": "a", "channel": "asr", "text": "x", "t_start": True, "t_end": "2.5"},
        {"id": "a", "channel": "asr", "text": "x", "t_start": 1, "t_end": "2.5"},
        {"id": "a", "channel": "asr", "text": "x", "t_start": False, "t_end": 2},
        {"id": "a", "channel": "asr", "text": "x", "t_start": 1, "t_end": math.nan},
        {"id": "a", "channel": "asr", "text": "x", "t_start": 1, "t_end": 10**400},
    ],
)
def test_malformed_objects_rejected(obj):
    with pytest.raises(DataError):
        snippet_from_obj(obj)
