import json
import math

import pytest
from hypothesis import given, strategies as st

from temporag.errors import (
    DataError,
    EmptyTextError,
    InvertedIntervalError,
    MissingFpsError,
    TimeOutOfRangeError,
)
from temporag.types import (
    Channel,
    Snippet,
    VideoRecord,
    frame_time,
    snippet_from_obj,
    snippet_to_json,
    validate_snippet,
)

VIDEO = VideoRecord(video_id="v", duration_s=10.0, fps=2.0)


def snip(text="hello", t_start=1.0, t_end=3.0, channel=Channel.ASR):
    return Snippet(id="s1", channel=channel, text=text, t_start=t_start, t_end=t_end)


class TestValidateSnippet:
    def test_midpoint(self):
        s = validate_snippet(snip(), VIDEO)
        assert s.t_mid == 2.0

    def test_empty_text(self):
        with pytest.raises(EmptyTextError):
            validate_snippet(snip(text="  "), VIDEO)

    def test_inverted_interval(self):
        with pytest.raises(InvertedIntervalError):
            validate_snippet(snip(t_start=5.0, t_end=2.0), VIDEO)

    def test_time_out_of_range(self):
        with pytest.raises(TimeOutOfRangeError):
            validate_snippet(snip(t_start=5.0, t_end=11.0), VIDEO)
        with pytest.raises(TimeOutOfRangeError):
            validate_snippet(snip(t_start=-0.1, t_end=1.0), VIDEO)

    def test_text_is_trimmed(self):
        s = validate_snippet(snip(text="  hi  "), VIDEO)
        assert s.text == "hi"


class TestFrameTime:
    def test_zero(self):
        assert frame_time(0, VIDEO) == 0.0

    def test_direct_division(self):
        assert frame_time(4, VIDEO) == 2.0

    def test_clamped_to_duration(self):
        assert frame_time(100, VIDEO) == 10.0

    def test_missing_fps(self):
        with pytest.raises(MissingFpsError):
            frame_time(1, VideoRecord(video_id="v", duration_s=5.0))


class TestVideoRecord:
    @pytest.mark.parametrize("duration", [0.0, -1.0, math.inf, math.nan])
    def test_bad_duration(self, duration):
        with pytest.raises(DataError):
            VideoRecord(video_id="v", duration_s=duration)

    def test_empty_id(self):
        with pytest.raises(DataError):
            VideoRecord(video_id="", duration_s=1.0)


class TestChannel:
    def test_exact_members(self):
        assert {c.value for c in Channel} == {"asr", "ocr"}

    @pytest.mark.parametrize("tag", ["ASR", "subtitles", "", "audio"])
    def test_unknown_tag_is_error(self, tag):
        with pytest.raises(DataError):
            Channel.parse(tag)


finite_time = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


@given(
    sid=st.text(min_size=1, max_size=20),
    channel=st.sampled_from(list(Channel)),
    text=st.text(min_size=1, max_size=80).filter(lambda s: s.strip()),
    t_start=finite_time,
    delta=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)
def test_jsonl_round_trip_is_identity(sid, channel, text, t_start, delta):
    original = Snippet(id=sid, channel=channel, text=text, t_start=t_start, t_end=t_start + delta)
    recovered = snippet_from_obj(json.loads(snippet_to_json(original)))
    assert recovered == original


@given(t_start=finite_time, delta=st.floats(min_value=0.0, max_value=1e3, allow_nan=False))
def test_t_mid_is_arithmetic_mean(t_start, delta):
    s = snip(t_start=t_start, t_end=t_start + delta)
    assert abs(s.t_mid - (s.t_start + s.t_end) / 2.0) <= 1e-12


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
    ],
)
def test_malformed_objects_rejected(obj):
    with pytest.raises(DataError):
        snippet_from_obj(obj)
