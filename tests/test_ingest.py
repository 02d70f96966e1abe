import pytest
from hypothesis import given, strategies as st

from temporag.errors import (
    DataError,
    EmptyFileError,
    InvalidBoxError,
    MalformedTimestampError,
    MissingHeaderError,
    NoValidLinesError,
)
from temporag.ingest import (
    DetectedObject,
    DetectionRecord,
    parse_detections_jsonl,
    parse_snippet_jsonl,
    parse_srt,
    parse_vtt,
    serialize_scene_graph,
)
from temporag.types import Channel, VideoRecord, validate_snippet

SRT_ONE_CUE = b"""1
00:00:01,500 --> 00:00:03,000
hello
"""

VTT_ONE_CUE = b"""WEBVTT

00:00:01.500 --> 00:00:03.000
hello
"""


class TestParseSrt:
    def test_single_cue(self):
        (s,) = parse_srt(SRT_ONE_CUE)
        assert (s.t_start, s.t_end, s.text, s.channel) == (1.5, 3.0, "hello", Channel.ASR)

    def test_multiline_text_joined_with_space(self):
        data = b"1\n00:00:01,000 --> 00:00:02,000\nfirst line\nsecond line\n"
        (s,) = parse_srt(data)
        assert s.text == "first line second line"

    def test_seconds_field_over_59_rejected(self):
        data = b"1\n00:00:99,000 --> 00:01:40,000\nx\n"
        with pytest.raises(MalformedTimestampError):
            parse_srt(data)

    def test_error_carries_line_number(self):
        data = b"1\n00:00:01,000 --> 00:00:02,000\nok\n\n2\nbogus --> 00:00:05,000\nx\n"
        with pytest.raises(MalformedTimestampError) as exc:
            parse_srt(data)
        assert exc.value.line_no == 6

    def test_inverted_cue_rejected(self):
        data = b"1\n00:00:05,000 --> 00:00:02,000\nx\n"
        with pytest.raises(MalformedTimestampError):
            parse_srt(data)

    def test_empty_file(self):
        with pytest.raises(EmptyFileError):
            parse_srt(b"")
        with pytest.raises(EmptyFileError):
            parse_srt(b"\n\n   \n")

    def test_bom_tolerated(self):
        (s,) = parse_srt(b"\xef\xbb\xbf" + SRT_ONE_CUE)
        assert s.text == "hello"

    def test_hours_beyond_two_digits(self):
        data = b"1\n100:00:01,000 --> 100:00:02,000\nlong video\n"
        (s,) = parse_srt(data)
        assert s.t_start == 360001.0


class TestParseVtt:
    def test_single_cue(self):
        (s,) = parse_vtt(VTT_ONE_CUE)
        assert (s.t_start, s.t_end, s.text) == (1.5, 3.0, "hello")

    def test_missing_header(self):
        with pytest.raises(MissingHeaderError):
            parse_vtt(b"00:00:01.000 --> 00:00:02.000\nx\n")

    def test_note_and_style_blocks_skipped(self):
        data = b"WEBVTT\n\nNOTE a comment\nspanning lines\n\nSTYLE\n::cue { color: red }\n\n00:00:01.000 --> 00:00:02.000\nx\n"
        (s,) = parse_vtt(data)
        assert s.text == "x"

    def test_cue_identifier_tolerated(self):
        data = b"WEBVTT\n\nintro-cue\n00:00:01.000 --> 00:00:02.000\nx\n"
        (s,) = parse_vtt(data)
        assert s.text == "x"

    def test_hours_optional(self):
        data = b"WEBVTT\n\n01:30.250 --> 01:31.000\nx\n"
        (s,) = parse_vtt(data)
        assert s.t_start == 90.25

    def test_cue_settings_ignored(self):
        data = b"WEBVTT\n\n00:00:01.000 --> 00:00:02.000 align:start position:10%\nx\n"
        (s,) = parse_vtt(data)
        assert s.t_end == 2.0

    def test_header_with_metadata_block(self):
        data = b"WEBVTT\nKind: captions\nLanguage: en\n\n00:00:01.000 --> 00:00:02.000\nx\n"
        (s,) = parse_vtt(data)
        assert s.text == "x"


def _fmt_srt_ts(t):
    ms = round(t * 1000)
    return f"{ms // 3600000:02d}:{ms // 60000 % 60:02d}:{ms // 1000 % 60:02d},{ms % 1000:03d}"


def _fmt_vtt_ts(t):
    return _fmt_srt_ts(t).replace(",", ".")


cue_text = st.text(
    alphabet=st.characters(whitelist_categories=("L", "N"), max_codepoint=0x2FF),
    min_size=1,
    max_size=20,
).filter(lambda s: s.strip())


@given(
    cues=st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=3000, allow_nan=False),
            st.floats(min_value=0, max_value=60, allow_nan=False),
            cue_text,
        ),
        min_size=1,
        max_size=8,
    )
)
def test_srt_and_vtt_parse_equivalent_inputs_identically(cues):
    srt_blocks, vtt_blocks = [], []
    for i, (start, dur, text) in enumerate(cues, start=1):
        start = round(start, 3)
        end = round(start + dur, 3)
        srt_blocks.append(f"{i}\n{_fmt_srt_ts(start)} --> {_fmt_srt_ts(end)}\n{text}\n")
        vtt_blocks.append(f"{_fmt_vtt_ts(start)} --> {_fmt_vtt_ts(end)}\n{text}\n")
    srt = "\n".join(srt_blocks).encode()
    vtt = ("WEBVTT\n\n" + "\n".join(vtt_blocks)).encode()
    a = parse_srt(srt)
    b = parse_vtt(vtt)
    assert [(s.t_start, s.t_end, s.text) for s in a] == [(s.t_start, s.t_end, s.text) for s in b]


class TestParseOcrJsonl:
    def test_three_valid_lines(self):
        data = b"\n".join(
            b'{"id": "o%d", "channel": "ocr", "text": "t%d", "t_start": 1, "t_end": 1}' % (i, i)
            for i in range(3)
        )
        report = parse_snippet_jsonl(data, expect_channel=Channel.OCR)
        assert len(report.snippets) == 3 and not report.errors

    def test_partial_tolerance(self):
        data = (
            b'{"id": "a", "channel": "ocr", "text": "x", "t_start": 1, "t_end": 1}\n'
            b"{not json}\n"
            b'{"id": "b", "channel": "ocr", "text": "y", "t_start": 2, "t_end": 2}\n'
        )
        report = parse_snippet_jsonl(data, expect_channel=Channel.OCR)
        assert len(report.snippets) == 2
        assert len(report.errors) == 1
        assert report.errors[0][0] == 2

    def test_channel_mismatch_is_line_error(self):
        data = b'{"id": "a", "channel": "asr", "text": "x", "t_start": 1, "t_end": 1}\n' \
               b'{"id": "b", "channel": "ocr", "text": "y", "t_start": 1, "t_end": 1}\n'
        report = parse_snippet_jsonl(data, expect_channel=Channel.OCR)
        assert len(report.snippets) == 1
        assert "mismatch" in report.errors[0][1]

    def test_empty_text_dropped_with_count(self):
        data = b'{"id": "a", "channel": "ocr", "text": "  ", "t_start": 1, "t_end": 1}\n' \
               b'{"id": "b", "channel": "ocr", "text": "y", "t_start": 1, "t_end": 1}\n'
        report = parse_snippet_jsonl(data, expect_channel=Channel.OCR)
        assert report.dropped_empty == 1
        assert [s.id for s in report.snippets] == ["b"]

    def test_all_lines_failing_rejects_file(self):
        with pytest.raises(NoValidLinesError):
            parse_snippet_jsonl(b"junk\nmore junk\n", expect_channel=Channel.OCR)


class TestDetections:
    def test_round_trip(self):
        data = b'{"frame_index": 3, "t": 12.0, "objects": [{"label": "cat", "box": [0.1, 0.2, 0.5, 0.9], "confidence": 0.7}]}\n'
        records, errors = parse_detections_jsonl(data)
        assert not errors
        assert records[0].frame_index == 3
        assert records[0].objects[0].label == "cat"

    def test_invalid_box(self):
        with pytest.raises(InvalidBoxError):
            DetectedObject(label="x", box=(0.5, 0.1, 0.2, 0.9), confidence=0.5)
        with pytest.raises(InvalidBoxError):
            DetectedObject(label="x", box=(0.1, 0.1, 0.2, 1.5), confidence=0.5)

    def test_bad_confidence(self):
        with pytest.raises(DataError):
            DetectedObject(label="x", box=(0.1, 0.1, 0.2, 0.9), confidence=1.5)


class TestSceneGraph:
    def test_single_record_format(self):
        rec = DetectionRecord(
            frame_index=0,
            t=12.3,
            objects=(DetectedObject(label="person", box=(0.31, 0.42, 0.55, 0.88), confidence=0.9),),
        )
        sg = serialize_scene_graph([rec])
        assert sg.lines == ("t=12.3s: person(0.310,0.420,0.550,0.880)[c=0.900]",)

    def test_empty_objects(self):
        rec = DetectionRecord(frame_index=0, t=5.0, objects=())
        assert serialize_scene_graph([rec]).lines == ("t=5.0s: (none)",)

    def test_confidence_descending_order(self):
        rec = DetectionRecord(
            frame_index=0,
            t=1.0,
            objects=(
                DetectedObject(label="low", box=(0.1, 0.1, 0.2, 0.2), confidence=0.5),
                DetectedObject(label="high", box=(0.1, 0.1, 0.2, 0.2), confidence=0.9),
            ),
        )
        line = serialize_scene_graph([rec]).lines[0]
        assert line.index("high") < line.index("low")

    def test_chronological_and_deterministic(self):
        records = [
            DetectionRecord(frame_index=1, t=9.0, objects=()),
            DetectionRecord(frame_index=0, t=2.0, objects=()),
        ]
        a = serialize_scene_graph(records)
        b = serialize_scene_graph(list(reversed(records)))
        assert a == b
        assert a.lines[0].startswith("t=2.0s")


@given(
    starts=st.lists(st.floats(min_value=0, max_value=500, allow_nan=False), min_size=1, max_size=6),
)
def test_parsed_snippets_revalidate(starts):
    video = VideoRecord(video_id="v", duration_s=4000.0)
    blocks = [
        f"{i}\n{_fmt_srt_ts(round(t, 3))} --> {_fmt_srt_ts(round(t, 3) + 1)}\ncue {i}\n"
        for i, t in enumerate(starts, start=1)
    ]
    for snippet in parse_srt("\n".join(blocks).encode()):
        validated = validate_snippet(snippet, video)
        assert validated.t_start <= validated.t_end
