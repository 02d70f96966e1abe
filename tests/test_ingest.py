import json

import pytest
from hypothesis import given, strategies as st

from temporag.errors import DataError
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
        with pytest.raises(DataError, match="^line 2: bad timestamp '00:00:99,000'$"):
            parse_srt(data)

    def test_error_carries_line_number(self):
        data = b"1\n00:00:01,000 --> 00:00:02,000\nok\n\n2\nbogus --> 00:00:05,000\nx\n"
        with pytest.raises(DataError, match="^line 6: "):
            parse_srt(data)

    def test_inverted_cue_rejected(self):
        data = b"1\n00:00:05,000 --> 00:00:02,000\nx\n"
        with pytest.raises(DataError, match="^line 2: cue ends before it starts: "):
            parse_srt(data)

    def test_empty_file(self):
        with pytest.raises(DataError, match="^no SRT cues found$"):
            parse_srt(b"")
        with pytest.raises(DataError, match="^no SRT cues found$"):
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
        with pytest.raises(DataError, match="^file does not start with WEBVTT$"):
            parse_vtt(b"00:00:01.000 --> 00:00:02.000\nx\n")

    def test_header_only(self):
        with pytest.raises(DataError, match="^no WebVTT cues found$"):
            parse_vtt(b"WEBVTT\n")

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

    @pytest.mark.parametrize("sep", ["\t", " \t"], ids=["tab", "space_tab"])
    def test_tab_before_cue_settings(self, sep):
        data = f"WEBVTT\n\n00:01.000 --> 00:02.000{sep}align:start\nx\n"
        (s,) = parse_vtt(data.encode())
        assert (s.t_start, s.t_end) == (1.0, 2.0)

    def test_empty_end_timestamp_is_bad_timestamp(self):
        with pytest.raises(DataError, match="^line 3: bad timestamp ''$"):
            parse_vtt(b"WEBVTT\n\n00:01.000 -->  \nx\n")

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
        report = parse_snippet_jsonl(data)
        assert len(report.snippets) == 3 and not report.errors

    def test_partial_tolerance(self):
        data = (
            b'{"id": "a", "channel": "ocr", "text": "x", "t_start": 1, "t_end": 1}\n'
            b"{not json}\n"
            b'{"id": "b", "channel": "ocr", "text": "y", "t_start": 2, "t_end": 2}\n'
        )
        report = parse_snippet_jsonl(data)
        assert len(report.snippets) == 2
        assert len(report.errors) == 1
        assert report.errors[0][0] == 2

    def test_empty_text_dropped_with_count(self):
        data = b'{"id": "a", "channel": "ocr", "text": "  ", "t_start": 1, "t_end": 1}\n' \
               b'{"id": "b", "channel": "ocr", "text": "y", "t_start": 1, "t_end": 1}\n'
        report = parse_snippet_jsonl(data)
        assert report.dropped_empty == 1
        assert [s.id for s in report.snippets] == ["b"]

    def test_all_lines_failing_rejects_file(self):
        with pytest.raises(DataError, match="all 2 lines failed to parse"):
            parse_snippet_jsonl(b"junk\n\nmore junk\n")

    def test_errors_and_drops_in_line_order(self):
        data = (
            b"\n"
            b'{"id": "a", "channel": "det", "text": "x", "t_start": 1, "t_end": 1}\n'
            b"{bad\n"
            b'{"id": "b", "channel": "ocr", "text": " ", "t_start": 1, "t_end": 1}\n'
            b'{"id": "c", "channel": "asr", "text": "y", "t_start": 1, "t_end": 1}\n'
        )
        report = parse_snippet_jsonl(data)
        assert [(s.id, s.channel) for s in report.snippets] == [("c", Channel.ASR)]
        assert report.dropped_empty == 1
        assert [line_no for line_no, _ in report.errors] == [2, 3]
        assert report.errors[0][1] == "unknown channel tag 'det'"

    def test_failures_beside_empty_text_keep_the_file(self):
        data = b'junk\n{"id": "a", "channel": "ocr", "text": "", "t_start": 1, "t_end": 1}\n'
        report = parse_snippet_jsonl(data)
        assert (report.snippets, report.dropped_empty, len(report.errors)) == ([], 1, 1)


class TestDetections:
    def test_round_trip(self):
        data = b'{"frame_index": 3, "t": 12.0, "objects": [{"label": "cat", "box": [0.1, 0.2, 0.5, 0.9], "confidence": 0.7}]}\n'
        records, errors = parse_detections_jsonl(data)
        assert not errors
        assert records[0].frame_index == 3
        assert records[0].objects[0].label == "cat"

    @pytest.mark.parametrize("frame_index", [-1, 2**32])
    def test_frame_index_outside_u32_is_line_error(self, frame_index):
        data = (
            b'{"frame_index": 3, "t": 12.0, "objects": []}\n'
            + json.dumps({"frame_index": frame_index, "t": 1.0, "objects": []}).encode()
        )
        records, errors = parse_detections_jsonl(data)
        assert [r.frame_index for r in records] == [3]
        assert errors == [
            (2, f"frame_index must be an integer within [0, 2**32), got {frame_index}")
        ]

    @pytest.mark.parametrize(
        "frame_index, t, message",
        [
            (3.7, 1.0, "frame_index must be an integer within [0, 2**32), got 3.7"),
            (True, 1.0, "frame_index must be an integer within [0, 2**32), got True"),
            (None, 1.0, "frame_index must be an integer within [0, 2**32), got None"),
            (1, "nan", "t must be a number, got 'nan'"),
            (1, True, "t must be a number, got True"),
            (1, None, "t must be a number, got None"),
            (1, float("nan"), "time nan outside [0, inf]"),
            (1, float("inf"), "time inf outside [0, inf]"),
            (1, -0.5, "time -0.5 outside [0, inf]"),
            (1, 10**400, "outside [0, inf]"),
        ],
        ids=["index_float", "index_bool", "index_missing", "t_str", "t_bool", "t_missing",
             "t_nan", "t_inf", "t_negative", "t_past_float"],
    )
    def test_bad_frame_index_or_time_is_line_error(self, frame_index, t, message):
        data = (
            b'{"frame_index": 3, "t": 12.0, "objects": []}\n'
            + json.dumps({"frame_index": frame_index, "t": t, "objects": []}).encode()
        )
        records, errors = parse_detections_jsonl(data)
        assert [r.frame_index for r in records] == [3]
        assert len(errors) == 1 and errors[0][0] == 2
        assert errors[0][1].endswith(message)

    @pytest.mark.parametrize("label", [5, "", None, ["a"], True],
                             ids=["int", "empty", "null", "list", "bool"])
    def test_label_not_a_non_empty_string_is_line_error(self, label):
        obj = {"label": label, "box": [0.1, 0.1, 0.5, 0.5], "confidence": 0.5}
        data = (
            b'{"frame_index": 3, "t": 12.0, "objects": []}\n'
            + json.dumps({"frame_index": 4, "t": 1.0, "objects": [obj]}).encode()
        )
        records, errors = parse_detections_jsonl(data)
        assert [r.frame_index for r in records] == [3]
        assert errors == [(2, f"detection label must be a non-empty string, got {label!r}")]

    @pytest.mark.parametrize(
        "box, confidence",
        [
            (["0.1", False, True, "0.5"], "0.9"),
            ([0.1, 0.1, 0.5, 0.5], "0.9"),
            ([0.1, 0.1, True, 0.5], 0.9),
            ([0.1, 0.1, 0.5, 0.5], True),
            ([0.1, 0.1, 0.5, float("nan")], 0.5),
            ("0.1 0.1 0.5 0.5", 0.5),
        ],
        ids=["strs_and_bools", "str_confidence", "bool_coord", "bool_confidence", "nan_coord",
             "str_box"],
    )
    def test_box_or_confidence_not_numbers_is_line_error(self, box, confidence):
        obj = {"label": "a", "box": box, "confidence": confidence}
        data = (
            b'{"frame_index": 3, "t": 12.0, "objects": []}\n'
            + json.dumps({"frame_index": 4, "t": 1.0, "objects": [obj]}).encode()
        )
        records, errors = parse_detections_jsonl(data)
        assert [r.frame_index for r in records] == [3]
        assert errors == [(2, f"bad detection object: {obj!r}")]

    def test_invalid_box(self):
        with pytest.raises(DataError, match=r"^box \(0.5, 0.1, 0.2, 0.9\) violates "):
            DetectedObject(label="x", box=(0.5, 0.1, 0.2, 0.9), confidence=0.5)
        with pytest.raises(DataError, match=r"^box \(0.1, 0.1, 0.2, 1.5\) violates "):
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
        assert sg == ("t=12.3s: person(0.310,0.420,0.550,0.880)[c=0.900]",)

    def test_empty_objects(self):
        rec = DetectionRecord(frame_index=0, t=5.0, objects=())
        assert serialize_scene_graph([rec]) == ("t=5.0s: (none)",)

    def test_confidence_descending_order(self):
        rec = DetectionRecord(
            frame_index=0,
            t=1.0,
            objects=(
                DetectedObject(label="low", box=(0.1, 0.1, 0.2, 0.2), confidence=0.5),
                DetectedObject(label="high", box=(0.1, 0.1, 0.2, 0.2), confidence=0.9),
            ),
        )
        line = serialize_scene_graph([rec])[0]
        assert line.index("high") < line.index("low")

    def test_chronological_and_deterministic(self):
        records = [
            DetectionRecord(frame_index=1, t=9.0, objects=()),
            DetectionRecord(frame_index=0, t=2.0, objects=()),
        ]
        a = serialize_scene_graph(records)
        b = serialize_scene_graph(list(reversed(records)))
        assert a == b
        assert a[0].startswith("t=2.0s")


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


def test_a_cue_without_text_keeps_its_number_in_srt_and_vtt():
    # The second cue has a timing line and no text: it is dropped, and the
    # third cue is still asr-000003 in both formats.
    srt = b"1\n00:00:01,000 --> 00:00:02,000\nfirst\n\n2\n00:00:03,000 --> 00:00:04,000\n\n" \
          b"3\n00:00:05,000 --> 00:00:06,000\nthird\n"
    vtt = b"WEBVTT\n\n00:01.000 --> 00:02.000\nfirst\n\n00:03.000 --> 00:04.000\n\n" \
          b"00:05.000 --> 00:06.000\nthird\n"
    for snippets in (parse_srt(srt), parse_vtt(vtt)):
        assert [(s.id, s.text, s.t_start) for s in snippets] == [
            ("asr-000001", "first", 1.0), ("asr-000003", "third", 5.0)
        ]
