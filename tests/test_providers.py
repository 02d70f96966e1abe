import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings

from temporag import prompts, providers
from temporag.errors import DataError, ProviderUnavailableError, TemporagError
from temporag.ingest import DetectedObject, DetectionRecord
from temporag.providers import (
    FixtureDetector,
    HttpDetector,
    HttpEmbeddingClient,
    HttpLvlmClient,
    StubDetector,
    StubLvlm,
)
from temporag.types import FrameRecord

from conftest import MUTATIONS, detection_columns, mutate_bytes


class TestStubLvlmDecouple:
    def run(self, question):
        stub = StubLvlm()
        return json.loads(stub.complete(prompts.SYSTEM_PROMPT, prompts.decouple_prompt(question)))

    def test_sign_question_routes_to_ocr_and_det(self):
        assert self.run("What does the sign say?") == {"asr": None, "ocr": "sign", "det": "sign"}

    def test_speech_question_routes_to_asr(self):
        out = self.run("What did the narrator mention about the bridge?")
        assert out["asr"] is not None and "bridge" in out["asr"]
        assert out["ocr"] is None

    def test_object_question_routes_to_det_only(self):
        out = self.run("How many dogs run across the park?")
        assert out == {"asr": None, "ocr": None, "det": "many dogs run across park"}

    def test_contentless_question_gives_all_null(self):
        assert self.run("What is this about?") == {"asr": None, "ocr": None, "det": None}

    def test_deterministic(self):
        assert self.run("What does the sign say?") == self.run("What does the sign say?")


class TestStubLvlmAugment:
    def test_shape_and_determinism(self):
        stub = StubLvlm()
        out = stub.complete(prompts.SYSTEM_PROMPT, prompts.augment_prompt("Where is the ferry dock?"))
        lines = out.splitlines()
        assert lines[0].startswith("Background:")
        assert lines[1].startswith("1. ") and lines[2].startswith("2. ")
        assert out == stub.complete(
            prompts.SYSTEM_PROMPT, prompts.augment_prompt("Where is the ferry dock?")
        )


class TestStubLvlmAnswer:
    def test_quotes_question_and_evidence(self):
        bundle_text = (
            "### SCENE GRAPH\n(none)\n### ASR EVIDENCE\n- [t=1.0s] hello there\n"
            "### OCR EVIDENCE\n(none)\n### BACKGROUND CONTEXT\n(none)\n"
            "### QUESTION\nWhat was said?\n### REPHRASINGS\n(none)"
        )
        out = StubLvlm().complete(prompts.SYSTEM_PROMPT, prompts.answer_prompt(bundle_text))
        assert "What was said?" in out
        assert "hello there" in out

    def test_identical_bundles_identical_answers(self):
        stub = StubLvlm()
        p = prompts.answer_prompt("### QUESTION\nq\n")
        assert stub.complete("s", p) == stub.complete("s", p)


class TestHttpClients:
    @pytest.fixture(autouse=True)
    def no_provider_env(self, monkeypatch):
        for name in ("LVLM_URL", "LVLM_KEY", "LVLM_MODEL", "EMBED_URL", "EMBED_TOKEN",
                     "DETECT_URL"):
            monkeypatch.delenv(f"TEMPORAG_{name}", raising=False)

    def test_embed_wire_format(self, provider_server, monkeypatch):
        server, url = provider_server
        monkeypatch.setenv("TEMPORAG_EMBED_TOKEN", "tok")
        vectors = HttpEmbeddingClient(base_url=url).embed(["ab", "xyz"])
        assert isinstance(vectors, np.ndarray)
        assert vectors.shape == (2, 8)
        # The server's vectors are [len(text) + 1, 1, ..., 1]; the client scales each to unit norm.
        raw = np.array([[3.0] + [1.0] * 7, [4.0] + [1.0] * 7])
        np.testing.assert_array_equal(vectors, raw / np.sqrt((raw * raw).sum(axis=1))[:, None])
        assert server.last_request["path"] == "/embed"
        assert server.last_request["payload"] == {"texts": ["ab", "xyz"]}
        assert server.last_request["auth"] == "Bearer tok"

    def test_embed_env_config(self, provider_server, monkeypatch):
        _, url = provider_server
        monkeypatch.setenv("TEMPORAG_EMBED_URL", url)
        client = HttpEmbeddingClient()
        assert client.base_url == url
        assert len(client.embed(["x"])) == 1

    def test_embed_empty_input_no_call(self, provider_server, monkeypatch):
        _, url = provider_server
        monkeypatch.setattr(providers.HttpClient, "post", None)  # a call would fail
        assert HttpEmbeddingClient(base_url=url).embed([]).shape == (0, 0)

    def test_detector_wire_format(self, provider_server, monkeypatch):
        server, url = provider_server
        monkeypatch.setenv("TEMPORAG_LVLM_KEY", "k")  # another client's token is not sent
        monkeypatch.setenv("TEMPORAG_EMBED_TOKEN", "tok")
        frames = [FrameRecord(frame_index=4, t=1.0), FrameRecord(frame_index=9, t=2.0)]
        out = HttpDetector(base_url=url).detect(frames)
        assert server.last_request["path"] == "/detect"
        assert server.last_request["payload"] == {"frame_ids": [4, 9]}
        assert server.last_request["auth"] is None
        assert [o.label for per in out for o in per] == ["obj4", "obj9"]

    def test_lvlm_wire_format(self, provider_server, monkeypatch):
        server, url = provider_server
        monkeypatch.setenv("TEMPORAG_LVLM_KEY", "k")
        monkeypatch.setenv("TEMPORAG_LVLM_MODEL", "m")
        out = HttpLvlmClient(base_url=url).complete("sys", "user text")
        assert out == f"echo:{len('user text')}"
        assert server.last_request["path"] == "/chat/completions"
        assert server.last_request["auth"] == "Bearer k"
        assert server.last_request["payload"] == {
            "model": "m",
            "messages": [
                {"role": "system", "content": "sys"},
                {"role": "user", "content": "user text"},
            ],
            "temperature": 0.0,
            "max_tokens": 512,
        }

    @pytest.mark.parametrize(
        "call",
        [lambda url: HttpLvlmClient(base_url=url).complete("sys", "user"),
         lambda url: HttpEmbeddingClient(base_url=url).embed(["x"])],
        ids=["lvlm", "embed"],
    )
    def test_no_token_variable_sends_no_authorization(self, provider_server, call):
        server, url = provider_server
        call(url)
        assert server.last_request["auth"] is None

    def test_lvlm_model_defaults_to_default(self, provider_server):
        server, url = provider_server
        HttpLvlmClient(base_url=url).complete("sys", "user")
        assert server.last_request["payload"]["model"] == "default"

    def test_settings_read_once_at_construction(self, provider_server, monkeypatch):
        server, url = provider_server
        monkeypatch.setenv("TEMPORAG_LVLM_KEY", "k")
        monkeypatch.setenv("TEMPORAG_LVLM_MODEL", "m")
        client = HttpLvlmClient(base_url=url)
        monkeypatch.setenv("TEMPORAG_LVLM_KEY", "k2")
        monkeypatch.setenv("TEMPORAG_LVLM_MODEL", "m2")
        client.complete("sys", "user")
        assert server.last_request["auth"] == "Bearer k"
        assert server.last_request["payload"]["model"] == "m"

    def test_configured_url_wins_over_the_variable(self, provider_server, monkeypatch):
        server, url = provider_server
        monkeypatch.setenv("TEMPORAG_DETECT_URL", "http://127.0.0.1:9")
        HttpDetector(base_url=f"{url}/").detect(_frames(1))
        assert server.last_request["path"] == "/detect"

    def test_missing_env_is_permanent_error(self):
        with pytest.raises(ProviderUnavailableError, match="TEMPORAG_LVLM_URL not set"):
            HttpLvlmClient()

    def test_connection_refused_is_retriable(self):
        client = HttpEmbeddingClient(base_url="http://127.0.0.1:9")
        with pytest.raises(ProviderUnavailableError, match="cannot reach"):
            client.embed(["x"])

    def test_server_error_is_retriable(self, provider_server):
        _, url = provider_server
        with pytest.raises(ProviderUnavailableError, match="returned 500"):
            HttpDetector(base_url=url).post("fail500", {})

    def test_not_found_is_permanent(self, provider_server):
        _, url = provider_server
        with pytest.raises(ProviderUnavailableError, match="returned 404"):
            HttpDetector(base_url=url).post("nope", {})


class TestMalformedResponses:
    """A provider body that parses as JSON but breaks the wire format is a provider error."""

    @pytest.fixture(autouse=True)
    def body(self, monkeypatch, request):
        monkeypatch.setattr(providers.HttpClient, "post", lambda *args: request.param)

    @pytest.mark.parametrize(
        "body",
        [{"choices": [{"message": {"content": None}}]},
         {"choices": [{"message": {"content": 5}}]},
         {"choices": [{"message": {"content": ["a"]}}]},
         {"choices": []},
         "text"],
        ids=["null", "int", "list", "no_choice", "string_body"],
        indirect=True,
    )
    def test_lvlm_content_not_a_string(self, body):
        with pytest.raises(ProviderUnavailableError, match="malformed chat completion"):
            HttpLvlmClient(base_url="http://unused").complete("sys", "user")

    @pytest.mark.parametrize(
        "body",
        [{"vectors": [["x", 1.0]]},
         {"vectors": [[[1.0, 2.0]]]},
         {"vectors": [1.0]},
         {"vectors": [None]},
         {"vectors": 5},
         {}],
        ids=["non_numeric", "2d", "scalar", "null", "not_a_list", "no_vectors"],
        indirect=True,
    )
    def test_embed_vector_not_1d_numbers(self, body):
        with pytest.raises(ProviderUnavailableError, match="malformed embed response"):
            HttpEmbeddingClient(base_url="http://unused").embed(["a"])

    @pytest.mark.parametrize(
        "body, problem",
        [({"vectors": [[0.0, 0.0], [1.0, 2.0]]}, "a vector has a zero, NaN or infinite norm"),
         ({"vectors": [[math.nan, 1.0], [1.0, 2.0]]}, "a vector has a zero, NaN or infinite norm"),
         ({"vectors": [[1.0, 2.0], [-math.inf, 1.0]]}, "a vector has a zero, NaN or infinite norm"),
         ({"vectors": [[1e200, 1.0], [1.0, 2.0]]}, "a vector has a zero, NaN or infinite norm"),
         ({"vectors": [[], []]}, "vectors of shape (2, 0) for 2 texts"),
         ({"vectors": [[1.0, 2.0], [1.0, 2.0, 3.0]]}, "setting an array element with a sequence"),
         ({"vectors": [[1.0, 2.0], 3.0]}, "setting an array element with a sequence"),
         ({"vectors": [[10**400, 1.0], [1.0, 2.0]]}, "int too large to convert to float"),
         ({"vectors": [[True, False, 2.0], [1.0, 2.0, 3.0]]}, "a vector entry is not a number"),
         ({"vectors": [[1.0, 2.0], ["1.5", 2.0]]}, "a vector entry is not a number")],
        ids=["zero", "nan", "inf", "norm_overflows", "empty", "ragged", "ragged_scalar",
             "int_past_float", "bool_entries", "numeric_string_entry"],
        indirect=["body"],
    )
    def test_embed_vectors_not_unit_normalizable(self, body, problem):
        with pytest.raises(ProviderUnavailableError) as info:
            HttpEmbeddingClient(base_url="http://unused").embed(["a", "b"])
        assert str(info.value).startswith(f"malformed embed response ({problem}")

    @pytest.mark.parametrize(
        "body",
        [{"detections": [[{"label": "a", "box": [0.5, 0.1, 0.2, 0.9], "confidence": 0.9}]]},
         {"detections": [[{"label": 5, "box": [0.1, 0.1, 0.5, 0.5], "confidence": 0.5}]]},
         {"detections": [[{"label": "a", "box": [0.1, 0.1, 0.5], "confidence": 0.5}]]},
         {"detections": [[{"label": "a", "box": [0.1, 0.1, 0.5, 0.5], "confidence": "x"}]]},
         {"detections": [[{"label": "a", "box": ["0.1", False, True, "0.5"],
                           "confidence": "0.9"}]]},
         {"detections": [[{"label": "a", "box": [0.1, 0.1, 0.5, 0.5], "confidence": True}]]},
         {"detections": [5]},
         {"detections": "a"},
         {}],
        ids=["inverted_box", "int_label", "three_coords", "str_confidence", "strs_and_bools",
             "bool_confidence", "int_frame", "string", "no_detections"],
        indirect=True,
    )
    def test_detect_bad_object(self, body):
        with pytest.raises(ProviderUnavailableError, match="malformed detect response"):
            HttpDetector(base_url="http://unused").detect(_frames(1))

    @pytest.mark.parametrize("body", [{"detections": [[]]}], ids=["one_result"], indirect=True)
    def test_detect_result_count_differs(self, body):
        with pytest.raises(ProviderUnavailableError, match="detect returned 1 results for 2"):
            HttpDetector(base_url="http://unused").detect(_frames(1, 2))


def test_stub_detector_examples():
    frames = [FrameRecord(frame_index=i, t=float(i)) for i in range(4)]
    out = StubDetector().detect(frames)
    assert [len(per) for per in out] == [0, 1, 2, 0]
    for per in out:
        for obj in per:
            x1, y1, x2, y2 = obj.box
            assert 0.0 <= x1 < x2 <= 1.0 and 0.0 <= y1 < y2 <= 1.0


def _obj(label, confidence=0.5, box=(0.1, 0.2, 0.3, 0.4)):
    return DetectedObject(label=label, box=box, confidence=confidence)


DETECTIONS = [
    DetectionRecord(7, 7.0, (_obj("cat", 0.9), _obj("dög", 0.25, (0.0, 0.0, 1.0, 1.0)))),
    DetectionRecord(2, 2.0, ()),
    DetectionRecord(5, 5.0, (_obj("old"),)),
    DetectionRecord(5, 5.5, (_obj("new"),)),
]


def _frames(*indices):
    return [FrameRecord(frame_index=i, t=float(i)) for i in indices]


class TestFixtureDetector:
    def test_echoes_last_record_per_frame(self):
        detector = FixtureDetector.from_columns(detection_columns(DETECTIONS))
        assert detector.detect(_frames(7, 5, 2, 3)) == [
            list(DETECTIONS[0].objects), [_obj("new")], [], []
        ]

    def test_table_round_trip(self, tmp_path):
        path = tmp_path / "detections.tbl"
        built = FixtureDetector.from_columns(detection_columns(DETECTIONS))
        built.save(str(path))
        keyframes = _frames(0, 2, 5, 7, 9)
        assert FixtureDetector.load(str(path)).detect(keyframes) == built.detect(keyframes)

    def test_builds_objects_only_for_requested_frames(self, tmp_path, monkeypatch):
        path = tmp_path / "detections.tbl"
        FixtureDetector.from_columns(detection_columns(DETECTIONS)).save(str(path))
        detector = FixtureDetector.load(str(path))
        built = []

        class CountingObject(DetectedObject):
            def __post_init__(self):
                built.append(self.label)
                super().__post_init__()

        monkeypatch.setattr(providers, "DetectedObject", CountingObject)
        detector.detect(_frames(5, 3))
        assert built == ["new"]

    @pytest.mark.parametrize(
        "column, value, problem",
        [
            ("box", [0.5, 0.1, 0.2, 0.9], "box outside"),
            ("box", [0.1, 0.1, 0.2, 1.5], "box outside"),
            ("box", [math.nan, 0.1, 0.2, 0.3], "box outside"),
            ("confidence", 1.5, "confidence outside"),
            ("confidence", math.nan, "confidence outside"),
            ("labels", "", "empty label"),
            ("frame_index", 7, "frame indices not unique and sorted"),
        ],
        ids=["x_inverted", "y2_past_1", "x1_nan", "confidence_past_1", "confidence_nan",
             "empty_label", "frame_index_unsorted"],
    )
    def test_bad_table_rejected(self, tmp_path, column, value, problem):
        detector = FixtureDetector.from_columns(detection_columns(DETECTIONS))
        getattr(detector, column)[0] = value
        path = tmp_path / "detections.tbl"
        detector.save(str(path))
        with pytest.raises(DataError, match=f"{re.escape(str(path))}: .*{problem}"):
            FixtureDetector.load(str(path))


@pytest.fixture(scope="module")
def detection_table_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("detection_table_fuzz")
    FixtureDetector.from_columns(detection_columns(DETECTIONS)).save(str(path / "clean.tbl"))
    return path


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(mutations=MUTATIONS)
def test_mutated_file_loads_or_raises_temporag_error(detection_table_dir, mutations):
    path = detection_table_dir / "mutated.tbl"
    path.write_bytes(mutate_bytes((detection_table_dir / "clean.tbl").read_bytes(), mutations))
    try:
        detector = FixtureDetector.load(str(path))
    except TemporagError:
        return
    keyframes = _frames(*detector.frame_index.tolist(), 3)
    assert len(detector.detect(keyframes)) == len(keyframes)
