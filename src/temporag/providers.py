"""Provider interfaces and implementations: LVLM, object detector, embedder.

Model execution is out of scope; providers are either thin HTTP clients or
deterministic stubs. The stubs' rules are documented here so every golden
file in the test suite can be re-derived by hand.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from . import prompts
from .errors import DataError, ProviderUnavailableError
from .ingest import DetectedObject, DetectionColumns, detected_objects
from .textindex import F8, U4, tokenize
from .types import FrameRecord
from .vectorindex import unit_rows

ENV_LVLM_URL = "TEMPORAG_LVLM_URL"
ENV_LVLM_KEY = "TEMPORAG_LVLM_KEY"
ENV_LVLM_MODEL = "TEMPORAG_LVLM_MODEL"
ENV_EMBED_URL = "TEMPORAG_EMBED_URL"
ENV_EMBED_TOKEN = "TEMPORAG_EMBED_TOKEN"
ENV_DETECT_URL = "TEMPORAG_DETECT_URL"

DEFAULT_TIMEOUT_S = 30.0


class LvlmProvider(Protocol):
    def complete(self, system_prompt: str, user_prompt: str) -> str: ...


class DetectorProvider(Protocol):
    def detect(self, keyframes: Sequence[FrameRecord]) -> list[list[DetectedObject]]: ...


# --- deterministic stub LVLM ---------------------------------------------------

# Question words and glue dropped when extracting content words.
STUB_STOPWORDS = frozenset(
    """a an the is are was were be been being do does did what which who whom
    whose where when why how of in on at to for with about this that these
    those it its and or not no can could would should will shall may might
    say says said show shows shown appear appears happen happens happening
    video clip there here his her their our your my""".split()
)

# Cue words that switch a channel on. "say"/"sign" style words point at
# on-screen text; channel ASR needs an explicitly auditory cue.
OCR_CUES = frozenset(
    """say says said sign signs text written write writes read reads caption
    captions subtitle subtitles screen title titles label labels word words
    letter letters number numbers display displayed""".split()
)
SPEECH_CUES = frozenset(
    """talk talks talked speak speaks spoke spoken mention mentions mentioned
    hear hears heard voice voices conversation narrator audio music song
    tell tells told discuss discusses discussed lyric lyrics""".split()
)


def _content_words(question: str) -> list[str]:
    seen = []
    for token in tokenize(question):
        if token not in STUB_STOPWORDS and token not in seen:
            seen.append(token)
    return seen


class StubLvlm:
    """Deterministic stand-in for the LVLM, keyed on the prompt's task marker.

    Rules:

    * decoupling: content words are the question's tokens minus
      ``STUB_STOPWORDS`` (order kept, deduplicated). The ocr/asr channels
      get the joined content words when the question contains a cue word
      from ``OCR_CUES`` / ``SPEECH_CUES``, else null; det always gets the
      content words (null when there are none).
    * augmentation: a one-sentence templated context naming the content
      words, then exactly two templated rephrasings.
    * answering: quotes the question plus the first evidence line of each
      evidence section and a short digest of the full prompt, so identical
      bundles yield identical answers.
    """

    def complete(self, system_prompt: str, user_prompt: str) -> str:
        first_line = user_prompt.split("\n", 1)[0]
        if first_line == prompts.DECOUPLE_MARKER:
            return self._decouple(prompts.extract_question(user_prompt))
        if first_line == prompts.AUGMENT_MARKER:
            return self._augment(prompts.extract_question(user_prompt))
        if first_line == prompts.ANSWER_MARKER:
            return self._answer(user_prompt)
        return "stub: unrecognized task"

    @staticmethod
    def _decouple(question: str) -> str:
        tokens = set(tokenize(question))
        content = " ".join(_content_words(question))
        return json.dumps(
            {
                "asr": content if content and tokens & SPEECH_CUES else None,
                "ocr": content if content and tokens & OCR_CUES else None,
                "det": content or None,
            }
        )

    @staticmethod
    def _augment(question: str) -> str:
        content = _content_words(question)
        topic = ", ".join(content) if content else "the video"
        stripped = question.strip().rstrip("?").strip()
        stripped = stripped[:1].lower() + stripped[1:]
        return (
            f"Background: the question concerns {topic}; relevant evidence may "
            "appear anywhere in the video, so both spoken and on-screen "
            "information should be checked.\n"
            f"1. In this video, {stripped}?\n"
            f"2. According to the video, {stripped}?"
        )

    @staticmethod
    def _answer(user_prompt: str) -> str:
        question = _first_content_line(user_prompt, "### QUESTION")
        asr = _first_content_line(user_prompt, "### ASR EVIDENCE")
        ocr = _first_content_line(user_prompt, "### OCR EVIDENCE")
        digest = hashlib.sha256(user_prompt.encode("utf-8")).hexdigest()[:12]
        return (
            f"Stub answer to: {question} | top asr: {asr} | top ocr: {ocr} "
            f"| prompt digest: {digest}"
        )


def _first_content_line(text: str, header: str) -> str:
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line == header and i + 1 < len(lines):
            return lines[i + 1].strip()
    return "(none)"


# --- deterministic stub detector -------------------------------------------------

STUB_DETECTOR_VOCAB = ("person", "car", "dog", "sign", "table", "tree", "phone", "cup")


class StubDetector:
    """Emits a fixed pseudo-detection pattern from the frame index alone.

    Frame i carries ``i % 3`` objects; object j is labeled
    ``STUB_DETECTOR_VOCAB[(i + j) % 8]`` with confidence 0.9 - 0.2 * j and a
    box derived from (i, j). Stable across runs and platforms.
    """

    def detect(self, keyframes: Sequence[FrameRecord]) -> list[list[DetectedObject]]:
        out = []
        for frame in keyframes:
            i = frame.frame_index
            objects = []
            for j in range(i % 3):
                x1 = 0.1 + 0.05 * ((i + j) % 8)
                y1 = 0.1 + 0.05 * (j % 8)
                objects.append(
                    DetectedObject(
                        label=STUB_DETECTOR_VOCAB[(i + j) % len(STUB_DETECTOR_VOCAB)],
                        box=(x1, y1, x1 + 0.3, y1 + 0.4),
                        confidence=round(0.9 - 0.2 * j, 3),
                    )
                )
            out.append(objects)
        return out


@dataclass(eq=False)
class FixtureDetector:
    """Echoes stored detections, held as one table keyed by sorted frame index.

    ``from_columns`` builds the table from parsed records, and
    ``tables.load_detections`` from a file that ``tables.save_detections``
    wrote. ``detect`` finds each keyframe's row by binary search and builds
    ``DetectedObject``s for those rows only, at their first request; a
    detector asked many questions builds each row once. Concurrent calls
    need no lock: a race at worst builds a row twice.
    """

    frame_index: np.ndarray
    object_offsets: np.ndarray
    labels: Sequence[str]
    box: np.ndarray
    confidence: np.ndarray
    _rows: dict[int, list[DetectedObject]] = field(init=False, repr=False, default_factory=dict)

    @classmethod
    def from_columns(cls, records: DetectionColumns) -> "FixtureDetector":
        """The table of parsed records; a repeated ``frame_index`` keeps the last one."""
        # The last record of each frame, in frame order (not np.unique, which imports numpy.ma).
        by_frame = np.argsort(records.frame_index, kind="stable")
        keys = records.frame_index[by_frame]
        last = np.diff(keys, append=-1) != 0
        rows, keys = by_frame[last], keys[last]
        counts = records.n_objects[rows]
        starts = np.cumsum(records.n_objects) - records.n_objects
        offsets = np.concatenate([[0], np.cumsum(counts)])
        # Each kept row's objects, in key order: their positions in the record columns.
        objects = np.repeat(starts[rows] - offsets[:-1], counts) + np.arange(offsets[-1])
        return cls(
            frame_index=keys.astype(U4),
            object_offsets=offsets.astype(U4),
            labels=[records.labels[j] for j in objects.tolist()],
            box=records.box[objects].astype(F8),
            confidence=records.confidence[objects].astype(F8),
        )

    def detect(self, keyframes: Sequence[FrameRecord]) -> list[list[DetectedObject]]:
        keys = [f.frame_index for f in keyframes]
        rows = np.searchsorted(self.frame_index, keys).tolist()
        return [
            self._objects(row)
            if row < len(self.frame_index) and self.frame_index.item(row) == key
            else []
            for key, row in zip(keys, rows)
        ]

    def _objects(self, row: int) -> list[DetectedObject]:
        objects = self._rows.get(row)
        if objects is None:
            lo, hi = self.object_offsets.item(row), self.object_offsets.item(row + 1)
            objects = self._rows[row] = [
                DetectedObject(
                    label=self.labels[j],
                    box=tuple(self.box[j].tolist()),
                    confidence=self.confidence.item(j),
                )
                for j in range(lo, hi)
            ]
        return objects


# --- HTTP clients -----------------------------------------------------------------


class HttpClient:
    """One provider endpoint: a base URL, an optional bearer token and a JSON POST.

    The URL is ``base_url`` (the config's value), else the ``url_env``
    environment variable; the token is the ``token_env`` variable, sent as
    ``Authorization: Bearer ...`` when set. Both are read once, here. A
    subclass names its variables and speaks its wire format through ``post``,
    which turns every transport, status or JSON failure into a
    ``ProviderUnavailableError``.
    """

    url_env: str
    token_env: str | None = None

    def __init__(self, base_url: str | None = None):
        self.base_url = (base_url or os.environ.get(self.url_env, "")).rstrip("/")
        if not self.base_url:
            raise ProviderUnavailableError(f"{self.url_env} not set")
        token = os.environ.get(self.token_env, "") if self.token_env else ""
        self.headers = {"Authorization": f"Bearer {token}"} if token else {}

    def post(self, route: str, payload: dict):
        """The decoded JSON body of ``POST {base_url}/{route}`` with ``payload``."""
        import requests

        url = f"{self.base_url}/{route}"
        try:
            resp = requests.post(
                url, json=payload, headers=self.headers, timeout=DEFAULT_TIMEOUT_S
            )
        except requests.exceptions.Timeout as exc:
            raise ProviderUnavailableError(f"timeout calling {url}") from exc
        except requests.exceptions.RequestException as exc:
            raise ProviderUnavailableError(f"cannot reach {url}: {exc}") from exc
        if resp.status_code >= 400:
            raise ProviderUnavailableError(f"{url} returned {resp.status_code}")
        try:
            return resp.json()
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
            raise ProviderUnavailableError(f"{url} returned non-JSON body") from exc


class HttpLvlmClient(HttpClient):
    """Chat-completions-style client; the model is ``TEMPORAG_LVLM_MODEL``, else "default".

    Every request asks for greedy decoding (temperature 0) and at most 512 tokens.
    """

    url_env, token_env = ENV_LVLM_URL, ENV_LVLM_KEY

    def __init__(self, base_url: str | None = None):
        super().__init__(base_url)
        self.model = os.environ.get(ENV_LVLM_MODEL, "default")

    def complete(self, system_prompt: str, user_prompt: str) -> str:
        body = self.post(
            "chat/completions",
            {
                "model": self.model,
                "messages": [
                    {"role": "system", "content": system_prompt},
                    {"role": "user", "content": user_prompt},
                ],
                "temperature": 0.0,
                "max_tokens": 512,
            },
        )
        try:
            content = body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ProviderUnavailableError("malformed chat completion response") from exc
        if not isinstance(content, str):
            raise ProviderUnavailableError(
                f"malformed chat completion response: content is {type(content).__name__}"
            )
        return content


class HttpEmbeddingClient(HttpClient):
    """POST {base_url}/embed with {"texts": [...]}; response {"vectors": [...]}.

    The response must hold one vector per text, all of one non-zero length,
    with JSON numbers (not bools or strings) for entries and each with a
    finite, non-zero norm, or ``embed`` raises ``ProviderUnavailableError``;
    it returns them as unit rows.
    """

    url_env, token_env = ENV_EMBED_URL, ENV_EMBED_TOKEN

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        if not texts:
            return np.zeros((0, 0))
        body = self.post("embed", {"texts": list(texts)})
        try:
            matrix = np.array(body["vectors"], dtype=np.float64)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:  # ValueError: ragged
            raise ProviderUnavailableError(f"malformed embed response ({exc})") from exc
        if matrix.ndim != 2 or len(matrix) != len(texts) or not matrix.shape[1]:
            raise ProviderUnavailableError(
                f"malformed embed response (vectors of shape {matrix.shape} for {len(texts)} texts)"
            )
        # numpy converts bools and numeric strings too; the wire format has numbers only.
        if any(type(x) not in (int, float) for row in body["vectors"] for x in row):
            raise ProviderUnavailableError(
                "malformed embed response (a vector entry is not a number)"
            )
        try:
            with np.errstate(over="ignore"):  # a norm past float64 is a DataError
                return unit_rows(matrix)
        except DataError:
            raise ProviderUnavailableError(
                "malformed embed response (a vector has a zero, NaN or infinite norm)"
            ) from None


class HttpDetector(HttpClient):
    """POST {base_url}/detect with {"frame_ids": [...]}; per-frame object lists back."""

    url_env = ENV_DETECT_URL

    def detect(self, keyframes: Sequence[FrameRecord]) -> list[list[DetectedObject]]:
        body = self.post("detect", {"frame_ids": [f.frame_index for f in keyframes]})
        try:
            detections = [detected_objects(objects) for objects in body["detections"]]
        except (KeyError, TypeError, DataError) as exc:
            raise ProviderUnavailableError(f"malformed detect response ({exc})") from exc
        if len(detections) != len(keyframes):
            raise ProviderUnavailableError(
                f"detect returned {len(detections)} results for {len(keyframes)} keyframes"
            )
        return detections
