"""Seeded synthetic video inputs in the formats `temporag ingest` reads.

One call to ``write_video`` writes, for one video:

* ``audio.srt``: ASR cues (SubRip)
* ``screen_text.jsonl``: OCR snippets (snippet JSONL)
* ``detections.jsonl``: per-frame detections
* ``frames.jsonl``: frame index, time and a short text the embedder reads

and returns the questions asked about it. Every time is rounded to whole
milliseconds, the resolution of SRT, so no computed time can fall a
rounding error outside ``[0, duration]`` and make ingest reject the file.

Background text draws from a Zipf-distributed vocabulary of made-up
words, so a few common words occur in thousands of snippets and most in
few. Two kinds of question are asked:

* needle: four rare terms that occur in one correctly timed ASR snippet
  (and one OCR snippet), in lexical duplicates at least a quarter of the
  video away, and in the text of the frame at the needle's time. Temporal
  rescoring must rank the planted ASR snippet first; that is the check.
* browse: three common vocabulary words, so BM25 scores thousands of
  snippets positive and the pool sort does real work.

Both kinds carry cue words ("narrator", "mention", "screen") so the stub
decoupler sends them to the ASR and the OCR channel. No background or
detection text contains a cue word.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

QUESTION_TEMPLATE = "What did the narrator mention about {terms} on the screen?"
DET_LABELS = (
    "person car dog table tree phone cup bottle chair laptop bicycle bus "
    "truck boat bird cat horse bench clock book"
).split()
NEEDLE_TERMS = 4
BROWSE_TERMS = 3
# Browse words come from this band of vocabulary ranks: common enough to
# hit thousands of snippets on a long video.
BROWSE_RANKS = (8, 40)
VOCAB_SIZE = 20_000
ZIPF_S = 1.05


@dataclass(frozen=True)
class Shape:
    """Size of one generated video and of its question set."""

    duration_s: float
    n_snippets: int  # background snippets per channel (ASR and OCR)
    n_frames: int
    n_needles: int
    n_browse: int
    n_duplicates: int  # per needle and channel


@dataclass(frozen=True)
class Question:
    text: str
    kind: str  # "needle" | "browse"
    needle_id: str | None  # expected top ASR hit for needle questions


def _ms(t: float) -> float:
    return round(float(t), 3)


def _srt_ts(t: float) -> str:
    ms = int(round(t * 1000))
    h, rest = divmod(ms, 3_600_000)
    m, rest = divmod(rest, 60_000)
    s, ms = divmod(rest, 1000)
    return f"{h:02d}:{m:02d}:{s:02d},{ms:03d}"


def _vocab() -> tuple[list[str], np.ndarray]:
    words = [f"w{i:05d}" for i in range(VOCAB_SIZE)]
    weights = 1.0 / np.arange(1, VOCAB_SIZE + 1) ** ZIPF_S
    return words, weights / weights.sum()


def _rare_word(rng: np.random.Generator, taken: set[str]) -> str:
    letters = np.array(list("bcdfghjklmnpqrstvxz"))
    while True:
        word = "".join(rng.choice(letters, size=8))
        if word not in taken:
            taken.add(word)
            return word


def _background(rng, n, duration, words, probs):
    """n snippets of 4-8 Zipf words, each 1-5 s long at a uniform time."""
    lengths = rng.integers(4, 9, size=n)
    tokens = rng.choice(len(words), size=int(lengths.sum()), p=probs)
    durs = rng.uniform(1.0, 5.0, size=n)
    starts = rng.uniform(0.0, duration - durs)
    out = []
    pos = 0
    for length, start, dur in zip(lengths, starts, durs):
        text = " ".join(words[i] for i in tokens[pos : pos + length])
        pos += length
        out.append((_ms(start), _ms(start + dur), text))
    return out


def _far_time(rng, duration, anchor, gap, half):
    """A snippet midpoint at least ``gap`` from ``anchor``, inside the video."""
    while True:
        mid = float(rng.uniform(half, duration - half))
        if abs(mid - anchor) >= gap:
            return mid


def write_video(shape: Shape, seed: int, raw_dir: Path) -> list[Question]:
    """Write one video's raw inputs to ``raw_dir`` and return its questions.

    The same shape and seed write byte-identical files.
    """
    rng = np.random.default_rng(seed)
    duration = shape.duration_s
    words, probs = _vocab()
    asr = _background(rng, shape.n_snippets, duration, words, probs)
    ocr = _background(rng, shape.n_snippets, duration, words, probs)

    step = duration / (shape.n_frames - 1)
    frame_times = [_ms(i * step) for i in range(shape.n_frames)]
    frame_texts = [
        " ".join(words[i] for i in rng.choice(len(words), size=3, p=probs))
        for _ in range(shape.n_frames)
    ]

    # Needle frames are distinct and away from both ends, so the needle
    # snippet and every duplicate fit inside the video.
    half = 2.0
    usable = [i for i, t in enumerate(frame_times) if 2 * half <= t <= duration - 2 * half]
    needle_frames = rng.choice(usable, size=shape.n_needles, replace=False)
    taken: set[str] = set()
    needles = []
    asr_marked = [(t0, t1, text, None) for t0, t1, text in asr]  # last: needle number
    for k, frame in enumerate(needle_frames):
        terms = [_rare_word(rng, taken) for _ in range(NEEDLE_TERMS)]
        text = " ".join(terms)
        mid = frame_times[frame]
        frame_texts[frame] = text
        asr_marked.append((_ms(mid - half), _ms(mid + half), text, k))
        ocr.append((_ms(mid - half), _ms(mid + half), text))
        for _ in range(shape.n_duplicates):
            dup = _far_time(rng, duration, mid, duration / 4.0, half)
            asr_marked.append((_ms(dup - half), _ms(dup + half), text, None))
            dup = _far_time(rng, duration, mid, duration / 4.0, half)
            ocr.append((_ms(dup - half), _ms(dup + half), text))
        needles.append(terms)

    # SRT cues are numbered in time order; parse_srt names cue i "asr-i".
    asr_marked.sort(key=lambda c: (c[0], c[1], c[2]))
    needle_ids = {}
    cues = []
    for i, (t0, t1, text, k) in enumerate(asr_marked, start=1):
        if k is not None:
            needle_ids[k] = f"asr-{i:06d}"
        cues.append(f"{i}\n{_srt_ts(t0)} --> {_srt_ts(t1)}\n{text}\n")
    ocr.sort()

    raw_dir.mkdir(parents=True, exist_ok=True)
    (raw_dir / "audio.srt").write_text("\n".join(cues), encoding="utf-8")
    (raw_dir / "screen_text.jsonl").write_text(
        "".join(
            json.dumps(
                {"id": f"ocr-{i:06d}", "channel": "ocr", "text": text, "t_start": t0, "t_end": t1}
            )
            + "\n"
            for i, (t0, t1, text) in enumerate(ocr, start=1)
        ),
        encoding="utf-8",
    )
    (raw_dir / "frames.jsonl").write_text(
        "".join(
            json.dumps({"frame_index": i, "t": t, "text": text}) + "\n"
            for i, (t, text) in enumerate(zip(frame_times, frame_texts))
        ),
        encoding="utf-8",
    )
    det_lines = []
    for i, t in enumerate(frame_times):
        objects = []
        for _ in range(int(rng.integers(0, 4))):
            x1, y1 = (round(float(v), 3) for v in rng.uniform(0.0, 0.6, size=2))
            w, h = (round(float(v), 3) for v in rng.uniform(0.1, 0.4, size=2))
            objects.append(
                {
                    "label": DET_LABELS[int(rng.integers(0, len(DET_LABELS)))],
                    "box": [x1, y1, round(x1 + w, 3), round(y1 + h, 3)],
                    "confidence": round(float(rng.uniform(0.3, 0.99)), 3),
                }
            )
        det_lines.append(json.dumps({"frame_index": i, "t": t, "objects": objects}) + "\n")
    (raw_dir / "detections.jsonl").write_text("".join(det_lines), encoding="utf-8")

    questions = [
        Question(QUESTION_TEMPLATE.format(terms=" ".join(terms)), "needle", needle_ids[k])
        for k, terms in enumerate(needles)
    ]
    # Browse question k takes fixed consecutive ranks, so the hit counts,
    # and with them the cost of a browse question, do not vary by seed.
    lo, hi = BROWSE_RANKS
    for k in range(shape.n_browse):
        ranks = [lo + (BROWSE_TERMS * k + j) % (hi - lo) for j in range(BROWSE_TERMS)]
        terms = " ".join(words[i] for i in ranks)
        questions.append(Question(QUESTION_TEMPLATE.format(terms=terms), "browse", None))
    return questions
