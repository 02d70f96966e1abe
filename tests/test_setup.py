"""Set-up, ``ingest`` then ``build``, on seeded synthetic inputs: the bytes of every file
it writes, pinned to a golden file, and the traced memory of its parsers and of its two
tokenizing steps."""

import functools
import hashlib
import json
import random
from pathlib import Path

from temporag.cli import main
from temporag.ingest import parse_frames_jsonl, parse_snippet_jsonl, parse_srt
from temporag.textindex import build_index
from temporag.types import Channel, snippet_columns
from temporag.vectorindex import _CHUNK_TEXTS, HashEmbedder

from conftest import make_snippet, traced_peak

DEMO = Path(__file__).resolve().parent.parent / "demo"
GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
DURATION_S = 1600.0
N_CUES = 600
N_OCR = 560
LONG_CUE = 417  # the cue with more tokens than any other text


def _vocab(rng: random.Random, n: int) -> list[str]:
    syllables = ["ka", "ro", "mi", "tu", "se", "lan", "dor", "vi", "é", "ß", "日", "本", "7", "42"]
    return [
        "".join(rng.choice(syllables) for _ in range(rng.randint(1, 4))) for _ in range(n)
    ]


def _phrase(rng: random.Random, vocab: list[str], n_words: int) -> str:
    # Mixed case and punctuation, so the tokenizer lowercases and splits.
    seps = [" ", " ", " ", ", ", "-", "_", "! "]
    words = [w.upper() if rng.random() < 0.1 else w for w in rng.choices(vocab, k=n_words)]
    return "".join(w + rng.choice(seps) for w in words).strip()


def _srt_time(t: float) -> str:
    ms = round(t * 1000)
    return f"{ms // 3_600_000:02d}:{ms // 60_000 % 60:02d}:{ms // 1000 % 60:02d},{ms % 1000:03d}"


def write_inputs(root: Path, seed: int = 5) -> list[Path]:
    """An SRT of multi-line cues, an OCR snippet JSONL and a frames JSONL under ``root``.

    Both channels hold more than two embedding chunks of texts, and one cue
    is far longer than every other text.
    """
    rng = random.Random(seed)
    vocab = _vocab(rng, 900)
    cues = []
    for i in range(N_CUES):
        t = 2.5 * i
        n_lines = 300 if i == LONG_CUE else rng.randint(1, 3)
        lines = [_phrase(rng, vocab, 1 if i == LONG_CUE else rng.randint(2, 14))
                 for _ in range(n_lines)]
        cues.append(f"{i + 1}\n{_srt_time(t)} --> {_srt_time(t + 2.0)}\n" + "\n".join(lines))
    srt = root / "audio.srt"
    srt.write_text("\n\n".join(cues) + "\n", encoding="utf-8")

    ocr = []
    for i in rng.sample(range(N_OCR), N_OCR):  # ids out of order in the file
        t = round(rng.uniform(0.0, DURATION_S), 3)
        text = "!!" if i % 97 == 0 else _phrase(rng, vocab, rng.randint(1, 8))
        ocr.append({"id": f"ocr-{i:05d}", "channel": "ocr", "text": text, "t_start": t, "t_end": t})
    screen = root / "screen_text.jsonl"
    screen.write_text("".join(json.dumps(o) + "\n" for o in ocr), encoding="utf-8")

    frames = root / "frames.jsonl"
    frames.write_text(
        "".join(
            json.dumps({"frame_index": i, "t": 12.5 * i,
                        "text": _phrase(rng, vocab, rng.randint(1, 6)) if i % 3 else ""}) + "\n"
            for i in range(120)
        ),
        encoding="utf-8",
    )
    return [srt, screen, frames]


def test_synthetic_set_up_bytes_match_golden(tmp_path):
    # Pinned across changes to the tokenizers, past what the demo reaches:
    # several embedding chunks per channel, multi-line cues and one text
    # wider than the rest of its chunk.
    assert N_CUES > 2 * _CHUNK_TEXTS and N_OCR > 2 * _CHUNK_TEXTS
    srt, screen, frames = write_inputs(tmp_path)
    store, index = tmp_path / "store", tmp_path / "index"
    rc = main([str(a) for a in ["ingest", srt, screen, "--frames", frames, "--video-id", "synth",
                                "--duration-s", DURATION_S, "--out", store]])
    assert rc == 0
    rc = main([str(a) for a in ["build", "--store", store, "--out", index,
                                "--config", DEMO / "config.json"]])
    assert rc == 0
    golden = dict(
        reversed(line.split())
        for line in (GOLDEN / "synthetic_index.sha256").read_text(encoding="utf-8").splitlines()
    )
    built = {
        f"{d.name}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
        for d in (store, index)
        for p in sorted(d.iterdir())
    }
    assert built == golden


def _texts(n: int, n_tokens: int = 40, seed: int = 11) -> list[str]:
    rng = random.Random(seed)
    vocab = _vocab(rng, 1500)
    return [" ".join(rng.choices(vocab, k=n_tokens)) for _ in range(n)]


def test_embed_peak_scales_with_rows_not_tokens():
    # 4,000 texts of 40 tokens: their token strings alone would outweigh the
    # row cache and the output together.
    texts = _texts(4000)
    embedder = HashEmbedder(64, 3)
    out, peak = traced_peak(embedder.embed, texts)
    # The rest is one int64 row id per token and a chunk's sums.
    assert peak < 3 * (embedder._rows.nbytes + out.nbytes)


def test_build_index_peak_scales_with_its_arrays_not_tokens():
    docs = [make_snippet(f"d{i:05d}", text, float(i)) for i, text in enumerate(_texts(4000))]
    index, peak = traced_peak(build_index, snippet_columns(docs))
    assert index.channel is Channel.ASR and index.n_docs == 4000
    arrays = (index.t_start, index.t_end, index.doc_len, index.offsets, index.doc_pos, index.tf)
    # The sort keys and their temporaries are int64 arrays, a few times the u4 postings.
    assert peak < 10 * sum(a.nbytes for a in arrays)


# The peaks the line-by-line parsers, one Snippet or record per cue or line,
# reached on the ``write_inputs`` SRT, OCR JSONL and frames JSONL (Python
# 3.11.7, numpy 2.4.6): 7.4, 4.1 and 4.4 times the file's size. Columns must
# not cost more.
LINE_BY_LINE_PEAK = {"audio.srt": 647_905, "screen_text.jsonl": 294_225, "frames.jsonl": 35_216}


def test_parser_peaks_stay_under_the_line_by_line_parsers(tmp_path):
    srt, screen, frames = write_inputs(tmp_path)
    parse_frames = functools.partial(parse_frames_jsonl, duration_s=DURATION_S)
    for path, parse in ((srt, parse_srt), (screen, parse_snippet_jsonl), (frames, parse_frames)):
        data = path.read_bytes()
        parse(data)  # once untraced, so one-time work is not counted
        _, peak = traced_peak(parse, data)
        assert peak <= LINE_BY_LINE_PEAK[path.name], path.name
