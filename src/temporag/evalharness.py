"""Synthetic needle-in-haystack corpora and mechanism-level metrics.

The corpus plants one correctly timed target snippet among lexically
identical, wrongly timed duplicates: exactly the situation temporal
rescoring exists to disambiguate. Reports mirror the retrieval trade-off
axes: recall/MRR against the planted needle, retained token volume under
the acceptance threshold, and wall time.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .errors import DataError, InfeasibleSpecError
from .frames import frame_similarities, select_keyframes
from .pipeline import augment_query, dense_accept, retrieve_channel
from .providers import StubLvlm
from .rescore import DecayParams, compute_anchors
from .textindex import Bm25Index, build_index, search as bm25_search
from .types import Channel, FrameRecord, QueryRequest, Snippet
from .vectorindex import FlatVectorIndex, HashEmbedder, normalize


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of one generated corpus; identical seeds reproduce it exactly.

    ``needle_time`` defaults to the middle of the video.
    """

    seed: int
    duration_s: float = 600.0
    n_snippets: int = 200
    n_duplicates: int = 20
    needle_time: float | None = None
    vocab_size: int = 50
    query_terms: tuple[str, ...] = ("crimson", "anvil", "lantern")
    n_frames: int = 64

    def __post_init__(self):
        if self.needle_time is None:
            object.__setattr__(self, "needle_time", self.duration_s / 2.0)
        if self.n_duplicates < 1:
            raise DataError("n_duplicates must be >= 1")
        if self.duration_s <= 0:
            raise DataError("duration_s must be positive")
        if not 0 <= self.needle_time <= self.duration_s:
            raise DataError("needle_time must lie within [0, duration_s]")
        if self.n_snippets < 1 + self.n_duplicates:
            raise DataError("n_snippets must cover the needle and its duplicates")
        if not self.query_terms:
            raise DataError("query_terms must be non-empty")
        if self.vocab_size < 8:
            raise DataError("vocab_size must be >= 8")
        if self.n_frames < 2:
            raise DataError("n_frames must be >= 2")


@dataclass(frozen=True)
class GroundTruth:
    needle_id: str
    needle_time: float


@dataclass
class Corpus:
    spec: SyntheticSpec
    snippets: list[Snippet]
    frames: list[FrameRecord]
    frame_texts: dict[str, str]
    ground_truth: GroundTruth


@dataclass(frozen=True)
class EvalReport:
    recall_at_1: float
    recall_at_k: float
    mrr: float
    mean_time_error_s: float
    tokens_retained: int
    wall_time_ms: float

    def to_dict(self) -> dict:
        return {
            "recall_at_1": self.recall_at_1,
            "recall_at_k": self.recall_at_k,
            "mrr": self.mrr,
            "mean_time_error_s": self.mean_time_error_s,
            "tokens_retained": self.tokens_retained,
            "wall_time_ms": self.wall_time_ms,
        }

    def key_fields(self) -> tuple:
        """Everything except wall time, for determinism comparisons."""
        return (
            self.recall_at_1,
            self.recall_at_k,
            self.mrr,
            self.mean_time_error_s,
            self.tokens_retained,
        )


@dataclass(frozen=True)
class AblationFlags:
    """Subtractive switches mirroring the ablation axes."""

    se: bool = True
    tw: bool = True
    ocr: bool = True
    asr: bool = True
    context: bool = True


_NEEDLE_DUR = 4.0


def gen_corpus(spec: SyntheticSpec) -> Corpus:
    """Generate a seeded needle corpus.

    One needle snippet containing the query terms sits at ``needle_time``;
    ``n_duplicates`` lexical clones sit at least duration/4 away. Background
    snippets draw words from a vocabulary disjoint from the query terms, so
    only the clones compete lexically with the needle. The frame nearest the
    needle describes the query's content; all others describe background.
    """
    rng = np.random.default_rng(spec.seed)
    duration = spec.duration_s
    vocab = [f"term{i:03d}" for i in range(spec.vocab_size)]
    if set(spec.query_terms) & set(vocab):
        raise DataError("query_terms must not collide with the generated vocabulary")

    half = _NEEDLE_DUR / 2
    needle_start = min(max(spec.needle_time - half, 0.0), duration - _NEEDLE_DUR)
    fillers = [vocab[int(i)] for i in rng.integers(0, spec.vocab_size, size=2)]
    needle_text = " ".join(list(spec.query_terms) + fillers)
    needle = Snippet(
        id="needle",
        channel=Channel.ASR,
        text=needle_text,
        t_start=needle_start,
        t_end=needle_start + _NEEDLE_DUR,
    )
    needle_mid = needle.t_mid

    # Duplicates go anywhere at least duration/4 from the needle midpoint.
    gap = duration / 4.0
    left = (half, max(half, needle_mid - gap))
    right = (min(duration - half, needle_mid + gap), duration - half)
    segments = [(lo, hi) for lo, hi in (left, right) if hi - lo > 1e-9]
    total = sum(hi - lo for lo, hi in segments)
    if total <= 0:
        raise InfeasibleSpecError(
            f"cannot place duplicates at least {gap:.1f}s from the needle"
        )
    duplicates = []
    for i in range(spec.n_duplicates):
        u = float(rng.uniform(0.0, total))
        for lo, hi in segments:
            if u <= hi - lo:
                mid = lo + u
                break
            u -= hi - lo
        duplicates.append(
            Snippet(
                id=f"dup-{i:03d}",
                channel=Channel.ASR,
                text=needle_text,
                t_start=mid - half,
                t_end=mid + half,
            )
        )

    background = []
    n_background = spec.n_snippets - 1 - spec.n_duplicates
    for i in range(n_background):
        n_words = int(rng.integers(4, 9))
        words = [vocab[int(w)] for w in rng.integers(0, spec.vocab_size, size=n_words)]
        dur = float(rng.uniform(1.0, 5.0))
        t_start = float(rng.uniform(0.0, duration - dur))
        background.append(
            Snippet(
                id=f"bg-{i:04d}",
                channel=Channel.ASR,
                text=" ".join(words),
                t_start=t_start,
                t_end=t_start + dur,
            )
        )

    frames = []
    frame_texts = {}
    step = duration / (spec.n_frames - 1)
    needle_frame = min(range(spec.n_frames), key=lambda i: abs(i * step - needle_mid))
    for i in range(spec.n_frames):
        ref = f"frame-{i:04d}"
        frames.append(FrameRecord(frame_index=i, t=i * step, embedding_ref=ref))
        if i == needle_frame:
            frame_texts[ref] = " ".join(spec.query_terms)
        else:
            words = [vocab[int(w)] for w in rng.integers(0, spec.vocab_size, size=3)]
            frame_texts[ref] = " ".join(words)

    return Corpus(
        spec=spec,
        snippets=[needle, *duplicates, *background],
        frames=frames,
        frame_texts=frame_texts,
        ground_truth=GroundTruth(needle_id="needle", needle_time=needle_mid),
    )


@dataclass
class _BuiltCorpus:
    bm25: Bm25Index
    dense: FlatVectorIndex
    frame_index: FlatVectorIndex
    query_vec: np.ndarray
    embedder: HashEmbedder


def _build(corpus: Corpus, config: RunConfig) -> _BuiltCorpus:
    embedder = HashEmbedder(config.providers.embed_dim, config.providers.embed_seed)
    bm25 = build_index(corpus.snippets)
    dense = FlatVectorIndex(embedder.dim)
    for snippet, vec in zip(corpus.snippets, embedder.embed([s.text for s in corpus.snippets])):
        dense.add(snippet.id, vec)
    frame_index = FlatVectorIndex(embedder.dim)
    refs = list(corpus.frame_texts)
    for ref, vec in zip(refs, embedder.embed([corpus.frame_texts[r] for r in refs])):
        frame_index.add(ref, vec)
    query_text = " ".join(corpus.spec.query_terms)
    query_vec = normalize(embedder.embed([query_text])[0])
    return _BuiltCorpus(
        bm25=bm25,
        dense=dense,
        frame_index=frame_index,
        query_vec=query_vec,
        embedder=embedder,
    )


def run_eval(corpus: Corpus, config: RunConfig, flags: AblationFlags = AblationFlags()) -> EvalReport:
    """Retrieve against the planted needle and score the outcome.

    Flags are applied subtractively: ``tw`` off zeroes decay strengths,
    ``se`` off selects keyframes with uniform weights, ``asr``/``ocr`` off
    drop those channels, ``context`` off skips the augmentation call.
    ``tokens_retained`` counts whitespace tokens of every pooled snippet
    accepted by the dense threshold, before the top-K cut.
    """
    t0 = time.perf_counter()
    built = _build(corpus, config)
    duration = corpus.spec.duration_s
    query_text = " ".join(corpus.spec.query_terms)

    sims = frame_similarities(corpus.frames, built.frame_index, built.query_vec)
    anchors = compute_anchors(corpus.frames, sims)
    decay = config.decay_params()
    if not flags.tw:
        decay = DecayParams(lambdas=(0.0, 0.0, 0.0), time_norm=decay.time_norm)

    select_keyframes(
        corpus.frames,
        sims,
        config.selector_config(),
        duration_s=duration,
        entropy_weighted=flags.se,
    )
    if flags.context:
        augment_query(StubLvlm(), QueryRequest(query_text=query_text, video_id="eval"))

    hits = []
    tokens_retained = 0
    if flags.asr:  # the synthetic corpus is ASR-channel
        hits = retrieve_channel(
            query_text,
            built.bm25,
            built.dense,
            anchors,
            decay,
            config.rescore_config(),
            config.fusion_mode(),
            duration_s=duration,
            query_vec=built.query_vec,
            tau=config.tau,
        )
        pool = bm25_search(built.bm25, query_text, config.rescore_config().pool_size)
        kept = dense_accept(built.dense, built.query_vec, [doc_id for doc_id, _ in pool], config.tau)
        tokens_retained = sum(len(built.bm25.snippet(doc_id).text.split()) for doc_id in kept)

    needle_id = corpus.ground_truth.needle_id
    ranked = [h.snippet.id for h in hits]
    recall_at_1 = 1.0 if ranked[:1] == [needle_id] else 0.0
    recall_at_k = 1.0 if needle_id in ranked else 0.0
    mrr = 1.0 / (ranked.index(needle_id) + 1) if needle_id in ranked else 0.0
    if hits:
        mean_time_error = float(
            np.mean([abs(h.snippet.t_mid - corpus.ground_truth.needle_time) for h in hits])
        )
    else:
        mean_time_error = duration

    wall_ms = (time.perf_counter() - t0) * 1000.0
    return EvalReport(
        recall_at_1=recall_at_1,
        recall_at_k=recall_at_k,
        mrr=mrr,
        mean_time_error_s=mean_time_error,
        tokens_retained=tokens_retained,
        wall_time_ms=wall_ms,
    )


def sweep_threshold(
    corpus: Corpus,
    taus: list[float],
    config: RunConfig,
    flags: AblationFlags = AblationFlags(),
) -> list[tuple[float, EvalReport]]:
    """One report per acceptance threshold, ascending."""
    if any(b < a for a, b in zip(taus, taus[1:])):
        raise DataError("thresholds must be sorted ascending")
    return [(tau, run_eval(corpus, config.replace(tau=tau), flags)) for tau in taus]


def aggregate_reports(reports: list[EvalReport]) -> dict[str, dict[str, float]]:
    """Mean and sample stddev per metric across a seed battery."""
    out = {}
    for name in ("recall_at_1", "recall_at_k", "mrr", "mean_time_error_s", "tokens_retained", "wall_time_ms"):
        values = [float(getattr(r, name)) for r in reports]
        out[name] = {
            "mean": statistics.fmean(values),
            "stddev": statistics.stdev(values) if len(values) > 1 else 0.0,
        }
    return out


def render_table(rows: list[dict[str, object]]) -> str:
    """Aligned-column text table from uniform dict rows."""
    if not rows:
        return "(no rows)\n"
    columns = list(rows[0])

    def fmt(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.4f}"
        return str(value)

    rendered = [[fmt(row[c]) for c in columns] for row in rows]
    widths = [max(len(c), *(len(r[i]) for r in rendered)) for i, c in enumerate(columns)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for r in rendered:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    return "\n".join(lines) + "\n"
