"""Synthetic needle-in-haystack corpora and mechanism-level metrics.

The corpus plants one correctly timed target snippet among lexically
identical, wrongly timed duplicates: exactly the situation temporal
rescoring exists to disambiguate. Each eval asks one question through
``pipeline.run_query`` over an in-memory runtime with the stub providers,
and scores the ASR retrieval: recall/MRR against the planted needle,
retained token volume under the acceptance threshold, and wall time.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from .config import RunConfig
from .errors import DataError
from .frames import FrameTable
from .pipeline import AblationFlags, VideoRuntime, run_query
from .providers import StubDetector, StubLvlm
from .textindex import F4, build_index
from .types import Channel, FrameRecord, Snippet, VideoRecord, snippet_columns
from .vectorindex import HashEmbedder

# Upper bounds of the spec sizes that the checks and ``gen_corpus`` loop over, checked first.
SPEC_LIMITS = dict(n_snippets=100_000, n_duplicates=100_000, vocab_size=100_000, n_frames=10_000)

_NEEDLE_DUR = 4.0


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of one generated corpus; identical seeds reproduce it exactly.

    ``needle_time`` defaults to the middle of the video.
    """

    seed: int = 0
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
        for name, limit in SPEC_LIMITS.items():
            if getattr(self, name) > limit:
                raise DataError(f"{name} must be at most {limit}")
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
        if not set(self.query_terms).isdisjoint(map(_vocab_word, range(self.vocab_size))):
            raise DataError("query_terms must not collide with the generated vocabulary")
        _, segments = _needle_layout(self)
        if not segments:
            raise DataError(
                f"cannot place duplicates at least {self.duration_s / 4.0:.1f}s from the needle"
            )


def _vocab_word(i: int) -> str:
    return f"term{i:03d}"


def _needle_layout(spec: SyntheticSpec) -> tuple[float, list[tuple[float, float]]]:
    """The needle's start time, and the intervals left for duplicate midpoints.

    The intervals are those at least duration/4 from the needle's midpoint.
    """
    duration = spec.duration_s
    half = _NEEDLE_DUR / 2
    needle_start = min(max(spec.needle_time - half, 0.0), duration - _NEEDLE_DUR)
    needle_mid = (needle_start + (needle_start + _NEEDLE_DUR)) / 2.0  # as ``Snippet.t_mid``
    gap = duration / 4.0
    left = (half, max(half, needle_mid - gap))
    right = (min(duration - half, needle_mid + gap), duration - half)
    return needle_start, [(lo, hi) for lo, hi in (left, right) if hi - lo > 1e-9]


@dataclass(frozen=True)
class GroundTruth:
    needle_id: str
    needle_time: float


@dataclass
class Corpus:
    """The generated snippets and frames; ``frame_texts[i]`` describes ``frames[i]``."""

    spec: SyntheticSpec
    snippets: list[Snippet]
    frames: list[FrameRecord]
    frame_texts: list[str]
    ground_truth: GroundTruth


@dataclass(frozen=True)
class EvalReport:
    """One eval's metrics; ``run_eval`` defines each.

    ``wall_time_ms`` is the whole ``run_eval`` call: the query and its
    scoring, plus building the runtime when the call builds it, not when
    it is given one (as a threshold sweep does).
    """

    recall_at_1: float
    recall_at_k: float
    mrr: float
    mean_time_error_s: float
    tokens_retained: int
    wall_time_ms: float

    def to_dict(self) -> dict:
        return asdict(self)


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
    vocab = [_vocab_word(i) for i in range(spec.vocab_size)]
    half = _NEEDLE_DUR / 2
    needle_start, segments = _needle_layout(spec)
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

    total = sum(hi - lo for lo, hi in segments)
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
    frame_texts = []
    step = duration / (spec.n_frames - 1)
    needle_frame = min(range(spec.n_frames), key=lambda i: abs(i * step - needle_mid))
    for i in range(spec.n_frames):
        frames.append(FrameRecord(frame_index=i, t=i * step))
        if i == needle_frame:
            frame_texts.append(" ".join(spec.query_terms))
        else:
            words = [vocab[int(w)] for w in rng.integers(0, spec.vocab_size, size=3)]
            frame_texts.append(" ".join(words))

    return Corpus(
        spec=spec,
        snippets=[needle, *duplicates, *background],
        frames=frames,
        frame_texts=frame_texts,
        ground_truth=GroundTruth(needle_id="needle", needle_time=needle_mid),
    )


def eval_question(spec: SyntheticSpec) -> str:
    """The question each eval asks: the query terms after a speech cue.

    The cue ("mentioned") makes the stub LVLM's decoupler send the content
    words to the ASR channel, where the corpus lives.
    """
    return f"What is mentioned about {' '.join(spec.query_terms)}?"


def build_runtime(corpus: Corpus, config: RunConfig) -> VideoRuntime:
    """An in-memory runtime over the corpus with the stub LVLM and detector.

    The ASR channel holds every snippet; every frame is embedded from its
    ``corpus.frame_texts`` entry. Both use the configured hash embedder, whatever
    ``config.providers`` names, so an eval needs no external service.
    """
    embedder = HashEmbedder(config.providers.embed_dim, config.providers.embed_seed)
    asr = build_index(
        snippet_columns(corpus.snippets),
        vectors=embedder.embed([s.text for s in corpus.snippets]),
    )
    frames = FrameTable(
        [f.frame_index for f in corpus.frames],
        [f.t for f in corpus.frames],
        np.ones(len(corpus.frames), dtype=bool),
        embedder.embed(corpus.frame_texts).astype(F4),
    )
    return VideoRuntime(
        video=VideoRecord(video_id="eval", duration_s=corpus.spec.duration_s),
        frames=frames,
        channels={Channel.ASR: asr},
        lvlm=StubLvlm(),
        embedder=embedder,
        detector=StubDetector(),
    )


def run_eval(
    corpus: Corpus,
    config: RunConfig,
    flags: AblationFlags = AblationFlags(),
    runtime: VideoRuntime | None = None,
) -> EvalReport:
    """Ask ``eval_question`` with one ``run_query`` call and score its ASR retrieval.

    Recall, MRR and the mean time error score the ASR top-K hits (before
    the prompt budget trims them) against the planted needle; with no hits
    the time error is the video's duration. ``tokens_retained`` counts
    whitespace tokens of the ASR pool that passed the dense threshold,
    before the top-K cut. ``runtime`` is ``build_runtime(corpus, config)``
    by default; evals of one corpus under settings that leave the runtime
    as it is (``tau``, the decay, the flags) can share one.
    """
    t0 = time.perf_counter()
    result = run_query(
        runtime if runtime is not None else build_runtime(corpus, config),
        eval_question(corpus.spec),
        selector_cfg=config.selector_config(),
        decay=config.decay_params(),
        cfg=config.rescore_config(),
        fusion=config.fusion_mode(),
        tau=config.tau,
        budget_tokens=config.budget_tokens,
        flags=flags,
    )
    asr = result.retrieval[Channel.ASR]
    hits = asr.hits

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
        mean_time_error = corpus.spec.duration_s

    wall_ms = (time.perf_counter() - t0) * 1000.0
    return EvalReport(
        recall_at_1=recall_at_1,
        recall_at_k=recall_at_k,
        mrr=mrr,
        mean_time_error_s=mean_time_error,
        tokens_retained=sum(len(h.snippet.text.split()) for h in asr.pool),
        wall_time_ms=wall_ms,
    )


def sweep_threshold(
    corpus: Corpus,
    taus: list[float],
    config: RunConfig,
    flags: AblationFlags = AblationFlags(),
) -> list[tuple[float, EvalReport]]:
    """One report per acceptance threshold, in the order given, all over one runtime.

    Every threshold is checked as a configured ``tau`` is before the
    runtime is built.
    """
    configs = [config.replace(tau=tau) for tau in taus]
    runtime = build_runtime(corpus, config)
    return [(cfg.tau, run_eval(corpus, cfg, flags, runtime)) for cfg in configs]


def aggregate_reports(reports: list[EvalReport]) -> dict[str, dict[str, float]]:
    """Mean and sample stddev per metric across a seed battery."""
    out = {}
    for name in (f.name for f in fields(EvalReport)):
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
