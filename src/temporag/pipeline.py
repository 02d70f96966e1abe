"""Two-stage query flow: decouple, retrieve per channel, augment, compose.

The first provider pass rewrites the question into per-channel retrieval
requests. Retrieval pools lexical candidates, filters them by dense
acceptance, rescales by temporal decay, and keeps the top K per channel.
A second provider pass adds background context and rephrasings, and the
final bundle concatenates everything into one prompt for the answer model.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np

from . import prompts, rescore as rescore_mod, textindex
from .errors import ConfigError, DataError, ProviderUnavailableError
from .frames import (
    FrameTable,
    SelectorConfig,
    detect_on_keyframes,
    frame_similarities,
    select_keyframes,
)
from .ingest import SceneGraphText, serialize_scene_graph
from .providers import DetectorProvider, LvlmProvider
from .rescore import AnchorSet, DecayParams, RescoreConfig, compute_anchors
from .textindex import Bm25Index
from .types import (
    Channel,
    FrameRecord,
    QueryRequest,
    RetrievalRequest,
    ScoredSnippet,
    VideoRecord,
)
from .vectorindex import EmbeddingProvider

log = logging.getLogger(__name__)

MIN_BUDGET_TOKENS = 256
DEFAULT_BUDGET_TOKENS = 2048

SECTION_HEADER_PREFIX = "### "


class FusionMode(str, Enum):
    """How lexical and dense signals combine into the candidate pool."""

    LEXICAL = "lexical"
    DENSE = "dense"
    MAX_FUSE = "max_fuse"


@dataclass(frozen=True)
class Evidence:
    """Retrieved per-channel hits plus the rendered scene graph."""

    asr_hits: tuple[ScoredSnippet, ...]
    ocr_hits: tuple[ScoredSnippet, ...]
    scene_graph: SceneGraphText

    @property
    def token_estimate(self) -> int:
        """Whitespace tokens of the scene lines and the rendered hit lines."""
        n = sum(len(line.split()) for line in self.scene_graph.lines)
        return n + sum(len(_hit_line(h).split()) for h in (*self.asr_hits, *self.ocr_hits))


@dataclass(frozen=True)
class AugmentedQuery:
    """The original question plus generated context and rephrasings."""

    original: str
    reformulations: tuple[str, ...]
    generated_context: str


@dataclass(frozen=True)
class PromptBundle:
    """The composed prompt and the evidence that produced it."""

    keyframe_refs: tuple[tuple[int, float], ...]
    evidence: Evidence
    query: AugmentedQuery
    rendered: str

    @cached_property
    def sha256(self) -> str:
        return hashlib.sha256(self.rendered.encode("utf-8")).hexdigest()

    @cached_property
    def token_count(self) -> int:
        return len(self.rendered.split())


@dataclass(frozen=True)
class AblationFlags:
    """Subtractive switches mirroring the ablation axes.

    ``se`` off makes frame weights uniform, ``tw`` off zeroes the decay
    strengths, ``ocr``/``asr`` off drop that channel, ``context`` off skips
    augmentation.
    """

    se: bool = True
    tw: bool = True
    ocr: bool = True
    asr: bool = True
    context: bool = True


@dataclass(frozen=True)
class Retrieval:
    """One channel's top-K hits and the rescored, accepted pool they were cut from."""

    hits: list[ScoredSnippet]
    pool: list[ScoredSnippet]


# --- stage 1: query decoupling -------------------------------------------------


def _clean_request_value(value: object) -> str | None:
    if value is None:
        return None
    if not isinstance(value, str):
        raise DataError(f"request value must be string or null, got {type(value).__name__}")
    stripped = value.strip()
    return stripped or None


def decouple_query(lvlm: LvlmProvider, q: QueryRequest) -> RetrievalRequest:
    """First LVLM pass: rewrite the question into per-channel requests.

    The response must be a single JSON object with keys drawn from
    {"asr", "ocr", "det"} and string-or-null values; anything else falls
    back to searching every channel with the original question, with a
    logged warning. Empty strings count as null so downstream never
    searches with an empty query.
    """
    response = lvlm.complete(prompts.SYSTEM_PROMPT, prompts.decouple_prompt(q.query_text))
    try:
        obj = json.loads(response)
        if not isinstance(obj, dict) or not set(obj) <= {"asr", "ocr", "det"}:
            raise DataError("unexpected keys in decouple response")
        return RetrievalRequest(
            asr=_clean_request_value(obj.get("asr")),
            ocr=_clean_request_value(obj.get("ocr")),
            det=_clean_request_value(obj.get("det")),
        )
    except (json.JSONDecodeError, DataError) as exc:
        log.warning("decouple response unparseable (%s); falling back to raw query", exc)
        return RetrievalRequest(asr=q.query_text, ocr=q.query_text, det=q.query_text)


# --- stage 2: per-channel retrieval ----------------------------------------------


def dense_accept(
    bm25: Bm25Index,
    query_vec: np.ndarray,
    ids: Sequence[int],
    tau: float,
) -> list[int]:
    """Filter document positions by dense similarity >= tau, preserving order.

    Each row's similarity is its own dot product with the query, whatever
    else is filtered with it (``textindex.row_similarities``).
    """
    pos = np.asarray(ids, dtype=np.intp)
    return pos[textindex.row_similarities(bm25.vectors, query_vec, pos) >= tau].tolist()


def _min_max_rescale(hits: Sequence[tuple[int, float]]) -> dict[int, float]:
    if not hits:
        return {}
    values = [score for _, score in hits]
    low, high = min(values), max(values)
    if high <= low:
        return {pos: 1.0 for pos, _ in hits}
    return {pos: (score - low) / (high - low) for pos, score in hits}


def retrieve_channel(
    req_text: str,
    bm25: Bm25Index,
    anchors: AnchorSet,
    decay: DecayParams,
    cfg: RescoreConfig,
    fusion: FusionMode = FusionMode.LEXICAL,
    *,
    duration_s: float,
    query_vec: np.ndarray,
    tau: float,
) -> Retrieval:
    """Pool, rescore, and cut one channel's candidates.

    LEXICAL pools BM25 hits and applies the dense acceptance filter;
    DENSE pools vector hits with similarity >= ``tau``; MAX_FUSE unions both
    pools with each signal min-max rescaled and fused by max. Candidates
    are document positions throughout. The pool is then temporally
    rescored and cut to ``cfg.top_k``; only pooled positions become
    ``Snippet``s. Both lists are empty when nothing survives pooling or
    filtering.
    """
    if not req_text.strip():
        raise DataError("request text must be non-empty; NULL channels are skipped by the caller")
    pool_size = cfg.pool_size

    if bm25.n_docs == 0:
        raise DataError(f"channel {bm25.channel.value}: empty index")
    if fusion is FusionMode.LEXICAL:
        pool = textindex.search(bm25, req_text, pool_size)
        kept = set(dense_accept(bm25, query_vec, [pos for pos, _ in pool], tau))
        candidates = [(pos, raw) for pos, raw in pool if pos in kept]
    elif fusion is FusionMode.DENSE:
        candidates = [
            (pos, max(score, 0.0))
            for pos, score in textindex.dense_search(bm25, query_vec, pool_size, tau)
        ]
    elif fusion is FusionMode.MAX_FUSE:
        # One dense pass gives the dense pool and filters the union.
        sims = bm25.similarities(query_vec)
        lex_scaled = _min_max_rescale(textindex.search(bm25, req_text, pool_size))
        den_best, den_scores = textindex.top_hits(sims, sims >= tau, pool_size)
        den_scaled = _min_max_rescale(list(zip(den_best, den_scores)))
        # Position order is doc-id order, so ties keep ascending ids.
        union = sorted(set(lex_scaled) | set(den_scaled))
        fused = [
            (pos, max(lex_scaled.get(pos, 0.0), den_scaled.get(pos, 0.0)))
            for pos in union
            if sims[pos] >= tau
        ]
        fused.sort(key=lambda h: (-h[1], h[0]))
        candidates = fused[:pool_size]
    else:  # pragma: no cover - exhaustive enum
        raise DataError(f"unknown fusion mode {fusion!r}")

    if not candidates:
        return Retrieval(hits=[], pool=[])
    pool_snippets = [(bm25.snippet(pos), raw) for pos, raw in candidates]
    scored = rescore_mod.rescore(pool_snippets, anchors, decay, duration_s)
    return Retrieval(hits=rescore_mod.top_k(scored, cfg.top_k), pool=scored)


# --- stage 3: augmentation ---------------------------------------------------------

_NUMBERED_LINE = re.compile(r"^\s*\d+[.)]\s*(.+)$")


def augment_query(lvlm: LvlmProvider, q: QueryRequest) -> AugmentedQuery:
    """Second LVLM pass: background context plus 2-3 rephrasings.

    A malformed response or an unavailable provider degrades to the
    original-only query with a logged warning; augmentation is enrichment,
    never a hard dependency.
    """
    try:
        response = lvlm.complete(prompts.SYSTEM_PROMPT, prompts.augment_prompt(q.query_text))
    except ProviderUnavailableError as exc:
        log.warning("augmentation provider unavailable (%s); continuing without it", exc)
        return AugmentedQuery(original=q.query_text, reformulations=(), generated_context="")

    context_lines: list[str] = []
    reformulations: list[str] = []
    for line in response.splitlines():
        m = _NUMBERED_LINE.match(line)
        if m:
            reformulations.append(m.group(1).strip())
        elif not reformulations and line.strip():
            context_lines.append(line.strip())
    if len(reformulations) < 2:
        log.warning("augmentation response lacked 2-3 rephrasings; continuing without it")
        return AugmentedQuery(original=q.query_text, reformulations=(), generated_context="")
    return AugmentedQuery(
        original=q.query_text,
        reformulations=tuple(reformulations[:3]),
        generated_context=" ".join(context_lines),
    )


# --- stage 4: composition -----------------------------------------------------------


def _one_line(text: str) -> str:
    return " ".join(text.split())


def _escape_block(text: str) -> str:
    """Prefix any content line that would look like a section header."""
    return "\n".join(
        " " + line if line.startswith(SECTION_HEADER_PREFIX.rstrip()) else line
        for line in text.splitlines()
    )


def _hit_line(hit: ScoredSnippet) -> str:
    return f"- [t={hit.snippet.t_mid:.1f}s] {_one_line(hit.snippet.text)}"


def _render_sections(
    scene_lines: Sequence[str],
    asr_hits: Sequence[ScoredSnippet],
    ocr_hits: Sequence[ScoredSnippet],
    context: str,
    question: str,
    reformulations: Sequence[str],
) -> str:
    def block(name: str, body: str) -> str:
        return f"{SECTION_HEADER_PREFIX}{name}\n{body if body else '(none)'}"

    parts = [
        block("SCENE GRAPH", "\n".join(scene_lines)),
        block("ASR EVIDENCE", "\n".join(_hit_line(h) for h in asr_hits)),
        block("OCR EVIDENCE", "\n".join(_hit_line(h) for h in ocr_hits)),
        block("BACKGROUND CONTEXT", _escape_block(context)),
        block("QUESTION", _escape_block(_one_line(question))),
        block(
            "REPHRASINGS",
            "\n".join(f"{i}. {_one_line(r)}" for i, r in enumerate(reformulations, start=1)),
        ),
    ]
    return "\n".join(parts)


_SENTENCE_SPLIT = re.compile(r"(?<=[.!?])\s+")


def compose(
    keyframes: Sequence[FrameRecord],
    evidence: Evidence,
    aq: AugmentedQuery,
    budget_tokens: int = DEFAULT_BUDGET_TOKENS,
) -> PromptBundle:
    """Assemble the final prompt, trimming to the token budget.

    Over budget, the lowest-scored hits are dropped first, OCR then ASR
    alternating, then the generated context is truncated at sentence
    boundaries. The original question and the scene graph are never
    dropped. Budgets below 256 tokens are rejected.
    """
    if budget_tokens < MIN_BUDGET_TOKENS:
        raise ConfigError(f"budget {budget_tokens} below minimum {MIN_BUDGET_TOKENS}")

    asr_hits = list(evidence.asr_hits)
    ocr_hits = list(evidence.ocr_hits)
    context = aq.generated_context
    scene_lines = evidence.scene_graph.lines

    def rendered_now() -> str:
        return _render_sections(
            scene_lines, asr_hits, ocr_hits, context, aq.original, aq.reformulations
        )

    drop_ocr_next = True
    rendered = rendered_now()
    while len(rendered.split()) > budget_tokens:
        if ocr_hits or asr_hits:
            primary, secondary = (ocr_hits, asr_hits) if drop_ocr_next else (asr_hits, ocr_hits)
            target = primary if primary else secondary
            target.pop()  # hit lists are score-descending, so this is the lowest
            drop_ocr_next = not drop_ocr_next
        elif context:
            sentences = _SENTENCE_SPLIT.split(context)
            context = " ".join(sentences[:-1]).strip() if len(sentences) > 1 else ""
        else:
            break  # nothing droppable left; scene graph and question stay
        rendered = rendered_now()

    final_evidence = Evidence(
        asr_hits=tuple(asr_hits),
        ocr_hits=tuple(ocr_hits),
        scene_graph=evidence.scene_graph,
    )
    final_aq = AugmentedQuery(
        original=aq.original, reformulations=aq.reformulations, generated_context=context
    )
    return PromptBundle(
        keyframe_refs=tuple((f.frame_index, f.t) for f in keyframes),
        evidence=final_evidence,
        query=final_aq,
        rendered=rendered,
    )


def answer(lvlm: LvlmProvider, bundle: PromptBundle) -> str:
    """Final provider call; returns the completion verbatim."""
    if log.isEnabledFor(logging.INFO):
        log.info("answering bundle sha256=%s tokens=%d", bundle.sha256, bundle.token_count)
    return lvlm.complete(prompts.SYSTEM_PROMPT, prompts.answer_prompt(bundle.rendered))


# --- end-to-end orchestration ---------------------------------------------------


@dataclass
class VideoRuntime:
    """Everything needed to answer questions about one indexed video."""

    video: VideoRecord
    frames: FrameTable
    channels: dict[Channel, Bm25Index]
    lvlm: LvlmProvider
    embedder: EmbeddingProvider
    detector: DetectorProvider


@dataclass(frozen=True)
class PipelineResult:
    """The answer, its bundle and trace, and each channel's retrieval.

    ``retrieval`` holds the hits before ``compose`` trims them to the budget;
    a channel that was not searched has empty lists.
    """

    answer: str
    bundle: PromptBundle
    trace: dict
    retrieval: dict[Channel, Retrieval]


def _round(x: float) -> float:
    # Scores in traces are rounded so serialized runs compare stably.
    return round(x, 10)


def _hit_trace(hit: ScoredSnippet) -> dict:
    return {
        "id": hit.snippet.id,
        "t_mid": _round(hit.snippet.t_mid),
        "raw": _round(hit.raw_score),
        "decay": _round(hit.decay),
        "score": _round(hit.score),
        "text": hit.snippet.text,
    }


def run_query(
    runtime: VideoRuntime,
    question: str,
    *,
    selector_cfg: SelectorConfig,
    decay: DecayParams,
    cfg: RescoreConfig,
    fusion: FusionMode = FusionMode.LEXICAL,
    tau: float = 0.3,
    budget_tokens: int = DEFAULT_BUDGET_TOKENS,
    flags: AblationFlags = AblationFlags(),
) -> PipelineResult:
    """Run decouple, retrieve, augment, compose, and answer for one question.

    ``tau`` is the single acceptance threshold, applied both to keyframe
    similarity gating (it overrides ``selector_cfg.sim_threshold``) and to
    the dense snippet filter. ``flags`` switches mechanisms off, as
    ``AblationFlags`` documents.
    """
    q = QueryRequest(query_text=question, video_id=runtime.video.video_id)
    request = decouple_query(runtime.lvlm, q)
    if not flags.tw:
        decay = DecayParams(lambdas=(0.0, 0.0, 0.0), time_norm=decay.time_norm)

    asr_req = request.asr if flags.asr else None
    ocr_req = request.ocr if flags.ocr else None
    wanted = [
        (channel, req_text)
        for channel, req_text in ((Channel.ASR, asr_req), (Channel.OCR, ocr_req))
        if req_text is not None and channel in runtime.channels
    ]
    # One embed call: the frame query first, then each wanted channel's
    # request. The detector request drives frame similarity; fall back to
    # the raw question when decoupling marked detection NULL.
    frame_query_vec, *channel_vecs = runtime.embedder.embed(
        [request.det or question, *(req_text for _, req_text in wanted)]
    )
    sims = frame_similarities(runtime.frames, frame_query_vec)
    keyframes = select_keyframes(
        runtime.frames,
        sims,
        SelectorConfig(
            max_frames=selector_cfg.max_frames, sim_threshold=tau, n_bins=selector_cfg.n_bins
        ),
        duration_s=runtime.video.duration_s,
        entropy_weighted=flags.se,
    )
    anchors = compute_anchors(runtime.frames, sims)

    retrieval = {channel: Retrieval(hits=[], pool=[]) for channel in (Channel.ASR, Channel.OCR)}
    for (channel, req_text), vec in zip(wanted, channel_vecs, strict=True):
        retrieval[channel] = retrieve_channel(
            req_text,
            runtime.channels[channel],
            anchors,
            decay,
            cfg,
            fusion,
            duration_s=runtime.video.duration_s,
            query_vec=vec,
            tau=tau,
        )

    detections = detect_on_keyframes(keyframes, runtime.detector)
    scene_graph = serialize_scene_graph(detections)

    if flags.context:
        aq = augment_query(runtime.lvlm, q)
    else:
        aq = AugmentedQuery(original=question, reformulations=(), generated_context="")

    evidence = Evidence(
        asr_hits=tuple(retrieval[Channel.ASR].hits),
        ocr_hits=tuple(retrieval[Channel.OCR].hits),
        scene_graph=scene_graph,
    )
    bundle = compose(keyframes, evidence, aq, budget_tokens)
    out = answer(runtime.lvlm, bundle)

    trace = {
        "video_id": runtime.video.video_id,
        "question": question,
        "request": {"asr": asr_req, "ocr": ocr_req, "det": request.det},
        "lambdas": list(decay.lambdas),
        "time_norm": decay.time_norm.value,
        "tau": tau,
        "fusion": fusion.value,
        "top_k": cfg.top_k,
        "pool_multiplier": cfg.pool_multiplier,
        "flags": dict(vars(flags)),
        "anchors": {
            "t_first": _round(anchors.t_first),
            "t_last": _round(anchors.t_last),
            "t_semantic": _round(anchors.t_semantic),
        },
        "keyframes": [{"frame_index": f.frame_index, "t": _round(f.t)} for f in keyframes],
        "channels": {
            "asr": [_hit_trace(h) for h in bundle.evidence.asr_hits],
            "ocr": [_hit_trace(h) for h in bundle.evidence.ocr_hits],
        },
        "augmented": {
            "context": bundle.query.generated_context,
            "reformulations": list(bundle.query.reformulations),
        },
        "bundle": {
            "sha256": bundle.sha256,
            "token_estimate": bundle.evidence.token_estimate,
            "token_count": bundle.token_count,
            "budget_tokens": budget_tokens,
        },
    }
    return PipelineResult(answer=out, bundle=bundle, trace=trace, retrieval=retrieval)
