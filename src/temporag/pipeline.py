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
from typing import Sequence

import numpy as np

from . import prompts, rescore as rescore_mod, textindex
from .errors import BudgetTooSmallError, DataError, EmptyIndexError, ProviderUnavailableError
from .frames import SelectorConfig, detect_on_keyframes, frame_similarities, select_keyframes
from .ingest import SceneGraphText, serialize_scene_graph
from .providers import DecodeParams, DetectorProvider, LvlmProvider
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
from .vectorindex import EmbeddingProvider, FlatVectorIndex, normalize

log = logging.getLogger(__name__)

MIN_BUDGET_TOKENS = 256
DEFAULT_BUDGET_TOKENS = 2048

SECTION_HEADER_PREFIX = "### "
SECTION_NAMES = (
    "SCENE GRAPH",
    "ASR EVIDENCE",
    "OCR EVIDENCE",
    "BACKGROUND CONTEXT",
    "QUESTION",
    "REPHRASINGS",
)


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

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.rendered.encode("utf-8")).hexdigest()

    @property
    def token_count(self) -> int:
        return len(self.rendered.split())


@dataclass
class ChannelIndex:
    """One channel's indices; ``bm25`` also holds its document table."""

    channel: Channel
    bm25: Bm25Index
    dense: FlatVectorIndex


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
    response = lvlm.complete(
        prompts.SYSTEM_PROMPT, prompts.decouple_prompt(q.query_text), DecodeParams()
    )
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
    dense: FlatVectorIndex,
    query_vec: np.ndarray | None,
    ids: Sequence[str],
    tau: float,
) -> list[str]:
    """Filter ids by dense similarity >= tau, preserving order.

    Ids without a stored vector are kept: there is no dense evidence
    against them. With no query vector or an empty index the filter is a
    no-op.
    """
    if query_vec is None or len(dense) == 0:
        return list(ids)
    kept = []
    for snippet_id in ids:
        if snippet_id not in dense:
            kept.append(snippet_id)
            continue
        sim = float(np.dot(dense.get(snippet_id).astype(np.float64), query_vec))
        if sim >= tau:
            kept.append(snippet_id)
    return kept


def _min_max_rescale(hits: Sequence[tuple[str, float]]) -> dict[str, float]:
    if not hits:
        return {}
    values = [score for _, score in hits]
    low, high = min(values), max(values)
    if high <= low:
        return {doc_id: 1.0 for doc_id, _ in hits}
    return {doc_id: (score - low) / (high - low) for doc_id, score in hits}


def retrieve_channel(
    req_text: str,
    bm25: Bm25Index,
    dense: FlatVectorIndex,
    anchors: AnchorSet,
    decay: DecayParams,
    cfg: RescoreConfig,
    fusion: FusionMode = FusionMode.LEXICAL,
    *,
    duration_s: float,
    query_vec: np.ndarray | None = None,
    tau: float,
) -> list[ScoredSnippet]:
    """Pool, rescore, and cut one channel's candidates.

    LEXICAL pools BM25 hits and applies the dense acceptance filter;
    DENSE pools vector hits with similarity >= ``tau``; MAX_FUSE unions both
    pools with each signal min-max rescaled and fused by max. The pool is
    then temporally rescored and cut to ``cfg.top_k``. Only pooled ids
    become ``Snippet``s, looked up in ``bm25``'s document table. Returns []
    when nothing survives pooling or filtering.
    """
    if not req_text.strip():
        raise DataError("request text must be non-empty; NULL channels are skipped by the caller")
    pool_size = cfg.pool_size

    if fusion is FusionMode.LEXICAL:
        if bm25.n_docs == 0:
            raise EmptyIndexError(f"channel {bm25.channel.value}: empty lexical index")
        pool = textindex.search(bm25, req_text, pool_size)
        kept = set(dense_accept(dense, query_vec, [doc_id for doc_id, _ in pool], tau))
        candidates = [(doc_id, raw) for doc_id, raw in pool if doc_id in kept]
    elif fusion is FusionMode.DENSE:
        if len(dense) == 0:
            raise EmptyIndexError("empty dense index")
        if query_vec is None:
            raise DataError("dense fusion requires a query vector")
        candidates = [
            (doc_id, max(score, 0.0)) for doc_id, score in dense.search(query_vec, pool_size, tau)
        ]
    elif fusion is FusionMode.MAX_FUSE:
        if bm25.n_docs == 0 or len(dense) == 0:
            raise EmptyIndexError("max fusion requires both indices to be non-empty")
        if query_vec is None:
            raise DataError("max fusion requires a query vector")
        lex = textindex.search(bm25, req_text, pool_size)
        den = dense.search(query_vec, pool_size, tau)
        lex_scaled = _min_max_rescale(lex)
        den_scaled = _min_max_rescale(den)
        union = sorted(set(lex_scaled) | set(den_scaled))
        fused = [
            (doc_id, max(lex_scaled.get(doc_id, 0.0), den_scaled.get(doc_id, 0.0)))
            for doc_id in union
        ]
        kept = set(dense_accept(dense, query_vec, [doc_id for doc_id, _ in fused], tau))
        fused = [(doc_id, raw) for doc_id, raw in fused if doc_id in kept]
        fused.sort(key=lambda h: (-h[1], h[0]))
        candidates = fused[:pool_size]
    else:  # pragma: no cover - exhaustive enum
        raise DataError(f"unknown fusion mode {fusion!r}")

    if not candidates:
        return []
    pool_snippets = [(bm25.snippet(doc_id), raw) for doc_id, raw in candidates]
    scored = rescore_mod.rescore(pool_snippets, anchors, decay, duration_s)
    return rescore_mod.top_k(scored, cfg.top_k)


# --- stage 3: augmentation ---------------------------------------------------------

_NUMBERED_LINE = re.compile(r"^\s*\d+[.)]\s*(.+)$")


def augment_query(lvlm: LvlmProvider, q: QueryRequest) -> AugmentedQuery:
    """Second LVLM pass: background context plus 2-3 rephrasings.

    A malformed response or an unavailable provider degrades to the
    original-only query with a logged warning; augmentation is enrichment,
    never a hard dependency.
    """
    try:
        response = lvlm.complete(
            prompts.SYSTEM_PROMPT, prompts.augment_prompt(q.query_text), DecodeParams()
        )
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


def parse_bundle_sections(rendered: str) -> dict[str, str]:
    """Split a rendered bundle back into its six sections."""
    headers = {SECTION_HEADER_PREFIX + name: name for name in SECTION_NAMES}
    sections: dict[str, str] = {}
    current: str | None = None
    body: list[str] = []
    for line in rendered.splitlines():
        if line in headers:
            if current is not None:
                sections[current] = "\n".join(body)
            current = headers[line]
            body = []
        elif current is not None:
            body.append(line)
    if current is not None:
        sections[current] = "\n".join(body)
    return sections


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
        raise BudgetTooSmallError(budget_tokens, MIN_BUDGET_TOKENS)

    asr_hits = list(evidence.asr_hits)
    ocr_hits = list(evidence.ocr_hits)
    context = aq.generated_context
    scene_lines = evidence.scene_graph.lines

    def rendered_now() -> str:
        return _render_sections(
            scene_lines, asr_hits, ocr_hits, context, aq.original, aq.reformulations
        )

    drop_ocr_next = True
    while len(rendered_now().split()) > budget_tokens:
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
        rendered=rendered_now(),
    )


def answer(lvlm: LvlmProvider, bundle: PromptBundle) -> str:
    """Final provider call; returns the completion verbatim."""
    log.info("answering bundle sha256=%s tokens=%d", bundle.sha256, bundle.token_count)
    return lvlm.complete(
        prompts.SYSTEM_PROMPT, prompts.answer_prompt(bundle.rendered), DecodeParams()
    )


# --- end-to-end orchestration ---------------------------------------------------


@dataclass
class VideoRuntime:
    """Everything needed to answer questions about one indexed video."""

    video: VideoRecord
    frames: list[FrameRecord]
    frame_index: FlatVectorIndex
    channels: dict[Channel, ChannelIndex]
    lvlm: LvlmProvider
    embedder: EmbeddingProvider
    detector: DetectorProvider


@dataclass(frozen=True)
class PipelineResult:
    answer: str
    bundle: PromptBundle
    trace: dict


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
    se: bool = True,
    tw: bool = True,
    use_ocr: bool = True,
    use_asr: bool = True,
    use_context: bool = True,
) -> PipelineResult:
    """Run decouple, retrieve, augment, compose, and answer for one question.

    ``tau`` is the single acceptance threshold, applied both to keyframe
    similarity gating (it overrides ``selector_cfg.sim_threshold``) and to
    the dense snippet filter. The ablation switches are subtractive: ``tw``
    off zeroes the decay strengths, ``se`` off makes frame weights uniform,
    channel switches drop that channel's hits, ``use_context`` off skips
    augmentation.
    """
    q = QueryRequest(query_text=question, video_id=runtime.video.video_id)
    request = decouple_query(runtime.lvlm, q)
    if not tw:
        decay = DecayParams(lambdas=(0.0, 0.0, 0.0), time_norm=decay.time_norm)

    asr_req = request.asr if use_asr else None
    ocr_req = request.ocr if use_ocr else None
    wanted = [
        (channel, req_text)
        for channel, req_text in ((Channel.ASR, asr_req), (Channel.OCR, ocr_req))
        if req_text is not None and channel in runtime.channels
    ]
    # One embed call: the frame query first, then each wanted channel's
    # request. The detector request drives frame similarity; fall back to
    # the raw question when decoupling marked detection NULL.
    frame_vec, *channel_vecs = runtime.embedder.embed(
        [request.det or question, *(req_text for _, req_text in wanted)]
    )
    frame_query_vec = normalize(frame_vec)
    sims = frame_similarities(runtime.frames, runtime.frame_index, frame_query_vec)
    keyframes = select_keyframes(
        runtime.frames,
        sims,
        SelectorConfig(
            max_frames=selector_cfg.max_frames, sim_threshold=tau, n_bins=selector_cfg.n_bins
        ),
        duration_s=runtime.video.duration_s,
        entropy_weighted=se,
    )
    anchors = compute_anchors(runtime.frames, sims)

    hits: dict[Channel, list[ScoredSnippet]] = {Channel.ASR: [], Channel.OCR: []}
    for (channel, req_text), vec in zip(wanted, channel_vecs, strict=True):
        chan = runtime.channels[channel]
        hits[channel] = retrieve_channel(
            req_text,
            chan.bm25,
            chan.dense,
            anchors,
            decay,
            cfg,
            fusion,
            duration_s=runtime.video.duration_s,
            query_vec=normalize(vec),
            tau=tau,
        )

    detections = detect_on_keyframes(keyframes, runtime.detector)
    scene_graph = serialize_scene_graph(detections)

    if use_context:
        aq = augment_query(runtime.lvlm, q)
    else:
        aq = AugmentedQuery(original=question, reformulations=(), generated_context="")

    evidence = Evidence(
        asr_hits=tuple(hits[Channel.ASR]),
        ocr_hits=tuple(hits[Channel.OCR]),
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
        "flags": {"se": se, "tw": tw, "ocr": use_ocr, "asr": use_asr, "context": use_context},
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
    return PipelineResult(answer=out, bundle=bundle, trace=trace)
