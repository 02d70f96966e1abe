"""A plain-Python reference of how one channel's retrieval composes, and of the anchors.

``reference_channel`` restates the README's rules with dicts, ``sorted``
and ``math``: BM25 over the tokenized texts, the 3K pool cut, the dense
filter before rescoring, the min-max fusion, the decay normalized over the
pool in log space, and the ``(-score, t_mid, id)`` top-K. Of ``textindex``
it reads only ``tokenize``; ``build_index`` builds the code's side. A rule
the code changes by mistake fails the comparison here, and a deliberate
change shows up as one edit to the reference.

The dense rows and the query hold multiples of 1/2 in four columns, so
every inner product is exact in any summation order and a similarity
tied with ``tau`` is tied in both.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from temporag.frames import FrameTable
from temporag.pipeline import FusionMode, retrieve_channel
from temporag.rescore import AnchorSet, DecayParams, RescoreConfig, TimeNorm, compute_anchors
from temporag.textindex import F4, build_index, tokenize
from temporag.types import Channel, snippet_columns

from conftest import make_snippet

K1, B = 1.2, 0.75  # Okapi's usual constants, not read from the code under test


def bm25(docs: list[dict], query: str) -> dict[str, float]:
    """Each matching document's Okapi score, its terms summed in query-token order."""
    tokens = {d["id"]: tokenize(d["text"]) for d in docs}
    n = len(docs)
    avg_dl = sum(map(len, tokens.values())) / n
    scores: dict[str, float] = {}
    for token in tokenize(query):
        df = sum(token in toks for toks in tokens.values())
        if not df:
            continue
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        for doc_id, toks in tokens.items():
            tf = toks.count(token)
            if tf:
                norm = K1 * (1.0 - B + B * len(toks) / avg_dl)
                scores[doc_id] = scores.get(doc_id, 0.0) + idf * tf * (K1 + 1.0) / (tf + norm)
    return scores


def best(scores: dict[str, float], k: int) -> list[str]:
    """The ``k`` ids of highest score, ties by ascending id."""
    return sorted(scores, key=lambda i: (-scores[i], i))[:k]


def min_max(scores: dict[str, float]) -> dict[str, float]:
    if not scores:
        return {}
    low, high = min(scores.values()), max(scores.values())
    if high <= low:
        return dict.fromkeys(scores, 1.0)
    return {i: (s - low) / (high - low) for i, s in scores.items()}


def t_mid(doc: dict) -> float:
    mid = (doc["t_start"] + doc["t_end"]) / 2.0
    return mid if math.isfinite(mid) else doc["t_start"] / 2.0 + doc["t_end"] / 2.0


def decayed(raw: dict[str, float], times: dict[str, float], anchors, lambdas, scale):
    """Each candidate's normalized score and decay, the normalization taken in log space.

    The exponent ``E = sum_k lambda_k |a_k / scale - t / scale|`` is summed
    in the code's operation order, so both see its same bits. Scores are
    ``exp(x_i - logsumexp(x))`` with ``x_i = log raw_i - (E_i - E_min)``,
    ``E_min`` the least exponent of a positive raw score. When every such
    exponent is past the float range, ``E_i - E_min`` is the limit as the
    strengths grow: the strengths in units of the largest, over quarter
    distances, scaled back. Some raw score is positive.
    """

    def exponent(i: str, strengths, part: float = 1.0) -> float:
        return sum(
            lam * (abs(a / scale - times[i] / scale) * part) for lam, a in zip(strengths, anchors)
        )

    exponents = {i: exponent(i, lambdas) for i in raw}
    least = min(e for i, e in exponents.items() if raw[i] > 0.0)
    if least < math.inf:
        shifted = {i: e - least for i, e in exponents.items()}
    else:
        top = max(lambdas)
        e = {i: exponent(i, [lam / top for lam in lambdas], 0.25) for i in raw}
        e_least = min(v for i, v in e.items() if raw[i] > 0.0)
        shifted = {i: top * (4 * (v - e_least)) for i, v in e.items()}
    x = {i: math.log(r) - shifted[i] if r > 0.0 else -math.inf for i, r in raw.items()}
    peak = max(x.values())
    log_total = peak + math.log(math.fsum(math.exp(v - peak) for v in x.values()))
    return (
        {i: math.exp(v - log_total) for i, v in x.items()},
        {i: math.exp(-e) for i, e in exponents.items()},
    )


def reference_channel(docs, query, query_vec, anchors, lambdas, time_norm, duration, top_k,
                      pool_multiplier, fusion, tau):
    """(id, raw, decay, score) of each top-K hit, best first, as the README states the rules."""
    pool_size = top_k * pool_multiplier
    sims = {d["id"]: sum(a * b for a, b in zip(d["vec"], query_vec)) for d in docs}
    dense = {i: s for i, s in sims.items() if s >= tau}
    if fusion is FusionMode.LEXICAL:
        lexical = bm25(docs, query)
        raw = {i: lexical[i] for i in best(lexical, pool_size) if sims[i] >= tau}
    elif fusion is FusionMode.DENSE:
        raw = {i: max(dense[i], 0.0) for i in best(dense, pool_size)}
    else:
        lexical = bm25(docs, query)
        lex = min_max({i: lexical[i] for i in best(lexical, pool_size)})
        den = min_max({i: dense[i] for i in best(dense, pool_size)})
        fused = {i: max(lex.get(i, 0.0), den.get(i, 0.0)) for i in lex | den if sims[i] >= tau}
        raw = {i: fused[i] for i in best(fused, pool_size)}
    if not any(r > 0.0 for r in raw.values()):  # empty, or a dense pool of similarities <= 0
        return []
    times = {d["id"]: t_mid(d) for d in docs}
    scale = duration if time_norm is TimeNorm.NORMALIZED_BY_DURATION else 1.0
    score, decay = decayed(raw, times, anchors, lambdas, scale)
    ranked = sorted(raw, key=lambda i: (-score[i], times[i], i))[:top_k]
    return [(i, raw[i], decay[i], score[i]) for i in ranked]


def reference_anchors(times, embedded, sims, duration):
    """(t_last, t_first, t_semantic): the earliest embedded frame of greatest similarity."""
    if not times:
        return (duration, 0.0, 0.0)
    best_sim, semantic = -math.inf, times[0]
    for t, has_vector, sim in zip(times, embedded, sims):
        if has_vector and sim > best_sim:  # NaN and -inf never win
            best_sim, semantic = sim, t
    return (times[-1], times[0], semantic)


WORDS = ["a", "b", "c", "d", "!"]  # "!" tokenizes to nothing
HALVES = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])
FRACTIONS = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
STRENGTHS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1e3), st.floats(0.0, 1e300))


@st.composite
def corpora(draw):
    ids = draw(st.lists(st.text("xyz", min_size=1, max_size=3), min_size=1, max_size=10,
                        unique=True))
    docs = []
    for doc_id in ids:
        start, end = sorted(draw(st.tuples(FRACTIONS, FRACTIONS)))
        docs.append({
            "id": doc_id,
            "text": " ".join(draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=5))),
            "start": start,
            "end": end,
            "vec": draw(st.lists(HALVES, min_size=4, max_size=4)),
        })
    return docs


@settings(max_examples=300, deadline=None)
@given(
    docs=corpora(),
    query=st.lists(st.sampled_from(["a", "b", "c", "d", "zz"]), min_size=1, max_size=3),
    query_vec=st.lists(HALVES, min_size=4, max_size=4),
    duration=st.one_of(st.floats(1.0, 1e4), st.floats(1e300, 1.7e308)),
    anchor_fractions=st.tuples(FRACTIONS, FRACTIONS, FRACTIONS),
    lambdas=st.tuples(STRENGTHS, STRENGTHS, STRENGTHS),
    time_norm=st.sampled_from(TimeNorm),
    top_k=st.integers(1, 4),
    pool_multiplier=st.integers(1, 3),
    fusion=st.sampled_from(FusionMode),
    tau=st.sampled_from([-1.0, -0.25, 0.0, 0.25, 0.5, 1.0]),
)
def test_retrieve_channel_matches_the_reference(docs, query, query_vec, duration,
                                                anchor_fractions, lambdas, time_norm, top_k,
                                                pool_multiplier, fusion, tau):
    for doc in docs:
        doc["t_start"], doc["t_end"] = doc["start"] * duration, doc["end"] * duration
    anchors = AnchorSet(*(f * duration for f in anchor_fractions))
    index = build_index(snippet_columns(
        [make_snippet(d["id"], d["text"], d["t_start"], d["t_end"]) for d in docs]
    ))
    by_id = {d["id"]: d["vec"] for d in docs}
    index.vectors = np.array([by_id[i] for i in index.doc_ids], dtype=F4)
    query_text = " ".join(query)
    args = (docs, query_text, query_vec, anchors.as_tuple(), lambdas, time_norm, duration, top_k,
            pool_multiplier, fusion, tau)
    want = reference_channel(*args)
    got = retrieve_channel(query_text, index, anchors, DecayParams(lambdas, time_norm),
                           RescoreConfig(top_k, pool_multiplier), fusion, duration_s=duration,
                           query_vec=np.array(query_vec), tau=tau).hits
    assert [h.snippet.id for h in got] == [i for i, *_ in want]
    assert all(h.snippet.channel is Channel.ASR for h in got)
    for h, (_, raw, decay, score) in zip(got, want):
        assert h.raw_score == raw
        assert abs(h.decay - decay) <= 1e-12
        assert abs(h.score - score) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(
    frames=st.lists(
        st.tuples(st.floats(0.0, 100.0), st.booleans(),
                  st.sampled_from([-math.inf, math.nan, -1.0, 0.0, 0.5, 1.0, 5.0])),
        max_size=8,
    ),
    duration=st.floats(100.0, 1e4),
)
def test_compute_anchors_matches_the_reference(frames, duration):
    frames.sort(key=lambda f: f[0])
    times = [t for t, _, _ in frames]
    embedded = [e for _, e, _ in frames]
    sims = [s for _, _, s in frames]
    table = FrameTable(range(len(times)), times, embedded, np.ones((sum(embedded), 2)))
    got = compute_anchors(table, sims, duration)
    assert got.as_tuple() == reference_anchors(times, embedded, sims, duration)
