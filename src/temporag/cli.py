"""Command-line surface: ingest, build, answer, eval.

Exit codes: 0 success, 1 usage or config error, 2 data error, 3 provider
error. All commands echo the effective configuration to stderr at startup
and keep stdout for their primary output.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .config import RunConfig, config_from_dict, load_config
from .errors import (
    ConfigError,
    DataError,
    ProviderUnavailableError,
    TemporagError,
)
from .evalharness import (
    AblationFlags,
    SyntheticSpec,
    aggregate_reports,
    gen_corpus,
    render_table,
    run_eval,
    sweep_threshold,
)
from .ingest import (
    detection_to_json,
    parse_detections_jsonl,
    parse_frames_jsonl,
    parse_snippet_jsonl,
    parse_srt,
    parse_vtt,
    write_snippet_jsonl,
)
from .pipeline import ChannelIndex, VideoRuntime, run_query
from .providers import (
    FixtureDetector,
    HttpDetector,
    HttpEmbeddingClient,
    HttpLvlmClient,
    StubDetector,
    StubLvlm,
)
from .textindex import build_index
from .textindex import load_index as load_bm25
from .textindex import save_index as save_bm25
from .types import Channel, FrameRecord, Snippet, VideoRecord, validate_snippet
from .vectorindex import (
    FlatVectorIndex,
    HashEmbedder,
    PrecomputedEmbeddings,
    normalize,
    save_vectors,
)
from .vectorindex import load_index as load_vec_index

CHANNEL_FILES = {Channel.ASR: "asr.jsonl", Channel.OCR: "ocr.jsonl"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise ConfigError(message)


def _write_jsonl(path: Path, lines) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _frame_ref(frame_index: int) -> str:
    return f"frame-{frame_index:05d}"


def _echo_config(cfg: RunConfig) -> None:
    print(f"effective config: {json.dumps(cfg.to_dict(), sort_keys=True)}", file=sys.stderr)


def _load_effective_config(args) -> RunConfig:
    cfg = load_config(getattr(args, "config", None))
    overrides = {}
    if getattr(args, "tau", None) is not None:
        overrides["tau"] = args.tau
    if getattr(args, "lambdas", None) is not None:
        parts = args.lambdas.split(",")
        if len(parts) != 3:
            raise ConfigError("--lambda expects three comma-separated values")
        try:
            l0, l1, l2 = (float(p) for p in parts)
        except ValueError:
            raise ConfigError("--lambda values must be numbers") from None
        overrides.update({"lambda0": l0, "lambda1": l1, "lambda2": l2})
    if getattr(args, "topk", None) is not None:
        overrides["top_k"] = args.topk
    if getattr(args, "pool_mult", None) is not None:
        overrides["pool_multiplier"] = args.pool_mult
    if getattr(args, "fusion", None) is not None:
        overrides["fusion"] = args.fusion
    if getattr(args, "budget", None) is not None:
        overrides["budget_tokens"] = args.budget
    if overrides:
        cfg = config_from_dict({**cfg.to_dict(), **overrides})
    _echo_config(cfg)
    return cfg


# --- ingest -------------------------------------------------------------------


def _classify_jsonl(data: bytes) -> str:
    """Detection files carry an "objects" key; snippet files a "channel" key."""
    for line in data.splitlines():
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except (UnicodeDecodeError, json.JSONDecodeError):
            return "snippets"  # let the tolerant parser report it
        if isinstance(obj, dict) and "objects" in obj:
            return "detections"
        return "snippets"
    return "snippets"


def cmd_ingest(args) -> int:
    video = VideoRecord(
        video_id=args.video_id, duration_s=args.duration_s, fps=args.fps
    )
    inputs: list[Path] = []
    for raw in args.inputs:
        p = Path(raw)
        if p.is_dir():
            inputs.extend(sorted(q for q in p.iterdir() if q.is_file()))
        else:
            inputs.append(p)
    if not inputs:
        print("error: no inputs", file=sys.stderr)
        return 2

    by_channel: dict[Channel, list[Snippet]] = {c: [] for c in Channel}
    detections = []
    file_errors: list[str] = []
    n_line_errors = 0
    n_dropped = 0
    for path in inputs:
        try:
            data = path.read_bytes()
            suffix = path.suffix.lower()
            if suffix == ".srt":
                snippets = parse_srt(data)
            elif suffix == ".vtt":
                snippets = parse_vtt(data)
            elif suffix == ".jsonl":
                if _classify_jsonl(data) == "detections":
                    records, errors = parse_detections_jsonl(data)
                    detections.extend(records)
                    n_line_errors += len(errors)
                    for line_no, msg in errors:
                        print(f"{path}:{line_no}: {msg}", file=sys.stderr)
                    continue
                report = parse_snippet_jsonl(data)
                snippets = report.snippets
                n_line_errors += len(report.errors)
                n_dropped += report.dropped_empty
                for line_no, msg in report.errors:
                    print(f"{path}:{line_no}: {msg}", file=sys.stderr)
            else:
                file_errors.append(f"{path}: unsupported input type")
                continue
        except TemporagError as exc:
            file_errors.append(f"{path}: {exc}")
            continue
        except OSError as exc:
            file_errors.append(f"{path}: cannot read ({exc.strerror})")
            continue
        for snippet in snippets:
            try:
                by_channel[snippet.channel].append(validate_snippet(snippet, video))
            except TemporagError as exc:
                n_line_errors += 1
                print(f"{path}: snippet {snippet.id}: {exc}", file=sys.stderr)

    frames = []
    if args.frames:
        try:
            frames, errors = parse_frames_jsonl(Path(args.frames).read_bytes(), video.duration_s)
        except OSError as exc:
            raise DataError(f"{args.frames}: cannot read ({exc.strerror})") from None
        except DataError as exc:
            raise DataError(f"{args.frames}: {exc}") from None
        n_line_errors += len(errors)
        for line_no, msg in errors:
            print(f"{args.frames}:{line_no}: {msg}", file=sys.stderr)

    for msg in file_errors:
        print(msg, file=sys.stderr)

    total = sum(len(v) for v in by_channel.values()) + len(detections)
    if total == 0:
        print("error: no data survived ingestion", file=sys.stderr)
        return 2

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_jsonl(out / "video.json", [json.dumps(asdict(video))])
    for channel, snippets in by_channel.items():
        if snippets:
            (out / CHANNEL_FILES[channel]).write_text(
                write_snippet_jsonl(snippets), encoding="utf-8"
            )
    if detections:
        _write_jsonl(out / "detections.jsonl", map(detection_to_json, detections))
    if frames:
        _write_jsonl(out / "frames.jsonl", map(json.dumps, frames))

    for channel in Channel:
        print(f"{channel.value}: {len(by_channel[channel])} snippets")
    print(f"detections: {len(detections)} records")
    print(f"frames: {len(frames)} records")
    print(f"line errors: {n_line_errors}, empty-text drops: {n_dropped}")
    return 0


# --- build ---------------------------------------------------------------------


def _make_embedder(cfg: RunConfig):
    """The live text embedder. ``file`` has none: it only looks up stored ids."""
    kind = cfg.providers.embed
    if kind == "hash":
        return HashEmbedder(cfg.providers.embed_dim, cfg.providers.embed_seed)
    if kind == "http":
        return HttpEmbeddingClient(base_url=cfg.providers.embed_url)
    raise ConfigError("providers.embed=file cannot embed new text; use hash or http")


def _embed_or_lookup(cfg: RunConfig, ids: list[str], texts: list[str]) -> list[np.ndarray]:
    if cfg.providers.embed == "file":
        if not cfg.providers.embeddings_file:
            raise ConfigError("providers.embed=file requires providers.embeddings_file")
        store = PrecomputedEmbeddings(cfg.providers.embeddings_file)
        return [normalize(v) for v in store.lookup(ids)]
    embedder = _make_embedder(cfg)
    return [normalize(v) for v in embedder.embed(texts)]


def _read_store_jsonl(path: Path, parse) -> list:
    """Parse one store file strictly: any failure is a DataError naming the path."""
    try:
        records, errors = parse(path.read_bytes())
    except OSError as exc:
        raise DataError(f"{path}: cannot read ({exc.strerror})") from None
    except TemporagError as exc:
        raise DataError(f"{path}: {exc}") from None
    if errors:
        line_no, msg = errors[0]
        raise DataError(f"{path}:{line_no}: {msg} ({len(errors)} bad lines; re-run ingest)")
    return records


def _read_store_snippets(store: Path, channel: Channel, video: VideoRecord) -> list[Snippet]:
    """A channel's store snippets, with finite times inside the video."""
    path = store / CHANNEL_FILES[channel]
    if not path.exists():
        return []

    def parse(data: bytes):
        report = parse_snippet_jsonl(data, expect_channel=channel)
        return report.snippets, report.errors

    snippets = _read_store_jsonl(path, parse)
    for s in snippets:
        if not 0.0 <= s.t_start <= s.t_end <= video.duration_s:  # NaN fails too
            raise DataError(
                f"{path}: snippet {s.id!r}: times [{s.t_start}, {s.t_end}] outside "
                f"0 <= t_start <= t_end <= {video.duration_s} (re-run ingest)"
            )
    return snippets


def _read_video(path: Path) -> VideoRecord:
    try:
        meta = json.loads(path.read_bytes())
        return VideoRecord(
            video_id=meta["video_id"], duration_s=meta["duration_s"], fps=meta.get("fps")
        )
    except (ValueError, KeyError, TypeError, AttributeError, DataError) as exc:
        raise DataError(f"{path}: bad video record ({exc})") from None


def _read_store_frames(store: Path, duration_s: float) -> list[dict]:
    path = store / "frames.jsonl"
    if not path.exists():
        return []
    return _read_store_jsonl(path, lambda data: parse_frames_jsonl(data, duration_s))


def cmd_build(args) -> int:
    cfg = _load_effective_config(args)
    store = Path(args.store)
    if not (store / "video.json").exists():
        raise DataError(f"{store}/video.json not found; run ingest first")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    video = _read_video(store / "video.json")
    _write_jsonl(out / "video.json", [json.dumps(asdict(video))])

    for channel in Channel:
        snippets = _read_store_snippets(store, channel, video)
        if not snippets:
            continue
        index = build_index(snippets)
        save_bm25(index, str(out / f"{channel.value}.bm25"))
        vectors = _embed_or_lookup(cfg, [s.id for s in snippets], [s.text for s in snippets])
        save_vectors(
            str(out / f"{channel.value}.vec"), [s.id for s in snippets], vectors, len(vectors[0])
        )
        print(f"{channel.value}: indexed {len(snippets)} snippets")

    frames = _read_store_frames(store, video.duration_s)
    if frames:
        _write_jsonl(out / "frames.jsonl", map(json.dumps, frames))
        with_text = [f for f in frames if f.get("text")]
        if with_text:
            ids = [_frame_ref(f["frame_index"]) for f in with_text]
            vectors = _embed_or_lookup(cfg, ids, [f["text"] for f in with_text])
            save_vectors(str(out / "frames.vec"), ids, vectors, len(vectors[0]))
        print(f"frames: {len(frames)} records, {len(with_text)} embedded")

    detections_path = store / "detections.jsonl"
    if detections_path.exists():
        _read_store_jsonl(detections_path, parse_detections_jsonl)  # checked, then copied
        shutil.copyfile(detections_path, out / "detections.jsonl")
    return 0


# --- answer --------------------------------------------------------------------


def _load_runtime(index_dir: Path, cfg: RunConfig) -> VideoRuntime:
    meta_path = index_dir / "video.json"
    if not meta_path.exists():
        raise DataError(f"{meta_path} not found; run build first")
    video = _read_video(meta_path)

    channels: dict[Channel, ChannelIndex] = {}
    for channel in Channel:
        bm25_path = index_dir / f"{channel.value}.bm25"
        if not bm25_path.exists():
            continue
        dense = load_vec_index(str(index_dir / f"{channel.value}.vec"))
        bm25 = load_bm25(str(bm25_path))
        if np.any(bm25.t_end > video.duration_s):
            raise DataError(
                f"{bm25_path}: a document ends at {float(bm25.t_end.max())}s, "
                f"after duration_s {video.duration_s} in {meta_path}"
            )
        channels[channel] = ChannelIndex(channel=channel, bm25=bm25, dense=dense)

    raw_frames = _read_store_frames(index_dir, video.duration_s)
    frames_vec_path = index_dir / "frames.vec"
    if frames_vec_path.exists():
        frame_index = load_vec_index(str(frames_vec_path))
    else:
        frame_index = FlatVectorIndex(cfg.providers.embed_dim)
    if raw_frames:
        frames = [
            FrameRecord(
                frame_index=f["frame_index"],
                t=f["t"],
                embedding_ref=(
                    _frame_ref(f["frame_index"])
                    if _frame_ref(f["frame_index"]) in frame_index
                    else None
                ),
            )
            for f in sorted(raw_frames, key=lambda f: (f["t"], f["frame_index"]))
        ]
    else:
        # No frame metadata: synthesize a uniform grid without embeddings,
        # one frame at t=0 when n_frames is 1.
        n = cfg.n_frames
        frames = [
            FrameRecord(frame_index=i, t=i * video.duration_s / max(n - 1, 1)) for i in range(n)
        ]

    if cfg.providers.lvlm == "stub":
        lvlm = StubLvlm()
    else:
        lvlm = HttpLvlmClient(base_url=cfg.providers.lvlm_url)
    embedder = _make_embedder(cfg)
    if cfg.providers.detector == "stub":
        detector = StubDetector()
    elif cfg.providers.detector == "http":
        detector = HttpDetector(base_url=cfg.providers.detector_url)
    else:
        fixture_path = Path(cfg.providers.fixtures_file or index_dir / "detections.jsonl")
        detector = FixtureDetector(_read_store_jsonl(fixture_path, parse_detections_jsonl))

    return VideoRuntime(
        video=video,
        frames=frames,
        frame_index=frame_index,
        channels=channels,
        lvlm=lvlm,
        embedder=embedder,
        detector=detector,
    )


def cmd_answer(args) -> int:
    cfg = _load_effective_config(args)
    runtime = _load_runtime(Path(args.index), cfg)
    result = run_query(
        runtime,
        args.query,
        selector_cfg=cfg.selector_config(),
        decay=cfg.decay_params(),
        cfg=cfg.rescore_config(),
        fusion=cfg.fusion_mode(),
        tau=cfg.tau,
        budget_tokens=cfg.budget_tokens,
        se=not args.no_se,
        tw=not args.no_tw,
        use_ocr=not args.no_ocr,
        use_asr=not args.no_asr,
        use_context=not args.no_context,
    )
    trace_json = json.dumps(result.trace, indent=2, ensure_ascii=False) + "\n"
    if args.trace:
        Path(args.trace).write_text(trace_json, encoding="utf-8")
    if args.json:
        print(json.dumps({"answer": result.answer, "trace": result.trace}, ensure_ascii=False))
    else:
        print(result.answer)
    return 0


# --- eval ----------------------------------------------------------------------

_SPEC_KEYS = {
    "seed",
    "duration_s",
    "n_snippets",
    "n_duplicates",
    "needle_time",
    "vocab_size",
    "query_terms",
    "n_frames",
}


def _load_spec(path: str | None) -> SyntheticSpec:
    if path is None:
        return SyntheticSpec(seed=0)
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    unknown = set(data) - _SPEC_KEYS
    if unknown:
        raise ConfigError(f"unknown spec keys: {', '.join(sorted(unknown))}")
    if "query_terms" in data:
        data["query_terms"] = tuple(data["query_terms"])
    return SyntheticSpec(**data)


def cmd_eval(args) -> int:
    cfg = _load_effective_config(args)
    base_spec = _load_spec(args.spec)
    flags = AblationFlags(
        se=not args.no_se,
        tw=not args.no_tw,
        ocr=not args.no_ocr,
        asr=not args.no_asr,
        context=not args.no_context,
    )
    seeds = [base_spec.seed + i for i in range(args.seeds)]
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    if args.sweep_tau:
        try:
            taus = [float(t) for t in args.sweep_tau.split(",")]
        except ValueError:
            raise ConfigError("--sweep-tau expects comma-separated numbers") from None
        rows = []
        payload = []
        for tau in taus:
            reports = []
            for seed in seeds:
                corpus = gen_corpus(replace(base_spec, seed=seed))
                reports.extend(
                    r for _, r in sweep_threshold(corpus, [tau], cfg, flags)
                )
            agg = aggregate_reports(reports)
            rows.append(
                {
                    "tau": tau,
                    "recall_at_1": agg["recall_at_1"]["mean"],
                    "tokens_retained": agg["tokens_retained"]["mean"],
                    "wall_time_ms": agg["wall_time_ms"]["mean"],
                }
            )
            payload.append({"tau": tau, "aggregate": agg})
        table = render_table(rows)
        print(table, end="")
        if out_dir:
            (out_dir / "sweep.json").write_text(
                json.dumps(payload, indent=2) + "\n", encoding="utf-8"
            )
            (out_dir / "sweep.txt").write_text(table, encoding="utf-8")
        return 0

    reports = []
    rows = []
    for seed in seeds:
        corpus = gen_corpus(replace(base_spec, seed=seed))
        report = run_eval(corpus, cfg, flags)
        reports.append(report)
        rows.append({"seed": seed, **report.to_dict()})
    agg = aggregate_reports(reports)
    table = render_table(rows)
    print(table, end="")
    print()
    agg_rows = [
        {"metric": name, "mean": stats["mean"], "stddev": stats["stddev"]}
        for name, stats in agg.items()
    ]
    print(render_table(agg_rows), end="")
    if out_dir:
        (out_dir / "report.json").write_text(
            json.dumps({"rows": rows, "aggregate": agg, "flags": asdict(flags)}, indent=2) + "\n",
            encoding="utf-8",
        )
        (out_dir / "report.txt").write_text(table, encoding="utf-8")
    return 0


# --- entry point ------------------------------------------------------------------


def _add_common_flags(p: argparse.ArgumentParser, ablation: bool = True) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--tau", type=float, help="acceptance threshold override")
    p.add_argument("--lambda", dest="lambdas", help="decay strengths, e.g. 1,1,1")
    p.add_argument("--topk", type=int, help="snippets kept per channel")
    p.add_argument("--pool-mult", type=int, help="candidate pool multiplier")
    p.add_argument("--fusion", choices=["lexical", "dense", "max_fuse"])
    p.add_argument("--budget", type=int, help="prompt token budget")
    if ablation:
        p.add_argument("--no-se", action="store_true", help="disable entropy weighting")
        p.add_argument("--no-tw", action="store_true", help="disable temporal decay")
        p.add_argument("--no-ocr", action="store_true", help="drop the OCR channel")
        p.add_argument("--no-asr", action="store_true", help="drop the ASR channel")
        p.add_argument("--no-context", action="store_true", help="skip query augmentation")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="temporag", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="parse raw inputs into channel stores")
    p_ingest.add_argument("inputs", nargs="+", help="SRT/VTT/JSONL files or directories")
    p_ingest.add_argument("--video-id", required=True)
    p_ingest.add_argument("--duration-s", type=float, required=True)
    p_ingest.add_argument("--fps", type=float)
    p_ingest.add_argument("--frames", help="frames JSONL (frame_index, t, optional text)")
    p_ingest.add_argument("--out", required=True)
    p_ingest.set_defaults(func=cmd_ingest)

    p_build = sub.add_parser("build", help="build lexical and dense indices")
    p_build.add_argument("--store", required=True, help="ingest output directory")
    p_build.add_argument("--out", required=True, help="index output directory")
    _add_common_flags(p_build, ablation=False)
    p_build.set_defaults(func=cmd_build)

    p_answer = sub.add_parser("answer", help="answer a question over a built index")
    p_answer.add_argument("--index", required=True)
    p_answer.add_argument("--query", required=True)
    p_answer.add_argument("--trace", help="write the JSON trace to this path")
    p_answer.add_argument("--json", action="store_true", help="print answer+trace as JSON")
    _add_common_flags(p_answer)
    p_answer.set_defaults(func=cmd_answer)

    p_eval = sub.add_parser("eval", help="run the synthetic-corpus evaluation")
    p_eval.add_argument("--spec", help="SyntheticSpec JSON (defaults to the bundled spec)")
    p_eval.add_argument("--seeds", type=int, default=1, help="number of seeds, from spec.seed")
    p_eval.add_argument("--sweep-tau", help="comma-separated thresholds to sweep")
    p_eval.add_argument("--out", help="directory for report files")
    _add_common_flags(p_eval)
    p_eval.set_defaults(func=cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ProviderUnavailableError as exc:
        print(f"provider error: {exc}", file=sys.stderr)
        return 3
    except TemporagError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
