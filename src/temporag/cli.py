"""Command-line surface: ingest, build, answer, eval.

Exit codes: 0 success, 1 usage or config error, 2 data error, 3 provider
error. All commands echo the effective configuration to stderr at startup
and keep stdout for their primary output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections.abc import Callable
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
    SyntheticSpec,
    aggregate_reports,
    gen_corpus,
    render_table,
    run_eval,
    sweep_threshold,
)
from .frames import FrameTable, load_frame_table, save_frame_table
from .ingest import (
    DetectionColumns,
    FrameColumns,
    parse_detections_jsonl,
    parse_frames_jsonl,
    parse_snippet_jsonl,
    parse_srt,
    parse_vtt,
)
from .pipeline import AblationFlags, VideoRuntime, run_query
from .providers import (
    FixtureDetector,
    HttpDetector,
    HttpEmbeddingClient,
    HttpLvlmClient,
    StubDetector,
    StubLvlm,
)
from .textindex import F4, Bm25Index, build_index
from .textindex import load_index as load_bm25
from .textindex import save_index as save_bm25
from .types import Channel, SnippetColumns, VideoRecord, is_finite_number, validate_snippets
from .vectorindex import EmbeddingProvider, HashEmbedder

FRAME_TABLE = "frames.tbl"
DETECTION_TABLE = "detections.tbl"
# Every file ingest may write. Ingest removes them all first, and the files
# of older stores, which build refuses: JSONL, then one snippet table per
# channel and the frame text table, which the .bm25 files and frames.tbl replaced.
STORE_FILES = frozenset({"video.json", "asr.bm25", "ocr.bm25", FRAME_TABLE, DETECTION_TABLE})
OLD_STORE_FILES = (
    "asr.jsonl", "ocr.jsonl", "frames.jsonl", "detections.jsonl", "asr.docs", "ocr.docs",
    "frames.docs",
)
# Every file build may write, and the .vec files that builds wrote before
# the frame table and the .bm25 files held the embeddings. Build removes
# them all first, so a rebuild leaves none of an earlier build's files behind.
INDEX_FILES = frozenset(
    {"video.json", FRAME_TABLE, "frames.vec", DETECTION_TABLE}
    | {f"{c.value}.{ext}" for c in Channel for ext in ("bm25", "vec")}
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise ConfigError(message)


def _write_video(path: Path, video: VideoRecord) -> None:
    path.write_text(json.dumps(asdict(video)) + "\n", encoding="utf-8")


def _echo_config(cfg: RunConfig) -> None:
    print(f"effective config: {json.dumps(cfg.to_dict(), sort_keys=True)}", file=sys.stderr)


def _load_effective_config(args) -> RunConfig:
    cfg = load_config(getattr(args, "config", None))
    # Each query flag but --lambda stores under the config key it overrides.
    overrides = {
        key: value
        for key in ("tau", "top_k", "pool_multiplier", "fusion", "budget_tokens")
        if (value := getattr(args, key, None)) is not None
    }
    if getattr(args, "lambdas", None) is not None:
        parts = args.lambdas.split(",")
        if len(parts) != 3:
            raise ConfigError("--lambda expects three comma-separated values")
        try:
            l0, l1, l2 = (float(p) for p in parts)
        except ValueError:
            raise ConfigError("--lambda values must be numbers") from None
        overrides.update({"lambda0": l0, "lambda1": l1, "lambda2": l2})
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
        except (ValueError, RecursionError):  # UnicodeDecodeError and JSONDecodeError too
            return "snippets"  # let the tolerant parser report it
        if isinstance(obj, dict) and "objects" in obj:
            return "detections"
        return "snippets"
    return "snippets"


def cmd_ingest(args) -> int:
    try:
        video = VideoRecord(video_id=args.video_id, duration_s=args.duration_s)
    except DataError as exc:  # both values come from flags
        raise ConfigError(str(exc)) from None
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

    parsed: list[SnippetColumns] = []
    parsed_detections: list[DetectionColumns] = []
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
                    parsed_detections.append(records)
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
        snippets, errors = validate_snippets(snippets, video)
        n_line_errors += len(errors)
        for snippet_id, msg in errors:
            print(f"{path}: snippet {snippet_id}: {msg}", file=sys.stderr)
        parsed.append(snippets)

    frames = FrameColumns(np.zeros(0, dtype=np.int64), np.zeros(0), [])
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

    snippets = SnippetColumns.concat(parsed)
    detections = DetectionColumns.concat(parsed_detections)
    if not len(snippets) and not len(detections):
        print("error: no data survived ingestion", file=sys.stderr)
        return 2
    by_channel = {channel: snippets.of_channel(channel) for channel in Channel}
    # The lexical index needs no config, so the store holds it. Both channels
    # are built before anything is written, so a duplicate id leaves no store.
    indices = [build_index(docs) for docs in by_channel.values() if len(docs)]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name in STORE_FILES.union(OLD_STORE_FILES):
        (out / name).unlink(missing_ok=True)
    _write_video(out / "video.json", video)
    for index in indices:
        save_bm25(index, str(out / f"{index.channel.value}.bm25"))
    if len(detections):
        FixtureDetector.from_columns(detections).save(str(out / DETECTION_TABLE))
    if len(frames):
        order = np.lexsort((frames.frame_index, frames.t))  # by (t, frame_index), which is unique
        texts = [frames.texts[i] for i in order.tolist()]
        save_frame_table(str(out / FRAME_TABLE), frames.frame_index[order], frames.t[order], texts)

    for channel in Channel:
        print(f"{channel.value}: {len(by_channel[channel])} snippets")
    print(f"detections: {len(detections)} records")
    print(f"frames: {len(frames)} records")
    print(f"line errors: {n_line_errors}, empty-text drops: {n_dropped}")
    return 0


# --- build ---------------------------------------------------------------------


def _make_embedder(cfg: RunConfig):
    """The text embedder ``providers.embed`` names."""
    if cfg.providers.embed == "hash":
        return HashEmbedder(cfg.providers.embed_dim, cfg.providers.embed_seed)
    return HttpEmbeddingClient(base_url=cfg.providers.embed_url)


def _read_video(path: Path) -> VideoRecord:
    try:
        meta = json.loads(path.read_bytes())
        return VideoRecord(video_id=meta["video_id"], duration_s=meta["duration_s"])
    except (ValueError, RecursionError, KeyError, TypeError, AttributeError, DataError) as exc:
        raise DataError(f"{path}: bad video record ({exc})") from None


def _load_channel(path: Path, channel: Channel, duration_s: float) -> Bm25Index:
    """The ``.bm25`` file of ``channel``; one that holds another channel is a ``DataError``."""
    index = load_bm25(str(path), duration_s)
    if index.channel != channel:
        raise DataError(
            f"{path}: truncated or corrupt index "
            f"(channel tag {index.channel.value!r}, expected {channel.value!r})"
        )
    return index


def _build_channel(
    store: Path,
    out: Path,
    channel: Channel,
    video: VideoRecord,
    embedder: Callable[[], EmbeddingProvider],
) -> None:
    """Add the dense rows to one channel's store index, if it has one; they die on return."""
    path = store / f"{channel.value}.bm25"
    if not path.exists():
        return
    index = _load_channel(path, channel, video.duration_s)
    # The rows are in position order, the order of the texts.
    index.vectors = embedder().embed(index.texts.decode_all()).astype(F4)
    save_bm25(index, str(out / f"{channel.value}.bm25"))
    print(f"{channel.value}: indexed {index.n_docs} snippets")


def cmd_build(args) -> int:
    cfg = _load_effective_config(args)
    store = Path(args.store)
    if not (store / "video.json").exists():
        raise DataError(f"{store}/video.json not found; run ingest first")
    old = [name for name in OLD_STORE_FILES if (store / name).exists()]
    if old:
        raise DataError(f"{store / old[0]}: a store file of an older ingest; run ingest again")
    out = Path(args.out)
    if out.resolve() == store.resolve():
        raise ConfigError("--out must not be the --store directory: build replaces its files")
    out.mkdir(parents=True, exist_ok=True)

    video = _read_video(store / "video.json")
    for name in INDEX_FILES:
        (out / name).unlink(missing_ok=True)
    _write_video(out / "video.json", video)

    # One embedder serves the channels and the frames, so a hash build draws
    # each distinct token once. It is made at the first text to embed: a
    # store with nothing to embed needs none.
    embedder = functools.cache(functools.partial(_make_embedder, cfg))
    for channel in Channel:
        _build_channel(store, out, channel, video, embedder)

    # Like a channel's .bm25: the store's frame table, with the rows attached.
    frames = FrameTable([], [])
    if (store / FRAME_TABLE).exists():
        frames = load_frame_table(str(store / FRAME_TABLE), video.duration_s)
    with_text = [text for text in frames.texts if text]
    vectors = ()
    if with_text:
        vectors = embedder().embed(with_text)
    save_frame_table(str(out / FRAME_TABLE), frames.frame_index, frames.t, frames.texts, vectors)
    print(f"frames: {len(frames)} records, {len(with_text)} embedded")

    if (store / DETECTION_TABLE).exists():
        FixtureDetector.load(str(store / DETECTION_TABLE)).save(str(out / DETECTION_TABLE))
    return 0


# --- answer --------------------------------------------------------------------


def _ablation_flags(args) -> AblationFlags:
    return AblationFlags(
        **{name: not getattr(args, f"no_{name}") for name in ("se", "tw", "ocr", "asr", "context")}
    )


def _check_dims(dims: dict[Path, int], dim: int) -> None:
    """A ``DataError`` naming the first index file whose rows are not ``dim`` wide."""
    for path, file_dim in dims.items():
        if file_dim != dim:
            raise DataError(
                f"{path}: built with embedding dim {file_dim}, but the configured embedder "
                f"gives dim {dim}; rebuild the index with this config"
            )


class _DimCheckedEmbedder:
    """An embedder whose vectors must be as wide as the index files' rows.

    Only a hash embedder's dim is known before it embeds; this one's is
    checked on the width of every call's rows, before any similarity.
    """

    def __init__(self, embedder, dims: dict[Path, int]):
        self._embedder = embedder
        self._dims = dims

    def embed(self, texts):
        vectors = self._embedder.embed(texts)
        if len(vectors):
            _check_dims(self._dims, vectors.shape[1])
        return vectors


def _load_runtime(index_dir: Path, cfg: RunConfig) -> VideoRuntime:
    meta_path = index_dir / "video.json"
    if not meta_path.exists():
        raise DataError(f"{meta_path} not found; run build first")
    video = _read_video(meta_path)

    channels: dict[Channel, Bm25Index] = {}
    for channel in Channel:
        bm25_path = index_dir / f"{channel.value}.bm25"
        if bm25_path.exists():
            index = _load_channel(bm25_path, channel, video.duration_s)
            if index.n_docs and not index.dim:  # a store file: no fusion mode can use it
                raise DataError(f"{bm25_path}: no dense rows; run build on this store")
            channels[channel] = index

    frame_table_path = index_dir / FRAME_TABLE
    if not frame_table_path.exists():
        raise DataError(f"{frame_table_path} not found; re-run build")
    frames = load_frame_table(str(frame_table_path), video.duration_s)
    if len(frames.matrix) and not frames.matrix.shape[1]:  # a store file
        raise DataError(f"{frame_table_path}: no dense rows; run build on this store")

    if cfg.providers.lvlm == "stub":
        lvlm = StubLvlm()
    else:
        lvlm = HttpLvlmClient(base_url=cfg.providers.lvlm_url)
    embedder = _make_embedder(cfg)
    dims = {index_dir / f"{c.value}.bm25": bm25.dim for c, bm25 in channels.items() if bm25.dim}
    if len(frames.matrix):
        dims[frame_table_path] = frames.matrix.shape[1]
    if cfg.providers.embed == "hash":
        _check_dims(dims, cfg.providers.embed_dim)
    elif dims:
        embedder = _DimCheckedEmbedder(embedder, dims)
    if cfg.providers.detector == "stub":
        detector = StubDetector()
    elif cfg.providers.detector == "http":
        detector = HttpDetector(base_url=cfg.providers.detector_url)
    else:
        table_path = index_dir / DETECTION_TABLE
        if not table_path.exists():
            raise DataError(
                f"{table_path} not found; build copies it from the store's detections.tbl"
            )
        detector = FixtureDetector.load(str(table_path))

    return VideoRuntime(
        video=video,
        frames=frames,
        channels=channels,
        lvlm=lvlm,
        embedder=embedder,
        detector=detector,
    )


def cmd_answer(args) -> int:
    cfg = _load_effective_config(args)
    if not args.query.strip():
        raise ConfigError("query_text must be non-empty")
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
        flags=_ablation_flags(args),
    )
    if args.trace:
        Path(args.trace).write_text(
            json.dumps(result.trace, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
        )
    if args.json:
        print(json.dumps({"answer": result.answer, "trace": result.trace}, ensure_ascii=False))
    else:
        print(result.answer)
    return 0


# --- eval ----------------------------------------------------------------------

_SPEC_INTS = ("seed", "n_snippets", "n_duplicates", "vocab_size", "n_frames")
_SPEC_NUMBERS = ("duration_s", "needle_time")


def _load_spec(path: str | None) -> SyntheticSpec:
    if path is None:
        return SyntheticSpec()
    try:
        data = json.loads(Path(path).read_bytes())
    except OSError as exc:
        raise ConfigError(f"spec {path}: cannot read ({exc.strerror})") from None
    except (ValueError, RecursionError) as exc:  # also UnicodeDecodeError
        raise ConfigError(f"spec {path}: not valid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ConfigError(f"spec {path}: not a JSON object")
    unknown = set(data) - {*_SPEC_INTS, *_SPEC_NUMBERS, "query_terms"}
    if unknown:
        raise ConfigError(f"unknown spec keys: {', '.join(sorted(unknown))}")
    for key, value in data.items():
        if key in _SPEC_INTS:
            ok = type(value) is int and value >= 0
        elif key in _SPEC_NUMBERS:
            ok = is_finite_number(value) or (key == "needle_time" and value is None)
        else:
            ok = isinstance(value, list) and all(isinstance(t, str) for t in value)
        if not ok:
            raise ConfigError(f"spec {path}: bad {key} {value!r}")
    if "query_terms" in data:
        data["query_terms"] = tuple(data["query_terms"])
    try:
        spec = SyntheticSpec(**data)
    except DataError as exc:
        raise ConfigError(f"spec {path}: {exc}") from None
    return spec


def cmd_eval(args) -> int:
    cfg = _load_effective_config(args)
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be at least 1, got {args.seeds}")
    base_spec = _load_spec(args.spec)
    flags = _ablation_flags(args)
    seeds = [base_spec.seed + i for i in range(args.seeds)]
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    if args.sweep_tau:
        try:
            taus = [float(t) for t in args.sweep_tau.split(",")]
        except ValueError:
            raise ConfigError("--sweep-tau expects comma-separated numbers") from None
        # One corpus and runtime per seed, shared by every tau, in the order given.
        sweeps = [
            sweep_threshold(gen_corpus(replace(base_spec, seed=seed)), taus, cfg, flags)
            for seed in seeds
        ]
        payload = [
            {"tau": tau, "aggregate": aggregate_reports([report for _, report in results])}
            for tau, results in zip(taus, zip(*sweeps))
        ]
        means = ("recall_at_1", "tokens_retained", "wall_time_ms")
        table = render_table(
            [{"tau": p["tau"], **{m: p["aggregate"][m]["mean"] for m in means}} for p in payload]
        )
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


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--tau", type=float, help="acceptance threshold override")
    p.add_argument("--lambda", dest="lambdas", help="decay strengths, e.g. 1,1,1")
    p.add_argument("--topk", dest="top_k", metavar="TOPK", type=int,
                   help="snippets kept per channel")
    p.add_argument("--pool-mult", dest="pool_multiplier", metavar="POOL_MULT", type=int,
                   help="candidate pool multiplier")
    p.add_argument("--fusion", choices=["lexical", "dense", "max_fuse"])
    p.add_argument("--budget", dest="budget_tokens", metavar="BUDGET", type=int,
                   help="prompt token budget")
    p.add_argument("--no-se", action="store_true", help="disable entropy weighting")
    p.add_argument("--no-tw", action="store_true", help="disable temporal decay")
    p.add_argument("--no-ocr", action="store_true", help="drop the OCR channel")
    p.add_argument("--no-asr", action="store_true", help="drop the ASR channel")
    p.add_argument("--no-context", action="store_true", help="skip query augmentation")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="temporag", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser(
        "ingest", help="parse raw inputs into a store: lexical indices, frame and detection tables"
    )
    p_ingest.add_argument("inputs", nargs="+", help="SRT/VTT/JSONL files or directories")
    p_ingest.add_argument("--video-id", required=True)
    p_ingest.add_argument("--duration-s", type=float, required=True)
    p_ingest.add_argument("--frames", help="frames JSONL (frame_index, t, optional text)")
    p_ingest.add_argument("--out", required=True)

    p_build = sub.add_parser("build", help="embed a store's snippets and frames into an index")
    p_build.add_argument("--store", required=True, help="ingest output directory")
    p_build.add_argument("--out", required=True, help="index output directory")
    p_build.add_argument("--config", help="JSON config file; only its providers are read")

    p_answer = sub.add_parser("answer", help="answer a question over a built index")
    p_answer.add_argument("--index", required=True)
    p_answer.add_argument("--query", required=True)
    p_answer.add_argument("--trace", help="write the JSON trace to this path")
    p_answer.add_argument("--json", action="store_true", help="print answer+trace as JSON")
    _add_common_flags(p_answer)

    p_eval = sub.add_parser("eval", help="run the synthetic-corpus evaluation")
    p_eval.add_argument("--spec", help="SyntheticSpec JSON (defaults to the bundled spec)")
    p_eval.add_argument("--seeds", type=int, default=1, help="number of seeds, from spec.seed")
    p_eval.add_argument("--sweep-tau", help="comma-separated thresholds to sweep")
    p_eval.add_argument("--out", help="directory for report files")
    _add_common_flags(p_eval)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        # Looked up per call, so a command replaced on the module is the one run.
        return globals()[f"cmd_{args.command}"](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ProviderUnavailableError as exc:
        print(f"provider error: {exc}", file=sys.stderr)
        return 3
    except TemporagError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a path the command cannot read or write
        # A write that fails after its open (a full disk) names no path.
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"data error: {where}{exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
