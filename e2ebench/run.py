"""End-to-end benchmark of temporag on seeded synthetic videos.

Run from the repository root:

    python3 e2ebench/run.py --workload cold_answer --seed 1 --seconds 40 --trace 0

Workloads: long_video, short_clips, cold_answer (see workloads.py), or
``all`` to run the three in turn, each ending in its own result line. With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it traces every layer and reports the per-layer metrics, with spans
written to ``.e2ebench_out/``. Scratch files go to ``.e2ebench_work/`` and
are removed at exit.

Each workload prints two lines on stdout. The first is a JSON report for
people: the host,
the workload's shape and why it was chosen, the metrics under the names
the workloads were designed with (``query_p50_ms``, ``answer_p90_ms``,
``error_rate``, ...) and a digest of every prompt bundle's sha256, equal
on two runs or two commits that produce the same output for the seed.
The second is the result: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "index_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def host_info() -> dict:
    import numpy

    try:
        from temporag._kernels import USING_NUMBA
    except ImportError:  # a build without the optional kernel module
        USING_NUMBA = False
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "using_numba": USING_NUMBA,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "temporag" / "__init__.py").is_file():
        print(f"error: temporag sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in workloads.WORKLOADS:
            print(f"error: unknown workload {name!r}", file=sys.stderr)
            return 2
        try:
            report = workloads.run_workload(name, args.seed, args.seconds, bool(args.trace), ROOT)
        except workloads.SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        report["host"] = host_info()
        print(json.dumps(report, sort_keys=True))
        print(json.dumps(result_line(report, bool(args.trace))), flush=True)
    return 0


def result_line(report: dict, trace: bool) -> dict:
    """The machine-read result: every per-layer metric traced, else every end-to-end one."""
    if trace:
        metrics = {
            name: {"value": value, "unit": per_layer_unit(name)}
            for name, value in report["per_layer"].items()
        }
    else:
        metrics = {
            name: {"value": report["end_to_end"][name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
