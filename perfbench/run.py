"""meterwatch benchmark: seeded workloads driven from outside the program.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload analyze-year --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` the run is made twice,
untraced then traced, and the metrics are the per-layer ones.  A line
starting with `manifest ` precedes it.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import layers
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_p25_ms": "ms",
    "scripted_recall": "ratio",
}


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_times() -> list[int] | None:
    """Host-wide CPU time counters from /proc/stat (Linux), or None."""
    try:
        with open("/proc/stat", "r", encoding="ascii") as fh:
            return [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_pct(before: list[int] | None, after: list[int] | None) -> float | None:
    """Share of CPU time the hypervisor gave to other guests between two readings.

    Time metrics move with it; see "Why the lower quartile" in README.md.
    """
    if before is None or after is None or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return round(100.0 * delta[7] / sum(delta), 3) if sum(delta) > 0 else None


def latency_quantiles(result) -> dict:
    """The operation latency's quartile, median and 90th percentile, in ms."""
    lat = [s * 1000.0 for s in result.latencies_s]
    return {"p{}".format(q): layers.percentile(lat, q) for q in (25, 50, 90)}


def end_to_end(result) -> tuple[dict, dict]:
    """Metric values and their sample counts.

    The gated latency is the lower quartile: on a shared host, stalls from
    other tenants slow a varying share of operations, which moves the
    median and the tail from one run to the next far more than the
    quartile (see "Why the lower quartile" in README.md).
    """
    hit, total = result.recall
    values = {
        "setup_s": statistics.median(result.setup_s),
        "peak_rss_mb": result.peak_rss_mb,
        "latency_p25_ms": latency_quantiles(result)["p25"],
        "scripted_recall": hit / total if total else 0.0,
    }
    counts = {
        "setup_s": len(result.setup_s),
        "peak_rss_mb": 1,
        "latency_p25_ms": len(result.latencies_s),
        "scripted_recall": total,
    }
    return values, counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few weeks of data, for the smoke test")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that `finally` blocks stop the server under test.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "meterwatch" / "__init__.py").is_file():
        print("perfbench: no meterwatch sources at {}; run from a source checkout".format(SRC), file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    import inputs
    import workloads

    if args.workload not in workloads.RUNNERS:
        print("perfbench: unknown workload {!r}; choose from {}".format(args.workload, ", ".join(workloads.RUNNERS)),
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    size = workloads.SIZES[args.size]
    work = ROOT / ".bench_work" / "{}-{}-{}".format(args.workload, args.seed, os.getpid())
    work.mkdir(parents=True)
    runner = workloads.RUNNERS[args.workload]
    cpu_before = cpu_times()
    try:
        if args.trace:
            # Untraced then traced, each on half the time; the difference is the overhead.
            half = args.seconds / 2.0
            plain = runner(workloads.Context(ROOT, work / "plain", args.seed, half, size, tracing.NullRecorder()))
            rec = tracing.Recorder(op="bench")
            spans_file = work / "spans.ndjson"
            traced = runner(workloads.Context(ROOT, work / "traced", args.seed, half, size, rec, spans_file))
            metrics, counts = layers.per_layer(args.workload, plain, traced, rec.spans, tracing.load_spans(spans_file))
            passes = [plain, traced]
        else:
            result = runner(workloads.Context(ROOT, work, args.seed, args.seconds, size,
                                              tracing.NullRecorder(), setups=size["setups"]))
            metrics, counts = end_to_end(result)
            passes = [result]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    host_steal_pct = steal_pct(cpu_before, cpu_times())
    units = END_TO_END_UNITS if not args.trace else layers.UNITS

    problems = [p for r in passes for p in r.problems]
    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "size": args.size,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "host_steal_pct": host_steal_pct,
        "reading_rate_per_s": inputs.READING_RATE if args.workload == "stream-year" else None,
        "power_rate_per_s": inputs.POWER_RATE if args.workload == "stream-year" else None,
        "timed_s": [round(r.timed_s, 3) for r in passes],
        "latency_ms": [{k: round(v, 3) for k, v in latency_quantiles(r).items()} for r in passes],
        "sample_counts": counts,
        "problems": problems[:20],
    }
    print("manifest " + json.dumps(manifest, sort_keys=True))
    attempted = sum(r.attempted for r in passes)
    failed = sum(r.failed for r in passes)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
