"""Measure meterwatch's anomaly ranking against the simulator's ground truth.

Usage:
    python tools/recall.py SRC

SRC is a directory holding a ``meterwatch`` package (a checkout's ``src``).
For every span (30 and 365 days), script layout and seed (1-10), the
script runs, in its own temporary directory and with relative paths only,

    meterwatch simulate --days SPAN --seed SEED --scripts scripts.json --out sim
    meterwatch analyze sim/S1_readings.csv ... sim/S4_readings.csv --seed SEED --out analysis

The layouts (day offsets from the simulated period's start):

- ``casestudy``: ``meterwatch casestudy``'s own scripts (the CLI's
  ``CASESTUDY_SCRIPT_OFFSETS``): S1 has one day of three kinds, S2 a
  two-day full absence;
- ``pairs`` (``PAIRS_LAYOUT``): each kind on two adjacent days, one kind
  per persona.

From the files these write (``sim/*_truth.json`` and each meter's
``anomaly_report.json``, ``cluster_model.json``, ``cluster_summary.json``
and ``k_selection.json``) it prints, for each scripted day, its rank among
the ranked days, score, the report's threshold, whether it is flagged,
and its assigned cluster with that cluster's size; and for each meter the
recommended k and how many days without a script are flagged.  A summary
counts, per span, layout, meter and kind, the seeds in which the scripted
days were flagged.  The script only reads what the CLI writes, so it
changes no output.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

PERSONAS = ["S{}".format(i) for i in range(1, 5)]
KINDS = ("absence-morning", "shifted-morning", "evening-baking", "full-absence")
SEEDS = range(1, 11)
SPANS = (30, 365)
PAIRS_LAYOUT = {persona: ((kind, 11), (kind, 12)) for persona, kind in zip(PERSONAS, KINDS)}


def casestudy_layout(env: dict) -> dict:
    """The CLI's ``CASESTUDY_SCRIPT_OFFSETS``, read from the package under test."""
    code = "import json; from meterwatch.cli import CASESTUDY_SCRIPT_OFFSETS as o; print(json.dumps(o))"
    return json.loads(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True).stdout)


def run_cli(args: list[str], cwd: Path, env: dict) -> None:
    done = subprocess.run([sys.executable, "-m", "meterwatch.cli", *args], cwd=cwd, env=env, capture_output=True)
    if done.returncode != 0:
        raise SystemExit("meterwatch {} failed ({}):\n{}".format(" ".join(args), done.returncode, done.stderr.decode()))


def read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def measure(run_dir: Path, env: dict, span: int, layout: dict, seed: int) -> dict:
    """Simulate and analyse one span, layout and seed; per meter, its
    recommended k, scripted days and unscripted flagged-day count."""
    run_dir.mkdir(parents=True)
    scripts = {p: [{"kind": kind, "day_offset": offset} for kind, offset in entries] for p, entries in layout.items()}
    (run_dir / "scripts.json").write_text(json.dumps(scripts), encoding="utf-8")
    run_cli(["simulate", "--days", str(span), "--seed", str(seed), "--scripts", "scripts.json", "--out", "sim"],
            run_dir, env)
    readings = ["sim/{}_readings.csv".format(p) for p in PERSONAS]
    run_cli(["analyze", *readings, "--seed", str(seed), "--out", "analysis"], run_dir, env)
    meters = {}
    for persona in PERSONAS:
        labels = read_json(run_dir / "sim" / "{}_truth.json".format(persona))["labels"]
        out = run_dir / "analysis" / persona
        report = read_json(out / "anomaly_report.json")
        assignments = read_json(out / "cluster_model.json")["assignments"]
        counts = read_json(out / "cluster_summary.json")["counts"]
        flagged = set(report["flagged"])
        ranks = {day: rank for rank, day in enumerate(report["ranked_days"], start=1)}
        scripted = {day: kind for day, kind in labels.items() if kind in KINDS}
        days = []
        for day, kind in sorted(scripted.items()):
            cluster = assignments.get(day)
            days.append({
                "day": day, "kind": kind, "rank": ranks.get(day), "ranked": len(ranks),
                "score": report["scores"].get(day), "threshold": report["threshold"], "flagged": day in flagged,
                "cluster": cluster, "cluster_size": None if cluster is None else counts[cluster],
            })
        meters[persona] = {
            "k": read_json(out / "k_selection.json")["recommended_k"],
            "unscripted_flagged": len(flagged - scripted.keys()),
            "days": days,
        }
    return meters


def day_line(d: dict) -> str:
    if d["rank"] is None:
        return "    {} {:<15} not profiled".format(d["day"], d["kind"])
    return "    {} {:<15} rank {:>3}/{:<3} score {:>10.1f} threshold {:>10.1f} {:<9} cluster {} (size {})".format(
        d["day"], d["kind"], d["rank"], d["ranked"], d["score"], d["threshold"],
        "flagged" if d["flagged"] else "unflagged", d["cluster"], d["cluster_size"],
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=Path)
    args = parser.parse_args()
    if not (args.src / "meterwatch" / "cli.py").is_file():
        parser.error("{} holds no meterwatch package".format(args.src))
    env = dict(os.environ, PYTHONPATH=str(args.src.resolve()))
    started = time.monotonic()
    layouts = {"casestudy": casestudy_layout(env), "pairs": PAIRS_LAYOUT}
    # (span, layout, meter, kind) -> [flagged days, scripted days, seeds with every such day flagged]
    summary = defaultdict(lambda: [0, 0, 0])
    with tempfile.TemporaryDirectory(prefix="recall_") as work:
        for span in SPANS:
            for name, layout in layouts.items():
                for seed in SEEDS:
                    meters = measure(Path(work) / "{}d_{}_seed{}".format(span, name, seed), env, span, layout, seed)
                    print("span {} d, layout {}, seed {}".format(span, name, seed))
                    for persona, meter in meters.items():
                        print("  {}: k={}, unscripted flagged days: {}".format(
                            persona, meter["k"], meter["unscripted_flagged"]))
                        by_kind = defaultdict(list)
                        for d in meter["days"]:
                            print(day_line(d))
                            by_kind[d["kind"]].append(d["flagged"])
                        for kind, flags in by_kind.items():
                            counts = summary[span, name, persona, kind]
                            counts[0] += sum(flags)
                            counts[1] += len(flags)
                            counts[2] += all(flags)
    print()
    print("summary over {} seed(s): scripted days flagged, and seeds with all of a kind's days flagged".format(
        len(SEEDS)))
    for (span, name, persona, kind), (flagged, total, seeds) in summary.items():
        print("  {:>3} d {:<9} {} {:<15} days {:>2}/{:<2} seeds {:>2}/{}".format(
            span, name, persona, kind, flagged, total, seeds, len(SEEDS)))
    print("{} run(s) in {:.0f} s".format(len(SPANS) * len(layouts) * len(SEEDS), time.monotonic() - started))
    return 0


if __name__ == "__main__":
    sys.exit(main())
