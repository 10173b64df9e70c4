"""Check that two source trees of meterwatch write byte-identical outputs.

Usage:
    python tools/compare_outputs.py PARENT_SRC CHANGE_SRC [--work DIR]

PARENT_SRC and CHANGE_SRC are directories holding a ``meterwatch``
package (a checkout's ``src``).  For each side, in its own directory
``DIR/parent`` or ``DIR/change`` and with relative output paths only, the
script runs:

    meterwatch simulate --days 365 --seed 42 --out sim
    meterwatch casestudy --out casestudy
    meterwatch analyze sim/S1_readings.csv ... sim/S4_readings.csv --out knee
    meterwatch analyze sim/S1_readings.csv ... sim/S4_readings.csv --k 3 --out k3
    meterwatch ingest sim/S1_readings.csv ... sim/S4_readings.csv --store store
    meterwatch ingest sim/S1_readings.csv ... sim/S4_readings.csv --store store

The second ingest is a no-op re-ingest, so the persisted
``store/readings.ndjson`` and the stats both ingests print are compared.

Each command's stdout, stderr and exit code are saved beside its outputs.
The two directories are then compared file by file; every file that
differs or exists on one side only is printed.  Exit code 0 means the
trees are identical, 1 means at least one file differs.  Standard library
only.
"""

from __future__ import annotations

import argparse
import filecmp
import os
import subprocess
import sys
import tempfile
from pathlib import Path

READINGS = ["sim/S{}_readings.csv".format(i) for i in range(1, 5)]
COMMANDS = [
    ("simulate", ["simulate", "--days", "365", "--seed", "42", "--out", "sim"]),
    ("casestudy", ["casestudy", "--out", "casestudy"]),
    ("knee", ["analyze", *READINGS, "--out", "knee"]),
    ("k3", ["analyze", *READINGS, "--k", "3", "--out", "k3"]),
    ("ingest", ["ingest", *READINGS, "--store", "store"]),
    ("reingest", ["ingest", *READINGS, "--store", "store"]),
]


def run_side(src: Path, side_dir: Path) -> None:
    side_dir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    for name, args in COMMANDS:
        print("{}: meterwatch {}".format(side_dir.name, " ".join(args)), flush=True)
        done = subprocess.run(
            [sys.executable, "-m", "meterwatch.cli", *args],
            cwd=side_dir,
            env=env,
            capture_output=True,
        )
        (side_dir / "{}.stdout".format(name)).write_bytes(done.stdout)
        (side_dir / "{}.stderr".format(name)).write_bytes(done.stderr)
        (side_dir / "{}.exit".format(name)).write_text("{}\n".format(done.returncode))


def relative_files(root: Path) -> set[str]:
    return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}


def differing_files(left: Path, right: Path) -> list[str]:
    left_files, right_files = relative_files(left), relative_files(right)
    report = ["only in {}: {}".format(left.name, f) for f in sorted(left_files - right_files)]
    report += ["only in {}: {}".format(right.name, f) for f in sorted(right_files - left_files)]
    report += [
        "differs: {}".format(f)
        for f in sorted(left_files & right_files)
        if not filecmp.cmp(left / f, right / f, shallow=False)
    ]
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--work", type=Path, default=None,
                        help="empty or missing directory for the outputs (default: a new temporary one)")
    args = parser.parse_args()
    for src in (args.parent_src, args.change_src):
        if not (src / "meterwatch" / "cli.py").is_file():
            parser.error("{} holds no meterwatch package".format(src))
    work = args.work or Path(tempfile.mkdtemp(prefix="compare_outputs_"))
    if work.exists() and any(work.iterdir()):
        parser.error("{} is not empty".format(work))
    run_side(args.parent_src, work / "parent")
    run_side(args.change_src, work / "change")
    report = differing_files(work / "parent", work / "change")
    for line in report:
        print(line)
    print("{} file(s) differ under {}".format(len(report), work))
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main())
