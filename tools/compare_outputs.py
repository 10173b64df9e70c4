"""Check that two source trees of meterwatch write byte-identical outputs.

Usage:
    python tools/compare_outputs.py PARENT_SRC CHANGE_SRC [--work DIR]

PARENT_SRC and CHANGE_SRC are directories holding a ``meterwatch``
package (a checkout's ``src``).  For each side, in its own directory
``DIR/parent`` or ``DIR/change`` and with relative output paths only, the
script runs:

    meterwatch simulate --days 365 --seed 42 --out sim
    meterwatch casestudy --out casestudy
    meterwatch casestudy --start 2024-10-20 --days 14 --out casestudy_dst
    meterwatch analyze sim/S1_readings.csv ... sim/S4_readings.csv --out knee
    meterwatch analyze sim/S1_readings.csv ... sim/S4_readings.csv --out knee_1cpu   (pinned to one CPU)
    meterwatch analyze sim/S1_readings.csv ... sim/S4_readings.csv --k 3 --out k3
    meterwatch analyze sim/S3_readings.csv --top-n 1 --out s3_top1
    meterwatch analyze sim/S1_readings.csv ... sim/S4_readings.csv --top-n 6 --out knee_top6
    meterwatch analyze sim/S1_readings.csv ... sim/S4_readings.csv --seed 7 --restarts 3 --out seed7_r3
    meterwatch ingest sim/S1_readings.csv ... sim/S4_readings.csv --store store
    meterwatch ingest sim/S1_readings.csv ... sim/S4_readings.csv --store store
    meterwatch simulate --days 40 --seed 7 --start 2024-10-10 --scripts scripts.json --out sim_scripted
    meterwatch simulate --config simulate.json --days 15 --out sim_config
    meterwatch analyze sim/S1_readings.csv ... sim/S4_readings.csv --config analyze.json --k 3 --out config_k3
    meterwatch simulate --start 9999-12-31 --days 1 --seed 5 --out sim_last_day
    meterwatch ingest sim_last_day/S1_readings.csv ... sim_last_day/S4_readings.csv --store store_last_day

The second ingest is a no-op re-ingest, so the persisted
``store/readings.ndjson`` and the stats both ingests print are compared.
``scripts.json`` (``SCRIPTS``) puts each anomaly kind on S3 and on S4,
one of them on the day the clocks go back, so the last run compares another
seed, the scripted days and a DST day of the simulator.
``sim_last_day`` simulates the shortest period there is, one day, on the
last day the calendar allows: 97 readings per persona, which ``ingest``
then reads as whole columns into ``store_last_day``, so the canonical
reader's stamps at the end of the calendar and a log of them are compared.
``knee_1cpu`` repeats ``knee`` with its process pinned to one CPU (by
``os.sched_setaffinity`` on that child only, where the platform has it),
so ``analyze`` runs its fits in the command's own process instead of a
worker pool; on each side its stdout, stderr, exit code and every file
must equal those of ``knee`` byte for byte, and each output that does not
is printed and counted with the differences between the sides.  So must
``knee_crlf``'s (below), and ``short_s2_1cpu``'s those of ``short_s2``
(below): the failing run's stop at S2, in the command's own process.
The ``--top-n`` runs put one-panel and six-panel anomaly charts, and a
one-panel user means chart, under the comparison; the ``--seed 7`` run
compares other k-means++ draws and restart counts.  The two ``--config``
runs read settings files (``SIMULATE_CONFIG``, ``ANALYZE_CONFIG``): one
sets personas, days, seed and start, with ``--days`` overriding its days;
the other sets seed, restarts and top_n beside the flag ``--k 3``, and
days, a key that only ``simulate`` reads and ``analyze`` must ignore.
The ``casestudy_dst`` run's 14 days hold 2024-10-27, the 100-slot day the
clocks go back, so its summary's ground-truth labels are compared on a
period whose profile days skip a simulated day.

The simulated readings all sit on the 15-minute grid with none missing,
so the script then writes a "gappy" copy of them (``write_gappy``: seeded
drops, readings shifted 30-89 s and 91-600 s, runs of 1.5 h and 3 h cut
out, and S4 lifted by 999 990 kWh so its register rolls over) and runs

    meterwatch analyze gappy/S1_readings.csv ... gappy/S4_readings.csv --out gappy_knee
    meterwatch analyze gappy/S1_readings.csv ... gappy/S4_readings.csv --k 3 --out gappy_k3
    meterwatch analyze gappy/S1_readings.csv ... gappy/S4_readings.csv --min-completeness 0 --out gappy_all

so snapped, interpolated and missing grid values, filled and excluded
days and the rollover are compared too; with no completeness floor the
days that lost 3 h are filled as well.

Finally it writes a non-canonical copy of the simulated readings
(``write_noncanonical``: CRLF line ends, every seventh timestamp at
``+02:00``, values without trailing zeros such as ``12`` and ``1.5``, one
quoted meter id) and a copy that differs only in its ``\r\n`` line ends
(``write_crlf``), which the CSV reader parses row by row rather than as
columns, and runs

    meterwatch analyze noncanonical/S1_readings.csv ... --out noncanonical_knee
    meterwatch analyze crlf/S1_readings.csv ... crlf/S4_readings.csv --out knee_crlf

and, on a meter that draws a constant 400 W for ``FLAT_DAYS`` days
(``write_flat``), so every daily profile is equal and the k scan takes its
one-cluster (degenerate) path,

    meterwatch analyze flat/FLAT_readings.csv --out flat_scan

and, on a copy of S2's first three days (``write_short``), commands
that fail at their second meter, in the k scan (once more pinned to one
CPU) and in the fixed-k fit, so their exit codes, messages and the files
they leave (S1's only) are compared as well:

    meterwatch analyze sim/S1_readings.csv short/S2_readings.csv sim/S3_readings.csv sim/S4_readings.csv --out short_s2
    meterwatch analyze sim/S1_readings.csv short/S2_readings.csv sim/S3_readings.csv sim/S4_readings.csv \
        --out short_s2_1cpu   (pinned to one CPU)
    meterwatch analyze sim/S1_readings.csv short/S2_readings.csv sim/S3_readings.csv sim/S4_readings.csv --k 6 \
        --out short_s2_k6

Last, it starts ``meterwatch serve --store serve/store`` on a fresh
store and a free loopback port, with no prior ``ingest``, POSTs each of
``sim/S1_readings.csv`` ... ``sim/S4_readings.csv`` to ``/v1/readings``
as one NDJSON body (one record per row, ``\\n`` after each), reads
``GET /v1/meters/S1/anomalies``, and stops the server with SIGTERM.  It
then starts ``serve`` again on the store it built, so the year's log is
replayed, reads ``GET /v1/meters/{S1..S4}/anomalies`` and
``GET /v1/meters/S3/anomalies?k=3``, S2's power over one
day (``POWER_WINDOW``), S2's power over two days from a day before its
first reading (``EARLY_WINDOW``: a day of missing slots, then measured
ones) and S3's power over its whole span (``GET /v1/meters/S3/power``
with no ``from`` or ``to``: 35 040 slots).  Then it POSTs readings that
meet the stored series (``stored_series_posts``): S4's next slot, three
S1 readings sent again, a new S1 reading 7 s after a stored one, a
conflicting and a decreasing S1 value (both 409), and a new meter whose
readings roll over at 1 000 000 kWh with a reading added between them;
it reads that meter's power and its anomalies (409: too few days) and
stops the server.  The four POST
responses of the first round, both rounds' anomalies responses, the power
responses, the restart round's POST responses, the store's log at the end
(``serve/store/readings.ndjson``) and each server's exit code, stderr and
stdout (its port masked) are compared.

Each command's stdout, stderr and exit code are saved beside its outputs.
The two directories are then compared file by file; every file that
differs or exists on one side only is printed.  Exit code 0 means the
trees are identical, 1 means at least one file differs.  The line totals
of both sides' ``meterwatch/*.py`` (as ``wc -l`` counts them) are printed
too, for information only.  Standard library only.
"""

from __future__ import annotations

import argparse
import csv
import filecmp
import http.client
import json
import os
import random
import signal
import socket
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timedelta, timezone
from decimal import Decimal
from pathlib import Path

PERSONAS = ["S{}".format(i) for i in range(1, 5)]
READINGS = ["sim/{}_readings.csv".format(p) for p in PERSONAS]
GAPPY = ["gappy/{}_readings.csv".format(p) for p in PERSONAS]
COMMANDS = [
    ("simulate", ["simulate", "--days", "365", "--seed", "42", "--out", "sim"]),
    ("casestudy", ["casestudy", "--out", "casestudy"]),
    ("casestudy_dst", ["casestudy", "--start", "2024-10-20", "--days", "14", "--out", "casestudy_dst"]),
    ("knee", ["analyze", *READINGS, "--out", "knee"]),
    ("knee_1cpu", ["analyze", *READINGS, "--out", "knee_1cpu"]),  # pinned to one CPU: see run_commands
    ("k3", ["analyze", *READINGS, "--k", "3", "--out", "k3"]),
    ("s3_top1", ["analyze", READINGS[2], "--top-n", "1", "--out", "s3_top1"]),
    ("knee_top6", ["analyze", *READINGS, "--top-n", "6", "--out", "knee_top6"]),
    ("seed7_r3", ["analyze", *READINGS, "--seed", "7", "--restarts", "3", "--out", "seed7_r3"]),
    ("ingest", ["ingest", *READINGS, "--store", "store"]),
    ("reingest", ["ingest", *READINGS, "--store", "store"]),
    ("sim_scripted", ["simulate", "--days", "40", "--seed", "7", "--start", "2024-10-10", "--scripts", "scripts.json",
                      "--out", "sim_scripted"]),
    ("sim_config", ["simulate", "--config", "simulate.json", "--days", "15", "--out", "sim_config"]),
    ("config_k3", ["analyze", *READINGS, "--config", "analyze.json", "--k", "3", "--out", "config_k3"]),
    ("sim_last_day", ["simulate", "--start", "9999-12-31", "--days", "1", "--seed", "5", "--out", "sim_last_day"]),
    ("ingest_last_day", ["ingest", *("sim_last_day/{}_readings.csv".format(p) for p in PERSONAS),
                         "--store", "store_last_day"]),
]
# Settings files; the first one's 20 days are overridden by --days 15, a
# span that holds the day the clocks go forward (2024-03-31).
SIMULATE_CONFIG = {"personas": ["S2", "S4"], "days": 20, "seed": 11, "start": "2024-03-25"}
ANALYZE_CONFIG = {"seed": 5, "restarts": 4, "top_n": 2, "days": 9}
# Each anomaly kind on S3 and on S4 within the scripted run's 40 days from
# 2024-10-10; 2024-10-27 is the day the clocks go back.
SCRIPTS = {
    "S3": [{"kind": "absence-morning", "day": "2024-10-12"}, {"kind": "shifted-morning", "day": "2024-10-19"},
           {"kind": "evening-baking", "day": "2024-10-27"}, {"kind": "full-absence", "day_offset": 30}],
    "S4": [{"kind": "full-absence", "day": "2024-10-27"}, {"kind": "evening-baking", "day_offset": 5},
           {"kind": "shifted-morning", "day": "2024-11-02", "parameters": {"shift_slots": 20}},
           {"kind": "absence-morning", "day": "2024-11-18"}],
}
NONCANONICAL = ["noncanonical/{}_readings.csv".format(p) for p in PERSONAS]
CRLF = ["crlf/{}_readings.csv".format(p) for p in PERSONAS]
# Each run whose every output must equal its base run's on each side.
TWINS = {"knee_1cpu": "knee", "knee_crlf": "knee", "short_s2_1cpu": "short_s2"}
SHORT_DAYS = 3
FLAT_DAYS = 60
DERIVED_COMMANDS = [
    ("gappy_knee", ["analyze", *GAPPY, "--out", "gappy_knee"]),
    ("gappy_k3", ["analyze", *GAPPY, "--k", "3", "--out", "gappy_k3"]),
    ("gappy_all", ["analyze", *GAPPY, "--min-completeness", "0", "--out", "gappy_all"]),
    ("noncanonical_knee", ["analyze", *NONCANONICAL, "--out", "noncanonical_knee"]),
    ("knee_crlf", ["analyze", *CRLF, "--out", "knee_crlf"]),
    ("flat_scan", ["analyze", "flat/FLAT_readings.csv", "--out", "flat_scan"]),
    ("short_s2", ["analyze", READINGS[0], "short/S2_readings.csv", *READINGS[2:], "--out", "short_s2"]),
    ("short_s2_1cpu", ["analyze", READINGS[0], "short/S2_readings.csv", *READINGS[2:], "--out", "short_s2_1cpu"]),
    ("short_s2_k6", ["analyze", READINGS[0], "short/S2_readings.csv", *READINGS[2:], "--k", "6", "--out", "short_s2_k6"]),
]
# Runs of readings cut out, as (first row, rows): 3 h leaves the day below
# the 0.9 completeness floor, 1.5 h leaves it above (its slots are filled).
CUTS = [(40 * 96 + 30, 12), (100 * 96 + 50, 6)]
# A day of S2's power read after the restart: the day the clocks go back.
POWER_WINDOW = ("2024-10-26T22:00:00Z", "2024-10-27T23:00:00Z")
# Two days of S2's power from a day before its first reading (2024-06-02T22:00:00Z).
EARLY_WINDOW = ("2024-06-01T22:00:00Z", "2024-06-03T22:00:00Z")
ROLLOVER_LIFT_KWH = Decimal(999990)
REGISTER_MODULUS_KWH = Decimal(1000000)


def write_gappy(sim_dir: Path, out_dir: Path) -> None:
    """Copy the simulated readings CSVs with deterministic damage.

    Per persona, seeded by its index: about 2% of readings dropped, 2%
    moved 30-89 s later (they still snap to their boundary) and 2% moved
    91-600 s later (their boundary is interpolated); the rows in ``CUTS``
    dropped (gaps over 1 h leave boundaries missing); and S4's register
    lifted by 999 990 kWh modulo 10**6, so it rolls over.  Readings only
    move forward by less than one slot, so every register stays monotonic.
    """
    out_dir.mkdir()
    cut = {row for first, length in CUTS for row in range(first, first + length)}
    for index, persona in enumerate(PERSONAS):
        rnd = random.Random(index)
        with open(sim_dir / "{}_readings.csv".format(persona), newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        with open(out_dir / "{}_readings.csv".format(persona), "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row_number, (meter_id, timestamp, obis, value) in enumerate(rows):
                roll = rnd.random()
                if row_number in cut or roll < 0.02:
                    continue
                if roll < 0.06:
                    shift = rnd.randint(30, 89) if roll < 0.04 else rnd.randint(91, 600)
                    moved = datetime.fromisoformat(timestamp.replace("Z", "+00:00")) + timedelta(seconds=shift)
                    timestamp = moved.strftime("%Y-%m-%dT%H:%M:%SZ")
                if persona == "S4":
                    value = str((Decimal(value) + ROLLOVER_LIFT_KWH) % REGISTER_MODULUS_KWH)
                writer.writerow([meter_id, timestamp, obis, value])


def write_noncanonical(sim_dir: Path, out_dir: Path) -> None:
    """Copy the simulated readings CSVs as equal readings in non-canonical text:
    CRLF line ends, every seventh timestamp at +02:00, values with trailing
    zeros (and a bare trailing dot) removed, and the first row's meter id quoted."""
    out_dir.mkdir()
    plus_two = timezone(timedelta(hours=2))
    for persona in PERSONAS:
        with open(sim_dir / "{}_readings.csv".format(persona), newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        with open(out_dir / "{}_readings.csv".format(persona), "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\r\n")
            for row_number, (meter_id, timestamp, obis, value) in enumerate(rows):
                if row_number % 7 == 3:
                    moved = datetime.fromisoformat(timestamp.replace("Z", "+00:00")).astimezone(plus_two)
                    timestamp = moved.isoformat()
                meter_text = '"{}"'.format(meter_id) if row_number == 0 else meter_id
                fh.write(",".join([meter_text, timestamp, obis, value.rstrip("0").rstrip(".")]) + "\r\n")


def write_crlf(sim_dir: Path, out_dir: Path) -> None:
    """Copy the simulated readings CSVs with each line ended by ``\r\n`` instead of ``\n``."""
    out_dir.mkdir()
    for persona in PERSONAS:
        name = "{}_readings.csv".format(persona)
        (out_dir / name).write_bytes((sim_dir / name).read_bytes().replace(b"\n", b"\r\n"))


def write_flat(out_dir: Path) -> None:
    """Readings of a meter that uses 0.1 kWh every 15 minutes (400 W) for
    ``FLAT_DAYS`` days from 2024-06-03, in the simulator's CSV format."""
    out_dir.mkdir()
    start = datetime(2024, 6, 3, tzinfo=timezone.utc)
    rows = [
        "FLAT,{},1.8.0,{:.3f}\n".format((start + timedelta(minutes=15 * i)).strftime("%Y-%m-%dT%H:%M:%SZ"), i / 10)
        for i in range(96 * FLAT_DAYS + 1)
    ]
    (out_dir / "FLAT_readings.csv").write_text("meter_id,timestamp,obis,value_kwh\n" + "".join(rows), encoding="utf-8")


def write_short(sim_dir: Path, out_dir: Path) -> None:
    """Copy S2's simulated readings for its first ``SHORT_DAYS`` days only,
    too few daily profiles for the k scan."""
    out_dir.mkdir()
    with open(sim_dir / "S2_readings.csv", encoding="utf-8") as fh:
        lines = fh.readlines()
    (out_dir / "S2_readings.csv").write_text("".join(lines[: 1 + 96 * SHORT_DAYS]), encoding="utf-8")


def run_commands(commands, side_dir: Path, env: dict) -> None:
    for name, args in commands:
        print("{}: meterwatch {}".format(side_dir.name, " ".join(args)), flush=True)
        done = subprocess.run(
            [sys.executable, "-m", "meterwatch.cli", *args],
            cwd=side_dir,
            env=env,
            capture_output=True,
            preexec_fn=pin_to_one_cpu if name.endswith("_1cpu") else None,
        )
        (side_dir / "{}.stdout".format(name)).write_bytes(done.stdout)
        (side_dir / "{}.stderr".format(name)).write_bytes(done.stderr)
        (side_dir / "{}.exit".format(name)).write_text("{}\n".format(done.returncode))


def pin_to_one_cpu() -> None:
    """Let the calling process (a command's child, before it starts) run on one CPU only."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def twin_differences(side_dir: Path, twin: str, base: str) -> list[str]:
    """Each output of the run ``twin`` on one side that differs from ``base``'s, or that only one of them has."""
    report = ["{}: {}.{} differs from {}.{}".format(side_dir.name, twin, ext, base, ext)
              for ext in ("stdout", "stderr", "exit")
              if not filecmp.cmp(side_dir / "{}.{}".format(base, ext), side_dir / "{}.{}".format(twin, ext),
                                 shallow=False)]
    lines = differing_files(side_dir / base, side_dir / twin)
    return report + ["{}: {} ({} vs {})".format(side_dir.name, line, base, twin) for line in lines]


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def ndjson_body(csv_path: Path) -> bytes:
    """A readings CSV as one NDJSON body: one record per row, each ending with a newline."""
    with open(csv_path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    return "".join(json.dumps(dict(zip(header, row))) + "\n" for row in rows).encode("utf-8")


def run_serve(side_dir: Path, env: dict) -> None:
    """POST the simulated years to a fresh ``serve``, then restart it on the
    store it built, and save what both answer."""
    out = side_dir / "serve"
    (out / "store").mkdir(parents=True)
    requests = [
        ("post_{}".format(p), "POST", "/v1/readings", ndjson_body(side_dir / "sim" / "{}_readings.csv".format(p)))
        for p in PERSONAS
    ]
    requests.append(("anomalies_S1", "GET", "/v1/meters/S1/anomalies", None))
    serve_round(side_dir, env, "serve", requests)
    serve_round(side_dir, env, "serve_restart", [
        *(("restart_anomalies_" + p, "GET", "/v1/meters/{}/anomalies".format(p), None) for p in PERSONAS),
        ("restart_anomalies_S3_k3", "GET", "/v1/meters/S3/anomalies?k=3", None),
        ("restart_power_S2", "GET", "/v1/meters/S2/power?from={}&to={}".format(*POWER_WINDOW), None),
        ("restart_power_S2_early", "GET", "/v1/meters/S2/power?from={}&to={}".format(*EARLY_WINDOW), None),
        ("restart_power_S3_span", "GET", "/v1/meters/S3/power", None),
        *stored_series_posts(side_dir / "sim"),
        ("restart_power_ROLL", "GET", "/v1/meters/ROLL/power", None),
        ("restart_anomalies_ROLL", "GET", "/v1/meters/ROLL/anomalies", None),
    ])


def stored_series_posts(sim_dir: Path) -> list:
    """``POST /v1/readings`` requests that meet the series the restarted
    server replayed: S4's next slot, three S1 readings sent again, a new S1
    reading 7 s after a stored one, an S1 reading with another value and
    one below its predecessor (both 409), and a new meter ``ROLL`` whose
    two readings roll over at 1 000 000 kWh, then a reading between them."""
    series = {}
    for persona in ("S1", "S4"):
        with open(sim_dir / "{}_readings.csv".format(persona), newline="", encoding="utf-8") as fh:
            series[persona] = list(csv.DictReader(fh))
    s1, last = series["S1"], series["S4"][-1]
    roll = {"meter_id": "ROLL", "timestamp": "2024-06-03T00:00:00Z", "obis": "1.8.0", "value_kwh": "999999.900"}
    posts = [
        ("S4_next", [moved(last, 900, Decimal(last["value_kwh"]) + Decimal("0.125"))]),
        ("S1_resent", s1[1000:1003]),
        ("S1_late", [moved(s1[2000], 7)]),
        ("S1_conflict", [moved(s1[3000], 0, Decimal(s1[3000]["value_kwh"]) + Decimal("0.001"))]),
        ("S1_decrease", [moved(s1[3000], 60, Decimal(s1[3000]["value_kwh"]) - Decimal("0.001"))]),
        ("ROLL", [roll, moved(roll, 1800, Decimal("0.100"))]),
        ("ROLL_between", [moved(roll, 900, Decimal("999999.990"))]),
    ]
    return [("restart_post_" + name, "POST", "/v1/readings", "".join(json.dumps(r) + "\n" for r in records).encode())
            for name, records in posts]


def moved(record: dict, seconds: int, value_kwh: Decimal | None = None) -> dict:
    """``record`` ``seconds`` later, with ``value_kwh`` if given."""
    timestamp = datetime.fromisoformat(record["timestamp"].replace("Z", "+00:00")) + timedelta(seconds=seconds)
    value = record["value_kwh"] if value_kwh is None else str(value_kwh)
    return dict(record, timestamp=timestamp.strftime("%Y-%m-%dT%H:%M:%SZ"), value_kwh=value)


def serve_round(side_dir: Path, env: dict, name: str, requests: list) -> None:
    """Start ``serve`` on ``serve/store``, send ``requests`` in turn, stop it
    with SIGTERM and save the responses and the server's output as ``name``."""
    out = side_dir / "serve"
    port = free_port()
    print("{}: meterwatch serve --store serve/store --port {}".format(side_dir.name, port), flush=True)
    proc = subprocess.Popen(
        [sys.executable, "-m", "meterwatch.cli", "serve", "--store", "serve/store", "--port", str(port)],
        cwd=side_dir, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        deadline = time.monotonic() + 60
        while proc.poll() is None:
            try:
                socket.create_connection(("127.0.0.1", port), timeout=1).close()
                break
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.05)
        for request_name, method, path, body in requests:
            if proc.poll() is not None:  # it never started listening; its exit code and stderr say why
                break
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=600)
            try:
                conn.request(method, path, body=body)
                response = conn.getresponse()
                (out / "{}.response".format(request_name)).write_bytes(b"%d\n" % response.status + response.read())
            finally:
                conn.close()
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            stdout, stderr = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            stdout, stderr = proc.communicate()
    (side_dir / "{}.stdout".format(name)).write_bytes(stdout.replace(b":%d" % port, b":PORT"))
    (side_dir / "{}.stderr".format(name)).write_bytes(stderr)
    (side_dir / "{}.exit".format(name)).write_text("{}\n".format(proc.returncode))


def run_side(src: Path, side_dir: Path) -> None:
    side_dir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    for name, data in (("scripts.json", SCRIPTS), ("simulate.json", SIMULATE_CONFIG), ("analyze.json", ANALYZE_CONFIG)):
        (side_dir / name).write_text(json.dumps(data), encoding="utf-8")
    run_commands(COMMANDS, side_dir, env)
    write_gappy(side_dir / "sim", side_dir / "gappy")
    write_noncanonical(side_dir / "sim", side_dir / "noncanonical")
    write_crlf(side_dir / "sim", side_dir / "crlf")
    write_short(side_dir / "sim", side_dir / "short")
    write_flat(side_dir / "flat")
    run_commands(DERIVED_COMMANDS, side_dir, env)
    run_serve(side_dir, env)


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


def line_total(src: Path) -> int:
    return sum(path.read_bytes().count(b"\n") for path in (src / "meterwatch").glob("*.py"))


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
    for side in ("parent", "change"):
        report += [line for twin, base in TWINS.items() for line in twin_differences(work / side, twin, base)]
    for line in report:
        print(line)
    for side, src in (("parent", args.parent_src), ("change", args.change_src)):
        print("{}: {} lines in {}".format(side, line_total(src), src / "meterwatch" / "*.py"))
    print("{} file(s) differ under {}".format(len(report), work))
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main())
