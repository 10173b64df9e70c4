"""Seeded inputs for the benchmark workloads.

Every input is a pure function of the workload seed, so two runs with the
same seed feed the program byte-identical files and request streams.  The
program under test never sees the seed itself, only what is built here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from datetime import date, datetime, time, timedelta
from pathlib import Path
from zoneinfo import ZoneInfo

from meterwatch import AnomalyScript, TelemetryStore, build_persona, simulate_period, write_readings_csv
from meterwatch.cli import CASESTUDY_SCRIPT_OFFSETS
from meterwatch.protocol import POSITIVE_ACTIVE_ENERGY, DataLine, Unit, encode_readout, format_register_kwh

PERSONAS = ("S1", "S2", "S3", "S4")
YEAR_START = date(2024, 1, 1)
STORE_FILENAME = "readings.ndjson"
TIMEZONE = "Europe/Warsaw"  # the analysis' default civil calendar

# The households are drawn from this fixed seed and the workload seed
# places the scripted days: the cost of a k-means scan swings by +-15% from
# one simulated year to the next (the number of polish moves depends on the
# draw), as much as the host's own noise.
HOUSEHOLD_SEED = 42

# stream-year's open-loop schedule: rates per second, and the seeded
# shares of re-sent (duplicate) readings and of readings that arrive one
# slot late.
READING_RATE = 8.0
POWER_RATE = 2.0
DUP_SHARE = 0.03
LATE_SHARE = 0.03


def seeded_scripts(seed: int, persona_id: str, start: date, days: int) -> list[AnomalyScript]:
    """Each case-study kind once per whole 365-day block, on seeded days.

    The kinds are those `meterwatch casestudy` scripts.  A period shorter
    than a year is one block.  Days of a DST transition (excluded from
    analysis) and days next to another scripted day are skipped; the first
    and last week of a block are avoided.
    """
    rng = random.Random(seed)
    tz = ZoneInfo(TIMEZONE)
    chosen: list[date] = []
    scripts = []
    for block in range(0, max(days // 365, 1) * 365, 365):
        lo, hi = block + 7, min(block + 365, days) - 7
        for kind, _ in CASESTUDY_SCRIPT_OFFSETS.get(persona_id, ()):
            while True:
                day = start + timedelta(days=rng.randrange(lo, hi))
                midnight = datetime.combine(day, time(0), tzinfo=tz)
                next_midnight = datetime.combine(day + timedelta(days=1), time(0), tzinfo=tz)
                if midnight.utcoffset() != next_midnight.utcoffset():
                    continue
                if any(abs((day - other).days) <= 1 for other in chosen):
                    continue
                chosen.append(day)
                scripts.append(AnomalyScript(kind, day))
                break
    return sorted(scripts, key=lambda s: s.day)


@dataclass
class MeterInput:
    meter_id: str
    readings: tuple  # MeterReading, 96 per day + 1
    scripted_days: tuple[date, ...]


def simulate(seed: int, persona_id: str, days: int) -> MeterInput:
    """The fixed household's period, with scripted days placed by the seed."""
    scripts = seeded_scripts(seed, persona_id, YEAR_START, days)
    sim = simulate_period(build_persona(persona_id), YEAR_START, days, scripts, HOUSEHOLD_SEED)
    return MeterInput(persona_id, sim.readings, tuple(s.day for s in scripts))


def write_csvs(meters: list[MeterInput], out: Path) -> list[Path]:
    paths = []
    for m in meters:
        path = out / "{}_readings.csv".format(m.meter_id)
        write_readings_csv(path, m.readings)
        paths.append(path)
    return paths


def build_store(readings_by_meter: list[tuple], store_dir: Path) -> Path:
    """Write an NDJSON store the way `meterwatch ingest` does, one batch per meter."""
    store_dir.mkdir(parents=True, exist_ok=True)
    path = store_dir / STORE_FILENAME
    if path.exists():
        path.unlink()
    store = TelemetryStore(path)
    for readings in readings_by_meter:
        store.ingest(readings)
    return path


def readout_frame(value_kwh) -> bytes:
    """Encode one register value as the optical-port data readout the reader emits."""
    line = DataLine(POSITIVE_ACTIVE_ENERGY, format_register_kwh(value_kwh), Unit.KWH)
    return encode_readout([line])


@dataclass
class StreamItem:
    """One scheduled request of the open-loop stream."""

    due: float  # seconds after the stream starts
    kind: str  # "reading" or "power"
    meter_id: str
    reading: object = None  # MeterReading for "reading"
    frame: bytes = b""
    tag: str = "unique"  # "unique", "duplicate" or "late"


def stream_schedule(continuations: dict[str, tuple], seconds: float, seed: int) -> list[StreamItem]:
    """Open-loop schedule: readings continue each meter's series round-robin.

    A seeded share of readings is re-sent a quarter second later
    (duplicates), and a seeded share of slots swaps places with the next
    slot of the same meter, so the earlier one arrives one slot late.
    """
    rng = random.Random(seed)
    meters = sorted(continuations)
    n_readings = int(seconds * READING_RATE)
    order = []  # (meter, index into its continuation), in send order
    for k in range(n_readings):
        meter = meters[k % len(meters)]
        order.append([meter, k // len(meters)])
    # Swap slot pairs of the same meter; both halves stay inside the run.
    by_meter: dict[str, list[int]] = {}
    for pos, (meter, _) in enumerate(order):
        by_meter.setdefault(meter, []).append(pos)
    late_positions = set()
    for positions in by_meter.values():
        i = 0
        while i + 1 < len(positions):
            if rng.random() < LATE_SHARE:
                a, b = positions[i], positions[i + 1]
                order[a][1], order[b][1] = order[b][1], order[a][1]
                late_positions.add(b)
                i += 2
            else:
                i += 1
    items = []
    for pos, (meter, index) in enumerate(order):
        reading = continuations[meter][index]
        frame = readout_frame(reading.value_kwh)
        due = pos / READING_RATE
        tag = "late" if pos in late_positions else "unique"
        items.append(StreamItem(due, "reading", meter, reading, frame, tag))
        if tag == "unique" and rng.random() < DUP_SHARE and due + 0.25 < seconds:
            items.append(StreamItem(due + 0.25, "reading", meter, reading, frame, "duplicate"))
    for j in range(int(seconds * POWER_RATE)):
        items.append(StreamItem((j + 0.5) / POWER_RATE, "power", rng.choice(meters)))
    items.sort(key=lambda item: item.due)
    return items
