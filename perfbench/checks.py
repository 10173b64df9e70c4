"""Output checks, run after the timed phase; each failure counts in `failed`."""

from __future__ import annotations

import json
from datetime import date
from pathlib import Path

from meterwatch import TelemetryStore, analyze_meter
from meterwatch.pipeline import canonical_json
from meterwatch.protocol import POSITIVE_ACTIVE_ENERGY
from meterwatch.store import register_delta_kwh, rfc3339

METER_FILES = (
    "profiles.csv",
    "cluster_model.json",
    "cluster_summary.json",
    "k_selection.json",
    "anomaly_report.json",
    "clusters.svg",
    "anomalies.svg",
)


def report_problems(report: dict) -> list[str]:
    """Self-consistency of one anomaly report document."""
    problems = []
    scores = report["scores"]
    ranked = report["ranked_days"]
    flagged = report["flagged"]
    if sorted(ranked) != sorted(scores):
        problems.append("ranked_days is not a permutation of the scored days")
    keys = [(-scores[d], d) for d in ranked]
    if keys != sorted(keys):
        problems.append("scores are not sorted along ranked_days")
    if ranked[: len(flagged)] != flagged:
        problems.append("flagged days are not a prefix of the ranking")
    if any(scores[d] <= report["threshold"] for d in flagged):
        problems.append("a flagged day does not exceed the threshold")
    if any(scores[d] > report["threshold"] for d in ranked[len(flagged):]):
        problems.append("an unflagged day exceeds the threshold")
    return problems


def analyze_output_problems(out: Path, meters: list[str]) -> list[str]:
    """Every documented `analyze` output exists and each report is consistent."""
    problems = []
    if not (out / "user_means.svg").is_file():
        problems.append("user_means.svg missing")
    for meter in meters:
        for name in METER_FILES:
            if not (out / meter / name).is_file():
                problems.append("{}/{} missing".format(meter, name))
        report_path = out / meter / "anomaly_report.json"
        if report_path.is_file():
            report = json.loads(report_path.read_text(encoding="utf-8"))
            problems += ["{}: {}".format(meter, p) for p in report_problems(report)]
    return problems


def flagged_scripted(report: dict, scripted: tuple[date, ...]) -> int:
    flagged = set(report["flagged"])
    return sum(1 for d in scripted if d.isoformat() in flagged)


def power_body(store: TelemetryStore, meter_id: str, start, end) -> bytes:
    """The `/power` body the service must send for this store and range."""
    samples = store.mean_power_series(meter_id, POSITIVE_ACTIVE_ENERGY, start, end)
    payload = [
        {
            "meter_id": s.meter_id,
            "slot_start": rfc3339(s.slot_start),
            "mean_power_w": s.mean_power_w,
            "quality": s.quality,
        }
        for s in samples
    ]
    return canonical_json(payload).encode("utf-8")


def anomalies_body(store: TelemetryStore, meter_id: str) -> bytes:
    """The `/anomalies` body the service must send with its default config."""
    return canonical_json(analyze_meter(store, meter_id).report.to_json_dict()).encode("utf-8")


def energy_problems(body: bytes, store: TelemetryStore, meter_id: str, start, end) -> list[str]:
    """Mean power over [start, end] integrates to the register delta."""
    readings = {r.timestamp: r.value_kwh for r in store.readings(meter_id, POSITIVE_ACTIVE_ENERGY)}
    if start not in readings or end not in readings:
        return ["{}: no register reading at the span ends".format(meter_id)]
    samples = json.loads(body)
    if any(s["mean_power_w"] is None for s in samples):
        return ["{}: missing power samples inside the streamed span".format(meter_id)]
    energy_kwh = sum(s["mean_power_w"] for s in samples) / 4000.0
    delta = float(register_delta_kwh(readings[start], readings[end]))
    if abs(energy_kwh - delta) > 1e-6:
        return ["{}: power integrates to {} kWh, register moved {} kWh".format(meter_id, energy_kwh, delta)]
    return []
