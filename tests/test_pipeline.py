from __future__ import annotations

import os
import subprocess
import sys
import threading
from datetime import date
from pathlib import Path

from meterwatch import pipeline
from meterwatch.personas import build_persona
from meterwatch.pipeline import AnalysisConfig, analyze_meter, canonical_json
from meterwatch.simulator import simulate_period
from meterwatch.store import TelemetryStore


def outcome(store: TelemetryStore, meter_id: str, config: AnalysisConfig) -> tuple:
    analysis = analyze_meter(store, meter_id, config)
    selection = None if analysis.selection is None else analysis.selection.to_json_dict()
    return (analysis.meter_id, len(analysis.profiles), selection,
            canonical_json(analysis.model.to_json_dict()), canonical_json(analysis.report.to_json_dict()))


def test_concurrent_analyses_give_the_results_of_sequential_ones():
    """Threads analysing different meters with different k and seeds at
    once, as the service's request threads do, each get their own run's
    profiles and config."""
    store = TelemetryStore()
    for persona_id in ("S1", "S2", "S3", "S4"):
        store.ingest(simulate_period(build_persona(persona_id), date(2024, 6, 3), 10, seed=3).readings)
    jobs = [(meter_id, AnalysisConfig(seed=seed, restarts=2, k=k))
            for meter_id, seed, k in (("S1", 1, None), ("S2", 2, 3), ("S3", 3, None), ("S4", 4, 2),
                                      ("S1", 5, 4), ("S2", 6, None), ("S3", 7, 6), ("S4", 8, None))]
    sequential = [outcome(store, *job) for job in jobs]
    results = [None] * len(jobs)
    start = threading.Barrier(len(jobs), timeout=60)

    def run(i: int) -> None:
        start.wait()
        results[i] = [outcome(store, *jobs[i]) for _ in range(3)]

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # threads switch often, inside each other's runs
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [[expected] * 3 for expected in sequential]
    assert pipeline._runs == {}


def test_the_benchmark_tracer_finds_every_name_it_wraps():
    """``perfbench/tracing.py`` wraps library functions by module and name
    (``pipeline.kmeans_fit``, ``cli.analyze_meter``, the chart functions…):
    installing it in a fresh process fails on a name that moved or went."""
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-c", "from perfbench import tracing; tracing.install(tracing.Recorder('t'))"],
                          cwd=root, env=dict(os.environ, PYTHONPATH=str(root / "src")), capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
