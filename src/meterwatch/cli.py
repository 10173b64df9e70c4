"""Command-line interface tying the pipeline together.

Commands: ``simulate`` (synthetic readings), ``ingest`` (CSV into a store
directory), ``analyze`` (readings CSV to profiles, clustering, anomaly
report, and SVG charts), ``serve`` (HTTP service), and ``casestudy``
(simulate and analyze all four built-in personas).

Exit codes: 0 success, 1 store or file-system error, 2 usage error.
Options may also come from a JSON config file (``--config``); flags win.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import closing, contextmanager
from datetime import date, timedelta
from pathlib import Path

import click

from . import __version__
from .charts import anomaly_chart, cluster_chart, user_means_chart
from .clustering import DEFAULT_RESTARTS, K_MAX, K_MIN
from .personas import PERSONA_IDS, build_persona
from .pipeline import (
    AnalysisConfig, DEFAULT_SEED, DEFAULT_TOP_N, InsufficientDataError, MeterAnalysis,
    analyze_meter,  # not called here: perfbench/tracing.py wraps cli.analyze_meter by name
    analyze_meters, canonical_json, parse_setting,
)
from .profiles import DEFAULT_MIN_COMPLETENESS, regular_days, write_profiles_csv
from .simulator import AnomalyScript, SimOutput, period_start, scripts_by_day, simulate_period
from .store import ReadingColumns, SpanTooLong, StoreError, TelemetryStore, read_readings_csv, write_readings_csv

try:
    import fcntl
except ImportError:  # not POSIX (Windows): store writers are not locked out
    fcntl = None

DEFAULT_START = date(2024, 6, 3)
DEFAULT_DAYS = 30
STORE_FILENAME = "readings.ndjson"

# Case-study scripts: one of each disruption kind for S1 (mirroring the
# kinds of days caregivers care about) and a two-day trip for S2.
CASESTUDY_SCRIPT_OFFSETS = {
    "S1": (("absence-morning", 9), ("shifted-morning", 16), ("evening-baking", 23)),
    "S2": (("full-absence", 11), ("full-absence", 12)),
}


def _load_json_object(path: str | None, option: str = "--config") -> dict:
    """The JSON object in ``path`` ({} without one); anything else is a usage error."""
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise _usage_error(option, path, exc)
    if not isinstance(data, dict):
        raise _usage_error(option, path, "must hold a JSON object")
    return data


def _usage_error(option: str, source: str, reason) -> click.BadParameter:
    """Exit 2 naming the option and the file (or value) it gave."""
    return click.BadParameter("{}: {}".format(source, reason), param_hint="'{}'".format(option))


def _check_period(start: date, days: int) -> None:
    """Exit 2 when ``period_start`` refuses the days from ``start``, before anything is written."""
    try:
        period_start(start, days)
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint="'--start' / '--days'")


def _persona_list(value) -> list[str]:
    if not isinstance(value, (list, tuple)) or not value or not all(p in PERSONA_IDS for p in value):
        raise ValueError("must be a non-empty list of {}".format(", ".join(PERSONA_IDS)))
    return list(dict.fromkeys(value))


# The settings that are not numbers; numbers go through pipeline.parse_setting.
_PARSERS = {"start": date.fromisoformat, "personas": _persona_list}
# The keys a settings file may hold: simulate's, then analyze's (one file may serve both).
_CONFIG_KEYS = ("personas", "days", "seed", "start", "restarts", "min_completeness", "top_n", "k")
_SCRIPT_KEYS = ("kind", "day", "day_offset", "parameters")  # the keys of one --scripts entry


def _unknown_keys(data: dict, keys) -> str:
    """'' when ``data`` holds only ``keys``, else a message naming each other key and the known ones."""
    unknown = "".join("{}: unknown key; ".format(key) for key in data if key not in keys)
    return unknown and unknown + "the keys are " + ", ".join(keys)


def _settings(config_path: str | None, flags: dict) -> dict:
    """Each setting in ``flags`` that is given: parsed from its flag, else
    from the ``--config`` file if its value there is not null.  Every file
    value is parsed, also one a flag overrides; a key no command reads is refused."""
    config = _load_json_object(config_path)
    unknown = _unknown_keys(config, _CONFIG_KEYS)
    if unknown:
        raise _usage_error("--config", config_path, unknown)
    given = [(key, value, "--config", "{}: {}".format(config_path, key))
             for key, value in config.items() if key in flags]
    given += [(key, value, "--" + key.replace("_", "-"), value) for key, value in flags.items()]
    settings = {}
    for key, value, option, source in given:
        if value is not None:
            try:
                settings[key] = _PARSERS[key](value) if key in _PARSERS else parse_setting(key, value)
            except (TypeError, ValueError) as exc:
                raise _usage_error(option, source, exc)
    return settings


class _Main(click.Group):
    """Ends a command that raises a store or file-system error with ``Error: <message>`` and exit 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:  # a closed stdout: click exits 1 quietly
            raise
        except (StoreError, OSError) as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Main)
@click.version_option(__version__)
def main() -> None:
    """Routine monitoring from 15-minute electricity meter readouts."""


def _parse_scripts(entries, start: date) -> list[AnomalyScript]:
    if not isinstance(entries, list) or not all(isinstance(entry, dict) for entry in entries):
        raise ValueError("must be a list of script objects")
    scripts = []
    for entry in entries:
        unknown = _unknown_keys(entry, _SCRIPT_KEYS)
        if unknown or ("day" in entry) == ("day_offset" in entry):
            raise ValueError(unknown or "script entry needs exactly one of day and day_offset")
        if not isinstance(entry.get("day", ""), str):
            raise ValueError("day must be an ISO date string, not {}".format(json.dumps(entry["day"])))
        day = (date.fromisoformat(entry["day"]) if "day" in entry
               else start + timedelta(days=parse_setting("day_offset", entry["day_offset"])))
        scripts.append(AnomalyScript(entry.get("kind"), day, entry.get("parameters")))
    return scripts


def _simulate_one(
    persona_id: str, start: date, days: int, seed: int, scripts: list[AnomalyScript], out: Path
) -> SimOutput:
    persona = build_persona(persona_id)
    sim = simulate_period(persona, start, days, scripts, seed)
    write_readings_csv(out / "{}_readings.csv".format(persona_id), sim.readings)
    truth = {
        "meter_id": sim.meter_id,
        "seed": seed,
        "labels": {d.isoformat(): label for d, label in sorted(sim.truth_labels.items())},
    }
    (out / "{}_truth.json".format(persona_id)).write_text(_json_text(truth), encoding="utf-8")
    return sim


@main.command()
@click.option(
    "--persona",
    "personas",
    multiple=True,
    type=click.Choice(PERSONA_IDS),
    help="Persona to simulate (repeatable); default: all four.",
)
@click.option("--days", type=int, default=None, help="Days to simulate (default {}).".format(DEFAULT_DAYS))
@click.option("--seed", type=int, default=None, help="Simulation seed (default {}).".format(DEFAULT_SEED))
@click.option("--start", "start_text", default=None, help="First day, ISO date (default {}).".format(DEFAULT_START))
@click.option("--scripts", "scripts_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="JSON file mapping persona id to anomaly scripts.")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True)
def simulate(personas, days, seed, start_text, scripts_path, config_path, out_dir) -> None:
    """Write synthetic readings CSV and truth-label JSON per persona."""
    settings = _settings(config_path, {"personas": personas or None, "days": days, "seed": seed, "start": start_text})
    personas = settings.get("personas", PERSONA_IDS)
    days = settings.get("days", DEFAULT_DAYS)
    seed = settings.get("seed", DEFAULT_SEED)
    start = settings.get("start", DEFAULT_START)
    _check_period(start, days)

    scripts_by_persona: dict[str, list[AnomalyScript]] = {}
    for pid, entries in _load_json_object(scripts_path, "--scripts").items():
        try:
            if pid not in PERSONA_IDS:
                raise ValueError("not a persona id; the ids are " + ", ".join(PERSONA_IDS))
            scripts_by_persona[pid] = _parse_scripts(entries, start)
            scripts_by_day(start, days, scripts_by_persona[pid])  # its checks, before --out is made
        except (TypeError, ValueError, OverflowError) as exc:
            raise _usage_error("--scripts", "{}: {}".format(scripts_path, pid), exc)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for pid in personas:
        _simulate_one(pid, start, days, seed, scripts_by_persona.get(pid, []), out)
    click.echo("wrote readings for {} persona(s) to {}".format(len(personas), out))


@main.command()
@click.argument("csv_files", nargs=-1, required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--store", "store_dir", type=click.Path(file_okay=False), required=True,
              envvar="METERWATCH_DATA_DIR", show_envvar=True)
def ingest(csv_files, store_dir) -> None:
    """Ingest readings CSV file(s) into a store directory."""
    store_path = Path(store_dir)
    store_path.mkdir(parents=True, exist_ok=True)
    with _open_store(store_path) as store:
        batch = ReadingColumns()  # all or nothing: every file read and checked, then one ingest
        for csv_file in csv_files:
            for run in read_readings_csv(csv_file).runs:
                batch.extend(*run)
        click.echo(canonical_json(store.ingest(batch).to_json_dict()))


@contextmanager
def _open_store(store_dir: Path):
    """The store in ``store_dir``, written by this process alone until the block ends.

    An exclusive, non-blocking ``flock`` on the directory itself, held by
    ``serve`` and ``ingest``, makes a second writer fail with a
    ``StoreError`` before it reads or appends to the log.  The lock goes
    with the descriptor.  Without ``fcntl`` (not POSIX) nothing is locked.
    """
    fd = os.open(store_dir, os.O_RDONLY) if fcntl is not None else None
    try:
        if fd is not None:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                raise StoreError("store {} is in use by another meterwatch serve or ingest".format(store_dir)) from None
        store = TelemetryStore(store_dir / STORE_FILENAME)
        if store.dropped_tail_bytes:
            message = "dropped {} byte(s) of an unfinished append from {}"
            click.echo(message.format(store.dropped_tail_bytes, store_dir / STORE_FILENAME), err=True)
        yield store
    finally:
        if fd is not None:
            os.close(fd)


def _analysis_outputs(analysis: MeterAnalysis, top_n: int) -> dict[str, str]:
    """The text of each file written for one meter, by file name."""
    profiles_csv = io.StringIO()
    write_profiles_csv(profiles_csv, analysis.profiles)
    files = {
        "profiles.csv": profiles_csv.getvalue(),
        "cluster_model.json": _json_text(analysis.model.to_json_dict()),
        "cluster_summary.json": _json_text(analysis.summary.to_json_dict()),
    }
    if analysis.selection is not None:
        files["k_selection.json"] = _json_text(analysis.selection.to_json_dict())
    files["anomaly_report.json"] = _json_text(analysis.report.to_json_dict())
    if analysis.excluded:
        files["excluded_days.json"] = _json_text(
            [{"day": e.day.isoformat(), "reason": e.reason} for e in analysis.excluded]
        )
    files["clusters.svg"] = cluster_chart(analysis.profiles, analysis.model)
    files["anomalies.svg"] = _anomaly_overlay(analysis, top_n)
    return files


def _anomaly_overlay(analysis: MeterAnalysis, top_n: int) -> str:
    profiles, model = analysis.profiles, analysis.model
    panels = []
    for day in analysis.report.top(top_n):
        title = "{} (score {:.0f} W)".format(day.isoformat(), analysis.report.scores[day])
        values = profiles.values[profiles.days.index(day)].tolist()
        panels.append((title, values, model.centroids[model.assignments[day]].tolist()))
    return anomaly_chart(panels)


def _json_text(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _check_directory_name(meter_id: str) -> None:
    """Refuse a meter id that is not one plain path component, since its
    files go to ``--out``/<meter id>: ``..`` or a ``/`` would put them
    outside ``--out``, an empty id or ``.`` into it."""
    forbidden = {"/", "\0", os.sep, os.altsep} - {None}
    if meter_id in ("", ".", "..") or any(c in meter_id for c in forbidden):
        raise click.ClickException(
            "meter id {!r} cannot name an output directory: it must be one path component, "
            "not empty, '.' or '..', with no '/' or NUL".format(meter_id)
        )


def _analyze_store(store: TelemetryStore, out: Path, config: AnalysisConfig) -> dict[str, MeterAnalysis]:
    """Analyse the meters with :func:`pipeline.analyze_meters` on one worker
    per CPU (one where this process's CPUs cannot be read: macOS, Windows),
    write each meter's files in meter order, then ``user_means.svg``.  The
    first meter that fails ends the command with ``meter <id>: <reason>``,
    after the files of the meters before it."""
    meters = store.meters()
    if not meters:
        raise click.ClickException("no readings")
    for meter_id in meters:
        _check_directory_name(meter_id)
    workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    analyses: dict[str, MeterAnalysis] = {}
    try:
        runs = analyze_meters(store, meters, config, workers, lambda analysis: _analysis_outputs(analysis, config.top_n))
        with closing(runs):
            for analysis, files in runs:
                analyses[analysis.meter_id] = analysis
                meter_out = out / analysis.meter_id
                meter_out.mkdir(parents=True, exist_ok=True)
                for name, text in files.items():
                    (meter_out / name).write_text(text, encoding="utf-8")
    except (InsufficientDataError, SpanTooLong) as exc:  # the meter after those written
        raise click.ClickException("meter {}: {}".format(meters[len(analyses)], exc))
    chart = user_means_chart({m: [list(row) for row in a.summary.centroids] for m, a in analyses.items()})
    (out / "user_means.svg").write_text(chart, encoding="utf-8")
    return analyses


@main.command()
@click.argument("csv_files", nargs=-1, required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True)
@click.option("--seed", type=int, default=None, help="Clustering seed (default {}).".format(DEFAULT_SEED))
@click.option("--restarts", type=int, default=None, help="k-means restarts (default {}).".format(DEFAULT_RESTARTS))
@click.option("--min-completeness", type=float, default=None,
              help="Profile completeness floor (default {}).".format(DEFAULT_MIN_COMPLETENESS))
@click.option("--top-n", type=int, default=None, help="Anomalous days to chart (default {}).".format(DEFAULT_TOP_N))
@click.option("--k", type=int, default=None, help="Fix the cluster count instead of scanning {}..{}.".format(K_MIN, K_MAX))
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None)
def analyze(csv_files, out_dir, seed, restarts, min_completeness, top_n, k, config_path) -> None:
    """Cluster daily profiles from readings CSVs and rank anomalous days."""
    # Only given settings reach AnalysisConfig, which owns the defaults.
    flags = {"seed": seed, "restarts": restarts, "min_completeness": min_completeness, "top_n": top_n, "k": k}
    config = AnalysisConfig(**_settings(config_path, flags))

    store = TelemetryStore()
    for csv_file in csv_files:
        store.ingest(read_readings_csv(csv_file))

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    analyses = _analyze_store(store, out, config)
    for meter_id, analysis in sorted(analyses.items()):
        selection = analysis.selection
        k = analysis.model.k if selection is None else "{} (recommended)".format(selection.recommended_k)
        top = ", ".join(d.isoformat() for d in analysis.report.top(config.top_n))
        click.echo("{}: {} profiles, k={}, top anomalies: {}".format(meter_id, len(analysis.profiles), k, top))


@main.command()
@click.option("--store", "store_dir", type=click.Path(exists=True, file_okay=False), required=True,
              envvar="METERWATCH_DATA_DIR", show_envvar=True)
@click.option("--host", default="127.0.0.1", show_default=True)
@click.option("--port", type=click.IntRange(0, 65535), default=8720, show_default=True)
@click.option("--seed", type=int, default=DEFAULT_SEED, show_default=True)
@click.option("--verbose", is_flag=True, default=False)
def serve(store_dir, host, port, seed, verbose) -> None:
    """Serve ingestion and analysis endpoints over HTTP."""
    # Imported here: the HTTP stack would add to every other command's start-up.
    from .service import make_server, run_server

    with _open_store(Path(store_dir)) as store:
        try:
            server = make_server(store, AnalysisConfig(seed=seed), host=host, port=port, verbose=verbose)
        except OSError as exc:
            raise click.ClickException("cannot bind {}:{}: {}".format(host, port, exc))
        click.echo("serving on http://{}:{}".format(host, server.server_address[1]))
        run_server(server)


@main.command()
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True)
@click.option("--days", type=int, default=DEFAULT_DAYS, show_default=True)
@click.option("--seed", type=int, default=DEFAULT_SEED, show_default=True)
@click.option("--start", "start_text", default=DEFAULT_START.isoformat(), show_default=True)
def casestudy(out_dir, days, seed, start_text) -> None:
    """Simulate S1..S4 for a month and run the full analysis on each."""
    start = _settings(None, {"start": start_text})["start"]
    _check_period(start, days)
    usable = regular_days(start, days)
    if usable < K_MAX:
        reason = "{} of the days from {} are not DST transition days; scanning k needs {}".format(usable, start, K_MAX)
        raise _usage_error("--days", str(days), reason)
    out = Path(out_dir)
    sim_dir = out / "simulated"
    sim_dir.mkdir(parents=True, exist_ok=True)

    store = TelemetryStore()
    truths: dict[str, SimOutput] = {}
    for pid in PERSONA_IDS:
        scripts = [
            AnomalyScript(kind, start + timedelta(days=offset))
            for kind, offset in CASESTUDY_SCRIPT_OFFSETS.get(pid, ())
            if offset < days
        ]
        sim = _simulate_one(pid, start, days, seed, scripts, sim_dir)
        truths[pid] = sim
        store.ingest(sim.readings)

    config = AnalysisConfig(seed=seed)
    analyses = _analyze_store(store, out, config)
    _write_casestudy_summary(out, analyses, truths, config.top_n)
    click.echo("case study written to {}".format(out))


def _write_casestudy_summary(
    out: Path, analyses: dict[str, MeterAnalysis], truths: dict[str, SimOutput], top_n: int
) -> None:
    lines = ["# Case study summary", ""]
    for meter_id in sorted(analyses):
        analysis = analyses[meter_id]
        selection = analysis.selection
        inertias = ", ".join("{:.0f}".format(i) for i in selection.inertias)
        summary = analysis.summary
        lines += [
            "## {}".format(meter_id),
            "",
            "- profiles: {}".format(len(analysis.profiles)),
            "- recommended clusters: {} (inertia by k: {})".format(selection.recommended_k, inertias),
            "- cluster sizes: {} (most typical: cluster {})".format(summary.counts, summary.most_populated + 1),
            "- top anomalous days:",
        ]
        for day in analysis.report.top(top_n):
            flag = "flagged" if day in analysis.report.flagged else "not flagged"
            lines.append("    - {}: score {:.0f} W, {} (simulated as: {})".format(
                day.isoformat(), analysis.report.scores[day], flag, truths[meter_id].truth_labels[day]))
        lines.append("")
    (out / "summary.md").write_text("\n".join(lines), encoding="utf-8")


if __name__ == "__main__":
    main()
