from __future__ import annotations

import concurrent.futures
import http.client
import json
import math
import os
import pickle
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from meterwatch import cli, pipeline
from meterwatch.cli import main
from meterwatch.clustering import K_MAX, InsufficientDataError, fit_counts
from meterwatch.pipeline import MAX_RESTARTS, AnalysisConfig, analyze_meter
from meterwatch.store import (
    ConflictingDuplicate, NonMonotonicRegister, ReadingsFormatError, SpanTooLong, StoreError, StoreLogError,
    TelemetryStore, read_readings_csv,
)


@pytest.fixture()
def runner():
    return CliRunner()


def read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def test_simulate_writes_2881_rows_per_persona(runner, tmp_path):
    out = tmp_path / "sims"
    result = runner.invoke(
        main, ["simulate", "--days", "30", "--seed", "42", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    for pid in ("S1", "S2", "S3", "S4"):
        lines = read(out / f"{pid}_readings.csv").splitlines()
        assert len(lines) == 1 + 96 * 30 + 1  # header + readings
        truth = json.loads(read(out / f"{pid}_truth.json"))
        assert len(truth["labels"]) == 30


def test_invalid_persona_is_a_usage_error(runner, tmp_path):
    result = runner.invoke(
        main, ["simulate", "--persona", "S9", "--out", str(tmp_path)]
    )
    assert result.exit_code == 2
    for pid in ("S1", "S2", "S3", "S4"):
        assert pid in result.output


def test_simulate_twice_is_byte_identical(runner, tmp_path):
    args = ["simulate", "--persona", "S2", "--days", "6", "--seed", "7"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert runner.invoke(main, args + ["--out", str(a)]).exit_code == 0
    assert runner.invoke(main, args + ["--out", str(b)]).exit_code == 0
    assert read(a / "S2_readings.csv") == read(b / "S2_readings.csv")
    assert read(a / "S2_truth.json") == read(b / "S2_truth.json")


def test_simulate_accepts_scripts_file(runner, tmp_path):
    scripts = {"S1": [{"kind": "full-absence", "day": "2024-06-05"}]}
    scripts_path = tmp_path / "scripts.json"
    scripts_path.write_text(json.dumps(scripts), encoding="utf-8")
    out = tmp_path / "sims"
    result = runner.invoke(
        main,
        [
            "simulate", "--persona", "S1", "--days", "6", "--seed", "3",
            "--scripts", str(scripts_path), "--out", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    truth = json.loads(read(out / "S1_truth.json"))
    assert truth["labels"]["2024-06-05"] == "full-absence"


def test_analyze_writes_reports_and_charts(runner, tmp_path):
    sims = tmp_path / "sims"
    assert (
        runner.invoke(
            main,
            ["simulate", "--persona", "S4", "--days", "12", "--seed", "6", "--out", str(sims)],
        ).exit_code
        == 0
    )
    out = tmp_path / "analysis"
    result = runner.invoke(
        main, ["analyze", str(sims / "S4_readings.csv"), "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    for name in (
        "profiles.csv",
        "cluster_model.json",
        "cluster_summary.json",
        "k_selection.json",
        "anomaly_report.json",
        "clusters.svg",
        "anomalies.svg",
    ):
        assert (out / "S4" / name).exists(), name
    assert (out / "user_means.svg").exists()
    report = json.loads(read(out / "S4" / "anomaly_report.json"))
    assert len(report["scores"]) == 12
    model = json.loads(read(out / "S4" / "cluster_model.json"))
    selection = json.loads(read(out / "S4" / "k_selection.json"))
    assert model["k"] == selection["recommended_k"]


def test_analyze_with_fixed_k(runner, tmp_path):
    sims = tmp_path / "sims"
    runner.invoke(
        main, ["simulate", "--persona", "S3", "--days", "8", "--seed", "2", "--out", str(sims)]
    )
    out = tmp_path / "analysis"
    result = runner.invoke(
        main, ["analyze", str(sims / "S3_readings.csv"), "--k", "2", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    assert json.loads(read(out / "S3" / "anomaly_report.json"))["k"] == 2
    assert not (out / "S3" / "k_selection.json").exists()


def test_analyze_empty_csv_reports_no_readings(runner, tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("meter_id,timestamp,obis,value_kwh\n", encoding="utf-8")
    result = runner.invoke(main, ["analyze", str(empty), "--out", str(tmp_path / "x")])
    assert result.exit_code == 1
    assert "no readings" in result.output


@pytest.mark.parametrize("meter_id", ["../escaped", "..", ".", "", "a/b", "/abs", "a\0b"])
def test_analyze_refuses_a_meter_id_that_is_not_one_path_component(runner, tmp_path, meter_id):
    """Nothing is analysed or written outside --out."""
    readings = tmp_path / "in" / "readings.csv"
    readings.parent.mkdir()
    rows = ["{},2024-06-{:02d}T{:02d}:00:00Z,1.8.0,{}.0".format(meter_id, 3 + h // 24, h % 24, h) for h in range(24 * 8)]
    readings.write_text("meter_id,timestamp,obis,value_kwh\n" + "\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "work" / "out"
    result = runner.invoke(main, ["analyze", str(readings), "--out", str(out)])
    assert result.exit_code == 1, result.output
    assert "meter id {!r} cannot name an output directory".format(meter_id) in result.output
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
        "in", "in/readings.csv", "work", "work/out"
    ]
    assert not any(out.iterdir())


def test_analyze_malformed_row_names_the_line(runner, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "meter_id,timestamp,obis,value_kwh\nM1,2024-06-03T12:00:00Z,1.8.0,1.0\nM1,oops,1.8.0,2\n",
        encoding="utf-8",
    )
    result = runner.invoke(main, ["analyze", str(bad), "--out", str(tmp_path / "x")])
    assert result.exit_code == 1
    assert "line 3" in result.output


@pytest.mark.parametrize("command", ["analyze", "ingest"])
def test_csv_error_names_the_file_with_the_line(runner, tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    header = "meter_id,timestamp,obis,value_kwh\n"
    Path("a.csv").write_text(header + "M1,2024-06-03T12:00:00Z,1.8.0,1.000\n", encoding="utf-8")
    Path("b.csv").write_text(header + "M2,2024-06-03T12:00:00Z,1.8.0,abc\n", encoding="utf-8")
    result = runner.invoke(main, [command, "a.csv", "b.csv", "--out" if command == "analyze" else "--store", "out"])
    assert result.exit_code == 1, result.output
    assert result.output == "Error: b.csv line 2: value_kwh 'abc' is not a decimal number\n"


@pytest.mark.parametrize("command", ["analyze", "ingest"])
def test_csv_that_is_not_utf8_is_refused_naming_its_line(runner, tmp_path, command):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"meter_id,timestamp,obis,value_kwh\nM\xff1,2024-06-03T12:00:00Z,1.8.0,1.0\n")
    out = tmp_path / "out"
    result = runner.invoke(main, [command, str(bad), "--out" if command == "analyze" else "--store", str(out)])
    assert result.exit_code == 1, result.output
    assert "Error: {} line 2: byte 0xFF is not UTF-8 text".format(bad) in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert not out.exists() or not any(out.iterdir())


def test_csv_field_over_the_csv_size_limit_is_refused_naming_its_line(runner, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text('meter_id,timestamp,obis,value_kwh\n"' + "m" * 200_000 + '",2024-06-03T12:00:00Z,1.8.0,1.0\n')
    out = tmp_path / "out"
    result = runner.invoke(main, ["analyze", str(bad), "--out", str(out)])
    assert result.exit_code == 1, result.output
    assert "Error: {} line 2: field larger than field limit (131072)".format(bad) in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("port", ["99999", "65536", "-1"])
def test_serve_refuses_a_port_outside_0_to_65535(runner, tmp_path, port):
    result = runner.invoke(main, ["serve", "--store", str(tmp_path), "--port", port])
    assert result.exit_code == 2, result.output
    assert "--port" in result.output and "0<=x<=65535" in result.output
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flags, config",
    [
        (["--restarts", "0"], None),
        (["--min-completeness", "2"], None),
        (["--k", "7"], None),
        ([], {"restarts": 0}),
        (["--restarts", "1000000"], None),
        (["--min-completeness", "nan"], None),
        ([], {"min_completeness": float("nan")}),  # the JSON literal NaN
        ([], {"min_completeness": 10**400}),  # an integer too large for a float
    ],
)
def test_analyze_out_of_range_setting_is_a_usage_error(runner, tmp_path, flags, config):
    readings = tmp_path / "readings.csv"
    readings.write_text("meter_id,timestamp,obis,value_kwh\n", encoding="utf-8")
    if config is not None:
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        flags = flags + ["--config", str(config_path)]
    result = runner.invoke(main, ["analyze", str(readings), "--out", str(tmp_path / "x")] + flags)
    assert result.exit_code == 2, result.output
    assert "Invalid value" in result.output
    assert "must lie in" in result.output
    if config is not None:
        assert "config.json: " in result.output
        assert all("{}: ".format(key) in result.output for key in config)


@pytest.mark.parametrize(
    "command, option, text",
    [
        ("simulate", "--scripts", '{"S1": [{"kind": "nap", "day": "2024-06-05"}]}'),
        ("simulate", "--scripts", '{"S1": [{"day": "2024-06-05"}]}'),
        ("simulate", "--scripts", '{"S1": [{"kind": "full-absence", "day": "June 5"}]}'),
        ("simulate", "--scripts", '[{"kind": "full-absence", "day": "2024-06-05"}]'),
        ("simulate", "--config", '{"days": "x"}'),
        ("simulate", "--config", '{"personas": "S1"}'),
        ("simulate", "--config", '{"personas": ["S9"]}'),
        ("analyze", "--config", "not json"),
        ("simulate", "--scripts", "[" * 100000),
        ("analyze", "--config", "[" * 100000),
        ("analyze", "--config", '{"k": 2.7}'),
        ("analyze", "--config", '{"restarts": 1.9}'),
        ("analyze", "--config", '{"seed": true}'),
        ("simulate", "--config", '{"days": 2.9}'),
        ("analyze", "--config", '{"min_completeness": true}'),
        ("simulate", "--config", '{"personas": []}'),
        ("analyze", "--config", '{"restart": 0, "K": 9}'),
        ("analyze --restarts 2", "--config", '{"restarts": 0}'),
        ("simulate", "--scripts", '{"S1": [{"kind": "full-absence", "day_offset": 2.7}]}'),
        ("simulate", "--scripts", '{"S1": [{"kind": "evening-baking", "day_offset": true}]}'),
        ("simulate", "--scripts", '{"S9": [{"kind": "full-absence", "day": "2024-06-05"}]}'),
        ("simulate", "--scripts", '{"S1": [{"kind": "full-absence", "day_offset": "x"}]}'),
        ("simulate", "--scripts", '{"S1": [{"kind": "full-absence", "day": "2024-06-01"}]}'),
        ("simulate", "--scripts", '{"S1": [{"kind": "full-absence", "day": "2024-06-05"}, '
                                  '{"kind": "evening-baking", "day": "2024-06-05"}]}'),
        ("simulate", "--scripts", '{"S1": [{"kind": "absence-morning", "day": "2024-06-05", '
                                  '"parameters": ["start_slot"]}]}'),
        ("simulate", "--scripts", '{"S1": [{"kind": "absence-morning", "day": "2024-06-05", '
                                  '"parameters": {"start_slot": Infinity}}]}'),
        ("simulate", "--scripts", '{"S1": [{"kind": "evening-baking", "day": "2024-06-05", '
                                  '"parameters": {"duration_slots": 0}}]}'),
        ("simulate", "--scripts", '{"S1": [{"kind": "absence-morning", "day": "2024-06-05", '
                                  '"parameters": {"start_slot": 2.7}}]}'),
        ("simulate", "--scripts", '{"S1": [{"kind": "evening-baking", "day": "2024-06-05", '
                                  '"parameters": {"start_slot": -5}}]}'),
        ("simulate", "--scripts", '{"S1": [{"kind": "shifted-morning", "day": "2024-06-05", '
                                  '"parameters": {"shift_slot": 20}}]}'),
    ],
    ids=[
        "unknown-kind", "no-kind", "day-not-iso", "scripts-a-list", "days-not-a-number",
        "personas-not-a-list", "unknown-persona", "config-not-json",
        "scripts-nested-too-deep", "config-nested-too-deep",
        "k-a-fraction", "restarts-a-fraction", "seed-a-bool", "days-a-fraction", "min-completeness-a-bool",
        "personas-empty", "unknown-keys", "out-of-range-under-a-flag", "day-offset-a-fraction", "day-offset-a-bool",
        "scripts-key-not-a-persona", "day-offset-text", "day-outside-the-period", "two-scripts-on-one-day",
        "parameters-a-list", "parameter-infinite", "duration-zero", "parameter-a-fraction", "parameter-negative",
        "unknown-parameter",
    ],
)
def test_bad_settings_file_is_a_usage_error(runner, tmp_path, command, option, text):
    """Every value in a settings file is checked, also one a flag overrides
    (``simulate --persona S1`` overrides ``personas``), and a key that is
    not a setting, or not a persona id in a scripts file, is refused, as is
    a script day outside the period, a second script on one day, or script
    parameters its kind does not read or with a value out of bounds.  The
    message names the file and each top-level key of the object."""
    settings = tmp_path / "settings.json"
    settings.write_text(text, encoding="utf-8")
    readings = tmp_path / "readings.csv"
    readings.write_text("meter_id,timestamp,obis,value_kwh\n", encoding="utf-8")
    name, *flags = command.split()
    args = ["simulate", "--persona", "S1"] if name == "simulate" else ["analyze", str(readings)]
    result = runner.invoke(main, args + flags + ["--out", str(tmp_path / "out"), option, str(settings)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert "settings.json" in result.output and option in result.output
    if text.startswith("{"):
        assert all("{}: ".format(key) in result.output for key in json.loads(text))
    if "day_offset" in text:
        assert "day_offset must be an integer" in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "scripts, named",
    [
        ({"S1": [{"kind": "full-absence", "day_offset": 3, "bogus": 1}]}, "S1: bogus: unknown key; the keys are"),
        ({"S2": [{"kind": "full-absence", "day": "2024-06-05", "parameter": {}}]}, "S2: parameter: unknown key"),
        ({"S1": [{"kind": "full-absence", "day_offset": 3, "day": "2024-06-04"}]},
         "S1: script entry needs exactly one of day and day_offset"),
        ({"S1": [{"kind": "full-absence"}]}, "S1: script entry needs exactly one of day and day_offset"),
        ({"S1": {"kind": "full-absence", "day_offset": 3}}, "S1: must be a list of script objects"),
        ({"S1": ["today"]}, "S1: must be a list of script objects"),
        ({"S1": [{"kind": "full-absence", "day": 5}]}, "S1: day must be an ISO date string, not 5"),
        ({"S1": [{"kind": "full-absence", "day": None}]}, "S1: day must be an ISO date string, not null"),
    ],
    ids=["unknown-key", "unknown-key-of-a-persona-not-simulated", "both-days", "no-day", "entries-an-object",
         "entry-a-string", "day-a-number", "day-null"],
)
def test_script_entry_that_does_not_fit_the_schema_is_a_usage_error(runner, tmp_path, scripts, named):
    """An entry may hold only kind, day, day_offset and parameters, with
    exactly one of the two day keys and a day that is a string; the message
    names the persona key and the offending key."""
    scripts_path = tmp_path / "scripts.json"
    scripts_path.write_text(json.dumps(scripts), encoding="utf-8")
    out = tmp_path / "out"
    result = runner.invoke(main, ["simulate", "--persona", "S1", "--days", "6", "--scripts", str(scripts_path),
                                  "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "'--scripts'" in result.output and "scripts.json: " + named in result.output
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "analyze"])
def test_null_in_a_settings_file_means_not_given(runner, tmp_path, command):
    """A null value is as if its key were absent; each command ignores the
    keys of the other."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict.fromkeys(["days", "seed", "start", "personas", "restarts", "k", "top_n"])),
                      encoding="utf-8")
    sims = tmp_path / "sims"
    assert runner.invoke(main, ["simulate", "--persona", "S4", "--days", "8", "--out", str(sims)]).exit_code == 0
    args = ["simulate", "--persona", "S4"] if command == "simulate" else ["analyze", str(sims / "S4_readings.csv")]
    plain = runner.invoke(main, args + ["--out", str(tmp_path / "plain")])
    nulls = runner.invoke(main, args + ["--out", str(tmp_path / "nulls"), "--config", str(config)])
    assert plain.exit_code == 0 and nulls.exit_code == 0, nulls.output
    assert tree(tmp_path / "nulls") == tree(tmp_path / "plain") != {}


# Valid analyze settings other than k, which is fixed at 2.
VALID_SETTINGS = st.fixed_dictionaries({}, optional={
    "seed": st.integers(-2**70, 2**70), "restarts": st.integers(1, 3), "min_completeness": st.floats(0, 1),
    "top_n": st.integers(1, 9),
})
# A key a settings file must refuse: no command's setting, or a value out of its bounds or of its type.
BAD_SETTING = st.one_of(
    st.tuples(st.text("aKrz_", min_size=1).filter(lambda key: key not in cli._CONFIG_KEYS), st.none() | st.integers()),
    st.tuples(st.just("restarts"), st.integers(max_value=0) | st.integers(min_value=MAX_RESTARTS + 1) | st.just(1.5)),
    st.tuples(st.just("min_completeness"), st.floats().filter(lambda v: not 0 <= v <= 1) | st.booleans()),
    st.tuples(st.just("top_n"), st.integers(max_value=0) | st.just("x")),
    st.tuples(st.just("k"), st.sampled_from([0, K_MAX + 1, 2.5, True])),
    st.tuples(st.just("seed"), st.sampled_from([0.5, math.inf, "x", False])),
)


@settings(max_examples=25, deadline=None)
@given(valid=VALID_SETTINGS, as_text=st.booleans(), simulate_key=st.booleans(), bad=st.none() | BAD_SETTING)
def test_settings_file_equals_flags_and_refuses_what_it_does_not_know(sims, valid, as_text, simulate_key, bad):
    """Valid settings from ``--config``, as numbers or as text and beside a
    key that only ``simulate`` reads, write what the same flags write; a key
    that is no setting, or a value out of its bounds or type, exits 2
    naming the file and the key before anything is written."""
    config = {key: str(value) if as_text else value for key, value in {**valid, "k": 2}.items()}
    if simulate_key:
        config["days"] = 8
    if bad is not None:
        config[bad[0]] = bad[1]
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "settings.json").write_text(json.dumps(config), encoding="utf-8")
        args = ["analyze", str(sims / "S4_readings.csv"), "--out"]
        from_file = runner.invoke(main, args + [str(tmp / "file"), "--config", str(tmp / "settings.json")])
        if bad is not None:
            assert from_file.exit_code == 2, from_file.output
            assert "settings.json: {}: ".format(bad[0]) in from_file.output
            assert not (tmp / "file").exists()
            return
        flags = [text for key, value in valid.items() for text in ("--" + key.replace("_", "-"), str(value))]
        from_flags = runner.invoke(main, args + [str(tmp / "flags"), "--k", "2"] + flags)
        assert from_file.exit_code == from_flags.exit_code == 0, from_file.output + from_flags.output
        assert from_file.output == from_flags.output
        assert tree(tmp / "file") == tree(tmp / "flags")


@pytest.mark.parametrize("flags, config", [(["--persona", "S2", "--persona", "S1", "--persona", "S2"], None),
                                           ([], {"personas": ["S2", "S1", "S2"]})], ids=["flags", "config"])
def test_simulate_writes_a_repeated_persona_once(runner, tmp_path, flags, config):
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        flags = ["--config", str(tmp_path / "config.json")]
    out = tmp_path / "out"
    result = runner.invoke(main, ["simulate", *flags, "--days", "2", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "wrote readings for 2 persona(s)" in result.output
    assert sorted(p.name for p in out.iterdir()) == ["S1_readings.csv", "S1_truth.json", "S2_readings.csv", "S2_truth.json"]


@pytest.mark.parametrize(
    "flags, option",
    [(["--days", "3000000"], "--days"), (["--start", "9999-12-31", "--days", "2"], "--start"),
     (["--start", "0001-01-01"], "--start"), (["--days", "0"], "--days")],
    ids=["days-past-the-calendar", "start-at-the-calendar-end", "start-before-the-calendar-in-utc", "no-days"],
)
def test_simulate_past_the_calendar_is_a_usage_error(runner, tmp_path, flags, option):
    result = runner.invoke(main, ["simulate", "--persona", "S1", *flags, "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output and option in result.output
    assert not (tmp_path / "out").exists()


def test_analyze_excludes_the_last_day_of_the_calendar(runner, tmp_path):
    sims, out = tmp_path / "sims", tmp_path / "out"
    args = ["simulate", "--persona", "S1", "--start", "9999-12-20", "--days", "12", "--seed", "1", "--out", str(sims)]
    assert runner.invoke(main, args).exit_code == 0
    result = runner.invoke(main, ["analyze", str(sims / "S1_readings.csv"), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "S1: 11 profiles" in result.output
    excluded = json.loads(read(out / "S1" / "excluded_days.json"))
    assert excluded == [{"day": "9999-12-31", "reason": "day starts or ends outside the years 1-9999"}]


def test_day_without_readings_is_excluded_with_no_completeness_floor(runner, tmp_path):
    sims = tmp_path / "sims"
    runner.invoke(main, ["simulate", "--persona", "S1", "--days", "12", "--seed", "1", "--out", str(sims)])
    csv_file = sims / "S1_readings.csv"
    # 2024-06-09 in Warsaw (summer time) runs from 22:00 UTC the evening before.
    kept = [
        line for line in read(csv_file).splitlines()
        if not "S1,2024-06-08T22:00:00Z" <= line < "S1,2024-06-09T22:00:00Z"
    ]
    csv_file.write_text("\n".join(kept) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    result = runner.invoke(main, ["analyze", str(csv_file), "--min-completeness", "0", "--out", str(out)])
    assert result.exit_code == 0, result.output
    excluded = json.loads(read(out / "S1" / "excluded_days.json"))
    assert {"day": "2024-06-09", "reason": "no samples"} in excluded


def test_ingest_builds_a_store_directory(runner, tmp_path):
    sims = tmp_path / "sims"
    runner.invoke(
        main, ["simulate", "--persona", "S1", "--days", "2", "--seed", "1", "--out", str(sims)]
    )
    store_dir = tmp_path / "store"
    result = runner.invoke(
        main, ["ingest", str(sims / "S1_readings.csv"), "--store", str(store_dir)]
    )
    assert result.exit_code == 0, result.output
    stats = json.loads(result.output.strip().splitlines()[-1])
    assert stats["readings_accepted"] == 96 * 2 + 1
    assert (store_dir / "readings.ndjson").exists()
    again = runner.invoke(
        main, ["ingest", str(sims / "S1_readings.csv"), "--store", str(store_dir)]
    )
    assert json.loads(again.output.strip().splitlines()[-1])["duplicates_dropped"] == 96 * 2 + 1


def test_store_log_damage_is_reported_not_a_traceback(runner, tmp_path):
    sims = tmp_path / "sims"
    runner.invoke(main, ["simulate", "--persona", "S1", "--days", "1", "--seed", "1", "--out", str(sims)])
    csv_file = str(sims / "S1_readings.csv")
    store_dir = tmp_path / "store"
    assert runner.invoke(main, ["ingest", csv_file, "--store", str(store_dir)]).exit_code == 0
    log = store_dir / "readings.ndjson"
    committed = log.read_bytes()

    log.write_bytes(committed + b'{"meter_id": "M1", "timest')
    result = runner.invoke(main, ["ingest", csv_file, "--store", str(store_dir)])
    assert result.exit_code == 0, result.output
    assert "dropped 26 byte(s)" in result.stderr
    assert json.loads(result.stdout.strip().splitlines()[-1])["readings_accepted"] == 0
    assert log.read_bytes() == committed

    lines = committed.splitlines(keepends=True)
    log.write_bytes(lines[0] + b"not json\n" + b"".join(lines[1:]))
    for args in (["ingest", csv_file, "--store", str(store_dir)], ["serve", "--store", str(store_dir), "--port", "0"]):
        result = runner.invoke(main, args)
        assert result.exit_code == 1, result.output
        assert "line 2" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)


def test_ingest_opens_a_store_whose_multi_line_append_was_cut_short(runner, tmp_path, monkeypatch):
    """An accepted batch with a rollover, its log lines then cut 20 bytes
    into the second while the ``.pending`` record is there, as a crash
    during the append leaves them: the next ``ingest`` cuts the batch off."""
    monkeypatch.chdir(tmp_path)
    rows = "M,2024-06-03T00:00:00Z,1.8.0,10.000\nM,2024-06-03T01:00:00Z,1.8.0,50.000\n"
    Path("stored.csv").write_text(HEADER + rows, encoding="utf-8")
    rows = "M,2024-06-03T00:15:00Z,1.8.0,850000.000\nM,2024-06-03T00:30:00Z,1.8.0,999000.000\n"
    Path("batch.csv").write_text(HEADER + rows, encoding="utf-8")
    assert runner.invoke(main, ["ingest", "stored.csv", "--store", "store"]).exit_code == 0
    log, pending = Path("store") / "readings.ndjson", Path("store") / "readings.ndjson.pending"
    before = log.read_bytes()
    assert json.loads(runner.invoke(main, ["ingest", "batch.csv", "--store", "store"]).stdout)["rollovers_detected"] == 1
    assert not pending.exists()
    cut = log.read_bytes().index(b"\n", len(before)) + 1 + 20
    log.write_bytes(log.read_bytes()[:cut])
    pending.write_bytes(b"%d" % len(before))
    result = runner.invoke(main, ["ingest", "stored.csv", "--store", "store"])
    assert result.exit_code == 0, result.output
    assert result.stderr == "dropped {} byte(s) of an unfinished append from {}\n".format(cut - len(before), log)
    assert json.loads(result.stdout) == {"readings_accepted": 0, "duplicates_dropped": 2, "out_of_order": 0,
                                         "rollovers_detected": 0}
    assert log.read_bytes() == before and not pending.exists()


def test_store_log_that_fails_a_register_check_names_the_log_and_the_line(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("store").mkdir()
    records = [{"meter_id": "S1", "obis": "1.8.0", "timestamp": "2024-06-03T00:{}:00Z".format(minute), "value_kwh": value}
               for minute, value in (("00", "5.000"), ("15", "0.011"))]
    Path("store/readings.ndjson").write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    Path("a.csv").write_text("meter_id,timestamp,obis,value_kwh\n", encoding="utf-8")
    result = runner.invoke(main, ["ingest", "a.csv", "--store", "store"])
    assert result.exit_code == 1, result.output
    assert result.output == "Error: {} line 2: S1 1.8.0: 5.000 -> 0.011 between 2024-06-03T00:00:00+00:00 and " \
                            "2024-06-03T00:15:00+00:00\n".format(Path("store") / "readings.ndjson")


HEADER = "meter_id,timestamp,obis,value_kwh\n"


@pytest.mark.parametrize("bad, message", [
    ("M2,2024-06-03T12:00:00Z,1.8.0,abc\n", "bad.csv line 2: value_kwh 'abc' is not a decimal number"),
    ("M1,2024-06-03T12:00:00Z,1.8.0,2.000\n",
     "M1 1.8.0 at 2024-06-03T12:00:00+00:00: stored 1.000 vs new 2.000"),
], ids=["malformed-file", "conflicting-reading"])
def test_ingest_of_several_files_appends_nothing_when_one_is_refused(runner, tmp_path, monkeypatch, bad, message):
    monkeypatch.chdir(tmp_path)
    Path("first.csv").write_text(HEADER + "M1,2024-06-03T12:00:00Z,1.8.0,1.000\n", encoding="utf-8")
    Path("good.csv").write_text(HEADER + "M1,2024-06-03T12:15:00Z,1.8.0,1.100\nM3,2024-06-03T12:00:00Z,1.8.0,7.000\n",
                                encoding="utf-8")
    Path("bad.csv").write_text(HEADER + bad, encoding="utf-8")
    assert runner.invoke(main, ["ingest", "first.csv", "--store", "store"]).exit_code == 0
    log = Path("store") / "readings.ndjson"
    committed = log.read_bytes()
    result = runner.invoke(main, ["ingest", "good.csv", "bad.csv", "--store", "store"])
    assert result.exit_code == 1, result.output
    assert result.output == "Error: {}\n".format(message)
    assert log.read_bytes() == committed


def test_ingest_of_several_files_counts_and_logs_them_as_one_batch(runner, tmp_path, monkeypatch):
    """M1 spans both files, the later readings first: none of them is out
    of order against the store, the repeated one is a duplicate, and the log
    holds the new readings by meter and time."""
    monkeypatch.chdir(tmp_path)
    Path("first.csv").write_text(HEADER + "M1,2024-06-03T12:00:00Z,1.8.0,1.000\n", encoding="utf-8")
    Path("later.csv").write_text(HEADER + "M2,2024-06-03T12:00:00Z,1.8.0,7.000\nM1,2024-06-03T13:00:00Z,1.8.0,1.400\n",
                                 encoding="utf-8")
    Path("earlier.csv").write_text(HEADER + "M1,2024-06-03T12:15:00Z,1.8.0,1.100\nM1,2024-06-03T13:00:00Z,1.8.0,1.400\n",
                                   encoding="utf-8")
    assert runner.invoke(main, ["ingest", "first.csv", "--store", "store"]).exit_code == 0
    result = runner.invoke(main, ["ingest", "later.csv", "earlier.csv", "--store", "store"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output) == {"readings_accepted": 3, "duplicates_dropped": 1, "out_of_order": 0,
                                         "rollovers_detected": 0}
    logged = [(r["meter_id"], r["timestamp"]) for r in map(json.loads, read(Path("store") / "readings.ndjson").splitlines())]
    assert logged == [("M1", "2024-06-03T12:00:00Z"), ("M1", "2024-06-03T12:15:00Z"), ("M1", "2024-06-03T13:00:00Z"),
                      ("M2", "2024-06-03T12:00:00Z")]


@pytest.mark.parametrize(
    "command",
    [["simulate", "--days", "1", "--out"], ["analyze", "READINGS", "--out"], ["casestudy", "--days", "7", "--out"],
     ["ingest", "READINGS", "--store"]],
    ids=["simulate", "analyze", "casestudy", "ingest"],
)
def test_output_directory_under_a_regular_file_is_an_error_not_a_traceback(runner, tmp_path, command):
    readings = tmp_path / "readings.csv"
    readings.write_text("meter_id,timestamp,obis,value_kwh\nM1,2024-06-03T00:00:00Z,1.8.0,1.000\n", encoding="utf-8")
    (tmp_path / "file").write_text("", encoding="utf-8")
    args = [str(readings) if arg == "READINGS" else arg for arg in command]
    result = runner.invoke(main, args + [str(tmp_path / "file" / "dir")])
    assert result.exit_code == 1, result.output
    assert "Error: [Errno 20] Not a directory" in result.output
    assert "Traceback" not in result.output
    assert isinstance(result.exception, SystemExit)


def test_meter_id_too_long_for_a_file_name_is_an_error_not_a_traceback(runner, tmp_path):
    readings = tmp_path / "readings.csv"
    rows = ["{},2024-06-{:02d}T{:02d}:00:00Z,1.8.0,{}.0".format("m" * 300, 3 + h // 24, h % 24, h) for h in range(24 * 8)]
    readings.write_text("meter_id,timestamp,obis,value_kwh\n" + "\n".join(rows) + "\n", encoding="utf-8")
    result = runner.invoke(main, ["analyze", str(readings), "--out", str(tmp_path / "out")])
    assert result.exit_code == 1, result.output
    assert "Error: [Errno 36] File name too long" in result.output
    assert "Traceback" not in result.output
    assert isinstance(result.exception, SystemExit)


def serve_process(store_dir: Path, *flags: str) -> subprocess.Popen:
    """``meterwatch serve --port 0`` on ``store_dir`` in its own process, with stdout and stderr piped."""
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.Popen(
        [sys.executable, "-m", "meterwatch.cli", "serve", "--store", str(store_dir), "--port", "0", *flags],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )


def test_serve_on_port_0_prints_the_port_it_bound(tmp_path):
    proc = serve_process(tmp_path)
    try:
        printed = re.fullmatch(r"serving on http://127\.0\.0\.1:(\d+)\n", proc.stdout.readline().decode())
        assert printed is not None and int(printed.group(1)) > 0
        conn = http.client.HTTPConnection("127.0.0.1", int(printed.group(1)), timeout=10)
        try:
            conn.request("GET", "/v1/meters/M1/power")
            assert conn.getresponse().status == 404
        finally:
            conn.close()
    finally:
        proc.terminate()
        proc.communicate(timeout=10)
    assert proc.returncode == 0


@pytest.mark.parametrize("flags, access_lines", [([], 0), (["--verbose"], 1)], ids=["quiet", "verbose"])
def test_serve_verbose_writes_one_access_line_per_request(tmp_path, flags, access_lines):
    proc = serve_process(tmp_path, *flags)
    try:
        port = int(re.fullmatch(r"serving on http://127\.0\.0\.1:(\d+)\n", proc.stdout.readline().decode()).group(1))
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            conn.request("GET", "/v1/meters/M1/power")
            assert conn.getresponse().status == 404
        finally:
            conn.close()
    finally:
        proc.terminate()
        _, stderr = proc.communicate(timeout=10)
    assert proc.returncode == 0
    lines = stderr.decode().splitlines()
    assert len(lines) == access_lines, stderr
    assert all('"GET /v1/meters/M1/power HTTP/1.1" 404' in line for line in lines)


@pytest.mark.skipif(cli.fcntl is None, reason="store locking needs fcntl (POSIX)")
def test_second_store_writer_exits_1_and_leaves_the_log_unchanged(runner, tmp_path):
    sims = tmp_path / "sims"
    runner.invoke(main, ["simulate", "--persona", "S1", "--days", "1", "--seed", "1", "--out", str(sims)])
    csv_file = str(sims / "S1_readings.csv")
    other = tmp_path / "other.csv"
    other.write_text("meter_id,timestamp,obis,value_kwh\nS9,2024-06-03T00:00:00Z,1.8.0,123.000\n", encoding="utf-8")
    store_dir = tmp_path / "store"
    assert runner.invoke(main, ["ingest", csv_file, "--store", str(store_dir)]).exit_code == 0
    log = store_dir / "readings.ndjson"
    committed = log.read_bytes()

    # A writer such as a running `serve` holds the directory's lock.
    fd = os.open(store_dir, os.O_RDONLY)
    try:
        cli.fcntl.flock(fd, cli.fcntl.LOCK_EX | cli.fcntl.LOCK_NB)
        writers = (["ingest", str(other), "--store", str(store_dir)], ["serve", "--store", str(store_dir), "--port", "0"])
        for args in writers:
            result = runner.invoke(main, args)
            assert result.exit_code == 1, result.output
            assert "store {} is in use".format(store_dir) in result.output
            assert result.exception is None or isinstance(result.exception, SystemExit)
            assert log.read_bytes() == committed
    finally:
        os.close(fd)

    # Each command releases the lock when it ends.
    for _ in range(2):
        result = runner.invoke(main, ["ingest", csv_file, "--store", str(store_dir)])
        assert result.exit_code == 0, result.output
    assert log.read_bytes() == committed


def test_analyze_over_ten_years_names_the_span(runner, tmp_path):
    csv_file = tmp_path / "far.csv"
    csv_file.write_text(
        "meter_id,timestamp,obis,value_kwh\n"
        "X,0001-01-01T00:00:00Z,1.8.0,1.000\n"
        "X,9999-12-31T00:00:00Z,1.8.0,9.000\n",
        encoding="utf-8",
    )
    result = runner.invoke(main, ["analyze", str(csv_file), "--out", str(tmp_path / "out")])
    assert result.exit_code == 1, result.output
    assert "0001-01-01T00:00:00Z to 9999-12-31T00:00:00Z" in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


def test_config_file_supplies_defaults_but_flags_win(runner, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"days": 3, "seed": 5}), encoding="utf-8")
    out = tmp_path / "sims"
    result = runner.invoke(
        main,
        ["simulate", "--persona", "S3", "--config", str(config), "--days", "2", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    lines = read(out / "S3_readings.csv").splitlines()
    assert len(lines) == 1 + 96 * 2 + 1  # flag --days 2 wins over config's 3


def test_casestudy_runs_end_to_end(runner, tmp_path):
    out = tmp_path / "case"
    result = runner.invoke(
        main, ["casestudy", "--days", "12", "--seed", "4", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    assert (out / "summary.md").exists()
    for pid in ("S1", "S2", "S3", "S4"):
        assert (out / pid / "anomaly_report.json").exists()
        assert (out / "simulated" / f"{pid}_readings.csv").exists()
    summary = read(out / "summary.md")
    assert "S1" in summary and "top anomalous days" in summary
    truth = json.loads(read(out / "simulated" / "S1_truth.json"))
    assert "absence-morning" in truth["labels"].values()


@pytest.mark.parametrize(
    "flags, option",
    [
        (["--start", "June"], "--start"),
        (["--days", "0"], "--days"),
        (["--days", "5"], "--days"),
        # 2024-10-27 has 100 slots in the default zone and is excluded.
        (["--days", "6", "--start", "2024-10-25"], "--days"),
        (["--days", "3000000"], "--days"),
        (["--days", "6", "--start", "9999-12-30"], "--start"),
    ],
    ids=[
        "start-not-iso", "no-days", "fewer-days-than-the-scan", "dst-day-leaves-too-few", "days-past-the-calendar",
        "start-near-the-calendar-end",
    ],
)
def test_casestudy_bad_option_is_a_usage_error(runner, tmp_path, flags, option):
    result = runner.invoke(main, ["casestudy", *flags, "--out", str(tmp_path / "case")])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output and option in result.output
    assert not (tmp_path / "case").exists()


def tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture()
def cpus(monkeypatch):
    """A setter of the CPUs ``analyze`` sees; it returns the list that
    records the worker count of each pool started after the call."""
    pools = []
    real_pool = concurrent.futures.ProcessPoolExecutor

    def recording_pool(workers, **kwargs):
        pools.append(workers)
        return real_pool(workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)

    def set_cpus(ids):
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(ids))
        pools.clear()
        return pools

    return set_cpus


@pytest.fixture(scope="module")
def sims(tmp_path_factory):
    """Eight days of S1, S3 and S4 and three days of S2."""
    out = tmp_path_factory.mktemp("sims")
    runner = CliRunner()
    for persona, days in (("S1", "8"), ("S2", "3"), ("S3", "8"), ("S4", "8")):
        args = ["simulate", "--persona", persona, "--days", days, "--seed", "5", "--out", str(out)]
        assert runner.invoke(main, args).exit_code == 0
    return out


# CPUs seen, and the worker counts of the pools started: none on one CPU.
WORKERS = [({0}, []), ({0, 1}, [2])]


def test_analyze_writes_the_same_tree_with_one_worker_and_with_two(runner, tmp_path, sims, cpus):
    csv_files = [str(sims / "{}_readings.csv".format(p)) for p in ("S1", "S3", "S4")]
    runs = []
    for cpu_ids, pools in WORKERS:
        started = cpus(cpu_ids)
        out = tmp_path / "cpus{}".format(len(cpu_ids))
        result = runner.invoke(main, ["analyze", *csv_files, "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert started == pools
        runs.append((result.output, tree(out)))
    assert "user_means.svg" in runs[0][1] and "S4/anomalies.svg" in runs[0][1]
    assert runs[0] == runs[1]


def test_analyze_runs_in_process_where_the_cpus_cannot_be_read(runner, tmp_path, sims, cpus, monkeypatch):
    csv_files = [str(sims / "{}_readings.csv".format(p)) for p in ("S1", "S3")]
    cpus({0, 1})
    pooled = runner.invoke(main, ["analyze", *csv_files, "--out", str(tmp_path / "pooled")])
    started = cpus(())
    monkeypatch.delattr(cli.os, "sched_getaffinity")
    alone = runner.invoke(main, ["analyze", *csv_files, "--out", str(tmp_path / "alone")])
    assert pooled.exit_code == alone.exit_code == 0, alone.output
    assert started == []
    assert (pooled.output, tree(tmp_path / "pooled")) == (alone.output, tree(tmp_path / "alone"))


def test_analyze_pools_the_fits_of_a_single_meter(runner, tmp_path, sims, cpus):
    """One worker per CPU up to the number of fits: six for one meter's
    scan, one (so no pool) for its fixed-k fit; the files are those of a
    run on one CPU."""
    runs = []
    for cpu_ids, flags, pools in (({0}, [], []), ({0, 1, 2, 3}, [], [4]), ({0}, ["--k", "3"], []),
                                  ({0, 1, 2, 3}, ["--k", "3"], [])):
        started = cpus(cpu_ids)
        out = tmp_path / "run{}".format(len(runs))
        result = runner.invoke(main, ["analyze", str(sims / "S1_readings.csv"), *flags, "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert started == pools
        runs.append((result.output, tree(out)))
    assert runs[0] == runs[1] and runs[2] == runs[3]


@pytest.mark.parametrize("cpu_ids, pools", WORKERS, ids=["one-cpu", "two-cpus"])
def test_analyze_stops_at_the_first_failing_meter(runner, tmp_path, sims, cpus, cpu_ids, pools):
    """S2 holds three days, too few to scan k: S1's files are written as in
    a run without S2, and no file of S2 or of S3 after it."""
    csv_files = [str(sims / "{}_readings.csv".format(p)) for p in ("S1", "S2", "S3")]
    started = cpus(cpu_ids)
    result = runner.invoke(main, ["analyze", *csv_files, "--out", str(tmp_path / "out")])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert "meter S2: 3 profile(s) available; scanning k=1..6 needs at least 6" in result.output
    assert started == pools
    cpus({0})
    alone = runner.invoke(main, ["analyze", csv_files[0], "--out", str(tmp_path / "alone")])
    assert alone.exit_code == 0, alone.output
    s1_files = {name: data for name, data in tree(tmp_path / "alone").items() if name.startswith("S1/")}
    assert tree(tmp_path / "out") == s1_files


@pytest.mark.parametrize("flags", [[], ["--k", "3"]], ids=["scan", "fixed-k"])
def test_each_fit_runs_once_in_analyze_and_in_analyze_meter(runner, tmp_path, sims, cpus, monkeypatch, flags):
    """On one CPU the runner's fits run in this process, so counting
    ``pipeline.kmeans_fit`` sees each (meter, k) of ``fit_counts`` once, from
    the CLI and from ``analyze_meter`` of each meter alike."""
    fitted, kmeans_fit = [], pipeline.kmeans_fit

    def counting_fit(profiles, k, **kwargs):
        fitted.append((profiles.meter_id, k))
        return kmeans_fit(profiles, k, **kwargs)

    monkeypatch.setattr(pipeline, "kmeans_fit", counting_fit)
    csv_files = [str(sims / "{}_readings.csv".format(p)) for p in ("S1", "S3", "S4")]
    cpus({0})
    result = runner.invoke(main, ["analyze", *csv_files, *flags, "--out", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    by_analyze = sorted(fitted)
    fitted.clear()
    store = TelemetryStore()
    for csv_file in csv_files:
        store.ingest(read_readings_csv(csv_file))
    config = AnalysisConfig(k=3 if flags else None)
    analyses = [analyze_meter(store, meter_id, config) for meter_id in store.meters()]
    expected = [(a.meter_id, k) for a in analyses for k in fit_counts(a.profiles, config.k)]
    assert len(expected) == (3 if flags else 18)
    assert sorted(fitted) == by_analyze == sorted(expected)


# What a pool task of pipeline.analyze_meters can raise: the fit's and the
# finish's errors, and the store's (a fork of this process shares its store).
POOL_ERRORS = [
    InsufficientDataError("3 profile(s) available, k=6 requested"),
    ValueError("k must lie in 1..6"),
    StoreError("store out in use"),
    SpanTooLong("M1 1.8.0: 2014-01-01T00:00:00Z to 2025-01-01T00:00:00Z holds more than 350688 slots (ten years)"),
    ConflictingDuplicate("M1 1.8.0 at 2024-06-03T12:00:00+00:00: stored 1.000 vs new 2.000"),
    NonMonotonicRegister("M1 1.8.0: 2.000 -> 1.000 between 2024-06-03T12:00:00+00:00 and 2024-06-03T12:15:00+00:00"),
    ReadingsFormatError(3, "bad"),
    ReadingsFormatError(2, "value_kwh 'abc' is not a decimal number", "b.csv"),
    StoreLogError(3, "bad", Path("store") / "readings.ndjson"),
]


@pytest.mark.parametrize("error", POOL_ERRORS, ids=[type(e).__name__ for e in POOL_ERRORS])
def test_a_pool_task_error_crosses_to_the_parent_as_it_was_raised(error):
    """A worker's exception reaches the parent pickled: the copy has the same
    type, message and attributes, so the parent reports it as it would its own."""
    copy = pickle.loads(pickle.dumps(error))
    assert (type(copy), str(copy), vars(copy)) == (type(error), str(error), vars(error))


def test_store_directory_comes_from_the_environment(runner, tmp_path):
    sims = tmp_path / "sims"
    runner.invoke(
        main, ["simulate", "--persona", "S3", "--days", "1", "--seed", "1", "--out", str(sims)]
    )
    store_dir = tmp_path / "envstore"
    result = runner.invoke(
        main,
        ["ingest", str(sims / "S3_readings.csv")],
        env={"METERWATCH_DATA_DIR": str(store_dir)},
    )
    assert result.exit_code == 0, result.output
    assert (store_dir / "readings.ndjson").exists()
