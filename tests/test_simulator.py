from __future__ import annotations

from datetime import date, timedelta
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles

from meterwatch.personas import (
    ALL_DAYS,
    MODE_BURST,
    MODE_CONTINUOUS,
    MODE_STANDBY,
    AppliancePattern,
    HouseholdPersona,
    PERSONA_IDS,
    RoutineTemplate,
    ScheduleWindow,
    build_persona,
    template_vector,
)
from meterwatch.protocol import ObisCode, extract_energy
from meterwatch.simulator import (
    ANOMALY_KINDS,
    SCRIPT_PARAMETERS,
    AnomalyScript,
    SimOutput,
    emit_frames,
    simulate_period,
)
from meterwatch.store import REGISTER_MODULUS_WH, _to_kwh, write_readings_csv

START = date(2024, 6, 3)
OBIS_180 = ObisCode(1, 8, 0)


def _standby_persona(power_w: float = 10.0) -> HouseholdPersona:
    return HouseholdPersona(
        id="standby",
        appliances=(AppliancePattern("charger", power_w, MODE_STANDBY),),
        routine_templates=(oracles.uniform_template(),),
        template_weights=(1.0,),
    )


def _burst_persona() -> HouseholdPersona:
    morning = AppliancePattern(
        "heater",
        1000.0,
        MODE_BURST,
        schedule=(ScheduleWindow(30, 36),),
        duration_slots=2,
    )
    fridge = AppliancePattern("fridge", 100.0, MODE_CONTINUOUS, duty=0.5)
    base = AppliancePattern("hub", 8.0, MODE_STANDBY)
    return HouseholdPersona(
        id="bursty",
        appliances=(morning, fridge, base),
        routine_templates=(oracles.uniform_template(),),
        template_weights=(1.0,),
    )


def test_reading_count_and_grid():
    sim = simulate_period(build_persona("S1"), START, 5, seed=3)
    assert len(sim.readings) == 96 * 5 + 1
    deltas = {
        (b.timestamp - a.timestamp)
        for a, b in zip(sim.readings, sim.readings[1:])
    }
    assert deltas == {timedelta(minutes=15)}
    assert all(r.timestamp.second == 0 for r in sim.readings)


def test_register_is_non_decreasing_without_rollover():
    sim = simulate_period(build_persona("S2"), START, 10, seed=9)
    values = [r.value_kwh for r in sim.readings]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_determinism_is_byte_exact(tmp_path):
    kwargs = dict(persona=build_persona("S4"), start=START, n_days=7, seed=123)
    a, b = simulate_period(**kwargs), simulate_period(**kwargs)
    assert a.readings == b.readings
    assert a.truth_labels == b.truth_labels
    write_readings_csv(tmp_path / "a.csv", a.readings)
    write_readings_csv(tmp_path / "b.csv", b.readings)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_scripting_one_day_leaves_other_days_untouched():
    persona = build_persona("S1")
    plain = simulate_period(persona, START, 6, seed=4)
    scripted = simulate_period(
        persona, START, 6, [AnomalyScript("full-absence", START + timedelta(days=2))], seed=4
    )
    for day in range(6):
        if day == 2:
            continue
        assert np.array_equal(plain.slot_powers_w[day], scripted.slot_powers_w[day])


def test_standby_only_load_quantizes_to_alternating_counts():
    sim = simulate_period(_standby_persona(10.0), START, 1, seed=0)
    values = [r.value_kwh for r in sim.readings]
    increments = [b - a for a, b in zip(values, values[1:])]
    assert set(increments) == {Decimal("0.002"), Decimal("0.003")}
    # 10 W for 24 h = 240 Wh; the truncation carry conserves it exactly.
    assert values[-1] - values[0] == Decimal("0.240")


def test_truth_labels_cover_every_day():
    persona = build_persona("S3")
    sim = simulate_period(persona, START, 9, seed=2)
    assert sorted(sim.truth_labels) == [START + timedelta(days=i) for i in range(9)]
    names = {t.name for t in persona.routine_templates}
    assert set(sim.truth_labels.values()) <= names | set(ANOMALY_KINDS)


def test_s3_days_stay_quiet_and_less_variable_than_s1():
    s3 = simulate_period(build_persona("S3"), START, 30, seed=7)
    s1 = simulate_period(build_persona("S1"), START, 30, seed=7)
    assert s3.slot_powers_w.max() <= 500.0
    day_energy_s3 = s3.slot_powers_w.sum(axis=1)
    day_energy_s1 = s1.slot_powers_w.sum(axis=1)
    cov_s3 = day_energy_s3.std() / day_energy_s3.mean()
    cov_s1 = day_energy_s1.std() / day_energy_s1.mean()
    assert cov_s3 < cov_s1


def test_full_absence_day_keeps_only_baseline_loads():
    persona = _burst_persona()
    day = START + timedelta(days=1)
    sim = simulate_period(persona, START, 3, [AnomalyScript("full-absence", day)], seed=5)
    assert sim.truth_labels[day] == "full-absence"
    absent = sim.slot_powers_w[1]
    # standby 8 W + fridge at most 100 W; the 1000 W burst never fires
    assert absent.max() < 8.0 + 100.0 + 1.0
    normal_days = sim.slot_powers_w[[0, 2]]
    assert normal_days.max() > 500.0


def test_absence_morning_clears_scheduled_bursts_in_window():
    persona = _burst_persona()
    day = START + timedelta(days=1)
    sim = simulate_period(persona, START, 3, [AnomalyScript("absence-morning", day)], seed=5)
    morning = sim.slot_powers_w[1][28:48]
    assert morning.max() < 8.0 + 100.0 + 1.0


def test_shifted_morning_moves_the_burst_later():
    persona = _burst_persona()
    day = START + timedelta(days=1)
    sim = simulate_period(
        persona,
        START,
        3,
        [AnomalyScript("shifted-morning", day, {"shift_slots": 12})],
        seed=5,
    )
    shifted = sim.slot_powers_w[1]
    plain = simulate_period(persona, START, 3, seed=5).slot_powers_w[1]
    original_start = int(np.argmax(plain > 500.0))
    assert shifted[original_start] < 200.0
    assert shifted[original_start + 12] > 500.0


def test_evening_baking_adds_an_oven_block():
    persona = build_persona("S1")
    day = START + timedelta(days=1)
    sim = simulate_period(persona, START, 3, [AnomalyScript("evening-baking", day)], seed=5)
    evening = sim.slot_powers_w[1][72:80]
    assert evening.min() > 1000.0


def test_script_day_outside_period_fails_before_simulation():
    with pytest.raises(ValueError):
        simulate_period(
            build_persona("S1"), START, 3, [AnomalyScript("full-absence", START + timedelta(days=3))], seed=1
        )


def test_unknown_script_kind_is_rejected():
    with pytest.raises(ValueError):
        AnomalyScript("party", START)


def test_two_scripts_on_one_day_are_rejected():
    scripts = [
        AnomalyScript("full-absence", START),
        AnomalyScript("evening-baking", START),
    ]
    with pytest.raises(ValueError):
        simulate_period(build_persona("S1"), START, 3, scripts, seed=1)


def test_register_rollover_wraps_at_the_display_modulus():
    sim = simulate_period(
        _standby_persona(2000.0),
        START,
        1,
        seed=0,
        initial_register_kwh=Decimal("999999.900"),
    )
    values = [r.value_kwh for r in sim.readings]
    assert values[0] == Decimal("999999.900")
    assert any(v < Decimal("1") for v in values)
    assert all(v < Decimal("1000000") for v in values)


def test_energy_conservation_between_truth_and_register():
    for pid in ("S1", "S3"):
        sim = simulate_period(build_persona(pid), START, 10, seed=21)
        truth_kwh = sim.slot_powers_w.sum() * 0.25 / 1000.0
        register_delta = float(sim.readings[-1].value_kwh - sim.readings[0].value_kwh)
        assert abs(truth_kwh - register_delta) <= 0.001 + 1e-6


def test_emit_frames_round_trip():
    sim = simulate_period(build_persona("S1"), START, 1, seed=3)
    frames = emit_frames(sim)
    assert len(frames) == len(sim.readings)
    for (ts, frame), reading in zip(frames, sim.readings):
        assert ts == reading.timestamp
        assert extract_energy(frame, OBIS_180) == reading.value_kwh
        assert len(frame.lines) == 1
        assert len(frame.lines[0].value) == 10


def test_emit_frames_formats_the_display_field():
    readings = simulate_period(
        _standby_persona(0.0), START, 1, seed=0, initial_register_kwh=Decimal("123.456")
    )
    frames = emit_frames(readings)
    assert frames[0][1].lines[0].value == "000123.456"


def test_emit_frames_of_empty_output_is_empty():
    empty = SimOutput("none", (), {}, np.zeros((0, 96)))
    assert emit_frames(empty) == []


# A standby draw of 1e13 W is 2.5e18 µWh a slot, so an int64 sum wraps
# within four slots; 2000.03125 W is 500 007 812.5 µWh a slot, a tie that
# rounding half up breaks the other way.
BIG_STANDBY_W, TIE_STANDBY_W = 1e13, 2000.03125
# Summer time, the October change (2024-10-27) and the March change (2024-03-31).
SIM_STARTS = [START, date(2024, 10, 20), date(2024, 3, 25)]


@st.composite
def simulation_args(draw):
    """A persona, start, day count, scripts, seed and initial register,
    mostly within 500 kWh of the rollover."""
    persona = draw(st.one_of(
        st.sampled_from(PERSONA_IDS).map(build_persona),
        st.sampled_from([BIG_STANDBY_W, TIE_STANDBY_W]).map(_standby_persona),
    ))
    start, n_days = draw(st.sampled_from(SIM_STARTS)), draw(st.integers(1, 20))
    script_days = draw(st.lists(st.integers(0, n_days - 1), unique=True, max_size=4))
    scripts = [AnomalyScript(draw(st.sampled_from(ANOMALY_KINDS)), start + timedelta(days=d)) for d in script_days]
    register_wh = draw(st.one_of(st.just(0), st.integers(REGISTER_MODULUS_WH - 500_000, REGISTER_MODULUS_WH - 1)))
    return persona, start, n_days, scripts, draw(st.integers(0, 2**64 - 1)), _to_kwh(register_wh)


# Days before the March and the October change of 2024, and late in 9999:
# a period that ends on 9999-12-31 has its last reading at 9999-12-31T23:00Z.
DST_AND_LATE_STARTS = [date(2024, 3, 27), date(2024, 10, 23), date(9999, 12, 25)]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(PERSONA_IDS),
    st.sampled_from(DST_AND_LATE_STARTS),
    st.integers(1, 7),
    st.integers(0, 2**64 - 1),
    st.integers(REGISTER_MODULUS_WH - 1_000, REGISTER_MODULUS_WH - 1),
    st.data(),
)
def test_readings_are_the_columns_of_the_old_reading_objects(persona_id, start, n_days, seed, register_wh, data):
    """The register starts at most 1 kWh below 1 000 000 kWh: each persona uses more on a routine day, so it rolls over."""
    script_days = data.draw(st.lists(st.integers(0, n_days - 1), unique=True, max_size=3))
    scripts = [AnomalyScript(data.draw(st.sampled_from(ANOMALY_KINDS)), start + timedelta(days=d)) for d in script_days]
    initial = _to_kwh(register_wh)
    sim = simulate_period(build_persona(persona_id), start, n_days, scripts, seed, initial_register_kwh=initial)
    expected = oracles.simulated_reading_objects(sim, start, initial)
    assert sim.readings == expected and expected == sim.readings
    assert [str(r.value_kwh) for r in sim.readings] == [str(r.value_kwh) for r in expected]


@settings(max_examples=60, deadline=None)
@given(simulation_args())
@example((_standby_persona(TIE_STANDBY_W), START, 2, [], 0, Decimal("0.000")))
@example((_standby_persona(BIG_STANDBY_W), START, 1, [], 0, Decimal("999999.999")))
def test_registers_match_the_per_slot_integration(args):
    persona, start, n_days, scripts, seed, initial = args
    sim = simulate_period(persona, start, n_days, scripts, seed, initial_register_kwh=initial)
    expected = oracles.simulated_readings(sim, start, initial)
    assert list(sim.readings) == expected
    assert [(r.timestamp.isoformat(), str(r.value_kwh)) for r in sim.readings] == [
        (r.timestamp.isoformat(), str(r.value_kwh)) for r in expected
    ]


def test_a_slot_energy_that_overflows_names_the_persona():
    """1e303 W is 2.5e308 µWh a slot, past the largest float."""
    with pytest.raises(ValueError, match="persona standby: a slot's energy overflows"):
        simulate_period(_standby_persona(1e303), START, 1)


# Template shapes: even, one morning bump (every other window is gated
# out), and two bumps.
TEMPLATES = [
    oracles.uniform_template(),
    RoutineTemplate("morning", template_vector([(30, 2.0, 1.0)])),
    RoutineTemplate("two-peaks", template_vector([(40, 5.0, 1.0), (80, 3.0, 0.6)])),
]
TEMPLATE_WEIGHTS = {1: [(1.0,)], 2: [(0.5, 0.5), (0.7, 0.3)], 3: [(0.5, 0.25, 0.25), (0.2, 0.3, 0.5)]}


@st.composite
def burst_appliance(draw, name):
    duration = draw(st.integers(1, 8))
    windows = []
    for _ in range(draw(st.integers(1, 2))):
        start = draw(st.integers(0, 96 - duration))
        end = draw(st.integers(start + duration, min(96, start + duration + 24)))
        days = draw(st.sampled_from([ALL_DAYS, frozenset({0, 2, 4}), frozenset({5, 6})]))
        windows.append(ScheduleWindow(start, end, days, draw(st.sampled_from([0.0, 0.35, 0.8, 1.0]))))
    cycle = draw(st.none() | st.lists(st.sampled_from([0.1, 0.5, 1.0]), min_size=duration, max_size=duration))
    return AppliancePattern(
        name, draw(st.sampled_from([40.0, 1500, 2200.0])), MODE_BURST, tuple(windows),
        duty=draw(st.sampled_from([1, 0.25])), duration_slots=duration, cycle=None if cycle is None else tuple(cycle),
        placement_jitter=draw(st.integers(0, 3)), power_noise=draw(st.sampled_from([0.0, 0.01, 1.5])),
    )


@st.composite
def custom_personas(draw):
    """Personas with what no built-in one has: a placement jitter, a window
    probability between 0 and 1, noiseless and heavily noisy bursts (the
    noise factor clipped at 0), integer power and duty, up to two continuous
    appliances, and no or large ambient noise (negative slot powers clipped
    at 0 W)."""
    names = draw(st.lists(st.sampled_from(["oven", "dishwasher", "kettle", "TV", "iron"]), unique=True, max_size=4))
    appliances = [draw(burst_appliance(name)) for name in names]
    for i in range(draw(st.integers(0, 2))):
        jitter = draw(st.sampled_from([0.0, 0.08, 2.0]))
        appliances.append(AppliancePattern("fridge {}".format(i), 90.0, MODE_CONTINUOUS, duty=0.4, duty_jitter=jitter))
    if draw(st.booleans()):
        appliances.append(AppliancePattern("hub", 8.0, MODE_STANDBY))
    templates = draw(st.lists(st.sampled_from(TEMPLATES), min_size=1, max_size=3, unique_by=lambda t: t.name))
    return HouseholdPersona(
        "custom", tuple(draw(st.permutations(appliances))), tuple(templates),
        draw(st.sampled_from(TEMPLATE_WEIGHTS[len(templates)])), draw(st.sampled_from([0.0, 6.0, 400.0])),
    )


def script_parameters(kind):
    bounds = {"duration_slots": (1, 96), "with_dishwasher": (0, 1)}
    return st.fixed_dictionaries({}, optional={
        name: st.integers(*bounds.get(name, (0, 96))) for name in SCRIPT_PARAMETERS[kind]})


# A standby appliance between two continuous ones, and a burst whose power
# and duty are integers.  The simulator sums the ambient and continuous-duty
# noise 32 days at a time; the examples below end inside, on and past a
# block edge.
BLOCK_PERSONA = HouseholdPersona(
    "blocks",
    (
        AppliancePattern("fridge", 90.0, MODE_CONTINUOUS, duty=0.4, duty_jitter=2.0),
        AppliancePattern("hub", 8.0, MODE_STANDBY),
        AppliancePattern("freezer", 120.0, MODE_CONTINUOUS, duty=0.3, duty_jitter=0.08),
        AppliancePattern("kettle", 2000, MODE_BURST, (ScheduleWindow(26, 38),), duty=1, power_noise=1.5),
    ),
    (oracles.uniform_template(),),
    (1.0,),
    400.0,
)


# The days the clocks go forward and back in 2024, and the last week there is.
ORACLE_STARTS = [date(2024, 3, 31), date(2024, 10, 27), date(9999, 12, 25)]


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(st.sampled_from(PERSONA_IDS).map(build_persona), custom_personas()),
    st.sampled_from(ORACLE_STARTS),
    st.integers(1, 7),
    st.integers(0, 2**64 - 1),
    st.one_of(st.just(0), st.integers(REGISTER_MODULUS_WH - 200_000, REGISTER_MODULUS_WH - 1)),
    st.data(),
)
@example(_standby_persona(BIG_STANDBY_W), START, 1, 0, REGISTER_MODULUS_WH - 1, None)
@example(_standby_persona(TIE_STANDBY_W), START, 2, 0, 0, None)
@example(build_persona("S2"), START, 33, 11, 0, None)
@example(BLOCK_PERSONA, START, 31, 11, 0, None)
@example(BLOCK_PERSONA, START, 32, 11, 0, None)
@example(BLOCK_PERSONA, START, 65, 11, 0, None)
def test_simulation_matches_the_day_by_day_loop(persona, start, n_days, seed, register_wh, data):
    """Slot powers bit for bit, truth labels and readings equal the loop that
    drew each activation's noise slot by slot and summed Python ints."""
    scripts = []
    if data is not None:
        for day in data.draw(st.lists(st.integers(0, n_days - 1), unique=True, max_size=3)):
            kind = data.draw(st.sampled_from(ANOMALY_KINDS))
            scripts.append(AnomalyScript(kind, start + timedelta(days=day), data.draw(script_parameters(kind))))
    initial = _to_kwh(register_wh)
    sim = simulate_period(persona, start, n_days, scripts, seed, initial_register_kwh=initial)
    slot_powers, truth, readings = oracles.simulate_period(persona, start, n_days, scripts, seed, initial)
    assert sim.slot_powers_w.tobytes() == slot_powers.tobytes()
    assert sim.truth_labels == truth
    assert list(sim.readings) == readings
