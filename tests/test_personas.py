from __future__ import annotations

import json
from dataclasses import replace
from datetime import date

import numpy as np
import pytest

from meterwatch.personas import (
    AppliancePattern,
    HouseholdPersona,
    MODE_BURST,
    MODE_CONTINUOUS,
    MODE_STANDBY,
    PERSONA_IDS,
    RoutineTemplate,
    ScheduleWindow,
    build_persona,
    load_persona,
    persona_from_dict,
    template_vector,
)
from meterwatch.simulator import simulate_period
from oracles import persona_to_dict, uniform_template


def names(persona):
    return {a.name for a in persona.appliances}


def test_s3_owns_only_the_four_low_power_items():
    assert names(build_persona("S3")) == {"LED lighting", "fridge", "washing machine", "TV"}


def test_s1_inventory():
    s1 = names(build_persona("S1"))
    assert {"kettle", "oven", "dishwasher", "hairdryer", "iron"} <= s1
    assert "alarm" not in s1
    assert "A/C" not in s1
    assert "regular lighting" not in s1


def test_s2_adds_bulbs_and_alarm():
    s2 = names(build_persona("S2"))
    assert {"regular lighting", "alarm"} <= s2
    alarm = build_persona("S2").appliance("alarm")
    assert alarm.mode == MODE_STANDBY
    assert alarm.power_w == 5.0


def test_s4_includes_portable_ac_but_no_dishwasher():
    s4 = names(build_persona("S4"))
    assert "A/C" in s4
    assert "dishwasher" not in s4


def test_unknown_persona_error_lists_valid_ids():
    with pytest.raises(ValueError) as err:
        build_persona("S9")
    for pid in PERSONA_IDS:
        assert pid in str(err.value)


def test_default_ratings():
    s1 = build_persona("S1")
    assert s1.appliance("kettle").power_w == 2000.0
    assert s1.appliance("oven").power_w == 2200.0
    assert s1.appliance("washing machine").power_w == 2000.0
    assert s1.appliance("fridge").power_w == 90.0
    assert s1.appliance("fridge").duty == pytest.approx(0.4)
    assert s1.appliance("TV").power_w == 60.0
    assert s1.appliance("LED lighting").power_w == 40.0
    assert s1.appliance("hairdryer").power_w == 1200.0
    assert s1.appliance("iron").power_w == 1800.0
    assert build_persona("S4").appliance("A/C").power_w == 900.0


def test_every_persona_is_internally_consistent():
    for pid in PERSONA_IDS:
        persona = build_persona(pid)
        assert abs(sum(persona.template_weights) - 1.0) <= 1e-9
        for template in persona.routine_templates:
            assert len(template.weights) == 96
            assert all(w >= 0 for w in template.weights)


def test_s3_has_two_templates_others_three():
    assert len(build_persona("S3").routine_templates) == 2
    for pid in ("S1", "S2", "S4"):
        assert len(build_persona(pid).routine_templates) == 3


def test_template_vector_peaks_where_told():
    weights = template_vector([(32, 3.0, 1.0)])
    assert max(range(96), key=lambda s: weights[s]) == 32


def test_schedule_window_validation():
    with pytest.raises(ValueError):
        ScheduleWindow(10, 10)
    with pytest.raises(ValueError):
        ScheduleWindow(0, 97)
    with pytest.raises(ValueError):
        ScheduleWindow(0, 8, probability=1.5)


def test_appliance_validation():
    with pytest.raises(ValueError):
        AppliancePattern("x", -1.0, MODE_STANDBY)
    with pytest.raises(ValueError):
        AppliancePattern("x", 10.0, "sometimes-on")
    with pytest.raises(ValueError):
        AppliancePattern("x", 10.0, MODE_BURST, duration_slots=2, cycle=(1.0,))
    with pytest.raises(ValueError):
        AppliancePattern(
            "x", 10.0, MODE_BURST, schedule=(ScheduleWindow(0, 2),), duration_slots=4
        )


def test_template_weights_must_match_templates():
    with pytest.raises(ValueError):
        HouseholdPersona("X", (), (uniform_template(),), (0.5, 0.5))
    with pytest.raises(ValueError):
        HouseholdPersona("X", (), (uniform_template(),), (0.9,))


def test_persona_json_roundtrip(tmp_path):
    persona = build_persona("S4")
    data = persona_to_dict(persona)
    assert persona_from_dict(data) == persona
    path = tmp_path / "persona.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert load_persona(path) == persona


def test_all_zero_template_is_rejected():
    with pytest.raises(ValueError):
        RoutineTemplate("flat", (0.0,) * 96)


INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize(
    "build, named",
    [
        (lambda: AppliancePattern("kettle", INF, MODE_STANDBY), "kettle: power_w"),
        (lambda: AppliancePattern("kettle", NAN, MODE_STANDBY), "kettle: power_w"),
        (lambda: AppliancePattern("TV", 60.0, MODE_BURST, power_noise=-0.01), "TV: power_noise"),
        (lambda: AppliancePattern("TV", 60.0, MODE_BURST, power_noise=NAN), "TV: power_noise"),
        (lambda: AppliancePattern("fridge", 90.0, MODE_CONTINUOUS, duty_jitter=-0.08), "fridge: duty_jitter"),
        (lambda: AppliancePattern("fridge", 90.0, MODE_CONTINUOUS, duty_jitter=INF), "fridge: duty_jitter"),
        (lambda: AppliancePattern("TV", 60.0, MODE_BURST, placement_jitter=-1), "TV: placement_jitter"),
        (lambda: AppliancePattern("washer", 2000.0, MODE_BURST, duration_slots=2, cycle=(1.0, NAN)), "washer: cycle"),
        (lambda: AppliancePattern("oven", 2200.0, MODE_BURST, duration_slots=97), "duration_slots must lie in 1..96"),
        (lambda: RoutineTemplate("busy", (1.0,) * 95 + (INF,)), "busy: weights"),
        (lambda: RoutineTemplate("busy", (NAN,) * 96), "busy: weights"),
        (lambda: RoutineTemplate("busy", [1.0] * 95 + [-1.0]), "busy: weights"),
        (lambda: AppliancePattern("washer", 2000.0, MODE_BURST, duration_slots=2, cycle=np.array([1.0, INF])),
         "washer: cycle"),
        (lambda: HouseholdPersona("P", (), (uniform_template(),), (NAN,)), "P: template_weights"),
        (lambda: HouseholdPersona("P", (), (uniform_template(),), (1.0,), NAN), "P: ambient_noise_w"),
        (lambda: HouseholdPersona("P", (), (uniform_template(),), (1.0,), -1.0), "P: ambient_noise_w"),
        (lambda: HouseholdPersona("P", (), (uniform_template(),), (1.0,), INF), "P: ambient_noise_w"),
    ],
)
def test_a_persona_number_that_is_not_finite_or_a_negative_spread_is_refused(build, named):
    """Every number of a persona is finite and non-negative; the message names
    the owner and the field."""
    with pytest.raises(ValueError, match=named):
        build()


@pytest.mark.parametrize("text, named", [("Infinity", "Infinity is not a JSON number"),
                                         ("NaN", "NaN is not a JSON number"),
                                         ("1e400", "TV: power_w must be finite")])
def test_load_persona_refuses_a_power_that_is_not_finite(tmp_path, text, named):
    data = json.dumps(persona_to_dict(build_persona("S1"))).replace('"power_w": 60.0', '"power_w": ' + text)
    path = tmp_path / "persona.json"
    path.write_text(data, encoding="utf-8")
    with pytest.raises(ValueError, match=named):
        load_persona(path)


# The LED lighting's first window and run in S1's JSON form, as written there.
LED_FIELDS = {"start_slot": '"start_slot": 22', "end_slot": '"end_slot": 34', "duration_slots": '"duration_slots": 6',
              "placement_jitter": '"placement_jitter": 0'}


@pytest.mark.parametrize("field", list(LED_FIELDS))
@pytest.mark.parametrize("text, shown", [("22.7", "22.7"), ('"30"', '"30"'), ("1e400", "Infinity"), ("true", "true")],
                         ids=["fraction", "text", "overflow", "bool"])
def test_load_persona_refuses_a_slot_number_that_is_not_an_integer(tmp_path, field, text, shown):
    data = json.dumps(persona_to_dict(build_persona("S1")))
    written = LED_FIELDS[field]
    path = tmp_path / "persona.json"
    path.write_text(data.replace(written, written.rsplit(" ", 1)[0] + " " + text, 1), encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_persona(path)
    assert str(err.value) == "LED lighting: {} must be an integer, not {}".format(field, shown)


def test_a_whole_float_slot_number_reads_as_its_integer():
    data = json.dumps(persona_to_dict(build_persona("S1")))
    for written in LED_FIELDS.values():
        data = data.replace(written, written + ".0", 1)
    assert persona_from_dict(json.loads(data)) == build_persona("S1")


def test_list_and_array_numbers_build_the_same_simulation():
    """A weights, template_weights or cycle given as a list or numpy array is
    checked item by item and simulates as the tuple would."""
    s1 = build_persona("S1")
    as_lists = replace(
        s1,
        appliances=tuple(replace(a, cycle=np.array(a.cycle)) if a.cycle else a for a in s1.appliances),
        routine_templates=tuple(replace(t, weights=list(t.weights)) for t in s1.routine_templates),
        template_weights=np.array(s1.template_weights),
    )
    a, b = (simulate_period(p, date(2024, 6, 3), 14, seed=3) for p in (s1, as_lists))
    assert a.slot_powers_w.tobytes() == b.slot_powers_w.tobytes()
    assert list(a.readings) == list(b.readings) and a.truth_labels == b.truth_labels
