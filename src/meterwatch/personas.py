"""Household personas: appliance inventories and daily-routine templates.

Four built-in personas (S1..S4) model single-occupant households that
differ in equipment and habits.  Each persona carries

* an appliance inventory (what the household owns, with power ratings and
  plausible operating windows), and
* a small set of routine templates: 96-slot weight vectors describing on
  which parts of the day activity concentrates, plus the probability of
  each template being the day's routine.

Power ratings and usage rates are declared defaults, configurable via the
JSON persona format (see docs/persona-schema.json); they are chosen so the
synthetic profiles show the familiar morning/noon/evening peak structure
of real household load data.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

SLOTS_PER_DAY = 96

MODE_CONTINUOUS = "continuous-duty-cycle"
MODE_BURST = "scheduled-burst"
MODE_STANDBY = "standby"
MODES = (MODE_CONTINUOUS, MODE_BURST, MODE_STANDBY)

ALL_DAYS = frozenset(range(7))  # Monday=0 .. Sunday=6

# Default nameplate ratings (watts).
KETTLE_W = 2000.0
OVEN_W = 2200.0
WASHER_PEAK_W = 2000.0
DISHWASHER_PEAK_W = 1500.0
FRIDGE_W = 90.0
FRIDGE_DUTY = 0.4
TV_W = 60.0
LED_LIGHT_W = 40.0
BULB_LIGHT_W = 120.0
HAIRDRYER_W = 1200.0
IRON_W = 1800.0
AC_W = 900.0
ALARM_W = 5.0

PERSONA_IDS = ("S1", "S2", "S3", "S4")


def _check_numbers(owner: str, **fields) -> None:
    """A ``ValueError`` naming ``owner`` and the field of a number (or of an
    item of a sequence) that is not finite and non-negative."""
    for field, value in fields.items():
        for number in (value,) if isinstance(value, numbers.Real) else value:
            if not (math.isfinite(number) and number >= 0):
                raise ValueError("{}: {} must be finite and non-negative, not {}".format(owner, field, number))


@dataclass(frozen=True)
class ScheduleWindow:
    """A slot range on given weekdays in which an appliance may run."""

    start_slot: int
    end_slot: int
    days: frozenset[int] = ALL_DAYS
    probability: float = 1.0

    def __post_init__(self):
        if not 0 <= self.start_slot < self.end_slot <= SLOTS_PER_DAY:
            raise ValueError("window must satisfy 0 <= start < end <= 96")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("activation probability must lie in [0, 1]")
        if not all(0 <= d <= 6 for d in self.days):
            raise ValueError("days must be weekday numbers 0..6")


@dataclass(frozen=True)
class AppliancePattern:
    """One appliance's electrical behaviour.

    ``duty`` is the fraction of an active slot spent drawing ``power_w``
    (a kettle boils for ~4 of 15 minutes).  Burst appliances run for
    ``duration_slots`` consecutive slots; ``cycle`` optionally shapes the
    run with per-slot multipliers (washing-machine heat/tumble/spin).
    ``placement_jitter`` wobbles the burst start by up to that many slots;
    ``power_noise`` is a relative sigma on the delivered power.
    """

    name: str
    power_w: float
    mode: str
    schedule: tuple[ScheduleWindow, ...] = ()
    duty: float = 1.0
    duration_slots: int = 1
    cycle: tuple[float, ...] | None = None
    placement_jitter: int = 0
    power_noise: float = 0.0
    duty_jitter: float = 0.0

    def __post_init__(self):
        _check_numbers(self.name, power_w=self.power_w, duty=self.duty, duration_slots=self.duration_slots,
                       cycle=() if self.cycle is None else self.cycle, placement_jitter=self.placement_jitter, power_noise=self.power_noise,
                       duty_jitter=self.duty_jitter)
        if self.mode not in MODES:
            raise ValueError("mode must be one of {}".format(MODES))
        if not 0.0 <= self.duty <= 1.0:
            raise ValueError("duty must lie in [0, 1]")
        if not 1 <= self.duration_slots <= SLOTS_PER_DAY:
            raise ValueError("duration_slots must lie in 1..96")
        if self.cycle is not None and len(self.cycle) != self.duration_slots:
            raise ValueError("cycle length must equal duration_slots")
        for w in self.schedule:
            if w.end_slot - w.start_slot < self.duration_slots:
                raise ValueError(
                    "window {}..{} shorter than a {}-slot run of {}".format(
                        w.start_slot, w.end_slot, self.duration_slots, self.name
                    )
                )


@dataclass(frozen=True)
class RoutineTemplate:
    """Named 96-slot activity-weight vector; higher weight = busier time."""

    name: str
    weights: tuple[float, ...]

    def __post_init__(self):
        _check_numbers(self.name, weights=self.weights)
        if len(self.weights) != SLOTS_PER_DAY:
            raise ValueError("template weights must have length 96")
        if sum(self.weights) <= 0:
            raise ValueError("template weights must not be all zero")


@dataclass(frozen=True)
class HouseholdPersona:
    """A household: what it owns, how its days are shaped.

    ``ambient_noise_w`` is the sigma of small unmetered loads (chargers,
    radios) added per slot on top of the modelled appliances.
    """

    id: str
    appliances: tuple[AppliancePattern, ...]
    routine_templates: tuple[RoutineTemplate, ...]
    template_weights: tuple[float, ...]
    ambient_noise_w: float = 0.0

    def __post_init__(self):
        _check_numbers(self.id, template_weights=self.template_weights, ambient_noise_w=self.ambient_noise_w)
        if len(self.template_weights) != len(self.routine_templates):
            raise ValueError("one weight per routine template required")
        if abs(sum(self.template_weights) - 1.0) > 1e-9:
            raise ValueError("template weights must sum to 1")

    def appliance(self, name: str) -> AppliancePattern | None:
        for app in self.appliances:
            if app.name == name:
                return app
        return None


def template_vector(bumps, floor: float = 0.005) -> tuple[float, ...]:
    """Build a weight vector from Gaussian activity bumps.

    ``bumps`` is a sequence of (center_slot, sigma, amplitude) triples laid
    over a small constant floor.
    """
    weights = [floor] * SLOTS_PER_DAY
    for center, sigma, amplitude in bumps:
        for slot in range(SLOTS_PER_DAY):
            weights[slot] += amplitude * math.exp(-((slot - center) ** 2) / (2.0 * sigma**2))
    return tuple(weights)


# -- appliances --------------------------------------------------------------


def _burst(name: str, power_w: float, windows, **options) -> AppliancePattern:
    """A scheduled-burst appliance; ``windows`` holds ``ScheduleWindow`` arguments."""
    schedule = tuple(ScheduleWindow(*window) for window in windows)
    return AppliancePattern(name, power_w, MODE_BURST, schedule=schedule, **options)


def _washing_machine(probability: float) -> AppliancePattern:
    # Heat, tumble, tumble, spin.
    return _burst("washing machine", WASHER_PEAK_W, [(36, 70, ALL_DAYS, probability)], duration_slots=4,
                  cycle=(1.0, 0.2, 0.15, 0.3), power_noise=0.01)


_FRIDGE = AppliancePattern("fridge", FRIDGE_W, MODE_CONTINUOUS, duty=FRIDGE_DUTY, duty_jitter=0.08)
# ~4 minutes of boiling within the morning window.
_KETTLE = _burst("kettle", KETTLE_W, [(26, 38)], duty=4.0 / 15.0, power_noise=0.01)
_HAIRDRYER = _burst("hairdryer", HAIRDRYER_W, [(28, 38)], duty=5.0 / 15.0, power_noise=0.01)
_OVEN = _burst("oven", OVEN_W, [(42, 70)], duty=0.75, duration_slots=4, power_noise=0.01)
_WASHER = _washing_machine(1.0)
# Two heating phases separated by low-power circulation.
_DISHWASHER = _burst("dishwasher", DISHWASHER_PEAK_W, [(48, 88)], duration_slots=4, cycle=(1.0, 0.2, 1.0, 0.13),
                     power_noise=0.01)
_IRON = _burst("iron", IRON_W, [(52, 68)], duty=0.5, duration_slots=2, power_noise=0.01)
_TV = _burst("TV", TV_W, [(74, 90)], duration_slots=12, power_noise=0.03)
_LED_LIGHTING = _burst("LED lighting", LED_LIGHT_W, [(22, 34), (74, 92)], duration_slots=6, power_noise=0.05)
_BULB_LIGHTING = _burst("regular lighting", BULB_LIGHT_W, [(74, 90)], duration_slots=8, power_noise=0.05)
_AC = _burst("A/C", AC_W, [(56, 80)], duty=0.6, duration_slots=10, power_noise=0.01)
_ALARM = AppliancePattern("alarm", ALARM_W, MODE_STANDBY)

# -- routine templates -------------------------------------------------------

# Morning tea/grooming around 08:00 plus TV and lighting around 20:00-21:00.
_TYPICAL = template_vector([(32, 3.0, 1.0), (82, 4.0, 0.9)])
# Cooking and laundry concentrated around noon.
_NOON_ACTIVITY = template_vector([(50, 3.0, 1.0), (82, 4.0, 0.45)])
# Baking/cooling in the late afternoon.
_LATE_AFTERNOON = template_vector([(68, 4.0, 1.0), (84, 4.0, 0.35)])

# Quiet variants for the low-consumption household: lighting and TV only,
# with slightly different evening timing.
_QUIET_A = template_vector([(30, 3.0, 0.25), (80, 4.0, 0.3)])
_QUIET_B = template_vector([(34, 3.0, 0.2), (86, 4.0, 0.3)])

_THREE_ROUTINES = (
    RoutineTemplate("typical", _TYPICAL),
    RoutineTemplate("noon-activity", _NOON_ACTIVITY),
    RoutineTemplate("late-afternoon", _LATE_AFTERNOON),
)
_THREE_WEIGHTS = (0.5, 0.25, 0.25)

# The built-in personas: id -> (appliances, routine templates, template
# weights, ambient noise in watts), the fields of ``HouseholdPersona`` after its id.
_PERSONAS = {
    "S1": (
        (_LED_LIGHTING, _FRIDGE, _KETTLE, _OVEN, _DISHWASHER, _HAIRDRYER, _WASHER, _IRON, _TV),
        _THREE_ROUTINES, _THREE_WEIGHTS, 12.0,
    ),
    "S2": (
        (_BULB_LIGHTING, _LED_LIGHTING, _FRIDGE, _KETTLE, _OVEN, _DISHWASHER, _HAIRDRYER, _WASHER, _IRON, _TV, _ALARM),
        _THREE_ROUTINES, _THREE_WEIGHTS, 12.0,
    ),
    # Owns a washing machine but line-dries and rarely runs it; cooking
    # and water heating are on gas, so day-to-day variation is minimal.
    "S3": (
        (_LED_LIGHTING, _FRIDGE, _washing_machine(0.0), _TV),
        (RoutineTemplate("quiet-early", _QUIET_A), RoutineTemplate("quiet-late", _QUIET_B)),
        (0.6, 0.4), 6.0,
    ),
    "S4": (
        (_LED_LIGHTING, _FRIDGE, _KETTLE, _OVEN, _HAIRDRYER, _WASHER, _IRON, _TV, _AC),
        _THREE_ROUTINES, _THREE_WEIGHTS, 12.0,
    ),
}


def build_persona(persona_id: str) -> HouseholdPersona:
    """Return one of the built-in personas S1..S4.

    Raises:
        ValueError: for unknown ids; the message lists the valid ones.
    """
    if persona_id not in _PERSONAS:
        raise ValueError("unknown persona {!r}; valid ids: {}".format(persona_id, ", ".join(PERSONA_IDS)))
    return HouseholdPersona(persona_id, *_PERSONAS[persona_id])


# -- JSON form ---------------------------------------------------------------


def persona_from_dict(data: dict) -> HouseholdPersona:
    appliances = tuple(
        AppliancePattern(
            name=a["name"],
            power_w=float(a["power_w"]),
            mode=a["mode"],
            schedule=tuple(
                ScheduleWindow(
                    start_slot=_whole(a["name"], "start_slot", w["start_slot"]),
                    end_slot=_whole(a["name"], "end_slot", w["end_slot"]),
                    days=frozenset(w.get("days", range(7))),
                    probability=float(w.get("probability", 1.0)),
                )
                for w in a.get("schedule", [])
            ),
            duty=float(a.get("duty", 1.0)),
            duration_slots=_whole(a["name"], "duration_slots", a.get("duration_slots", 1)),
            cycle=tuple(a["cycle"]) if a.get("cycle") else None,
            placement_jitter=_whole(a["name"], "placement_jitter", a.get("placement_jitter", 0)),
            power_noise=float(a.get("power_noise", 0.0)),
            duty_jitter=float(a.get("duty_jitter", 0.0)),
        )
        for a in data["appliances"]
    )
    templates = tuple(
        RoutineTemplate(t["name"], tuple(float(x) for x in t["weights"]))
        for t in data["routine_templates"]
    )
    return HouseholdPersona(
        id=data["id"],
        appliances=appliances,
        routine_templates=templates,
        template_weights=tuple(float(x) for x in data["template_weights"]),
        ambient_noise_w=float(data.get("ambient_noise_w", 0.0)),
    )


def _whole(owner: str, field: str, value) -> int:
    """``value`` of a persona's integer ``field``, read by
    ``pipeline.parse_setting`` but never from text (a JSON number is not a
    string); a ``ValueError`` refusing it names ``owner`` and the field."""
    from .pipeline import parse_setting  # here: pipeline imports this module

    try:
        if isinstance(value, str):
            raise ValueError("{} must be an integer, not {}".format(field, json.dumps(value)))
        return parse_setting(field, value)
    except ValueError as exc:
        raise ValueError("{}: {}".format(owner, exc)) from None


def _refuse_constant(token: str):
    raise ValueError("{} is not a JSON number".format(token))


def load_persona(path: str | Path) -> HouseholdPersona:
    """Load a persona definition from a JSON document; ``Infinity`` and ``NaN`` are refused."""
    with open(path, "r", encoding="utf-8") as fh:
        return persona_from_dict(json.load(fh, parse_constant=_refuse_constant))
