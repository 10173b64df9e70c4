"""Seeded household load simulation producing cumulative meter readings.

A simulation run walks a persona through ``n_days`` civil days in the
meter's timezone.  Each day draws a routine template, schedules appliance
activations against it, sums per-slot mean power, and integrates energy
into the cumulative register with meter quantization: the register shows
whole 0.001-kWh counts and the truncation remainder carries over, so
long-run energy is conserved to within one count.

Determinism: every stochastic choice is driven by a per-day generator
derived from (seed, day index), so a fixed (persona, period, scripts,
seed) tuple reproduces the identical output, and scripting one day leaves
every other day untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import date, datetime, time, timedelta, timezone
from decimal import Decimal
from itertools import accumulate
from typing import Mapping, Sequence
from zoneinfo import ZoneInfo

import numpy as np

from .personas import (
    MODE_BURST,
    MODE_CONTINUOUS,
    MODE_STANDBY,
    OVEN_W,
    SLOTS_PER_DAY,
    AppliancePattern,
    HouseholdPersona,
)
from .protocol import (
    POSITIVE_ACTIVE_ENERGY,
    DataLine,
    ReadoutFrame,
    Unit,
    encode_readout,
    format_register_kwh,
    parse_readout,
)
from .pipeline import parse_setting
from .profiles import DEFAULT_TIMEZONE
from .store import _SLOT_US, REGISTER_MODULUS_WH, ReadingColumns, _to_us

KIND_ABSENCE_MORNING = "absence-morning"
KIND_SHIFTED_MORNING = "shifted-morning"
KIND_EVENING_BAKING = "evening-baking"
KIND_FULL_ABSENCE = "full-absence"
# The parameters each kind reads, with their defaults; a given value is
# parsed and bounded as the setting of its name (``pipeline.SETTINGS``).
SCRIPT_PARAMETERS = {
    KIND_ABSENCE_MORNING: {"start_slot": 28, "end_slot": 48},
    KIND_SHIFTED_MORNING: {"window_start": 28, "window_end": 40, "shift_slots": 12},
    KIND_EVENING_BAKING: {"start_slot": 72, "duration_slots": 8, "with_dishwasher": 1},
    KIND_FULL_ABSENCE: {},
}
ANOMALY_KINDS = tuple(SCRIPT_PARAMETERS)

_UWH_PER_WH = 1_000_000

# An appliance activates only where its routine concentrates at least
# average activity; below this density the window stays quiet that day.
_DENSITY_GATE = 1.0


@dataclass(frozen=True)
class AnomalyScript:
    """A scripted irregularity on one simulated day.  ``parameters`` becomes
    all of ``SCRIPT_PARAMETERS[kind]``: each given value parsed as the setting
    of its name, and the defaults of the rest; anything else is a ValueError."""

    kind: str
    day: date
    parameters: Mapping[str, int] | None = None

    def __post_init__(self):
        if self.kind not in ANOMALY_KINDS:
            raise ValueError(
                "unknown anomaly kind {!r}; valid kinds: {}".format(
                    self.kind, ", ".join(ANOMALY_KINDS)
                )
            )
        defaults = SCRIPT_PARAMETERS[self.kind]
        given = {} if self.parameters is None else self.parameters
        if not isinstance(given, Mapping):
            raise ValueError("parameters must be an object of names and numbers")
        for name in given:
            if name not in defaults:
                raise ValueError("{} reads no parameter {!r}; it reads {}".format(
                    self.kind, name, ", ".join(defaults) or "none"))
        object.__setattr__(self, "parameters", {**defaults, **{n: parse_setting(n, v) for n, v in given.items()}})


@dataclass(eq=False)
class SimOutput:
    """Readings plus per-day ground truth of one simulation run; the readings
    are ``ReadingColumns``, which build a ``MeterReading`` only on access."""

    meter_id: str
    readings: ReadingColumns
    truth_labels: dict[date, str]
    slot_powers_w: np.ndarray  # shape (n_days, 96), the pre-quantization truth


@dataclass(frozen=True)
class _Activation:
    appliance: AppliancePattern
    start_slot: int

    @property
    def end_slot(self) -> int:
        return self.start_slot + self.appliance.duration_slots

    def overlaps(self, lo: int, hi: int) -> bool:
        return self.start_slot < hi and self.end_slot > lo


def _window_density(weights: Sequence[float], start: int, end: int) -> float:
    inside = sum(weights[start:end]) / (end - start)
    overall = sum(weights) / len(weights)
    return inside / overall


def _day_activations(
    persona: HouseholdPersona, weights: Sequence[float], weekday: int, rng: np.random.Generator
) -> list[_Activation]:
    activations = []
    for appliance in persona.appliances:
        if appliance.mode != MODE_BURST:
            continue
        for window in appliance.schedule:
            draw = rng.random()  # always consumed, keeps the stream stable
            if weekday not in window.days:
                continue
            density = _window_density(weights, window.start_slot, window.end_slot)
            probability = window.probability if density >= _DENSITY_GATE else 0.0
            if draw >= probability:
                continue
            last_start = window.end_slot - appliance.duration_slots
            start = max(range(window.start_slot, last_start + 1), key=weights.__getitem__)  # the first busiest slot
            if appliance.placement_jitter:
                j = appliance.placement_jitter
                start += int(rng.integers(-j, j + 1))
                start = min(max(start, window.start_slot), last_start)
            activations.append(_Activation(appliance, start))
    return activations


def _apply_script(
    script: AnomalyScript, activations: list[_Activation], persona: HouseholdPersona
) -> list[_Activation]:
    p = script.parameters
    if script.kind == KIND_FULL_ABSENCE:
        return []
    if script.kind == KIND_ABSENCE_MORNING:
        return [a for a in activations if not a.overlaps(p["start_slot"], p["end_slot"])]
    if script.kind == KIND_SHIFTED_MORNING:
        shifted = []
        for a in activations:
            if a.overlaps(p["window_start"], p["window_end"]):
                start = min(a.start_slot + p["shift_slots"], SLOTS_PER_DAY - a.appliance.duration_slots)
                shifted.append(_Activation(a.appliance, start))
            else:
                shifted.append(a)
        return shifted
    if script.kind == KIND_EVENING_BAKING:
        duration = p["duration_slots"]
        oven = persona.appliance("oven")
        if oven is None:
            oven = AppliancePattern("oven", OVEN_W, MODE_BURST, duty=0.75)
        bake = replace(oven, schedule=(), duration_slots=duration, cycle=None)
        start = min(p["start_slot"], SLOTS_PER_DAY - duration)
        extra = [_Activation(bake, start)]
        dishwasher = persona.appliance("dishwasher")
        if dishwasher is not None and p["with_dishwasher"]:
            dw_start = min(start + duration, SLOTS_PER_DAY - dishwasher.duration_slots)
            extra.append(_Activation(replace(dishwasher, schedule=()), dw_start))
        return activations + extra
    raise AssertionError("unreachable: validated in AnomalyScript")


def _day_slot_powers(
    persona: HouseholdPersona,
    weights: Sequence[float],
    weekday: int,
    rng: np.random.Generator,
    script: AnomalyScript | None,
) -> np.ndarray:
    powers = np.zeros(SLOTS_PER_DAY)
    if persona.ambient_noise_w > 0.0:
        powers += rng.normal(0.0, persona.ambient_noise_w, SLOTS_PER_DAY)
    for appliance in persona.appliances:
        if appliance.mode == MODE_STANDBY:
            powers += appliance.power_w
        elif appliance.mode == MODE_CONTINUOUS:
            duty = appliance.duty * (1.0 + rng.normal(0.0, appliance.duty_jitter, SLOTS_PER_DAY))
            powers += appliance.power_w * np.clip(duty, 0.0, 1.0)
    activations = _day_activations(persona, weights, weekday, rng)
    if script is not None:
        activations = _apply_script(script, activations, persona)
    for act in activations:
        appliance = act.appliance
        for offset in range(appliance.duration_slots):
            slot = act.start_slot + offset
            if slot >= SLOTS_PER_DAY:
                break
            mult = appliance.cycle[offset] if appliance.cycle is not None else 1.0
            level = appliance.power_w * appliance.duty * mult
            if appliance.power_noise:
                level *= max(0.0, 1.0 + rng.normal(0.0, appliance.power_noise))
            powers[slot] += level
    return np.maximum(powers, 0.0)


def _pick_template(persona: HouseholdPersona, rng: np.random.Generator) -> int:
    u = rng.random()
    acc = 0.0
    for index, w in enumerate(persona.template_weights):
        acc += w
        if u < acc:
            return index
    return len(persona.template_weights) - 1


def period_start(start: date, n_days: int) -> datetime:
    """Local midnight of ``start`` in ``DEFAULT_TIMEZONE``, in UTC: the
    first reading time of ``n_days`` days simulated from ``start``.

    Raises:
        ValueError: ``n_days < 1``, or the days (or that time in UTC) do
            not all lie in the years 1-9999.
    """
    if n_days < 1:
        raise ValueError("n_days must be >= 1")
    try:
        start + timedelta(days=n_days - 1)
        return datetime.combine(start, time(0, 0), tzinfo=ZoneInfo(DEFAULT_TIMEZONE)).astimezone(timezone.utc)
    except OverflowError:
        raise ValueError("the simulated period of {} day(s) from {} runs outside the years 1-9999".format(
            n_days, start)) from None


def scripts_by_day(start: date, n_days: int, scripts: Sequence[AnomalyScript]) -> dict[date, AnomalyScript]:
    """Each script by its day, one of the ``n_days`` days from ``start``.

    Raises:
        ValueError: a script day falls outside those days, or two scripts
            target the same day.
    """
    last_day = start + timedelta(days=n_days - 1)
    by_day: dict[date, AnomalyScript] = {}
    for script in scripts:
        if not start <= script.day <= last_day:
            raise ValueError("script day {} outside simulated period {}..{}".format(script.day, start, last_day))
        if script.day in by_day:
            raise ValueError("multiple scripts target {}".format(script.day))
        by_day[script.day] = script
    return by_day


def simulate_period(
    persona: HouseholdPersona,
    start: date,
    n_days: int,
    scripts: Sequence[AnomalyScript] = (),
    seed: int = 0,
    *,
    initial_register_kwh: Decimal = Decimal("0.000"),
) -> SimOutput:
    """Simulate ``n_days`` days of 15-minute cumulative readings.

    Emits ``96 * n_days + 1`` readings at exact 15-minute boundaries,
    starting at local midnight of ``start`` in ``DEFAULT_TIMEZONE``.
    Scripted days replace the random routine draw with the persona's most
    likely template before the script transformation, and are
    truth-labelled with the anomaly kind.

    The register integrates each slot's energy as whole µWh, rounded half
    to even, in one exact integer sum over the period, returned as one
    ``ReadingColumns`` run of epoch µs and Wh: no ``MeterReading`` is built.

    Raises:
        ValueError: if ``period_start`` refuses the period, a script day
            falls outside it, or two scripts target the same day.
    """
    t0 = period_start(start, n_days)
    by_day = scripts_by_day(start, n_days, scripts)
    seed = int(seed) & 0xFFFFFFFFFFFFFFFF
    slot_powers = np.zeros((n_days, SLOTS_PER_DAY))
    truth: dict[date, str] = {}
    for day_index in range(n_days):
        day = start + timedelta(days=day_index)
        rng = np.random.default_rng([seed, day_index])
        script = by_day.get(day)
        if script is not None:
            # The most likely template; the first of equals.
            template_index = max(range(len(persona.template_weights)), key=persona.template_weights.__getitem__)
            truth[day] = script.kind
        else:
            template_index = _pick_template(persona, rng)
            truth[day] = persona.routine_templates[template_index].name
        weights = persona.routine_templates[template_index].weights
        slot_powers[day_index] = _day_slot_powers(persona, weights, day.weekday(), rng, script)

    # Python ints, not an int64 cumsum: a declared power may be large enough to wrap one.
    init_wh = int(initial_register_kwh * 1000)
    cumulative_uwh = accumulate(map(int, np.rint(slot_powers.ravel() * 250_000)), initial=0)
    values = [(init_wh + uwh // _UWH_PER_WH) % REGISTER_MODULUS_WH for uwh in cumulative_uwh]
    times = list(range(_to_us(t0), _to_us(t0) + len(values) * _SLOT_US, _SLOT_US))
    readings = ReadingColumns()
    readings.extend(persona.id, POSITIVE_ACTIVE_ENERGY, times, values)
    return SimOutput(persona.id, readings, truth, slot_powers)


def emit_frames(sim: SimOutput) -> list[tuple[datetime, ReadoutFrame]]:
    """Render each reading as a timestamped readout frame on register 1.8.0,
    as the decoder reads it from the encoded bytes."""
    lines = ((r.timestamp, DataLine(r.register, format_register_kwh(r.value_kwh), Unit.KWH)) for r in sim.readings)
    return [(ts, parse_readout(encode_readout([line]))) for ts, line in lines]
