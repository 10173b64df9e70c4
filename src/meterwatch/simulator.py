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
every other day untouched.  Each day draws, in this order: one uniform to
pick the template (not on a scripted day); 96 normals of ambient noise
(when ``ambient_noise_w`` > 0); 96 for each continuous appliance, in
appliance order; one uniform per burst window, each followed by a jitter
integer where the window fires for an appliance with a placement jitter;
then one normal per slot of each run with power noise, in activation
order.  Draws are batched but never reordered, so every reading stays the same.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from datetime import date, datetime, time, timedelta, timezone
from decimal import Decimal
from itertools import accumulate, chain
from typing import Mapping, NamedTuple, Sequence
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


class _Activation(NamedTuple):
    appliance: AppliancePattern
    start_slot: int

    def overlaps(self, lo: int, hi: int) -> bool:
        return self.start_slot < hi and self.start_slot + self.appliance.duration_slots > lo


def _burst_plan(persona: HouseholdPersona, weights: Sequence[float]) -> list[tuple]:
    """Per burst window, in draw order: (appliance, window, probability, first
    busiest start); the probability is 0 where the template's activity density
    over the window is below ``_DENSITY_GATE``."""
    plan, overall = [], sum(weights) / len(weights)
    for appliance in persona.appliances:
        for window in appliance.schedule if appliance.mode == MODE_BURST else ():
            density = sum(weights[window.start_slot:window.end_slot]) / (window.end_slot - window.start_slot) / overall
            last_start = window.end_slot - appliance.duration_slots
            start = max(range(window.start_slot, last_start + 1), key=weights.__getitem__)
            plan.append((appliance, window, window.probability if density >= _DENSITY_GATE else 0.0, start))
    return plan


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


def _add_base_powers(persona: HouseholdPersona, noise: np.ndarray, out: np.ndarray) -> None:
    """Add the ambient noise, then each standby or continuous appliance in
    appliance order, to ``out``, the slot powers of consecutive days;
    ``noise`` holds those days' ambient and continuous-duty standard
    normals z, in draw order.  ``rng.normal(0, σ)`` is ``0.0 + σ * z``, and
    that ``0.0`` changes only the sign of a zero, which adding to 0 W here
    or ``1.0 + ·`` (here and in ``_add_runs``) does not see."""
    layers = iter(noise.transpose(1, 0, 2))
    if persona.ambient_noise_w > 0.0:
        out += persona.ambient_noise_w * next(layers)
    for appliance in persona.appliances:
        if appliance.mode == MODE_STANDBY:
            out += appliance.power_w
        elif appliance.mode == MODE_CONTINUOUS:
            duty = appliance.duty * (1.0 + appliance.duty_jitter * next(layers))
            out += appliance.power_w * np.clip(duty, 0.0, 1.0)


def _add_runs(slot_powers: np.ndarray, runs: list[tuple], normals: list[np.ndarray]) -> None:
    """Add each run's slot powers to the ``(n_days, 96)`` base powers in
    activation order, then clip at 0 W.  A run's slot draws ``power_w * duty``
    times the cycle's multiplier, times ``max(0, 1 + σ z)`` where it has a
    power noise σ; ``runs`` holds (flat first slot, appliance) per run, and
    ``normals`` each day's z for the noisy runs' slots."""
    starts, appliances = list(zip(*runs)) or [(), ()]
    lengths = np.fromiter((a.duration_slots for a in appliances), np.intp, len(appliances))
    cycles = (a.cycle if a.cycle is not None else (1.0,) * a.duration_slots for a in appliances)
    run_powers = np.repeat(np.array([a.power_w * a.duty for a in appliances], float), lengths)
    run_powers *= np.fromiter(chain.from_iterable(cycles), float, run_powers.size)
    sigma = np.repeat(np.array([a.power_noise for a in appliances], float), lengths)
    noisy = sigma > 0.0
    run_powers[noisy] *= np.maximum(0.0, 1.0 + sigma[noisy] * np.concatenate([np.empty(0), *normals]))
    first = np.repeat(np.array(starts, np.intp) - (np.cumsum(lengths) - lengths), lengths)
    np.add.at(slot_powers.reshape(-1), first + np.arange(run_powers.size), run_powers)  # unbuffered: in turn
    np.maximum(slot_powers, 0.0, out=slot_powers)


def _register_values(persona_id: str, slot_powers: np.ndarray, init_wh: int) -> list[int]:
    """The register in Wh at each slot boundary: ``init_wh`` plus each slot's
    energy in whole µWh (half to even), summed exactly, modulo the register."""
    peak = float(slot_powers.max())
    if not math.isfinite(peak * 250_000):
        raise ValueError("persona {}: a slot's energy overflows; its power reaches {} W".format(persona_id, peak))
    # Each slot's µWh modulo the register's modulus in µWh (10**15 < 2**50; fmod is exact), so a block
    # of 8192 running sums plus the carry stays below 8193 * 10**15 < 2**63: the int64 sums cannot wrap.
    modulus = _UWH_PER_WH * REGISTER_MODULUS_WH
    uwh = np.fmod(np.rint(slot_powers.reshape(-1) * 250_000), modulus).astype(np.int64)
    cumulative = np.zeros(uwh.size + 1, np.int64)
    for lo in range(0, uwh.size, 8192):
        cumulative[lo + 1:lo + 8193] = (np.cumsum(uwh[lo:lo + 8192]) + cumulative[lo]) % modulus
    del uwh
    cumulative //= _UWH_PER_WH
    cumulative += init_wh % REGISTER_MODULUS_WH
    cumulative %= REGISTER_MODULUS_WH
    return cumulative.tolist()


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
            falls outside it, two scripts target the same day, or a slot's
            energy overflows a float.
    """
    t0 = period_start(start, n_days)
    by_day = scripts_by_day(start, n_days, scripts)
    seed = int(seed) & 0xFFFFFFFFFFFFFFFF
    plans = [_burst_plan(persona, template.weights) for template in persona.routine_templates]
    cumulative = list(accumulate(persona.template_weights))  # a uniform picks the first template above it
    likely = max(range(len(cumulative)), key=persona.template_weights.__getitem__)  # the first of equals
    slot_powers = np.zeros((n_days, SLOTS_PER_DAY))
    n_noisy = (persona.ambient_noise_w > 0.0) + sum(app.mode == MODE_CONTINUOUS for app in persona.appliances)
    noise = np.empty((min(n_days, 32), n_noisy, SLOTS_PER_DAY))  # up to 32 days' base noise, added as it fills
    truth: dict[date, str] = {}
    runs, normals = [], []  # (flat first slot, appliance) per run; each day's run noise
    for day_index in range(n_days):
        day = start + timedelta(days=day_index)
        rng = np.random.default_rng([seed, day_index])
        script = by_day.get(day)
        if script is not None:
            template_index, truth[day] = likely, script.kind
        else:
            template_index = min(bisect_right(cumulative, rng.random()), len(cumulative) - 1)
            truth[day] = persona.routine_templates[template_index].name
        rng.standard_normal(out=noise[day_index % len(noise)])
        if day_index % len(noise) == len(noise) - 1 or day_index == n_days - 1:
            first_day = day_index - day_index % len(noise)
            _add_base_powers(persona, noise[:day_index + 1 - first_day], slot_powers[first_day:day_index + 1])
        weekday, activations = day.weekday(), []
        for (appliance, window, probability, slot), draw in zip(plans[template_index], iter(rng.random, None)):
            if weekday not in window.days or draw >= probability:  # one uniform a window, fired or not
                continue
            if appliance.placement_jitter:
                j, last_start = appliance.placement_jitter, window.end_slot - appliance.duration_slots
                slot = min(max(slot + int(rng.integers(-j, j + 1)), window.start_slot), last_start)
            activations.append(_Activation(appliance, slot))
        if script is not None:
            activations = _apply_script(script, activations, persona)
        noisy = 0
        for appliance, slot in activations:  # every run ends by midnight: no run is over 96 slots
            runs.append((day_index * SLOTS_PER_DAY + slot, appliance))
            noisy += appliance.duration_slots if appliance.power_noise else 0
        if noisy:
            normals.append(rng.standard_normal(noisy))
    _add_runs(slot_powers, runs, normals)
    del runs, normals  # before the register's lists are built
    values = _register_values(persona.id, slot_powers, int(initial_register_kwh * 1000))
    times = list(range(_to_us(t0), _to_us(t0) + len(values) * _SLOT_US, _SLOT_US))
    readings = ReadingColumns()
    readings.extend(persona.id, POSITIVE_ACTIVE_ENERGY, times, values)
    return SimOutput(persona.id, readings, truth, slot_powers)


def emit_frames(sim: SimOutput) -> list[tuple[datetime, ReadoutFrame]]:
    """Render each reading as a timestamped readout frame on register 1.8.0,
    as the decoder reads it from the encoded bytes."""
    lines = ((r.timestamp, DataLine(r.register, format_register_kwh(r.value_kwh), Unit.KWH)) for r in sim.readings)
    return [(ts, parse_readout(encode_readout([line]))) for ts, line in lines]
