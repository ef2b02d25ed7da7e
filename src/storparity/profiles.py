"""Annual PV-generation and household-load time series.

Profiles are regular-interval average-power series (kW) covering one
representative non-leap year, 365 days at a step that divides 24 h: hourly
by default, quarter-hour supported. Everything here is deterministic: the
same inputs always produce bit-identical series, and every synthesis or
scaling operation conserves its target energy to well below 1e-6 relative.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Iterable

import numpy as np

from .errors import (
    IncompatibleProfilesError,
    InvalidShapeError,
    MalformedRowError,
    NegativePowerError,
    NonUniformStepError,
    check_finite,
)
from .table import read_columns, read_rows, reject

DAYS_PER_YEAR = 365
DAYS_IN_MONTH = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)

# Day 0 of the representative year is a Monday; weekday numbering follows
# datetime.weekday() (0 = Monday .. 6 = Sunday).
FIRST_WEEKDAY = 0

PROFILE_CSV_HEADER = "timestamp,power_kw"

_NORM_TOL = 1e-9


class ProfileKind(enum.Enum):
    PV = "pv"
    LOAD = "load"


@dataclass(frozen=True)
class TimeSeriesProfile:
    """A one-year power series: 365 days at a constant step that divides 24 h.

    Attributes
    ----------
    step_hours:
        Duration of each step in hours (1.0 and 0.25 are the usual values).
    values:
        Average power in kW per step, non-negative, read-only.
    kind:
        Whether the series is PV generation or household load.
    year_energy_kwh:
        Cached total energy, sum(values) * step_hours.
    """

    step_hours: float
    values: np.ndarray
    kind: ProfileKind
    year_energy_kwh: float = field(init=False, compare=False)

    def __post_init__(self) -> None:
        check_finite(self)
        if self.step_hours <= 0.0:
            raise ValueError(f"step_hours must be positive, got {self.step_hours}")
        values = np.array(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        if np.any(values < 0.0):
            raise NegativePowerError("profile values must be non-negative")
        per_day = 24.0 / self.step_hours
        if not math.isfinite(per_day) or abs(per_day - round(per_day)) > 1e-9:
            raise ValueError(f"step_hours must divide 24 h, got {self.step_hours}")
        if values.size != DAYS_PER_YEAR * round(per_day):
            raise ValueError(f"profile must cover one year: {values.size} steps of "
                             f"{self.step_hours} h, expected {DAYS_PER_YEAR * round(per_day)}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        with np.errstate(over="ignore"):
            energy = float(values.sum() * self.step_hours)
        if not math.isfinite(energy):
            raise ValueError(f"the year's energy must be finite, got {energy} kWh")
        object.__setattr__(self, "year_energy_kwh", energy)

    def __len__(self) -> int:
        return int(self.values.size)


def _check_weights(name: str, weights: Iterable[float], arity: int) -> tuple[float, ...]:
    w = tuple(float(x) for x in weights)
    if len(w) != arity:
        raise InvalidShapeError(f"{name} must have {arity} entries, got {len(w)}")
    if any(x < 0.0 for x in w):
        raise InvalidShapeError(f"{name} must be non-negative")
    total = sum(w)
    if abs(total - 1.0) > _NORM_TOL:
        raise InvalidShapeError(f"{name} must sum to 1 (got {total!r})")
    return w


@dataclass(frozen=True)
class LoadShapeParams:
    """Intraday and seasonal weights for household load synthesis.

    weekday_weights / weekend_weights hold one normalized weight per step of
    the day (24 entries for hourly, 96 for quarter-hour); monthly_weights
    split the annual energy over the twelve months.
    """

    weekday_weights: tuple[float, ...]
    weekend_weights: tuple[float, ...]
    monthly_weights: tuple[float, ...]
    weekend_days: frozenset[int] = frozenset({5, 6})

    def __post_init__(self) -> None:
        arity = len(tuple(self.weekday_weights))
        if arity not in (24, 96):
            raise InvalidShapeError(f"intraday weights must have 24 or 96 entries, got {arity}")
        object.__setattr__(
            self, "weekday_weights", _check_weights("weekday_weights", self.weekday_weights, arity)
        )
        object.__setattr__(
            self, "weekend_weights", _check_weights("weekend_weights", self.weekend_weights, arity)
        )
        object.__setattr__(
            self, "monthly_weights", _check_weights("monthly_weights", self.monthly_weights, 12)
        )
        days = frozenset(int(d) for d in self.weekend_days)
        if not all(0 <= d <= 6 for d in days):
            raise InvalidShapeError("weekend_days must be weekday indices in 0..6")
        object.__setattr__(self, "weekend_days", days)

    @property
    def step_hours(self) -> float:
        return 24.0 / len(self.weekday_weights)


@dataclass(frozen=True)
class PvShapeParams:
    """Monthly energy split plus a simple daylight model for PV synthesis.

    Within each month the intraday generation follows a half-sine bell
    between that month's sunrise and sunset, sharpened by bell_exponent,
    and is zero outside daylight. Monthly totals follow monthly_weights.
    """

    monthly_weights: tuple[float, ...]
    sunrise_hours: tuple[float, ...]
    sunset_hours: tuple[float, ...]
    bell_exponent: float = 2.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "monthly_weights", _check_weights("monthly_weights", self.monthly_weights, 12)
        )
        sunrise = tuple(float(x) for x in self.sunrise_hours)
        sunset = tuple(float(x) for x in self.sunset_hours)
        if len(sunrise) != 12 or len(sunset) != 12:
            raise InvalidShapeError("sunrise_hours and sunset_hours must each have 12 entries")
        for m, (sr, ss) in enumerate(zip(sunrise, sunset)):
            if not (0.0 <= sr < ss <= 24.0):
                raise InvalidShapeError(
                    f"month {m + 1}: need 0 <= sunrise < sunset <= 24, got ({sr}, {ss})"
                )
        object.__setattr__(self, "sunrise_hours", sunrise)
        object.__setattr__(self, "sunset_hours", sunset)
        if not self.bell_exponent > 0.0:
            raise InvalidShapeError("bell_exponent must be positive")


@dataclass(frozen=True)
class ProfileShapes:
    """Bundle of the load and PV shape parameters used by a scenario run."""

    load: LoadShapeParams
    pv: PvShapeParams


def _normalized(raw: Iterable[float]) -> tuple[float, ...]:
    arr = np.asarray(tuple(raw), dtype=float)
    return tuple((arr / arr.sum()).tolist())


def _monthly_weights_from_intensity(intensity: Iterable[float]) -> tuple[float, ...]:
    # Energy share per month is intensity (per-day level) times month length.
    arr = np.asarray(tuple(intensity), dtype=float) * np.asarray(DAYS_IN_MONTH, dtype=float)
    return tuple((arr / arr.sum()).tolist())


# Generic residential intraday shape: double peak on working days (morning
# ramp plus a dominant evening peak), flatter and later on weekends.
_WEEKDAY_RAW = (
    0.55, 0.50, 0.48, 0.47, 0.50, 0.60,
    0.90, 1.30, 1.20, 0.95, 0.85, 0.90,
    1.00, 0.95, 0.85, 0.85, 0.95, 1.20,
    1.50, 1.70, 1.65, 1.45, 1.10, 0.75,
)
_WEEKEND_RAW = (
    0.65, 0.58, 0.54, 0.52, 0.54, 0.60,
    0.70, 0.90, 1.10, 1.15, 1.15, 1.15,
    1.20, 1.15, 1.05, 1.00, 1.05, 1.15,
    1.30, 1.40, 1.35, 1.25, 1.00, 0.80,
)
# Seasonal load level (relative daily energy): winter heating and summer
# cooling both push consumption up in Mediterranean households.
_LOAD_MONTH_INTENSITY = (1.14, 1.05, 0.98, 0.90, 0.86, 0.95, 1.12, 1.14, 0.94, 0.90, 0.99, 1.16)

# Relative daily PV yield per month and a coarse daylight window, both
# representative of mid-Mediterranean latitudes.
_PV_MONTH_INTENSITY = (0.55, 0.70, 0.90, 1.05, 1.20, 1.30, 1.35, 1.25, 1.05, 0.85, 0.60, 0.50)
_SUNRISE_HOURS = (7.6, 7.1, 6.4, 5.6, 5.0, 4.8, 5.0, 5.5, 6.1, 6.7, 7.2, 7.6)
_SUNSET_HOURS = (17.2, 17.9, 18.5, 19.1, 19.7, 20.1, 20.0, 19.4, 18.6, 17.8, 17.1, 16.9)

_DEFAULT_LOAD_SHAPE = LoadShapeParams(
    weekday_weights=_normalized(_WEEKDAY_RAW),
    weekend_weights=_normalized(_WEEKEND_RAW),
    monthly_weights=_monthly_weights_from_intensity(_LOAD_MONTH_INTENSITY),
)
_DEFAULT_PV_SHAPE = PvShapeParams(
    monthly_weights=_monthly_weights_from_intensity(_PV_MONTH_INTENSITY),
    sunrise_hours=_SUNRISE_HOURS,
    sunset_hours=_SUNSET_HOURS,
)
_DEFAULT_SHAPES = ProfileShapes(load=_DEFAULT_LOAD_SHAPE, pv=_DEFAULT_PV_SHAPE)


def default_load_shape() -> LoadShapeParams:
    return _DEFAULT_LOAD_SHAPE


def default_pv_shape() -> PvShapeParams:
    return _DEFAULT_PV_SHAPE


def default_shapes() -> ProfileShapes:
    return _DEFAULT_SHAPES


def month_of_day() -> np.ndarray:
    """Month index (0..11) for each day of the representative year."""
    return np.repeat(np.arange(12), DAYS_IN_MONTH)


def month_step_slices(step_hours: float) -> list[slice]:
    """Step-index slice of each month for a profile at the given step."""
    per_day = int(round(24.0 / step_hours))
    bounds = np.concatenate(([0], np.cumsum(DAYS_IN_MONTH))) * per_day
    return [slice(int(bounds[m]), int(bounds[m + 1])) for m in range(12)]


def parse_profile_csv(text: str, kind: ProfileKind = ProfileKind.LOAD) -> TimeSeriesProfile:
    """Parse a ``timestamp,power_kw`` CSV document into a profile.

    Timestamps must be ISO-8601, strictly increasing at a constant step;
    gaps and duplicates are rejected, and a trailing Z means UTC. The step
    is inferred from the first two rows.
    """
    try:
        parsed = _profile_columns(text)
    except (ValueError, TypeError):  # a bad stamp or power, naive stamps next to offset ones
        parsed = None
    if parsed is None:
        reject(_profile_rows, text)
    values, step_seconds = parsed
    return TimeSeriesProfile(step_hours=step_seconds / 3600.0, values=values, kind=kind)


def _z_as_utc(stamps: list[str]) -> list[str]:
    """The stamps with a trailing Z written +00:00, as Python 3.10's fromisoformat needs."""
    joined = "\n".join(stamps) + "\n"
    return joined.replace("Z\n", "+00:00\n").split("\n")[:-1] if "Z\n" in joined else stamps


def _profile_columns(text: str) -> tuple[np.ndarray, float] | None:
    """The powers and the step in seconds, checked column by column; None if a check fails."""
    # imported here: only a command that reads a profile CSV compiles the byte reader
    from .profile_bytes import byte_columns

    parsed = byte_columns(text)
    return _str_columns(text) if parsed is None else parsed


def _str_columns(text: str) -> tuple[np.ndarray, float] | None:
    """_profile_columns of any document: each field a str, each stamp a datetime."""
    stamps, powers = read_columns(text, PROFILE_CSV_HEADER, "profile CSV")
    times = list(map(datetime.fromisoformat, _z_as_utc(stamps)))
    values = np.fromiter(map(float, powers), float, len(powers))
    steps = list(map(operator.sub, times[1:], times[:-1]))
    if not steps or not np.isfinite(values).all() or (values < 0.0).any():
        return None
    # each check on a step depends on its value alone, so the distinct steps are enough
    first = steps[0].total_seconds()
    seconds = np.array(list(map(timedelta.total_seconds, set(steps))))
    if not (seconds > 0.0).all() or (np.abs(seconds - first) > 1e-6).any():
        return None
    return values, first


def _profile_rows(text: str) -> tuple[np.ndarray, float]:
    """The powers and the step in seconds, checked row by row: raises naming the first bad line."""
    powers: list[float] = []
    previous = step_seconds = None
    for lineno, (ts_text, power_text) in read_rows(text, PROFILE_CSV_HEADER, "profile CSV"):
        try:
            ts = datetime.fromisoformat(*_z_as_utc([ts_text]))
        except ValueError as exc:
            raise MalformedRowError(f"line {lineno}: bad timestamp '{ts_text}'") from exc
        try:
            power = float(power_text)
        except ValueError as exc:
            raise MalformedRowError(f"line {lineno}: bad power '{power_text}'") from exc
        if not math.isfinite(power):
            raise MalformedRowError(f"line {lineno}: power must be finite")
        if power < 0.0:
            raise NegativePowerError(f"line {lineno}: negative power {power}")
        if previous is not None:
            try:
                delta = (ts - previous).total_seconds()
            except TypeError as exc:  # a naive and an offset-aware datetime
                raise MalformedRowError(
                    f"line {lineno}: timestamp with a UTC offset next to one without"
                ) from exc
            if delta <= 0.0:
                raise NonUniformStepError(f"line {lineno}: timestamps not strictly increasing")
            if step_seconds is None:
                step_seconds = delta
            elif abs(delta - step_seconds) > 1e-6:
                raise NonUniformStepError(
                    f"line {lineno}: step {delta} s differs from inferred {step_seconds} s"
                )
        previous = ts
        powers.append(power)
    if step_seconds is None:
        raise MalformedRowError("need at least two data rows to infer the step")
    return np.asarray(powers), step_seconds


def synthesize_load_profile(
    annual_kwh: float, shape: LoadShapeParams | None = None
) -> TimeSeriesProfile:
    """Build a deterministic household load profile summing to annual_kwh.

    Each month receives its monthly_weights share of the annual energy,
    split equally over the month's days; each day is shaped by the weekday
    or weekend intraday weights.
    """
    if shape is None:
        shape = _DEFAULT_LOAD_SHAPE
    if annual_kwh <= 0.0:
        raise ValueError(f"annual_kwh must be positive, got {annual_kwh}")
    annual_kwh = float(annual_kwh)
    step = shape.step_hours
    weekday = np.asarray(shape.weekday_weights)
    weekend = np.asarray(shape.weekend_weights)
    months = month_of_day()
    day_index = np.arange(DAYS_PER_YEAR)
    is_weekend = np.isin((day_index + FIRST_WEEKDAY) % 7, sorted(shape.weekend_days))
    monthly = np.asarray(shape.monthly_weights)
    days_in_month = np.asarray(DAYS_IN_MONTH, dtype=float)
    day_energy = annual_kwh * monthly[months] / days_in_month[months]
    day_shape = np.where(is_weekend[:, None], weekend[None, :], weekday[None, :])
    energy = day_shape * day_energy[:, None]
    return TimeSeriesProfile(
        step_hours=step, values=(energy / step).ravel(), kind=ProfileKind.LOAD
    )


def synthesize_pv_profile(
    kwp: float,
    annual_yield_kwh_per_kwp: float,
    shape: PvShapeParams | None = None,
    step_hours: float = 1.0,
) -> TimeSeriesProfile:
    """Build a deterministic PV profile with total energy kwp * yield.

    Generation follows a half-sine bell between each month's sunrise and
    sunset and is exactly zero on steps with no daylight overlap; monthly
    energies match the shape's monthly_weights.
    """
    if shape is None:
        shape = _DEFAULT_PV_SHAPE
    if kwp <= 0.0:
        raise ValueError(f"kwp must be positive, got {kwp}")
    if annual_yield_kwh_per_kwp <= 0.0:
        raise ValueError(
            f"annual_yield_kwh_per_kwp must be positive, got {annual_yield_kwh_per_kwp}"
        )
    kwp, annual_yield, step_hours = float(kwp), float(annual_yield_kwh_per_kwp), float(step_hours)
    per_day = int(round(24.0 / step_hours))
    starts = np.arange(per_day) * step_hours
    ends = starts + step_hours
    # one row per month: sunrise and sunset are columns against the steps' row
    sunrise = np.array(shape.sunrise_hours)[:, None]
    sunset = np.array(shape.sunset_hours)[:, None]
    lo = np.maximum(starts, sunrise)
    hi = np.minimum(ends, sunset)
    overlap = np.clip(hi - lo, 0.0, None)
    frac = np.clip((0.5 * (lo + hi) - sunrise) / (sunset - sunrise), 0.0, 1.0)
    bell = np.sin(np.pi * frac) ** shape.bell_exponent
    weights = np.where(overlap > 0.0, bell * overlap, 0.0)
    day_weights = weights / weights.sum(axis=1, keepdims=True)
    months = month_of_day()
    monthly = np.asarray(shape.monthly_weights)
    days_in_month = np.asarray(DAYS_IN_MONTH, dtype=float)
    day_energy = kwp * annual_yield * monthly / days_in_month
    energy = day_weights[months] * day_energy[months][:, None]
    return TimeSeriesProfile(
        step_hours=step_hours, values=(energy / step_hours).ravel(), kind=ProfileKind.PV
    )


def scale_to_annual(profile: TimeSeriesProfile, annual_kwh: float) -> TimeSeriesProfile:
    """Rescale a profile so its yearly energy equals annual_kwh."""
    if annual_kwh <= 0.0:
        raise ValueError(f"annual_kwh must be positive, got {annual_kwh}")
    if profile.year_energy_kwh <= 0.0:
        raise ValueError("cannot rescale a profile with zero energy")
    factor = annual_kwh / profile.year_energy_kwh
    return TimeSeriesProfile(
        step_hours=profile.step_hours, values=profile.values * factor, kind=profile.kind
    )


def common_step(a: float, b: float) -> float:
    """The finer of two steps; raises unless the coarser equals it or is a whole multiple of it."""
    fine, coarse = sorted((a, b))
    ratio = coarse / fine
    if coarse != fine and (round(ratio) < 2 or abs(ratio - round(ratio)) > 1e-9):
        raise IncompatibleProfilesError(
            f"step ratio {ratio!r} is not an integer ({coarse} h vs {fine} h)"
        )
    return fine


def refine(profile: TimeSeriesProfile, step_hours: float) -> TimeSeriesProfile:
    """The profile at step_hours, a whole fraction of its step: each value repeated, same kW."""
    common_step(profile.step_hours, step_hours)
    if profile.step_hours == step_hours:
        return profile
    repeats = round(profile.step_hours / step_hours)  # 0 for a coarser step: rejected
    return TimeSeriesProfile(step_hours, np.repeat(profile.values, repeats), profile.kind)


def align(
    pv: TimeSeriesProfile, load: TimeSeriesProfile
) -> tuple[TimeSeriesProfile, TimeSeriesProfile]:
    """Bring two profiles onto their common step (see refine)."""
    step = common_step(pv.step_hours, load.step_hours)
    return refine(pv, step), refine(load, step)
