"""Deliberately naive reference implementations used as test oracles.

These transcribe the documented rules step by step with no shortcuts and
stay independent of the production code paths they check.
"""

from __future__ import annotations

import numpy as np

from storparity.dispatch import BatterySpec, DispatchTrace
from storparity.profiles import DAYS_IN_MONTH, PvShapeParams


def reference_simulate(pv_kw, load_kw, battery: BatterySpec, step_hours: float) -> DispatchTrace:
    """Straight transcription of the greedy self-consumption rule, from soc_min."""
    cap = battery.capacity_kwh
    soc_min = battery.soc_min_kwh
    soc = soc_min
    direct, charge, delivered, imported, curtailed, soc_series = [], [], [], [], [], []
    for p, l in zip(pv_kw, load_kw):
        p = float(p)
        l = float(l)
        direct.append(min(p, l))
        surplus_e = max(p - l, 0.0) * step_hours
        deficit_e = max(l - p, 0.0) * step_hours

        accepted = min(
            surplus_e,
            battery.max_charge_kw * step_hours,
            (cap - soc) / battery.eta_charge,
        )
        accepted = max(accepted, 0.0)
        soc = soc + accepted * battery.eta_charge
        if soc > cap:
            soc = cap

        deliver = min(
            deficit_e,
            battery.max_discharge_kw * step_hours,
            (soc - soc_min) * battery.eta_discharge,
        )
        deliver = max(deliver, 0.0)
        soc = soc - deliver / battery.eta_discharge
        if soc < soc_min:
            soc = soc_min

        charge.append(accepted / step_hours)
        curtailed.append((surplus_e - accepted) / step_hours)
        delivered.append(deliver / step_hours)
        imported.append((deficit_e - deliver) / step_hours)
        soc_series.append(soc)
    return DispatchTrace(
        p_pv=np.asarray([float(v) for v in pv_kw]),
        p_load=np.asarray([float(v) for v in load_kw]),
        p_direct=np.asarray(direct),
        p_charge=np.asarray(charge),
        p_discharge_delivered=np.asarray(delivered),
        p_import=np.asarray(imported),
        p_curtail=np.asarray(curtailed),
        soc_kwh=np.asarray(soc_series),
    )


def reference_flow_sum(values, run: int) -> float:
    """The dispatch paths' summation rule, one add at a time.

    The values are cut into runs of run steps, the last padded with zeros.
    Each run goes into eight interleaved partial sums, which are added
    pairwise; the run sums are then added in order.
    """
    values = [float(v) for v in values] + [0.0] * (-len(values) % run)
    total = 0.0
    for start in range(0, len(values), run):
        r = [0.0] * 8
        for i in range(run):
            r[i % 8] += values[start + i]
        total += ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    return total


def reference_pv_profile(
    kwp: float, annual_yield: float, shape: PvShapeParams, step_hours: float
) -> np.ndarray:
    """The synthetic PV year's kW values, its daylight table built one month at a time.

    Per month: each step's overlap with the sunrise-sunset window, weighted by
    the half-sine bell at the overlap's midpoint, normalized over the day.
    Each day then gets its month's share of kwp * annual_yield.
    """
    per_day = int(round(24.0 / step_hours))
    starts = np.arange(per_day) * step_hours
    ends = starts + step_hours
    day_weights = np.zeros((12, per_day))
    for m in range(12):
        sunrise, sunset = shape.sunrise_hours[m], shape.sunset_hours[m]
        lo = np.maximum(starts, sunrise)
        hi = np.minimum(ends, sunset)
        overlap = np.clip(hi - lo, 0.0, None)
        frac = np.clip((0.5 * (lo + hi) - sunrise) / (sunset - sunrise), 0.0, 1.0)
        bell = np.sin(np.pi * frac) ** shape.bell_exponent
        weights = np.where(overlap > 0.0, bell * overlap, 0.0)
        day_weights[m] = weights / weights.sum()
    months = np.repeat(np.arange(12), DAYS_IN_MONTH)
    day_energy = (kwp * annual_yield * np.asarray(shape.monthly_weights)
                  / np.asarray(DAYS_IN_MONTH, dtype=float))
    energy = day_weights[months] * day_energy[months][:, None]
    return (energy / step_hours).ravel()


def reference_lcoe(capex_eur, econ, annual_energy_kwh):
    """Spreadsheet-style discounted cash flow, one explicit year at a time."""
    maintenance = econ.maintenance_rate * capex_eur / (1.0 + econ.vat)
    cost = capex_eur
    energy = 0.0
    for n in range(1, econ.horizon_years + 1):
        cost += maintenance / (1.0 + econ.discount_rate) ** n
        e_n = annual_energy_kwh * (1.0 - econ.pv_degradation_rate) ** (n - 1)
        energy += e_n / (1.0 + econ.discount_rate) ** n
    return cost / energy


def reference_lcou(capex_eur, econ, annual_energy_kwh, scr_per_year):
    maintenance = econ.maintenance_rate * capex_eur / (1.0 + econ.vat)
    cost = capex_eur
    used = 0.0
    for n in range(1, econ.horizon_years + 1):
        cost += maintenance / (1.0 + econ.discount_rate) ** n
        e_n = annual_energy_kwh * (1.0 - econ.pv_degradation_rate) ** (n - 1)
        used += e_n * scr_per_year[n - 1] / (1.0 + econ.discount_rate) ** n
    return cost / used


def reference_npv(capex_eur, econ, annual_self_consumed_kwh, retail_price):
    maintenance = econ.maintenance_rate * capex_eur / (1.0 + econ.vat)
    total = -capex_eur
    for n in range(1, econ.horizon_years + 1):
        saving = retail_price * annual_self_consumed_kwh[n - 1] - maintenance
        total += saving / (1.0 + econ.discount_rate) ** n
    return total


def random_dispatch_instance(rng):
    """Random small dispatch instance: series up to 48 steps plus a battery."""
    n = int(rng.integers(1, 49))
    step = float(rng.choice([0.25, 1.0]))
    pv = rng.uniform(0.0, 5.0, n)
    load = rng.uniform(0.0, 4.0, n)
    # sprinkle exact zeros and exact ties
    pv[rng.uniform(size=n) < 0.2] = 0.0
    load[rng.uniform(size=n) < 0.2] = 0.0
    ties = rng.uniform(size=n) < 0.1
    load[ties] = pv[ties]
    capacity = float(rng.choice([0.0, rng.uniform(0.1, 12.0)]))
    usable = float(rng.uniform(0.3, 1.0))
    battery = BatterySpec(
        capacity_kwh=capacity,
        usable_fraction=usable,
        eta_charge=float(rng.uniform(0.7, 1.0)),
        eta_discharge=float(rng.uniform(0.7, 1.0)),
        max_charge_kw=float(rng.uniform(0.0, 3.0)),
        max_discharge_kw=float(rng.uniform(0.0, 3.0)),
    )
    return pv, load, battery, step


def reference_quartiles(values):
    """Five-number summary with inclusive linear interpolation on the sorted data."""
    data = sorted(float(v) for v in values)
    n = len(data)

    def at(p):
        if n == 1:
            return data[0]
        pos = p * (n - 1)
        lo = int(pos)
        hi = min(lo + 1, n - 1)
        frac = pos - lo
        return data[lo] * (1.0 - frac) + data[hi] * frac

    return data[0], at(0.25), at(0.50), at(0.75), data[-1]
