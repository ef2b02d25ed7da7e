"""Greedy self-consumption battery dispatch and annual energy accounting.

The control rule maximizes on-site use of PV energy with no export credit:
PV first serves the load directly; any surplus charges the battery up to
its power limit and remaining headroom, and whatever the battery cannot
accept is curtailed. Any deficit is served by discharging the battery up
to its power limit and usable stored energy, and the remainder is imported
from the grid. The battery is never charged from the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import UnalignedProfilesError, ZeroProductionError, check_finite
from .profiles import TimeSeriesProfile

#: Default round-trip efficiency, split symmetrically between charge and
#: discharge. Configurable per BatterySpec.
DEFAULT_ROUND_TRIP_EFFICIENCY = 0.90

#: Default power limit as a fraction of capacity per hour (0.5C).
DEFAULT_C_RATE = 0.5

TRACE_CSV_HEADER = (
    "step,p_pv_kw,p_load_kw,p_direct_kw,p_charge_kw,"
    "p_discharge_delivered_kw,p_import_kw,p_curtail_kw,soc_kwh"
)


@dataclass(frozen=True)
class BatterySpec:
    """Technical description of the storage asset.

    capacity_kwh of 0 is legal and means "no storage". Fields left as None
    take their defaults: power limits at 0.5C, initial state of charge at
    the minimum state of charge implied by usable_fraction.
    """

    capacity_kwh: float
    usable_fraction: float = 0.9
    eta_charge: float = math.sqrt(DEFAULT_ROUND_TRIP_EFFICIENCY)
    eta_discharge: float = math.sqrt(DEFAULT_ROUND_TRIP_EFFICIENCY)
    max_charge_kw: float | None = None
    max_discharge_kw: float | None = None
    soc_init_kwh: float | None = None

    def __post_init__(self) -> None:
        check_finite(self)
        if self.capacity_kwh < 0.0:
            raise ValueError(f"capacity_kwh must be >= 0, got {self.capacity_kwh}")
        if not 0.0 < self.usable_fraction <= 1.0:
            raise ValueError(f"usable_fraction must be in (0, 1], got {self.usable_fraction}")
        for name in ("eta_charge", "eta_discharge"):
            eta = getattr(self, name)
            if not 0.0 < eta <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {eta}")
        if self.max_charge_kw is None:
            object.__setattr__(self, "max_charge_kw", DEFAULT_C_RATE * self.capacity_kwh)
        if self.max_discharge_kw is None:
            object.__setattr__(self, "max_discharge_kw", DEFAULT_C_RATE * self.capacity_kwh)
        if self.max_charge_kw < 0.0 or self.max_discharge_kw < 0.0:
            raise ValueError("power limits must be >= 0")
        if self.soc_init_kwh is None:
            object.__setattr__(self, "soc_init_kwh", self.soc_min_kwh)
        if not self.soc_min_kwh - 1e-12 <= self.soc_init_kwh <= self.capacity_kwh + 1e-12:
            raise ValueError(
                f"soc_init_kwh must lie in [{self.soc_min_kwh}, {self.capacity_kwh}], "
                f"got {self.soc_init_kwh}"
            )

    @property
    def soc_min_kwh(self) -> float:
        return (1.0 - self.usable_fraction) * self.capacity_kwh

    @property
    def round_trip_efficiency(self) -> float:
        return self.eta_charge * self.eta_discharge


@dataclass(frozen=True)
class DispatchTrace:
    """Per-step power split and end-of-step state of charge.

    Per step (in energy terms): p_pv = p_direct + p_charge + p_curtail and
    p_load = p_direct + p_discharge_delivered + p_import; soc_kwh stays in
    [soc_min, capacity].
    """

    p_pv: np.ndarray
    p_load: np.ndarray
    p_direct: np.ndarray
    p_charge: np.ndarray
    p_discharge_delivered: np.ndarray
    p_import: np.ndarray
    p_curtail: np.ndarray
    soc_kwh: np.ndarray

    def __post_init__(self) -> None:
        for name in (
            "p_pv", "p_load", "p_direct", "p_charge",
            "p_discharge_delivered", "p_import", "p_curtail", "soc_kwh",
        ):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return int(self.p_pv.size)


@dataclass(frozen=True)
class EnergyBalance:
    """Annual energy aggregates of a dispatch run, in kWh per year."""

    e_produced: float
    e_direct: float
    e_charged: float
    e_delivered: float
    e_import: float
    e_curtail: float
    scr: float
    ssr: float

    @property
    def e_consumed(self) -> float:
        return self.e_direct + self.e_delivered + self.e_import


def _require_aligned(pv: TimeSeriesProfile, load: TimeSeriesProfile) -> None:
    if pv.step_hours != load.step_hours or len(pv) != len(load):
        raise UnalignedProfilesError(
            f"profiles are not aligned: pv {len(pv)} x {pv.step_hours} h vs "
            f"load {len(load)} x {load.step_hours} h"
        )


def simulate(
    pv: TimeSeriesProfile, load: TimeSeriesProfile, battery: BatterySpec
) -> DispatchTrace:
    """Run the greedy self-consumption dispatch over one year.

    Per step with duration dt: surplus (pv - load)+ charges the battery,
    limited by max_charge_kw and by headroom / eta_charge measured on the
    PV side; the stored amount is accepted * eta_charge and the rest of the
    surplus is curtailed. A deficit (load - pv)+ is served by discharge,
    limited by max_discharge_kw and by the usable stored energy
    (soc - soc_min) * eta_discharge measured on the delivered side; the
    withdrawal from storage is delivered / eta_discharge and the rest of
    the deficit is imported.
    """
    _require_aligned(pv, load)
    return simulate_series(pv.values, load.values, battery, pv.step_hours)


def simulate_series(
    pv_kw, load_kw, battery: BatterySpec, step_hours: float
) -> DispatchTrace:
    """Dispatch over raw power series of any length (same rule as simulate)."""
    pv_vals = [float(v) for v in pv_kw]
    load_vals = [float(v) for v in load_kw]
    if len(pv_vals) != len(load_vals):
        raise UnalignedProfilesError(
            f"series lengths differ ({len(pv_vals)} vs {len(load_vals)})"
        )
    if step_hours <= 0.0:
        raise ValueError(f"step_hours must be positive, got {step_hours}")
    dt = step_hours
    n = len(pv_vals)

    cap = battery.capacity_kwh
    soc_min = battery.soc_min_kwh
    eta_c = battery.eta_charge
    eta_d = battery.eta_discharge
    charge_cap_e = battery.max_charge_kw * dt
    discharge_cap_e = battery.max_discharge_kw * dt
    soc = battery.soc_init_kwh

    direct = [0.0] * n
    charge = [0.0] * n
    delivered = [0.0] * n
    imported = [0.0] * n
    curtailed = [0.0] * n
    soc_series = [0.0] * n

    for i in range(n):
        p = pv_vals[i]
        l = load_vals[i]
        if p > l:
            direct[i] = l
            surplus_e = (p - l) * dt
            accepted = surplus_e
            if charge_cap_e < accepted:
                accepted = charge_cap_e
            headroom = (cap - soc) / eta_c
            if headroom < accepted:
                accepted = headroom
            if accepted < 0.0:
                accepted = 0.0
            soc += accepted * eta_c
            if soc > cap:
                soc = cap
            charge[i] = accepted / dt
            curtailed[i] = (surplus_e - accepted) / dt
        else:
            direct[i] = p
            if l > p:
                deficit_e = (l - p) * dt
                deliver = deficit_e
                if discharge_cap_e < deliver:
                    deliver = discharge_cap_e
                available = (soc - soc_min) * eta_d
                if available < deliver:
                    deliver = available
                if deliver < 0.0:
                    deliver = 0.0
                soc -= deliver / eta_d
                if soc < soc_min:
                    soc = soc_min
                delivered[i] = deliver / dt
                imported[i] = (deficit_e - deliver) / dt
        soc_series[i] = soc

    return DispatchTrace(
        p_pv=np.asarray(pv_vals),
        p_load=np.asarray(load_vals),
        p_direct=np.asarray(direct),
        p_charge=np.asarray(charge),
        p_discharge_delivered=np.asarray(delivered),
        p_import=np.asarray(imported),
        p_curtail=np.asarray(curtailed),
        soc_kwh=np.asarray(soc_series),
    )


def annual_balance(trace: DispatchTrace, step_hours: float) -> EnergyBalance:
    """Aggregate a trace into annual energies plus SCR and SSR."""
    e_produced = float(trace.p_pv.sum() * step_hours)
    e_direct = float(trace.p_direct.sum() * step_hours)
    e_charged = float(trace.p_charge.sum() * step_hours)
    e_delivered = float(trace.p_discharge_delivered.sum() * step_hours)
    e_import = float(trace.p_import.sum() * step_hours)
    e_curtail = float(trace.p_curtail.sum() * step_hours)
    e_consumed = float(trace.p_load.sum() * step_hours)
    self_consumed = e_direct + e_delivered
    scr = self_consumed / e_produced if e_produced > 0.0 else 0.0
    ssr = self_consumed / e_consumed if e_consumed > 0.0 else 0.0
    return EnergyBalance(
        e_produced=e_produced,
        e_direct=e_direct,
        e_charged=e_charged,
        e_delivered=e_delivered,
        e_import=e_import,
        e_curtail=e_curtail,
        scr=scr,
        ssr=ssr,
    )


def scr_no_storage(pv: TimeSeriesProfile, load: TimeSeriesProfile) -> float:
    """Self-consumption rate of the PV-only system (storage-free baseline)."""
    _require_aligned(pv, load)
    produced = float(pv.values.sum() * pv.step_hours)
    if produced <= 0.0:
        raise ZeroProductionError("no PV production, SCR undefined")
    direct = float(np.minimum(pv.values, load.values).sum() * pv.step_hours)
    return direct / produced


def trace_to_csv(trace: DispatchTrace) -> str:
    """Serialize a trace to the documented CSV schema."""
    lines = [TRACE_CSV_HEADER]
    for i in range(len(trace)):
        lines.append(
            f"{i},{trace.p_pv[i]:.6f},{trace.p_load[i]:.6f},{trace.p_direct[i]:.6f},"
            f"{trace.p_charge[i]:.6f},{trace.p_discharge_delivered[i]:.6f},"
            f"{trace.p_import[i]:.6f},{trace.p_curtail[i]:.6f},{trace.soc_kwh[i]:.6f}"
        )
    return "\n".join(lines) + "\n"


def write_trace_csv(trace: DispatchTrace, path: str | Path) -> None:
    Path(path).write_text(trace_to_csv(trace), encoding="utf-8")
