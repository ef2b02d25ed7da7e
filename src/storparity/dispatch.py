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
from typing import Callable, Sequence

import numpy as np

from .errors import (
    NegativePowerError,
    UnalignedProfilesError,
    ZeroProductionError,
    check_finite,
)
from .profiles import TimeSeriesProfile
from .table import write_rows

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
    the minimum state of charge implied by usable_fraction. A soc_init_kwh
    up to 1e-12 outside [soc_min, capacity] is clamped to the nearer bound;
    one further out is rejected.
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
        clamped = min(max(self.soc_init_kwh, self.soc_min_kwh), self.capacity_kwh)
        object.__setattr__(self, "soc_init_kwh", clamped)

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


def _check_series(pv_rows, load_rows, step_hours: float) -> None:
    """Reject a non-positive step, rows of unequal length and NaN, inf or negative power."""
    if step_hours <= 0.0:
        raise ValueError(f"step_hours must be positive, got {step_hours}")
    rows = [*pv_rows, *load_rows]
    for row in rows:
        if len(row) != len(rows[0]):
            raise UnalignedProfilesError(f"series lengths differ ({len(row)} vs {len(rows[0])})")
    for name, side in (("pv", pv_rows), ("load", load_rows)):
        for row in side:
            if not np.isfinite(row).all():
                raise ValueError(f"{name} power values must be finite")
            if (row < 0.0).any():
                raise NegativePowerError(f"{name} power values must be non-negative")


def _offers(pv, load, dt: float, charge_cap_e, discharge_cap_e):
    """Per step: the surplus and deficit energy, and what the battery is offered and asked for.

    offered is the surplus within the charge limit, wanted the deficit within
    the discharge limit.
    """
    surplus_e = (pv - load) * dt  # (load - pv) * dt is its exact negation
    deficit_e = np.maximum(-surplus_e, 0.0)
    np.maximum(surplus_e, 0.0, out=surplus_e)
    offered = np.minimum(surplus_e, charge_cap_e)
    wanted = np.minimum(deficit_e, discharge_cap_e)
    return surplus_e, deficit_e, offered, wanted


def simulate_series(
    pv_kw, load_kw, battery: BatterySpec, step_hours: float
) -> DispatchTrace:
    """Dispatch over raw power series of any length (same rule as simulate).

    Each step runs the batched kernel's rule on Python floats: charge what is
    offered within the headroom, clamp at capacity, deliver what is wanted
    within the available energy, clamp at soc_min. A tie keeps the second
    value, as np.minimum and np.maximum do, so every array is bit for bit
    what the kernel computes for the same row.
    """
    pv = np.array(pv_kw, dtype=float)
    load = np.array(load_kw, dtype=float)
    _check_series([pv], [load], step_hours)
    dt = step_hours
    cap = battery.capacity_kwh
    soc_min = battery.soc_min_kwh
    eta_c = battery.eta_charge
    eta_d = battery.eta_discharge
    surplus_e, deficit_e, offered, wanted = _offers(
        pv, load, dt, battery.max_charge_kw * dt, battery.max_discharge_kw * dt
    )
    soc = battery.soc_init_kwh
    accepted, delivered, soc_series = [], [], []
    for off, want in zip(offered.tolist(), wanted.tolist()):
        headroom = (cap - soc) / eta_c
        acc = off if off < headroom else headroom
        soc += acc * eta_c
        soc = soc if soc < cap else cap
        available = (soc - soc_min) * eta_d
        dlv = want if want < available else available
        soc -= dlv / eta_d
        soc = soc if soc > soc_min else soc_min
        accepted.append(acc)
        delivered.append(dlv)
        soc_series.append(soc)

    charged = np.array(accepted, dtype=float)
    discharged = np.array(delivered, dtype=float)
    curtailed = np.subtract(surplus_e, charged, out=surplus_e)
    imported = np.subtract(deficit_e, discharged, out=deficit_e)
    for energy in (charged, discharged, curtailed, imported):
        energy /= dt  # in place: new arrays here raised a long trace's peak RSS
    return DispatchTrace(
        p_pv=pv,
        p_load=load,
        p_direct=np.minimum(load, pv),
        p_charge=charged,
        p_discharge_delivered=discharged,
        p_import=imported,
        p_curtail=curtailed,
        soc_kwh=np.array(soc_series, dtype=float),
    )


#: numpy sums a float64 vector by halving it (at multiples of 8) down to runs
#: of at most this many items, each summed with eight interleaved partial sums.
_PAIRWISE_RUN = 128


def _pairwise_sum(n: int, run_sum: Callable[[int], np.ndarray]) -> np.ndarray:
    """Sum n steps in numpy's pairwise order; run_sum(size) sums the next size steps."""
    if n <= _PAIRWISE_RUN:
        return run_sum(n)
    half = n // 2 - (n // 2) % 8
    left = _pairwise_sum(half, run_sum)
    return left + _pairwise_sum(n - half, run_sum)


def _run_sum(block: np.ndarray) -> np.ndarray:
    """Column sums of one run, added in the order numpy adds a run's items."""
    size = len(block)
    whole = size - size % 8
    if whole:
        r = block[:whole].reshape(whole // 8, 8, -1).sum(axis=0)
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    else:
        total = np.zeros(block.shape[1])
    for row in block[whole:]:
        total += row
    return total


def simulate_balances(
    pv_rows: Sequence[np.ndarray],
    load_rows: Sequence[np.ndarray],
    configs: Sequence[tuple[int, int, BatterySpec]],
    step_hours: float,
) -> list[EnergyBalance]:
    """Annual balances of many dispatch configs at once, without traces.

    ``configs[i] = (p, l, battery)`` dispatches ``pv_rows[p]`` against
    ``load_rows[l]``. All rows have one length; each is checked once for
    NaN, inf and negative values. Each balance equals
    ``annual_balance(simulate_series(...), step_hours)`` bit for bit and does
    not depend on which other configs share the call.
    """
    _check_series(pv_rows, load_rows, step_hours)
    return _batched_balances(pv_rows, load_rows, configs, step_hours) if configs else []


def _batched_balances(pv_rows, load_rows, configs, dt: float) -> list[EnergyBalance]:
    """simulate_balances on checked rows and at least one config.

    The time loop steps every config side by side with simulate_series' rule
    and floating-point operations, one numpy call per operation. The flows
    are summed over the runs of steps of numpy's pairwise sum, and the run
    sums combined in its order.
    """
    n = len(pv_rows[0])
    k = len(configs)
    pv_index = np.array([p for p, _, _ in configs])
    load_index = np.array([l for _, l, _ in configs])

    cap, soc_min, eta_c, eta_d, charge_cap_e, discharge_cap_e, soc = np.array([
        (b.capacity_kwh, b.soc_min_kwh, b.eta_charge, b.eta_discharge,
         b.max_charge_kw * dt, b.max_discharge_kw * dt, b.soc_init_kwh)
        for _, _, b in configs
    ]).T.copy()  # one contiguous row per parameter; soc is updated in place
    tmp = np.empty(k)
    # local names: the loop below makes twelve calls per step
    sub, div, mul, add, low, high = (
        np.subtract, np.divide, np.multiply, np.add, np.minimum, np.maximum
    )

    start = 0

    def run_sum(size: int) -> np.ndarray:
        """Dispatch the next size steps; the column sums of their four flows."""
        nonlocal start
        stop = start + size
        pv = np.stack([row[start:stop] for row in pv_rows], axis=1)[:, pv_index]
        load = np.stack([row[start:stop] for row in load_rows], axis=1)[:, load_index]
        start = stop
        surplus_e, deficit_e, offered, wanted = _offers(
            pv, load, dt, charge_cap_e, discharge_cap_e
        )
        flows = np.empty((size, 4, k))
        accepted, delivered = flows[:, 0], flows[:, 1]
        for acc, dlv, off, want in zip(accepted, delivered, offered, wanted):
            sub(cap, soc, tmp)
            div(tmp, eta_c, tmp)  # headroom
            low(off, tmp, out=acc)
            mul(acc, eta_c, tmp)
            add(soc, tmp, soc)
            low(soc, cap, out=soc)
            sub(soc, soc_min, tmp)
            mul(tmp, eta_d, tmp)  # available
            low(want, tmp, out=dlv)
            div(dlv, eta_d, tmp)
            sub(soc, tmp, soc)
            high(soc, soc_min, out=soc)
        sub(surplus_e, accepted, flows[:, 2])  # curtailed
        sub(deficit_e, delivered, flows[:, 3])  # imported
        div(flows, dt, flows)
        return _run_sum(flows.reshape(size, 4 * k))

    totals = (_pairwise_sum(n, run_sum) * dt).reshape(4, k).T.tolist()

    produced = [float(row.sum() * dt) for row in pv_rows]
    consumed = [float(row.sum() * dt) for row in load_rows]
    direct: dict[tuple[int, int], float] = {}
    balances = []
    for (p, l, _), (charged, discharged, curtailed, imported) in zip(configs, totals):
        if (p, l) not in direct:
            direct[p, l] = float(np.minimum(pv_rows[p], load_rows[l]).sum() * dt)
        balances.append(
            _energy_balance(
                produced[p], direct[p, l], charged, discharged, imported, curtailed, consumed[l]
            )
        )
    return balances


def annual_balance(trace: DispatchTrace, step_hours: float) -> EnergyBalance:
    """Aggregate a trace into annual energies plus SCR and SSR."""
    return _energy_balance(
        float(trace.p_pv.sum() * step_hours),
        float(trace.p_direct.sum() * step_hours),
        float(trace.p_charge.sum() * step_hours),
        float(trace.p_discharge_delivered.sum() * step_hours),
        float(trace.p_import.sum() * step_hours),
        float(trace.p_curtail.sum() * step_hours),
        float(trace.p_load.sum() * step_hours),
    )


def _energy_balance(
    e_produced: float,
    e_direct: float,
    e_charged: float,
    e_delivered: float,
    e_import: float,
    e_curtail: float,
    e_consumed: float,
) -> EnergyBalance:
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
    return write_rows(TRACE_CSV_HEADER, (
        f"{i},{trace.p_pv[i]:.6f},{trace.p_load[i]:.6f},{trace.p_direct[i]:.6f},"
        f"{trace.p_charge[i]:.6f},{trace.p_discharge_delivered[i]:.6f},"
        f"{trace.p_import[i]:.6f},{trace.p_curtail[i]:.6f},{trace.soc_kwh[i]:.6f}"
        for i in range(len(trace))
    ))


def write_trace_csv(trace: DispatchTrace, path: str | Path) -> None:
    Path(path).write_text(trace_to_csv(trace), encoding="utf-8")
