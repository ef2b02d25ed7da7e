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
from typing import Sequence

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

    capacity_kwh of 0 is legal and means "no storage". Power limits left as
    None default to 0.5C. Every dispatch starts the year at soc_min, the
    minimum state of charge implied by usable_fraction.
    """

    capacity_kwh: float
    usable_fraction: float = 0.9
    eta_charge: float = math.sqrt(DEFAULT_ROUND_TRIP_EFFICIENCY)
    eta_discharge: float = math.sqrt(DEFAULT_ROUND_TRIP_EFFICIENCY)
    max_charge_kw: float | None = None
    max_discharge_kw: float | None = None

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
    """Annual energy aggregates of a dispatch run, in kWh per year.

    e_consumed is the load's energy. SCR and SSR are the self-consumed energy
    (direct plus delivered) over what was produced and consumed, 0 where that is 0.
    """

    e_produced: float
    e_direct: float
    e_charged: float
    e_delivered: float
    e_import: float
    e_curtail: float
    e_consumed: float

    @property
    def scr(self) -> float:
        used = self.e_direct + self.e_delivered
        return used / self.e_produced if self.e_produced > 0.0 else 0.0

    @property
    def ssr(self) -> float:
        used = self.e_direct + self.e_delivered
        return used / self.e_consumed if self.e_consumed > 0.0 else 0.0


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


def _check_series(pv_rows, load_rows, step_hours: float) -> tuple[list, list]:
    """The rows as float arrays. Rejects a bad step, rows not 1-D or unequal, bad power."""
    if not 0.0 < step_hours < math.inf:
        raise ValueError(f"step_hours must be positive and finite, got {step_hours}")
    pv_rows, load_rows = ([np.asarray(r, dtype=float) for r in s] for s in (pv_rows, load_rows))
    rows = [*pv_rows, *load_rows]
    for row in rows:
        if row.ndim != 1:
            raise UnalignedProfilesError(f"series must be 1-D, got shape {row.shape}")
        if len(row) != len(rows[0]):
            raise UnalignedProfilesError(f"series lengths differ ({len(row)} vs {len(rows[0])})")
    for name, side in (("pv", pv_rows), ("load", load_rows)):
        for row in side:
            if not np.isfinite(row).all():
                raise ValueError(f"{name} power values must be finite")
            if (row < 0.0).any():
                raise NegativePowerError(f"{name} power values must be non-negative")
    return pv_rows, load_rows


def _offers(pv, load, dt: float, charge_cap_e, discharge_cap_e, out):
    """Per step: the surplus and deficit energy, and what the battery is offered and asked for.

    offered is the surplus within the charge limit, wanted the deficit within
    the discharge limit. The four are written, in that order, into the arrays
    of out; the surplus and deficit may overwrite pv and load.
    """
    surplus_e, deficit_e, offered, wanted = out
    np.subtract(pv, load, out=surplus_e)
    np.multiply(surplus_e, dt, out=surplus_e)  # (load - pv) * dt is its exact negation
    np.negative(surplus_e, out=deficit_e)
    np.maximum(deficit_e, 0.0, out=deficit_e)
    np.maximum(surplus_e, 0.0, out=surplus_e)
    np.minimum(surplus_e, charge_cap_e, out=offered)
    np.minimum(deficit_e, discharge_cap_e, out=wanted)
    return out


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
    (pv,), (load,) = _check_series(
        [np.array(pv_kw, dtype=float)], [np.array(load_kw, dtype=float)], step_hours
    )
    dt = step_hours
    cap = battery.capacity_kwh
    soc_min = battery.soc_min_kwh
    eta_c = battery.eta_charge
    eta_d = battery.eta_discharge
    surplus_e, deficit_e, offered, wanted = _offers(
        pv, load, dt, battery.max_charge_kw * dt, battery.max_discharge_kw * dt,
        [np.empty(len(pv)) for _ in range(4)],
    )
    soc = soc_min
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


#: How both dispatch paths sum the four flows: the year is cut into runs of this
#: many steps (a multiple of 8), the last padded with zeros; each run is summed
#: by _add_lanes and _fold, and the run sums one after another by _in_order.
_RUN = 72

#: The kernel steps each run in sub-runs of this many steps (a multiple of 8
#: that divides _RUN), carrying the eight lanes from one to the next.
_SUB = 24

#: The kernel steps about this many columns (keys x chunks of time) side by side.
_WIDTH = 1024


def _add_lanes(lanes: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Add a (flows, steps, columns) block, step i into lane i % 8 of (8, flows, columns).

    Only elementwise adds, in step order: the order of a reduction over a middle
    axis would depend on the layout, and a run added in pieces, the lanes carried
    from piece to piece, gets the bits of the run added at once.
    """
    for i in range(0, block.shape[1], 8):
        lanes += block[:, i:i + 8].transpose(1, 0, 2)
    return lanes


def _fold(r: np.ndarray) -> np.ndarray:
    """The eight lanes r added pairwise: the run sums, (flows, columns)."""
    return ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))


def _in_order(run_sums: np.ndarray) -> np.ndarray:
    """The total of run sums, (runs, ...), added one after another (in place)."""
    return np.add.accumulate(run_sums, axis=0, out=run_sums)[-1]


def simulate_balances(
    pv_rows: Sequence[Sequence[float]],
    load_rows: Sequence[Sequence[float]],
    configs: Sequence[tuple[int, int, BatterySpec]],
    step_hours: float,
) -> list[EnergyBalance]:
    """Annual balances of many dispatch configs at once, without traces.

    ``configs[i] = (p, l, battery)`` dispatches ``pv_rows[p]`` against
    ``load_rows[l]``. Rows are arrays or sequences of numbers, all of one
    length; each is converted to float and checked once for NaN, inf and
    negative values. The four flows are summed by the rule of _RUN, so each
    balance equals ``annual_balance(simulate_series(...), step_hours)`` bit
    for bit and does not depend on which other configs share the call.
    """
    pv_rows, load_rows = _check_series(pv_rows, load_rows, step_hours)
    for p, l, _ in configs:
        if not (0 <= p < len(pv_rows) and 0 <= l < len(load_rows)):
            raise ValueError(
                f"config rows ({p}, {l}) out of range for {len(pv_rows)} pv "
                f"and {len(load_rows)} load rows"
            )
    if not configs or not len(pv_rows[0]):  # an empty year has no runs: every sum is 0
        return [EnergyBalance(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)] * len(configs)
    return _chunked_balances(pv_rows, load_rows, configs, step_hours)


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values, sorted, and where each value sits among them.

    Not np.unique: it imports numpy.ma, which a sweep may never need.
    """
    distinct = np.array(sorted(set(values.tolist())), dtype=int)
    return distinct, np.searchsorted(distinct, values)


def _gather_plan(row_of_col, window_of_col) -> tuple[list[int], np.ndarray]:
    """The rows that columns read, and where each column sits in _gather's block."""
    used, which = _distinct(row_of_col)
    return used.tolist(), window_of_col * len(used) + which


def _gather(rows, plan, at, pad, out) -> None:
    """Write into out, (steps, columns), each column's row at the steps at[:, its window].

    plan is _gather_plan's. Each row used is read once per window; padded
    steps read 0.
    """
    used, columns = plan
    block = np.empty(at.shape + (len(used),))
    for i, p in enumerate(used):
        block[:, :, i] = rows[p][at]
    block[pad] = 0.0
    block.reshape(len(at), at.shape[1] * len(used)).take(columns, axis=1, out=out, mode="clip")


def _chunked_balances(pv_rows, load_rows, configs, dt: float) -> list[EnergyBalance]:
    """simulate_balances on checked, non-empty rows and at least one config.

    The year is cut into the R runs of _RUN steps of the summation rule, and
    the runs into C chunks of L runs each, C about _WIDTH / k for k configs;
    the last chunk may run past the year's end. Pass 1 steps every chunk of
    every config side by side, each from soc_min, with simulate_series' rule
    and floating-point operations, one numpy call per operation. It keeps,
    per run and config, the SOC at the run's end and the sums of the four
    flows. Pass 2 walks each config's runs in time order with the true SOC.
    A run that started from it bit for bit is exact, and so is the rest of
    its chunk; any other run is stepped again from the true SOC, all walking
    configs side by side. The run sums are then added in order.
    """
    n = len(pv_rows[0])
    k = len(configs)
    runs_total = -(-n // _RUN)
    length = -(-runs_total // min(max(_WIDTH // k, 1), runs_total))  # L
    chunks = -(-runs_total // length)  # C
    pv_index = np.array([p for p, _, _ in configs])
    load_index = np.array([l for _, l, _ in configs])

    params = np.array([
        (b.capacity_kwh, b.soc_min_kwh, b.eta_charge, b.eta_discharge,
         b.max_charge_kw * dt, b.max_discharge_kw * dt)
        for _, _, b in configs
    ]).T.copy()  # one contiguous row per parameter
    soc_min = params[1]
    # local names: the loop below makes twelve calls per step
    sub, div, mul, add, low, high = (
        np.subtract, np.divide, np.multiply, np.add, np.minimum, np.maximum
    )

    def columns(key, window):
        """What step needs of columns stepping configs key[j] through windows window[j]."""
        return (window, params[:, key], _gather_plan(pv_index[key], window),
                _gather_plan(load_index[key], window))

    def step(runs, cols, soc, flows) -> np.ndarray:
        """Step each column's config through run runs[its window], from soc.

        soc is updated in place. The run is stepped in sub-runs of _SUB steps
        through flows, a (4, _SUB, columns) buffer, its lanes carried from one
        sub-run to the next. Steps past the year's end are padding that reads 0.
        Returns the four flow sums of each column's run, (4, columns).
        """
        window, par, pv_plan, load_plan = cols
        cap, soc_min, eta_c, eta_d, charge_cap_e, discharge_cap_e = par
        accepted, delivered, curtailed, imported = flows
        tmp = np.empty(len(window))
        lanes = np.zeros((8,) + flows[:, 0].shape)
        for first in range(0, _RUN, _SUB):
            at = runs * _RUN + np.arange(first, first + _SUB)[:, None]
            pad = at >= n  # zero offers leave the SOC as it is and add 0 to the sums
            np.minimum(at, n - 1, out=at)
            _gather(pv_rows, pv_plan, at, pad, curtailed)
            _gather(load_rows, load_plan, at, pad, imported)
            # each step reads what is offered and wanted where it writes the flows
            _offers(curtailed, imported, dt, charge_cap_e, discharge_cap_e,
                    (curtailed, imported, accepted, delivered))
            for acc, dlv in zip(accepted, delivered):
                sub(cap, soc, tmp)
                div(tmp, eta_c, tmp)  # headroom
                low(acc, tmp, out=acc)
                mul(acc, eta_c, tmp)
                add(soc, tmp, soc)
                low(soc, cap, out=soc)
                sub(soc, soc_min, tmp)
                mul(tmp, eta_d, tmp)  # available
                low(dlv, tmp, out=dlv)
                div(dlv, eta_d, tmp)
                sub(soc, tmp, soc)
                high(soc, soc_min, out=soc)
            sub(curtailed, accepted, curtailed)  # the surplus left over
            sub(imported, delivered, imported)  # the deficit left over
            div(flows, dt, flows)
            _add_lanes(lanes, flows)
        return _fold(lanes)

    end_soc = np.empty((chunks, length, k))  # pass 1's SOC after each run
    run_sums = np.empty((chunks, length, 4, k))

    # pass 1: every chunk of every config, chunk c in columns c*k .. c*k+k-1
    window = np.repeat(np.arange(chunks), k)
    cols = columns(np.tile(np.arange(k), chunks), window)
    soc = np.tile(soc_min, chunks)
    flows = np.empty((4, _SUB, chunks * k))
    for j in range(length):
        sums = step(np.arange(chunks) * length + j, cols, soc, flows)
        end_soc[:, j] = soc.reshape(chunks, k)
        run_sums[:, j] = sums.reshape(4, chunks, k).transpose(1, 0, 2)
    end_soc = end_soc.reshape(chunks * length, k)
    run_sums = run_sums.reshape(chunks * length, 4, k)[:runs_total]

    # pass 2: walk each config's runs from chunk 1 on with the true SOC;
    # pass 1 started a chunk's first run at soc_min and each other where the last ended
    at_run = np.full(k, length)  # per config: the next run to check
    soc = end_soc[length - 1].copy()
    while True:
        walking = np.arange(k)
        while True:  # skip every run that started from the true SOC, and the rest of its chunk
            walking = walking[at_run[walking] < runs_total]
            run = at_run[walking]
            started = np.where(run % length == 0, soc_min[walking], end_soc[run - 1, walking])
            exact = soc[walking].view(np.int64) == started.view(np.int64)
            if not exact.any():
                break
            done = walking[exact]
            at_run[done] = (at_run[done] // length + 1) * length  # the next chunk's first run
            soc[done] = end_soc[at_run[done] - 1, done]
        if not walking.size:
            break
        runs, window = _distinct(at_run[walking])
        walked = soc[walking]
        # a buffer of its own: every flow stays C-contiguous (numpy 2.4's
        # negative writes wrong values into a strided (steps, 1) view)
        buffer = np.empty((4, _SUB, len(walking)))
        sums = step(runs, columns(walking, window), walked, buffer)
        run_sums[at_run[walking], :, walking] = sums.T
        soc[walking] = walked
        at_run[walking] += 1

    totals = (_in_order(run_sums) * dt).T.tolist()

    produced = [float(row.sum() * dt) for row in pv_rows]
    consumed = [float(row.sum() * dt) for row in load_rows]
    direct: dict[tuple[int, int], float] = {}
    balances = []
    for (p, l, _), (charged, discharged, curtailed, imported) in zip(configs, totals):
        if (p, l) not in direct:
            direct[p, l] = float(np.minimum(pv_rows[p], load_rows[l]).sum() * dt)
        balances.append(EnergyBalance(
            produced[p], direct[p, l], charged, discharged, imported, curtailed, consumed[l]
        ))
    return balances


def annual_balance(trace: DispatchTrace, step_hours: float) -> EnergyBalance:
    """Aggregate a trace into annual energies plus SCR and SSR.

    The four flows are summed by the rule of _RUN, as the batched kernel sums
    them; produced, direct and consumed by numpy's sum.
    """
    runs = max(-(-len(trace) // _RUN), 1)  # an empty year is one run of zeros
    block = np.zeros((4, runs, _RUN))
    flows = (trace.p_charge, trace.p_discharge_delivered, trace.p_import, trace.p_curtail)
    for padded, flow in zip(block.reshape(4, -1), flows):
        padded[:len(flow)] = flow
    charged, delivered, imported, curtailed = (
        _in_order(_fold(_add_lanes(np.zeros((8, 4, runs)), block.transpose(0, 2, 1))).T)
        * step_hours
    ).tolist()
    return EnergyBalance(
        float(trace.p_pv.sum() * step_hours), float(trace.p_direct.sum() * step_hours),
        charged, delivered, imported, curtailed, float(trace.p_load.sum() * step_hours),
    )


def scr_no_storage(pv: TimeSeriesProfile, load: TimeSeriesProfile) -> float:
    """Self-consumption rate of the PV-only system (storage-free baseline)."""
    _require_aligned(pv, load)
    produced = float(pv.values.sum() * pv.step_hours)
    if produced <= 0.0:
        raise ZeroProductionError("no PV production, SCR undefined")
    direct = float(np.minimum(pv.values, load.values).sum() * pv.step_hours)
    return direct / produced


#: trace_to_csv formats this many rows at a time from Python floats.
_TRACE_BLOCK = 4096


def trace_to_csv(trace: DispatchTrace) -> str:
    """Serialize a trace to the documented CSV schema.

    Rows are formatted a block at a time from list slices: one template per
    row, no numpy scalar per field, and no whole column held as a list.
    """
    row = "%d," + ",".join(["%.6f"] * 8)
    columns = (
        trace.p_pv, trace.p_load, trace.p_direct, trace.p_charge,
        trace.p_discharge_delivered, trace.p_import, trace.p_curtail, trace.soc_kwh,
    )

    def block(lo: int) -> str:
        hi = lo + _TRACE_BLOCK
        rows = zip(range(lo, hi), *(column[lo:hi].tolist() for column in columns))
        return "\n".join([row % values for values in rows])

    return write_rows(TRACE_CSV_HEADER, map(block, range(0, len(trace), _TRACE_BLOCK)))


def write_trace_csv(trace: DispatchTrace, path: str | Path) -> None:
    Path(path).write_text(trace_to_csv(trace), encoding="utf-8")
