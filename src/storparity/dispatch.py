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
    pv = np.array(pv_kw, dtype=float)
    load = np.array(load_kw, dtype=float)
    _check_series([pv], [load], step_hours)
    dt = step_hours
    cap = battery.capacity_kwh
    soc_min = battery.soc_min_kwh
    eta_c = battery.eta_charge
    eta_d = battery.eta_discharge
    surplus_e, deficit_e, offered, wanted = _offers(
        pv, load, dt, battery.max_charge_kw * dt, battery.max_discharge_kw * dt,
        [np.empty(len(pv)) for _ in range(4)],
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

#: The kernel steps about this many columns (keys x chunks of time) side by side.
_WIDTH = 256


def _pairwise_sum(n: int, run_sum: Callable[[int], np.ndarray]) -> np.ndarray:
    """Sum n steps in numpy's pairwise order; run_sum(size) sums the next size steps."""
    if n <= _PAIRWISE_RUN:
        return run_sum(n)
    half = n // 2 - (n // 2) % 8
    left = _pairwise_sum(half, run_sum)
    return left + _pairwise_sum(n - half, run_sum)


def _run_sum(block: np.ndarray) -> np.ndarray:
    """Sums over the steps of one run, a (flows, steps, columns) block, in numpy's order.

    numpy adds a run's items into eight interleaved partial sums, adds those
    pairwise and then the items left over one by one. The adds are spelled
    out: the order of a reduction over a middle axis depends on the layout.
    """
    flows, size, width = block.shape
    whole = size - size % 8
    r = np.zeros((8, flows, width))
    for i in range(0, whole, 8):
        r += block[:, i:i + 8].transpose(1, 0, 2)
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for i in range(whole, size):
        total += block[:, i]
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
    return _chunked_balances(pv_rows, load_rows, configs, step_hours) if configs else []


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
    """simulate_balances on checked rows and at least one config.

    The year is cut into the runs of steps of numpy's pairwise sum, and the
    runs into C chunks of whole runs, C about _WIDTH / k for k configs. Pass 1
    steps every chunk of every config side by side, with simulate_series'
    rule and floating-point operations, one numpy call per operation: chunk 0
    from soc_init, every later chunk from soc_min. It keeps, per run and
    config, the SOC at the run's end and the sums of the four flows. Pass 2
    walks each config's runs in time order with the true SOC. A run that
    started from it bit for bit is exact, and so is the rest of its chunk; any
    other run is stepped again from the true SOC, all walking configs side by
    side. The run sums are combined in numpy's pairwise order.
    """
    n = len(pv_rows[0])
    k = len(configs)
    sizes: list[int] = []
    _pairwise_sum(n, lambda size: sizes.append(size) or 0.0)
    runs_total = len(sizes)
    sizes = np.array(sizes)
    starts = np.cumsum(sizes) - sizes
    chunks = min(max(_WIDTH // k, 1), runs_total)
    first = np.array([runs_total * c // chunks for c in range(chunks + 1)])
    next_chunk = np.repeat(first[1:], np.diff(first))  # per run: the next chunk's first run
    pv_index = np.array([p for p, _, _ in configs])
    load_index = np.array([l for _, l, _ in configs])

    params = np.array([
        (b.capacity_kwh, b.soc_min_kwh, b.eta_charge, b.eta_discharge,
         b.max_charge_kw * dt, b.max_discharge_kw * dt)
        for _, _, b in configs
    ]).T.copy()  # one contiguous row per parameter
    soc_min = params[1]
    soc_init = np.array([b.soc_init_kwh for _, _, b in configs])
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

        soc is updated in place; run -1 is no run, so its columns only pad.
        flows is a (4, steps, columns) buffer of at least the longest run.
        Returns the four flow sums of each column's run, (4, columns).
        """
        window, par, pv_plan, load_plan = cols
        cap, soc_min, eta_c, eta_d, charge_cap_e, discharge_cap_e = par
        size = np.where(runs >= 0, sizes[runs], 0)
        steps = int(size.max())
        t = np.arange(steps)[:, None]
        at = np.minimum(starts[runs] + t, n - 1)
        pad = t >= size  # zero offers leave the SOC as it is
        width = len(window)
        flows = flows[:, :steps]
        accepted, delivered, curtailed, imported = flows
        _gather(pv_rows, pv_plan, at, pad, curtailed)
        _gather(load_rows, load_plan, at, pad, imported)
        # each step reads what is offered and wanted where it writes the flows
        _offers(curtailed, imported, dt, charge_cap_e, discharge_cap_e,
                (curtailed, imported, accepted, delivered))
        tmp = np.empty(width)
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
        sums = np.zeros((4, width))
        column_size = size[window]
        for run_size in set(size.tolist()) - {0}:
            # summed over every column, kept for the columns of this size
            same = column_size == run_size
            sums[:, same] = _run_sum(flows[:, :run_size])[:, same]
        return sums

    end_soc = np.empty((runs_total, k))  # pass 1's SOC after each run
    run_sums = np.zeros((runs_total, 4, k))

    # pass 1: every chunk of every config, chunk c in columns c*k .. c*k+k-1
    window = np.repeat(np.arange(chunks), k)
    key = np.tile(np.arange(k), chunks)
    cols = columns(key, window)
    soc = np.tile(soc_min, chunks)
    soc[:k] = soc_init
    flows = np.empty((4, int(sizes.max()), len(key)))
    for j in range(int(np.diff(first).max())):
        runs = first[:-1] + j
        runs[runs >= first[1:]] = -1
        run = runs[window]
        real = run >= 0
        sums = step(runs, cols, soc, flows)
        end_soc[run[real], key[real]] = soc[real]
        run_sums[run[real], :, key[real]] = sums[:, real].T

    # pass 2: walk each config's runs from chunk 1 on with the true SOC;
    # pass 1 started a chunk's first run at soc_min and each other where the last ended
    chunk_start = np.zeros(runs_total, dtype=bool)
    chunk_start[first[:-1]] = True
    at_run = np.full(k, first[1])  # per config: the next run to check
    soc = end_soc[first[1] - 1].copy()
    while True:
        walking = np.arange(k)
        while True:  # skip every run that started from the true SOC, and the rest of its chunk
            walking = walking[at_run[walking] < runs_total]
            run = at_run[walking]
            started = np.where(chunk_start[run], soc_min[walking], end_soc[run - 1, walking])
            exact = soc[walking].view(np.int64) == started.view(np.int64)
            if not exact.any():
                break
            done = walking[exact]
            at_run[done] = next_chunk[at_run[done]]
            soc[done] = end_soc[at_run[done] - 1, done]
        if not walking.size:
            break
        runs, window = _distinct(at_run[walking])
        walked = soc[walking]
        # a buffer of its own: every flow stays C-contiguous (numpy 2.4's
        # negative writes wrong values into a strided (steps, 1) view)
        buffer = np.empty((4, len(flows[0]), len(walking)))
        sums = step(runs, columns(walking, window), walked, buffer)
        run_sums[at_run[walking], :, walking] = sums.T
        soc[walking] = walked
        at_run[walking] += 1

    sums_in_order = iter(run_sums.reshape(runs_total, 4 * k))
    totals = _pairwise_sum(n, lambda size: next(sums_in_order))
    totals = (totals * dt).reshape(4, k).T.tolist()

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
