"""Scenario grid enumeration, batch evaluation and summary statistics."""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass, field
from functools import partial
from itertools import groupby
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

import numpy as np

from .dispatch import (
    BatterySpec,
    DispatchTrace,
    EnergyBalance,
    annual_balance,
    simulate,
    simulate_balances,
)
from .errors import EmptyAxisError, EmptySelectionError, check_finite
# financial_result is not called here: perfbench/spans.py wraps this name.
from .finance import (
    CountryData,
    EconomicParams,
    financial_result,
    financial_results,
)
# align is not called here either: perfbench/spans.py wraps this name too.
from .profiles import (
    TimeSeriesProfile,
    align,
    common_step,
    default_load_shape,
    refine,
    scale_to_annual,
    synthesize_load_profile,
    synthesize_pv_profile,
)
from .table import read_columns, read_rows, reject, write_rows

log = logging.getLogger(__name__)

PROSUMER_TYPES = ("A", "B", "C")

#: Annual consumption per prosumer type, kWh.
ANNUAL_LOAD_KWH = {"A": 4500.0, "B": 7500.0, "C": 10500.0}

#: Standard PV size range (inclusive, integer kWp) per prosumer type.
PV_RANGE_KWP = {"A": (1, 5), "B": (3, 8), "C": (5, 10)}

DEFAULT_RATIOS = (0.5, 1.0, 2.0)
DEFAULT_BESS_PRICES = (500.0, 150.0)

RESULTS_CSV_HEADER = (
    "country,prosumer_type,pv_kwp,ratio_kwh_per_kwp,bess_price_eur_per_kwh,"
    "scr,ssr,lcoe,lcou,npv,grid_parity"
)
_AXIS_COLUMNS = RESULTS_CSV_HEADER.split(",")[:5]
_METRIC_COLUMNS = RESULTS_CSV_HEADER.split(",")[5:10]
BOX_CSV_HEADER = "country,bess_price,min,q1,median,q3,max"
PARITY_CSV_HEADER = "country,bess_price,share_percent,parity_count,scenario_count"


def pv_sizes_for_type(prosumer_type: str) -> range:
    lo, hi = PV_RANGE_KWP[prosumer_type]
    return range(lo, hi + 1)


@dataclass(frozen=True, order=True)
class Scenario:
    """One point of the evaluation grid.

    The battery capacity is pv_kwp * ratio_kwh_per_kwp. Sizes outside the
    standard per-type range are representable (callers that enforce the
    range do so explicitly, see in_standard_range). Each rule of
    __post_init__ reads one field: parse_results_csv relies on that.
    """

    country: str
    prosumer_type: str
    pv_kwp: int
    ratio_kwh_per_kwp: float
    bess_price_eur_per_kwh: float

    def __post_init__(self) -> None:
        check_finite(self)
        if self.prosumer_type not in PROSUMER_TYPES:
            raise ValueError(f"unknown prosumer type {self.prosumer_type!r}")
        if int(self.pv_kwp) != self.pv_kwp or self.pv_kwp < 1:
            raise ValueError(f"pv_kwp must be an integer >= 1, got {self.pv_kwp}")
        object.__setattr__(self, "pv_kwp", int(self.pv_kwp))
        if self.ratio_kwh_per_kwp < 0.0:
            raise ValueError(f"ratio_kwh_per_kwp must be >= 0, got {self.ratio_kwh_per_kwp}")
        if self.bess_price_eur_per_kwh < 0.0:
            raise ValueError(f"bess_price must be >= 0, got {self.bess_price_eur_per_kwh}")

    @property
    def bess_kwh(self) -> float:
        return self.pv_kwp * self.ratio_kwh_per_kwp

    @property
    def annual_load_kwh(self) -> float:
        return ANNUAL_LOAD_KWH[self.prosumer_type]

    @property
    def key(self) -> tuple:
        return (
            self.country,
            self.prosumer_type,
            self.pv_kwp,
            self.ratio_kwh_per_kwp,
            self.bess_price_eur_per_kwh,
        )

    def in_standard_range(self) -> bool:
        lo, hi = PV_RANGE_KWP[self.prosumer_type]
        return lo <= self.pv_kwp <= hi


@dataclass(frozen=True)
class ScenarioResult:
    scenario: Scenario
    scr: float
    ssr: float
    lcoe: float
    lcou: float
    npv: float
    grid_parity: bool


@dataclass(frozen=True)
class BoxStats:
    """Five-number summary with quartiles by inclusive linear interpolation."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float

    def __post_init__(self) -> None:
        ordered = (self.minimum, self.q1, self.median, self.q3, self.maximum)
        if any(a > b for a, b in zip(ordered, ordered[1:])):
            raise ValueError(f"box statistics out of order: {ordered}")


class ResultsTable:
    """Scenario results as columns, one entry per result, in row order.

    One column per results CSV field, named as there, given in that order.
    The axis columns are lists of the scenarios' values, except pv_kwp, an
    int64 array; the metrics are float arrays and grid_parity a bool array.
    ``by_country_price`` is _cells of the (country, BESS price) columns
    within LCOU, which every summary by country and price reads.
    """

    # a plain class: making a dataclass costs about 1 ms of every command's import
    __slots__ = (*RESULTS_CSV_HEADER.split(","), "by_country_price")

    def __init__(self, *columns) -> None:
        for name, column in zip(self.__slots__[:-1], columns, strict=True):
            setattr(self, name, column)
        self.by_country_price = _cells((self.country, self.bess_price_eur_per_kwh), self.lcou)

    def __len__(self) -> int:
        return len(self.country)

    @classmethod
    def from_results(cls, results: Sequence[ScenarioResult]) -> ResultsTable:
        """The table of run_sweep's (or any) results."""
        n = len(results)
        scenarios = list(map(attrgetter("scenario"), results))
        country, ptype, kwp, ratio, price = (
            list(map(attrgetter(name), scenarios)) for name in _AXIS_COLUMNS
        )
        return cls(
            country, ptype, np.fromiter(kwp, np.int64, n), ratio, price,
            *(np.fromiter(map(attrgetter(name), results), float, n) for name in _METRIC_COLUMNS),
            np.fromiter(map(attrgetter("grid_parity"), results), bool, n),
        )

    def rows(self) -> list[ScenarioResult]:
        """The results as ScenarioResults, in row order."""
        scenarios = map(Scenario, self.country, self.prosumer_type, self.pv_kwp.tolist(),
                        self.ratio_kwh_per_kwp, self.bess_price_eur_per_kwh)
        metrics = (getattr(self, name).tolist() for name in _METRIC_COLUMNS)
        return list(map(ScenarioResult, scenarios, *metrics, self.grid_parity.tolist()))


def _table(results: ResultsTable | Sequence[ScenarioResult]) -> ResultsTable:
    """The results as a table, built from ScenarioResults if need be."""
    return results if isinstance(results, ResultsTable) else ResultsTable.from_results(results)


def build_grid(
    countries: Iterable[str],
    prosumer_types: Iterable[str] = PROSUMER_TYPES,
    ratios: Iterable[float] = DEFAULT_RATIOS,
    bess_prices: Iterable[float] = DEFAULT_BESS_PRICES,
) -> list[Scenario]:
    """Cartesian product of the axes with per-type PV sizes, sorted.

    Duplicate axis entries are dropped, the first of equal values (0.0 and
    -0.0) kept. Each axis is sorted and the loops nest in key order, so the
    result is in lexicographic order of the scenario key.
    """
    axes = {
        "countries": sorted(dict.fromkeys(countries)),
        "prosumer_types": sorted(dict.fromkeys(prosumer_types)),
        "ratios": sorted(map(float, dict.fromkeys(ratios))),
        "bess_prices": sorted(map(float, dict.fromkeys(bess_prices))),
    }
    for name, values in axes.items():
        if not values:
            raise EmptyAxisError(f"axis {name} is empty")
    return [
        Scenario(country, ptype, kwp, ratio, price)
        for country in axes["countries"]
        for ptype in axes["prosumer_types"]
        for kwp in pv_sizes_for_type(ptype)
        for ratio in axes["ratios"]
        for price in axes["bess_prices"]
    ]


@dataclass(frozen=True, eq=False)
class ProfileSource:
    """Where each scenario's PV and load years come from, all at one step.

    A series without a measured template is synthesized from the shipped
    shapes. A template is rescaled to the scenario's annual energy (the
    type's consumption, or kWp times the country yield) when ``rescale`` is
    set, and used as-is otherwise. ``step_hours`` is the finer of the load's
    step (its template's, else the shipped shape's) and the PV's (its
    template's, else the load's): see profiles.common_step.
    """

    load: TimeSeriesProfile | None = None
    pv: TimeSeriesProfile | None = None
    rescale: bool = True
    step_hours: float = field(init=False)

    def __post_init__(self) -> None:
        load_step = default_load_shape().step_hours if self.load is None else self.load.step_hours
        pv_step = load_step if self.pv is None else self.pv.step_hours
        object.__setattr__(self, "step_hours", common_step(load_step, pv_step))

    def load_profile(self, scenario: Scenario) -> TimeSeriesProfile:
        """The scenario's load year."""
        annual = scenario.annual_load_kwh
        if self.load is None:
            load = synthesize_load_profile(annual)
        else:
            load = scale_to_annual(self.load, annual) if self.rescale else self.load
        return refine(load, self.step_hours)

    def pv_profile(self, scenario: Scenario, data: CountryData) -> TimeSeriesProfile:
        """The scenario's PV year."""
        kwp, annual_yield = scenario.pv_kwp, data.annual_yield_kwh_per_kwp
        if self.pv is None:
            return synthesize_pv_profile(kwp, annual_yield, step_hours=self.step_hours)
        pv = scale_to_annual(self.pv, kwp * annual_yield) if self.rescale else self.pv
        return refine(pv, self.step_hours)


def simulate_scenario(
    scenario: Scenario,
    data: CountryData,
    econ: EconomicParams,
    source: ProfileSource | None = None,
    battery_kwargs: Mapping | None = None,
) -> tuple[DispatchTrace, ScenarioResult]:
    """Full pipeline for one scenario: its trace, and its result priced as a batch of one."""
    source = source if source is not None else ProfileSource()
    load = source.load_profile(scenario)
    pv = source.pv_profile(scenario, data)
    battery = BatterySpec(capacity_kwh=scenario.bess_kwh, **(battery_kwargs or {}))
    trace = simulate(pv, load, battery)
    balance = annual_balance(trace, source.step_hours)
    (outcome,) = _price_results([(scenario, data, balance)], econ)
    if isinstance(outcome, Exception):
        raise outcome
    return trace, outcome


def run_scenario(
    scenario: Scenario,
    data: CountryData,
    econ: EconomicParams,
    source: ProfileSource | None = None,
    *,
    battery_kwargs: Mapping | None = None,
) -> ScenarioResult:
    """simulate_scenario's result alone."""
    return simulate_scenario(scenario, data, econ, source, battery_kwargs)[1]


def _dispatch_key(scenario: Scenario, data: CountryData) -> tuple:
    # The BESS price only enters the finance; battery settings are per call.
    return (
        data.annual_yield_kwh_per_kwp, scenario.prosumer_type, scenario.pv_kwp, scenario.bess_kwh
    )


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _dispatch_keys(
    source: ProfileSource,
    battery_kwargs: Mapping,
    data: Mapping[str, CountryData],
    scenarios: Sequence[Scenario],
) -> list[EnergyBalance | str]:
    """Dispatch each scenario's key in one batch: its balance, or why it failed.

    Each PV series (country yield and kWp) and each load (prosumer type) is
    built once, at the source's step. A ValueError while building a key's
    profiles or battery fails that key alone; other exceptions propagate.
    """
    index: dict = {}  # prosumer type -> its load's row, (yield, kWp) -> its PV's row
    pv_rows: list[np.ndarray] = []
    load_rows: list[np.ndarray] = []
    configs: list[tuple[int, int, BatterySpec]] = []
    outcomes: list[int | str] = []  # position in configs, or the failure
    for scenario in scenarios:
        country = data[scenario.country]
        load_key = scenario.prosumer_type
        pv_key = (country.annual_yield_kwh_per_kwp, scenario.pv_kwp)
        try:
            if load_key not in index:
                load_rows.append(source.load_profile(scenario).values)
                index[load_key] = len(load_rows) - 1
            if pv_key not in index:
                pv_rows.append(source.pv_profile(scenario, country).values)
                index[pv_key] = len(pv_rows) - 1
            battery = BatterySpec(capacity_kwh=scenario.bess_kwh, **battery_kwargs)
        except ValueError as exc:  # StorParityError and kin; bugs propagate
            outcomes.append(_failure(exc))
            continue
        outcomes.append(len(configs))
        configs.append((index[pv_key], index[load_key], battery))
    balances = simulate_balances(pv_rows, load_rows, configs, source.step_hours) if configs else []
    return [o if isinstance(o, str) else balances[o] for o in outcomes]


def run_sweep(
    grid: Sequence[Scenario],
    data: Mapping[str, CountryData],
    econ: EconomicParams,
    source: ProfileSource | None = None,
    *,
    battery_kwargs: Mapping | None = None,
    parallel: int | None = None,
    failures: list | None = None,
) -> list[ScenarioResult]:
    """Evaluate every scenario of the grid, in grid order.

    Scenarios sharing a dispatch key (country yield, prosumer type, PV size,
    BESS capacity) are dispatched once, all keys in one batched kernel call,
    or one contiguous slice of keys per worker of a process pool of
    ``parallel`` workers, at most one per usable CPU and per key, with identical
    output. Every dispatched scenario is then priced in one financial_results
    call. A scenario's ValueError (StorParityError included) leaves it out of
    the results: the failure is appended to ``failures`` as a (scenario,
    message) pair when that list is given, and logged otherwise. Other
    exceptions propagate.
    """
    index: dict[tuple, int] = {}  # dispatch key -> its position in keys
    keys: list[Scenario] = []  # the first scenario of each key
    slots: list[int | str] = []  # per scenario: its key's position, or why it failed
    for scenario in grid:
        if scenario.country not in data:
            slots.append(f"KeyError: country {scenario.country!r} not in data")
            continue
        slots.append(index.setdefault(_dispatch_key(scenario, data[scenario.country]), len(keys)))
        if slots[-1] == len(keys):
            keys.append(scenario)
    source = source if source is not None else ProfileSource()
    work = partial(_dispatch_keys, source, dict(battery_kwargs or {}), data)
    # the CPUs this process may run on, where the platform tells; else all of them
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(parallel or 1, len(keys), cpus or 1)
    if workers > 1:
        # imported here: a serial sweep, simulate and report never load the pool
        from concurrent.futures import ProcessPoolExecutor

        bounds = [len(keys) * i // workers for i in range(workers + 1)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            slices = pool.map(work, [keys[lo:hi] for lo, hi in zip(bounds, bounds[1:])])
            outcomes = [outcome for part in slices for outcome in part]
    else:
        outcomes = work(keys)

    dispatched = [outcomes[slot] if isinstance(slot, int) else slot for slot in slots]
    priced = iter(_price_results(
        [(s, data[s.country], b) for s, b in zip(grid, dispatched) if not isinstance(b, str)],
        econ,
    ))

    results: list[ScenarioResult] = []
    for scenario, outcome in zip(grid, dispatched):
        outcome = outcome if isinstance(outcome, str) else next(priced)
        if isinstance(outcome, ScenarioResult):
            results.append(outcome)
            continue
        message = outcome if isinstance(outcome, str) else _failure(outcome)
        if failures is None:
            log.warning("scenario %s failed: %s", scenario.key, message)
        else:
            failures.append((scenario, message))
    return results


def _price_results(
    rows: Sequence[tuple[Scenario, CountryData, EnergyBalance]], econ: EconomicParams
) -> list[ScenarioResult | ValueError]:
    """Price every (scenario, country, balance) row in one batch: its result, or its error.

    The scenario's BESS price always overrides econ's; the country VAT is
    used unless econ carries an explicit override. A row with a NaN or
    infinite metric is an error, as parse_results_csv would reject it. A
    row's result or error does not depend on the other rows.
    """
    if not rows:
        return []
    scenarios, countries, balances = zip(*rows)
    scr = [b.scr for b in balances]
    fin = financial_results(
        [s.pv_kwp for s in scenarios],
        [s.bess_kwh for s in scenarios],
        [s.bess_price_eur_per_kwh for s in scenarios],
        [c.vat_rate if econ.vat_rate is None else econ.vat_rate for c in countries],
        [b.e_produced for b in balances],
        scr,
        [c.retail_price_eur_per_kwh for c in countries],
        econ,
    )
    metrics = np.stack([scr, [b.ssr for b in balances], fin.lcoe_eur_per_kwh,
                        fin.lcou_eur_per_kwh, fin.npv_eur], axis=1)
    finite = np.isfinite(metrics).all(axis=1).tolist()
    priced = zip(scenarios, metrics.tolist(), fin.grid_parity.tolist(), finite)
    return [
        fin.errors.get(i) or (ScenarioResult(s, *values, parity) if ok else _non_finite(values))
        for i, (s, values, parity, ok) in enumerate(priced)
    ]


def _non_finite(metrics: Sequence[float]) -> ValueError | None:
    """The error naming the first results metric (scr .. npv) that is NaN or inf, if any."""
    for name, value in zip(_METRIC_COLUMNS, metrics):
        if not math.isfinite(value):
            return ValueError(f"{name} must be finite, got {value}")
    return None


def parity_share(
    results: Sequence[ScenarioResult],
    country: str | None = None,
    bess_price: float | None = None,
) -> float:
    """Percentage of the filtered results that reach grid parity."""
    selected = [
        r
        for r in results
        if (country is None or r.scenario.country == country)
        and (bess_price is None or r.scenario.bess_price_eur_per_kwh == bess_price)
    ]
    if not selected:
        raise EmptySelectionError(
            f"no results for country={country!r}, bess_price={bess_price!r}"
        )
    return 100.0 * sum(1 for r in selected if r.grid_parity) / len(selected)


def box_stats(values: Sequence[float]) -> BoxStats:
    """Five-number summary of the values (inclusive quartile method)."""
    arr = np.sort(np.asarray(list(values), dtype=float))
    if arr.size == 0:
        raise EmptySelectionError("box_stats needs at least one value")
    (row,) = _five_numbers(arr, np.array([0]), np.array([arr.size])).tolist()
    return BoxStats(*row)


_QUARTILES = np.array([0.0, 0.25, 0.5, 0.75, 1.0])


def _five_numbers(ordered: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Min, q1, median, q3 and max of each sorted run ordered[start:start + count].

    Quartiles interpolate between order statistics at (count - 1) * q, the
    type-7 rule of Hyndman and Fan, in the arithmetic of numpy's percentile
    with its default 'linear' method, so each value equals numpy's bit for
    bit. A run that holds a NaN reads NaN throughout, as there.
    """
    last = (counts - 1)[:, None]
    virtual = last * _QUARTILES
    top = virtual >= last  # numpy takes the last value there, by its index -1
    below = np.where(top, -1.0, np.floor(virtual))
    gamma = virtual - below
    lo = starts[:, None] + np.where(top, last, below).astype(np.intp)
    a, b = ordered[lo], ordered[np.where(top, lo, lo + 1)]
    diff = b - a
    stats = np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)
    stats[np.isnan(ordered[starts + counts - 1])] = np.nan
    return stats


def best_pv_size(
    results: Sequence[ScenarioResult],
    country: str,
    prosumer_type: str,
    ratio: float,
    bess_price: float,
) -> int:
    """PV size with the lowest LCOU; ties break toward the smaller size."""
    selected = [
        r
        for r in results
        if r.scenario.country == country
        and r.scenario.prosumer_type == prosumer_type
        and r.scenario.ratio_kwh_per_kwp == ratio
        and r.scenario.bess_price_eur_per_kwh == bess_price
    ]
    if not selected:
        raise EmptySelectionError(
            f"no results for {country}/{prosumer_type}/ratio {ratio}/price {bess_price}"
        )
    return min((r.lcou, r.scenario.pv_kwp) for r in selected)[1]


def best_pv_sizes(
    results: ResultsTable | Sequence[ScenarioResult],
) -> list[tuple[str, str, float, float, int]]:
    """best_pv_size of each (country, type, ratio, BESS price) in the results, sorted.

    One sort orders every result by cell, then by LCOU, then by size; each
    cell's first result is its best.
    """
    table = _table(results)
    axes = (table.country, table.prosumer_type, table.ratio_kwh_per_kwp,
            table.bess_price_eur_per_kwh)
    cells, order, starts, _ = _cells(axes, table.lcou, table.pv_kwp)
    return [(*key, size) for key, size in zip(cells, table.pv_kwp[order[starts]].tolist())]


def _fmt_axis(x: float) -> str:
    """``{:g}`` where it reads back as x, else the shortest form that does."""
    short = f"{x:g}"
    return short if float(short) == x else repr(x)


def results_to_csv(results: Sequence[ScenarioResult]) -> str:
    return write_rows(RESULTS_CSV_HEADER, (
        f"{s.country},{s.prosumer_type},{s.pv_kwp},"
        f"{_fmt_axis(s.ratio_kwh_per_kwp)},{_fmt_axis(s.bess_price_eur_per_kwh)},"
        f"{r.scr:.6f},{r.ssr:.6f},{r.lcoe:.6f},{r.lcou:.6f},{r.npv:.6f},"
        f"{'true' if r.grid_parity else 'false'}"
        for r in results for s in [r.scenario]
    ))


def parse_results_csv(text: str) -> ResultsTable:
    """Read back a results CSV as a table; raises ValueError on schema violations.

    A scenario (country, type, kWp, ratio, BESS price) may appear only once,
    and its kWp must fit the table's int64 column.
    """
    try:
        results = _results_columns(text)
    except ValueError:  # a bad number
        results = None
    if results is None:
        reject(_results_rows, text)
    return results


def _results_columns(text: str) -> ResultsTable | None:
    """The results, checked column by column; None if a check fails."""
    countries, types, kwps, ratios, prices, *metrics, parity = read_columns(
        text, RESULTS_CSV_HEADER, "results CSV"
    )
    axes = (countries, types, list(map(int, kwps)), list(map(float, ratios)),
            list(map(float, prices)))
    metrics = np.array([list(map(float, column)) for column in metrics])
    if (not countries or not -2**63 <= min(axes[2]) <= max(axes[2]) < 2**63
            or not _scenarios_accept(axes) or len(set(zip(*axes))) < len(countries)
            or not np.isfinite(metrics).all() or set(parity) - {"true", "false"}):
        return None
    return ResultsTable(*axes[:2], np.array(axes[2], np.int64), *axes[3:], *metrics,
                        np.array(parity) == "true")


def _scenarios_accept(axes: Sequence[list]) -> bool:
    """Whether Scenario accepts every row of the axis columns, each distinct value checked once.

    Each of Scenario's rules reads one field, so every row passes exactly
    when a few Scenarios that between them hold each distinct value of each
    axis (the first value filling in) pass.
    """
    distinct = [list(dict.fromkeys(column)) for column in axes]
    width = max(map(len, distinct))
    try:
        for row in zip(*(values + values[:1] * (width - len(values)) for values in distinct)):
            Scenario(*row)
    except ValueError:
        return False
    return True


def _results_rows(text: str) -> list[ScenarioResult]:
    """The results, checked row by row: raises naming the first bad line."""
    results = []
    seen = set()
    rows = read_rows(text, RESULTS_CSV_HEADER, "results CSV")
    for lineno, (country, ptype, kwp, ratio, price, *metrics, parity) in rows:
        try:
            axes = (country, ptype, int(kwp), float(ratio), float(price))
            if not -2**63 <= axes[2] < 2**63:  # first: Scenario cannot tell if 10**400 is finite
                raise ValueError(f"pv_kwp must fit in 64 bits, got {axes[2]}")
            scenario = Scenario(*axes)
            metrics = [float(m) for m in metrics]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        error = _non_finite(metrics)
        if error is not None:
            raise ValueError(f"line {lineno}: {error}")
        if parity not in ("true", "false"):
            raise ValueError(f"line {lineno}: grid_parity must be true/false, got {parity!r}")
        if scenario.key in seen:
            raise ValueError(f"line {lineno}: duplicate scenario {scenario.key}")
        seen.add(scenario.key)
        results.append(ScenarioResult(scenario, *metrics, parity == "true"))
    if not results:
        raise ValueError("results CSV has no data rows")
    return results


def _cells(columns: Sequence[Sequence], *within: np.ndarray) -> tuple:
    """Sort the rows by cell, then by the within columns, the first column first.

    The cells are the distinct key tuples of the columns, sorted; keys that
    compare equal (0.0 and -0.0) are one cell, under the one seen first.
    Returns the cells, the order that sorts the rows, and where each cell's
    run starts in that order and how long it is.
    """
    keys = list(zip(*columns))
    cells = sorted(dict.fromkeys(keys))
    rank = dict(zip(cells, range(len(cells))))
    cell = np.fromiter(map(rank.__getitem__, keys), np.intp, len(keys))
    counts = np.bincount(cell, minlength=len(cells))
    return cells, np.lexsort((*within[::-1], cell)), np.cumsum(counts) - counts, counts


def box_stats_by_country_price(
    results: ResultsTable | Sequence[ScenarioResult],
) -> list[tuple[str, float, BoxStats]]:
    """LCOU five-number summary per (country, BESS price), sorted.

    The table's one sort orders every result by cell, then by LCOU.
    """
    table = _table(results)
    cells, order, starts, counts = table.by_country_price
    stats = _five_numbers(table.lcou[order], starts, counts)
    return [(*key, BoxStats(*row)) for key, row in zip(cells, stats.tolist())]


def box_stats_to_csv(results: ResultsTable | Sequence[ScenarioResult]) -> str:
    return write_rows(BOX_CSV_HEADER, (
        f"{country},{_fmt_axis(price)},{stats.minimum:.6f},{stats.q1:.6f},"
        f"{stats.median:.6f},{stats.q3:.6f},{stats.maximum:.6f}"
        for country, price, stats in box_stats_by_country_price(results)
    ))


def _parity_counts(table: ResultsTable) -> list[tuple[str, str, int, int]]:
    """(country, price label, parity count, scenario count) per country and BESS price.

    Each country's rows come in price order, then its pooled row, labelled
    'pooled', which counts all its results.
    """
    cells, order, starts, counts = table.by_country_price
    # reduceat rejects an empty index array
    parity = table.grid_parity[order]
    hits = np.add.reduceat(parity, starts, dtype=np.intp).tolist() if cells else []
    counted = []
    for country, run in groupby(zip(cells, hits, counts.tolist()), key=lambda row: row[0][0]):
        rows = [(country, _fmt_axis(price), h, n) for (_, price), h, n in run]
        counted += [*rows, (country, "pooled", sum(r[2] for r in rows), sum(r[3] for r in rows))]
    return counted


def parity_share_table(
    results: ResultsTable | Sequence[ScenarioResult],
) -> list[tuple[str, str, float]]:
    """Parity share per country at each BESS price plus a pooled row.

    Price labels are the numeric price or 'pooled' for the all-prices row.
    The share is parity_share's, bit for bit.
    """
    return [(country, label, 100.0 * hits / n)
            for country, label, hits, n in _parity_counts(_table(results))]


def parity_shares_to_csv(results: ResultsTable | Sequence[ScenarioResult]) -> str:
    return write_rows(PARITY_CSV_HEADER, (
        f"{country},{label},{100.0 * hits / n:.6f},{hits},{n}"
        for country, label, hits, n in _parity_counts(_table(results))
    ))
