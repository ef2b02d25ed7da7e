"""Scenario grid enumeration, batch evaluation and summary statistics."""

from __future__ import annotations

import logging
import math
import os
import pickle
from dataclasses import dataclass, field
from functools import partial
from itertools import groupby
from typing import BinaryIO, Callable, Iterable, Mapping, NoReturn, Sequence

import numpy as np

from .dispatch import (
    BatterySpec,
    DispatchTrace,
    EnergyBalance,
    _check_balance,
    _distinct,
    annual_balance,
    simulate,
    simulate_balances,
)
from .errors import (
    EmptyAxisError,
    EmptySelectionError,
    EnergyBooksError,
    WorkerError,
    check_finite,
)
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
    __post_init__ reads one field: _check_axes relies on that.
    """

    country: str
    prosumer_type: str
    pv_kwp: int
    ratio_kwh_per_kwp: float
    bess_price_eur_per_kwh: float

    def __post_init__(self) -> None:
        # no results table holds it; first, as check_finite cannot tell if 10**400 is finite
        if isinstance(self.pv_kwp, int) and not -2**63 <= self.pv_kwp < 2**63:
            raise ValueError(f"pv_kwp must fit in 64 bits, got {self.pv_kwp}")
        check_finite(self)
        if self.prosumer_type not in PROSUMER_TYPES:
            raise ValueError(f"unknown prosumer type {self.prosumer_type!r}")
        if int(self.pv_kwp) != self.pv_kwp or self.pv_kwp < 1:
            raise ValueError(f"pv_kwp must be an integer >= 1, got {self.pv_kwp}")
        if self.pv_kwp >= 2**63:  # a float, such as 1e19
            raise ValueError(f"pv_kwp must fit in 64 bits, got {self.pv_kwp}")
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

    The package's one results type: run_sweep, simulate_scenario and
    parse_results_csv return it, and every summary and writer reads it.

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

    def where(self, **columns) -> np.ndarray:
        """The mask of the rows whose named columns equal the given values, as == tells."""
        mask = np.ones(len(self), bool)
        for name, value in columns.items():
            mask &= np.array(getattr(self, name), dtype=object) == value
        return mask


class ScenarioGrid:
    """The Cartesian product of the axes with per-type PV sizes, as axes.

    Duplicate axis entries are dropped, the first of equal values (0.0 and
    -0.0) kept, and each axis is sorted. systems are the (prosumer type, PV
    size) pairs of the types' ranges. The rows nest country, system, ratio
    and BESS price, outermost first, so they are in lexicographic order of
    the scenario key. Each axis value is checked once: see _check_axes.
    """

    __slots__ = ("countries", "prosumer_types", "ratios", "bess_prices", "systems", "shape")

    def __init__(self, countries, prosumer_types, ratios, bess_prices) -> None:
        axes = {
            "countries": sorted(dict.fromkeys(countries)),
            "prosumer_types": sorted(dict.fromkeys(prosumer_types)),
            "ratios": sorted(map(float, dict.fromkeys(ratios))),
            "bess_prices": sorted(map(float, dict.fromkeys(bess_prices))),
        }
        for name, values in axes.items():
            if not values:
                raise EmptyAxisError(f"axis {name} is empty")
            setattr(self, name, values)
        # every PV size passes, as 1 does
        _check_axes([self.countries, self.prosumer_types, [1], self.ratios, self.bess_prices])
        self.systems = [(t, kwp) for t in self.prosumer_types for kwp in pv_sizes_for_type(t)]
        self.shape = (len(self.countries), len(self.systems), len(self.ratios),
                      len(self.bess_prices))

    def __len__(self) -> int:
        return math.prod(self.shape)

    def row(self, i: int) -> Scenario:
        """The grid's i-th scenario."""
        country, system, ratio, price = map(int, np.unravel_index(i, self.shape))
        return Scenario(self.countries[country], *self.systems[system], self.ratios[ratio],
                        self.bess_prices[price])

    def rows(self) -> list[Scenario]:
        """The grid's scenarios, in row order."""
        return list(map(self.row, range(len(self))))


def build_grid(
    countries: Iterable[str],
    prosumer_types: Iterable[str] = PROSUMER_TYPES,
    ratios: Iterable[float] = DEFAULT_RATIOS,
    bess_prices: Iterable[float] = DEFAULT_BESS_PRICES,
) -> ScenarioGrid:
    """Cartesian product of the axes with per-type PV sizes, sorted: see ScenarioGrid."""
    return ScenarioGrid(countries, prosumer_types, ratios, bess_prices)


def _check_axes(axes: Sequence[list]) -> None:
    """Raise the error of the first scenario of the axes' product that Scenario rejects.

    Each rule of Scenario reads one field, so that is the first scenario, else
    the innermost axis's first bad value with the others at their first.
    """
    first = [values[0] for values in axes]
    for i in reversed(range(len(axes))):
        for value in axes[i]:
            Scenario(*first[:i], value, *first[i + 1:])


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
) -> tuple[DispatchTrace, ResultsTable]:
    """Full pipeline for one scenario: its trace, and its one-row results table.

    The row is priced as a batch of one, and the dispatch's energy books
    are checked as a sweep's are: an EnergyBooksError names the scenario.
    """
    source = source if source is not None else ProfileSource()
    load = source.load_profile(scenario)
    pv = source.pv_profile(scenario, data)
    battery = BatterySpec(capacity_kwh=scenario.bess_kwh, **(battery_kwargs or {}))
    trace = simulate(pv, load, battery)
    balance = annual_balance(trace, source.step_hours)
    try:
        _check_balance(balance, battery)
    except EnergyBooksError as exc:
        raise _books_error(scenario, exc) from None
    cell = (scenario.pv_kwp, scenario.bess_kwh, data, balance)
    metrics, parity, errors = _price([cell], [scenario.bess_price_eur_per_kwh], econ)
    if errors:
        raise errors[0]
    axes = [[value] for value in scenario.key]
    return trace, ResultsTable(*axes[:2], np.array(axes[2], np.int64), *axes[3:], *metrics, parity)


def _books_error(s: Scenario, exc: EnergyBooksError) -> EnergyBooksError:
    """exc, naming the dispatch key of scenario s instead of its position in a batch."""
    return EnergyBooksError(f"{s.country} type {s.prosumer_type}, {s.pv_kwp} kWp, "
                            f"{_fmt_axis(s.bess_kwh)} kWh: {exc}", exc.config)


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
    profiles or battery fails that key alone; other exceptions propagate,
    an EnergyBooksError named by the key's scenario.
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
    try:
        balances = simulate_balances(pv_rows, load_rows, configs, source.step_hours)
    except EnergyBooksError as exc:
        raise _books_error(scenarios[outcomes.index(exc.config)], exc) from None
    return [o if isinstance(o, str) else balances[o] for o in outcomes]


def _dispatch_slices(work: Callable[[list], list], slices: list[list]) -> list:
    """work(part) of every part, joined in order: the first part in this process, each
    other in a child forked for it, which sends back its list, or what it raised, pickled.

    A child's exception is raised here as work raised it; a child that exits without
    sending raises WorkerError. Whether this returns or raises, every child has exited
    and been reaped.
    """
    import signal  # imported here: its 0.6 ms is for a parallel sweep alone to pay

    children: list[tuple[int, BinaryIO]] = []  # (pid, read end) of each child not yet reaped
    try:
        for part in slices[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _send(work, part, write, [pipe.fileno() for _, pipe in children] + [read])
            children.append((pid, open(read, "rb")))
            os.close(write)
        outcomes = work(slices[0])
        while children:
            pid, pipe = children[0]
            payload = pipe.read()  # to EOF: the child holds the only write end
            status = os.waitpid(pid, 0)[1]
            del children[0]
            pipe.close()
            if not payload:
                code = os.waitstatus_to_exitcode(status)
                raise WorkerError(f"sweep worker {pid} " + (
                    f"was killed by signal {-code} ({signal.strsignal(-code)})" if code < 0
                    else f"exited with status {code}") + " before sending its dispatches")
            sent, value = pickle.loads(payload)
            if not sent:
                raise value
            outcomes += value
        return outcomes
    finally:
        for pid, pipe in children:  # left only when this process raises
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()


def _send(work: Callable[[list], list], part: list, write: int, reads: list[int]) -> NoReturn:
    """In a forked child: write (True, work(part)), or (False, what it raised), pickled, to
    the write end, and leave without flushing the parent's stdio or running its exit hooks."""
    code = 1
    try:
        for fd in reads:  # so every read end sees EOF once its own child has exited
            os.close(fd)
        try:
            payload = pickle.dumps((True, work(part)), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:
            payload = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
        with open(write, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)


def run_sweep(
    grid: ScenarioGrid,
    data: Mapping[str, CountryData],
    econ: EconomicParams,
    source: ProfileSource | None = None,
    *,
    battery_kwargs: Mapping | None = None,
    parallel: int | None = None,
    failures: list | None = None,
) -> ResultsTable:
    """Evaluate every scenario of the grid: the results table, in grid order.

    The BESS price only enters the finance, so each cell of the other axes
    has one dispatch key (country yield, prosumer type, PV size, BESS
    capacity). Each key is dispatched once, all in one batched kernel call,
    or a contiguous slice of keys per worker of ``parallel`` workers, at
    most one per usable CPU and per key, with identical output (see
    _dispatch_slices); then every scenario is priced at once (see _price).
    A scenario's ValueError (StorParityError included) leaves it out of the
    results: the failure goes to ``failures`` as a (scenario, message) pair,
    in grid order, when that list is given, and to the log otherwise. Other
    exceptions propagate.
    """
    index: dict[tuple, int] = {}  # dispatch key -> its position in keys
    keys: list[Scenario] = []  # the first scenario of each key
    cells: list[tuple | str] = []  # per cell: (key position, kWp, BESS kWh, country), or why not
    for country in grid.countries:
        c = data.get(country)
        for ptype, kwp in grid.systems:
            for ratio in grid.ratios:
                if c is None:
                    cells.append(f"KeyError: country {country!r} not in data")
                    continue
                key = (c.annual_yield_kwh_per_kwp, ptype, kwp, kwp * ratio)
                if index.setdefault(key, len(keys)) == len(keys):
                    keys.append(Scenario(country, ptype, kwp, ratio, grid.bess_prices[0]))
                cells.append((index[key], kwp, kwp * ratio, c))
    source = source if source is not None else ProfileSource()
    work = partial(_dispatch_keys, source, dict(battery_kwargs or {}), data)
    # workers fork, at most one per CPU this process may run on; where the
    # platform cannot fork or tell those CPUs, the sweep is serial
    workers = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        workers = min(parallel or 1, len(keys), len(os.sched_getaffinity(0)))
    if workers > 1:
        bounds = [len(keys) * i // workers for i in range(workers + 1)]
        outcomes = _dispatch_slices(work, [keys[lo:hi] for lo, hi in zip(bounds, bounds[1:])])
    else:
        outcomes = work(keys)

    prices = grid.shape[3]
    failed: list[tuple[int, str]] = []  # (grid row, message) of each failed scenario
    starts, priced = [], []  # the first grid row of each dispatched cell, and its _price cell
    for i, cell in enumerate(cells):
        outcome = cell if isinstance(cell, str) else outcomes[cell[0]]
        if isinstance(outcome, str):
            failed += [(i * prices + p, outcome) for p in range(prices)]
        else:
            starts.append(i * prices)
            priced.append((*cell[1:], outcome))
    metrics, parity, errors = _price(priced, grid.bess_prices, econ)
    rows = np.add.outer(np.array(starts, np.intp), np.arange(prices)).ravel()
    failed += [(int(rows[i]), _failure(exc)) for i, exc in errors.items()]
    for row, message in sorted(failed):
        scenario = grid.row(row)
        if failures is None:
            log.warning("scenario %s failed: %s", scenario.key, message)
        else:
            failures.append((scenario, message))

    kept = np.ones(len(rows), bool)
    kept[list(errors)] = False
    country, system, ratio, price = np.unravel_index(rows[kept], grid.shape)
    return ResultsTable(
        _take(grid.countries, country), _take([t for t, _ in grid.systems], system),
        np.array([k for _, k in grid.systems], np.int64)[system],
        _take(grid.ratios, ratio), _take(grid.bess_prices, price),
        *metrics[:, kept], parity[kept],
    )


def _take(values: Sequence, at: np.ndarray) -> list:
    """[values[i] for i in at]."""
    return np.array(values, dtype=object)[at].tolist()


def _price(cells: Sequence[tuple], prices: Sequence[float], econ: EconomicParams) -> tuple:
    """Price each (PV kWp, BESS kWh, CountryData, EnergyBalance) cell at every BESS price.

    Rows run cell by cell, prices within, all in one financial_results call,
    at the country's VAT unless econ overrides it. Returns the metrics (a
    row each of scr, ssr, lcoe, lcou, npv), the grid parity and each failed
    row's error: financial_results', else one naming the row's first NaN or
    infinite metric, as parse_results_csv would. Rows do not interact.
    """
    columns = [(kwp, kwh, c.vat_rate if econ.vat_rate is None else econ.vat_rate,
                c.retail_price_eur_per_kwh, b.e_produced, b.scr, b.ssr) for kwp, kwh, c, b in cells]
    kwp, bess, vat, retail, produced, scr, ssr = np.repeat(
        np.array(columns, float).reshape(-1, 7), len(prices), axis=0).T
    fin = financial_results(kwp, bess, np.tile(prices, len(cells)), vat, produced, scr, retail,
                            econ)
    metrics = np.array([scr, ssr, fin.lcoe_eur_per_kwh, fin.lcou_eur_per_kwh, fin.npv_eur])
    finite = np.isfinite(metrics)
    for i in np.flatnonzero(~finite.all(axis=0)).tolist():
        name = int(finite[:, i].argmin())
        fin.errors.setdefault(i, ValueError(
            f"{_METRIC_COLUMNS[name]} must be finite, got {float(metrics[name, i])}"))
    return metrics, fin.grid_parity, fin.errors


def parity_share(table: ResultsTable, country: str | None = None,
                 bess_price: float | None = None) -> float:
    """Percentage of the filtered results that reach grid parity."""
    wanted = {"country": country, "bess_price_eur_per_kwh": bess_price}
    selected = table.where(**{name: value for name, value in wanted.items() if value is not None})
    if not selected.any():
        raise EmptySelectionError(f"no results for country={country!r}, bess_price={bess_price!r}")
    return 100.0 * int(table.grid_parity[selected].sum()) / int(selected.sum())


def box_stats(values: Sequence[float]) -> BoxStats:
    """Five-number summary of the values (inclusive quartile method); see _box_rows."""
    arr = np.sort(np.asarray(list(values), dtype=float))
    if arr.size == 0:
        raise EmptySelectionError("box_stats needs at least one value")
    (row,) = _box_rows(arr, np.array([0]), np.array([arr.size]), lambda i: "values")
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


def best_pv_size(table: ResultsTable, country: str, prosumer_type: str, ratio: float,
                 bess_price: float) -> int:
    """PV size with the lowest LCOU; ties break toward the smaller size."""
    selected = table.where(country=country, prosumer_type=prosumer_type,
                           ratio_kwh_per_kwp=ratio, bess_price_eur_per_kwh=bess_price)
    if not selected.any():
        raise EmptySelectionError(
            f"no results for {country}/{prosumer_type}/ratio {ratio}/price {bess_price}"
        )
    return min(zip(table.lcou[selected].tolist(), table.pv_kwp[selected].tolist()))[1]


def best_pv_sizes(table: ResultsTable) -> list[tuple[str, str, float, float, int]]:
    """best_pv_size of each (country, type, ratio, BESS price) in the results, sorted.

    One sort orders every result by cell, then by LCOU, then by size; each
    cell's first result is its best.
    """
    axes = (table.country, table.prosumer_type, table.ratio_kwh_per_kwp,
            table.bess_price_eur_per_kwh)
    cells, order, starts, _ = _cells(axes, table.lcou, table.pv_kwp)
    return [(*key, size) for key, size in zip(cells, table.pv_kwp[order[starts]].tolist())]


def _fmt_axis(x: float) -> str:
    """``{:g}`` where it reads back as x, else the shortest form that does."""
    short = f"{x:g}"
    return short if float(short) == x else repr(x)


#: One results CSV row, from the columns of results_to_csv.
_RESULTS_ROW = "%s,%s,%d,%s,%s,%.6f,%.6f,%.6f,%.6f,%.6f,%s"


def results_to_csv(table: ResultsTable) -> str:
    columns = (
        table.country, table.prosumer_type, table.pv_kwp.tolist(),
        _axis_labels(table.ratio_kwh_per_kwp), _axis_labels(table.bess_price_eur_per_kwh),
        *(getattr(table, name).tolist() for name in _METRIC_COLUMNS),
        np.where(table.grid_parity, "true", "false").tolist(),
    )
    return write_rows(RESULTS_CSV_HEADER, map(_RESULTS_ROW.__mod__, zip(*columns)))


def _axis_labels(values: Sequence[float]) -> list[str]:
    """_fmt_axis of each value, called once per distinct value (-0.0 apart from 0.0)."""
    bits, at = _distinct(np.array(values, dtype=float).view(np.int64))
    return _take([_fmt_axis(x) for x in bits.view(float).tolist()], at)


def parse_results_csv(text: str) -> ResultsTable:
    """Read back a results CSV as a table; raises ValueError on schema violations.

    A scenario (country, type, kWp, ratio, BESS price) may appear only once,
    and its kWp must fit the table's int64 column.
    """
    try:
        return _results_columns(text)
    except ValueError:  # a bad number or a failed check: the row reader names its line
        reject(_results_rows, text)


def _results_columns(text: str) -> ResultsTable:
    """The results, checked column by column; raises ValueError if a check fails."""
    countries, types, kwps, ratios, prices, *metrics, parity = read_columns(
        text, RESULTS_CSV_HEADER, "results CSV"
    )
    axes = (countries, types, list(map(int, kwps)), list(map(float, ratios)),
            list(map(float, prices)))
    metrics = np.array([list(map(float, column)) for column in metrics])
    if not countries:  # _check_axes reads a first row; Scenario keeps a kWp within int64
        raise ValueError("no rows")
    _check_axes([list(dict.fromkeys(column)) for column in axes])
    if (len(set(zip(*axes))) < len(countries) or not np.isfinite(metrics).all()
            or set(parity) - {"true", "false"}):
        raise ValueError("a repeated scenario, a metric not finite or a bad grid_parity")
    return ResultsTable(*axes[:2], np.array(axes[2], np.int64), *axes[3:], *metrics,
                        np.array(parity) == "true")


def _results_rows(text: str) -> None:
    """Check the results row by row: raises naming the first bad line."""
    seen = set()
    rows = read_rows(text, RESULTS_CSV_HEADER, "results CSV")
    for lineno, (country, ptype, kwp, ratio, price, *metrics, parity) in rows:
        try:
            scenario = Scenario(country, ptype, int(kwp), float(ratio), float(price))
            metrics = [float(m) for m in metrics]
            for name, value in zip(_METRIC_COLUMNS, metrics):
                if not math.isfinite(value):
                    raise ValueError(f"{name} must be finite, got {value}")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        if parity not in ("true", "false"):
            raise ValueError(f"line {lineno}: grid_parity must be true/false, got {parity!r}")
        if scenario.key in seen:
            raise ValueError(f"line {lineno}: duplicate scenario {scenario.key}")
        seen.add(scenario.key)
    if not seen:
        raise ValueError("results CSV has no data rows")


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


def box_stats_by_country_price(table: ResultsTable) -> list[tuple[str, float, BoxStats]]:
    """LCOU five-number summary per (country, BESS price), sorted; see _box_rows.

    The table's one sort orders every result by cell, then by LCOU.
    """
    cells, order, starts, counts = table.by_country_price
    rows = _box_rows(table.lcou[order], starts, counts, lambda i: f"LCOUs of {cells[i][0]} "
                     f"at BESS price {_fmt_axis(cells[i][1])}")
    return [(*key, BoxStats(*row)) for key, row in zip(cells, rows)]


def _box_rows(ordered: np.ndarray, starts: np.ndarray, counts: np.ndarray, name) -> list:
    """_five_numbers of the sorted runs, as lists; raises ValueError naming, by name(i), the
    first run i of finite values whose quartiles are not: two neighbours too far apart."""
    with np.errstate(over="ignore", invalid="ignore"):  # a gap past the float range
        stats = _five_numbers(ordered, starts, counts)
    lowest, highest = ordered[starts], ordered[starts + counts - 1]
    too_wide = ~np.isfinite(stats).all(axis=1) & np.isfinite(lowest) & np.isfinite(highest)
    if too_wide.any():
        i = int(too_wide.argmax())
        raise ValueError(f"{name(i)} span {float(lowest[i])!r} to {float(highest[i])!r}, "
                         "too wide for float quartiles")
    return stats.tolist()


def box_stats_to_csv(table: ResultsTable) -> str:
    return write_rows(BOX_CSV_HEADER, (
        f"{country},{_fmt_axis(price)},{stats.minimum:.6f},{stats.q1:.6f},"
        f"{stats.median:.6f},{stats.q3:.6f},{stats.maximum:.6f}"
        for country, price, stats in box_stats_by_country_price(table)
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


def parity_share_table(table: ResultsTable) -> list[tuple[str, str, float]]:
    """Parity share per country at each BESS price plus a pooled row.

    Price labels are the numeric price or 'pooled' for the all-prices row.
    The share is parity_share's, bit for bit.
    """
    return [(country, label, 100.0 * hits / n)
            for country, label, hits, n in _parity_counts(table)]


def parity_shares_to_csv(table: ResultsTable) -> str:
    return write_rows(PARITY_CSV_HEADER, (
        f"{country},{label},{100.0 * hits / n:.6f},{hits},{n}"
        for country, label, hits, n in _parity_counts(table)
    ))
