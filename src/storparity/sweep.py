"""Scenario grid enumeration, batch evaluation and summary statistics."""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Iterable, Mapping, Sequence

import numpy as np

from .dispatch import BatterySpec, DispatchTrace, EnergyBalance, annual_balance, simulate
from .errors import EmptyAxisError, EmptySelectionError, check_finite
from .finance import CountryData, EconomicParams, capex, degraded_energy, financial_result
from .profiles import (
    ProfileShapes,
    TimeSeriesProfile,
    align,
    default_shapes,
    scale_to_annual,
    synthesize_load_profile,
    synthesize_pv_profile,
)

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
    range do so explicitly, see in_standard_range).
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


def _dedupe(axis: Iterable) -> list:
    return list(dict.fromkeys(axis))


def build_grid(
    countries: Iterable[str],
    prosumer_types: Iterable[str] = PROSUMER_TYPES,
    ratios: Iterable[float] = DEFAULT_RATIOS,
    bess_prices: Iterable[float] = DEFAULT_BESS_PRICES,
) -> list[Scenario]:
    """Cartesian product of the axes with per-type PV sizes, sorted.

    Duplicate axis entries are dropped; the result is in deterministic
    lexicographic order of the scenario key.
    """
    axes = {
        "countries": _dedupe(countries),
        "prosumer_types": _dedupe(prosumer_types),
        "ratios": [float(r) for r in _dedupe(ratios)],
        "bess_prices": [float(p) for p in _dedupe(bess_prices)],
    }
    for name, values in axes.items():
        if not values:
            raise EmptyAxisError(f"axis {name} is empty")
    grid = [
        Scenario(country, ptype, kwp, ratio, price)
        for country in axes["countries"]
        for ptype in axes["prosumer_types"]
        for kwp in pv_sizes_for_type(ptype)
        for ratio in axes["ratios"]
        for price in axes["bess_prices"]
    ]
    return sorted(grid)


@dataclass(frozen=True, eq=False)
class ProfileSource:
    """Where each scenario's PV and load years come from.

    A series without a measured template is synthesized from the shapes. A
    template is rescaled to the scenario's annual energy (the type's
    consumption, or kWp times the country yield) when ``rescale`` is set,
    and used as-is otherwise.
    """

    shapes: ProfileShapes = field(default_factory=default_shapes)
    load: TimeSeriesProfile | None = None
    pv: TimeSeriesProfile | None = None
    rescale: bool = True

    def profiles(
        self, scenario: Scenario, data: CountryData
    ) -> tuple[TimeSeriesProfile, TimeSeriesProfile]:
        """The scenario's (pv, load) pair, aligned onto one step."""
        load, pv = self.load, self.pv
        if load is None:
            load = synthesize_load_profile(scenario.annual_load_kwh, self.shapes.load)
        elif self.rescale:
            load = scale_to_annual(load, scenario.annual_load_kwh)
        kwp, annual_yield = scenario.pv_kwp, data.annual_yield_kwh_per_kwp
        if pv is None:
            pv = synthesize_pv_profile(kwp, annual_yield, self.shapes.pv, load.step_hours)
        elif self.rescale:
            pv = scale_to_annual(pv, kwp * annual_yield)
        return align(pv, load)


def scenario_dispatch(
    scenario: Scenario,
    data: CountryData,
    source: ProfileSource | None = None,
    battery_kwargs: Mapping | None = None,
) -> tuple[DispatchTrace, EnergyBalance]:
    """Build and dispatch one scenario's profiles: the trace and its annual balance."""
    pv, load = (source if source is not None else ProfileSource()).profiles(scenario, data)
    battery = BatterySpec(capacity_kwh=scenario.bess_kwh, **(battery_kwargs or {}))
    trace = simulate(pv, load, battery)
    return trace, annual_balance(trace, load.step_hours)


def scenario_balance(
    scenario: Scenario,
    data: CountryData,
    source: ProfileSource | None = None,
    battery_kwargs: Mapping | None = None,
) -> EnergyBalance:
    """Synthesize or rescale, align and dispatch one scenario: its annual balance."""
    return scenario_dispatch(scenario, data, source, battery_kwargs)[1]


def result_from_balance(
    scenario: Scenario,
    data: CountryData,
    econ: EconomicParams,
    balance: EnergyBalance,
) -> ScenarioResult:
    """Attach the financial evaluation to an already-computed balance.

    The scenario's BESS price always overrides econ's; the country VAT is
    used unless econ carries an explicit override.
    """
    effective = replace(
        econ,
        bess_price_eur_per_kwh=scenario.bess_price_eur_per_kwh,
        vat_rate=data.vat_rate if econ.vat_rate is None else econ.vat_rate,
    )
    fin = financial_result(
        scenario.pv_kwp,
        scenario.bess_kwh,
        effective,
        balance.e_produced,
        balance.scr,
        data.retail_price_eur_per_kwh,
    )
    return ScenarioResult(
        scenario=scenario,
        scr=balance.scr,
        ssr=balance.ssr,
        lcoe=fin.lcoe_eur_per_kwh,
        lcou=fin.lcou_eur_per_kwh,
        npv=fin.npv_eur,
        grid_parity=fin.grid_parity,
    )


def run_scenario(
    scenario: Scenario,
    data: CountryData,
    econ: EconomicParams,
    source: ProfileSource | None = None,
    *,
    battery_kwargs: Mapping | None = None,
) -> ScenarioResult:
    """Full pipeline for one scenario: profiles, dispatch, finance."""
    balance = scenario_balance(scenario, data, source, battery_kwargs)
    return result_from_balance(scenario, data, econ, balance)


def _dispatch_key(scenario: Scenario, data: CountryData) -> tuple:
    # The BESS price only enters the finance; battery settings are per call.
    return (
        data.annual_yield_kwh_per_kwp, scenario.prosumer_type, scenario.pv_kwp, scenario.bess_kwh
    )


def _balance_or_failure(
    source: ProfileSource, battery_kwargs: dict, data: Mapping, scenario: Scenario
) -> EnergyBalance | str:
    try:
        return scenario_balance(scenario, data[scenario.country], source, battery_kwargs)
    except ValueError as exc:  # StorParityError and kin; bugs propagate
        return f"{type(exc).__name__}: {exc}"


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
    BESS capacity) are dispatched once, serially or on a process pool of
    ``parallel`` workers, with identical output. A scenario's ValueError
    (StorParityError included) is logged, appended to the optional
    ``failures`` list as a (scenario, message) pair, and the scenario is
    left out of the results; other exceptions propagate.
    """
    firsts: dict[tuple, Scenario] = {}
    for scenario in grid:
        if scenario.country in data:
            firsts.setdefault(_dispatch_key(scenario, data[scenario.country]), scenario)
    source = source if source is not None else ProfileSource()
    work = partial(_balance_or_failure, source, dict(battery_kwargs or {}), data)
    if parallel is not None and parallel > 1 and len(firsts) > 1:
        chunk = max(1, len(firsts) // (parallel * 4))
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            balances = dict(zip(firsts, pool.map(work, firsts.values(), chunksize=chunk)))
    else:
        balances = dict(zip(firsts, map(work, firsts.values())))

    results: list[ScenarioResult] = []
    for scenario in grid:
        country = data.get(scenario.country)
        if country is None:
            outcome = f"KeyError: country {scenario.country!r} not in data"
        else:
            outcome = balances[_dispatch_key(scenario, country)]
        if not isinstance(outcome, str):
            try:
                results.append(result_from_balance(scenario, country, econ, outcome))
                continue
            except ValueError as exc:
                outcome = f"{type(exc).__name__}: {exc}"
        log.warning("scenario %s failed: %s", scenario.key, outcome)
        if failures is not None:
            failures.append((scenario, outcome))
    return results


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
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise EmptySelectionError("box_stats needs at least one value")
    q = np.percentile(arr, [0.0, 25.0, 50.0, 75.0, 100.0])
    return BoxStats(minimum=q[0], q1=q[1], median=q[2], q3=q[3], maximum=q[4])


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
    best = min(selected, key=lambda r: (r.lcou, r.scenario.pv_kwp))
    return best.scenario.pv_kwp


def _fmt_axis(x: float) -> str:
    return f"{x:g}"


def results_to_csv(results: Sequence[ScenarioResult]) -> str:
    lines = [RESULTS_CSV_HEADER]
    for r in results:
        s = r.scenario
        lines.append(
            f"{s.country},{s.prosumer_type},{s.pv_kwp},"
            f"{_fmt_axis(s.ratio_kwh_per_kwp)},{_fmt_axis(s.bess_price_eur_per_kwh)},"
            f"{r.scr:.6f},{r.ssr:.6f},{r.lcoe:.6f},{r.lcou:.6f},{r.npv:.6f},"
            f"{'true' if r.grid_parity else 'false'}"
        )
    return "\n".join(lines) + "\n"


def parse_results_csv(text: str) -> list[ScenarioResult]:
    """Read back a results CSV; raises ValueError on schema violations."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0].strip() != RESULTS_CSV_HEADER:
        raise ValueError(f"results CSV must start with header '{RESULTS_CSV_HEADER}'")
    if len(lines) < 2:
        raise ValueError("results CSV has no data rows")
    results = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 11:
            raise ValueError(f"line {lineno}: expected 11 fields, got {len(parts)}")
        try:
            scenario = Scenario(
                country=parts[0],
                prosumer_type=parts[1],
                pv_kwp=int(parts[2]),
                ratio_kwh_per_kwp=float(parts[3]),
                bess_price_eur_per_kwh=float(parts[4]),
            )
            scr, ssr, lcoe_v, lcou_v, npv_v = (float(p) for p in parts[5:10])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        if parts[10] not in ("true", "false"):
            raise ValueError(f"line {lineno}: grid_parity must be true/false, got {parts[10]!r}")
        results.append(
            ScenarioResult(
                scenario=scenario,
                scr=scr,
                ssr=ssr,
                lcoe=lcoe_v,
                lcou=lcou_v,
                npv=npv_v,
                grid_parity=parts[10] == "true",
            )
        )
    return results


def _countries_in(results: Sequence[ScenarioResult]) -> list[str]:
    return _dedupe(sorted(r.scenario.country for r in results))


def _prices_in(results: Sequence[ScenarioResult]) -> list[float]:
    return _dedupe(sorted(r.scenario.bess_price_eur_per_kwh for r in results))


def box_stats_by_country_price(
    results: Sequence[ScenarioResult],
) -> list[tuple[str, float, BoxStats]]:
    """LCOU five-number summary per (country, BESS price), sorted."""
    rows = []
    for country in _countries_in(results):
        for price in _prices_in(results):
            values = [
                r.lcou
                for r in results
                if r.scenario.country == country
                and r.scenario.bess_price_eur_per_kwh == price
            ]
            if values:
                rows.append((country, price, box_stats(values)))
    return rows


def box_stats_to_csv(results: Sequence[ScenarioResult]) -> str:
    lines = [BOX_CSV_HEADER]
    for country, price, stats in box_stats_by_country_price(results):
        lines.append(
            f"{country},{_fmt_axis(price)},{stats.minimum:.6f},{stats.q1:.6f},"
            f"{stats.median:.6f},{stats.q3:.6f},{stats.maximum:.6f}"
        )
    return "\n".join(lines) + "\n"


def parity_share_table(
    results: Sequence[ScenarioResult],
) -> list[tuple[str, str, float]]:
    """Parity share per country at each BESS price plus a pooled row.

    Price labels are the numeric price or 'pooled' for the all-prices row.
    """
    rows = []
    for country in _countries_in(results):
        for price in _prices_in(results):
            try:
                share = parity_share(results, country=country, bess_price=price)
            except EmptySelectionError:
                continue
            rows.append((country, _fmt_axis(price), share))
        rows.append((country, "pooled", parity_share(results, country=country)))
    return rows


def parity_shares_to_csv(results: Sequence[ScenarioResult]) -> str:
    lines = [PARITY_CSV_HEADER]
    for country, price_label, share in parity_share_table(results):
        selected = [
            r
            for r in results
            if r.scenario.country == country
            and (price_label == "pooled" or _fmt_axis(r.scenario.bess_price_eur_per_kwh) == price_label)
        ]
        count = sum(1 for r in selected if r.grid_parity)
        lines.append(f"{country},{price_label},{share:.6f},{count},{len(selected)}")
    return "\n".join(lines) + "\n"
