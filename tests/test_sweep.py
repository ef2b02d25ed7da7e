import concurrent.futures
import itertools
import math
import os
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import storparity.sweep as sweep_module
from _reference import reference_lcou, reference_quartiles
from _tables import Row, columns, keys, rows, stack, table_of
from storparity import (
    PROSUMER_TYPES,
    BatterySpec,
    CountryData,
    EconomicParams,
    EmptyAxisError,
    EmptySelectionError,
    IncompatibleProfilesError,
    PV_RANGE_KWP,
    ProfileKind,
    Scenario,
    ScenarioGrid,
    TimeSeriesProfile,
    ZeroEnergyError,
    annual_balance,
    best_pv_size,
    box_stats,
    box_stats_by_country_price,
    build_grid,
    financial_result,
    parity_share,
    parse_results_csv,
    results_to_csv,
    run_sweep,
    synthesize_pv_profile,
)
from storparity.sweep import (
    BOX_CSV_HEADER,
    PARITY_CSV_HEADER,
    RESULTS_CSV_HEADER,
    ProfileSource,
    best_pv_sizes,
    box_stats_to_csv,
    parity_share_table,
    parity_shares_to_csv,
    simulate_scenario,
)
from storparity.table import read_rows

COUNTRIES = ["Cyprus", "France", "Greece", "Italy", "Portugal", "Spain"]

# Frozen end-to-end fixture for Cyprus type B, 3 kWp, 1 kWh/kWp, 150 EUR/kWh
# under default economics and shipped profiles (profile-dependent values).
CYB3_SCR = 0.7960229299833983
CYB3_LCOU = 0.15211556636506363
CYB3_NPV = 1504.0422301254011


class NoPvAt2Kwp(ProfileSource):
    """The shipped profiles, but the PV of 2 kWp fails as a bad template would.

    Defined at module level, so a process pool can pickle it.
    """

    def pv_profile(self, scenario, data):
        if scenario.pv_kwp == 2:
            raise ValueError("no PV year for 2 kWp")
        return super().pv_profile(scenario, data)


class TestBuildGrid:
    def test_full_grid_has_612_unique_scenarios(self):
        grid = build_grid(COUNTRIES)
        assert len(grid) == 612
        assert len({s.key for s in grid.rows()}) == 612

    def test_lexicographic_order(self):
        grid = build_grid(reversed(COUNTRIES), ratios=(2.0, 0.5, 1.0)).rows()
        assert grid == sorted(grid)

    def test_single_axis_counts(self):
        grid = build_grid(["Cyprus"], prosumer_types=["A"], ratios=[1.0], bess_prices=[150.0])
        assert len(grid) == 5
        assert [s.pv_kwp for s in grid.rows()] == [1, 2, 3, 4, 5]

    def test_type_ranges(self):
        grid = build_grid(["Spain"], ratios=[1.0], bess_prices=[150.0]).rows()
        sizes = {t: [s.pv_kwp for s in grid if s.prosumer_type == t] for t in "ABC"}
        assert sizes["A"] == list(range(1, 6))
        assert sizes["B"] == list(range(3, 9))
        assert sizes["C"] == list(range(5, 11))

    def test_duplicate_axis_entries_deduplicated(self):
        grid = build_grid(["Cyprus", "Cyprus"], prosumer_types=["A", "A"],
                          ratios=[1.0, 1.0], bess_prices=[150.0, 150.0])
        assert len(grid) == 5
        assert len({s.key for s in grid.rows()}) == 5

    def test_empty_axis_rejected(self):
        with pytest.raises(EmptyAxisError):
            build_grid([])
        with pytest.raises(EmptyAxisError):
            build_grid(["Cyprus"], ratios=[])
        with pytest.raises(EmptyAxisError, match="bess_prices"):
            ScenarioGrid(["Cyprus"], ["A"], [1.0], [])

    @settings(deadline=None)
    @given(
        st.lists(st.sampled_from(["Spain", "Cyprus", "Italy"]), min_size=1, max_size=4),
        st.lists(st.sampled_from("CBA"), min_size=1, max_size=4),
        *[st.lists(st.sampled_from([0.0, -0.0, 0, 1, 1.0, 0.3, 0.30000000000000004, 500])
                   | st.floats(0.0, 1e3), min_size=1, max_size=5)] * 2,
    )
    def test_equals_the_sorted_product_of_the_deduplicated_axes(
        self, countries, types, ratios, prices
    ):
        # repr tells -0.0 from 0.0: of equal values, the one given first is kept
        product = [
            Scenario(country, ptype, kwp, float(ratio), float(price))
            for country in dict.fromkeys(countries)
            for ptype in dict.fromkeys(types)
            for kwp in sweep_module.pv_sizes_for_type(ptype)
            for ratio in dict.fromkeys(ratios)
            for price in dict.fromkeys(prices)
        ]
        grid = build_grid(countries, types, ratios, prices)
        assert len(grid) == len(product)
        assert list(map(repr, grid.rows())) == list(map(repr, sorted(product)))

    @settings(deadline=None)
    @given(
        st.lists(st.sampled_from(["Spain", "Cyprus", "Italy"]), min_size=1, max_size=5),
        st.lists(st.sampled_from("CBA"), min_size=1, max_size=5),
        *[st.lists(st.sampled_from([0.0, -0.0, 2.5, 0.5, 1e308]), min_size=1, max_size=6)] * 2,
    )
    def test_rows_are_the_sorted_product_of_the_raw_axes(self, countries, types, ratios, prices):
        # unsorted axes with repeats; of equal scenarios the product's first is kept
        product = dict.fromkeys(
            Scenario(country, ptype, kwp, ratio, price)
            for country, ptype, ratio, price in itertools.product(countries, types, ratios, prices)
            for kwp in sweep_module.pv_sizes_for_type(ptype)
        )
        grid = build_grid(countries, types, ratios, prices)
        assert list(map(repr, grid.rows())) == list(map(repr, sorted(product)))
        # the constructor is build_grid without its defaults: every grid is sorted
        made = ScenarioGrid(countries, types, ratios, prices)
        assert list(map(repr, made.rows())) == list(map(repr, sorted(product)))
        assert len(grid) == len(product) == math.prod(grid.shape)
        assert [repr(grid.row(i)) for i in (0, len(grid) - 1)] == [
            repr(min(product)), repr(max(product))]
        assert grid.ratios == sorted(dict.fromkeys(ratios)) and grid.countries == sorted(
            set(countries))


class TestScenario:
    def test_bess_capacity_follows_ratio(self):
        s = Scenario("Cyprus", "B", 4, 2.0, 150.0)
        assert s.bess_kwh == 8.0
        assert s.annual_load_kwh == 7500.0

    def test_range_helper(self):
        assert Scenario("Cyprus", "A", 5, 1.0, 150.0).in_standard_range()
        assert not Scenario("Cyprus", "A", 12, 1.0, 150.0).in_standard_range()

    def test_invalid_scenarios_rejected(self):
        with pytest.raises(ValueError):
            Scenario("Cyprus", "D", 3, 1.0, 150.0)
        with pytest.raises(ValueError):
            Scenario("Cyprus", "A", 0, 1.0, 150.0)
        with pytest.raises(ValueError):
            Scenario("Cyprus", "A", 3, -1.0, 150.0)
        # so is a grid that would hold one, when it is made
        with pytest.raises(ValueError, match="ratio_kwh_per_kwp must be >= 0, got -1.0"):
            ScenarioGrid(["Cyprus"], ["A"], [1.0, -1.0], [150.0])

    def test_kwp_must_fit_in_64_bits(self):
        # as a results table's int64 column must hold it
        assert Scenario("Cyprus", "A", 2**63 - 1, 1.0, 150.0).pv_kwp == 2**63 - 1
        # an int past the float range too: it is not called "not finite"
        for kwp in (2**63, 10**19, 1e19, 10**400, -10**400):
            with pytest.raises(ValueError) as caught:
                Scenario("Cyprus", "A", kwp, 1.0, 150.0)
            assert str(caught.value) == f"pv_kwp must fit in 64 bits, got {kwp}"


CYPRUS_A3 = {"country": "Cyprus", "prosumer_type": "A", "pv_kwp": 3}
CYPRUS_DATA = {"name": "Cyprus", "vat_rate": 0.19}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "cls, base, field",
    [
        (EconomicParams, {}, "discount_rate"),
        (EconomicParams, {}, "bess_price_eur_per_kwh"),
        (BatterySpec, {"capacity_kwh": 1.0}, "max_charge_kw"),
        (BatterySpec, {}, "capacity_kwh"),
        (Scenario, {**CYPRUS_A3, "bess_price_eur_per_kwh": 150.0}, "ratio_kwh_per_kwp"),
        (Scenario, {**CYPRUS_A3, "ratio_kwh_per_kwp": 1.0}, "bess_price_eur_per_kwh"),
        (CountryData, {**CYPRUS_DATA, "annual_yield_kwh_per_kwp": 1464.85},
         "retail_price_eur_per_kwh"),
        (CountryData, {**CYPRUS_DATA, "retail_price_eur_per_kwh": 0.1927},
         "annual_yield_kwh_per_kwp"),
    ],
)
def test_non_finite_values_rejected(cls, base, field, bad):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        cls(**base, **{field: bad})


class TestRunScenario:
    def test_cyprus_b3_fixture_and_dcf_recomputation(self, country_data, default_econ):
        scenario = Scenario("Cyprus", "B", 3, 1.0, 150.0)
        _, table = simulate_scenario(scenario, country_data["Cyprus"], default_econ)
        (result,) = rows(table)
        assert keys(table) == [scenario.key]
        assert result.grid_parity is True
        assert result.scr == pytest.approx(CYB3_SCR, rel=1e-9)
        assert result.lcou == pytest.approx(CYB3_LCOU, rel=1e-6)
        assert result.npv == pytest.approx(CYB3_NPV, rel=1e-6)

        # independent spreadsheet-style recomputation of the LCOU
        from dataclasses import replace

        econ = replace(
            default_econ, bess_price_eur_per_kwh=150.0, vat_rate=country_data["Cyprus"].vat_rate
        )
        cap = financial_result(3.0, 3.0, econ, 3 * 1464.85, result.scr, 0.19270).capex_eur
        assert cap == pytest.approx((3 * 1300.0 + 3 * 150.0) * 1.19, rel=1e-12)
        oracle = reference_lcou(
            cap, econ, 3 * 1464.85, [result.scr] * econ.horizon_years
        )
        assert result.lcou == pytest.approx(oracle, rel=1e-9)

    def test_france_never_at_parity_at_current_price(self, country_data, default_econ):
        for ptype, kwp in (("A", 1), ("B", 5), ("C", 10)):
            for ratio in (0.5, 1.0, 2.0):
                scenario = Scenario("France", ptype, kwp, ratio, 500.0)
                _, result = simulate_scenario(scenario, country_data["France"], default_econ)
                assert result.grid_parity.tolist() == [False]

    def test_zero_ratio_matches_pv_only(self, country_data, default_econ):
        _, with_zero = simulate_scenario(
            Scenario("Spain", "A", 3, 0.0, 150.0), country_data["Spain"], default_econ
        )
        # with no storage the BESS price cannot matter: same dispatch, same cost
        _, other_price = simulate_scenario(
            Scenario("Spain", "A", 3, 0.0, 500.0), country_data["Spain"], default_econ
        )
        assert with_zero.scr[0] == other_price.scr[0]
        assert with_zero.lcou[0] == pytest.approx(other_price.lcou[0], rel=1e-12)
        assert with_zero.npv[0] == pytest.approx(other_price.npv[0], rel=1e-12)

    def test_econ_vat_override_wins(self, country_data):
        econ = EconomicParams(vat_rate=0.0)
        scenario = Scenario("Cyprus", "A", 1, 0.5, 150.0)
        _, no_vat = simulate_scenario(scenario, country_data["Cyprus"], econ)
        _, with_vat = simulate_scenario(scenario, country_data["Cyprus"], EconomicParams())
        assert no_vat.lcou[0] < with_vat.lcou[0]


class TestProfileSource:
    def test_steps_that_do_not_align_fail_at_construction(self):
        # 60 steps of 0.4 h a day: a year, but 2.5 of them to each hour of the shipped load
        pv = TimeSeriesProfile(0.4, np.full(365 * 60, 0.5), ProfileKind.PV)
        for rescale in (True, False):
            with pytest.raises(IncompatibleProfilesError,
                               match=r"^step ratio 2\.5 is not an integer \(1\.0 h vs 0\.4 h\)$"):
                ProfileSource(pv=pv, rescale=rescale)

    def test_quarter_hour_load_sets_the_step_of_synthesized_pv(self, country_data):
        load = TimeSeriesProfile(0.25, np.full(35040, 0.5), ProfileKind.LOAD)
        source = ProfileSource(load=load)
        assert source.step_hours == 0.25
        scenario, data = Scenario("Spain", "B", 4, 1.0, 150.0), country_data["Spain"]
        pv = source.pv_profile(scenario, data)
        expected = synthesize_pv_profile(4, data.annual_yield_kwh_per_kwp, step_hours=0.25)
        assert pv.step_hours == 0.25 and np.array_equal(pv.values, expected.values)

    def test_every_year_of_a_mixed_source_has_its_step(self, country_data):
        hourly_pv = synthesize_pv_profile(1.0, 1000.0)
        quarter = TimeSeriesProfile(0.25, np.tile([0.2, 0.4, 0.6, 0.8], 8760), ProfileKind.LOAD)
        quarter_pv = TimeSeriesProfile(0.25, quarter.values, ProfileKind.PV)
        grid = build_grid(["Cyprus", "Spain"], ratios=[1.0], bess_prices=[150.0]).rows()
        for load, pv in ((quarter, hourly_pv), (None, quarter_pv), (quarter, None)):
            for rescale in (True, False):
                source = ProfileSource(load=load, pv=pv, rescale=rescale)
                assert source.step_hours == 0.25
                for scenario in grid:
                    years = (source.load_profile(scenario),
                             source.pv_profile(scenario, country_data[scenario.country]))
                    assert [(y.step_hours, len(y)) for y in years] == [(0.25, 35040)] * 2
        # a coarser template is repeated onto the finer step at the same kW
        source = ProfileSource(load=quarter, pv=hourly_pv, rescale=False)
        pv = source.pv_profile(grid[0], country_data["Cyprus"])
        assert np.array_equal(pv.values, np.repeat(hourly_pv.values, 4))


class TestRunSweep:
    def test_full_sweep_counts_and_order(self, full_sweep):
        grid, results, _ = full_sweep
        assert len(results) == 612
        assert keys(results) == [s.key for s in grid]
        assert len(set(keys(results))) == 612

    def test_empty_grid(self, country_data, default_econ):
        # a grid has a value on every axis; a sweep that prices no row returns an empty table
        failures = []
        empty = run_sweep(build_grid(["Ruritania"], ["A"], [1.0], [150.0]), country_data,
                          default_econ, failures=failures)
        assert len(empty) == 0 and columns(empty) == columns(table_of([])) and len(failures) == 5
        assert results_to_csv(empty) == RESULTS_CSV_HEADER + "\n"

    def test_rerun_is_identical(self, full_sweep, country_data, default_econ):
        _, results, _ = full_sweep
        again = run_sweep(build_grid(list(country_data)), country_data, default_econ)
        assert results_to_csv(again) == results_to_csv(results)

    def test_parallel_matches_serial(self, country_data, default_econ):
        grid = build_grid(["Cyprus", "France"], prosumer_types=["A"])
        serial = run_sweep(grid, country_data, default_econ)
        parallel = run_sweep(grid, country_data, default_econ, parallel=2)
        assert results_to_csv(serial) == results_to_csv(parallel)

    def test_pool_is_no_wider_than_the_cpus_or_the_keys(
        self, country_data, default_econ, monkeypatch
    ):
        widths = []

        class InProcessPool:
            """Records its width and runs every slice here: no process starts."""

            def __init__(self, max_workers):
                widths.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, iterable):
                return map(fn, iterable)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        grid = build_grid(["Cyprus"], prosumer_types=["A"])  # 15 dispatch keys
        serial = results_to_csv(run_sweep(grid, country_data, default_econ))
        # (CPUs the process may use, or None where the platform cannot tell; CPUs
        # of the machine): the pool width. Affinity, where known, is what counts.
        for usable, cpus, width in [
            (3, 64, [3]), (64, 64, [15]), (1, 2, []),
            (None, 3, [3]), (None, 64, [15]), (None, None, []), (None, 1, []),
        ]:
            if usable is None:
                monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            else:
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(usable)),
                                    raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            widths.clear()
            pooled = run_sweep(grid, country_data, default_econ, parallel=5000)
            assert widths == width and results_to_csv(pooled) == serial

    @pytest.mark.parametrize(
        "name, evaluate",
        [
            # simulate is the one-scenario path; the sweep dispatches through the kernel
            ("simulate",
             lambda grid, data, econ: simulate_scenario(grid.row(0), data["Cyprus"], econ)),
            ("simulate_balances", run_sweep),
        ],
        ids=["simulate", "simulate_balances"],
    )
    def test_programming_errors_propagate(
        self, country_data, default_econ, monkeypatch, name, evaluate
    ):
        def broken(*args, **kwargs):
            raise TypeError("bug inside dispatch")

        monkeypatch.setattr(sweep_module, name, broken)
        grid = build_grid(["Cyprus"], prosumer_types=["A"], ratios=[1.0], bess_prices=[150.0])
        with pytest.raises(TypeError, match="bug inside dispatch"):
            evaluate(grid, country_data, default_econ)

    def test_failures_collected_not_fatal(self, country_data, default_econ, caplog):
        grid = build_grid(["Cyprus", "Ruritania"], prosumer_types=["A"],
                          ratios=[1.0], bess_prices=[150.0])
        failures = []
        results = run_sweep(grid, country_data, default_econ, failures=failures)
        assert results.country == ["Cyprus"] * 5
        assert len(failures) == 5
        assert all("Ruritania" in message for _, message in failures)
        # each failure is reported once: to the caller's list, else to the log
        assert caplog.records == []
        run_sweep(grid, country_data, default_econ)
        assert [r.getMessage() for r in caplog.records] == [
            f"scenario {s.key} failed: {m}" for s, m in failures]

    def test_default_grid_balances_match_one_scenario_path_exactly(
        self, country_data, default_econ
    ):
        # every batched dispatch of the default grid against simulate's trace path
        firsts = {}
        for scenario in build_grid(list(country_data)).rows():
            firsts.setdefault(scenario.key[:4], scenario)  # all but the BESS price
        assert len(firsts) == 306
        batched = sweep_module._dispatch_keys(
            ProfileSource(), {}, country_data, list(firsts.values())
        )
        for scenario, balance in zip(firsts.values(), batched):
            trace, _ = simulate_scenario(scenario, country_data[scenario.country], default_econ)
            assert balance == annual_balance(trace, 1.0)

    @pytest.mark.parametrize(
        "axes",
        [{}, {"prosumer_types": ["B"], "ratios": [1.0], "bess_prices": range(100, 700, 10)}],
        ids=["default-grid", "60-prices"],
    )
    def test_batch_pricing_matches_one_scenario_path_bit_for_bit(
        self, country_data, default_econ, axes
    ):
        grid = build_grid(list(country_data), **axes).rows()
        firsts = {}
        for scenario in grid:
            firsts.setdefault(scenario.key[:4], scenario)  # all but the BESS price
        balances = dict(zip(firsts, sweep_module._dispatch_keys(
            ProfileSource(), {}, country_data, list(firsts.values()))))
        results = run_sweep(build_grid(list(country_data), **axes), country_data,
                            default_econ)
        assert len(results) == len(grid) in (612, 2160)
        alone, one = [], []
        for scenario in grid:
            data, balance = country_data[scenario.country], balances[scenario.key[:4]]
            econ = replace(default_econ, bess_price_eur_per_kwh=scenario.bess_price_eur_per_kwh,
                           vat_rate=data.vat_rate)
            fin = financial_result(scenario.pv_kwp, scenario.bess_kwh, econ, balance.e_produced,
                                   balance.scr, data.retail_price_eur_per_kwh)
            alone.append((*scenario.key, balance.scr, balance.ssr, fin.lcoe_eur_per_kwh,
                          fin.lcou_eur_per_kwh, fin.npv_eur, fin.grid_parity))
            # the same balance priced in a batch of one row
            metrics, parity, errors = sweep_module._price(
                [(scenario.pv_kwp, scenario.bess_kwh, data, balance)],
                [scenario.bess_price_eur_per_kwh], default_econ)
            assert not errors
            one.append((*scenario.key, *metrics[:, 0].tolist(), bool(parity[0])))
        # repr keeps every bit of a float
        assert columns(results) == columns(table_of(alone)) == columns(table_of(one))
        # the one-scenario path prices its row through the same columns
        sampled = stack(simulate_scenario(scenario, country_data[scenario.country],
                                          default_econ)[1] for scenario in grid[::37])
        assert columns(sampled) == columns(table_of(rows(results)[::37]))

    def test_pricing_failures_stay_per_scenario(self, country_data, default_econ):
        hour = np.arange(8760) % 24
        load = TimeSeriesProfile(1.0, np.where(hour < 12, 0.0, 1.0), ProfileKind.LOAD)
        night_pv = TimeSeriesProfile(1.0, np.where(hour < 12, 2.0, 0.0), ProfileKind.PV)
        zero_pv = TimeSeriesProfile(1.0, np.zeros(8760), ProfileKind.PV)
        grid = build_grid(["Cyprus", "Ruritania", "Spain"], prosumer_types=["A"],
                          ratios=[0.0, 1.0], bess_prices=[150.0])
        scenarios = grid.rows()
        # night_pv runs only while there is no load: without a battery nothing is self-consumed
        for pv, failing in ((night_pv, "ZeroSelfConsumptionError"), (zero_pv, "ZeroEnergyError")):
            source = ProfileSource(load=load, pv=pv, rescale=False)
            failures = []
            results = run_sweep(grid, country_data, default_econ, source, failures=failures)
            expected_results, expected_failures = [], []
            for scenario in scenarios:
                if scenario.country not in country_data:
                    message = f"KeyError: country {scenario.country!r} not in data"
                    expected_failures.append((scenario, message))
                    continue
                try:
                    expected_results.append(simulate_scenario(
                        scenario, country_data[scenario.country], default_econ, source)[1])
                except ValueError as exc:
                    expected_failures.append((scenario, f"{type(exc).__name__}: {exc}"))
            assert failures == expected_failures
            assert columns(results) == columns(stack(expected_results))
            assert {m.split(":")[0] for _, m in failures} == {"KeyError", failing}
            assert len(results) == (0 if pv is zero_pv else 10)  # the batteries of 1 kWh/kWp
        # so little energy that its discounted sum underflows to 0: nothing produced to price
        one_hour = np.where(np.arange(8760) == 12, 5e-324, 0.0)
        tiny_pv = TimeSeriesProfile(1.0, one_hour, ProfileKind.PV)
        source = ProfileSource(load=load, pv=tiny_pv, rescale=False)
        steep = EconomicParams(discount_rate=1.5)
        failures = []
        assert len(run_sweep(grid, country_data, steep, source, failures=failures)) == 0
        assert [m for s, m in failures if s.country != "Ruritania"] == [
            "ZeroEnergyError: no energy produced over the horizon"] * 20
        with pytest.raises(ZeroEnergyError, match="^no energy produced over the horizon$"):
            simulate_scenario(scenarios[0], country_data["Cyprus"], steep, source)

    def test_every_failure_kind_matches_the_row_path(self, country_data, default_econ, caplog):
        # an unknown country; batteries of kWp x 1e308 past the float range; and at a
        # BESS price of 1e308 an infinite LCOE, but for the batteries of 0 kWh
        grid = build_grid(["Spain", "Ruritania", "Cyprus"], ["A"], [1e308, 0.0, 1.0],
                          [1e308, 150.0])
        failures = []
        results = run_sweep(grid, country_data, default_econ, failures=failures)
        expected_results, expected_failures = [], []
        for scenario in grid.rows():
            if scenario.country not in country_data:
                message = f"KeyError: country {scenario.country!r} not in data"
                expected_failures.append((scenario, message))
                continue
            try:
                expected_results.append(
                    simulate_scenario(scenario, country_data[scenario.country], default_econ)[1])
            except ValueError as exc:
                expected_failures.append((scenario, f"{type(exc).__name__}: {exc}"))
        assert columns(results) == columns(stack(expected_results))
        assert [(repr(s), m) for s, m in failures] == [
            (repr(s), m) for s, m in expected_failures]
        assert {m for _, m in failures} == {
            "KeyError: country 'Ruritania' not in data",
            "ValueError: capacity_kwh must be finite, got inf",
            "ValueError: lcoe must be finite, got inf",
        }
        # per country: ratio 0 at both prices, ratio 1 at 150 EUR/kWh, and 1 kWh at 1e308
        assert len(results) == 2 * (5 * 2 + 5 + 1)
        # without a list, the same failures go to the log, in the same order
        run_sweep(grid, country_data, default_econ)
        assert [r.getMessage() for r in caplog.records] == [
            f"scenario {s.key} failed: {m}" for s, m in failures]

    @pytest.mark.parametrize("parallel", [1, 2])
    def test_key_failures_stay_per_key(self, country_data, default_econ, parallel):
        source = NoPvAt2Kwp()
        grid = build_grid(["Cyprus", "Spain"], prosumer_types=["A"], ratios=[0.5, 1.0])
        failures = []
        results = run_sweep(grid, country_data, default_econ, source,
                            parallel=parallel, failures=failures)
        failed = [s for s, _ in failures]
        assert failed == [s for s in grid.rows() if s.pv_kwp == 2] and len(failed) == 8
        assert all(message == "ValueError: no PV year for 2 kWp" for _, message in failures)
        kept = [s for s in grid.rows() if s.pv_kwp != 2]
        assert keys(results) == [s.key for s in kept]
        # the batch agrees exactly with the one-scenario path
        assert columns(results) == columns(stack(
            simulate_scenario(s, country_data[s.country], default_econ, source)[1] for s in kept))


class TestParityShare:
    def test_all_true_subset(self, full_sweep):
        _, results, _ = full_sweep
        winners = table_of([r for r in rows(results) if r.grid_parity])
        assert len(winners) and parity_share(winners) == 100.0

    def test_france_zero_share(self, full_sweep):
        _, results, _ = full_sweep
        assert parity_share(results, country="France", bess_price=500.0) == 0.0
        assert parity_share(results, country="France", bess_price=150.0) == 0.0

    def test_cyprus_future_price_share_regression(self, full_sweep):
        # profile-dependent regression pin: 23 of 51 Cyprus scenarios reach
        # parity at 150 EUR/kWh with the shipped defaults
        _, results, _ = full_sweep
        share = parity_share(results, country="Cyprus", bess_price=150.0)
        assert share == pytest.approx(100.0 * 23 / 51, abs=1e-9)

    def test_empty_selection_rejected(self, full_sweep):
        _, results, _ = full_sweep
        with pytest.raises(EmptySelectionError):
            parity_share(results, country="Atlantis")

    def test_share_table_has_pooled_rows(self, full_sweep):
        _, results, _ = full_sweep
        table = parity_share_table(results)
        labels = {(country, label) for country, label, _ in table}
        assert ("France", "pooled") in labels
        assert ("Cyprus", "150") in labels
        assert len(table) == 6 * 3


class TestBoxStats:
    def test_symmetric_odd_set(self):
        stats = box_stats([1.0, 2.0, 3.0, 4.0, 5.0])
        assert (stats.minimum, stats.q1, stats.median, stats.q3, stats.maximum) == (
            1.0, 2.0, 3.0, 4.0, 5.0,
        )

    def test_singleton(self):
        stats = box_stats([7.25])
        assert stats.minimum == stats.q1 == stats.median == stats.q3 == stats.maximum == 7.25

    def test_matches_sort_based_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            values = rng.uniform(-10.0, 10.0, int(rng.integers(1, 101)))
            stats = box_stats(values)
            lo, q1, med, q3, hi = reference_quartiles(values)
            assert stats.minimum == pytest.approx(lo, abs=1e-12)
            assert stats.q1 == pytest.approx(q1, abs=1e-12)
            assert stats.median == pytest.approx(med, abs=1e-12)
            assert stats.q3 == pytest.approx(q3, abs=1e-12)
            assert stats.maximum == pytest.approx(hi, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(EmptySelectionError):
            box_stats([])

    @pytest.mark.parametrize("values", [[1e308, -1e308], [1e308, -1e308, -1e308]])
    def test_values_further_apart_than_a_float_holds_name_their_span(self, values):
        # one cell of box_stats_by_country_price: no RuntimeWarning, the same error
        with pytest.raises(ValueError, match=r"^values span -1e\+308 to 1e\+308, "
                                             "too wide for float quartiles$"):
            box_stats(values)
        results = [_mk_result("Cyprus", "A", kwp, 1.0, 150.0, v) for kwp, v in enumerate(values, 1)]
        with pytest.raises(ValueError, match=r"^LCOUs of Cyprus at BESS price 150 span -1e\+308 "):
            box_stats_by_country_price(table_of(results))

    @pytest.mark.parametrize("seed", range(5))
    def test_by_country_price_matches_per_cell_filter(self, seed):
        results = _random_results(seed)
        expected = []
        for country, price in _cells(results, "country", "bess_price_eur_per_kwh"):
            values = [r.lcou for r in results if r.country == country
                      and r.bess_price_eur_per_kwh == price]
            if values:
                expected.append((country, price, box_stats(values)))
        assert box_stats_by_country_price(table_of(results)) == expected

    def test_by_country_price_rows(self, full_sweep):
        _, results, _ = full_sweep
        boxes = box_stats_by_country_price(results)
        assert len(boxes) == 12
        for _, _, stats in boxes:
            assert stats.minimum <= stats.q1 <= stats.median <= stats.q3 <= stats.maximum

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(
        st.tuples(st.sampled_from(["Cyprus", "Italy", "Spain"]),
                  st.sampled_from([0.0, 123.4567, 150.0, 500.0])),
        # no -0.0: on a tie with 0.0, np.percentile's partition may return either
        st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.3, -1e308, 1e308])
                 | st.floats(-1e308, 1e308).filter(lambda x: math.copysign(1.0, x) > 0 or x),
                 min_size=1, max_size=30),
        min_size=1, max_size=12,
    ), st.randoms())
    def test_one_sort_matches_np_percentile_bit_for_bit(self, cells, random):
        results = [_mk_result(country, "A", 1, 1.0, price, lcou)
                   for (country, price), values in cells.items() for lcou in values]
        random.shuffle(results)
        with np.errstate(over="ignore", invalid="ignore"):  # max - min past the float range
            expected = {key: np.percentile(values, [0.0, 25.0, 50.0, 75.0, 100.0])
                        for key, values in cells.items()}
        # a cell whose quartiles overflow is named; every other cell is numpy's
        wide = sorted(key for key, five in expected.items() if not np.isfinite(five).all())
        if wide:
            country, price = wide[0]
            with pytest.raises(ValueError, match=f"^LCOUs of {country} at BESS price "
                                                 f"{sweep_module._fmt_axis(price)} span "):
                box_stats_by_country_price(table_of(results))
            results = [r for r in results if (r.country, r.bess_price_eur_per_kwh) not in wide]
        boxes = box_stats_by_country_price(table_of(results))
        narrow = sorted(set(cells) - set(wide))
        assert [(country, price) for country, price, _ in boxes] == narrow
        for (_, _, stats), key in zip(boxes, narrow):
            for got in (stats, box_stats(cells[key])):
                five = (got.minimum, got.q1, got.median, got.q3, got.maximum)
                assert np.array(five).tobytes() == expected[key].tobytes()


def _mk_result(country, ptype, kwp, ratio, price, lcou_value, parity=False):
    return Row(country, ptype, kwp, ratio, price, 0.5, 0.5, lcou_value / 2, lcou_value, 0.0,
               parity)


def _random_results(seed):
    """Up to 200 results in random order, with LCOU ties and repeated prices and scenarios."""
    rng = np.random.default_rng(seed)
    return [
        _mk_result(
            str(rng.choice(["Cyprus", "Italy", "Spain"])), str(rng.choice(["A", "B", "C"])),
            int(rng.integers(1, 7)), float(rng.choice([0.5, 1.0])),
            float(rng.choice([150.0, 500.0, 123.4567])), float(rng.choice([0.1, 0.2, 0.3])),
            bool(rng.integers(2)),
        )
        for _ in range(int(rng.integers(1, 200)))
    ]


#: Per results column: values it reads, then values it rejects.
_RESULT_FIELDS = [
    (["Cyprus", "Italy"], []),
    (["A", "B"], ["D", "a", ""]),
    # a kWp past int64 does not fit the table's column, and one past 1e308 no float
    (["1", "2", "3", "4", "9223372036854775807"],
     ["0", "-1", "2.5", "x", "", "9223372036854775808", "99999999999999999999", "1" + "0" * 400,
      "-9223372036854775808", "-9223372036854775809", "-1" + "0" * 400]),
    (["0.5", "1", "1.0", "2"], ["-1", "nan", "inf", "x"]),
    (["150", "500", "150.0"], ["-5", "nan", "1e400", ""]),
    *[(["0.5", "-0.0", "1e-7", "-3", "12.25"], ["nan", "inf", "-inf", "x", "", "1e400"])] * 5,
    (["true", "false"], ["True", "maybe", ""]),
]


@st.composite
def results_documents(draw):
    """A results CSV of a few rows, some scenarios repeated, then up to two mutations of it.

    A wrong field count comes after them, so no other mutation indexes a cut row.
    """
    rows = [
        [draw(st.sampled_from(good)) for good, _ in _RESULT_FIELDS]
        for _ in range(draw(st.integers(0, 6)))
    ]
    for _ in range(draw(st.integers(0, 2))):
        if not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(["key", "value", "value", "duplicate"]))
        if kind in ("key", "value"):  # a bad scenario axis, or a bad metric or parity
            column = draw(st.sampled_from(range(5) if kind == "key" else range(5, 11)))
            bad = _RESULT_FIELDS[column][1]
            rows[i][column] = draw(st.sampled_from(bad or _RESULT_FIELDS[column][0]))
        else:
            rows.insert(draw(st.integers(0, len(rows))), list(rows[i]))
    if rows and draw(st.integers(0, 4)) == 0:  # a row with one field too few or too many
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = draw(st.sampled_from([rows[i][:-1], rows[i] + ["x"]]))
    pad = st.sampled_from(["", " "])
    lines = [",".join(draw(pad) + field + draw(pad) for field in row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  "])))
    header = draw(st.sampled_from([RESULTS_CSV_HEADER] * 19 + ["country,oops"]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return draw(st.sampled_from(["", "\ufeff"])) + end.join([header, *lines]) + end


def _cells(results, *axes):
    """Every combination of the values the results take on the axes, sorted."""
    return itertools.product(*(sorted({getattr(r, a) for r in results}) for a in axes))


class TestBestPvSize:
    def test_ascending_lcou_picks_smallest(self, full_sweep):
        # type A LCOU rises with size under the shipped defaults
        _, results, _ = full_sweep
        for country in COUNTRIES:
            assert best_pv_size(results, country, "A", 1.0, 150.0) == 1

    def test_tie_breaks_toward_smaller(self):
        lcous = {3: 0.2, 4: 0.2, 5: 0.3}
        for sizes in [(3, 4, 5), (5, 4, 3)]:  # in either input order
            table = table_of([_mk_result("Cyprus", "B", k, 1.0, 150.0, lcous[k]) for k in sizes])
            assert best_pv_size(table, "Cyprus", "B", 1.0, 150.0) == 3
            assert best_pv_sizes(table) == [("Cyprus", "B", 1.0, 150.0, 3)]

    def test_u_shape_picks_interior_minimum(self):
        lcous = {3: 0.22, 4: 0.20, 5: 0.18, 6: 0.17, 7: 0.16, 8: 0.165}
        table = table_of([_mk_result("Italy", "B", k, 1.0, 150.0, v) for k, v in lcous.items()])
        assert best_pv_size(table, "Italy", "B", 1.0, 150.0) == 7

    def test_empty_selection_rejected(self):
        with pytest.raises(EmptySelectionError):
            best_pv_size(table_of([]), "Cyprus", "A", 1.0, 150.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_one_pass_rows_match_best_pv_size_per_cell(self, seed):
        results = _random_results(seed)
        expected = []
        for cell in _cells(results, "country", "prosumer_type", "ratio_kwh_per_kwp",
                           "bess_price_eur_per_kwh"):
            try:
                expected.append((*cell, best_pv_size(table_of(results), *cell)))
            except EmptySelectionError:
                continue
        assert best_pv_sizes(table_of(results)) == expected


class TestTableAndRows:
    @pytest.mark.parametrize("seed", range(4))
    def test_a_table_and_its_rows_give_equal_answers(self, seed, country_data, default_econ):
        # each answer of the table's columns against the same question asked row by row
        if seed:
            table = table_of(_random_results(seed))
        else:  # a sweep's own table
            grid = build_grid(["Cyprus", "France"], ["A", "B"], [1.0, 0.0], [500.0, 150.0])
            table = run_sweep(grid, country_data, default_econ)
        results = rows(table)

        def outcome(f, *args):
            try:
                return repr(f(*args))
            except EmptySelectionError:
                return None

        def picked(*wanted):
            """The results whose country, type, ratio and price equal the wanted, None any."""
            return [r for r in results if all(w is None or w == v for w, v in zip(
                wanted, (r.country, r.prosumer_type, r.ratio_kwh_per_kwp,
                         r.bess_price_eur_per_kwh)))]

        cells = _cells(results, "country", "prosumer_type", "ratio_kwh_per_kwp",
                       "bess_price_eur_per_kwh")
        for country, ptype, ratio, price in [*cells, ("Atlantis", "A", 1.0, 150.0)]:
            for c, p in ((None, None), (country, None), (country, price), (None, price)):
                hits = [r.grid_parity for r in picked(c, None, None, p)]
                assert outcome(parity_share, table, c, p) == (
                    repr(100.0 * sum(hits) / len(hits)) if hits else None)
            sized = [(r.lcou, r.pv_kwp) for r in picked(country, ptype, ratio, price)]
            assert outcome(best_pv_size, table, country, ptype, ratio, price) == (
                repr(min(sized)[1]) if sized else None)
            lcous = [r.lcou for r in picked(country, None, None, price)]
            selected = table.lcou[table.where(country=country, bess_price_eur_per_kwh=price)]
            assert outcome(box_stats, selected) == outcome(box_stats, lcous)
        fmt = sweep_module._fmt_axis
        lines = [f"{r.country},{r.prosumer_type},{r.pv_kwp},{fmt(r.ratio_kwh_per_kwp)},"
                 f"{fmt(r.bess_price_eur_per_kwh)},{r.scr:.6f},{r.ssr:.6f},{r.lcoe:.6f},"
                 f"{r.lcou:.6f},{r.npv:.6f},{str(r.grid_parity).lower()}" for r in results]
        assert results_to_csv(table) == "\n".join([RESULTS_CSV_HEADER, *lines]) + "\n"


class TestSummaryCells:
    @pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)])
    def test_signed_zero_prices_share_a_cell_named_by_the_first_seen(self, first, second):
        results = [
            _mk_result("Italy", "A", 1, 1.0, 150.0, 0.25),
            _mk_result("Cyprus", "A", 2, 1.0, first, 0.3, parity=True),
            _mk_result("Cyprus", "A", 1, 1.0, second, 0.1),
        ]
        table = table_of(results)
        (country, price, stats), _ = box_stats_by_country_price(table)
        assert (country, repr(price), stats) == ("Cyprus", repr(first), box_stats([0.3, 0.1]))
        (*cell, size), _ = best_pv_sizes(table)
        assert list(map(repr, cell)) == list(map(repr, ("Cyprus", "A", 1.0, first)))
        assert size == best_pv_size(table, "Cyprus", "A", 1.0, second) == 1
        share = parity_share(table, "Cyprus", second)
        assert parity_share_table(table)[:2] == [
            ("Cyprus", sweep_module._fmt_axis(first), share), ("Cyprus", "pooled", share)]
        assert parity_shares_to_csv(table).splitlines()[1] == (
            f"Cyprus,{sweep_module._fmt_axis(first)},{share:.6f},1,2")

    def test_no_results_give_no_rows_and_header_only_csvs(self):
        empty = table_of([])
        assert (box_stats_by_country_price(empty) == best_pv_sizes(empty)
                == parity_share_table(empty) == [])
        assert box_stats_to_csv(empty) == BOX_CSV_HEADER + "\n"
        assert parity_shares_to_csv(empty) == PARITY_CSV_HEADER + "\n"


class TestSweepInvariants:
    def test_parity_iff_positive_npv_cross_module(self, full_sweep):
        _, results, _ = full_sweep
        assert np.array_equal(results.grid_parity, results.npv > 0.0)

    def test_scr_monotone_in_ratio(self, full_sweep):
        _, results, _ = full_sweep
        by_key = {r[:5]: r for r in rows(results)}
        for r in rows(results):
            if r.ratio_kwh_per_kwp != 0.5:
                continue
            s1 = by_key[(r.country, r.prosumer_type, r.pv_kwp, 1.0, r.bess_price_eur_per_kwh)]
            s2 = by_key[(r.country, r.prosumer_type, r.pv_kwp, 2.0, r.bess_price_eur_per_kwh)]
            assert r.scr <= s1.scr + 1e-12
            assert s1.scr <= s2.scr + 1e-12

    def test_lcou_lower_at_future_bess_price(self, full_sweep):
        _, results, _ = full_sweep
        by_key = {r[:5]: r for r in rows(results)}
        for r in rows(results):
            if r.bess_price_eur_per_kwh != 150.0 or r.pv_kwp * r.ratio_kwh_per_kwp == 0.0:
                continue
            twin = by_key[(r.country, r.prosumer_type, r.pv_kwp, r.ratio_kwh_per_kwp, 500.0)]
            assert r.lcou < twin.lcou


class TestResultsCsv:
    def test_round_trip(self, full_sweep):
        _, results, _ = full_sweep
        text = results_to_csv(results)
        assert text.splitlines()[0] == RESULTS_CSV_HEADER
        table = parse_results_csv(text)
        assert len(table) == len(results)
        assert keys(table) == keys(results)
        assert np.array_equal(table.grid_parity, results.grid_parity)
        for a, b in zip(table.lcou.tolist(), results.lcou.tolist()):
            assert a == pytest.approx(b, abs=5e-7)

    def test_schema_validation(self):
        with pytest.raises(ValueError):
            parse_results_csv("bad,header\n1,2\n")
        with pytest.raises(ValueError):
            parse_results_csv(RESULTS_CSV_HEADER + "\n")
        with pytest.raises(ValueError):
            parse_results_csv(RESULTS_CSV_HEADER + "\nCyprus,A,1,1,150,0.5,0.5,0.1,0.1,10,maybe\n")

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_round_trip_is_a_fixed_point(self, data):
        axis = st.sampled_from([1 / 3, 123.4567, 1e-7, 0.0, 150.0]) | st.floats(0.0, 1e6)
        grid = build_grid(
            data.draw(st.lists(st.sampled_from(COUNTRIES), min_size=1, max_size=2)),
            data.draw(st.lists(st.sampled_from(PROSUMER_TYPES), min_size=1, max_size=2)),
            data.draw(st.lists(axis, min_size=1, max_size=3)),
            data.draw(st.lists(axis, min_size=1, max_size=2)),
        )
        metric = st.floats(-1e7, 1e7)
        metrics = data.draw(st.lists(
            st.tuples(metric, metric, metric, metric, metric, st.booleans()),
            min_size=len(grid), max_size=len(grid),
        ))
        text = results_to_csv(table_of([(*s.key, *row) for s, row in zip(grid.rows(), metrics)]))
        mangled = "\ufeff" + text.replace("\n", "\r\n\r\n")
        for parsed in (parse_results_csv(text), parse_results_csv(mangled)):
            assert results_to_csv(parsed) == text
            # the axes read back losslessly
            assert repr(keys(parsed)) == repr([s.key for s in grid.rows()])

    def test_bom_and_blank_lines_ignored_and_errors_name_the_physical_line(self):
        row = "Cyprus,A,1,1,150,0.5,0.5,0.08,0.1,10.0,true"
        text = "\ufeff" + RESULTS_CSV_HEADER + "\r\n\r\n" + row + "\r\n  \r\n"
        assert (columns(parse_results_csv(text))
                == columns(parse_results_csv(RESULTS_CSV_HEADER + "\n" + row)))
        with pytest.raises(ValueError, match="^line 5: pv_kwp must be an integer >= 1"):
            parse_results_csv(text + row.replace("A,1,", "A,0,"))

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_column_checks_agree_with_the_row_reader(self, data):
        text = data.draw(results_documents())
        try:
            table = sweep_module._results_columns(text)
        except ValueError:
            table = None

        def error(parse):
            try:
                parse(text)
            except Exception as exc:  # compared by type and message
                return type(exc), str(exc)

        assert (table is None) == (error(sweep_module._results_rows) is not None)
        assert error(parse_results_csv) == error(sweep_module._results_rows)
        if table is not None:  # each field as the row reader reads it
            fields = [(country, ptype, int(kwp), float(ratio), float(price),
                       *map(float, metrics), parity == "true")
                      for _, (country, ptype, kwp, ratio, price, *metrics, parity)
                      in read_rows(text, RESULTS_CSV_HEADER, "results CSV")]
            assert columns(parse_results_csv(text)) == columns(table) == columns(table_of(fields))

    def test_repeated_scenario_rejected(self):
        row = "Cyprus,A,1,1,150,0.5,0.5,0.08,0.1,10.0,true"
        text = RESULTS_CSV_HEADER + "\n" + row + "\n\n" + row.replace("A,1,1,", "A,1,1.0,") + "\n"
        with pytest.raises(ValueError, match=re.escape(
            "line 4: duplicate scenario ('Cyprus', 'A', 1, 1.0, 150.0)"
        )):
            parse_results_csv(text)

    def test_box_csv_schema(self, full_sweep):
        _, results, _ = full_sweep
        text = box_stats_to_csv(results)
        lines = text.strip().splitlines()
        assert lines[0] == BOX_CSV_HEADER
        assert len(lines) == 13  # 6 countries x 2 prices + header

    def test_parity_csv_counts(self, full_sweep):
        _, results, _ = full_sweep
        lines = parity_shares_to_csv(results).strip().splitlines()
        assert len(lines) == 1 + 18
        france_pooled = [l for l in lines if l.startswith("France,pooled")]
        assert france_pooled and france_pooled[0].split(",")[2] == "0.000000"

    @pytest.mark.parametrize("seed", range(5))
    def test_parity_csv_matches_per_cell_filter(self, seed):
        results = _random_results(seed)
        table = table_of(results)
        expected = [PARITY_CSV_HEADER]
        for country, in _cells(results, "country"):
            for price, in _cells(results, "bess_price_eur_per_kwh"):
                cell = [r for r in results if r.country == country
                        and r.bess_price_eur_per_kwh == price]
                if cell:
                    expected.append(
                        f"{country},{sweep_module._fmt_axis(price)},"
                        f"{parity_share(table, country, price):.6f},"
                        f"{sum(r.grid_parity for r in cell)},{len(cell)}")
            pooled = [r for r in results if r.country == country]
            expected.append(f"{country},pooled,{parity_share(table, country):.6f},"
                            f"{sum(r.grid_parity for r in pooled)},{len(pooled)}")
        assert parity_shares_to_csv(table) == "\n".join(expected) + "\n"

    def test_axis_values_round_trip_and_group_by_value(self, country_data, default_econ):
        # {:g} keeps 6 significant digits: both prices would read 123.457
        prices = [123.4567, 123.4568]
        grid = build_grid(["Cyprus"], prosumer_types=["A"], ratios=[1 / 3], bess_prices=prices)
        results = run_sweep(grid, country_data, default_econ)
        parsed = parse_results_csv(results_to_csv(results))
        assert repr(keys(parsed)) == repr(keys(results))
        lines = parity_shares_to_csv(results).strip().splitlines()[1:]
        assert [line.split(",")[1] for line in lines] == ["123.4567", "123.4568", "pooled"]
        assert [line.split(",")[4] for line in lines] == ["5", "5", "10"]

    def test_default_axis_labels_keep_short_form(self):
        assert [sweep_module._fmt_axis(x) for x in (0.5, 1.0, 2.0, 500.0, 150.0)] == [
            "0.5", "1", "2", "500", "150",
        ]
