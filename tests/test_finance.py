import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _reference import reference_lcoe, reference_lcou, reference_npv
from storparity import (
    CountryData,
    EconomicParams,
    ZeroEnergyError,
    ZeroSelfConsumptionError,
    capex,
    financial_result,
    financial_results,
    grid_parity,
    lcoe,
    lcou,
    load_country_data,
    npv,
    parse_country_csv,
)
from storparity.finance import annual_maintenance_cost, degraded_energy


def econ(**kwargs):
    defaults = dict(
        pv_price_eur_per_kwp=1300.0,
        bess_price_eur_per_kwh=150.0,
        vat_rate=0.0,
        maintenance_rate=0.0,
        discount_rate=0.0,
        horizon_years=20,
        pv_degradation_rate=0.0,
    )
    defaults.update(kwargs)
    return EconomicParams(**defaults)


class TestCapex:
    def test_no_vat(self):
        assert capex(3.0, 3.0, econ()) == pytest.approx(4350.0)

    def test_with_vat(self):
        # 1 kWp at 1300 with 19% VAT
        assert capex(1.0, 0.0, econ(vat_rate=0.19)) == pytest.approx(1547.0)

    def test_zero_system(self):
        assert capex(0.0, 0.0, econ()) == 0.0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            capex(-1.0, 0.0, econ())

    def test_maintenance_uses_pre_vat_capex(self):
        e = econ(vat_rate=0.19, maintenance_rate=0.01)
        total = capex(1.0, 0.0, e)
        assert annual_maintenance_cost(total, e) == pytest.approx(13.0)


class TestLcoe:
    def test_zero_rate_no_maintenance_closed_form(self):
        assert lcoe(1300.0, econ(), 1000.0) == 1300.0 / 20000.0

    def test_single_year_discounting(self):
        e = econ(discount_rate=0.05, horizon_years=1)
        assert lcoe(1000.0, e, 1000.0) == pytest.approx(1.05, rel=1e-12)

    def test_constant_maintenance_closed_form_at_zero_rate(self):
        e = econ(maintenance_rate=0.02)
        annual_cost = 0.02 * 5000.0
        expected = (5000.0 + 20 * annual_cost) / (20 * 1000.0)
        assert lcoe(5000.0, e, 1000.0) == pytest.approx(expected, rel=1e-12)

    def test_zero_energy_rejected(self):
        with pytest.raises(ZeroEnergyError):
            lcoe(1000.0, econ(), 0.0)

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            e = econ(
                vat_rate=float(rng.uniform(0.0, 0.25)),
                maintenance_rate=float(rng.uniform(0.0, 0.05)),
                discount_rate=float(rng.uniform(0.0, 0.15)),
                horizon_years=int(rng.integers(1, 31)),
                pv_degradation_rate=float(rng.uniform(0.0, 0.01)),
            )
            cap = float(rng.uniform(100.0, 20000.0))
            energy = float(rng.uniform(100.0, 20000.0))
            assert lcoe(cap, e, energy) == pytest.approx(
                reference_lcoe(cap, e, energy), rel=1e-12
            )


class TestLcou:
    def test_scr_one_reduces_to_lcoe(self):
        e = econ(discount_rate=0.07, maintenance_rate=0.01, pv_degradation_rate=0.005)
        assert lcou(4350.0, e, 4394.55, 1.0) == lcoe(4350.0, e, 4394.55)

    def test_half_scr_doubles_lcoe_at_zero_rate(self):
        e = econ()
        assert lcou(4350.0, e, 1000.0, 0.5) == pytest.approx(
            2.0 * lcoe(4350.0, e, 1000.0), rel=1e-12
        )

    def test_accepts_per_year_sequence(self):
        e = econ(horizon_years=3)
        by_year = lcou(1000.0, e, 1000.0, [0.5, 0.5, 0.5])
        assert by_year == pytest.approx(lcou(1000.0, e, 1000.0, 0.5), rel=1e-12)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            lcou(1000.0, econ(), 1000.0, [0.5, 0.5])

    def test_out_of_range_scr_rejected(self):
        with pytest.raises(ValueError):
            lcou(1000.0, econ(), 1000.0, 1.2)

    def test_zero_self_consumption_rejected(self):
        with pytest.raises(ZeroSelfConsumptionError):
            lcou(1000.0, econ(), 1000.0, 0.0)

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            e = econ(
                vat_rate=float(rng.uniform(0.0, 0.25)),
                maintenance_rate=float(rng.uniform(0.0, 0.05)),
                discount_rate=float(rng.uniform(0.0, 0.15)),
                horizon_years=int(rng.integers(1, 31)),
            )
            cap = float(rng.uniform(100.0, 20000.0))
            energy = float(rng.uniform(100.0, 20000.0))
            scr = rng.uniform(0.05, 1.0, e.horizon_years)
            assert lcou(cap, e, energy, scr) == pytest.approx(
                reference_lcou(cap, e, energy, list(scr)), rel=1e-12
            )

    def test_lcou_never_below_lcoe(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            e = econ(
                discount_rate=float(rng.uniform(0.0, 0.12)),
                maintenance_rate=float(rng.uniform(0.0, 0.03)),
                horizon_years=int(rng.integers(1, 26)),
            )
            cap = float(rng.uniform(500.0, 10000.0))
            energy = float(rng.uniform(500.0, 10000.0))
            scr = float(rng.uniform(0.05, 1.0))
            assert lcou(cap, e, energy, scr) >= lcoe(cap, e, energy) - 1e-15

    def test_strictly_decreasing_in_bess_price(self):
        for price_low, price_high in ((150.0, 500.0), (100.0, 101.0)):
            low = capex(3.0, 3.0, econ(bess_price_eur_per_kwh=price_low))
            high = capex(3.0, 3.0, econ(bess_price_eur_per_kwh=price_high))
            e = econ(discount_rate=0.07, maintenance_rate=0.01)
            assert lcou(low, e, 4000.0, 0.8) < lcou(high, e, 4000.0, 0.8)

    def test_uniform_scaling_invariance(self):
        e = econ(discount_rate=0.07, maintenance_rate=0.01)
        base = lcou(4350.0, e, 4000.0, 0.8)
        for k in (3.0, 0.25, 17.5):
            scaled = lcou(4350.0 * k, e, 4000.0 * k, 0.8)
            assert scaled == pytest.approx(base, rel=1e-12)


class TestNpvAndParity:
    def test_undiscounted_savings(self):
        e = econ()
        # 100 EUR/year avoided for 20 years with no costs
        assert npv(0.0, e, 1000.0, 0.1) == pytest.approx(2000.0, rel=1e-12)

    def test_break_even(self):
        e = econ()
        assert npv(2000.0, e, 1000.0, 0.1) == pytest.approx(0.0, abs=1e-9)

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(14)
        for _ in range(300):
            e = econ(
                vat_rate=float(rng.uniform(0.0, 0.25)),
                maintenance_rate=float(rng.uniform(0.0, 0.05)),
                discount_rate=float(rng.uniform(0.0, 0.15)),
                horizon_years=int(rng.integers(1, 31)),
            )
            cap = float(rng.uniform(100.0, 20000.0))
            self_consumed = rng.uniform(0.0, 8000.0, e.horizon_years)
            price = float(rng.uniform(0.05, 0.40))
            assert npv(cap, e, self_consumed, price) == pytest.approx(
                reference_npv(cap, e, list(self_consumed), price), rel=1e-12, abs=1e-9
            )

    def test_parity_strict_inequality(self):
        assert grid_parity(0.107, 0.19270) is True
        assert grid_parity(0.19270, 0.19270) is False
        assert grid_parity(0.205, 0.16814) is False

    def test_parity_requires_positive_inputs(self):
        with pytest.raises(ValueError):
            grid_parity(0.0, 0.2)
        with pytest.raises(ValueError):
            grid_parity(0.1, 0.0)

    def test_parity_iff_positive_npv_randomized(self):
        rng = np.random.default_rng(15)
        for _ in range(2000):
            e = econ(
                vat_rate=float(rng.uniform(0.0, 0.25)),
                maintenance_rate=float(rng.uniform(0.0, 0.04)),
                discount_rate=float(rng.uniform(0.0, 0.15)),
                horizon_years=int(rng.integers(1, 31)),
                pv_degradation_rate=float(rng.uniform(0.0, 0.01)),
            )
            cap = float(rng.uniform(100.0, 20000.0))
            energy = float(rng.uniform(100.0, 20000.0))
            scr = float(rng.uniform(0.05, 1.0))
            price = float(rng.uniform(0.05, 0.40))
            lcou_value = lcou(cap, e, energy, scr)
            self_consumed = energy * scr * (1.0 - e.pv_degradation_rate) ** np.arange(
                e.horizon_years
            )
            npv_value = npv(cap, e, self_consumed, price)
            if abs(lcou_value - price) > 1e-9 * price:
                assert grid_parity(lcou_value, price) == (npv_value > 0.0)


class TestFinancialResult:
    def test_composition_consistent(self):
        e = econ(discount_rate=0.07, maintenance_rate=0.01, vat_rate=0.19)
        result = financial_result(3.0, 3.0, e, 4394.55, 0.8, 0.19270)
        assert result.capex_eur == pytest.approx(capex(3.0, 3.0, e), rel=1e-12)
        assert result.lcou_eur_per_kwh >= result.lcoe_eur_per_kwh
        assert result.grid_parity == (result.npv_eur > 0.0)


def one_at_a_time(pv_kwp, bess_kwh, bess_price, vat, energy, scr, retail, base):
    """One system through the per-system formulas: its five values, or the exception."""
    e = replace(base, bess_price_eur_per_kwh=bess_price, vat_rate=vat)
    try:
        cap = capex(pv_kwp, bess_kwh, e)
        lcoe_value = lcoe(cap, e, energy)
        lcou_value = lcou(cap, e, energy, scr)
        npv_value = npv(cap, e, degraded_energy(energy, e) * scr, retail)
        return cap, lcoe_value, lcou_value, npv_value, grid_parity(lcou_value, retail)
    except ValueError as exc:
        return exc


def assert_batch_matches_one_at_a_time(rows, base):
    """Each row of financial_results is bit for bit (or raises as) the row priced alone."""
    batch = financial_results(*zip(*rows), base)
    assert set(batch.errors) <= set(range(len(rows)))
    for i, row in enumerate(rows):
        expected = one_at_a_time(*row, base)
        if isinstance(expected, Exception):
            got = batch.errors[i]
            assert (type(got), str(got)) == (type(expected), str(expected))
            with pytest.raises(type(expected), match=f"^{re.escape(str(expected))}$"):
                financial_result(*row[:2], replace(base, bess_price_eur_per_kwh=row[2],
                                                   vat_rate=row[3]), *row[4:])
            continue
        assert i not in batch.errors
        got = (batch.capex_eur[i], batch.lcoe_eur_per_kwh[i], batch.lcou_eur_per_kwh[i],
               batch.npv_eur[i], batch.grid_parity[i])
        assert [float(v).hex() for v in got[:4]] == [float(v).hex() for v in expected[:4]]
        assert bool(got[4]) is expected[4]
    return batch


class TestFinancialResults:
    def test_failing_rows_fail_alone_in_check_order(self):
        base = econ(discount_rate=0.07, maintenance_rate=0.01)
        ok = (3.0, 3.0, 150.0, 0.19, 4394.55, 0.8, 0.1927)
        rows = [
            ok,
            (-1.0, 3.0, 150.0, 0.19, 0.0, 2.0, 0.1927),   # negative size, before the rest
            (3.0, 3.0, 150.0, 0.19, 0.0, 0.8, 0.1927),    # no production
            (3.0, 3.0, 150.0, 0.19, 0.0, 2.0, 0.1927),    # no production, before the SCR
            (3.0, 3.0, 150.0, 0.19, 4394.55, 1.5, 0.1927),  # SCR above 1
            (3.0, 3.0, 150.0, 0.19, 4394.55, -0.1, 0.1927),  # SCR below 0
            (3.0, 3.0, 150.0, 0.19, 4394.55, 0.0, 0.1927),  # nothing self-consumed
            (0.0, 0.0, 150.0, 0.19, 4394.55, 0.8, 0.1927),  # LCOU 0
            (3.0, 3.0, 150.0, 0.19, 4394.55, 0.8, 0.0),   # no retail price
            ok,
        ]
        batch = assert_batch_matches_one_at_a_time(rows, base)
        assert [type(batch.errors.get(i)).__name__ for i in range(len(rows))] == [
            "NoneType", "ValueError", "ZeroEnergyError", "ZeroEnergyError", "ValueError",
            "ValueError", "ZeroSelfConsumptionError", "ValueError", "ValueError", "NoneType",
        ]
        assert str(batch.errors[2]) == "no energy produced over the horizon"
        # a discounted production that underflows to 0 is no production either
        tiny = (3.0, 3.0, 150.0, 0.19, 5e-324, 0.8, 0.1927)
        batch = assert_batch_matches_one_at_a_time([ok, tiny], econ(discount_rate=1.5))
        assert list(batch.errors) == [1] and isinstance(batch.errors[1], ZeroEnergyError)

    def test_empty_batch(self):
        batch = financial_results([], [], [], [], [], [], [], econ())
        assert batch.lcou_eur_per_kwh.shape == (0,) and batch.errors == {}

    @settings(max_examples=60, deadline=None)
    @given(
        discount=st.one_of(st.just(0.0), st.floats(0.0, 0.2)),
        horizon=st.integers(1, 40),
        degradation=st.floats(0.0, 0.05),
        maintenance=st.floats(0.0, 0.05),
        vat_override=st.one_of(st.none(), st.floats(0.0, 0.3)),
        rows=st.lists(
            st.tuples(
                st.integers(0, 12),          # PV kWp
                st.floats(0.0, 3.0),         # ratio kWh/kWp
                st.floats(0.0, 1000.0),      # BESS price
                st.floats(0.0, 0.3),         # country VAT
                st.floats(1.0, 20000.0),     # annual production
                st.floats(0.0, 1.0),         # SCR
                st.floats(0.01, 0.5),        # retail price
            ),
            min_size=1, max_size=12,
        ),
    )
    def test_rows_match_oracles(
        self, discount, horizon, degradation, maintenance, vat_override, rows
    ):
        base = econ(discount_rate=discount, horizon_years=horizon, pv_degradation_rate=degradation,
                    maintenance_rate=maintenance, vat_rate=vat_override)
        rows = [
            (kwp, kwp * ratio, price, vat if vat_override is None else vat_override, *rest)
            for kwp, ratio, price, vat, *rest in rows
        ]
        batch = assert_batch_matches_one_at_a_time(rows, base)
        for i, (_, _, _, vat, energy, scr, retail) in enumerate(rows):
            if i in batch.errors:
                continue
            e = replace(base, vat_rate=vat)
            cap = float(batch.capex_eur[i])
            used = [energy * scr * (1.0 - degradation) ** n for n in range(horizon)]
            npv_value = float(batch.npv_eur[i])
            assert float(batch.lcoe_eur_per_kwh[i]) == pytest.approx(
                reference_lcoe(cap, e, energy), rel=1e-12)
            assert float(batch.lcou_eur_per_kwh[i]) == pytest.approx(
                reference_lcou(cap, e, energy, [scr] * horizon), rel=1e-12)
            assert npv_value == pytest.approx(
                reference_npv(cap, e, used, retail), rel=1e-12, abs=1e-9 * cap)
            if abs(npv_value) > 1e-9 * (cap + retail * sum(used)):
                assert bool(batch.grid_parity[i]) == (npv_value > 0.0)


class TestCountryData:
    def test_packaged_table_values(self):
        data = load_country_data()
        assert list(data) == ["Cyprus", "France", "Greece", "Italy", "Portugal", "Spain"]
        assert data["Cyprus"].annual_yield_kwh_per_kwp == 1464.85
        assert data["Cyprus"].retail_price_eur_per_kwh == 0.19270
        assert data["France"].annual_yield_kwh_per_kwp == 981.08
        assert data["Italy"].retail_price_eur_per_kwh == 0.21957
        assert data["Spain"].annual_yield_kwh_per_kwp == 1591.61

    def test_csv_round_trip(self, tmp_path):
        text = (
            "country,retail_eur_per_kwh,annual_yield_kwh_per_kwp,vat_rate\n"
            "Atlantis,0.25,1500.0,0.10\n"
        )
        path = tmp_path / "countries.csv"
        path.write_text(text)
        data = load_country_data(path)
        assert data["Atlantis"].vat_rate == 0.10

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            parse_country_csv("nope\nCyprus,0.19,1464.85,0.19\n")

    def test_duplicate_country_rejected(self):
        text = (
            "country,retail_eur_per_kwh,annual_yield_kwh_per_kwp,vat_rate\n"
            "Cyprus,0.19,1464.85,0.19\nCyprus,0.20,1464.85,0.19\n"
        )
        with pytest.raises(ValueError):
            parse_country_csv(text)

    def test_bom_and_blank_lines_ignored_and_errors_name_the_physical_line(self):
        text = (
            "\ufeffcountry,retail_eur_per_kwh,annual_yield_kwh_per_kwp,vat_rate\r\n"
            "\r\n"
            " Cyprus , 0.19 ,1464.85,0.19\r\n"
        )
        assert parse_country_csv(text)["Cyprus"].retail_price_eur_per_kwh == 0.19
        with pytest.raises(ValueError, match="^line 4: could not convert"):
            parse_country_csv(text + "France,oops,981.08,0.20\n")
        with pytest.raises(ValueError, match="^line 4: France: retail price must be positive"):
            parse_country_csv(text + "France,0,981.08,0.20\n")

    def test_invalid_country_values_rejected(self):
        with pytest.raises(ValueError):
            CountryData(name="X", retail_price_eur_per_kwh=0.0,
                        annual_yield_kwh_per_kwp=1000.0, vat_rate=0.2)
        with pytest.raises(ValueError):
            CountryData(name="X", retail_price_eur_per_kwh=0.2,
                        annual_yield_kwh_per_kwp=-1.0, vat_rate=0.2)


class TestEconomicParams:
    def test_defaults(self):
        e = EconomicParams()
        assert e.pv_price_eur_per_kwp == 1300.0
        assert e.horizon_years == 20
        assert e.pv_degradation_rate == 0.0
        assert e.vat_rate is None and e.vat == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            EconomicParams(discount_rate=-0.01)
        with pytest.raises(ValueError):
            EconomicParams(horizon_years=0)
        with pytest.raises(ValueError):
            EconomicParams(maintenance_rate=1.0)
        with pytest.raises(ValueError):
            EconomicParams(vat_rate=1.5)
        with pytest.raises(ValueError):
            EconomicParams(pv_price_eur_per_kwp=-1.0)
