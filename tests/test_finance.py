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
    financial_result,
    financial_results,
    load_country_data,
    parse_country_csv,
)


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


def priced(cap, e, energy, scr=1.0, retail=1.0):
    """financial_result for 1 kWp and no battery at a PV price of cap (pre-VAT CAPEX)."""
    return financial_result(1.0, 0.0, replace(e, pv_price_eur_per_kwp=cap), energy, scr, retail)


class TestCapex:
    def test_no_vat(self):
        assert financial_result(3.0, 3.0, econ(), 1000.0, 1.0, 0.2).capex_eur == pytest.approx(
            4350.0)

    def test_with_vat(self):
        # 1 kWp at 1300 with 19% VAT
        assert financial_result(1.0, 0.0, econ(vat_rate=0.19), 1000.0, 1.0, 0.2).capex_eur == (
            pytest.approx(1547.0))

    def test_zero_system(self):
        batch = financial_results([0.0], [0.0], [150.0], [0.0], [1000.0], [1.0], [0.2], econ())
        assert batch.capex_eur[0] == 0.0
        assert str(batch.errors[0]) == "grid parity needs positive LCOU and retail price"

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError, match="^system sizes must be >= 0$"):
            financial_result(-1.0, 0.0, econ(), 1000.0, 1.0, 0.2)

    def test_maintenance_uses_pre_vat_capex(self):
        # 1547 EUR incl. VAT, 13 EUR a year (1% of 1300) for 20 years, undiscounted
        e = econ(vat_rate=0.19, maintenance_rate=0.01)
        result = financial_result(1.0, 0.0, e, 1000.0, 1.0, 0.2)
        assert result.lcoe_eur_per_kwh == pytest.approx((1547.0 + 20 * 13.0) / 20000.0)


class TestLcoe:
    def test_zero_rate_no_maintenance_closed_form(self):
        assert priced(1300.0, econ(), 1000.0).lcoe_eur_per_kwh == 1300.0 / 20000.0

    def test_single_year_discounting(self):
        e = econ(discount_rate=0.05, horizon_years=1)
        assert priced(1000.0, e, 1000.0).lcoe_eur_per_kwh == pytest.approx(1.05, rel=1e-12)

    def test_constant_maintenance_closed_form_at_zero_rate(self):
        e = econ(maintenance_rate=0.02)
        annual_cost = 0.02 * 5000.0
        expected = (5000.0 + 20 * annual_cost) / (20 * 1000.0)
        assert priced(5000.0, e, 1000.0).lcoe_eur_per_kwh == pytest.approx(expected, rel=1e-12)

    def test_zero_energy_rejected(self):
        with pytest.raises(ZeroEnergyError):
            priced(1000.0, econ(), 0.0)

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
            result = priced(cap, e, energy)
            assert result.lcoe_eur_per_kwh == pytest.approx(
                reference_lcoe(result.capex_eur, e, energy), rel=1e-12
            )


class TestLcou:
    def test_scr_one_reduces_to_lcoe(self):
        e = econ(discount_rate=0.07, maintenance_rate=0.01, pv_degradation_rate=0.005)
        result = priced(4350.0, e, 4394.55, 1.0)
        assert result.lcou_eur_per_kwh == result.lcoe_eur_per_kwh

    def test_half_scr_doubles_lcoe_at_zero_rate(self):
        result = priced(4350.0, econ(), 1000.0, 0.5)
        assert result.lcou_eur_per_kwh == pytest.approx(2.0 * result.lcoe_eur_per_kwh, rel=1e-12)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match=r"^columns must be 1-D and of one length, got shapes "
                                             r"\(1,\), \(1,\), \(1,\), \(1,\), \(1,\), \(2,\)"):
            financial_results([3.0], [3.0], [150.0], [0.0], [1000.0], [0.5, 0.5], [0.2], econ())

    def test_out_of_range_scr_rejected(self):
        for scr in (1.2, -0.1, float("nan")):
            with pytest.raises(ValueError, match=r"^SCR values must lie in \[0, 1\]$"):
                priced(1000.0, econ(), 1000.0, scr)

    def test_zero_self_consumption_rejected(self):
        with pytest.raises(ZeroSelfConsumptionError):
            priced(1000.0, econ(), 1000.0, 0.0)

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
            scr = float(rng.uniform(0.05, 1.0))
            result = priced(cap, e, energy, scr)
            assert result.lcou_eur_per_kwh == pytest.approx(
                reference_lcou(result.capex_eur, e, energy, [scr] * e.horizon_years), rel=1e-12
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
            result = priced(cap, e, energy, scr)
            assert result.lcou_eur_per_kwh >= result.lcoe_eur_per_kwh - 1e-15

    def test_strictly_decreasing_in_bess_price(self):
        for price_low, price_high in ((150.0, 500.0), (100.0, 101.0)):
            low, high = (
                financial_result(3.0, 3.0, econ(bess_price_eur_per_kwh=price, discount_rate=0.07,
                                                maintenance_rate=0.01), 4000.0, 0.8, 0.2)
                for price in (price_low, price_high)
            )
            assert low.lcou_eur_per_kwh < high.lcou_eur_per_kwh

    def test_uniform_scaling_invariance(self):
        e = econ(discount_rate=0.07, maintenance_rate=0.01)
        base = priced(4350.0, e, 4000.0, 0.8).lcou_eur_per_kwh
        for k in (3.0, 0.25, 17.5):
            scaled = priced(4350.0 * k, e, 4000.0 * k, 0.8).lcou_eur_per_kwh
            assert scaled == pytest.approx(base, rel=1e-12)


class TestNpvAndParity:
    def test_undiscounted_savings(self):
        # 100 EUR/year avoided for 20 years, less a CAPEX of 1000 and no other costs
        assert priced(1000.0, econ(), 1000.0, 1.0, 0.1).npv_eur == pytest.approx(1000.0, rel=1e-12)

    def test_break_even(self):
        assert priced(2000.0, econ(), 1000.0, 1.0, 0.1).npv_eur == pytest.approx(0.0, abs=1e-9)

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(14)
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
            scr = float(rng.uniform(0.05, 1.0))
            price = float(rng.uniform(0.05, 0.40))
            result = priced(cap, e, energy, scr, price)
            used = [energy * scr * (1.0 - e.pv_degradation_rate) ** n
                    for n in range(e.horizon_years)]
            assert result.npv_eur == pytest.approx(
                reference_npv(result.capex_eur, e, used, price), rel=1e-12, abs=1e-9
            )

    def test_parity_strict_inequality(self):
        # LCOU = 1300 / 20000 = 0.065 EUR/kWh
        assert priced(1300.0, econ(), 1000.0, 1.0, 0.19270).grid_parity is True
        assert priced(1300.0, econ(), 1000.0, 1.0, 0.065).grid_parity is False
        assert priced(1300.0, econ(), 1000.0, 1.0, 0.05).grid_parity is False

    def test_parity_requires_positive_inputs(self):
        message = "^grid parity needs positive LCOU and retail price$"
        with pytest.raises(ValueError, match=message):
            financial_result(0.0, 0.0, econ(), 1000.0, 1.0, 0.2)
        with pytest.raises(ValueError, match=message):
            priced(1300.0, econ(), 1000.0, 1.0, 0.0)

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
            result = priced(cap, e, energy, scr, price)
            if abs(result.lcou_eur_per_kwh - price) > 1e-9 * price:
                assert result.grid_parity == (result.npv_eur > 0.0)


class TestFinancialResult:
    def test_composition_consistent(self):
        e = econ(discount_rate=0.07, maintenance_rate=0.01, vat_rate=0.19)
        result = financial_result(3.0, 3.0, e, 4394.55, 0.8, 0.19270)
        assert result.capex_eur == pytest.approx(4350.0 * 1.19, rel=1e-12)
        assert result.lcou_eur_per_kwh >= result.lcoe_eur_per_kwh
        assert result.grid_parity == (result.npv_eur > 0.0)


def one_at_a_time(pv_kwp, bess_kwh, bess_price, vat, energy, scr, retail, base):
    """One system passed alone through financial_result: its result, or the exception.

    A BESS price or VAT that EconomicParams rejects is the system's exception too.
    """
    try:
        e = replace(base, bess_price_eur_per_kwh=bess_price, vat_rate=vat)
        return financial_result(pv_kwp, bess_kwh, e, energy, scr, retail)
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
            continue
        assert i not in batch.errors
        got = (batch.capex_eur[i], batch.lcoe_eur_per_kwh[i], batch.lcou_eur_per_kwh[i],
               batch.npv_eur[i])
        want = (expected.capex_eur, expected.lcoe_eur_per_kwh, expected.lcou_eur_per_kwh,
                expected.npv_eur)
        assert [float(v).hex() for v in got] == [v.hex() for v in want]
        assert bool(batch.grid_parity[i]) is expected.grid_parity
    return batch


class TestFinancialResults:
    def test_failing_rows_fail_alone_in_check_order(self):
        base = econ(discount_rate=0.07, maintenance_rate=0.01)
        ok = (3.0, 3.0, 150.0, 0.19, 4394.55, 0.8, 0.1927)
        nan = float("nan")
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
            (3.0, 3.0, 150.0, 0.19, 4394.55, nan, 0.1927),  # NaN SCR
            (3.0, nan, 150.0, 0.19, 4394.55, nan, 0.1927),  # NaN size, before the SCR
            (3.0, 3.0, 150.0, 0.19, 4394.55, 0.8, nan),   # NaN retail price
            (3.0, 3.0, nan, 0.19, 4394.55, 0.8, 0.1927),  # NaN BESS price
            (3.0, 3.0, float("inf"), 0.19, 4394.55, 0.8, 0.1927),  # infinite BESS price
            (-1.0, 3.0, -5.0, 0.19, 0.0, 2.0, 0.1927),    # negative BESS price, before the rest
            (3.0, 3.0, 150.0, nan, 4394.55, 0.8, 0.1927),  # NaN VAT
            (3.0, 3.0, -5.0, 1.5, 4394.55, 0.8, 0.1927),  # negative price, before the VAT
            (3.0, 3.0, 150.0, 1.5, 4394.55, 0.8, 0.1927),  # VAT of 1.5
            (3.0, 3.0, 150.0, -0.1, 4394.55, 0.8, 0.1927),  # negative VAT
            ok,
        ]
        batch = assert_batch_matches_one_at_a_time(rows, base)
        assert [type(batch.errors.get(i)).__name__ for i in range(len(rows))] == [
            "NoneType", "ValueError", "ZeroEnergyError", "ZeroEnergyError", "ValueError",
            "ValueError", "ZeroSelfConsumptionError", "ValueError", "ValueError", "ValueError",
            "ValueError", "ValueError", *["ValueError"] * 7, "NoneType",
        ]
        assert str(batch.errors[2]) == "no energy produced over the horizon"
        assert str(batch.errors[9]) == "SCR values must lie in [0, 1]"
        assert str(batch.errors[10]) == "system sizes must be >= 0"
        assert str(batch.errors[11]) == "grid parity needs positive LCOU and retail price"
        assert [str(batch.errors[i]) for i in range(12, 19)] == [
            "bess_price_eur_per_kwh must be finite, got nan",
            "bess_price_eur_per_kwh must be finite, got inf",
            "unit prices must be >= 0",
            "vat_rate must be finite, got nan",
            "unit prices must be >= 0",
            "vat_rate must be in [0, 1), got 1.5",
            "vat_rate must be in [0, 1), got -0.1",
        ]
        # a discounted production that underflows to 0 is no production either
        tiny = (3.0, 3.0, 150.0, 0.19, 5e-324, 0.8, 0.1927)
        batch = assert_batch_matches_one_at_a_time([ok, tiny], econ(discount_rate=1.5))
        assert list(batch.errors) == [1] and isinstance(batch.errors[1], ZeroEnergyError)
        # columns that are not 1-D or differ in length fail the whole call
        message = r"^columns must be 1-D and of one length, got shapes "
        with pytest.raises(ValueError, match=message + r"\(3,\), \(1,\), \(3,\), "):
            financial_results([1, 2, 3], [1.0], *([[1.0] * 3] * 5), base)
        with pytest.raises(ValueError, match=message + r"\(1, 1\), "):
            financial_results(*([[[1.0]]] * 7), base)
        with pytest.raises(ValueError, match=message + r"\(\), "):
            financial_results(*([1.0] * 7), base)

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
