"""Acceptance suite.

One test per acceptance criterion; each prints a single PASS/FAIL line
(run with ``pytest -s tests/test_acceptance.py`` to see them live) and
asserts at the stated tolerance.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from _reference import random_dispatch_instance, reference_simulate
from _tables import rows
from storparity import (
    BatterySpec,
    EconomicParams,
    align,
    financial_result,
    load_country_data,
    simulate,
    simulate_series,
    synthesize_load_profile,
    synthesize_pv_profile,
)
from storparity.cli import main

RETAIL = {
    "Cyprus": 0.19270,
    "France": 0.16814,
    "Greece": 0.17405,
    "Italy": 0.21957,
    "Portugal": 0.20295,
    "Spain": 0.21780,
}
YIELDS = {
    "Cyprus": 1464.85,
    "France": 981.08,
    "Greece": 1368.45,
    "Italy": 1277.50,
    "Portugal": 1420.28,
    "Spain": 1591.61,
}


def _criterion(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"{status}: criterion {number} - {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def test_criterion_1_lcou_npv_identity(full_sweep, country_data):
    grid, results, sweep_elapsed = full_sweep
    start = time.perf_counter()

    mismatches = 0
    for r in rows(results):
        retail = country_data[r.country].retail_price_eur_per_kwh
        on_boundary = abs(r.lcou - retail) <= 1e-9 * retail
        if not on_boundary and r.grid_parity != (r.npv > 0.0):
            mismatches += 1

    rng = np.random.default_rng(20240803)
    for _ in range(10_000):
        econ = EconomicParams(
            vat_rate=float(rng.uniform(0.0, 0.25)),
            maintenance_rate=float(rng.uniform(0.0, 0.04)),
            discount_rate=float(rng.uniform(0.0, 0.15)),
            horizon_years=int(rng.integers(1, 31)),
            pv_degradation_rate=float(rng.uniform(0.0, 0.01)),
        )
        cap = float(rng.uniform(100.0, 20000.0))
        energy = float(rng.uniform(100.0, 20000.0))
        scr = float(rng.uniform(0.02, 1.0))
        price = float(rng.uniform(0.05, 0.40))
        # 1 kWp and no battery at a PV price of cap: a pre-VAT CAPEX of cap
        result = financial_result(
            1.0, 0.0, replace(econ, pv_price_eur_per_kwp=cap), energy, scr, price
        )
        on_boundary = abs(result.lcou_eur_per_kwh - price) <= 1e-9 * price
        if not on_boundary and result.grid_parity != (result.npv_eur > 0.0):
            mismatches += 1

    elapsed = sweep_elapsed + (time.perf_counter() - start)
    _criterion(
        1,
        "grid_parity equals npv > 0 over the 612-scenario sweep and 1e4 random cases",
        mismatches == 0 and elapsed < 10.0,
        f"mismatches={mismatches}, runtime={elapsed:.2f}s (< 10 s)",
    )


def test_criterion_2_closed_form_checks():
    flat = EconomicParams(
        bess_price_eur_per_kwh=150.0, vat_rate=0.0, maintenance_rate=0.0, discount_rate=0.0,
        horizon_years=20,
    )
    pv_only = financial_result(1.0, 0.0, flat, 1000.0, 0.5, 0.2)
    ok = pv_only.lcoe_eur_per_kwh == 1300.0 / (20 * 1000.0)
    ok = ok and pv_only.lcou_eur_per_kwh == 1300.0 / (20 * 1000.0 * 0.5)
    hybrid = financial_result(3.0, 3.0, flat, 1250.0, 1.0, 0.2)
    ok = ok and hybrid.capex_eur == 4350.0
    ok = ok and hybrid.lcou_eur_per_kwh == 4350.0 / (20 * 1250.0)

    rich = replace(flat, vat_rate=0.19, maintenance_rate=0.01, discount_rate=0.07,
                   pv_degradation_rate=0.005)
    result = financial_result(3.0, 3.0, rich, 4394.55, 1.0, 0.2)
    lcoe_value, lcou_value = result.lcoe_eur_per_kwh, result.lcou_eur_per_kwh
    ok = ok and result.capex_eur == 5176.5
    ok = ok and abs(lcou_value - lcoe_value) <= 1e-12 * lcoe_value
    _criterion(
        2,
        "r=0/C=0 closed forms hold exactly and SCR=1 forces LCOU=LCOE to 1e-12",
        ok,
        f"|LCOU-LCOE|={abs(lcou_value - lcoe_value):.2e}",
    )


def test_criterion_3_dispatch_oracle_and_conservation(full_sweep, country_data):
    fields = (
        "p_direct", "p_charge", "p_discharge_delivered",
        "p_import", "p_curtail", "soc_kwh",
    )
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(1000):
        pv, load, battery, step = random_dispatch_instance(rng)
        got = simulate_series(pv, load, battery, step)
        want = reference_simulate(pv, load, battery, step)
        for name in fields:
            diff = np.max(np.abs(getattr(got, name) - getattr(want, name)), initial=0.0)
            worst = max(worst, float(diff))
    oracle_ok = worst <= 1e-12

    grid, _, _ = full_sweep
    unique = {}
    for s in grid:
        unique.setdefault(
            (s.country, s.prosumer_type, s.pv_kwp, s.ratio_kwh_per_kwp), s
        )
    conservation_ok = True
    soc_ok = True
    for s in unique.values():
        country = country_data[s.country]
        load_p = synthesize_load_profile(s.annual_load_kwh)
        pv_p = synthesize_pv_profile(
            s.pv_kwp, country.annual_yield_kwh_per_kwp, step_hours=load_p.step_hours
        )
        pv_p, load_p = align(pv_p, load_p)
        battery = BatterySpec(capacity_kwh=s.bess_kwh)
        trace = simulate(pv_p, load_p, battery)
        pv_split = trace.p_direct + trace.p_charge + trace.p_curtail
        load_split = trace.p_direct + trace.p_discharge_delivered + trace.p_import
        if not (
            np.allclose(pv_split, trace.p_pv, rtol=1e-9, atol=1e-12)
            and np.allclose(load_split, trace.p_load, rtol=1e-9, atol=1e-12)
        ):
            conservation_ok = False
        if not (
            np.all(trace.soc_kwh >= battery.soc_min_kwh - 1e-12)
            and np.all(trace.soc_kwh <= battery.capacity_kwh + 1e-12)
        ):
            soc_ok = False
    _criterion(
        3,
        "production dispatch matches the naive reference to 1e-12; conservation "
        "identities and SOC bounds hold on every step of every sweep scenario",
        oracle_ok and conservation_ok and soc_ok,
        f"1000 random instances, max deviation {worst:.2e}; "
        f"{len(unique)} sweep dispatch configurations checked",
    )


def test_criterion_4_monotonicity_suite(full_sweep):
    _, results, _ = full_sweep
    by_key = {r[:5]: r for r in rows(results)}
    scr_ok = True
    price_ok = True
    for r in rows(results):
        if r.ratio_kwh_per_kwp == 0.5:
            mid = by_key[(r.country, r.prosumer_type, r.pv_kwp, 1.0, r.bess_price_eur_per_kwh)]
            big = by_key[(r.country, r.prosumer_type, r.pv_kwp, 2.0, r.bess_price_eur_per_kwh)]
            if not (r.scr <= mid.scr + 1e-12 and mid.scr <= big.scr + 1e-12):
                scr_ok = False
        if r.bess_price_eur_per_kwh == 150.0 and r.pv_kwp * r.ratio_kwh_per_kwp > 0.0:
            twin = by_key[(r.country, r.prosumer_type, r.pv_kwp, r.ratio_kwh_per_kwp, 500.0)]
            if not r.lcou < twin.lcou:
                price_ok = False
    _criterion(
        4,
        "SCR non-decreasing across BESS ratios 0.5/1/2 and LCOU strictly lower "
        "at 150 than 500 EUR/kWh whenever storage is present",
        scr_ok and price_ok,
    )


def test_criterion_5_qualitative_trends(full_sweep, country_data):
    _, table, _ = full_sweep
    results = rows(table)

    type_a_ok = True
    for country in RETAIL:
        for ratio in (0.5, 1.0, 2.0):
            for price in (500.0, 150.0):
                sizes = sorted(
                    (
                        r
                        for r in results
                        if r.country == country
                        and r.prosumer_type == "A"
                        and r.ratio_kwh_per_kwp == ratio
                        and r.bess_price_eur_per_kwh == price
                    ),
                    key=lambda r: r.pv_kwp,
                )
                lcous = [r.lcou for r in sizes]
                if any(b < a for a, b in zip(lcous, lcous[1:])):
                    type_a_ok = False

    france = [r for r in results if r.country == "France"]
    france_ok = len(france) == 102 and all(
        r.lcou > RETAIL["France"] and not r.grid_parity for r in france
    )

    medians = {
        country: float(
            np.median([r.lcou for r in results if r.country == country])
        )
        for country in RETAIL
    }
    median_ok = all(
        medians["France"] > value for name, value in medians.items() if name != "France"
    )

    _criterion(
        5,
        "type A LCOU non-decreasing in PV size; France above retail in 100% of "
        "scenarios at both BESS prices; France has the highest median LCOU",
        type_a_ok and france_ok and median_ok,
        f"France median {medians['France']:.4f}, "
        f"next {max(v for k, v in medians.items() if k != 'France'):.4f}",
    )


def test_criterion_6_table_fidelity():
    data = load_country_data()
    ok = list(data) == sorted(RETAIL)
    for name in RETAIL:
        ok = ok and data[name].retail_price_eur_per_kwh == RETAIL[name]
        ok = ok and data[name].annual_yield_kwh_per_kwp == YIELDS[name]
    _criterion(
        6,
        "shipped country CSV reproduces the reference retail prices and yields exactly",
        ok,
        "e.g. Cyprus 1464.85 kWh/kWp, Italy 0.21957 EUR/kWh",
    )


def test_criterion_7_performance_and_parallel_determinism(tmp_path):
    # cold-start measurement: nothing is memoized across sweeps
    serial_dir = tmp_path / "serial"
    parallel_dir = tmp_path / "parallel"
    start = time.perf_counter()
    code_serial = main(["sweep", "--out", str(serial_dir), "--parallel", "1"])
    serial_elapsed = time.perf_counter() - start
    code_parallel = main(["sweep", "--out", str(parallel_dir), "--parallel", "4"])

    files = ("results.csv", "parity_shares.csv", "box_stats.csv", "run-manifest.json")
    identical = all(
        (serial_dir / name).read_bytes() == (parallel_dir / name).read_bytes()
        for name in files
    )
    rows = len((serial_dir / "results.csv").read_text().strip().splitlines()) - 1
    box_rows = len((serial_dir / "box_stats.csv").read_text().strip().splitlines()) - 1
    _criterion(
        7,
        "full default sweep under 60 s with serial and parallel outputs byte-identical",
        code_serial == 0 and code_parallel == 0 and identical and rows == 612
        and box_rows == 12 and serial_elapsed < 60.0,
        f"serial {serial_elapsed:.2f}s for {rows} scenarios, {box_rows} box rows",
    )
