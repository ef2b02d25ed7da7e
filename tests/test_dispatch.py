import math
from dataclasses import astuple, fields

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from _reference import random_dispatch_instance, reference_flow_sum, reference_simulate
from storparity import (
    BatterySpec,
    ProfileKind,
    TimeSeriesProfile,
    UnalignedProfilesError,
    ZeroProductionError,
    align,
    annual_balance,
    scr_no_storage,
    simulate,
    simulate_series,
    synthesize_load_profile,
    synthesize_pv_profile,
    trace_to_csv,
)
from storparity.dispatch import (
    _RUN,
    _SUB,
    _WIDTH,
    TRACE_CSV_HEADER,
    DispatchTrace,
    simulate_balances,
)
from storparity.sweep import ANNUAL_LOAD_KWH, DEFAULT_RATIOS, PV_RANGE_KWP

SQRT_RT = math.sqrt(0.9)

# Regression fixture: storage-free SCR of the shipped default profiles for
# Cyprus at 1 kWp / 4500 kWh per year (value is profile-dependent).
SCR_NO_STORAGE_CYPRUS_1KWP = 0.887872045803


def lossless_battery(capacity=2.0):
    return BatterySpec(
        capacity_kwh=capacity, usable_fraction=1.0, eta_charge=1.0, eta_discharge=1.0
    )


class TestBatterySpec:
    def test_defaults(self):
        spec = BatterySpec(capacity_kwh=4.0)
        assert spec.usable_fraction == 0.9
        assert spec.eta_charge == pytest.approx(SQRT_RT)
        assert spec.round_trip_efficiency == pytest.approx(0.9)
        assert spec.max_charge_kw == 2.0  # 0.5C
        assert spec.max_discharge_kw == 2.0
        assert spec.soc_min_kwh == pytest.approx(0.4)

    def test_zero_capacity_is_legal(self):
        spec = BatterySpec(capacity_kwh=0.0)
        assert spec.soc_min_kwh == 0.0
        assert spec.max_charge_kw == 0.0

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            BatterySpec(capacity_kwh=-1.0)
        with pytest.raises(ValueError):
            BatterySpec(capacity_kwh=1.0, usable_fraction=0.0)
        with pytest.raises(ValueError):
            BatterySpec(capacity_kwh=1.0, eta_charge=1.2)


class TestSimulateExamples:
    def test_lossless_two_step_balance(self):
        trace = simulate_series([2.0, 0.0], [1.0, 1.0], lossless_battery(), 1.0)
        assert trace.p_direct.tolist() == [1.0, 0.0]
        assert trace.p_charge.tolist() == [1.0, 0.0]
        assert trace.p_discharge_delivered.tolist() == [0.0, 1.0]
        assert trace.p_import.tolist() == [0.0, 0.0]
        assert trace.p_curtail.tolist() == [0.0, 0.0]
        assert trace.soc_kwh.tolist() == [1.0, 0.0]

    def test_lossy_two_step_hand_traced(self):
        # eta_charge = eta_discharge = sqrt(0.9): the 1 kWh surplus stores
        # 0.94868 kWh, of which 0.9 kWh can be delivered; 0.1 kWh imported.
        battery = BatterySpec(
            capacity_kwh=2.0, usable_fraction=1.0, eta_charge=SQRT_RT, eta_discharge=SQRT_RT
        )
        trace = simulate_series([2.0, 0.0], [1.0, 1.0], battery, 1.0)
        assert trace.soc_kwh[0] == pytest.approx(0.9486832980505138, abs=1e-12)
        assert trace.p_discharge_delivered[1] == pytest.approx(0.9, abs=1e-12)
        assert trace.p_import[1] == pytest.approx(0.1, abs=1e-12)
        reference = reference_simulate([2.0, 0.0], [1.0, 1.0], battery, 1.0)
        assert np.array_equal(trace.soc_kwh, reference.soc_kwh)

    def test_zero_capacity_curtails_and_imports_everything(self):
        pv = [3.0, 0.0, 1.0]
        load = [1.0, 2.0, 1.0]
        trace = simulate_series(pv, load, BatterySpec(capacity_kwh=0.0), 1.0)
        assert np.all(trace.p_charge == 0.0)
        assert np.all(trace.p_discharge_delivered == 0.0)
        assert trace.p_curtail.tolist() == [2.0, 0.0, 0.0]
        assert trace.p_import.tolist() == [0.0, 2.0, 0.0]

    def test_unaligned_profiles_rejected(self):
        with pytest.raises(UnalignedProfilesError):
            simulate_series([1.0, 2.0], [1.0], BatterySpec(0.0), 1.0)
        pv = synthesize_pv_profile(1.0, 1464.85, step_hours=1.0)
        quarter = TimeSeriesProfile(
            step_hours=0.25, values=np.full(35040, 0.5), kind=ProfileKind.LOAD
        )
        with pytest.raises(UnalignedProfilesError):
            simulate(pv, quarter, BatterySpec(0.0))


class TestAnnualBalance:
    def test_lossless_example_rates(self):
        trace = simulate_series([2.0, 0.0], [1.0, 1.0], lossless_battery(), 1.0)
        balance = annual_balance(trace, 1.0)
        assert balance.scr == 1.0
        assert balance.ssr == 1.0
        assert balance.e_curtail == 0.0

    def test_lossy_example_rates(self):
        battery = BatterySpec(
            capacity_kwh=2.0, usable_fraction=1.0, eta_charge=SQRT_RT, eta_discharge=SQRT_RT
        )
        trace = simulate_series([2.0, 0.0], [1.0, 1.0], battery, 1.0)
        balance = annual_balance(trace, 1.0)
        assert balance.scr == pytest.approx(0.95, abs=1e-12)
        assert balance.ssr == pytest.approx(0.95, abs=1e-12)
        assert balance.e_charged == pytest.approx(1.0, abs=1e-12)
        assert balance.e_delivered == pytest.approx(0.9, abs=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 7, 8, _RUN - 1, _RUN, _RUN + 1, 1001, 8760, 35040])
    def test_flows_summed_by_the_rule(self, n):
        # zero-padded runs of _RUN, each in eight partial sums, the runs added in order
        flows = random_rows(np.random.default_rng(n), 4, n, 5.0)
        zero = np.zeros(n)
        balance = annual_balance(DispatchTrace(zero, zero, zero, *flows, zero), 0.25)
        got = (balance.e_charged, balance.e_delivered, balance.e_import, balance.e_curtail)
        for total, flow in zip(got, flows):
            assert total.hex() == (reference_flow_sum(flow, _RUN) * 0.25).hex()
            assert total == pytest.approx(math.fsum(flow) * 0.25, rel=1e-13, abs=0.0)

    def test_zero_pv_year(self):
        trace = simulate_series([0.0, 0.0], [1.0, 2.0], BatterySpec(5.0), 1.0)
        balance = annual_balance(trace, 1.0)
        assert balance.scr == 0.0
        assert balance.ssr == 0.0
        assert balance.e_import == pytest.approx(balance.e_consumed)


class TestScrNoStorage:
    def test_constant_ratio(self):
        pv = TimeSeriesProfile(1.0, np.full(8760, 2.0), ProfileKind.PV)
        load = TimeSeriesProfile(1.0, np.full(8760, 1.0), ProfileKind.LOAD)
        assert scr_no_storage(pv, load) == pytest.approx(0.5, rel=1e-12)

    def test_load_always_covers_pv(self):
        pv = synthesize_pv_profile(1.0, 1000.0)
        load = TimeSeriesProfile(1.0, np.full(8760, 50.0), ProfileKind.LOAD)
        assert scr_no_storage(pv, load) == pytest.approx(1.0, rel=1e-12)

    def test_zero_production_rejected(self):
        pv = TimeSeriesProfile(1.0, np.zeros(8760), ProfileKind.PV)
        load = synthesize_load_profile(4500.0)
        with pytest.raises(ZeroProductionError):
            scr_no_storage(pv, load)

    def test_cyprus_default_fixture(self):
        load = synthesize_load_profile(4500.0)
        pv = synthesize_pv_profile(1.0, 1464.85, step_hours=load.step_hours)
        pv, load = align(pv, load)
        value = scr_no_storage(pv, load)
        # brute-force oracle on the raw arrays
        oracle = float(
            np.minimum(pv.values, load.values).sum() / pv.values.sum()
        )
        assert value == pytest.approx(oracle, rel=1e-12)
        assert 0.0 < value < 1.0
        assert value == pytest.approx(SCR_NO_STORAGE_CYPRUS_1KWP, rel=1e-9)


class TestDispatchProperties:
    N_RANDOM = 400

    def test_reference_equivalence_random_instances(self):
        rng = np.random.default_rng(2024)
        fields = (
            "p_direct", "p_charge", "p_discharge_delivered",
            "p_import", "p_curtail", "soc_kwh",
        )
        for _ in range(self.N_RANDOM):
            pv, load, battery, step = random_dispatch_instance(rng)
            trace = simulate_series(pv, load, battery, step)
            reference = reference_simulate(pv, load, battery, step)
            for name in fields:
                got = getattr(trace, name)
                want = getattr(reference, name)
                assert np.max(np.abs(got - want), initial=0.0) <= 1e-12

    def test_conservation_and_soc_bounds(self):
        rng = np.random.default_rng(99)
        for _ in range(self.N_RANDOM):
            pv, load, battery, step = random_dispatch_instance(rng)
            trace = simulate_series(pv, load, battery, step)
            lhs_pv = trace.p_direct + trace.p_charge + trace.p_curtail
            lhs_load = trace.p_direct + trace.p_discharge_delivered + trace.p_import
            assert np.allclose(lhs_pv, trace.p_pv, rtol=1e-9, atol=1e-12)
            assert np.allclose(lhs_load, trace.p_load, rtol=1e-9, atol=1e-12)
            assert np.all(trace.soc_kwh >= battery.soc_min_kwh - 1e-12)
            assert np.all(trace.soc_kwh <= battery.capacity_kwh + 1e-12)
            assert np.all(trace.p_charge >= 0.0)
            assert np.all(trace.p_discharge_delivered >= 0.0)

    def test_scr_monotone_in_capacity(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            n = int(rng.integers(8, 72))
            step = float(rng.choice([0.25, 1.0]))
            pv = rng.uniform(0.0, 5.0, n)
            load = rng.uniform(0.0, 4.0, n)
            if pv.sum() == 0.0:
                continue
            caps = sorted(rng.uniform(0.0, 10.0, 2))
            scrs = []
            for cap in caps:
                battery = BatterySpec(
                    capacity_kwh=float(cap),
                    usable_fraction=0.9,
                    max_charge_kw=2.0,
                    max_discharge_kw=2.0,
                )
                trace = simulate_series(pv, load, battery, step)
                scrs.append(annual_balance(trace, step).scr)
            assert scrs[1] >= scrs[0] - 1e-12

    def test_scr_with_battery_at_least_no_storage_baseline(self):
        load = synthesize_load_profile(4500.0)
        pv = synthesize_pv_profile(2.0, 1464.85, step_hours=load.step_hours)
        pv, load = align(pv, load)
        baseline = scr_no_storage(pv, load)
        for capacity in (0.0, 1.0, 4.0):
            trace = simulate(pv, load, BatterySpec(capacity_kwh=capacity))
            scr = annual_balance(trace, load.step_hours).scr
            assert scr >= baseline - 1e-12
            if capacity == 0.0:
                assert scr == pytest.approx(baseline, rel=1e-12)

    def test_determinism_bit_identical(self):
        load = synthesize_load_profile(7500.0)
        pv = synthesize_pv_profile(3.0, 1368.45, step_hours=load.step_hours)
        pv, load = align(pv, load)
        battery = BatterySpec(capacity_kwh=3.0)
        a = simulate(pv, load, battery)
        b = simulate(pv, load, battery)
        assert np.array_equal(a.soc_kwh, b.soc_kwh)
        assert np.array_equal(a.p_import, b.p_import)


@st.composite
def batteries(draw):
    capacity = draw(st.sampled_from([0.0, 4.0]) | st.floats(0.1, 12.0))
    usable = draw(st.floats(0.3, 1.0))
    limit = st.none() | st.just(0.0) | st.floats(0.0, 4.0)  # drawn apart: asymmetric
    return BatterySpec(
        capacity_kwh=capacity,
        usable_fraction=usable,
        eta_charge=draw(st.floats(0.7, 1.0)),
        eta_discharge=draw(st.floats(0.7, 1.0)),
        max_charge_kw=draw(limit),
        max_discharge_kw=draw(limit),
    )


def random_rows(rng, count, n, scale):
    rows = rng.uniform(0.0, scale, (count, n))
    rows[rng.uniform(size=(count, n)) < 0.2] = 0.0
    rows[rng.uniform(size=(count, n)) < 0.1] = -0.0
    return list(rows)


@st.composite
def batches(draw):
    """Rows of any length (mostly not a multiple of a summation run) and configs on them.

    The rows hold 0.0, -0.0 and, between every pv and load row, exact ties.
    """
    n = draw(st.integers(0, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pv_rows = random_rows(rng, draw(st.integers(1, 3)), n, 5.0)
    load_rows = random_rows(rng, draw(st.integers(1, 3)), n, 4.0)
    for i, load in enumerate(load_rows):
        pv = pv_rows[i % len(pv_rows)]
        load[i::7] = pv[i::7]
    configs = draw(st.lists(
        st.tuples(st.integers(0, len(pv_rows) - 1), st.integers(0, len(load_rows) - 1),
                  batteries()),
        min_size=1, max_size=8,
    ))
    return pv_rows, load_rows, configs, draw(st.sampled_from([0.25, 1 / 3, 1.0]))


#: A battery that never fills or empties on long_batches() rows, after their
#: leading surplus step charges it to 0.14 to 0.57 of capacity at its charge
#: limit (the rest is at most 5 kW for 2000 h): pass 1's guess for a chunk's
#: start is never right, and no run resynchronizes.
NEVER_CLAMPS = BatterySpec(1e5, usable_fraction=1.0, max_charge_kw=6e4)


def long_rows(rng, pv_count, load_count, n):
    """pv and load rows of n steps; the first step's surplus fills NEVER_CLAMPS part way."""
    pv_rows = random_rows(rng, pv_count, n, 5.0)
    load_rows = random_rows(rng, load_count, n, 4.0)
    for pv in pv_rows:
        pv[:1] = NEVER_CLAMPS.max_charge_kw + 4.0
    return pv_rows, load_rows


@st.composite
def long_batches(draw):
    """Rows of up to 2000 steps, most ending in a padded run, and 1-8 configs."""
    n = draw(st.sampled_from([_RUN - 1, _RUN, _RUN + 1, 129, 1000, 1001]) | st.integers(0, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pv_rows, load_rows = long_rows(rng, draw(st.integers(1, 2)), draw(st.integers(1, 2)), n)
    configs = draw(st.lists(
        st.tuples(st.integers(0, len(pv_rows) - 1), st.integers(0, len(load_rows) - 1),
                  batteries() | st.just(NEVER_CLAMPS)),
        min_size=1, max_size=8,
    ))
    return pv_rows, load_rows, configs, draw(st.sampled_from([0.25, 1.0]))


def wide_batch(n, k, step=1.0):
    """k configs on two pv and two load rows of n steps, for the kernel's chunking edges."""
    pv_rows, load_rows = long_rows(np.random.default_rng(n * 1000 + k), 2, 2, n)
    kinds = [NEVER_CLAMPS, BatterySpec(0.0), BatterySpec(3.0),
             BatterySpec(7.5, usable_fraction=0.6, max_charge_kw=1.0, eta_discharge=0.8)]
    configs = [(i % 2, i // 2 % 2, kinds[i % len(kinds)]) for i in range(k)]
    return pv_rows, load_rows, configs, step


def bits(balance):
    """The hex of every field and of SCR and SSR."""
    return [float(v).hex() for v in (*astuple(balance), balance.scr, balance.ssr)]


def check_rates(balance, load, step):
    """e_consumed is the load's numpy sum, and SSR divides by it, bit for bit."""
    assert balance.e_consumed == float(load.sum() * step)
    if balance.e_consumed > 0.0:
        used = balance.e_direct + balance.e_delivered
        assert balance.ssr == used / balance.e_consumed


def trace_bits(trace):
    """Each array's bytes, with -0.0 read as 0.0.

    The reference's Python max() keeps -0.0 in max(-0.0 - 0.0, 0.0) where
    np.maximum returns 0.0, so only the sign of a zero may differ.
    """
    return {f.name: (getattr(trace, f.name) + 0.0).tobytes() for f in fields(trace)}


class TestTraceMatchesReference:
    @settings(max_examples=80, deadline=None)
    @given(batches())
    def test_every_array_bit_for_bit(self, batch):
        pv_rows, load_rows, configs, step = batch
        for p, l, battery in configs:
            got = simulate_series(pv_rows[p], load_rows[l], battery, step)
            want = reference_simulate(pv_rows[p], load_rows[l], battery, step)
            assert trace_bits(got) == trace_bits(want)
            assert np.all(battery.soc_min_kwh <= got.soc_kwh)
            assert np.all(got.soc_kwh <= battery.capacity_kwh)


class TestSimulateBalances:
    @settings(max_examples=80, deadline=None)
    @given(batches())
    def test_matches_reference_per_row(self, batch):
        pv_rows, load_rows, configs, step = batch
        balances = simulate_balances(pv_rows, load_rows, configs, step)
        assert len(balances) == len(configs)
        for (p, l, battery), got in zip(configs, balances):
            ref = reference_simulate(pv_rows[p], load_rows[l], battery, step)
            want = annual_balance(ref, step)
            assert astuple(got) == pytest.approx(astuple(want), rel=1e-12, abs=1e-12)
            # and bit for bit what the trace path reports
            scalar = annual_balance(simulate_series(pv_rows[p], load_rows[l], battery, step), step)
            assert bits(got) == bits(scalar)
            for balance in (got, scalar):
                check_rates(balance, load_rows[l], step)

    @settings(max_examples=25, deadline=None)
    @given(long_batches())
    # 8760 steps make 122 runs: 9 configs step 61 chunks of 2 runs
    @example(wide_batch(8760, 9))
    # 900 steps make 13 runs: _WIDTH / 4 configs step 4 chunks of 4, the last 3 past the year's end
    @example(wide_batch(900, _WIDTH // 4, 0.25))
    # 1001 steps make 14 runs: _WIDTH / 2 configs step 2 chunks of 7, and one more the year in one
    @example(wide_batch(1001, _WIDTH // 2))
    @example(wide_batch(1001, _WIDTH // 2 + 1))
    def test_long_rows_match_the_trace_path_bit_for_bit(self, batch):
        # up to 2000 steps: up to 28 runs of _RUN, cut into up to 28 chunks
        pv_rows, load_rows, configs, step = batch
        balances = simulate_balances(pv_rows, load_rows, configs, step)
        for (p, l, battery), got in zip(configs, balances):
            scalar = annual_balance(simulate_series(pv_rows[p], load_rows[l], battery, step), step)
            assert bits(got) == bits(scalar)
            for balance in (got, scalar):
                check_rates(balance, load_rows[l], step)
            reference = reference_simulate(pv_rows[p], load_rows[l], battery, step)
            want = annual_balance(reference, step)
            assert astuple(got) == pytest.approx(astuple(want), rel=1e-12, abs=1e-12)

    def test_repair_walk_crosses_whole_chunks(self):
        # 1001 steps make 14 runs; _WIDTH / 4 configs step 4 chunks of 4 runs side by
        # side, the last half past the year's end. The first step's surplus charges each
        # battery at its own limit, and none then fills or empties, so no chunk after
        # the first starts where pass 1 guessed and pass 2 steps every later run again.
        rng = np.random.default_rng(11)
        pv, load = rng.uniform(0.0, 2.0, 1001), rng.uniform(0.0, 2.0, 1001)
        pv[0] = 1e4
        count = _WIDTH // 4
        configs = [
            (0, 0, BatterySpec(1e4, usable_fraction=1.0, max_charge_kw=3e3 + 3200.0 * i / count,
                               max_discharge_kw=1.5 - i / count))
            for i in range(count)
        ]
        assert _WIDTH // len(configs) == 4
        balances = simulate_balances([pv], [load], configs, 1.0)
        for (_, _, battery), got in zip(configs, balances):
            trace = simulate_series(pv, load, battery, 1.0)
            assert battery.soc_min_kwh < trace.soc_kwh.min()
            assert trace.soc_kwh.max() < battery.capacity_kwh
            assert bits(got) == bits(annual_balance(trace, 1.0))

    def test_full_battery_clamped_like_the_trace_path(self):
        battery = BatterySpec(3.15, usable_fraction=1.0, eta_charge=0.84, max_charge_kw=10.0)
        cap, eta = battery.capacity_kwh, battery.eta_charge
        # a first charge to s after which s + ((cap - s) / eta) * eta rounds above cap
        first = next(e for e in np.arange(1.0, 3.0, 1 / 64).tolist()
                     if e * eta + ((cap - e * eta) / eta) * eta > cap)
        pv, load = np.array([first, 5.0, 5.0, 0.0]), np.array([0.0, 0.0, 0.0, 4.0])
        trace = simulate_series(pv, load, battery, 1.0)
        assert trace.soc_kwh[0] == first * eta and trace.soc_kwh[1] == cap  # the clamp acted
        got = simulate_balances([pv], [load], [(0, 0, battery)], 1.0)[0]
        assert bits(got) == bits(annual_balance(trace, 1.0))

    @pytest.mark.parametrize("edge", [_SUB - 1, _SUB, 2 * _SUB - 1, 2 * _SUB])
    def test_clamps_on_sub_run_edges_match_the_trace_path(self, edge):
        # The battery fills at step `edge` of run 0 and empties at the next step; in
        # run 1 it fills the step before `edge` and empties at it. Each time the
        # rounded charge or withdrawal overshoots, so the clamp acts, on the last or
        # the first step of a sub-run. 3 runs make 3 chunks: pass 2 walks them again.
        def overshoots(battery):
            cap, low, eta = battery.capacity_kwh, battery.soc_min_kwh, battery.eta_charge
            return (low + ((cap - low) / eta) * eta > cap
                    and cap - ((cap - low) * eta) / eta < low)

        battery = next(b for b in (
            BatterySpec(c, usable_fraction=0.8, eta_charge=0.84, eta_discharge=0.84,
                        max_charge_kw=100.0, max_discharge_kw=100.0)
            for c in np.arange(1.0, 6.0, 1 / 64).tolist()
        ) if overshoots(b))
        pv, load = np.zeros(3 * _RUN), np.zeros(3 * _RUN)
        pv[[edge, _RUN + edge - 1]] = 100.0
        load[[edge + 1, _RUN + edge]] = 100.0
        trace = simulate_series(pv, load, battery, 1.0)
        assert trace.soc_kwh[edge] == trace.soc_kwh[_RUN + edge - 1] == battery.capacity_kwh
        assert trace.soc_kwh[edge + 1] == trace.soc_kwh[_RUN + edge] == battery.soc_min_kwh
        others = [(0, 0, BatterySpec(c)) for c in (0.0, 2.0)]
        for configs in ([(0, 0, battery)], others + [(0, 0, battery)]):
            got = simulate_balances([pv], [load], configs, 1.0)[-1]
            assert bits(got) == bits(annual_balance(trace, 1.0))

    @pytest.mark.parametrize("n", [13 * _RUN + 2 * _SUB, 1001])
    @pytest.mark.parametrize("k", [1, 8, _WIDTH // 4])
    def test_year_ending_on_and_inside_a_sub_run(self, n, k):
        # 984 steps end where run 13's third sub-run starts, 1001 inside it
        pv_rows, load_rows, configs, step = wide_batch(n, k, 0.25)
        balances = simulate_balances(pv_rows, load_rows, configs, step)
        for (p, l, battery), got in zip(configs, balances):
            scalar = annual_balance(simulate_series(pv_rows[p], load_rows[l], battery, step), step)
            assert bits(got) == bits(scalar)

    def test_default_grid_shape_runs_in_chunks(self):
        # the default grid's 306 keys: 6 yields x 17 (type, kWp) pairs x 3 ratios,
        # at 8760 steps. They share the year in _WIDTH // 306 = 3 chunks of 41 runs.
        load_rows = [synthesize_load_profile(ANNUAL_LOAD_KWH[t]).values for t in PV_RANGE_KWP]
        pv_rows, configs = [], []
        for y in (1464.85, 981.08, 1200.0, 1100.0, 1350.0, 1000.0):
            for l, (lo, hi) in enumerate(PV_RANGE_KWP.values()):
                for kwp in range(lo, hi + 1):
                    pv_rows.append(synthesize_pv_profile(float(kwp), y).values)
                    configs += [(len(pv_rows) - 1, l, BatterySpec(kwp * ratio))
                                for ratio in DEFAULT_RATIOS]
        assert len(configs) == 306 and _WIDTH // 306 == 3
        balances = simulate_balances(pv_rows, load_rows, configs, 1.0)
        for (p, l, battery), got in zip(configs, balances):
            scalar = annual_balance(simulate_series(pv_rows[p], load_rows[l], battery, 1.0), 1.0)
            assert bits(got) == bits(scalar)

    def test_row_alone_equals_row_in_batch(self):
        load = synthesize_load_profile(7500.0).values
        pvs = [synthesize_pv_profile(kwp, 1464.85).values for kwp in (3.0, 8.0)]
        battery = BatterySpec(capacity_kwh=3.0)
        alone = simulate_balances(pvs[:1], [load], [(0, 0, battery)], 1.0)[0]
        others = [(1, 0, BatterySpec(capacity_kwh=c)) for c in (0.0, 4.0, 16.0)]
        for position in range(len(others) + 1):
            configs = others[:position] + [(0, 0, battery)] + others[position:]
            batched = simulate_balances(pvs, [load], configs, 1.0)[position]
            assert bits(batched) == bits(alone)
        # alone, each of the 122 runs is a chunk; among _WIDTH + 1 configs, the whole year is one
        many = [(1, 0, BatterySpec(capacity_kwh=c / 16)) for c in range(_WIDTH)]
        for position in (0, 100, _WIDTH):
            configs = many[:position] + [(0, 0, battery)] + many[position:]
            batched = simulate_balances(pvs, [load], configs, 1.0)
            assert bits(batched[position]) == bits(alone)

    def test_lists_give_the_bits_of_arrays(self):
        rng = np.random.default_rng(5)
        pvs = [row.tolist() for row in random_rows(rng, 2, 100, 5.0)] + [[1, 2] * 50]
        loads = [tuple(row.tolist()) for row in random_rows(rng, 2, 100, 4.0)]
        configs = [(p, l, BatterySpec(c)) for p in range(3) for l in range(2) for c in (0, 3)]
        got = simulate_balances(pvs, loads, configs, 0.25)
        arrays = simulate_balances([np.array(r, dtype=float) for r in pvs],
                                   [np.array(r) for r in loads], configs, 0.25)
        assert [bits(b) for b in got] == [bits(b) for b in arrays]
        battery = BatterySpec(1.0)
        got = simulate_balances([[1.0, 2.0]], [[1.0, 1.0]], [(0, 0, battery)], 1.0)[0]
        want = annual_balance(simulate_series([1.0, 2.0], [1.0, 1.0], battery, 1.0), 1.0)
        assert bits(got) == bits(want)

    def test_unequal_row_lengths_rejected(self):
        with pytest.raises(UnalignedProfilesError):
            simulate_balances([np.ones(4)], [np.ones(5)], [(0, 0, BatterySpec(1.0))], 1.0)

    def test_no_configs(self):
        assert simulate_balances([np.ones(4)], [np.ones(4)], [], 1.0) == []

    def test_config_rows_out_of_range_or_not_1d_rejected(self):
        pvs, loads, battery = [np.ones(4), np.ones(4)], [np.ones(4)], BatterySpec(1.0)
        for p, l in ((-1, 0), (2, 0), (0, -1), (0, 1)):
            with pytest.raises(ValueError, match=rf"^config rows \({p}, {l}\) out of range "
                                                 r"for 2 pv and 1 load rows$"):
                simulate_balances(pvs, loads, [(0, 0, battery), (p, l, battery)], 1.0)
        with pytest.raises(UnalignedProfilesError, match=r"^series must be 1-D, got shape \(2, 4\)$"):
            simulate_balances([np.ones((2, 4))], loads, [(0, 0, battery)], 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
@pytest.mark.parametrize("side", ["pv", "load"])
class TestBadSeriesRejected:
    def series(self, side, bad):
        good, broken = [1.0, 1.0, 1.0], [bad, 2.0, 0.5]
        return (broken, good) if side == "pv" else (good, broken)

    def test_simulate_series(self, side, bad):
        pv, load = self.series(side, bad)
        with pytest.raises(ValueError, match=side):
            simulate_series(pv, load, BatterySpec(2.0), 1.0)

    def test_simulate_balances(self, side, bad):
        pv, load = self.series(side, bad)
        with pytest.raises(ValueError, match=side):
            simulate_balances(
                [np.asarray(pv)], [np.asarray(load)], [(0, 0, BatterySpec(2.0))], 1.0
            )


@pytest.mark.parametrize("step", [math.nan, math.inf, 0.0, -1.0])
def test_step_not_positive_and_finite_rejected(step):
    pv, load = np.ones(3), np.ones(3)
    message = f"^step_hours must be positive and finite, got {step}$"
    with pytest.raises(ValueError, match=message):
        simulate_series(pv, load, BatterySpec(2.0), step)
    with pytest.raises(ValueError, match=message):
        simulate_balances([pv], [load], [(0, 0, BatterySpec(2.0))], step)


class TestTraceCsv:
    @pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097])
    def test_bytes_equal_one_format_per_field(self, n):
        rng = np.random.default_rng(n)
        arrays = rng.uniform(0.0, 1e4, (8, n)) * 10.0 ** rng.integers(-9, 3, (8, n))
        arrays[:, ::5] = 0.0
        arrays[:, 1::7] = -0.0
        trace = DispatchTrace(*arrays)
        rows = [TRACE_CSV_HEADER] + [
            f"{i}," + ",".join(f"{array[i]:.6f}" for array in arrays) for i in range(n)
        ]
        assert trace_to_csv(trace) == "\n".join(rows) + "\n"

    def test_header_and_roundtrip_values(self):
        trace = simulate_series([2.0, 0.0], [1.0, 1.0], lossless_battery(), 1.0)
        text = trace_to_csv(trace)
        lines = text.strip().splitlines()
        assert lines[0] == TRACE_CSV_HEADER
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == 2.0
        assert float(first[8]) == 1.0
