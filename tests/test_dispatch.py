import math
from dataclasses import astuple, fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    _WIDTH,
    TRACE_CSV_HEADER,
    DispatchTrace,
    simulate_balances,
)

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
        assert spec.soc_init_kwh == pytest.approx(spec.soc_min_kwh)

    @pytest.mark.parametrize("soc_init, want", [
        (4.0 + 1e-13, 4.0), (2.0 - 1e-13, 2.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0),
    ])
    def test_soc_init_within_tolerance_clamped(self, soc_init, want):
        spec = BatterySpec(capacity_kwh=4.0, usable_fraction=0.5, soc_init_kwh=soc_init)
        assert spec.soc_init_kwh == want

    def test_zero_capacity_is_legal(self):
        spec = BatterySpec(capacity_kwh=0.0)
        assert spec.soc_min_kwh == 0.0
        assert spec.soc_init_kwh == 0.0
        assert spec.max_charge_kw == 0.0

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            BatterySpec(capacity_kwh=-1.0)
        with pytest.raises(ValueError):
            BatterySpec(capacity_kwh=1.0, usable_fraction=0.0)
        with pytest.raises(ValueError):
            BatterySpec(capacity_kwh=1.0, eta_charge=1.2)
        with pytest.raises(ValueError):
            BatterySpec(capacity_kwh=1.0, soc_init_kwh=2.0)
        with pytest.raises(ValueError):
            BatterySpec(capacity_kwh=1.0, usable_fraction=0.5, soc_init_kwh=0.2)


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
    soc_min = (1.0 - usable) * capacity
    # None means soc_min; the bounds may be passed by up to 1e-12
    soc_init = draw(st.sampled_from([
        None, soc_min, capacity, capacity + 1e-13, soc_min - 1e-13, 0.5 * (soc_min + capacity)
    ]))
    limit = st.none() | st.just(0.0) | st.floats(0.0, 4.0)  # drawn apart: asymmetric
    return BatterySpec(
        capacity_kwh=capacity,
        usable_fraction=usable,
        eta_charge=draw(st.floats(0.7, 1.0)),
        eta_discharge=draw(st.floats(0.7, 1.0)),
        max_charge_kw=draw(limit),
        max_discharge_kw=draw(limit),
        soc_init_kwh=soc_init,
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


#: A battery that never fills or empties on long_batches() rows (at most
#: 5 kW for 2000 h): pass 1's guess for a chunk's start is never right, and
#: no run resynchronizes.
NEVER_CLAMPS = BatterySpec(1e5, usable_fraction=1.0, soc_init_kwh=5e4)


@st.composite
def long_batches(draw):
    """Rows of up to 2000 steps, most ending in a padded run, and 1-8 configs."""
    n = draw(st.sampled_from([_RUN - 1, _RUN, _RUN + 1, 129, 1000, 1001]) | st.integers(0, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pv_rows = random_rows(rng, draw(st.integers(1, 2)), n, 5.0)
    load_rows = random_rows(rng, draw(st.integers(1, 2)), n, 4.0)
    configs = draw(st.lists(
        st.tuples(st.integers(0, len(pv_rows) - 1), st.integers(0, len(load_rows) - 1),
                  batteries() | st.just(NEVER_CLAMPS)),
        min_size=1, max_size=8,
    ))
    return pv_rows, load_rows, configs, draw(st.sampled_from([0.25, 1.0]))


def bits(balance):
    return [float(v).hex() for v in astuple(balance)]


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

    @pytest.mark.parametrize("battery, pv", [
        # a start 1e-13 above capacity was kept, so the trace sat above it
        (BatterySpec(4.0, soc_init_kwh=4.0 + 1e-13), [1.0, 1.0]),
        # a start 1e-13 below soc_min, and no charging to lift it
        (BatterySpec(4.0, usable_fraction=0.5, soc_init_kwh=2.0 - 1e-13, max_charge_kw=0.0),
         [2.0, 2.0]),
    ])
    def test_soc_init_within_tolerance_keeps_soc_in_bounds(self, battery, pv):
        trace = simulate_series(pv, [1.0, 1.0], battery, 1.0)
        assert np.all(battery.soc_min_kwh <= trace.soc_kwh)
        assert np.all(trace.soc_kwh <= battery.capacity_kwh)
        assert trace_bits(trace) == trace_bits(reference_simulate(pv, [1.0, 1.0], battery, 1.0))


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
            scalar = simulate_series(pv_rows[p], load_rows[l], battery, step)
            assert bits(got) == bits(annual_balance(scalar, step))

    @settings(max_examples=25, deadline=None)
    @given(long_batches())
    def test_long_rows_match_the_trace_path_bit_for_bit(self, batch):
        # up to 2000 steps: up to 28 runs of _RUN, cut into up to 28 chunks
        pv_rows, load_rows, configs, step = batch
        balances = simulate_balances(pv_rows, load_rows, configs, step)
        for (p, l, battery), got in zip(configs, balances):
            scalar = simulate_series(pv_rows[p], load_rows[l], battery, step)
            assert bits(got) == bits(annual_balance(scalar, step))
            reference = reference_simulate(pv_rows[p], load_rows[l], battery, step)
            want = annual_balance(reference, step)
            assert astuple(got) == pytest.approx(astuple(want), rel=1e-12, abs=1e-12)

    def test_repair_walk_crosses_whole_chunks(self):
        # 1001 steps make 14 runs; 64 configs step 4 chunks of 3 or 4 runs side by
        # side. No battery here fills or empties, so no chunk after the first
        # starts where pass 1 guessed and pass 2 steps every later run again.
        rng = np.random.default_rng(11)
        pv, load = rng.uniform(0.0, 2.0, 1001), rng.uniform(0.0, 2.0, 1001)
        configs = [
            (0, 0, BatterySpec(1e4, usable_fraction=1.0, soc_init_kwh=3e3 + 50.0 * i,
                               max_charge_kw=0.5 + i / 64, max_discharge_kw=1.5 - i / 64))
            for i in range(64)
        ]
        assert _WIDTH // len(configs) == 4
        balances = simulate_balances([pv], [load], configs, 1.0)
        for (_, _, battery), got in zip(configs, balances):
            trace = simulate_series(pv, load, battery, 1.0)
            assert battery.soc_min_kwh < trace.soc_kwh.min()
            assert trace.soc_kwh.max() < battery.capacity_kwh
            assert bits(got) == bits(annual_balance(trace, 1.0))

    def test_full_battery_clamped_like_the_trace_path(self):
        # 1.37 + ((3.15 - 1.37) / 0.84) * 0.84 rounds above 3.15, so the clamp acts
        battery = BatterySpec(
            3.15, usable_fraction=1.0, eta_charge=0.84, max_charge_kw=10.0, soc_init_kwh=1.37
        )
        pv, load = np.array([5.0, 5.0, 0.0]), np.array([0.0, 0.0, 4.0])
        got = simulate_balances([pv], [load], [(0, 0, battery)], 1.0)[0]
        assert bits(got) == bits(annual_balance(simulate_series(pv, load, battery, 1.0), 1.0))

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
        # alone, each of the 122 runs is a chunk; among 257 configs, the whole year is one
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
