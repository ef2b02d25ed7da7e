import math
from datetime import datetime, timedelta

import numpy as np
import pytest

import storparity.profiles as profiles
from storparity import (
    IncompatibleProfilesError,
    InvalidShapeError,
    LoadShapeParams,
    MalformedRowError,
    NegativePowerError,
    NonUniformStepError,
    ProfileKind,
    PvShapeParams,
    TimeSeriesProfile,
    align,
    default_load_shape,
    default_pv_shape,
    parse_profile_csv,
    scale_to_annual,
    synthesize_load_profile,
    synthesize_pv_profile,
)


def make_csv(n_rows, step_hours, power=1.0):
    start = datetime(2019, 1, 1)
    lines = ["timestamp,power_kw"]
    for i in range(n_rows):
        ts = start + timedelta(hours=i * step_hours)
        value = power(i) if callable(power) else power
        lines.append(f"{ts.isoformat()},{value}")
    return "\n".join(lines) + "\n"


class TestParseProfileCsv:
    def test_hourly_constant_year(self):
        profile = parse_profile_csv(make_csv(8760, 1.0, 1.0))
        assert profile.step_hours == 1.0
        assert len(profile) == 8760
        assert profile.year_energy_kwh == pytest.approx(8760.0, rel=1e-12)

    def test_quarter_hour_constant(self):
        # 35040 rows of 0.5 kW: 35040 * 0.25 h * 0.5 kW = 4380 kWh
        profile = parse_profile_csv(make_csv(35040, 0.25, 0.5))
        assert profile.step_hours == 0.25
        assert profile.year_energy_kwh == pytest.approx(4380.0, rel=1e-12)

    def test_missing_hour_rejected(self):
        text = make_csv(8760, 1.0, 1.0)
        lines = text.splitlines()
        del lines[100]
        with pytest.raises(NonUniformStepError):
            parse_profile_csv("\n".join(lines))

    def test_duplicate_timestamp_rejected(self):
        text = make_csv(24, 1.0, 1.0)
        lines = text.splitlines()
        lines.insert(5, lines[5])
        with pytest.raises(NonUniformStepError):
            parse_profile_csv("\n".join(lines))

    def test_negative_power_rejected(self):
        with pytest.raises(NegativePowerError):
            parse_profile_csv(make_csv(8760, 1.0, lambda i: -1.0 if i == 7 else 1.0))

    def test_bad_header_rejected(self):
        text = make_csv(24, 1.0, 1.0).replace("timestamp,power_kw", "time,kw")
        with pytest.raises(MalformedRowError):
            parse_profile_csv(text)

    def test_malformed_row_rejected(self):
        text = make_csv(24, 1.0, 1.0) + "not-a-timestamp,1.0\n"
        with pytest.raises(MalformedRowError):
            parse_profile_csv(text)

    def test_extra_field_rejected(self):
        text = make_csv(24, 1.0, 1.0).replace(",1.0", ",1.0,x", 1)
        with pytest.raises(MalformedRowError):
            parse_profile_csv(text)

    def test_bom_and_blank_lines_ignored(self):
        lines = make_csv(8760, 1.0, 1.0).splitlines()
        lines[3:3] = ["", "  "]
        text = "\ufeff\n" + "\r\n".join(lines) + "\n\n"
        profile = parse_profile_csv(text)
        assert np.array_equal(profile.values, parse_profile_csv(make_csv(8760, 1.0, 1.0)).values)

    @pytest.mark.parametrize("row, error, message", [
        ("2019-01-01T05:00+00:00,1.0", MalformedRowError, "line 8: timestamp with a UTC offset"),
        ("2019-01-01T06:00,1.0", NonUniformStepError, "line 8: step 7200.0 s differs"),
        ("2019-01-01T03:00,1.0", NonUniformStepError, "line 8: timestamps not strictly"),
        ("2019-01-01T05:00,1.0,2", MalformedRowError, "line 8: expected 2 fields, got 3"),
    ])
    def test_errors_name_the_physical_line(self, row, error, message):
        lines = make_csv(24, 1.0, 1.0).splitlines()
        lines[1:1] = [""]  # blank physical line 2: the row of 05:00 is on line 8
        lines[7] = row
        with pytest.raises(error, match=message):
            parse_profile_csv("\n".join(lines))

    def test_kind_is_settable(self):
        profile = parse_profile_csv(make_csv(8760, 1.0, 1.0), kind=ProfileKind.PV)
        assert profile.kind is ProfileKind.PV


def uniform_load_shape():
    flat24 = tuple([1.0 / 24] * 24)
    months = tuple(profiles.DAYS_IN_MONTH[m] / 365.0 for m in range(12))
    return LoadShapeParams(
        weekday_weights=flat24, weekend_weights=flat24, monthly_weights=months
    )


class TestSynthesizeLoad:
    def test_annual_energy_default_shape(self):
        profile = synthesize_load_profile(4500.0)
        assert profile.year_energy_kwh == pytest.approx(4500.0, rel=1e-6)
        assert profile.kind is ProfileKind.LOAD
        assert np.all(profile.values >= 0.0)

    def test_uniform_weights_give_constant_power(self):
        profile = synthesize_load_profile(10500.0, uniform_load_shape())
        expected = 10500.0 / 8760.0
        assert np.allclose(profile.values, expected, rtol=1e-12)

    def test_default_shape_evening_above_night(self):
        # direct inspection of the generated series: mean power at 19:00
        # must exceed mean power at 03:00
        profile = synthesize_load_profile(7500.0)
        by_day = profile.values.reshape(365, 24)
        assert by_day[:, 19].mean() > by_day[:, 3].mean()

    def test_weekday_weekend_shapes_differ(self):
        profile = synthesize_load_profile(4500.0)
        by_day = profile.values.reshape(365, 24)
        # day 0 is a Monday, day 5 a Saturday, same month
        assert not np.allclose(by_day[0], by_day[5])

    def test_invalid_shape_rejected(self):
        flat = tuple([1.0 / 24] * 24)
        months = tuple([1.0 / 12] * 12)
        with pytest.raises(InvalidShapeError):
            LoadShapeParams(
                weekday_weights=tuple([0.5] * 24),
                weekend_weights=flat,
                monthly_weights=months,
            )

    def test_nonpositive_energy_rejected(self):
        with pytest.raises(ValueError):
            synthesize_load_profile(0.0)

    def test_quarter_hour_arity(self):
        flat96 = tuple([1.0 / 96] * 96)
        months = tuple(profiles.DAYS_IN_MONTH[m] / 365.0 for m in range(12))
        shape = LoadShapeParams(flat96, flat96, months)
        profile = synthesize_load_profile(4500.0, shape)
        assert profile.step_hours == 0.25
        assert len(profile) == 35040
        assert profile.year_energy_kwh == pytest.approx(4500.0, rel=1e-9)


class TestSynthesizePv:
    def test_cyprus_unit_yield(self):
        profile = synthesize_pv_profile(1.0, 1464.85)
        assert profile.year_energy_kwh == pytest.approx(1464.85, rel=1e-6)

    def test_three_kwp_france(self):
        # 3 kWp at 981.08 kWh/kWp is 2943.24 kWh
        profile = synthesize_pv_profile(3.0, 981.08)
        assert profile.year_energy_kwh == pytest.approx(2943.24, rel=1e-6)

    def test_zero_kwp_rejected(self):
        with pytest.raises(ValueError):
            synthesize_pv_profile(0.0, 1464.85)

    def test_zero_outside_daylight(self):
        shape = default_pv_shape()
        profile = synthesize_pv_profile(2.0, 1400.0, shape)
        by_day = profile.values.reshape(365, 24)
        months = profiles.month_of_day()
        hours = np.arange(24)
        for m in range(12):
            rows = by_day[months == m]
            dark = (hours + 1 <= shape.sunrise_hours[m]) | (hours >= shape.sunset_hours[m])
            assert np.all(rows[:, dark] == 0.0)
            assert rows.sum() > 0.0

    def test_monthly_split_matches_weights(self):
        shape = default_pv_shape()
        profile = synthesize_pv_profile(4.0, 1277.50, shape)
        total = profile.year_energy_kwh
        for m, sl in enumerate(profiles.month_step_slices(profile.step_hours)):
            month_energy = profile.values[sl].sum() * profile.step_hours
            assert month_energy / total == pytest.approx(shape.monthly_weights[m], rel=1e-6)

    def test_bad_daylight_window_rejected(self):
        with pytest.raises(InvalidShapeError):
            PvShapeParams(
                monthly_weights=tuple([1.0 / 12] * 12),
                sunrise_hours=tuple([9.0] * 12),
                sunset_hours=tuple([8.0] * 12),
            )


class TestScaleAndAlign:
    def test_scale_to_annual(self):
        profile = synthesize_load_profile(4500.0)
        scaled = scale_to_annual(profile, 7500.0)
        assert scaled.year_energy_kwh == pytest.approx(7500.0, rel=1e-9)
        assert np.allclose(scaled.values, profile.values * (7500.0 / 4500.0))

    def test_align_identity_when_equal_steps(self):
        pv = synthesize_pv_profile(1.0, 1464.85)
        load = synthesize_load_profile(4500.0)
        pv2, load2 = align(pv, load)
        assert pv2 is pv and load2 is load

    def test_align_expands_hourly_to_quarter_hour(self):
        pv = synthesize_pv_profile(1.0, 1464.85, step_hours=1.0)
        flat96 = tuple([1.0 / 96] * 96)
        months = tuple(profiles.DAYS_IN_MONTH[m] / 365.0 for m in range(12))
        load = synthesize_load_profile(4500.0, LoadShapeParams(flat96, flat96, months))
        pv2, load2 = align(pv, load)
        assert pv2.step_hours == 0.25 and load2.step_hours == 0.25
        assert len(pv2) == len(load2) == 35040
        # same kW on each sub-step, energy preserved
        assert np.array_equal(pv2.values.reshape(-1, 4), np.tile(pv.values[:, None], 4))
        assert pv2.year_energy_kwh == pytest.approx(pv.year_energy_kwh, rel=1e-12)

    def test_align_rejects_non_integer_ratio(self):
        pv = synthesize_pv_profile(1.0, 1464.85)
        seven_min = 7.0 / 60.0
        n = round(8760.0 / seven_min)
        load = TimeSeriesProfile(
            step_hours=seven_min, values=np.full(n, 0.5), kind=ProfileKind.LOAD
        )
        with pytest.raises(IncompatibleProfilesError):
            align(pv, load)


class TestProfileInvariants:
    def test_year_coverage_enforced(self):
        with pytest.raises(ValueError):
            TimeSeriesProfile(step_hours=1.0, values=np.ones(100), kind=ProfileKind.PV)

    def test_step_not_positive_and_finite_rejected(self):
        for step, message in ((math.nan, "must be finite, got nan"),
                              (math.inf, "must be finite, got inf"),
                              (0.0, "must be positive, got 0.0")):
            with pytest.raises(ValueError, match=f"^step_hours {message}$"):
                TimeSeriesProfile(step_hours=step, values=np.ones(8760), kind=ProfileKind.PV)

    def test_negative_values_rejected(self):
        values = np.ones(8760)
        values[3] = -0.1
        with pytest.raises(NegativePowerError):
            TimeSeriesProfile(step_hours=1.0, values=values, kind=ProfileKind.LOAD)

    def test_values_are_read_only(self):
        profile = synthesize_load_profile(4500.0)
        with pytest.raises(ValueError):
            profile.values[0] = 99.0

    def test_energy_cache_consistent(self):
        profile = synthesize_pv_profile(2.0, 1000.0)
        assert profile.year_energy_kwh == pytest.approx(
            float(profile.values.sum() * profile.step_hours), rel=1e-9
        )

    def test_synthesis_is_deterministic(self):
        a = synthesize_load_profile(4500.0)
        b = synthesize_load_profile(4500.0)
        assert a is not b
        assert np.array_equal(a.values, b.values)

        c = synthesize_pv_profile(3.0, 1368.45)
        d = synthesize_pv_profile(3.0, 1368.45)
        assert c is not d
        assert np.array_equal(c.values, d.values)

    def test_energy_preservation_random_shapes(self):
        rng = np.random.default_rng(42)
        months_base = np.asarray(profiles.DAYS_IN_MONTH, dtype=float)
        for _ in range(25):
            wd = rng.uniform(0.1, 2.0, 24)
            we = rng.uniform(0.1, 2.0, 24)
            mo = rng.uniform(0.5, 1.5, 12) * months_base
            shape = LoadShapeParams(
                weekday_weights=tuple(wd / wd.sum()),
                weekend_weights=tuple(we / we.sum()),
                monthly_weights=tuple(mo / mo.sum()),
            )
            annual = float(rng.uniform(100.0, 20000.0))
            profile = synthesize_load_profile(annual, shape)
            assert profile.year_energy_kwh == pytest.approx(annual, rel=1e-6)
            assert np.all(profile.values >= 0.0)

    def test_pv_energy_preservation_random(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            mo = rng.uniform(0.2, 2.0, 12)
            shape = PvShapeParams(
                monthly_weights=tuple(mo / mo.sum()),
                sunrise_hours=tuple(rng.uniform(4.0, 8.0, 12)),
                sunset_hours=tuple(rng.uniform(16.0, 21.0, 12)),
                bell_exponent=float(rng.uniform(0.5, 4.0)),
            )
            kwp = float(rng.uniform(0.5, 12.0))
            yld = float(rng.uniform(800.0, 1800.0))
            profile = synthesize_pv_profile(kwp, yld, shape)
            assert profile.year_energy_kwh == pytest.approx(kwp * yld, rel=1e-6)
            assert np.all(profile.values >= 0.0)
