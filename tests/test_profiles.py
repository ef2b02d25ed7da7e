import math
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import storparity.profiles as profiles
from _reference import reference_pv_profile
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

    def test_z_suffix_reads_as_utc(self):
        naive = make_csv(8760, 1.0, lambda i: i % 7)
        stamped = naive.replace(",", "Z,").replace("timestampZ,", "timestamp,")
        assert "2019-01-01T00:00:00Z,0" in stamped
        profile = parse_profile_csv(stamped)
        assert profile.step_hours == 1.0
        assert np.array_equal(profile.values, parse_profile_csv(naive).values)

    def test_kind_is_settable(self):
        profile = parse_profile_csv(make_csv(8760, 1.0, 1.0), kind=ProfileKind.PV)
        assert profile.kind is ProfileKind.PV

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_column_checks_agree_with_the_row_reader(self, data):
        text = data.draw(profile_documents())
        try:
            columns = profiles._profile_columns(text)
        except (ValueError, TypeError):
            columns = None
        try:
            values, step_seconds = rows = profiles._profile_rows(text)
        except ValueError:
            rows = None
        assert (columns is None) == (rows is None)
        if rows is not None:
            assert columns[0].tobytes() == values.tobytes() and columns[1] == step_seconds

        def outcome(parse):
            try:
                profile = parse()
            except Exception as exc:  # compared by type and message
                return type(exc), str(exc)
            return profile.values.tobytes(), profile.step_hours

        def by_rows():
            powers, seconds = profiles._profile_rows(text)
            return TimeSeriesProfile(step_hours=seconds / 3600.0, values=powers,
                                     kind=ProfileKind.LOAD)

        assert outcome(lambda: parse_profile_csv(text)) == outcome(by_rows)


_BAD_STAMPS = ("garbage", "", "2019-13-01T00:00", "2019-01-01T25:00", "2019-01-01T00:00+25:00")
_BAD_POWERS = ("abc", "", "1..2", "0x10", "-1.5", "-1e-300", "nan", "inf", "-inf", "1e999")


@st.composite
def profile_documents(draw):
    """A valid profile CSV of a few rows, then up to three mutations of it."""
    step = draw(st.sampled_from([timedelta(minutes=15), timedelta(hours=1), timedelta(hours=24)]))
    zone = draw(st.sampled_from(["", "+00:00", "+02:00", "Z"]))
    start = datetime(2019, 1, 1) + draw(st.integers(0, 10_000)) * timedelta(minutes=15)
    times = [start + i * step for i in range(draw(st.integers(0, 8)))]
    power = st.floats(0.0, 1e6).map(repr) | st.sampled_from(["0", "0.5", "1e-3", "-0.0", "7"])
    rows = [[t.isoformat() + zone, draw(power)] for t in times]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from([
            "stamp", "power", "zone", "jitter", "gap", "duplicate", "swap",
        ]))
        if not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        if kind == "stamp":
            rows[i][0] = draw(st.sampled_from(_BAD_STAMPS))
        elif kind == "power":
            rows[i][1] = draw(st.sampled_from(_BAD_POWERS))
        elif kind == "zone":  # another zone, or none, at the same wall time or instant
            other = draw(st.sampled_from(["", "+00:00", "+01:00", "Z"]))
            same_instant = other == "+01:00" and zone in ("+00:00", "Z")
            shift = timedelta(hours=1 if same_instant else 0)
            rows[i][0] = (times[i] + shift).isoformat() + other
        elif kind == "jitter":
            delta = draw(st.sampled_from([1, -1, 2, 1000])) * timedelta(microseconds=1)
            rows[i][0] = (times[i] + delta).isoformat() + zone
        elif kind == "gap":
            del rows[i], times[i]
        elif kind == "duplicate":
            rows.insert(i, list(rows[i]))
            times.insert(i, times[i])
        elif kind == "swap" and i + 1 < len(rows):
            rows[i], rows[i + 1] = rows[i + 1], rows[i]
            times[i], times[i + 1] = times[i + 1], times[i]
    if rows and draw(st.integers(0, 9)) == 0:  # a row with one field too few or too many
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = draw(st.sampled_from([rows[i][:1], rows[i] + ["x"], rows[i] + [""]]))
    pad = st.sampled_from(["", " ", "\t"])
    lines = [",".join(draw(pad) + field + draw(pad) for field in row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):  # blank lines, anywhere after the header
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  ", "\t"])))
    header = draw(st.sampled_from(
        [profiles.PROFILE_CSV_HEADER] * 18 + ["Timestamp,power_kw", "timestamp"]
    ))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return bom + end.join([header, *lines]) + draw(st.sampled_from(["", end]))


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


@st.composite
def pv_shapes_and_steps(draw):
    """A step of 1 h down to 1 min and a valid shape whose windows fall on or off its edges."""
    step = draw(st.sampled_from([1.0, 1 / 2, 1 / 4, 1 / 6, 1 / 12, 1 / 60]))
    hour = (st.integers(0, round(24.0 / step)).map(lambda i: i * step)
            | st.floats(0.0, 24.0, allow_nan=False))
    windows = [draw(st.tuples(hour, hour).map(sorted).filter(lambda w: w[1] - w[0] >= 0.5))
               for _ in range(12)]
    shape = PvShapeParams(
        monthly_weights=default_pv_shape().monthly_weights,
        sunrise_hours=tuple(sunrise for sunrise, _ in windows),
        sunset_hours=tuple(sunset for _, sunset in windows),
        bell_exponent=draw(st.just(2.0) | st.floats(0.3, 4.0)),
    )
    return shape, step


class TestSynthesizePv:
    @settings(max_examples=60, deadline=None)
    @given(pv_shapes_and_steps(), st.floats(0.5, 20.0), st.floats(500.0, 2500.0))
    def test_equals_the_month_loop_bit_for_bit(self, shape_and_step, kwp, annual_yield):
        shape, step = shape_and_step
        got = synthesize_pv_profile(kwp, annual_yield, shape, step_hours=step)
        want = reference_pv_profile(kwp, annual_yield, shape, step)
        assert got.values.tobytes() == want.tobytes()

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
        # 60 steps of 0.4 h a day: a year, but 2.5 of them to each hour of PV
        load = TimeSeriesProfile(step_hours=0.4, values=np.full(365 * 60, 0.5),
                                 kind=ProfileKind.LOAD)
        with pytest.raises(IncompatibleProfilesError, match=r"^step ratio 2\.5 is not an integer"):
            align(pv, load)

    def test_align_rejects_unequal_steps_whose_ratio_rounds_to_1(self):
        pv = synthesize_pv_profile(1.0, 1464.85)
        # 25 steps of 0.96 h a day: a ratio of 1.04, which is not a whole multiple
        load = TimeSeriesProfile(step_hours=0.96, values=np.full(365 * 25, 0.5),
                                 kind=ProfileKind.LOAD)
        with pytest.raises(IncompatibleProfilesError, match=r"^step ratio 1\.04\d* is not an"):
            align(pv, load)

    def test_refine_repeats_values_and_rejects_a_coarser_step(self):
        pv = synthesize_pv_profile(1.0, 1464.85)
        assert profiles.refine(pv, 1.0) is pv
        fine = profiles.refine(pv, 0.25)
        assert fine.step_hours == 0.25 and fine.kind is ProfileKind.PV
        assert np.array_equal(fine.values, np.repeat(pv.values, 4))
        with pytest.raises(IncompatibleProfilesError, match=r"^step ratio 2\.5 is not an integer"):
            profiles.refine(pv, 0.4)
        with pytest.raises(ValueError):
            profiles.refine(fine, 1.0)


class TestProfileInvariants:
    def test_year_coverage_enforced(self):
        for n, step, expected in ((100, 1.0, 8760), (8759, 1.0, 8760), (8761, 1.0, 8760),
                                  (35041, 0.25, 35040)):
            with pytest.raises(ValueError, match=f"^profile must cover one year: {n} steps of "
                                                 f"{step} h, expected {expected}$"):
                TimeSeriesProfile(step_hours=step, values=np.ones(n), kind=ProfileKind.PV)

    def test_step_must_divide_a_day(self):
        seven_min = 7.0 / 60.0
        message = f"^step_hours must divide 24 h, got {seven_min}$"
        with pytest.raises(ValueError, match=message):
            TimeSeriesProfile(step_hours=seven_min, values=np.ones(75086), kind=ProfileKind.PV)
        with pytest.raises(ValueError, match=message):
            synthesize_pv_profile(1.0, 1464.85, step_hours=seven_min)
        with pytest.raises(ValueError, match="^step_hours must divide 24 h, got 5e-324$"):
            TimeSeriesProfile(step_hours=5e-324, values=np.ones(8760), kind=ProfileKind.PV)

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
