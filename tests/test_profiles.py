import math
import re
import runpy
import subprocess
import sys
import textwrap
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import storparity.profile_bytes as profile_bytes
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

ROOT = Path(__file__).resolve().parents[1]


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


#: Stamps at the edges of the calendar, in the byte reader's form or next to it: 29 February
#: of common and leap years, year ends, the first and last years, month 13, hour 24.
_EDGE_STAMPS = (
    "2019-02-28T00:00:00", "2019-02-29T00:00:00", "2019-03-01T00:00:00", "2020-02-29T00:00:00",
    "1900-02-29T00:00:00", "2000-02-29T00:00:00", "2100-02-29T00:00:00", "2019-04-31T00:00:00",
    "2019-12-31T23:59:59", "2020-01-01T00:00:00", "0000-12-31T23:59:59", "0001-01-01T00:00:00",
    "9999-12-31T23:59:59", "2019-13-01T00:00:00", "2019-00-10T00:00:00", "2019-01-00T00:00:00",
    "2019-01-01T24:00:00", "2019-01-01T00:60:00", "2019-01-01T00:00:60",
)
#: Valid stamps to set another stamp beside: the first, the last and one of each step's sign.
_ANCHORS = ("0001-01-01T00:00:00", "9999-12-31T23:59:59", "2019-06-15T12:00:00")
#: Stamps of other forms, which the byte reader leaves to the str columns. A Z (UTC) after
#: every stamp of a document is in its form (see _zoned), and after some alone is not.
_OTHER_STAMPS = ("2019-01-01T00:00:00+00:00", "2019-01-01T00:00:00.5",
                 "2019-01-01 00:00:00", "2019-01-01T00:00", "2019-1-01T00:00:00", "20190101T000000")
#: Powers at the edges of the byte reader's decimals: leading zeros, a point first or last, a
#: sign, 15 and 16 digits, exponents.
_EDGE_POWERS = ("007", "5.", ".5", "-0.0", "+1", "0", "0.0", "999999999999999",
                "9999999999999999", "99999999999999.9", "0.00000000000001", "0.000000000000001",
                "1e3", "1E-3", "1_0", "1..2", "")
_STAMP_FORM = re.compile(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d(Z?)")
_DECIMAL_FORM = re.compile(r"\d+(\.\d+)?")


@st.composite
def byte_form_documents(draw):
    """A profile CSV near the byte reader's form, and whether its lines are cleanly laid out."""
    n = draw(st.integers(2, 6) if draw(st.integers(0, 9)) else st.integers(0, 1))
    if draw(st.integers(0, 2)):  # stamps at one step from a start, as isoformat() writes them
        start = draw(st.sampled_from([datetime(2019, 2, 28, 23), datetime(2020, 2, 28, 23),
                                      datetime(2019, 12, 31, 23), datetime(1, 1, 1),
                                      datetime(9999, 12, 31, 22)])
                     | st.datetimes(datetime(1, 1, 1), datetime(9999, 12, 31)).map(
                         lambda t: t.replace(microsecond=0)))
        step = draw(st.sampled_from([timedelta(seconds=1), timedelta(minutes=15),
                                     timedelta(hours=1), timedelta(days=1), timedelta(days=365)]))
        stamps = []
        for i in range(n):
            if datetime.max - start < i * step:
                break
            stamps.append((start + i * step).isoformat())
    else:  # one stamp beside an anchor, before or after it; its fields drawn past their ranges
        field = st.integers(0, 99)
        stamp = draw(st.sampled_from(_EDGE_STAMPS + _OTHER_STAMPS) | st.builds(
            "{:04d}-{:02d}-{:02d}T{:02d}:{:02d}:{:02d}".format,
            st.sampled_from([0, 1, 1900, 2000, 2019, 2020, 2100, 9999]) | st.integers(0, 9999),
            st.integers(0, 13) | field, st.integers(0, 32) | field, st.integers(0, 24) | field,
            st.integers(0, 60) | field, st.integers(0, 60) | field))
        anchor = draw(st.sampled_from(_ANCHORS))
        stamps = [anchor, stamp] if draw(st.booleans()) else [stamp, anchor]
    if draw(st.integers(0, 3)) == 0:  # marked UTC, as exports write them
        stamps = [_zoned(t) for t in stamps]
    if stamps and draw(st.integers(0, 4)) == 0:  # a stamp of another form, or zoned unlike the rest
        i = draw(st.integers(0, len(stamps) - 1))
        stamps[i] = draw(st.sampled_from(_OTHER_STAMPS + (_zoned(stamps[i]),)))
    digits = st.text("0123456789", min_size=1, max_size=9)
    decimal = st.builds(lambda a, b: a + "." + b, digits, digits)
    power = draw(st.sampled_from([  # one kind for the whole column
        decimal, st.text("0123456789", min_size=1, max_size=16),
        st.floats(0.0, 1e6).map("{:.4f}".format), st.floats(0.0, 1e6).map(repr)]))
    powers = [draw(power) for _ in stamps]
    if powers and draw(st.integers(0, 2)) == 0:
        powers[draw(st.integers(0, len(powers) - 1))] = draw(st.sampled_from(_EDGE_POWERS))
    rows = [stamp + "," + power for stamp, power in zip(stamps, powers)]
    clean = draw(st.integers(0, 9)) > 0
    if not clean:  # a form the byte reader leaves to the str columns
        kind = draw(st.sampled_from(["bom", "crlf", "unended", "padded", "blank"]))
        if kind == "padded" and rows:
            rows[0] = rows[0].replace(",", " ,")
        elif kind == "blank":
            rows.insert(draw(st.integers(0, len(rows))), "")
        body = "\n".join([profiles.PROFILE_CSV_HEADER, *rows])
        return {"bom": "\ufeff" + body + "\n", "crlf": body.replace("\n", "\r\n") + "\r\n",
                "unended": body}.get(kind, body + "\n"), False
    return "\n".join([profiles.PROFILE_CSV_HEADER, *rows]) + "\n", True


def _zoned(stamp):
    """The stamp with a Z (UTC) after it, or without the Z it ends in."""
    return stamp[:-1] if stamp.endswith("Z") else stamp + "Z"


def _in_byte_form(text, clean):
    """Whether a document that the str columns accept is in the byte reader's form."""
    if not clean:
        return False
    stamps, powers = zip(*(line.split(",") for line in text.splitlines()[1:]))
    forms = list(map(_STAMP_FORM.fullmatch, stamps))
    return all(forms) and len({form[1] for form in forms}) == 1 and all(
        _DECIMAL_FORM.fullmatch(p) and len(p.replace(".", "")) <= 15 for p in powers)


def _ci_profiles(tmp_path):
    """The measured years CI's wheel-smoke step writes, by side: plain, zoned and rewritten."""
    workflow = ROOT / ".github" / "workflows" / "tests.yml"
    script = workflow.read_text("utf-8").split("python - <<'EOF'\n", 1)[1]
    script = textwrap.dedent(script.split("\n          EOF\n", 1)[0])
    sides = ("plain", "zoned", "rewritten")
    for side in sides:
        (tmp_path / "measured" / side).mkdir(parents=True)
    subprocess.run([sys.executable, "-c", script], cwd=tmp_path, check=True)
    return {side: [(tmp_path / "measured" / side / name).read_text("utf-8")
                   for name in ("load.csv", "pv.csv")] for side in sides}


def _check_byte_columns(text, clean):
    """byte_columns gives exactly the str columns' values and step where the document is in
    its form, and None where it is not."""
    columns = profile_bytes.byte_columns(text)
    try:
        expected = profiles._str_columns(text)
    except (ValueError, TypeError):
        expected = None
    assert (columns is not None) == (expected is not None and _in_byte_form(text, clean))
    if columns is not None:
        values, step_seconds = columns
        assert values.dtype == expected[0].dtype and values.tobytes() == expected[0].tobytes()
        assert type(step_seconds) is float and step_seconds == expected[1]


class TestByteColumns:
    @settings(max_examples=600, deadline=None)
    @given(byte_form_documents())
    def test_equal_the_str_columns_or_decline(self, drawn):
        _check_byte_columns(*drawn)

    @pytest.mark.parametrize("stamp", _EDGE_STAMPS + _OTHER_STAMPS + ("2019-01-01T00:00:00Z",))
    @pytest.mark.parametrize("anchor", _ANCHORS)
    def test_edge_stamps(self, stamp, anchor):
        for pair in ([anchor, stamp], [stamp, anchor]):
            _check_byte_columns("".join([profiles.PROFILE_CSV_HEADER + "\n"] + [
                f"{t},1.5\n" for t in pair]), True)

    @pytest.mark.parametrize("stamp", _EDGE_STAMPS + _OTHER_STAMPS)
    @pytest.mark.parametrize("anchor", _ANCHORS)
    def test_zoned_edge_stamps(self, stamp, anchor):
        # a Z (UTC) after both stamps, or after the anchor alone
        for zoned in ([_zoned(anchor), _zoned(stamp)], [_zoned(anchor), stamp]):
            for pair in (zoned, zoned[::-1]):
                _check_byte_columns("".join([profiles.PROFILE_CSV_HEADER + "\n"] + [
                    f"{t},1.5\n" for t in pair]), True)

    @pytest.mark.parametrize("power", _EDGE_POWERS)
    def test_edge_powers(self, power):
        for powers in ([power, "2"], ["2.25", power]):
            _check_byte_columns("".join([profiles.PROFILE_CSV_HEADER + "\n"] + [
                f"2019-01-01T0{i}:00:00,{p}\n" for i, p in enumerate(powers)]), True)

    def test_the_benchmark_ci_and_demo_years_take_the_byte_path(
            self, tmp_path, monkeypatch, perfbench_workloads):
        perfbench_workloads.make_plan("measured-quarter-hour", 1, tmp_path / "workload")
        ci = _ci_profiles(tmp_path / "ci")
        documents = [(tmp_path / "workload" / "inputs" / name).read_text("utf-8")
                     for name in ("load.csv", "pv.csv")] + ci["plain"] + ci["zoned"]
        assert [len(text.splitlines()) for text in documents] == [35041, 8761] * 3
        for text in documents:
            columns = profile_bytes.byte_columns(text)
            assert columns is not None
            values, step_seconds = profiles._str_columns(text)
            assert columns[0].tobytes() == values.tobytes() and columns[1] == step_seconds
        for zoned, rewritten, plain in zip(ci["zoned"], ci["rewritten"], ci["plain"]):
            assert profile_bytes.byte_columns(zoned)[0].tobytes() == profile_bytes.byte_columns(
                plain)[0].tobytes()
            # the same year, read on the str path
            assert profile_bytes.byte_columns(rewritten) is None
            assert profiles._str_columns(rewritten)[0].tobytes() == profile_bytes.byte_columns(
                plain)[0].tobytes()

        def no_str_columns(text):
            raise AssertionError("a document of demo 02 left the byte path")

        monkeypatch.setattr(profiles, "_str_columns", no_str_columns)
        demo = runpy.run_path(str(ROOT / "demos" / "02_measured_profiles.py"))
        assert len(demo["load"]) == 35040


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

    def test_year_whose_energy_overflows_rejected(self):
        # every value is finite, the year's energy is not: first the sum overflows,
        # then the product with a 24 h step; no overflow warning on the way
        for step, value in ((1.0, 1e308), (24.0, 4e305)):
            values = np.full(round(365 * 24 / step), value)
            with pytest.raises(ValueError, match="^the year's energy must be finite, got inf kWh$"):
                TimeSeriesProfile(step_hours=step, values=values, kind=ProfileKind.PV)

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
