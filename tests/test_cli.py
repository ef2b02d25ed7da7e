import hashlib
import importlib
import importlib.util
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
from dataclasses import replace
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import storparity
import storparity.sweep as sweep_module
from _tables import table_of
from storparity.cli import (
    DATA_DIR_ENV,
    INTEGER,
    NUMBER,
    NUMBERS,
    OPTIONS,
    SUMMARY_KEYS,
    main,
    write_json_records,
)
from storparity.sweep import (
    BOX_CSV_HEADER,
    PARITY_CSV_HEADER,
    RESULTS_CSV_HEADER,
    best_pv_sizes,
    build_grid,
    parity_share_table,
    run_sweep,
    simulate_scenario,
)

TWO_COUNTRY_CSV = (
    "country,retail_eur_per_kwh,annual_yield_kwh_per_kwp,vat_rate\n"
    "Cyprus,0.19270,1464.85,0.19\n"
    "France,0.16814,981.08,0.20\n"
)


@pytest.fixture()
def two_country_csv(tmp_path):
    path = tmp_path / "countries.csv"
    path.write_text(TWO_COUNTRY_CSV)
    return path


def profile_csv(path, power, steps=8760, minutes=60):
    """Write a ``timestamp,power_kw`` CSV of steps rows minutes apart, an hourly year by default.

    power maps a step's index to kW.
    """
    start = datetime(2019, 1, 1)
    rows = ["timestamp,power_kw"]
    rows += [f"{(start + timedelta(minutes=minutes * i)).isoformat()},{power(i):.4f}"
             for i in range(steps)]
    path.write_text("\n".join(rows) + "\n")
    return path


def evening_load(hour):
    return 0.4 + (0.8 if hour % 24 >= 18 else 0.0)


def first_hour_load(hour):
    return 1.0 if hour == 0 else 0.0


def midday_pv(hour):
    return max(0.0, 1.0 - abs(hour % 24 - 12.5) / 6.0)


def simulate_args(out_dir, **overrides):
    args = {
        "country": "Cyprus",
        "type": "B",
        "pv-kwp": "3",
        "ratio": "1",
        "bess-price": "150",
    }
    args.update(overrides)
    argv = ["simulate", "--out", str(out_dir)]
    for key, value in args.items():
        argv.extend([f"--{key}", value])
    return argv


class TestSimulate:
    def test_happy_path(self, tmp_path, capsys):
        code = main(simulate_args(tmp_path))
        out = capsys.readouterr().out
        assert code == 0
        assert "LCOU" in out and "LCOE" in out and "NPV" in out
        assert "SCR" in out and "SSR" in out and "parity   : yes" in out
        result_csv = (tmp_path / "scenario_result.csv").read_text()
        assert result_csv.splitlines()[0] == RESULTS_CSV_HEADER
        assert len(result_csv.strip().splitlines()) == 2
        manifest = json.loads((tmp_path / "run-manifest.json").read_text())
        assert manifest["econ"]["discount_rate"] == 0.07
        assert manifest["scenario"]["pv_kwp"] == 3

    def test_scenario_line_shows_exact_values(self, tmp_path, capsys):
        # {:g} printed 0.3 kWh for 3 kWp x 0.1 and 123.457 EUR/kWh
        assert main(simulate_args(tmp_path, ratio="0.1", **{"bess-price": "123.4567"})) == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert line.endswith("3 kWp PV, 0.30000000000000004 kWh BESS @ 123.4567 EUR/kWh")

    def test_trace_file_written(self, tmp_path):
        trace_path = tmp_path / "trace.csv"
        code = main(simulate_args(tmp_path, **{"trace": str(trace_path)}))
        assert code == 0
        lines = trace_path.read_text().strip().splitlines()
        assert lines[0].startswith("step,p_pv_kw,p_load_kw")
        assert len(lines) == 8761

    def test_unknown_country_exits_2_naming_source(self, tmp_path, capsys):
        code = main(simulate_args(tmp_path, country="Atlantis"))
        err = capsys.readouterr().err
        assert code == 2
        assert "Atlantis" in err
        assert "countries.csv" in err

    def test_out_of_range_pv_exits_2(self, tmp_path, capsys):
        code = main(simulate_args(tmp_path, **{"pv-kwp": "12", "type": "A"}))
        assert code == 2
        assert "--allow-out-of-range" in capsys.readouterr().err

    def test_out_of_range_pv_allowed_with_flag(self, tmp_path):
        argv = simulate_args(tmp_path, **{"pv-kwp": "12", "type": "A"})
        argv.append("--allow-out-of-range")
        assert main(argv) == 0

    def test_custom_countries_file(self, tmp_path, two_country_csv):
        argv = simulate_args(tmp_path, country="France")
        argv.extend(["--countries", str(two_country_csv)])
        assert main(argv) == 0

    def test_missing_countries_file_exits_2(self, tmp_path, capsys):
        argv = simulate_args(tmp_path)
        argv.extend(["--countries", str(tmp_path / "nope.csv")])
        assert main(argv) == 2
        assert "not found" in capsys.readouterr().err

    def test_data_dir_env_var(self, tmp_path, monkeypatch):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        (data_dir / "countries.csv").write_text(TWO_COUNTRY_CSV)
        monkeypatch.setenv("STORPARITY_DATA_DIR", str(data_dir))
        assert main(simulate_args(tmp_path, country="France")) == 0

    def test_flag_overrides_affect_result(self, tmp_path):
        base = tmp_path / "base"
        tweaked = tmp_path / "tweaked"
        assert main(simulate_args(base)) == 0
        argv = simulate_args(tweaked)
        argv.extend(["--discount-rate", "0.0", "--maintenance-rate", "0.0"])
        assert main(argv) == 0
        assert (base / "scenario_result.csv").read_text() != (
            tweaked / "scenario_result.csv"
        ).read_text()

    def test_load_profile_override(self, tmp_path):
        start = datetime(2019, 1, 1)
        rows = ["timestamp,power_kw"]
        rows += [f"{(start + timedelta(hours=i)).isoformat()},0.6" for i in range(8760)]
        profile = tmp_path / "load.csv"
        profile.write_text("\n".join(rows) + "\n")
        argv = simulate_args(tmp_path, **{"load-profile": str(profile)})
        assert main(argv) == 0

    def test_mixed_naive_and_offset_timestamps_exit_2(self, tmp_path, capsys):
        profile = profile_csv(tmp_path / "mixed.csv", evening_load)
        lines = profile.read_text().splitlines()
        lines[6] = "2019-01-01T05:00+00:00,0.4000"
        profile.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert main(simulate_args(out, **{"load-profile": str(profile)})) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert "line 7: timestamp with a UTC offset" in err

    def test_config_file_with_flag_precedence(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"discount_rate": 0.0, "maintenance_rate": 0.0}))
        argv = simulate_args(tmp_path) + ["--config", str(config)]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "run-manifest.json").read_text())
        assert manifest["econ"]["discount_rate"] == 0.0
        # flag wins over the file value
        argv += ["--discount-rate", "0.05"]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "run-manifest.json").read_text())
        assert manifest["econ"]["discount_rate"] == 0.05

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"discout_rate": 0.05}))
        assert main(simulate_args(tmp_path) + ["--config", str(config)]) == 2
        assert "discout_rate" in capsys.readouterr().err

    def test_bad_battery_override_exits_2(self, tmp_path, capsys):
        argv = simulate_args(tmp_path) + ["--usable-fraction", "2.0"]
        assert main(argv) == 2
        assert "battery" in capsys.readouterr().err

    def test_usage_error_exits_2(self, capsys):
        assert main(["simulate", "--country", "Cyprus"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "flag, value",
        [("max-charge-kw", "nan"), ("bess-price", "inf"), ("discount-rate", "nan")],
    )
    def test_non_finite_value_exits_2(self, tmp_path, capsys, flag, value):
        assert main(simulate_args(tmp_path, **{flag: value})) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "must be finite" in err

    @pytest.mark.parametrize("pv_kw, extra, message", [
        ("0.0", [], "no energy produced over the horizon"),
        # one 5e-324 kW hour: its discounted sum underflows to 0 at a 150% rate
        ("5e-324", ["--discount-rate", "1.5"], "no energy produced over the horizon"),
    ], ids=["all-zero", "underflow"])
    def test_no_production_exits_1_and_creates_nothing(
        self, tmp_path, capsys, pv_kw, extra, message
    ):
        pv = profile_csv(tmp_path / "pv.csv", lambda hour: 0.0)
        lines = pv.read_text().splitlines()
        lines[13] = lines[13].split(",")[0] + f",{pv_kw}"
        pv.write_text("\n".join(lines) + "\n")
        out, trace = tmp_path / "z", tmp_path / "t" / "x.csv"
        argv = simulate_args(out, **{"pv-profile": str(pv), "trace": str(trace)}) + extra
        assert main(argv) == 1
        assert capsys.readouterr().err == f"computation error: {message}\n"
        assert not out.exists() and not trace.parent.exists()

    def test_non_finite_result_exits_1(self, tmp_path, capsys):
        # a finite price whose CAPEX overflows: no LCOE to print
        assert main(simulate_args(tmp_path / "out", **{"bess-price": "1e308"})) == 1
        assert capsys.readouterr().err == "computation error: lcoe must be finite, got inf\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kwp", [str(2**63), str(10**19)])
    def test_kwp_past_int64_exits_2_before_any_work(self, tmp_path, capsys, kwp):
        # no results table holds such a kWp; report rejects it in the same words
        out = tmp_path / "out"
        argv = [*simulate_args(out, type="A", **{"pv-kwp": kwp}), "--allow-out-of-range"]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: pv_kwp must fit in 64 bits, got {kwp}\n"
        assert not out.exists()

    def test_unbalanced_books_exit_1_in_one_line_and_write_nothing(
        self, tmp_path, capsys, monkeypatch
    ):
        # a trace with twice the charge it dispatched: its PV side stops balancing
        simulate = sweep_module.simulate

        def doubled_charge(pv, load, battery):
            trace = simulate(pv, load, battery)
            return replace(trace, p_charge=trace.p_charge * 2)

        monkeypatch.setattr(sweep_module, "simulate", doubled_charge)
        out, trace_path = tmp_path / "out", tmp_path / "trace.csv"
        assert main(simulate_args(out, trace=str(trace_path))) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("internal error: Cyprus type B, 3 kWp, 3 kWh: energy "
                                       "books of dispatch config 0 do not balance: residuals ")
        assert not out.exists() and not trace_path.exists()

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constant_in_an_unread_config_key_exits_2(
        self, tmp_path, capsys, constant
    ):
        # simulate reads neither key, and -1 would pass: the constant alone fails
        config = tmp_path / "config.json"
        config.write_text(f'{{"ratios": [{constant}], "bess_prices": [-1]}}')
        out = tmp_path / "out"
        assert main([*simulate_args(out), "--config", str(config)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"holds {constant}" in err[0]
        assert not out.exists()

    def test_manifest_records_profile_from_config(self, tmp_path):
        load = profile_csv(tmp_path / "load.csv", evening_load)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"load_profile_csv": str(load)}))
        assert main(simulate_args(tmp_path) + ["--config", str(config)]) == 0
        manifest = json.loads((tmp_path / "run-manifest.json").read_text())
        assert manifest["profile_overrides"] == {"load": str(load), "pv": None}


class TestSweep:
    def sweep_argv(self, out_dir, countries_csv, extra=()):
        return [
            "sweep",
            "--out", str(out_dir),
            "--countries", str(countries_csv),
            "--parallel", "1",
            *extra,
        ]

    def test_outputs_written(self, tmp_path, two_country_csv, capsys):
        out = tmp_path / "out"
        code = main(self.sweep_argv(out, two_country_csv))
        assert code == 0
        results = (out / "results.csv").read_text()
        assert results.splitlines()[0] == RESULTS_CSV_HEADER
        assert len(results.strip().splitlines()) == 1 + 2 * 17 * 3 * 2
        box = (out / "box_stats.csv").read_text().strip().splitlines()
        assert len(box) == 1 + 4  # 2 countries x 2 prices
        shares = (out / "parity_shares.csv").read_text()
        assert "France,pooled,0.000000" in shares
        assert (out / "run-manifest.json").exists()
        assert "parity share" in capsys.readouterr().out

    def test_reruns_are_byte_identical(self, tmp_path, two_country_csv):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(self.sweep_argv(out1, two_country_csv)) == 0
        assert main(self.sweep_argv(out2, two_country_csv)) == 0
        for name in ("results.csv", "parity_shares.csv", "box_stats.csv", "run-manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_parallel_matches_serial_bytes(self, tmp_path, two_country_csv):
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        argv = self.sweep_argv(serial, two_country_csv, ("--types", "A"))
        assert main(argv) == 0
        argv = [
            "sweep", "--out", str(parallel), "--countries", str(two_country_csv),
            "--parallel", "2", "--types", "A",
        ]
        assert main(argv) == 0
        for name in ("results.csv", "parity_shares.csv", "box_stats.csv", "run-manifest.json"):
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()

    def test_three_workers_match_serial_bytes(self, tmp_path, two_country_csv, monkeypatch):
        # two children at once: one holding the other's write end would hang the read
        forked = []
        fork = os.fork

        def counted_fork():
            pid = fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        assert main(self.sweep_argv(serial, two_country_csv, ("--types", "A"))) == 0
        argv = [
            "sweep", "--out", str(parallel), "--countries", str(two_country_csv),
            "--parallel", "3", "--types", "A",
        ]
        assert main(argv) == 0 and len(forked) == 2
        for name in ("results.csv", "parity_shares.csv", "box_stats.csv", "run-manifest.json"):
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()

    def test_missing_countries_csv_exits_2(self, tmp_path, capsys):
        assert main(self.sweep_argv(tmp_path, tmp_path / "absent.csv")) == 2
        capsys.readouterr()

    def test_axis_flags(self, tmp_path, two_country_csv):
        out = tmp_path / "axes"
        argv = self.sweep_argv(
            out, two_country_csv,
            ("--types", "A", "--ratios", "1", "--bess-prices", "150"),
        )
        assert main(argv) == 0
        rows = (out / "results.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 2 * 5

    def test_country_axis_subset_from_config(self, tmp_path):
        # the "countries" config key narrows the sweep axis, it is not a path
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"countries": ["France"], "prosumer_types": ["A"]}))
        out = tmp_path / "subset"
        argv = ["sweep", "--out", str(out), "--parallel", "1", "--config", str(config)]
        assert main(argv) == 0
        rows = (out / "results.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 5 * 3 * 2
        assert all(row.startswith("France,") for row in rows[1:])

    def test_unknown_axis_country_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"countries": ["Narnia"]}))
        argv = ["sweep", "--out", str(tmp_path), "--config", str(config)]
        assert main(argv) == 2
        assert "Narnia" in capsys.readouterr().err

    def test_scenario_failures_exit_1_with_partial_outputs(
        self, tmp_path, two_country_csv, capsys, caplog
    ):
        # a household that draws power only in the first hour, before any sun has
        # charged the battery, uses none of its PV: every scenario fails its pricing
        night_load = profile_csv(tmp_path / "load.csv", first_hour_load)
        out = tmp_path / "failed"
        argv = self.sweep_argv(out, two_country_csv, ("--load-profile", str(night_load)))
        assert main(argv) == 1
        assert (out / "results.csv").exists()
        err = capsys.readouterr().err.splitlines()
        # each failure once: listed, and not also logged
        assert err[0] == "204 scenario(s) failed:" and len(err) == 1 + 204
        assert caplog.records == []

    def test_failing_sweep_leaves_no_summary_of_an_earlier_run(
        self, tmp_path, two_country_csv, capsys
    ):
        out = tmp_path / "out"
        argv = self.sweep_argv(
            out, two_country_csv, ("--types", "A", "--ratios", "1", "--bess-prices", "150")
        )
        assert main(argv) == 0
        assert len((out / "box_stats.csv").read_text().splitlines()) == 3
        capsys.readouterr()
        night_load = profile_csv(tmp_path / "load.csv", first_hour_load)
        assert main([*argv, "--load-profile", str(night_load)]) == 1
        assert (out / "results.csv").read_text() == RESULTS_CSV_HEADER + "\n"
        assert (out / "parity_shares.csv").read_text() == PARITY_CSV_HEADER + "\n"
        assert (out / "box_stats.csv").read_text() == BOX_CSV_HEADER + "\n"
        assert "parity share" not in capsys.readouterr().out

    def test_every_failure_kind_keeps_its_stderr_lines(self, tmp_path, two_country_csv, capsys):
        # batteries past the float range and infinite LCOEs, in grid order, each worded
        # as the one-scenario path words it
        out = tmp_path / "out"
        argv = self.sweep_argv(out, two_country_csv, (
            "--types", "A", "--ratios", "1e308,0,1,-0", "--bess-prices", "1e308,150"))
        assert main(argv) == 1
        data, econ = storparity.load_country_data(two_country_csv), storparity.EconomicParams()
        expected = []
        for scenario in build_grid(data, ["A"], [0.0, 1.0, 1e308], [150.0, 1e308]).rows():
            try:
                simulate_scenario(scenario, data[scenario.country], econ)
            except ValueError as exc:
                expected.append(f"  {scenario.key}: {type(exc).__name__}: {exc}")
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"{len(expected)} scenario(s) failed:", *expected]
        assert captured.out.startswith("evaluated 32 of 60 scenarios\n")

    @pytest.mark.parametrize("flag, value, failed", [
        ("--bess-prices", "1e308", 8), ("--discount-rate", "1e308", 16),
    ])
    def test_non_finite_results_are_failures(
        self, tmp_path, two_country_csv, capsys, flag, value, failed
    ):
        out = tmp_path / "out"
        argv = self.sweep_argv(out, two_country_csv, ("--types", "A", "--ratios", "1", flag, value))
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0] == f"{failed} scenario(s) failed:" and len(err) == 1 + failed
        assert all(re.search(r"ValueError: lco[eu] must be finite, got inf$", line)
                   for line in err[1:])
        for name in ("results.csv", "parity_shares.csv", "box_stats.csv"):
            text = (out / name).read_text().lower()
            assert "inf" not in text and "nan" not in text
        assert main(["report", str(out / "results.csv"), "--out", str(tmp_path / "rep")]) == 0


    def test_manifest_records_profile_flag_over_config(self, tmp_path, two_country_csv):
        in_config = profile_csv(tmp_path / "a.csv", lambda hour: 0.6)
        on_flag = profile_csv(tmp_path / "b.csv", evening_load)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"load_profile_csv": str(in_config)}))
        out = tmp_path / "out"
        argv = self.sweep_argv(out, two_country_csv, (
            "--types", "A", "--ratios", "1", "--bess-prices", "150",
            "--config", str(config), "--load-profile", str(on_flag),
        ))
        assert main(argv) == 0
        manifest = json.loads((out / "run-manifest.json").read_text())
        assert manifest["profile_overrides"] == {"load": str(on_flag), "pv": None}

    def test_measured_profile_sweep_parallel_matches_serial_bytes(
        self, tmp_path, two_country_csv
    ):
        load = profile_csv(tmp_path / "load.csv", evening_load)
        pv = profile_csv(tmp_path / "pv.csv", midday_pv)
        outs = [tmp_path / "serial", tmp_path / "parallel"]
        for out, workers in zip(outs, ("1", "2")):
            argv = [
                "sweep", "--out", str(out), "--countries", str(two_country_csv),
                "--parallel", workers, "--types", "A",
                "--load-profile", str(load), "--pv-profile", str(pv),
            ]
            assert main(argv) == 0
        for name in ("results.csv", "parity_shares.csv", "box_stats.csv", "run-manifest.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize(
    "config, flags, named",
    [
        ({"parallel": "2"}, [], "parallel"),
        ({"discount_rate": "0.05"}, [], "discount_rate"),
        ({"ratios": ["a"]}, [], "ratios"),
        ({"parallel": 1.5}, [], "parallel"),
        (None, ["--ratios", "a,b"], "--ratios"),
        (None, ["--ratios", "-1"], "ratio_kwh_per_kwp"),
        # an empty path would name the working directory
        ({"countries_csv": ""}, [], "countries_csv"),
        ({"load_profile_csv": ""}, [], "load_profile_csv"),
        ({"pv_profile_csv": ""}, [], "pv_profile_csv"),
    ],
)
def test_bad_values_exit_2_with_one_line_message(tmp_path, capsys, config, flags, named):
    argv = ["sweep", "--out", str(tmp_path / "out"), *flags]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    # argparse prints its usage lines first; the message itself is the last line
    assert "error" in err.splitlines()[-1] and named in err.splitlines()[-1]
    if config is not None:
        assert err.count("\n") == 1


@pytest.mark.parametrize("key, value, kind", [
    ("parallel", 1.5, "an integer"),
    ("discount_rate", "0.05", "a number"),
    ("countries_csv", 3, "a non-empty path string"),
    ("countries_csv", "", "a non-empty path string"),
    ("ratios", 1, "a list of numbers"),
    ("prosumer_types", "A", "a list of strings"),
])
def test_config_type_errors_name_the_kind_with_its_article(tmp_path, capsys, key, value, kind):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({key: value}))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"error: config key {key} in {path} must be {kind}, got {value!r}\n"
    )


ONE_RESULT_CSV = RESULTS_CSV_HEADER + "\nCyprus,A,1,1,150,0.5,0.5,0.08,0.1,10.0,true\n"
COMMAND_ARGV = {
    "simulate": [
        "simulate", "--country", "Cyprus", "--type", "A", "--pv-kwp", "3", "--ratio", "1",
        "--bess-price", "150",
    ],
    "sweep": ["sweep", "--types", "A", "--ratios", "1", "--bess-prices", "150", "--parallel", "1"],
    "report": ["report"],
}


@pytest.mark.parametrize("command, args", [
    ("report", ["{results}", "--config", "{latin1}"]),
    ("report", ["{latin1}"]),
    ("report", ["{dir}"]),
    ("report", ["{results}", "--config", "{dir}"]),
    ("sweep", ["--config", "{dir}"]),
    ("simulate", ["--config", "{latin1}"]),
    ("simulate", ["--countries", "{dir}"]),
    ("sweep", ["--countries", "{dir}"]),
    ("sweep", ["--countries", "{latin1}"]),
    ("simulate", ["--load-profile", "{dir}"]),
    ("sweep", ["--pv-profile", "{dir}"]),
    ("sweep", ["--load-profile", "{latin1}"]),
    ("simulate", ["--out", "{file}"]),
    ("sweep", ["--out", "{file}"]),
    ("report", ["{results}", "--out", "{file}"]),
    ("report", ["{results}", "--out", "{taken}"]),
    ("simulate", ["--trace", "{file}/trace.csv"]),
    # an output file that is a directory, found before the others are written
    ("sweep", ["--out", "{taken}"]),
    ("simulate", ["--out", "{taken}"]),
    ("simulate", ["--trace", "{dir}"]),
    # a trace that would replace simulate's own outputs
    ("simulate", ["--trace", "{out}/scenario_result.csv"]),
    ("simulate", ["--trace", "{out}/../out/run-manifest.json"]),
    # outputs nested in one another: a trace under simulate's own output, a trace
    # where --out is to be, and an --out under the trace
    ("simulate", ["--trace", "{out}/scenario_result.csv/trace.csv"]),
    ("simulate", ["--trace", "{out}"]),
    ("simulate", ["--out", "{trace}/out", "--trace", "{trace}"]),
    # a profile one step short of a year, or one step past it
    ("sweep", ["--load-profile", "{short}"]),
    ("sweep", ["--pv-profile", "{long}"]),
    ("simulate", ["--load-profile", "{long}"]),
    ("simulate", ["--pv-profile", "{short}"]),
    # a measured year with no energy, which sweep would have to rescale
    ("sweep", ["--pv-profile", "{zero}"]),
    ("sweep", ["--load-profile", "{zero}"]),
    # a measured year whose energy overflows a float
    ("simulate", ["--pv-profile", "{overflow}"]),
    ("sweep", ["--pv-profile", "{overflow}"]),
    # a horizon whose discount factors could not be allocated
    ("simulate", ["--horizon", "1000000000000"]),
    ("sweep", ["--config", "{horizon}"]),
    # steps of which neither is a whole multiple of the other: 24 minutes against an hour
    ("sweep", ["--pv-profile", "{pv24}"]),
    ("simulate", ["--pv-profile", "{pv24}"]),
    ("sweep", ["--load-profile", "{load24}", "--pv-profile", "{hourly}"]),
    # a kWp past the float range, and one cell's LCOUs of +-1e308, whose quartiles overflow
    ("simulate", ["--pv-kwp", "{huge}"]),
    ("report", ["{wide}"]),
    # an empty path, which would name the working directory
    ("sweep", ["--out", ""]),
    ("sweep", ["--countries", ""]),
    ("simulate", ["--load-profile", ""]),
    ("sweep", ["--pv-profile", ""]),
    ("simulate", ["--trace", ""]),
    ("sweep", ["--config", ""]),
    ("report", [""]),
], ids=lambda value: value if isinstance(value, str) else " ".join(a or "''" for a in value))
def test_unreadable_inputs_and_unwritable_outputs_exit_2(
    tmp_path, capsys, monkeypatch, command, args
):
    calls = []

    def run_sweep_spy(*sweep_args, **kwargs):
        calls.append(sweep_args)
        return run_sweep(*sweep_args, **kwargs)

    monkeypatch.setattr("storparity.cli.run_sweep", run_sweep_spy)
    paths = {
        "latin1": tmp_path / "latin1.txt",  # not UTF-8
        "dir": tmp_path / "a-directory",
        "file": tmp_path / "a-file",
        "results": tmp_path / "results.csv",
        "taken": tmp_path / "taken",  # its outputs below are directories
        "out": tmp_path / "out",
        "trace": tmp_path / "trace.csv",  # not made
        "horizon": tmp_path / "horizon.json",
        "wide": tmp_path / "wide.csv",
        "huge": "1" + "0" * 400,  # not a path: argparse reads it as an int
    }
    profile_csvs = {  # (power, steps, minutes); written only for the cases that name them
        "short": (evening_load, 8759, 60),
        "long": (evening_load, 8761, 60),
        "zero": (lambda hour: 0.0, 8760, 60),
        "overflow": (lambda hour: 1e308, 8760, 60),
        "hourly": (midday_pv, 8760, 60),
        "pv24": (lambda i: midday_pv(0.4 * i), 365 * 60, 24),
        "load24": (lambda i: evening_load(0.4 * i), 365 * 60, 24),
    }
    for name, (power, steps, minutes) in profile_csvs.items():
        paths[name] = tmp_path / f"{name}.csv"
        if "{%s}" % name in args:
            profile_csv(paths[name], power, steps, minutes)
    paths["latin1"].write_bytes("caf\u00e9".encode("latin-1"))
    paths["dir"].mkdir()
    paths["file"].write_text("")
    paths["results"].write_text(ONE_RESULT_CSV)
    paths["horizon"].write_text('{"horizon_years": 1000000000000}')
    paths["wide"].write_text(ONE_RESULT_CSV.replace(",0.1,", ",1e308,")
                             + "Cyprus,A,2,1,150,0.5,0.5,0.08,-1e308,10.0,true\n")
    for name in ("box_stats.csv", "run-manifest.json", "report_summary.json"):
        (paths["taken"] / name).mkdir(parents=True)
    before = sorted(tmp_path.rglob("*"))
    argv = [*COMMAND_ARGV[command], "--out", str(paths["out"]), *args]
    assert main([arg.format(**paths) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    # outputs are checked before the work: no sweep ran, nothing was written
    assert calls == [] and sorted(tmp_path.rglob("*")) == before
    for name, hours in (("short", 8759), ("long", 8761)):
        if "{%s}" % name in args:
            assert err == (f"error: profile CSV {paths[name]}: profile must cover one year: "
                           f"{hours} steps of 1.0 h, expected 8760\n")
    if "{zero}" in args:
        assert err == f"error: profile CSV {paths['zero']}: cannot rescale a profile with zero energy\n"
    if "{huge}" in args:  # in report's words for a kWp past int64
        assert err == f"error: pv_kwp must fit in 64 bits, got {paths['huge']}\n"
    if "{overflow}" in args:
        assert err == (f"error: profile CSV {paths['overflow']}: "
                       "the year's energy must be finite, got inf kWh\n")
    if "1000000000000" in args or "{horizon}" in args:
        assert err == ("error: bad economic parameters: horizon_years must be an integer in "
                       "1..100000, got 1000000000000\n")
    if "--trace" in args and any("{out}" in arg or "{trace}" in arg for arg in args):
        # an output in another's way: both flags are named
        assert err.startswith("error: --trace ") and ", an output of --out" in err
    if "{wide}" in args:
        assert err == (f"error: results CSV {paths['wide']}: LCOUs of Cyprus at BESS price 150 "
                       "span -1e+308 to 1e+308, too wide for float quartiles\n")
    if "" in args:
        name = "results_csv" if args == [""] else args[args.index("") - 1]
        assert err == f"error: {name} must be a non-empty path string, got ''\n"
    if "{pv24}" in args or "{load24}" in args:
        assert err == ("error: load and PV profile steps do not align: "
                       "step ratio 2.5 is not an integer (1.0 h vs 0.4 h)\n")


#: Per case: the command, the flag that names an input (None: the country CSV of
#: STORPARITY_DATA_DIR; "": report's results_csv), the input's path, which --trace (or
#: a symlink to it) or a file under --out ({out}) resolves to, and the --trace.
OVERWRITTEN_INPUTS = {
    "simulate --trace --config": ("simulate", "--config", "{tmp}/config.json", "trace"),
    "simulate --trace --countries": ("simulate", "--countries", "{tmp}/countries.csv", "trace"),
    "simulate --trace data dir": ("simulate", None, "{tmp}/data/countries.csv", "trace"),
    "simulate --trace --load-profile": ("simulate", "--load-profile", "{tmp}/load.csv", "trace"),
    "simulate --trace --pv-profile": ("simulate", "--pv-profile", "{tmp}/pv.csv", "trace"),
    "simulate --trace symlinked --load-profile":
        ("simulate", "--load-profile", "{tmp}/load.csv", "link"),
    "simulate --out --pv-profile": ("simulate", "--pv-profile", "{out}/scenario_result.csv", None),
    "sweep --out --config": ("sweep", "--config", "{out}/run-manifest.json", None),
    "sweep --out --countries": ("sweep", "--countries", "{out}/results.csv", None),
    "sweep --out --load-profile": ("sweep", "--load-profile", "{out}/parity_shares.csv", None),
    "report --out --config": ("report", "--config", "{out}/report_summary.json", None),
    "report --out results_csv": ("report", "", "{out}/report_summary.json", None),
}


@pytest.mark.parametrize("case", OVERWRITTEN_INPUTS)
def test_outputs_that_would_overwrite_an_input_exit_2(tmp_path, capsys, monkeypatch, case):
    command, flag, template, trace = OVERWRITTEN_INPUTS[case]
    out = tmp_path / "out"
    path = Path(template.format(tmp=tmp_path, out=out))
    path.parent.mkdir(exist_ok=True)
    contents = {  # a readable input of each kind
        "--config": "{}\n",
        "--countries": TWO_COUNTRY_CSV,
        None: TWO_COUNTRY_CSV,
        "--load-profile": None,
        "--pv-profile": None,
        "": ONE_RESULT_CSV,
    }
    if contents[flag] is None:
        profile_csv(path, evening_load if flag == "--load-profile" else midday_pv)
    else:
        path.write_text(contents[flag])
    if flag is None:
        monkeypatch.setenv(DATA_DIR_ENV, str(path.parent))
    else:
        monkeypatch.delenv(DATA_DIR_ENV, raising=False)
    argv = [*COMMAND_ARGV[command], "--out", str(out)]
    if command == "report" and flag:
        (tmp_path / "results.csv").write_text(ONE_RESULT_CSV)
        argv.append(str(tmp_path / "results.csv"))
    argv += [str(path)] if flag == "" else [flag, str(path)] if flag else []
    if trace == "link":
        (tmp_path / "link.csv").symlink_to(path)
        argv += ["--trace", str(tmp_path / "link.csv")]
    elif trace:
        argv += ["--trace", str(path)]
    before = {p: p.read_bytes() if p.is_file() else None for p in sorted(tmp_path.rglob("*"))}
    assert main(argv) == 2
    out_text, err = capsys.readouterr()
    assert out_text == "" and err.count("\n") == 1
    assert err.startswith("error: --") and " would overwrite " in err
    assert err.rstrip().endswith(("the config file", "the country CSV", "the load profile CSV",
                                  "the PV profile CSV", "the results CSV"))
    assert {p: p.read_bytes() if p.is_file() else None
            for p in sorted(tmp_path.rglob("*"))} == before


class TestReport:
    def make_results(self, tmp_path, two_country_csv):
        out = tmp_path / "sweep"
        assert main([
            "sweep", "--out", str(out), "--countries", str(two_country_csv),
            "--parallel", "1",
        ]) == 0
        return out / "results.csv"

    def test_report_roundtrip_from_sweep(self, tmp_path, two_country_csv, capsys):
        results_csv = self.make_results(tmp_path, two_country_csv)
        out = tmp_path / "report"
        code = main(["report", str(results_csv), "--out", str(out)])
        text = capsys.readouterr().out
        assert code == 0
        assert "France" in text and "pooled" in text
        assert "0.0%" in text  # France share
        summary = json.loads((out / "report_summary.json").read_text())
        france = [
            row for row in summary["parity_shares"]
            if row["country"] == "France" and row["bess_price"] == "pooled"
        ]
        assert france[0]["share_percent"] == 0.0
        assert summary["lcou_quartiles"]
        assert summary["best_pv_size_kwp"]

    def test_close_prices_get_distinct_labels(self, tmp_path, two_country_csv, capsys):
        # {:g} printed both prices as 123.457 in the summary and best-size tables
        out = tmp_path / "sweep"
        assert main([
            "sweep", "--out", str(out), "--countries", str(two_country_csv), "--parallel", "1",
            "--types", "A", "--ratios", "1", "--bess-prices", "123.4567,123.4568",
        ]) == 0
        assert main(["report", str(out / "results.csv"), "--out", str(tmp_path / "rep")]) == 0
        lines = capsys.readouterr().out.splitlines()
        five_number = [line.split()[:2] for line in lines if line.startswith("  Cyprus ") and
                       len(line.split()) == 7]
        best_size = [line.split()[1:4] for line in lines if line.startswith("  Cyprus ") and
                     len(line.split()) == 5]
        assert five_number == [["Cyprus", "123.4567"], ["Cyprus", "123.4568"]]
        assert best_size == [["A", "1", "123.4567"], ["A", "1", "123.4568"]]

    def test_empty_results_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text(RESULTS_CSV_HEADER + "\n")
        assert main(["report", str(empty), "--out", str(tmp_path)]) == 2
        capsys.readouterr()

    def test_malformed_schema_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("country,oops\nCyprus,1\n")
        assert main(["report", str(bad), "--out", str(tmp_path)]) == 2
        capsys.readouterr()

    def test_repeated_scenario_exits_2(self, tmp_path, capsys):
        # counted twice, it would weigh twice in the parity shares and the quartiles
        repeated = tmp_path / "repeated.csv"
        repeated.write_text(ONE_RESULT_CSV + "Cyprus,A,1,1.0,150,0.4,0.4,0.07,0.09,11.0,false\n")
        out = tmp_path / "rep"
        assert main(["report", str(repeated), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: results CSV {repeated}: line 3: duplicate scenario "
            "('Cyprus', 'A', 1, 1.0, 150.0)\n"
        )
        assert not out.exists()

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "absent.csv")]) == 2
        capsys.readouterr()

    def test_quartiles_match_hand_computed_fixture(self, tmp_path, capsys):
        rows = [RESULTS_CSV_HEADER]
        for kwp, lcou in ((1, 0.10), (2, 0.12), (3, 0.14), (4, 0.18), (5, 0.30)):
            rows.append(
                f"Cyprus,A,{kwp},1,150,0.5,0.5,0.08,{lcou:.6f},10.0,true"
            )
        fixture = tmp_path / "five.csv"
        fixture.write_text("\n".join(rows) + "\n")
        out = tmp_path / "rep"
        assert main(["report", str(fixture), "--out", str(out)]) == 0
        capsys.readouterr()
        summary = json.loads((out / "report_summary.json").read_text())
        q = summary["lcou_quartiles"][0]
        assert (q["min"], q["q1"], q["median"], q["q3"], q["max"]) == (
            0.10, 0.12, 0.14, 0.18, 0.30,
        )


    @pytest.mark.parametrize("column", range(5, 10))
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_metric_exits_2(self, tmp_path, capsys, column, value):
        cells = ONE_RESULT_CSV.splitlines()[1].split(",")
        cells[column] = value
        bad = tmp_path / "bad.csv"
        bad.write_text(RESULTS_CSV_HEADER + "\n" + ",".join(cells) + "\n")
        out = tmp_path / "rep"
        assert main(["report", str(bad), "--out", str(out)]) == 2
        name = RESULTS_CSV_HEADER.split(",")[column]
        assert f"line 2: {name} must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_config_profiles_and_countries_are_not_read(self, tmp_path, capsys):
        fixture = tmp_path / "one.csv"
        fixture.write_text(RESULTS_CSV_HEADER + "\nCyprus,A,1,1,150,0.5,0.5,0.08,0.1,10.0,true\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "load_profile_csv": str(tmp_path / "missing.csv"),
            "countries_csv": str(tmp_path / "missing-countries.csv"),
        }))
        out = tmp_path / "rep"
        assert main(["report", str(fixture), "--config", str(config), "--out", str(out)]) == 0
        assert (out / "report_summary.json").is_file()
        capsys.readouterr()

    @pytest.mark.parametrize("flag", [
        "--discount-rate", "--vat", "--horizon", "--usable-fraction", "--countries",
    ])
    def test_flags_it_does_not_read_are_usage_errors(self, tmp_path, capsys, flag):
        fixture = tmp_path / "one.csv"
        fixture.write_text(ONE_RESULT_CSV)
        assert main(["report", str(fixture), flag, "0.05", "--out", str(tmp_path / "rep")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and f"unrecognized arguments: {flag} 0.05" in err
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_config_constant_exits_2(self, tmp_path, capsys, constant):
        fixture = tmp_path / "one.csv"
        fixture.write_text(ONE_RESULT_CSV)
        config = tmp_path / "config.json"
        config.write_text(f'{{"ratios": [{constant}], "bess_prices": [-1]}}')
        out = tmp_path / "rep"
        assert main(["report", str(fixture), "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"holds {constant}" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("kwp", ["99999999999999999999", "-1" + "0" * 400])
    def test_kwp_past_int64_exits_2_naming_the_line(self, tmp_path, capsys, kwp):
        # the table holds kWp in an int64 column, which these sizes do not fit
        big = tmp_path / "big.csv"
        big.write_text(ONE_RESULT_CSV + f"Cyprus,A,{kwp},1,150,0.4,0.4,0.07,0.09,11.0,false\n")
        out = tmp_path / "rep"
        assert main(["report", str(big), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: results CSV {big}: line 3: pv_kwp must fit in 64 bits, got {kwp}\n"
        )
        assert not out.exists()

    def test_config_types_are_still_checked(self, tmp_path, capsys):
        fixture = tmp_path / "one.csv"
        fixture.write_text(RESULTS_CSV_HEADER + "\nCyprus,A,1,1,150,0.5,0.5,0.08,0.1,10.0,true\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"discount_rate": "0.05"}))
        assert main(["report", str(fixture), "--config", str(config)]) == 2
        assert "discount_rate" in capsys.readouterr().err


#: sha256 of each output of the default sweep and of its report. The CSVs'
#: are the benchmark's golden digests; the report's are of the summary as
#: json.dumps(summary, indent=2, sort_keys=True) writes it.
DEFAULT_SWEEP_SHA256 = {
    "sweep/results.csv": "7934fe894718342e816a23f9da4cac8f4035fe314affb016d198894b24b65551",
    "sweep/parity_shares.csv": "3323bb10046b82ed33f1e20bb7bd708cd943aba9b0bafa8b713fc31f8da392c6",
    "sweep/box_stats.csv": "3467aec1cb35e84aed146250c10136294bd38d4b2e245d05e65146edd362f0fa",
    "sweep stdout": "69f19fa6764652b65de536af28fbaa071cf35f7817e536fbd45889416455d21f",
    "report/report_summary.json":
        "38f756512afd2ae159a9a9d9f495d9db24aba251ca5f130bc4f449d004c49198",
    "report stdout": "9488c6fd04e1ad7d61627539fd46520eca0fd284b8ab9308e3bf8de071ddb324",
}


def test_default_sweep_and_its_report_keep_their_bytes(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(DATA_DIR_ENV, raising=False)
    outputs = {}
    assert main(["sweep", "--out", str(tmp_path / "sweep")]) == 0
    outputs["sweep stdout"] = capsys.readouterr().out.encode()
    assert main(["report", str(tmp_path / "sweep" / "results.csv"),
                 "--out", str(tmp_path / "report")]) == 0
    outputs["report stdout"] = capsys.readouterr().out.encode()
    for name in DEFAULT_SWEEP_SHA256:
        if "/" in name:
            outputs[name] = (tmp_path / name).read_bytes()
    assert {name: hashlib.sha256(data).hexdigest()
            for name, data in outputs.items()} == DEFAULT_SWEEP_SHA256


#: sha256 of simulate --trace's outputs: CI's smoke case on the shipped hourly
#: profiles, and a quarter-hour measured load beside an hourly PV CSV, at
#: ratios 1, 10 (the largest battery) and -0 (it writes -0.000000 SOCs). The
#: traces are the bytes of the row template "%d," + ",".join(["%.6f"] * 8).
SIMULATE_TRACE_SHA256 = {
    "hourly/trace.csv": "00d0717c81329de2f08b42ee5a60c1298611609cb532b2ed6fe96ec1b6dbdaf8",
    "hourly/scenario_result.csv":
        "6b25533e182fa05476953095957b6743bdd31ab9095f4803e401911243dc0744",
    "hourly stdout": "557ba6c55fafccabc98c07a354aaf62e8a0d237e8d731c6e39d15311155d1948",
    "quarter-hour/trace.csv": "aa15a65ec4e94a957627b7850e35e7b4e4a927e9e6acb74dbf556893ff20b666",
    "quarter-hour/scenario_result.csv":
        "42499f491fe8db28a7bb9589fe683da6a270ef72ca554bf5ea6384c1423fe97d",
    "quarter-hour stdout": "24fda7595f1e0f4e625745214f26fabe0acf0f51d3e3d04a57fe0d2029c443ba",
    "ratio 10/trace.csv": "bf197e6121d5ab107dcebf63437f70489878a07336de871915a4a6fee93d6aee",
    "ratio 10/scenario_result.csv":
        "5426518357469cd62c9a61a7325c3d33515d782731c51ff7b3c3520c72bd47ed",
    "ratio 10 stdout": "f8fe061c2609d9388527c64e87c7e868c2bf1948ecee7a5fd4558f44ecccccbb",
    "ratio -0/trace.csv": "4cd1b1af130b47b8b10fb00bad295fa3646c57405160c7626c57b142d40207c4",
    "ratio -0/scenario_result.csv":
        "8618681cfcfc4c4cec5db0c951b47f6c929f68178122097bc17912792f1d27d4",
    "ratio -0 stdout": "e2d067915c5f94ebb951bdddedae62b93152a8559af2462ec24bea9e577ae1ad",
}


def test_simulate_traces_keep_their_bytes(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(DATA_DIR_ENV, raising=False)
    load = profile_csv(tmp_path / "load.csv",
                       lambda i: evening_load(i // 4) + 0.01 * (i * 7919 % 101), 35040, 15)
    pv = profile_csv(tmp_path / "pv.csv", midday_pv)
    measured = ["--type", "B", "--pv-kwp", "5",
                "--load-profile", str(load), "--pv-profile", str(pv)]
    cases = {
        "hourly": ["--type", "A", "--pv-kwp", "3", "--ratio", "1"],
        "quarter-hour": [*measured, "--ratio", "1"],
        "ratio 10": [*measured, "--ratio", "10"],
        "ratio -0": [*measured, "--ratio", "-0"],
    }
    outputs = {}
    for name, args in cases.items():
        out = tmp_path / name
        assert main(["simulate", "--country", "Cyprus", *args, "--bess-price", "150",
                     "--out", str(out), "--trace", str(out / "trace.csv")]) == 0
        outputs[f"{name} stdout"] = capsys.readouterr().out.encode()
        for file in ("trace.csv", "scenario_result.csv"):
            outputs[f"{name}/{file}"] = (out / file).read_bytes()
    assert {name: hashlib.sha256(data).hexdigest()
            for name, data in outputs.items()} == SIMULATE_TRACE_SHA256


#: Country names the JSON writer must escape as json does: quotes, backslashes,
#: control characters and non-ASCII text.
AWKWARD_NAMES = ["Cyprus", "Côte d'Ivoire", 'say "hi"', "back\\slash", "tab\tline\u2028",
                 "Ελλάδα", "日本", "\U0001f600", "100%"]


@st.composite
def report_summaries(draw):
    """A report summary from drawn results: its parity shares and best sizes as report
    computes them, and LCOU quartiles that LCOUs of +-1e308 turn into NaN or infinities."""
    cells = draw(st.dictionaries(
        st.tuples(st.sampled_from(AWKWARD_NAMES) | st.text(max_size=6),
                  st.sampled_from([-0.0, 0.0, 150, 150.0, 1e308, 123.4567])),
        st.lists(st.sampled_from([-1e308, 1e308, 0.1]) | st.floats(-1e308, 1e308),
                 min_size=1, max_size=5),
        max_size=6,
    ))
    table = table_of([
        (country, "A", kwp, 1.0, price, 0.5, 0.5, 0.1, lcou, 1.0, draw(st.booleans()))
        for (country, price), lcous in cells.items() for kwp, lcou in enumerate(lcous, 1)
    ])
    cells, order, starts, counts = table.by_country_price
    with np.errstate(over="ignore", invalid="ignore"):  # 1e308 - -1e308, inf * 0
        five = sweep_module._five_numbers(table.lcou[order], starts, counts).tolist()
    lists = (parity_share_table(table), [(*cell, *row) for cell, row in zip(cells, five)],
             best_pv_sizes(table))
    return {name: [dict(zip(keys, row)) for row in rows]
            for (name, keys), rows in zip(SUMMARY_KEYS.items(), lists)}


@st.composite
def record_documents(draw):
    """Names mapped to lists of flat records, the records of each list sharing their keys."""
    scalar = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    document = {}
    for name in draw(st.lists(st.text(max_size=4), max_size=3, unique=True)):
        keys = draw(st.lists(st.text(max_size=3), max_size=3, unique=True))
        document[name] = draw(st.lists(st.fixed_dictionaries(dict.fromkeys(keys, scalar)),
                                       max_size=3))
    return document


class TestJsonRecords:
    @settings(max_examples=200, deadline=None)
    @given(report_summaries())
    def test_report_summaries_match_json_dumps(self, summary):
        assert write_json_records(summary) == json.dumps(summary, indent=2, sort_keys=True) + "\n"

    @settings(max_examples=200, deadline=None)
    @given(record_documents())
    def test_any_lists_of_flat_records_match_json_dumps(self, document):
        expected = json.dumps(document, indent=2, sort_keys=True) + "\n"
        assert write_json_records(document) == expected

    def test_records_of_one_list_must_share_their_keys(self):
        with pytest.raises(ValueError, match="share their keys"):
            write_json_records({"rows": [{"a": 1}, {"b": 2}]})


class TestParserBasics:
    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "storparity" in capsys.readouterr().out

    def test_missing_subcommand_exits_2(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_module_entry_point(self):
        # run from the directory holding the package, so no install or PYTHONPATH is needed
        result = subprocess.run(
            [sys.executable, "-m", "storparity.cli", "--version"],
            capture_output=True, text=True, cwd=Path(storparity.__file__).parents[1],
        )
        assert result.returncode == 0
        assert "storparity" in result.stdout


def test_import_leaves_the_process_pool_unloaded(tmp_path):
    # a sweep's workers fork: no command loads concurrent.futures or multiprocessing
    sweep = ["sweep", "--out", str(tmp_path), "--types", "A", "--ratios", "1,2"]
    parallel = [*sweep, "--parallel", "2"]
    for code in ("pass", f"assert storparity.cli.main({sweep!r}) == 0",
                 # two usable CPUs on any host, so the sweep forks
                 "os.sched_getaffinity = lambda pid: {0, 1}; "
                 f"assert storparity.cli.main({parallel!r}) == 0"):
        result = subprocess.run(
            [sys.executable, "-c", f"import os, sys, storparity.cli; {code}; sys.exit(sorted({{"
                                   "'concurrent.futures', 'multiprocessing'} & set(sys.modules)) "
                                   "or None)"],
            cwd=Path(storparity.__file__).parents[1], capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr


def test_sweep_and_report_leave_numpy_ma_unloaded(tmp_path):
    # numpy's percentile imports numpy.ma on its first call; the quartiles need neither.
    # numpy before 2.0 imports numpy.ma itself, so what a bare import loads is allowed.
    sweep = ["sweep", "--out", str(tmp_path), "--types", "A", "--ratios", "1"]
    report = ["report", str(tmp_path / "results.csv"), "--out", str(tmp_path)]
    code = "\n".join([
        "import sys, numpy",
        "loaded = lambda: {m for m in sys.modules if (m + '.').startswith('numpy.ma.')}",
        "bare = loaded()",
        "import storparity.cli",
        f"assert storparity.cli.main({sweep!r}) == 0",
        f"assert storparity.cli.main({report!r}) == 0",
        "sys.exit(f'numpy.ma modules loaded: {sorted(loaded() - bare)}' if loaded() - bare else 0)",
    ])
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            cwd=Path(storparity.__file__).parents[1])
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("workers", ["1", "2"])
def test_unbalanced_books_exit_1_in_one_line(tmp_path, capsys, monkeypatch, workers):
    # every flow sum half as large again: the PV side of each key with a flow stops
    # balancing; a pool worker forked from here runs the same corrupted sums
    import storparity.dispatch as dispatch_module

    in_order = dispatch_module._in_order
    monkeypatch.setattr(dispatch_module, "_in_order", lambda sums: in_order(sums) * 1.5)
    out = tmp_path / "out"
    argv = ["sweep", "--types", "A", "--ratios", "1", "--bess-prices", "150",
            "--parallel", workers, "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert re.match(r"internal error: \w+ type A, \d kWp, \d kWh: energy books of dispatch "
                    r"config \d+ do not balance: residuals ", captured.err)
    assert not out.exists()


@pytest.mark.parametrize("failure, message", [
    ("killed", r"sweep worker \d+ was killed by signal 9 \(.+\) before sending its dispatches"),
    # the child's slice is the second half of the 30 keys: the last three countries
    ("unbalanced", r"(Italy|Portugal|Spain) type A, \d kWp, \d kWh: energy books of dispatch "
                   r"config \d+ do not balance: residuals .+"),
], ids=["killed", "unbalanced"])
def test_a_failed_worker_exits_1_in_one_line(tmp_path, capsys, monkeypatch, failure, message):
    # only the forked child fails: killed mid-slice, as the OOM killer would end it, or
    # with books that do not balance, an error that crosses the pipe to be raised here
    import storparity.dispatch as dispatch_module

    in_order, test_pid = dispatch_module._in_order, os.getpid()

    def in_order_failing_in_a_child(sums):
        if os.getpid() == test_pid:
            return in_order(sums)
        if failure == "killed":
            os.kill(os.getpid(), signal.SIGKILL)
        return in_order(sums) * 1.5

    monkeypatch.setattr(dispatch_module, "_in_order", in_order_failing_in_a_child)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    out = tmp_path / "out"
    argv = ["sweep", "--types", "A", "--ratios", "1", "--bess-prices", "150",
            "--parallel", "2", "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and re.fullmatch(f"internal error: {message}\n", captured.err)
    assert not out.exists()
    with pytest.raises(ChildProcessError):  # the child was reaped
        os.waitpid(-1, os.WNOHANG)


def test_perfbench_span_targets_resolve(monkeypatch):
    # the benchmark's span recorder wraps each (module, attribute) with a bare getattr
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look it up
    spec.loader.exec_module(spans)
    missing = [
        (module, attr)
        for targets in spans.TARGETS.values()
        for module, attr in targets
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


# in the config file, so that a drawn flag or config key is not overridden by a flag
TINY_SWEEP = {"prosumer_types": ["A"], "ratios": [1], "bess_prices": [150], "parallel": 1}
NUMERIC_KINDS = (NUMBER, INTEGER, NUMBERS)
NON_FINITE = [float("nan"), float("inf"), float("-inf")]


def numeric_flags(command):
    flags = [o.flag for o in OPTIONS.values()
             if o.flag and command in o.commands and o.kind in NUMERIC_KINDS]
    return flags + (["--pv-kwp", "--ratio", "--bess-price"] if command == "simulate" else [])


def wrong_json(kind):
    """JSON values of the wrong type for a setting of this kind."""
    wrong = [st.booleans(), st.none(), st.just({}), st.lists(st.booleans(), min_size=1)]
    if kind in NUMERIC_KINDS:
        wrong.append(st.text(max_size=3))
    if kind is INTEGER:
        wrong.append(st.floats(allow_nan=False))
    return st.one_of(wrong)


@pytest.fixture(scope="module")
def hourly_profile_lines(tmp_path_factory):
    path = tmp_path_factory.mktemp("profile") / "load.csv"
    return profile_csv(path, evening_load).read_text().splitlines()


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_non_finite_and_wrongly_typed_inputs_exit_2(
    tmp_path, capsys, two_country_csv, hourly_profile_lines, data
):
    """NaN, inf or a wrong JSON type in a flag, config value or profile cell: exit 2, one line."""
    command = data.draw(st.sampled_from(["simulate", "sweep"]))
    argv = [*(COMMAND_ARGV["simulate"] if command == "simulate" else ["sweep"]),
            "--countries", str(two_country_csv), "--config", str(tmp_path / "config.json")]
    config = TINY_SWEEP if command == "sweep" else {}
    where = data.draw(st.sampled_from(["flag", "config", "profile"]))
    if where == "flag":
        flag = data.draw(st.sampled_from(numeric_flags(command)))
        argv.append(f"{flag}={data.draw(st.sampled_from(NON_FINITE))}")
    elif where == "config":
        key = data.draw(st.sampled_from(sorted(OPTIONS)))
        kind = OPTIONS[key].kind
        value = wrong_json(kind)
        if kind in NUMERIC_KINDS and command in OPTIONS[key].commands:
            non_finite = st.sampled_from(NON_FINITE)
            value = value | (st.lists(non_finite, min_size=1) if kind is NUMBERS else non_finite)
        config = {**config, key: data.draw(value)}
    else:
        lines = list(hourly_profile_lines)
        row = data.draw(st.integers(1, len(lines) - 1))
        cell = data.draw(st.sampled_from(["nan", "inf", "-inf"]))
        lines[row] = lines[row].split(",")[0] + "," + cell
        profile = tmp_path / "profile.csv"
        profile.write_text("\n".join(lines) + "\n")
        argv += [data.draw(st.sampled_from(["--load-profile", "--pv-profile"])), str(profile)]
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if err.startswith("usage: "):  # argparse: its usage lines, then the message
        assert ": error: " in err.splitlines()[-1]
    else:
        assert err.startswith("error: ") and err.count("\n") == 1


EXTREME = st.one_of(st.sampled_from([0.0, 5e-324, 1.0, 1e300, 1e308]), st.floats(0.0, 1e308))


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pv_price=EXTREME, bess_price=EXTREME, discount=EXTREME, ratio=EXTREME)
def test_extreme_valid_values_write_only_finite_files(
    tmp_path, capsys, two_country_csv, pv_price, bess_price, discount, ratio
):
    """Valid values up to 1e308: exit 0 or 1, no NaN or inf written, report reads results back."""
    out = Path(tempfile.mkdtemp(dir=tmp_path))
    code = main([
        "sweep", "--countries", str(two_country_csv), "--types", "A", "--parallel", "1",
        "--ratios", repr(ratio), "--bess-prices", repr(bess_price),
        "--pv-price", repr(pv_price), "--discount-rate", repr(discount), "--out", str(out / "s"),
    ])
    assert code in (0, 1)
    for path in (out / "s").glob("*.csv"):
        text = path.read_text().lower()
        assert "nan" not in text and "inf" not in text, path.name
    rows = (out / "s" / "results.csv").read_text().splitlines()
    if len(rows) > 1:  # report reads back every row the sweep wrote
        assert main(["report", str(out / "s" / "results.csv"), "--out", str(out / "r")]) == 0
        summary = (out / "r" / "report_summary.json").read_text()
        assert "NaN" not in summary and "Infinity" not in summary
    else:
        assert code == 1
    capsys.readouterr()
