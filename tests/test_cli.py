import importlib
import importlib.util
import json
import re
import subprocess
import sys
import tempfile
from datetime import datetime, timedelta
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import storparity
from storparity.cli import INTEGER, NUMBER, NUMBERS, OPTIONS, main
from storparity.sweep import BOX_CSV_HEADER, PARITY_CSV_HEADER, RESULTS_CSV_HEADER, run_sweep

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


def hourly_profile_csv(path, power):
    """Write a one-year hourly ``timestamp,power_kw`` CSV; power maps hour of year to kW."""
    start = datetime(2019, 1, 1)
    rows = ["timestamp,power_kw"]
    rows += [f"{(start + timedelta(hours=i)).isoformat()},{power(i):.4f}" for i in range(8760)]
    path.write_text("\n".join(rows) + "\n")
    return path


def evening_load(hour):
    return 0.4 + (0.8 if hour % 24 >= 18 else 0.0)


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
        profile = hourly_profile_csv(tmp_path / "mixed.csv", evening_load)
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
        pv = hourly_profile_csv(tmp_path / "pv.csv", lambda hour: 0.0)
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
        load = hourly_profile_csv(tmp_path / "load.csv", evening_load)
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
        # an all-zero PV override cannot be rescaled, so every scenario fails
        start = datetime(2019, 1, 1)
        rows = ["timestamp,power_kw"]
        rows += [f"{(start + timedelta(hours=i)).isoformat()},0.0" for i in range(8760)]
        dead_pv = tmp_path / "pv.csv"
        dead_pv.write_text("\n".join(rows) + "\n")
        out = tmp_path / "failed"
        argv = self.sweep_argv(out, two_country_csv, ("--pv-profile", str(dead_pv)))
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
        dead_pv = hourly_profile_csv(tmp_path / "pv.csv", lambda hour: 0.0)
        assert main([*argv, "--pv-profile", str(dead_pv)]) == 1
        assert (out / "results.csv").read_text() == RESULTS_CSV_HEADER + "\n"
        assert (out / "parity_shares.csv").read_text() == PARITY_CSV_HEADER + "\n"
        assert (out / "box_stats.csv").read_text() == BOX_CSV_HEADER + "\n"
        assert "parity share" not in capsys.readouterr().out

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
        in_config = hourly_profile_csv(tmp_path / "a.csv", lambda hour: 0.6)
        on_flag = hourly_profile_csv(tmp_path / "b.csv", evening_load)
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
        load = hourly_profile_csv(tmp_path / "load.csv", evening_load)
        pv = hourly_profile_csv(tmp_path / "pv.csv", midday_pv)
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
    ("simulate", ["--trace", "{file}/trace.csv"]),
], ids=lambda value: " ".join(value) if isinstance(value, list) else value)
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
    }
    paths["latin1"].write_bytes("caf\u00e9".encode("latin-1"))
    paths["dir"].mkdir()
    paths["file"].write_text("")
    paths["results"].write_text(ONE_RESULT_CSV)
    argv = [*COMMAND_ARGV[command], "--out", str(tmp_path / "out"), *args]
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    # outputs are checked before the work: no sweep ran, no result was written
    assert calls == [] and list(tmp_path.glob("out/*")) == []


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

    def test_config_types_are_still_checked(self, tmp_path, capsys):
        fixture = tmp_path / "one.csv"
        fixture.write_text(RESULTS_CSV_HEADER + "\nCyprus,A,1,1,150,0.5,0.5,0.08,0.1,10.0,true\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"discount_rate": "0.05"}))
        assert main(["report", str(fixture), "--config", str(config)]) == 2
        assert "discount_rate" in capsys.readouterr().err


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
    # only a sweep with --parallel above 1 imports it; a sweep without the flag is serial
    sweep = ["sweep", "--out", str(tmp_path), "--types", "A", "--ratios", "1,2"]
    for code in ("pass", f"assert storparity.cli.main({sweep!r}) == 0"):
        result = subprocess.run(
            [sys.executable, "-c", f"import sys, storparity.cli; {code}; "
                                   "sys.exit('concurrent.futures.process' in sys.modules)"],
            cwd=Path(storparity.__file__).parents[1], capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr


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
    return hourly_profile_csv(path, evening_load).read_text().splitlines()


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
