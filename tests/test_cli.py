import importlib
import importlib.util
import json
import subprocess
import sys
from datetime import datetime, timedelta
from pathlib import Path

import pytest

from storparity.cli import main
from storparity.sweep import RESULTS_CSV_HEADER

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
        self, tmp_path, two_country_csv, capsys
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
        assert "failed" in capsys.readouterr().err


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


class TestParserBasics:
    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "storparity" in capsys.readouterr().out

    def test_missing_subcommand_exits_2(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "storparity.cli", "--version"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert "storparity" in result.stdout


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
