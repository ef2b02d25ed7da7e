"""Seeded benchmark inputs and the CLI commands each workload runs.

A workload is a serial ``sweep`` followed by one follow-up command on the
same inputs. The seed decides the generated input files and which rows the
correctness gate re-checks; it never changes how much work a run does, so
timings of different seeds are comparable. The program receives only the
generated files and flags.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from pathlib import Path

# The workloads' axes are fixed here, not read from the package under test,
# so a change to the package cannot silently change what is measured.
COUNTRIES = ("Cyprus", "France", "Greece", "Italy", "Portugal", "Spain")
PV_RANGE_KWP = {"A": (1, 5), "B": (3, 8), "C": (5, 10)}

#: Rows of a results CSV that the gate recomputes with the naive oracles.
ORACLE_ROWS = {"grid-hourly": 6, "price-sweep-report": 6, "measured-quarter-hour": 3}

#: Distinct whole-EUR BESS prices on the price-sweep-report axis.
PRICE_AXIS_LENGTH = 60

#: sha256 of the seed commit's default serial sweep outputs (``sweep
#: --parallel 1``): the byte-identity invariant every later change keeps.
GOLDEN_SHA256 = {
    "results.csv": "7934fe894718342e816a23f9da4cac8f4035fe314affb016d198894b24b65551",
    "parity_shares.csv": "3323bb10046b82ed33f1e20bb7bd708cd943aba9b0bafa8b713fc31f8da392c6",
    "box_stats.csv": "3467aec1cb35e84aed146250c10136294bd38d4b2e245d05e65146edd362f0fa",
}

WHY = {
    # The headline computation: the paper's 612-scenario grid. Dispatch is
    # ~95% of the serial sweep, with 306 distinct dispatches, so a dispatch
    # kernel change shows here first; the pool sweep shows what the process
    # pool costs. The seed only picks the rows the oracles re-check.
    "grid-hourly": "the paper's 612-scenario default grid, serial then on a process pool; "
    "dispatch-bound",
    # BESS prices never change dispatch, so 36 dispatches serve 2160
    # scenarios: finance, the O(rows x results) summary scans, the CSV
    # writer and parser and best_pv_size do most of the work.
    "price-sweep-report": "one type and ratio, 60 seeded BESS prices, then report: "
    "finance, summary scans and CSV I/O, few dispatches",
    # Measured profiles take the serial override path of the CLI: CSV parse,
    # rescale, mixed-resolution align and 4x longer dispatch, then a
    # simulate whose time goes mostly to writing the 35040-row trace.
    "measured-quarter-hour": "seeded quarter-hour load and hourly PV CSVs: profile parsing, "
    "alignment, 35040-step dispatch and the trace writer",
}

WORKLOADS = tuple(WHY)


@dataclass
class Plan:
    """What one workload runs, and what its gate needs to check it."""

    workload: str
    sweep_argv: list[str]
    followup: str
    followup_argv: list[str]
    sweep_out: Path
    followup_out: Path
    n_scenarios: int
    oracle_rows: list[int] = field(default_factory=list)
    simulated: dict | None = None
    load_csv: Path | None = None
    pv_csv: Path | None = None
    trace_csv: Path | None = None


def parallel_workers() -> int:
    return min(2, os.cpu_count() or 1)


def measured_load_csv(rng: random.Random) -> str:
    """A quarter-hour household load year (35040 rows) with seeded noise."""
    start = datetime(2019, 1, 1)
    rows = ["timestamp,power_kw"]
    for day in range(365):
        weekend = (day + 1) % 7 in (5, 6)  # 2019-01-01 was a Tuesday
        season = 1.0 + 0.15 * ((day - 182) / 182.0) ** 2
        level = season * rng.uniform(0.8, 1.2)
        for quarter in range(96):
            hour = quarter / 4.0
            evening = 1.1 * max(0.0, 1.0 - abs(hour - 20.0) / 3.0)
            morning = (0.4 if weekend else 0.7) * max(0.0, 1.0 - abs(hour - 7.5) / 1.5)
            base = 0.35 + morning + evening
            spike = rng.uniform(1.0, 2.5) if rng.random() < 0.02 else 0.0
            power = level * base * rng.uniform(0.85, 1.15) + spike
            stamp = start + timedelta(days=day, minutes=15 * quarter)
            rows.append(f"{stamp.isoformat()},{power:.4f}")
    return "\n".join(rows) + "\n"


def measured_pv_csv(rng: random.Random) -> str:
    """An hourly PV year (8760 rows) of a ~4 kWp system with seeded clouds."""
    start = datetime(2019, 1, 1)
    rows = ["timestamp,power_kw"]
    for day in range(365):
        # Day length and clear-sky peak follow the season (longest in June).
        season = math.cos(2.0 * math.pi * (day - 172) / 365.0)
        half_day = 6.0 + 1.5 * season
        peak = 2.8 + 0.6 * season
        clouds = rng.uniform(0.25, 1.0)
        for hour in range(24):
            x = (hour + 0.5 - 12.5) / half_day
            clear = peak * max(0.0, 1.0 - x * x)
            power = clear * clouds * rng.uniform(0.9, 1.0)
            stamp = start + timedelta(hours=24 * day + hour)
            rows.append(f"{stamp.isoformat()},{power:.4f}")
    return "\n".join(rows) + "\n"


def price_axis(rng: random.Random) -> list[int]:
    return sorted(rng.sample(range(100, 701), PRICE_AXIS_LENGTH))


def _pick_rows(rng: random.Random, n_rows: int, k: int) -> list[int]:
    return sorted(rng.sample(range(n_rows), min(k, n_rows)))


def make_plan(workload: str, seed: int, work: Path) -> Plan:
    """Write the workload's generated inputs under ``work`` and plan its commands."""
    if workload not in WHY:
        raise ValueError(f"unknown workload {workload!r} (expected one of {WORKLOADS})")
    rng = random.Random(f"{workload}:{seed}")
    work.mkdir(parents=True, exist_ok=True)
    sweep_out = work / "sweep"
    followup_out = work / "followup"

    if workload == "grid-hourly":
        return Plan(
            workload,
            sweep_argv=["sweep", "--parallel", "1", "--out", str(sweep_out)],
            followup="sweep --parallel %d" % parallel_workers(),
            followup_argv=[
                "sweep", "--parallel", str(parallel_workers()), "--out", str(followup_out)
            ],
            sweep_out=sweep_out,
            followup_out=followup_out,
            n_scenarios=612,
            oracle_rows=_pick_rows(rng, 612, ORACLE_ROWS[workload]),
        )

    if workload == "price-sweep-report":
        prices = price_axis(rng)
        n_rows = len(COUNTRIES) * 6 * len(prices)  # type B has six PV sizes
        return Plan(
            workload,
            sweep_argv=[
                "sweep", "--parallel", "1", "--types", "B", "--ratios", "1",
                "--bess-prices", ",".join(str(p) for p in prices), "--out", str(sweep_out),
            ],
            followup="report",
            followup_argv=["report", str(sweep_out / "results.csv"), "--out", str(followup_out)],
            sweep_out=sweep_out,
            followup_out=followup_out,
            n_scenarios=n_rows,
            oracle_rows=_pick_rows(rng, n_rows, ORACLE_ROWS[workload]),
        )

    inputs = work / "inputs"
    inputs.mkdir(exist_ok=True)
    load_csv, pv_csv, config = inputs / "load.csv", inputs / "pv.csv", inputs / "axes.json"
    load_csv.write_text(measured_load_csv(rng), encoding="utf-8")
    pv_csv.write_text(measured_pv_csv(rng), encoding="utf-8")
    countries = sorted(rng.sample(COUNTRIES, 3))
    config.write_text(json.dumps({"countries": countries}) + "\n", encoding="utf-8")
    ptype = rng.choice(sorted(PV_RANGE_KWP))
    simulated = {
        "country": rng.choice(COUNTRIES),
        "type": ptype,
        "pv-kwp": str(rng.randint(*PV_RANGE_KWP[ptype])),
        "ratio": rng.choice(("0.5", "1", "2")),
        "bess-price": rng.choice(("500", "150")),
    }
    trace_csv = followup_out / "trace.csv"
    n_rows = len(countries) * 6 * 3 * 2  # type B sizes x ratios x prices
    return Plan(
        workload,
        sweep_argv=[
            "sweep", "--parallel", "1", "--config", str(config), "--types", "B",
            "--ratios", "0.5,1,2", "--bess-prices", "500,150",
            "--load-profile", str(load_csv), "--pv-profile", str(pv_csv),
            "--out", str(sweep_out),
        ],
        followup="simulate --trace",
        followup_argv=["simulate"]
        + [arg for key, value in simulated.items() for arg in (f"--{key}", value)]
        + [
            "--load-profile", str(load_csv), "--pv-profile", str(pv_csv),
            "--trace", str(trace_csv), "--out", str(followup_out),
        ],
        sweep_out=sweep_out,
        followup_out=followup_out,
        n_scenarios=n_rows,
        oracle_rows=_pick_rows(rng, n_rows, ORACLE_ROWS[workload]),
        simulated=simulated,
        load_csv=load_csv,
        pv_csv=pv_csv,
        trace_csv=trace_csv,
    )
