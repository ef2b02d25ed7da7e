"""Correctness gate: check what the CLI wrote against naive oracles.

Every check yields a (name, ok, detail) triple. The oracles come from
``tests/_reference.py``; synthesized profiles come from the package itself
(the oracles check dispatch and finance, not profile synthesis), while
measured CSVs are parsed, rescaled and aligned here by hand.
"""

from __future__ import annotations

import hashlib
import json
import math
from datetime import datetime
from pathlib import Path

from workloads import GOLDEN_SHA256, Plan

#: Results and trace CSVs carry 6 decimals; allow rounding plus float noise.
CSV_TOL = 1e-6

RESULT_FILES = ("results.csv", "parity_shares.csv", "box_stats.csv")

ANNUAL_LOAD_KWH = {"A": 4500.0, "B": 7500.0, "C": 10500.0}


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def output_digests(*dirs: Path) -> dict[str, str]:
    """sha256 of every file under the given directories, by relative path."""
    digests = {}
    for d in dirs:
        if d.is_dir():
            for path in sorted(p for p in d.rglob("*") if p.is_file()):
                digests[f"{d.name}/{path.relative_to(d)}"] = sha256_file(path)
    return digests


def read_results(path: Path) -> list[dict]:
    lines = path.read_text("utf-8").splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        for key in ("ratio_kwh_per_kwp", "bess_price_eur_per_kwh", "scr", "ssr", "lcoe",
                    "lcou", "npv"):
            row[key] = float(row[key])
        row["pv_kwp"] = int(row["pv_kwp"])
        rows.append(row)
    return rows


def _read_profile_values(path: Path) -> tuple[list[float], float]:
    """Values and step (hours) of a ``timestamp,power_kw`` CSV, read naively."""
    lines = path.read_text("utf-8").splitlines()[1:]
    stamps = [datetime.fromisoformat(lines[i].split(",")[0]) for i in (0, 1)]
    step = (stamps[1] - stamps[0]).total_seconds() / 3600.0
    return [float(line.split(",")[1]) for line in lines], step


def _scaled(values: list[float], step: float, annual_kwh: float) -> list[float]:
    factor = annual_kwh / (sum(values) * step)
    return [v * factor for v in values]


class Oracle:
    """Recomputes result rows from scratch with the naive reference code."""

    def __init__(self, plan: Plan) -> None:
        import storparity as sp
        from _reference import reference_lcoe, reference_lcou, reference_npv, reference_simulate

        self.sp = sp
        self.countries = sp.load_country_data()
        self.ref = (reference_simulate, reference_lcoe, reference_lcou, reference_npv)
        self.measured = None
        if plan.load_csv is not None:
            self.measured = (_read_profile_values(plan.load_csv), _read_profile_values(plan.pv_csv))

    def profiles(self, row: dict, rescale: bool = True) -> tuple[list, list, float]:
        country = self.countries[row["country"]]
        pv_target = row["pv_kwp"] * country.annual_yield_kwh_per_kwp
        load_target = ANNUAL_LOAD_KWH[row["prosumer_type"]]
        if self.measured is None:
            load = self.sp.synthesize_load_profile(load_target)
            pv = self.sp.synthesize_pv_profile(row["pv_kwp"], country.annual_yield_kwh_per_kwp)
            return list(pv.values), list(load.values), 1.0
        (load, load_step), (pv, pv_step) = self.measured
        if rescale:
            load = _scaled(load, load_step, load_target)
            pv = _scaled(pv, pv_step, pv_target)
        k = round(pv_step / load_step)  # hourly PV repeated onto the quarter-hour grid
        return [v for v in pv for _ in range(k)], load, load_step

    def expected(self, row: dict, rescale: bool = True) -> dict:
        reference_simulate, reference_lcoe, reference_lcou, reference_npv = self.ref
        sp = self.sp
        country = self.countries[row["country"]]
        pv, load, step = self.profiles(row, rescale)
        bess_kwh = row["pv_kwp"] * row["ratio_kwh_per_kwp"]
        trace = reference_simulate(pv, load, sp.BatterySpec(capacity_kwh=bess_kwh), step)
        produced = sum(pv) * step
        used = (sum(trace.p_direct) + sum(trace.p_discharge_delivered)) * step
        scr = used / produced
        econ = sp.EconomicParams(
            bess_price_eur_per_kwh=row["bess_price_eur_per_kwh"], vat_rate=country.vat_rate
        )
        capex = (
            row["pv_kwp"] * econ.pv_price_eur_per_kwp
            + bess_kwh * econ.bess_price_eur_per_kwh
        ) * (1.0 + econ.vat)
        years = econ.horizon_years
        npv = reference_npv(
            capex,
            econ,
            [produced * (1.0 - econ.pv_degradation_rate) ** n * scr for n in range(years)],
            country.retail_price_eur_per_kwh,
        )
        return {
            "scr": scr,
            "ssr": used / (sum(load) * step),
            "lcoe": reference_lcoe(capex, econ, produced),
            "lcou": reference_lcou(capex, econ, produced, [scr] * years),
            "npv": npv,
        }


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= CSV_TOL + 1e-9 * abs(want)


def check_rows(oracle: Oracle, rows: list[dict], indices, what: str, rescale=True):
    for i in indices:
        row = rows[i]
        want = oracle.expected(row, rescale)
        bad = {k: (row[k], float(v)) for k, v in want.items() if not _close(row[k], v)}
        name = f"{what} row {i} ({row['country']} {row['prosumer_type']} {row['pv_kwp']} kWp)"
        yield f"oracle {name}", not bad, f"csv vs oracle: {bad}" if bad else ""


def check_parity_rule(rows: list[dict], what: str):
    wrong = [i for i, r in enumerate(rows) if (r["grid_parity"] == "true") != (r["npv"] > 0.0)]
    yield f"{what}: grid_parity == (npv > 0) on all {len(rows)} rows", not wrong, f"rows {wrong[:5]}"


def check_golden(sweep_out: Path):
    for name, digest in GOLDEN_SHA256.items():
        path = sweep_out / name
        got = sha256_file(path) if path.is_file() else "missing"
        yield f"golden sha256 of {name}", got == digest, f"got {got}"


def check_same_bytes(a: Path, b: Path):
    for name in RESULT_FILES:
        same = (a / name).is_file() and (b / name).is_file() and (
            (a / name).read_bytes() == (b / name).read_bytes()
        )
        yield f"serial and parallel {name} identical", same, ""


def _quartiles_close(got: dict, want: tuple) -> bool:
    keys = ("min", "q1", "median", "q3", "max")
    return all(abs(got[k] - w) <= 1e-9 * max(1.0, abs(w)) for k, w in zip(keys, want))


def check_report(rows: list[dict], summary_path: Path):
    """Recompute the report summary naively from the results it read."""
    from _reference import reference_quartiles

    summary = json.loads(summary_path.read_text("utf-8"))
    countries = sorted({r["country"] for r in rows})
    prices = sorted({r["bess_price_eur_per_kwh"] for r in rows})
    groups: dict[tuple, list[dict]] = {}
    for r in rows:
        groups.setdefault((r["country"], r["bess_price_eur_per_kwh"]), []).append(r)

    shares = {(s["country"], s["bess_price"]): s["share_percent"] for s in summary["parity_shares"]}
    want_shares = {}
    for c in countries:
        for p in prices:
            sel = groups[(c, p)]
            want_shares[(c, f"{p:g}")] = 100.0 * sum(r["grid_parity"] == "true" for r in sel) / len(sel)
        sel = [r for r in rows if r["country"] == c]
        want_shares[(c, "pooled")] = 100.0 * sum(r["grid_parity"] == "true" for r in sel) / len(sel)
    ok = shares.keys() == want_shares.keys() and all(
        math.isclose(shares[k], v, rel_tol=1e-12) for k, v in want_shares.items()
    )
    yield f"report parity shares ({len(want_shares)} rows)", ok, ""

    quartiles = {(q["country"], q["bess_price"]): q for q in summary["lcou_quartiles"]}
    ok = len(quartiles) == len(groups) and all(
        key in quartiles and _quartiles_close(quartiles[key], reference_quartiles([r["lcou"] for r in sel]))
        for key, sel in groups.items()
    )
    yield f"report LCOU quartiles ({len(groups)} groups)", ok, ""

    best = {
        (b["country"], b["prosumer_type"], b["ratio_kwh_per_kwp"], b["bess_price_eur_per_kwh"]):
        b["pv_kwp"]
        for b in summary["best_pv_size_kwp"]
    }
    want_best = {}
    for r in rows:
        key = (r["country"], r["prosumer_type"], r["ratio_kwh_per_kwp"], r["bess_price_eur_per_kwh"])
        cur = want_best.get(key)
        if cur is None or (r["lcou"], r["pv_kwp"]) < cur:
            want_best[key] = (r["lcou"], r["pv_kwp"])
    ok = best == {k: v[1] for k, v in want_best.items()}
    yield f"report best PV sizes ({len(want_best)} groups)", ok, ""


def check_trace(trace_path: Path, capacity_kwh: float, step_hours: float, n_steps: int):
    """Energy conservation and SOC bounds on every step of a trace CSV."""
    eta = math.sqrt(0.9)  # default round-trip efficiency split evenly
    soc_min = 0.1 * capacity_kwh  # default usable fraction 0.9
    lines = trace_path.read_text("utf-8").splitlines()[1:]
    prev_soc = soc_min
    bad_pv = bad_load = bad_soc = bad_store = bad_sign = 0
    for line in lines:
        _, pv, load, direct, charge, delivered, imported, curtail, soc = map(float, line.split(","))
        bad_pv += abs(pv - (direct + charge + curtail)) > 4 * CSV_TOL
        bad_load += abs(load - (direct + delivered + imported)) > 4 * CSV_TOL
        bad_soc += not soc_min - CSV_TOL <= soc <= capacity_kwh + CSV_TOL
        stored = (charge * eta - delivered / eta) * step_hours
        bad_store += abs(soc - prev_soc - stored) > 8 * CSV_TOL
        bad_sign += min(direct, charge, delivered, imported, curtail) < 0.0
        prev_soc = soc
    yield f"trace has {n_steps} steps", len(lines) == n_steps, f"got {len(lines)}"
    yield "trace: pv = direct + charge + curtail on every step", bad_pv == 0, f"{bad_pv} steps"
    yield "trace: load = direct + delivered + import on every step", bad_load == 0, f"{bad_load} steps"
    yield "trace: soc within [soc_min, capacity] on every step", bad_soc == 0, f"{bad_soc} steps"
    yield "trace: soc change = stored energy on every step", bad_store == 0, f"{bad_store} steps"
    yield "trace: no negative flow", bad_sign == 0, f"{bad_sign} steps"


def full_gate(plan: Plan, ran_followup: bool):
    """Every content check of one sample's outputs."""
    results_path = plan.sweep_out / "results.csv"
    if not results_path.is_file():
        yield "sweep wrote results.csv", False, "missing"
        return
    rows = read_results(results_path)
    yield f"sweep evaluated all {plan.n_scenarios} scenarios", len(rows) == plan.n_scenarios, (
        f"got {len(rows)} rows"
    )
    oracle = Oracle(plan)
    yield from check_parity_rule(rows, "results.csv")
    yield from check_rows(oracle, rows, [i for i in plan.oracle_rows if i < len(rows)], "results.csv")
    if plan.workload == "grid-hourly":
        yield from check_golden(plan.sweep_out)
        if ran_followup:
            yield from check_same_bytes(plan.sweep_out, plan.followup_out)
    if not ran_followup:
        return
    if plan.workload == "price-sweep-report":
        yield from check_report(rows, plan.followup_out / "report_summary.json")
    if plan.simulated is not None:
        sim = read_results(plan.followup_out / "scenario_result.csv")
        yield from check_parity_rule(sim, "scenario_result.csv")
        yield from check_rows(oracle, sim, [0], "scenario_result.csv", rescale=False)
        capacity = float(plan.simulated["pv-kwp"]) * float(plan.simulated["ratio"])
        yield from check_trace(plan.trace_csv, capacity, 0.25, 35040)
