"""storparity benchmark: drives the real CLI on seeded workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload grid-hourly --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 1

Each sample runs the workload's serial ``sweep`` and its follow-up command,
each in a fresh interpreter (see child.py), so the package's caches start
empty as they do for every CLI user. Samples repeat until ``--seconds`` is
spent; the run reports the median set-up time and peak memory and the
midhinge of each command's wall time. Times are in reference seconds: each
command's measured times scaled by a host-speed probe timed around and
during it (hostspeed.py), because this kind of shared host changes speed
by tens of percent within seconds. ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` alternates plain and span-traced samples of the
serial commands and prints the per-layer metrics. Every sample passes
through the correctness gate (gate.py). The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
``--record FILE`` also writes the machine, every sample and the gate
verdicts to FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from gate import full_gate, output_digests
from hostspeed import scale
from spans import layer_summary, spans_from_json
from workloads import WHY, WORKLOADS, make_plan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK_ROOT = ROOT / ".perfbench_run"

#: A command that does not finish in this time counts as failed; two of them
#: after a full measuring window still end the run within three minutes.
COMMAND_TIMEOUT_S = 50

#: sweep_s is the serial sweep; followup_s is the workload's second command
#: (a pool sweep, report, or simulate --trace; see workloads.py).
END_TO_END_UNITS = {"setup_s": "s", "sweep_s": "s", "followup_s": "s", "peak_rss_mb": "MiB"}

#: Times are scaled to reference seconds like the end-to-end ones and include
#: the probe passes that fell inside them (about 4% of CPU time).
#: Every time here is spent on every workload, so none reads a constant 0:
#: profiles.source_s is synthesis or CSV parsing, whichever the workload uses,
#: and dispatch.post_s is annual_balance plus the trace CSV writer where
#: simulate --trace runs. Counts are exact and repeat between runs.
PER_LAYER_UNITS = {
    "profiles.source_s": "s",
    "profiles.synthesize_calls": "count",
    "profiles.parse_csv_rows": "count",
    "profiles.scale_align_s": "s",
    "dispatch.simulate_s": "s",
    "dispatch.simulate_calls": "count",
    "dispatch.steps": "count",
    "dispatch.steps_per_s": "1/s",
    "dispatch.post_s": "s",
    "dispatch.trace_csv_bytes": "bytes",
    "finance.result_s": "s",
    "finance.result_calls": "count",
    "finance.country_data_s": "s",
    "sweep.run_self_s": "s",
    "sweep.dedupe_ratio": "ratio",
    "sweep.summary_s": "s",
    "sweep.results_csv_s": "s",
    "sweep.scenarios": "count",
    "sweep.failed": "count",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_s": "s",
}


class SetupError(Exception):
    """The checkout cannot run the benchmark: sources missing or imported from elsewhere."""


@dataclass
class Command:
    """One CLI command in a fresh interpreter.

    ``wall_s`` and ``setup_s`` are in reference seconds: the measured times
    scaled by the host-speed probe passes timed around and during the
    command (hostspeed.py). ``raw_wall_s`` and ``probe_s`` (the mean probe
    pass) keep what was measured.
    """

    role: str  # "sweep" or "followup"
    wall_s: float
    setup_s: float
    exit_code: int
    peak_rss_kb: int
    bytes_written: int
    layers: dict | None = None
    raw_wall_s: float = 0.0
    probe_s: float = 0.0


@dataclass
class Sample:
    traced: bool
    commands: list[Command] = field(default_factory=list)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    failed_scenarios: int = 0

    def wall(self, role: str) -> float:
        return next(c.wall_s for c in self.commands if c.role == role)


def check_checkout() -> None:
    for needed in (SRC / "storparity" / "__init__.py", TESTS / "_reference.py"):
        if not needed.is_file():
            raise SetupError(f"{needed.relative_to(ROOT)} not found: run from a full checkout")
    for path in (HERE, SRC, TESTS):
        sys.path.insert(0, str(path))
    import storparity

    if Path(storparity.__file__).resolve().parent != SRC / "storparity":
        raise SetupError(f"storparity imported from {storparity.__file__}, not {SRC}")


def machine() -> dict:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) if path.is_dir() else 0


def run_command(role: str, argv: list[str], out_dir: Path, trace: bool, work: Path) -> Command:
    request = work / f"{role}.request.json"
    result = work / f"{role}.result.json"
    result.unlink(missing_ok=True)
    request.write_text(json.dumps({"argv": argv, "trace": trace, "result": str(result)}))
    env = dict(os.environ)
    env.pop("STORPARITY_DATA_DIR", None)
    env["PYTHONPATH"] = str(SRC)
    # A process group of its own lets a timeout stop the pool workers too.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(request)],
        env=env,
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return Command(role, COMMAND_TIMEOUT_S, 0.0, -1, 0, 0)
    if proc.returncode != 0 or not result.is_file():
        sys.stderr.write(stderr)
        return Command(role, 0.0, 0.0, proc.returncode or -1, 0, 0)
    outcome = json.loads(result.read_text())
    if Path(outcome["package"]).resolve().parent != SRC / "storparity":
        raise SetupError(f"child imported storparity from {outcome['package']}")
    passes = outcome["probe_passes_s"]
    factor = scale(passes)
    layers = None
    if trace:
        layers = {
            k: v * factor if k.endswith((".s", ".self_s")) else v
            for k, v in layer_summary(spans_from_json(outcome["spans"])).items()
        }
    return Command(
        role,
        outcome["wall_s"] * factor,
        # Set-up ran just before the first probe passes.
        outcome["setup_s"] * scale(passes[: outcome["probe_before"]]),
        outcome["exit_code"],
        outcome["peak_rss_kb"],
        _dir_bytes(out_dir),
        layers,
        outcome["wall_s"],
        statistics.fmean(passes),
    )


def run_sample(plan, traced: bool, with_followup: bool, work: Path) -> Sample:
    for d in (plan.sweep_out, plan.followup_out):
        shutil.rmtree(d, ignore_errors=True)
    sample = Sample(traced)
    sample.commands.append(run_command("sweep", plan.sweep_argv, plan.sweep_out, traced, work))
    if with_followup:
        sample.commands.append(
            run_command("followup", plan.followup_argv, plan.followup_out, traced, work)
        )
    return sample


def gate_sample(plan, sample: Sample, first_digests: dict, ran_followup: bool) -> None:
    """Add the sample's checks; the first sample of a command set gets the full gate."""
    for c in sample.commands:
        sample.checks.append((f"{c.role} exits 0", c.exit_code == 0, f"exit {c.exit_code}"))
    results = plan.sweep_out / "results.csv"
    rows = len(results.read_text("utf-8").splitlines()) - 1 if results.is_file() else 0
    sample.failed_scenarios = plan.n_scenarios - rows
    digests = output_digests(plan.sweep_out, plan.followup_out)
    if ran_followup not in first_digests:
        first_digests[ran_followup] = digests
        try:
            sample.checks.extend(full_gate(plan, ran_followup))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            sample.checks.append(("outputs readable", False, f"{type(exc).__name__}: {exc}"))
    else:
        sample.checks.append(
            ("outputs identical to the run's first sample", digests == first_digests[ran_followup], "")
        )


def midhinge(values: list[float]) -> float:
    """Midpoint of the lower and upper quartiles.

    On a shared machine the CPU speed can switch between two levels every
    few seconds, so a run's samples come from two modes in shares that differ
    from run to run. The median then jumps from one mode to the other; the
    midhinge moves with the share, and one stalled sample cannot move it far.
    """
    if len(values) < 2:
        return values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q1 + q3) / 2.0


def end_to_end(samples: list[Sample]) -> dict[str, float]:
    setups = [c.setup_s for s in samples for c in s.commands]
    return {
        "setup_s": statistics.median(setups),
        "sweep_s": midhinge([s.wall("sweep") for s in samples]),
        "followup_s": midhinge([s.wall("followup") for s in samples]),
        "peak_rss_mb": statistics.median(
            max(c.peak_rss_kb for c in s.commands) / 1024.0 for s in samples
        ),
    }


def sample_layers(sample: Sample) -> dict[str, float]:
    """Per-layer metrics of one traced sample, summed over its commands."""
    total: dict[str, float] = {}
    for c in sample.commands:
        for k, v in c.layers.items():
            total[k] = total.get(k, 0) + v
    sweep = next(c.layers for c in sample.commands if c.role == "sweep")
    simulate_s = total["dispatch.simulate.s"]
    steps = total["dispatch.simulate.items"]
    scenarios = sweep["sweep.grid.items"]
    return {
        "profiles.source_s": total["profiles.synthesize.s"] + total["profiles.parse_csv.s"],
        "profiles.synthesize_calls": total["profiles.synthesize.calls"],
        "profiles.parse_csv_rows": total["profiles.parse_csv.items"],
        "profiles.scale_align_s": total["profiles.scale_align.s"],
        "dispatch.simulate_s": simulate_s,
        "dispatch.simulate_calls": total["dispatch.simulate.calls"],
        "dispatch.steps": steps,
        "dispatch.steps_per_s": steps / simulate_s if simulate_s > 0 else 0.0,
        "dispatch.post_s": total["dispatch.balance.s"] + total["dispatch.trace_csv.s"],
        "dispatch.trace_csv_bytes": total["dispatch.trace_csv.items"],
        "finance.result_s": total["finance.result.s"],
        "finance.result_calls": total["finance.result.calls"],
        "finance.country_data_s": total["finance.country_data.s"],
        "sweep.run_self_s": total["sweep.run.self_s"],
        "sweep.dedupe_ratio": sweep["dispatch.simulate.calls"] / scenarios if scenarios else 0.0,
        "sweep.summary_s": total["sweep.summary.s"],
        "sweep.results_csv_s": total["sweep.results_csv.s"],
        "sweep.scenarios": scenarios,
        "sweep.failed": scenarios - sweep["sweep.results_csv.items"],
        "cli.self_s": total["cli.main.self_s"],
        "cli.bytes_written": sum(c.bytes_written for c in sample.commands),
    }


def per_layer(samples: list[Sample]) -> dict[str, float]:
    traced = [s for s in samples if s.traced]
    plain = [s for s in samples if not s.traced]
    per_sample = [sample_layers(s) for s in traced]
    # median_low keeps an observed value, so exact counts stay whole numbers.
    metrics = {k: statistics.median_low(m[k] for m in per_sample) for k in per_sample[0]}
    wall = lambda group: statistics.median(sum(c.wall_s for c in s.commands) for s in group)  # noqa: E731
    metrics["trace.overhead_s"] = wall(traced) - wall(plain)
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    # A fixed directory keeps the paths the program records, and so the
    # bytes it writes, the same from run to run.
    work = WORK_ROOT / workload
    shutil.rmtree(work, ignore_errors=True)
    try:
        plan = make_plan(workload, seed, work)
        # The traced run is serial: it skips a follow-up that uses the pool.
        serial_followup = "--parallel" not in plan.followup_argv
        samples: list[Sample] = []
        first_digests: dict = {}
        start = time.perf_counter()
        deadline = start + seconds
        while True:
            t0 = time.perf_counter()
            traced = trace and len(samples) % 2 == 1
            with_followup = serial_followup or not trace
            sample = run_sample(plan, traced, with_followup, work)
            gate_sample(plan, sample, first_digests, with_followup)
            samples.append(sample)
            took = time.perf_counter() - t0
            enough = len(samples) >= (2 if trace else 1)
            if enough and time.perf_counter() + took > deadline:
                break
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    checks = [c for s in samples for c in s.checks]
    failed_checks = [c for c in checks if not c[1]]
    scenarios = plan.n_scenarios * len(samples)
    failed_scenarios = sum(max(0, s.failed_scenarios) for s in samples)
    commands = [c for s in samples for c in s.commands]
    attempted = scenarios + len(commands) + len(checks)
    failed = failed_scenarios + sum(c.exit_code != 0 for c in commands) + len(failed_checks)
    good = [s for s in samples if all(c.exit_code == 0 for c in s.commands)]
    metrics, units = {}, END_TO_END_UNITS
    if trace and any(s.traced for s in good) and not all(s.traced for s in good):
        metrics, units = per_layer(good), PER_LAYER_UNITS
    elif not trace and good:
        metrics = end_to_end(good)
    return {
        "workload": workload,
        "why": WHY[workload],
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "measured_s": elapsed,
        "samples": len(samples),
        "traced_samples": sum(s.traced for s in samples),
        "followup": plan.followup,
        "attempted": attempted,
        "failed": failed,
        "failed_checks": [f"{name}: {detail}" for name, _, detail in failed_checks],
        "checks": len(checks),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "per_sample": [
            {
                "traced": s.traced,
                "commands": {
                    c.role: {
                        "wall_s": c.wall_s,
                        "setup_s": c.setup_s,
                        "raw_wall_s": c.raw_wall_s,
                        "probe_s": c.probe_s,
                        "peak_rss_kb": c.peak_rss_kb,
                    }
                    for c in s.commands
                },
            }
            for s in samples
        ],
    }


def print_report(result: dict) -> None:
    print(f"== {result['workload']} (seed {result['seed']}, trace {int(result['trace'])}) ==")
    print(f"   why: {result['why']}")
    print(f"   follow-up command: {result['followup']}")
    print(
        f"   samples: {result['samples']} ({result['traced_samples']} traced) "
        f"in {result['measured_s']:.1f} s"
    )
    for name, m in result["metrics"].items():
        print(f"   {name:<26} {m['value']:>16.6f} {m['unit']}")
    share = result["failed"] / result["attempted"]
    verdict = "PASS" if result["failed"] == 0 else "FAIL"
    print(
        f"   gate: {verdict} ({result['checks']} checks; failed_share {share:.6f} = "
        f"{result['failed']} / {result['attempted']})"
    )
    for line in result["failed_checks"]:
        print(f"   failed: {line}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="also write the full record as JSON here")
    args = parser.parse_args(argv)
    try:
        check_checkout()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    info = machine()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    print(
        f"machine: nproc {info['nproc']}, {info['cpu_model']}, Python {info['python']}, "
        f"numpy {info['numpy']}"
    )
    results = []
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print_report(result)
        results.append(result)
    if args.record is not None:
        record = {"machine": info, "results": results}
        args.record.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": m for r in results for k, m in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
