"""Run one storparity CLI command in this fresh interpreter and time it.

Usage: python3 child.py REQUEST.json

REQUEST holds ``argv`` (the CLI arguments), ``trace`` (record spans) and
``result`` (where to write the outcome as JSON). The package is imported
here for the first time, so its lru_caches start empty, as for every CLI
user. Set-up time covers ``import storparity`` plus the country table and
the default shapes, the work every CLI command does before its own. The
host-speed probe (hostspeed.py) runs right before and right after the
command, and during it on SIGPROF; its time during the command is taken
out of the command's wall time.
"""

import time

_T0 = time.perf_counter()
import storparity  # noqa: E402
from storparity.finance import load_country_data  # noqa: E402
from storparity.profiles import default_shapes  # noqa: E402

load_country_data()
default_shapes()
SETUP_S = time.perf_counter() - _T0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from hostspeed import EDGE_PASSES, Probe  # noqa: E402
from storparity import cli  # noqa: E402


def own_peak_rss_kb() -> int:
    """Peak resident set of this process image, in KiB.

    ru_maxrss of RUSAGE_SELF would not do: Linux carries the forking
    parent's peak across fork and exec, so it would report the benchmark
    runner's memory whenever that is larger.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        request = json.load(fh)
    recorder = None
    if request["trace"]:
        from spans import SpanRecorder, instrument

        recorder = SpanRecorder()
        instrument(recorder)
    probe = Probe()
    probe.edge()
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        with probe.during():
            code = cli.main(request["argv"])
        wall_s = time.perf_counter() - start - probe.during_s()
    probe.edge()
    # Pool workers are reaped children; their ru_maxrss is their own peak.
    rss_kb = max(own_peak_rss_kb(), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    outcome = {
        "package": storparity.__file__,
        "setup_s": SETUP_S,
        "wall_s": wall_s,
        # The first EDGE_PASSES ran right after set-up.
        "probe_passes_s": probe.all_passes(),
        "probe_before": EDGE_PASSES,
        "exit_code": code,
        "peak_rss_kb": rss_kb,
        "spans": recorder.to_json() if recorder is not None else None,
    }
    with open(request["result"], "w", encoding="utf-8") as fh:
        json.dump(outcome, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
