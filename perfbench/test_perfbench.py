"""Tests of the benchmark's own arithmetic and input generator.

Run with: python3 -m pytest perfbench
"""

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hostspeed  # noqa: E402
from run import midhinge  # noqa: E402
from spans import Span, SpanRecorder, _covered, outermost, self_times  # noqa: E402
from workloads import (  # noqa: E402
    PRICE_AXIS_LENGTH,
    WORKLOADS,
    make_plan,
    measured_load_csv,
    measured_pv_csv,
    price_axis,
)


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_covered_merges_overlaps_and_clips():
    assert _covered([(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)], 0.0, 10.0) == 6.0
    assert _covered([], 0.0, 10.0) == 0.0
    assert _covered([(4.0, 6.0), (4.5, 5.0)], 0.0, 10.0) == 2.0


def test_self_time_subtracts_children_only():
    spans = [
        Span(0, "root", None, 0.0, 10.0),
        Span(1, "child", 0, 1.0, 3.0),
        Span(2, "child", 0, 4.0, 8.0),
        Span(3, "grandchild", 2, 5.0, 6.0),
    ]
    selfs = self_times(spans)
    assert selfs == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0}
    assert sum(selfs.values()) == spans[0].duration


def test_recorder_nests_spans_and_counts():
    # start/end ticks: outer 0, inner 1..3, inner 4..7, outer end 10
    recorder = SpanRecorder(clock=FakeClock([0.0, 1.0, 3.0, 4.0, 7.0, 10.0]))
    inner = recorder.wrap("inner", lambda n: list(range(n)), lambda a, k, r: len(r))
    outer = recorder.wrap("outer", lambda: inner(2) + inner(3))
    assert outer() == [0, 1, 0, 1, 2]
    by_name = {}
    for s in recorder.spans:
        by_name.setdefault(s.name, []).append(s)
    (top,) = by_name["outer"]
    assert top.parent is None and [s.parent for s in by_name["inner"]] == [top.id, top.id]
    assert [s.items for s in by_name["inner"]] == [2, 3]
    assert self_times(recorder.spans)[top.id] == 10.0 - 2.0 - 3.0


def test_midhinge_is_the_midpoint_of_the_quartiles():
    assert midhinge([5.0]) == 5.0
    assert midhinge([1.0, 2.0, 3.0, 4.0, 5.0]) == 3.0
    # one stalled sample moves it less than it moves the mean
    assert midhinge([1.0, 1.0, 1.0, 1.0, 9.0]) == 1.0


def test_outermost_skips_same_name_descendants():
    spans = [
        Span(0, "summary", None, 0.0, 4.0),
        Span(1, "other", 0, 1.0, 3.0),
        Span(2, "summary", 1, 1.5, 2.5),
        Span(3, "summary", None, 5.0, 6.0),
    ]
    assert [s.id for s in outermost(spans, "summary")] == [0, 3]


def test_generated_profiles_are_deterministic_and_parse():
    from storparity.profiles import ProfileKind, parse_profile_csv

    load = measured_load_csv(random.Random("s:7"))
    pv = measured_pv_csv(random.Random("s:7"))
    assert load == measured_load_csv(random.Random("s:7"))
    assert pv == measured_pv_csv(random.Random("s:7"))
    assert load != measured_load_csv(random.Random("s:8"))
    load_profile = parse_profile_csv(load, ProfileKind.LOAD)
    pv_profile = parse_profile_csv(pv, ProfileKind.PV)
    assert (len(load_profile), load_profile.step_hours) == (35040, 0.25)
    assert (len(pv_profile), pv_profile.step_hours) == (8760, 1.0)
    assert pv_profile.year_energy_kwh > 0.0


def test_price_axis_is_distinct_whole_euros():
    prices = price_axis(random.Random(3))
    assert len(set(prices)) == PRICE_AXIS_LENGTH
    assert all(isinstance(p, int) and 100 <= p <= 700 for p in prices)


def test_same_seed_gives_byte_identical_plans(tmp_path):
    for workload in WORKLOADS:
        a = make_plan(workload, 5, tmp_path / "a" / workload)
        b = make_plan(workload, 5, tmp_path / "b" / workload)
        strip = lambda argv, root: [x.replace(str(root), "") for x in argv]  # noqa: E731
        assert strip(a.sweep_argv, tmp_path / "a") == strip(b.sweep_argv, tmp_path / "b")
        assert strip(a.followup_argv, tmp_path / "a") == strip(b.followup_argv, tmp_path / "b")
        assert a.oracle_rows == b.oracle_rows and a.n_scenarios == b.n_scenarios
        files_a = sorted((tmp_path / "a" / workload).rglob("*.*"))
        files_b = sorted((tmp_path / "b" / workload).rglob("*.*"))
        assert [p.read_bytes() for p in files_a] == [p.read_bytes() for p in files_b]


def test_scale_refers_times_to_the_reference_pass():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.scale([ref, ref]) == 1.0
    # a host half as fast doubles the passes; scaled times halve back
    assert hostspeed.scale([2 * ref, 2 * ref]) == 0.5
    assert hostspeed.scale([ref, 3 * ref]) == 0.5


def test_probe_ticks_in_its_process_and_in_forked_ones():
    import os
    import time

    def burn(seconds):
        end = time.process_time() + seconds
        while time.process_time() < end:
            pass

    probe = hostspeed.Probe()
    probe.edge()
    with probe.during():
        burn(0.5)
        pid = os.fork()
        if pid == 0:
            burn(0.5)
            os._exit(0)
        os.waitpid(pid, 0)
    probe.edge()
    forked = probe.forked()
    assert len(forked) == 1 and len(forked[0][0]) >= 2 and forked[0][1] > 0.0
    own = len(probe.passes) - 2 * hostspeed.EDGE_PASSES
    assert own >= 2 and probe.own_s > 0.0
    assert probe.during_s() == probe.own_s + forked[0][1]
    assert len(probe.all_passes()) == len(probe.passes) + len(forked[0][0])
    # the timer is off and the handler restored after during()
    assert hostspeed.signal.getitimer(hostspeed.signal.ITIMER_PROF) == (0.0, 0.0)
