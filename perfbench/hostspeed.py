"""The host's current speed, read from a fixed piece of pure-Python work.

A shared host runs this benchmark's processes at speeds that change by up
to ~40% within seconds and drift over minutes, per CPU, and process CPU
time moves with wall time, so neither clock alone separates the program's
speed from the host's. A probe pass times fixed work of the two kinds the
program spends its time on: interpreted float arithmetic, branches and
list stores, as in a dispatch step, and float-to-text formatting, as in
the CSV writers. The two slow down by different amounts when the host
does (formatting by ~1.4 times as much, in log terms, on a 2-CPU Intel
Xeon host), so the pass holds both, about 3:1 in time. It never calls the
package, so no change to the package can move it.

``Probe`` times a few passes right before and right after a command and one
pass every ``TICK_S`` of a process's CPU time while the command runs (on
SIGPROF, so on the CPU the work runs on), in the command's process and in
every process it forks meanwhile, such as the sweep's pool workers. The
time spent in passes during the command is taken out of its wall time
(a forked worker's share divided by the number of workers, which run side
by side), and ``scale()`` turns a time into reference seconds: what it
would be on a host where one pass takes ``REFERENCE_S``.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import random
import signal
import struct
import statistics
import time

#: Seconds of one probe pass that scaled times refer to: a round figure near
#: the fast end of what a pass takes on a 2-CPU Intel Xeon host with CPython
#: 3.11 (3 to 6 ms there), so that scaled times stay near wall times.
REFERENCE_S = 0.004

#: Storage steps and formatted CSV lines of one probe pass.
PASS_STEPS = 14_000
PASS_LINES = 600
#: Passes timed right before and right after the command.
EDGE_PASSES = 5
#: Process CPU time between two passes while the command runs.
TICK_S = 0.1
#: Forked processes that report passes, and passes each can report.
FORKED_SLOTS = 16
SLOT_PASSES = 4096
#: A slot holds its pass count, its seconds spent in passes, then the passes.
_SLOT_BYTES = 8 * (2 + SLOT_PASSES)

_rng = random.Random(20240229)
_PV = [max(0.0, _rng.gauss(1.0, 1.5)) for _ in range(PASS_STEPS)]
_LOAD = [_rng.uniform(0.2, 2.5) for _ in range(PASS_STEPS)]
_PV_LINES, _LOAD_LINES = _PV[:PASS_LINES], _LOAD[:PASS_LINES]


def _storage_loop(pv: list[float], load: list[float]) -> float:
    cap, soc, eta = 10.0, 5.0, 0.95
    stored = [0.0] * len(pv)
    imported = 0.0
    for i in range(len(pv)):
        p = pv[i]
        l = load[i]
        if p > l:
            accepted = p - l
            headroom = (cap - soc) / eta
            if headroom < accepted:
                accepted = headroom
            soc += accepted * eta
            stored[i] = accepted
        else:
            deliver = l - p
            available = soc * eta
            if available < deliver:
                imported += deliver - available
                deliver = available
            soc -= deliver / eta
            stored[i] = -deliver
    return imported + sum(stored)


def _csv_lines(pv: list[float], load: list[float]) -> str:
    return "\n".join(f"{i},{p:.6f},{l:.6f},{p - l:.6f}" for i, (p, l) in enumerate(zip(pv, load)))


def timed_pass() -> float:
    """Seconds of one pass of the fixed work."""
    t0 = time.perf_counter()
    _storage_loop(_PV, _LOAD)
    _csv_lines(_PV_LINES, _LOAD_LINES)
    return time.perf_counter() - t0


def _start_ticking(handler) -> None:
    signal.signal(signal.SIGPROF, handler)
    signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)


class Probe:
    """Probe passes around and during one command.

    Use one Probe per process: the fork hooks it registers stay for the
    life of the process and are idle outside ``during()``. A process forked
    during a command ticks until it exits; if it called exec, the interval
    timer would survive and SIGPROF would end the new program. The package
    forks only for its process pool, whose workers do not exec, and
    subprocess and the spawn start method do not run fork hooks.
    """

    def __init__(self) -> None:
        self.passes: list[float] = []
        #: Seconds spent in passes in this process while the command ran.
        self.own_s = 0.0
        # Anonymous shared memory outlives fork, so forked processes can
        # report into it; each gets the slot numbered when it was forked.
        self._shared = mmap.mmap(-1, FORKED_SLOTS * _SLOT_BYTES)
        self._active = False
        self._forks = 0
        self._slot = -1
        os.register_at_fork(before=self._before_fork, after_in_child=self._in_forked)

    def edge(self) -> None:
        self.passes.extend(timed_pass() for _ in range(EDGE_PASSES))

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        seconds = timed_pass()
        spent = time.perf_counter() - t0
        if self._slot < 0:
            self.passes.append(seconds)
            self.own_s += spent
            return
        base = self._slot * _SLOT_BYTES
        count, total = struct.unpack_from("<2d", self._shared, base)
        if count < SLOT_PASSES:
            struct.pack_into("<d", self._shared, base + 8 * (2 + int(count)), seconds)
            struct.pack_into("<2d", self._shared, base, count + 1, total + spent)

    def _before_fork(self) -> None:
        if self._active and self._slot < 0:
            self._forks += 1

    def _in_forked(self) -> None:
        if self._active and self._slot < 0 and self._forks <= FORKED_SLOTS:
            self._slot = self._forks - 1
            _start_ticking(self._tick)

    def forked(self) -> list[tuple[list[float], float]]:
        """Passes and seconds in passes of each forked process that reported."""
        out = []
        for slot in range(min(self._forks, FORKED_SLOTS)):
            base = slot * _SLOT_BYTES
            count, spent = struct.unpack_from("<2d", self._shared, base)
            passes = struct.unpack_from(f"<{int(count)}d", self._shared, base + 16)
            if passes:
                out.append((list(passes), spent))
        return out

    def during_s(self) -> float:
        """Seconds the passes took from the command's wall time."""
        forked = self.forked()
        return self.own_s + sum(spent for _, spent in forked) / max(1, len(forked))

    def all_passes(self) -> list[float]:
        return self.passes + [p for passes, _ in self.forked() for p in passes]

    @contextlib.contextmanager
    def during(self):
        previous = signal.getsignal(signal.SIGPROF)
        self._active = True
        _start_ticking(self._tick)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            signal.signal(signal.SIGPROF, previous)
            self._active = False


def scale(passes: list[float]) -> float:
    """Factor that turns a time measured alongside these passes into reference seconds."""
    return REFERENCE_S / statistics.fmean(passes)
