"""In-memory span recorder and the per-layer metrics derived from it.

The benchmark wraps each storparity function it traces under the name its
caller looks up: modules import names directly (``from .dispatch import
simulate``), so ``storparity.sweep.simulate`` and ``storparity.cli.simulate``
are wrapped separately and both record a ``dispatch.simulate`` span. Spans
are kept in memory and written out once, when the traced command ends.

A span's self time is its duration minus the part of its interval covered
by its child spans. A layer's time is the summed duration of its outermost
spans, so a layer function that calls another function of the same layer
is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import asdict, dataclass

#: (module, attribute) pairs wrapped per span name. Each attribute is the
#: name a caller resolves at call time, not the defining module's name.
TARGETS: dict[str, tuple[tuple[str, str], ...]] = {
    "cli.main": (("storparity.cli", "main"),),
    "profiles.synthesize": (
        ("storparity.sweep", "synthesize_load_profile"),
        ("storparity.sweep", "synthesize_pv_profile"),
        ("storparity.cli", "synthesize_load_profile"),
        ("storparity.cli", "synthesize_pv_profile"),
    ),
    "profiles.parse_csv": (("storparity.cli", "parse_profile_csv"),),
    "profiles.scale_align": (
        ("storparity.cli", "scale_to_annual"),
        ("storparity.cli", "align"),
        ("storparity.sweep", "align"),
    ),
    "dispatch.simulate": (("storparity.sweep", "simulate"), ("storparity.cli", "simulate")),
    "dispatch.balance": (
        ("storparity.sweep", "annual_balance"),
        ("storparity.cli", "annual_balance"),
    ),
    # write_trace_csv resolves trace_to_csv in its own module.
    "dispatch.trace_csv": (("storparity.dispatch", "trace_to_csv"),),
    "finance.result": (("storparity.sweep", "financial_result"),),
    "finance.country_data": (("storparity.cli", "load_country_data"),),
    "sweep.grid": (("storparity.cli", "build_grid"),),
    # The measured-profile sweep loop lives in cli but plays run_sweep's part.
    "sweep.run": (
        ("storparity.cli", "run_sweep"),
        ("storparity.cli", "_sweep_with_profile_overrides"),
    ),
    "sweep.summary": (
        ("storparity.cli", "parity_share_table"),
        ("storparity.cli", "box_stats_by_country_price"),
        ("storparity.cli", "parity_shares_to_csv"),
        ("storparity.cli", "box_stats_to_csv"),
        ("storparity.cli", "best_pv_size"),
        ("storparity.sweep", "parity_share_table"),
        ("storparity.sweep", "box_stats_by_country_price"),
    ),
    "sweep.results_csv": (
        ("storparity.cli", "results_to_csv"),
        ("storparity.cli", "parse_results_csv"),
    ),
}


def _count_len_result(args, kwargs, result) -> int:
    return len(result)


def _count_results_csv(args, kwargs, result) -> int:
    # results_to_csv(results) -> str: count the rows it was given.
    return len(args[0]) if isinstance(result, str) else 0


#: Per span name, how many items a call handled, from its arguments and result.
COUNTERS = {
    "profiles.parse_csv": _count_len_result,
    "dispatch.simulate": _count_len_result,
    "dispatch.trace_csv": _count_len_result,  # ASCII, so characters are bytes
    "sweep.grid": _count_len_result,
    "sweep.results_csv": _count_results_csv,
}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    items: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records nested spans of one thread; ``spans`` is in completion order."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 0

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(self._next_id, name, parent, self.clock())
            self._next_id += 1
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
                self.spans.append(span)
            if counter is not None:
                span.items = counter(args, kwargs, result)
            return result

        return wrapper

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def instrument(recorder: SpanRecorder) -> None:
    """Replace every TARGETS attribute with a span-recording wrapper."""
    for name, targets in TARGETS.items():
        for module_name, attr in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, recorder.wrap(name, original, COUNTERS.get(name)))


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus what its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - _covered(children.get(s.id, []), s.start, s.end) for s in spans
    }


def outermost(spans: list[Span], name: str) -> list[Span]:
    """Spans of this name that have no ancestor of the same name."""
    by_id = {s.id: s for s in spans}
    chosen = []
    for s in spans:
        if s.name != name:
            continue
        parent = s.parent
        while parent is not None and by_id[parent].name != name:
            parent = by_id[parent].parent
        if parent is None:
            chosen.append(s)
    return chosen


def spans_from_json(rows: list[dict]) -> list[Span]:
    return [Span(**row) for row in rows]


def layer_summary(spans: list[Span]) -> dict[str, float]:
    """Time, calls, counted items and self time per span name, for one command."""
    selfs = self_times(spans)
    summary: dict[str, float] = {}
    for name in TARGETS:
        top = outermost(spans, name)
        all_named = [s for s in spans if s.name == name]
        summary[f"{name}.s"] = sum(s.duration for s in top)
        summary[f"{name}.self_s"] = sum(selfs[s.id] for s in all_named)
        summary[f"{name}.calls"] = len(all_named)
        summary[f"{name}.items"] = sum(s.items for s in top)
    return summary
