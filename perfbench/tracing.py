"""Spans around fsosim's public functions, recorded from outside the package.

The benchmark never edits `src/`.  It replaces the bindings the package's
own code looks functions up through (for example `fsosim.cli.run_apt`, not
`fsosim.apt.run_apt`, because `cli` imports the name) with wrappers that
open a span, call the original and close the span.  A wrapper records only
while an operation's root span is open, so output checks made between
operations leave no spans.  All spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager

ROOT_SPAN = "op"

_STAGE_BY_FLAGS = {(False, False): "coarse", (True, False): "fine1", (True, True): "full"}
STAGES = ("coarse", "fine1", "full")


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "tag")

    def __init__(self, name: str, start: float, parent: int | None, op: int, tag=None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.tag = tag


class Tracer:
    """Span and counter store for one run.

    Spans of one operation share its `op` index; `parent` is the index of
    the enclosing span in `spans`.  Counters are keyed by (op, name).
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self._stack: list[int] = []
        self._op = -1

    @property
    def active(self) -> bool:
        return bool(self._stack)

    def begin(self, name: str, tag=None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self._op, tag))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")

    def count(self, name: str, n: int) -> None:
        if self._stack:
            self.counts[(self._op, name)] += int(n)

    @contextmanager
    def op(self, index: int):
        """Root span of one operation."""
        if self._stack:
            raise RuntimeError("operations do not nest")
        self._op = index
        span = self.begin(ROOT_SPAN)
        try:
            yield
        finally:
            self.end(span)


# ---------------------------------------------------------------------------
# self time and the layer table

def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    covered = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [
        (span.end - span.start) - _union_length(kids, span.start, span.end)
        for span, kids in zip(spans, children)
    ]


def layer_table(spans: list[Span], names: list[str]) -> dict[str, dict]:
    """Self time, call count and share of operation time for each span name.

    Every name in `names` gets a row, so a layer a workload never reaches
    reads as zero rather than missing.  `op` is the benchmark's own time
    inside an operation, i.e. the part no layer accounts for.
    """
    selfs = self_times(spans)
    op_total = sum(s.end - s.start for s in spans if s.parent is None)
    rows = {name: [0.0, 0] for name in names}
    for span, own in zip(spans, selfs):
        row = rows.setdefault(span.name, [0.0, 0])
        row[0] += own
        row[1] += 1
    return {
        name: {
            "self_s": own,
            "calls": calls,
            "share": own / op_total if op_total > 0 else 0.0,
        }
        for name, (own, calls) in rows.items()
    }


# ---------------------------------------------------------------------------
# the bindings each layer is reached through

def _stage_tag(args, kwargs) -> str:
    scenario = args[0] if args else kwargs["scenario"]
    fine1 = args[3] if len(args) > 3 else kwargs.get("enable_fine1")
    fine2 = args[4] if len(args) > 4 else kwargs.get("enable_fine2")
    if fine1 is None:
        fine1 = scenario.apt.fine1_enabled
    if fine2 is None:
        fine2 = scenario.apt.fine2_enabled
    return _STAGE_BY_FLAGS[(bool(fine1), bool(fine2))]


def _count_ticks(tracer, args, kwargs, result):
    tracer.count("apt.ticks", len(result.t_s))
    tracer.count(f"apt.ticks.{_stage_tag(args, kwargs)}", len(result.t_s))


def _count_samples(tracer, args, kwargs, result):
    tracer.count("link.samples", len(result.loss_db))


def _count_roundtrip(tracer, args, kwargs, result):
    tracer.count("cli.roundtrip_values", len(result))


def _count_series_written(tracer, args, kwargs, result):
    tracer.count("io.rows_written", len(args[1].t_s))
    tracer.count("io.bytes_written", os.path.getsize(args[0]))


def _count_rows_written(tracer, args, kwargs, result):
    tracer.count("io.rows_written", len(args[1]))
    tracer.count("io.bytes_written", os.path.getsize(args[0]))


def _count_json(tracer, args, kwargs, result):
    tracer.count("io.bytes_written", len(result.encode("utf-8")))


def _count_rows_read(tracer, args, kwargs, result):
    tracer.count("io.rows_read", len(result.t_s))


# (module, attribute, span name, tag function, counter function)
BINDINGS = [
    ("fsosim.cli", "main", "cli.main", None, None),
    ("fsosim.cli", "cmd_budget", "cli.budget", None, None),
    ("fsosim.cli", "cmd_sweep", "cli.sweep", None, None),
    ("fsosim.cli", "cmd_track", "cli.track", None, None),
    ("fsosim.cli", "cmd_run", "cli.run", None, None),
    ("fsosim.cli", "cmd_calibrate", "cli.calibrate", None, None),
    ("fsosim.cli", "_roundtrip", "cli.roundtrip", None, _count_roundtrip),
    ("fsosim.cli", "load_scenario", "scenario.load", None, None),
    ("fsosim.cli", "run_apt", "apt.run_apt", _stage_tag, _count_ticks),
    ("fsosim.cli", "tracking_stats", "apt.tracking_stats", None, None),
    ("fsosim.cli", "loss_timeseries", "link.loss_timeseries", None, _count_samples),
    ("fsosim.cli", "throughput_timeseries", "link.throughput_timeseries", None, None),
    ("fsosim.cli", "loss_statistics", "link.loss_statistics", None, None),
    ("fsosim.cli", "summarize", "link.summarize", None, None),
    ("fsosim.cli", "link_budget", "optics.link_budget", None, None),
    ("fsosim.cli", "calibrate_coupling", "calibrate.calibrate_coupling", None, None),
    ("fsosim.apt", "summarize", "link.summarize", None, None),
    ("fsosim.link", "summarize", "link.summarize", None, None),
    ("fsosim.link", "loss_statistics", "link.loss_statistics", None, None),
    ("fsosim.link", "downtime_fraction", "link.downtime_fraction", None, None),
    ("fsosim.optics", "link_budget", "optics.link_budget", None, None),
    ("fsosim.optics", "distance_sweep", "optics.distance_sweep", None, None),
    ("fsosim.io", "canonical_json", "io.canonical_json", None, _count_json),
    ("fsosim.io", "write_tracking_csv", "io.write_tracking_csv", None, _count_series_written),
    ("fsosim.io", "write_loss_csv", "io.write_loss_csv", None, _count_series_written),
    ("fsosim.io", "write_throughput_csv", "io.write_throughput_csv", None, _count_series_written),
    ("fsosim.io", "write_sweep_csv", "io.write_sweep_csv", None, _count_rows_written),
    ("fsosim.io", "read_tracking_csv", "io.read_tracking_csv", None, _count_rows_read),
    ("fsosim.io", "read_loss_csv", "io.read_loss_csv", None, _count_rows_read),
    ("fsosim.io", "read_throughput_csv", "io.read_throughput_csv", None, _count_rows_read),
]

DISTURBANCE_SPAN = "dynamics.disturbance"
SPAN_NAMES = [ROOT_SPAN] + sorted({b[2] for b in BINDINGS} | {DISTURBANCE_SPAN})


def _wrap(tracer: Tracer, fn, name: str, tag=None, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        span = tracer.begin(name, tag(args, kwargs) if tag else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return traced


@contextmanager
def installed(tracer: Tracer):
    """Replace every binding in BINDINGS; restore on exit.

    `run_apt` looks up `DisturbanceGenerator` in `fsosim.apt`, so a
    subclass there makes its construction and `series` calls one span.
    """
    import fsosim.apt

    saved = []
    try:
        for module_name, attr, name, tag, after in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, original, name, tag, after))
        generator = fsosim.apt.DisturbanceGenerator
        saved.append((fsosim.apt, "DisturbanceGenerator", generator))
        fsosim.apt.DisturbanceGenerator = type(generator.__name__, (generator,), {
            "__init__": _wrap(tracer, generator.__init__, DISTURBANCE_SPAN),
            "series": _wrap(tracer, generator.series, DISTURBANCE_SPAN),
        })
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics

COUNTERS = [
    "apt.ticks",
    "io.rows_written",
    "io.bytes_written",
    "io.rows_read",
    "link.samples",
    "cli.roundtrip_values",
]

# per-layer metric -> span whose self time it reports, per traced operation
SELF_TIME_METRICS = {
    "dynamics.disturbance_s": DISTURBANCE_SPAN,
    "apt.tracking_stats_s": "apt.tracking_stats",
    "link.loss_timeseries_s": "link.loss_timeseries",
    "link.throughput_timeseries_s": "link.throughput_timeseries",
    "link.loss_statistics_s": "link.loss_statistics",
    "link.summarize_s": "link.summarize",
    "cli.roundtrip_s": "cli.roundtrip",
    "cli.main_self_s": "cli.main",
    "cli.budget_self_s": "cli.budget",
    "cli.sweep_self_s": "cli.sweep",
    "cli.track_self_s": "cli.track",
    "cli.run_self_s": "cli.run",
    "cli.calibrate_self_s": "cli.calibrate",
    "scenario.load_in_op_s": "scenario.load",
    "io.write_tracking_csv_s": "io.write_tracking_csv",
    "io.write_loss_csv_s": "io.write_loss_csv",
    "io.write_throughput_csv_s": "io.write_throughput_csv",
    "io.write_sweep_csv_s": "io.write_sweep_csv",
    "io.canonical_json_s": "io.canonical_json",
    "io.read_tracking_csv_s": "io.read_tracking_csv",
    "io.read_loss_csv_s": "io.read_loss_csv",
    "io.read_throughput_csv_s": "io.read_throughput_csv",
    "optics.distance_sweep_s": "optics.distance_sweep",
    "optics.link_budget_s": "optics.link_budget",
    "calibrate.calibrate_coupling_s": "calibrate.calibrate_coupling",
}


def layer_metrics(tracer: Tracer, counted_ops: set[int]) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    Times are self time per traced operation.  `apt.loop_us_per_tick.<stage>`
    is `run_apt` self time (its disturbance child excluded) per tick of that
    stage set.  Counters are totals over `counted_ops`, one whole rotation
    of the workload's inputs, so they repeat exactly for a given seed.
    """
    selfs = self_times(tracer.spans)
    n_ops = sum(1 for s in tracer.spans if s.parent is None)
    by_name: dict[str, float] = defaultdict(float)
    loop_s = dict.fromkeys(STAGES, 0.0)
    for span, own in zip(tracer.spans, selfs):
        by_name[span.name] += own
        if span.name == "apt.run_apt":
            loop_s[span.tag] += own
    totals: dict[str, int] = defaultdict(int)
    counted: dict[str, int] = defaultdict(int)
    for (op, name), n in tracer.counts.items():
        totals[name] += n
        if op in counted_ops:
            counted[name] += n
    metrics = {
        metric: by_name[span] / n_ops if n_ops else 0.0
        for metric, span in SELF_TIME_METRICS.items()
    }
    for stage in STAGES:
        ticks = totals[f"apt.ticks.{stage}"]
        metrics[f"apt.loop_us_per_tick.{stage}"] = loop_s[stage] / ticks * 1e6 if ticks else 0.0
    for name in COUNTERS:
        metrics[name] = counted[name]
    return metrics
