"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import signal
import time
from pathlib import Path

import pytest

import calibration
import catalog
import tracing
import worker
from run import _scipy_import_s
from tracing import Span
from workloads import DEFAULT_SEED, WORKLOADS, SingleRunEmit, Workload


def _span(name, start, end, parent=None):
    span = Span(name, start, parent, 0)
    span.end = end
    return span


def test_self_time_of_hand_built_span_tree():
    spans = [
        _span("op", 0.0, 10.0),
        _span("cli.main", 1.0, 9.0, parent=0),
        _span("apt.run_apt", 2.0, 6.0, parent=1),
        _span("dynamics.disturbance", 2.5, 3.0, parent=2),
        _span("io.write_loss_csv", 6.0, 8.5, parent=1),
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 1.5, 3.5, 0.5, 2.5])

    table = tracing.layer_table(spans, ["op", "cli.main", "link.summarize"])
    assert table["op"] == {"self_s": pytest.approx(2.0), "calls": 1, "share": pytest.approx(0.2)}
    assert table["apt.run_apt"]["share"] == pytest.approx(0.35)
    # a layer the workload never reached is a zero row, not a missing one
    assert table["link.summarize"] == {"self_s": 0.0, "calls": 0, "share": 0.0}
    assert sum(row["self_s"] for row in table.values()) == pytest.approx(10.0)


def test_overlapping_children_are_covered_once():
    spans = [
        _span("op", 0.0, 4.0),
        _span("a", 1.0, 3.0, parent=0),
        _span("b", 2.0, 3.5, parent=0),
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(1.5)


def test_tracer_records_only_inside_an_operation():
    tracer = tracing.Tracer()
    traced = tracing._wrap(tracer, lambda x: x + 1, "link.summarize")
    assert traced(1) == 2 and tracer.spans == []
    with tracer.op(7):
        assert traced(2) == 3
    assert [(s.name, s.parent, s.op) for s in tracer.spans] == [
        ("op", None, 7), ("link.summarize", 0, 7)]


def test_median_and_sample_count():
    def records(seconds):
        return [worker.OpRecord(i, "k", t, 10.0, False, []) for i, t in enumerate(seconds)]

    e2e = worker.end_to_end(records([3.0, 1.0, 2.0]))
    assert (e2e["op_s_p50"], e2e["op_samples"], e2e["realtime_x"]) == (2.0, 3, 5.0)
    e2e = worker.end_to_end(records([4.0, 1.0, 3.0, 2.0]))
    assert (e2e["op_s_p50"], e2e["op_samples"]) == (2.5, 4)
    assert e2e["realtime_x"] == pytest.approx((10 / 2 + 10 / 3) / 2)


def test_end_to_end_excludes_traced_and_raised_operations():
    records = [
        worker.OpRecord(0, "k", 2.0, 240.0, False, []),
        worker.OpRecord(1, "k", 9.0, 240.0, True, []),
        worker.OpRecord(2, "k", 4.0, 240.0, False, ["check failed"]),
        worker.OpRecord(3, "k", float("nan"), 240.0, False, ["raised"]),
    ]
    e2e = worker.end_to_end(records)
    assert (e2e["op_s_p50"], e2e["op_samples"]) == (3.0, 2)
    assert e2e["realtime_x"] == pytest.approx((120.0 + 60.0) / 2)
    assert worker.tally(records) == (4, 2)


def test_scaled_time_follows_the_calibration_loop():
    nominal = calibration.NOMINAL_S
    assert calibration.scaled(3.0, [nominal]) == pytest.approx(3.0)
    # the machine ran half as fast: the same work reads as half the time
    assert calibration.scaled(3.0, [2 * nominal, 2 * nominal]) == pytest.approx(1.5)
    assert calibration.scaled(3.0, [nominal, 3 * nominal]) == pytest.approx(1.5)


def test_meter_samples_during_a_block_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with calibration.Meter() as meter:
        deadline = time.perf_counter() + 3.5 * calibration.INTERVAL_S
        while time.perf_counter() < deadline:
            pass
    assert len(meter.samples) >= 3  # one on entry, then one per interval
    assert 0.0 < meter.handler_s < 3.5 * calibration.INTERVAL_S
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous


class _IdleMeter:
    """A calibration meter that reads no clock and reports the nominal speed."""

    samples = [calibration.NOMINAL_S]
    handler_s = 0.0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass


class _Rotation:
    """Three inputs that do nothing; stands in for a workload in `measure`."""

    def __init__(self):
        self.inputs = [{"key": key} for key in "abc"]

    def clear(self):
        pass

    def run(self, inp):
        return {"rc": [0]}

    def check(self, inp, result):
        return []

    def sim_seconds(self, inp):
        return 1.0


@pytest.mark.parametrize("traced", [False, True])
def test_measure_stops_only_between_rotations(monkeypatch, traced):
    clock = iter(range(10**6))  # every clock reading is one second later
    monkeypatch.setattr(worker.time, "perf_counter", lambda: float(next(clock)))
    monkeypatch.setattr(calibration, "Meter", _IdleMeter)
    per_input = 2 if traced else 1
    counts = set()
    for seconds in range(25):
        records, first_rotation = worker.measure(
            _Rotation(), seconds, tracing.Tracer() if traced else None)
        assert len(records) % (3 * per_input) == 0 and records
        counts.add(len(records))
        assert [r.key for r in records[:3 * per_input:per_input]] == ["a", "b", "c"]
        assert len(first_rotation) == (3 if traced else 0)
    assert len(counts) > 1


def test_catalog_names_each_workload_and_its_set_up():
    assert set(catalog.WORKLOADS) == set(WORKLOADS)
    for name, cls in WORKLOADS.items():
        spec = catalog.WORKLOADS[name]
        assert spec.prepare == (cls.prepare is not Workload.prepare), name


def test_scipy_import_time_from_importtime_log():
    # post-order, as the interpreter prints it; two spaces per nesting level
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy",
        "import time:        20 |         20 |             numpy.linalg",
        "import time:        40 |         60 |           scipy._lib",
        "import time:        40 |        100 |         scipy",
        "import time:       400 |        400 |           scipy.signal._ltisys",
        "import time:        10 |        410 |         scipy.signal._support",
        "import time:       100 |        610 |       fsosim.dynamics",
        "import time:        10 |        720 |     fsosim",
    ])
    assert _scipy_import_s(log) == pytest.approx(510e-6)


@pytest.fixture
def short_emit(tmp_path: Path) -> SingleRunEmit:
    workload = SingleRunEmit(seed=5, workdir=tmp_path)
    workload.duration_s = 12.0  # 2 s past the 10 s stats warmup keeps the test quick
    return workload


def _corrupt_after_run(workload: SingleRunEmit, relative: str, column: int):
    """Make `workload.run` append a digit to one CSV cell after it has run."""
    run = workload.run

    def run_then_corrupt(inp):
        result = run(inp)
        path = workload.op_dir / relative
        lines = path.read_text().split("\n")
        cells = lines[5].split(",")
        cells[column] += "1"
        lines[5] = ",".join(cells)
        path.write_text("\n".join(lines))
        return result

    workload.run = run_then_corrupt


def test_clean_operation_passes(short_emit):
    record = worker.execute(short_emit, short_emit.inputs[0], 0)
    assert record.problems == []
    assert worker.tally([record]) == (1, 0)


def test_corrupted_loss_csv_counts_as_failed(short_emit):
    # a changed loss value breaks the report.json == loss.csv statistics contract
    _corrupt_after_run(short_emit, "run/loss.csv", column=1)
    record = worker.execute(short_emit, short_emit.inputs[0], 0)
    assert any("loss_db statistics" in p for p in record.problems)
    assert worker.tally([record]) == (1, 1)


def test_corrupted_repeat_counts_as_failed(short_emit):
    # a tracking.csv residual is in no report; only the bytes check sees it
    inp = short_emit.inputs[1]
    first = worker.execute(short_emit, inp, 0)
    _corrupt_after_run(short_emit, "track/tracking.csv", column=2)
    second = worker.execute(short_emit, inp, 1)
    assert first.problems == []
    assert second.problems == ["tracking.csv: bytes differ from an earlier run of the same input"]
    assert worker.tally([first, second]) == (2, 1)


def test_reference_mismatch_counts_as_failed(tmp_path: Path):
    clean = SingleRunEmit(seed=DEFAULT_SEED, workdir=tmp_path / "clean")
    clean.duration_s = 12.0
    inp = clean.inputs[0]
    digests, problems = clean.outputs(inp, clean.run(inp))
    assert problems == []

    workload = SingleRunEmit(seed=DEFAULT_SEED, workdir=tmp_path / "corrupt")
    workload.duration_s = 12.0
    workload._references = {workload.name: {inp["key"]: digests}}
    _corrupt_after_run(workload, "track/tracking.csv", column=2)
    record = worker.execute(workload, inp, 0)
    assert record.problems == ["reference digest mismatch: tracking.csv"]
    assert worker.tally([record]) == (1, 1)
