"""One workload in a fresh process: `--phase prepare` or `--phase measure`.

Started by run.py, one child at a time, so that start-up cost and peak
memory belong to the workload.  The measure phase runs whole rotations of
the workload's inputs until `--seconds` have passed, checks every
operation's outputs, and writes its result as JSON to `--result`.
Operation times are scaled to the reference speed of calibration.py.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import fsosim  # noqa: E402

import calibration  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@dataclass
class OpRecord:
    index: int
    key: str
    seconds: float  # at the reference speed
    sim_seconds: float
    traced: bool
    problems: list[str]
    wall_s: float = float("nan")


def execute(workload, inp: dict, index: int, tracer=None) -> OpRecord:
    """Run one operation (timed) and check its outputs (untimed).

    An exception, a nonzero exit code or a failed check all leave the
    operation with a nonempty `problems` list, which counts it as failed.
    """
    workload.clear()
    seconds = wall = float("nan")
    try:
        with tracing.installed(tracer) if tracer else nullcontext():
            with calibration.Meter() as meter:
                start = time.perf_counter()
                with tracer.op(index) if tracer else nullcontext():
                    result = workload.run(inp)
            wall = time.perf_counter() - start - meter.handler_s
            seconds = calibration.scaled(wall, meter.samples)
        problems = workload.check(inp, result)
    except Exception:  # one broken operation must not hide the others
        problems = [traceback.format_exc(limit=3)]
    return OpRecord(index, inp["key"], seconds, workload.sim_seconds(inp),
                    tracer is not None, problems, wall)


def tally(records: list[OpRecord]) -> tuple[int, int]:
    """(attempted, failed) over all operations."""
    return len(records), sum(1 for r in records if r.problems)


def measure(workload, seconds: float, tracer=None) -> tuple[list[OpRecord], set[int]]:
    """Operations on the inputs in rotation, in whole rotations, until
    `seconds` have passed.

    Stopping only between rotations weighs every input the same in every
    run, so a faster machine or change runs more of the same mix rather
    than a different one.

    With a tracer every input runs twice in a row, once traced and once
    not, alternating which goes first, so that tracing overhead is a
    same-input difference.  Returns the records and the indices of the
    traced operations of the first rotation.
    """
    records: list[OpRecord] = []
    first_rotation: set[int] = set()
    start = time.perf_counter()
    k = 0
    n = len(workload.inputs)
    while k < n or k % n or time.perf_counter() - start < seconds:
        inp = workload.inputs[k % n]
        if tracer is None:
            records.append(execute(workload, inp, len(records)))
        else:
            traced_first = k % 2 == 0
            for traced in (traced_first, not traced_first):
                record = execute(workload, inp, len(records), tracer if traced else None)
                records.append(record)
                if traced and k < n:
                    first_rotation.add(record.index)
        k += 1
    return records, first_rotation


def end_to_end(records: list[OpRecord]) -> dict:
    """Medians over the untraced operations: time at the reference speed,
    simulated seconds per second of it, and wall time.

    An operation that raised has no time; one that failed a check still
    ran to completion and keeps its time.
    """
    timed = [r for r in records if not r.traced and math.isfinite(r.seconds)]
    if not timed:
        return {"op_s_p50": float("nan"), "op_samples": 0, "realtime_x": float("nan"),
                "wall_op_s_p50": float("nan")}
    return {
        "op_s_p50": statistics.median(r.seconds for r in timed),
        "op_samples": len(timed),
        "realtime_x": statistics.median(r.sim_seconds / r.seconds for r in timed),
        "wall_op_s_p50": statistics.median(r.wall_s for r in timed),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--phase", choices=("prepare", "measure"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    if Path(fsosim.__file__).resolve().parent != ROOT / "src" / "fsosim":
        print(f"perfbench: fsosim imported from {fsosim.__file__}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.workdir)

    if args.phase == "prepare":
        result = {"problems": workload.prepare()}
    else:
        tracer = tracing.Tracer() if args.trace else None
        records, first_rotation = measure(workload, args.seconds, tracer)
        attempted, failed = tally(records)
        result = {
            "attempted": attempted,
            "failed": failed,
            "end_to_end": end_to_end(records),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ops": [asdict(r) for r in records],
        }
        if tracer is not None:
            traced = [r.seconds for r in records if r.traced]
            layers = tracing.layer_table(tracer.spans, tracing.SPAN_NAMES)
            metrics = tracing.layer_metrics(tracer, first_rotation)
            metrics["trace.op_s_p50"] = statistics.median(traced)
            untraced = result["end_to_end"]["op_s_p50"]
            metrics["trace.overhead_frac"] = metrics["trace.op_s_p50"] / untraced - 1.0
            metrics["trace.attributed_frac"] = 1.0 - layers[tracing.ROOT_SPAN]["share"]
            result["layers"] = layers
            result["layer_metrics"] = metrics
    args.result.write_text(json.dumps(result, indent=1, sort_keys=True), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
