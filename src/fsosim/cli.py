"""Command-line interface: budget, sweep, track, run, calibrate.

Exit codes are a stable contract:
  0 success, 1 validation/parse error, 2 nonconvergence, 3 I/O error,
  4 a worker process of `run --seeds` died.

All emitted artifacts are deterministic functions of (scenario, seed,
flags); rerunning a command reproduces byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import io as fsio
from .apt import (TICK_RATE_HZ, TrackingSeries, TrackingStats, _check_seed, run_apt, tick_count,
                  tick_window, tracking_stats)
from .calibrate import DEFAULT_TOLERANCE_DB, SAMPLES, calibrate_coupling, parse_anchor_file
from .link import (
    LossSeries,
    SummaryStats,
    ThroughputSeries,
    downtime_fraction,
    loss_statistics,
    loss_timeseries,
    summarize,
    throughput_timeseries,
)
from .optics import link_budget
from .scenario import Scenario, ScenarioError, default_scenario, load_scenario
from .states import STATE_NAMES

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NONCONVERGENCE = 2
EXIT_IO = 3
EXIT_WORKER = 4

SCHEMA_VERSION = 1

# Default calibration targets: mean-loss anchors for low/high jitter at 1 km
# and the static total at 10 km (see README for the file format).
DEFAULT_ANCHORS = {
    "mean_loss_anchors": [
        {"sigma_urad": 3.0, "distance_m": 1000.0, "mean_loss_db": 13.7},
        {"sigma_urad": 24.0, "distance_m": 1000.0, "mean_loss_db": 29.3},
    ],
    "static_total_db": 12.7,
    "static_distance_m": 10000.0,
}

_STAGE_CHOICES = {
    "coarse": (False, False),
    "fine1": (True, False),
    "full": (True, True),
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 by default, which collides with the
    # nonconvergence code; route usage errors to the validation code instead
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="fsosim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: _Parser, seed: bool = True, duration: float | None = None):
        p.add_argument("--scenario", type=str, default=None,
                       help="scenario JSON path (built-in defaults when omitted)")
        p.add_argument("--out", type=str, default=None,
                       help="output directory (stdout-only when omitted)")
        if seed:
            p.add_argument("--seed", type=_seed_arg, default=1, help="64-bit run seed")
        if duration is not None:
            p.add_argument("--duration", type=float, default=duration,
                           help="simulated seconds")

    p = sub.add_parser("budget", help="print the link budget at one distance")
    add_common(p, seed=False)
    p.add_argument("--distance-m", type=float, default=None,
                   help="override the scenario node separation")
    p.add_argument("--error-urad", type=float, default=0.0,
                   help="radial pointing error for the jitter term")

    p = sub.add_parser("sweep", help="distance sweep of the static budget (CSV)")
    add_common(p, seed=False)
    p.add_argument("--min-km", type=float, default=0.1)
    p.add_argument("--max-km", type=float, default=10.0)
    p.add_argument("--steps", type=int, default=100)

    p = sub.add_parser("track", help="simulate tracking; CSV + stats JSON")
    add_common(p, duration=120.0)
    p.add_argument("--fine-after", type=float, default=0.0,
                   help="keep fine stages disabled until this time (s)")
    p.add_argument("--stages", choices=sorted(_STAGE_CHOICES), default=None,
                   help="which tracking stages may engage (default: scenario)")

    p = sub.add_parser("run", help="tracking + loss + throughput; CSVs + report JSON")
    add_common(p, duration=120.0)
    p.add_argument("--seeds", type=str, default=None,
                   help="inclusive seed range a..b (overrides --seed)")

    p = sub.add_parser("calibrate", help="fit coupling/insertion to loss anchors")
    add_common(p, seed=True)
    p.add_argument("--anchors", type=str, default=None,
                   help="anchor JSON path (built-in defaults when omitted)")
    p.add_argument("--tolerance-db", type=float, default=DEFAULT_TOLERANCE_DB)
    return parser


# ---------------------------------------------------------------------------
# helpers

def _load(args) -> Scenario:
    if args.scenario is None:
        return default_scenario()
    return load_scenario(args.scenario)


def _out_dir(args) -> Path | None:
    if args.out is None:
        return None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _emit_json(payload: dict, out: Path | None, filename: str) -> None:
    if out is None:
        sys.stdout.write(fsio.canonical_json(payload))
    else:
        fsio.write_json(out / filename, payload)


def _scenario_header(scenario: Scenario) -> dict:
    return {
        "name": scenario.name,
        "digest": scenario.digest,
        "distance_m": scenario.distance_m,
    }


# the flag that sets each library parameter: a library refusal starts with
# the parameter's name, and main() names the flag instead
_FLAG_OF = {"duration_s": "--duration", "fine_after_s": "--fine-after", "seed": "--seed",
            "steps": "--steps", "tolerance_db": "--tolerance-db"}


def _check_window(t0: float, t1: float, refusal: str) -> None:
    """Raise ValueError(refusal) when the statistics window [t0, t1) of a
    run of t1 seconds holds no tick, before the run; a t1 with no finite
    tick count is refused as duration_s.
    """
    try:
        # a NaN bound, or t1 <= t0, is an empty window whatever t1's tick count
        n = tick_count(t1) if t0 < t1 else 0
    except ValueError as exc:
        raise ValueError(f"duration_s: {exc}") from None
    try:
        tick_window(t0, t1, n)
    except ValueError:
        raise ValueError(refusal) from None


def _seed_arg(text: str) -> int:
    # ASCII digits only: int() also takes other scripts' digits, "_" and
    # a "+"; a "-" passes, so that run_apt refuses a negative seed by name
    if not re.fullmatch(r"-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return int(text)


def _parse_seed_range(text: str) -> list[int]:
    m = re.fullmatch(r"([0-9]+)\.\.([0-9]+)", text.strip())
    if not m:
        raise ValueError("--seeds expects an inclusive range a..b")
    a, b = int(m.group(1)), int(m.group(2))
    if a > b:
        raise ValueError("--seeds range must have a <= b")
    if b - a + 1 > 10_000:
        raise ValueError("--seeds range too large")
    try:
        # up front: the runs of the seeds below b would write --out first
        _check_seed(b)
    except ValueError as exc:
        raise ValueError(f"--seeds {a}..{b}: {exc}") from None
    return list(range(a, b + 1))


def _stats_dict(s: TrackingStats, t0: float, t1: float) -> dict:
    return {
        "window_t0_s": t0,
        "window_t1_s": t1,
        "radial_mean_urad": s.radial_mean_rad * 1e6,
        "radial_std_urad": s.radial_std_rad * 1e6,
        "pitch_mean_urad": s.pitch_mean_rad * 1e6,
        "pitch_std_urad": s.pitch_std_rad * 1e6,
        "azimuth_mean_urad": s.azimuth_mean_rad * 1e6,
        "azimuth_std_urad": s.azimuth_std_rad * 1e6,
        "count": s.count,
    }


def _time_in_state(series: TrackingSeries) -> dict:
    counts = np.bincount(series.state, minlength=len(STATE_NAMES))
    return {
        STATE_NAMES[i]: counts[i] / TICK_RATE_HZ
        for i in range(len(STATE_NAMES))
        if counts[i]
    }


def _summary_dict(stats: SummaryStats | None) -> dict:
    if stats is None:  # nothing to summarize
        return {"mean": None, "std": None, "min": None, "max": None, "count": 0}
    return {
        "mean": stats.mean,
        "std": stats.std,
        "min": stats.minimum,
        "max": stats.maximum,
        "count": stats.count,
    }


def _roundtrip(values: np.ndarray) -> np.ndarray:
    # pass values through the CSV number format, in place, so reported
    # statistics equal statistics of the emitted file exactly
    return fsio._through_csv(values, out=values)


# ---------------------------------------------------------------------------
# one simulated run, as `fsosim run` reports it

@dataclass(frozen=True, eq=False)
class RunResult:
    """One seed of `fsosim run`: the whole run's series, and the loss,
    throughput and statistics over the window [t0_s, t1_s) that its
    report.json holds.  The loss is at CSV precision, so `loss` and
    `throughput` equal the loss.csv and throughput.csv of `run --out`.
    """

    series: TrackingSeries
    t0_s: float
    t1_s: float
    loss: LossSeries
    throughput: ThroughputSeries
    tracking: TrackingStats
    loss_stats: SummaryStats | None  # None when no sample is in lock
    downtime_fraction: float
    throughput_stats: SummaryStats


def simulate_run(scenario: Scenario, duration_s: float, seed: int,
                 enable_fine1: bool | None = None,
                 enable_fine2: bool | None = None) -> RunResult:
    """The chain behind `fsosim run` for one seed: `run_apt`, then the loss,
    throughput and statistics over [stats_warmup_s, duration_s).  `seed` is
    an integer in [0, 2**64).

    Raises ValueError naming `duration_s`, before any tick runs, when that
    window holds no tick; `run_apt` refuses the rest, `seed` included,
    before it allocates anything.
    """
    t0 = scenario.apt.stats_warmup_s
    _check_window(t0, duration_s, f"duration_s {duration_s} s leaves no {TICK_RATE_HZ:g} Hz "
                                  f"tick after the scenario's stats_warmup_s ({t0} s)")
    series = run_apt(scenario, duration_s, seed,
                     enable_fine1=enable_fine1, enable_fine2=enable_fine2)
    window = series.window(t0, duration_s)
    # the residual statistics come first: they make a window-long radial
    # error, and the run holds only its series yet
    tracking = tracking_stats(window)
    loss = loss_timeseries(window, scenario)
    # statistics are taken over CSV-precision values, those loss.csv holds
    _roundtrip(loss.loss_db)
    throughput = throughput_timeseries(loss, scenario.transceiver)
    return RunResult(
        series=series,
        t0_s=t0,
        t1_s=duration_s,
        loss=loss,
        throughput=throughput,
        tracking=tracking,
        loss_stats=loss_statistics(loss) if np.isfinite(loss.loss_db).any() else None,
        downtime_fraction=downtime_fraction(loss, scenario.transceiver),
        throughput_stats=summarize(throughput.rate_gbps),
    )


# ---------------------------------------------------------------------------
# verbs

def cmd_budget(args) -> int:
    scenario = _load(args)
    distance = args.distance_m if args.distance_m is not None else scenario.distance_m
    if not (distance >= 0.0 and math.isfinite(distance)):
        raise ValueError("--distance-m must be >= 0 and finite")
    if not (args.error_urad >= 0.0 and math.isfinite(args.error_urad)):
        raise ValueError("--error-urad must be >= 0 and finite")
    error_rad = args.error_urad * 1e-6
    try:
        budget = link_budget(scenario, distance, error_rad)
    except OverflowError:  # resolve_scenario refuses a node distance beyond the beam model
        raise ValueError(f"--distance-m {distance} is too large for the beam model") from None
    if not math.isfinite(budget.jitter_excess_db):
        raise ValueError(f"--error-urad {args.error_urad} gives a non-finite jitter loss")
    payload = {
        "schema_version": SCHEMA_VERSION,
        "scenario": _scenario_header(scenario),
        "distance_m": distance,
        "radial_error_urad": args.error_urad,
        "budget": {
            "diffraction_db": budget.diffraction_db,
            "optics_db": budget.optics_db,
            "atmosphere_db": budget.atmosphere_db,
            "coupling_base_db": budget.coupling_base_db,
            "jitter_excess_db": budget.jitter_excess_db,
            "total_db": budget.total_db,
        },
    }
    _emit_json(payload, _out_dir(args), "budget.json")
    return EXIT_OK


def cmd_sweep(args) -> int:
    scenario = _load(args)
    from .optics import distance_sweep

    for flag, km in (("--min-km", args.min_km), ("--max-km", args.max_km)):
        if not (km > 0.0 and math.isfinite(km * 1000.0)):
            raise ValueError(f"{flag} must be positive and finite in metres")
    if args.min_km > args.max_km:
        raise ValueError("--min-km must not exceed --max-km")
    try:
        table = distance_sweep(scenario, args.min_km * 1000.0, args.max_km * 1000.0, args.steps)
    except OverflowError:
        raise ValueError(f"--max-km {args.max_km} is too large for the beam model") from None
    out = _out_dir(args)
    if out is None:
        fsio._write_sweep(sys.stdout, table)
    else:
        fsio.write_sweep_csv(out / "sweep.csv", table)
    return EXIT_OK


def cmd_track(args) -> int:
    scenario = _load(args)
    warmup = min(scenario.apt.stats_warmup_s, 0.5 * args.duration)
    # the start of each statistics window the report holds, by the parameter
    # that sets it
    windows = {"duration_s": warmup}
    if args.fine_after > 0.0:
        windows["fine_after_s"] = args.fine_after
    for name, t0 in windows.items():
        _check_window(t0, args.duration, f"{name}: the statistics window [{t0}, "
                                         f"{args.duration}) s holds no {TICK_RATE_HZ:g} Hz tick")
    if args.stages is None:
        fine1, fine2 = scenario.apt.fine1_enabled, scenario.apt.fine2_enabled
    else:
        fine1, fine2 = _STAGE_CHOICES[args.stages]
    series = run_apt(
        scenario, args.duration, args.seed,
        enable_fine1=fine1, enable_fine2=fine2, fine_after_s=args.fine_after,
    )
    out = _out_dir(args)
    stage_name = next(name for name, flags in _STAGE_CHOICES.items()
                      if flags == (fine1, fine2))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "scenario": _scenario_header(scenario),
        "seed": args.seed,
        "duration_s": args.duration,
        "stages": stage_name,
        "fine_after_s": args.fine_after,
        "stats": _stats_dict(tracking_stats(series.window(warmup, args.duration)),
                             warmup, args.duration),
        "time_in_state_s": _time_in_state(series),
        "files": {"tracking_csv": "tracking.csv"} if out is not None else None,
    }
    if args.fine_after > 0.0:
        payload["stats_after_fine"] = _stats_dict(
            tracking_stats(series.window(args.fine_after, args.duration)),
            args.fine_after, args.duration)
    if out is not None:
        fsio.write_tracking_csv(out / "tracking.csv", series)
    _emit_json(payload, out, "tracking_stats.json")
    return EXIT_OK


def _run_one_seed(scenario: Scenario, args, seed: int, multi: bool) -> dict:
    # the RunResult, and with it the seed's series, dies when this returns
    run = simulate_run(scenario, args.duration, seed)
    # --out is made only once a run has passed simulate_run's checks, so a
    # refused --duration leaves no directory behind
    out = _out_dir(args)
    files = None
    if out is not None:
        files = {"loss_csv": f"loss_{seed}.csv" if multi else "loss.csv",
                 "throughput_csv": f"throughput_{seed}.csv" if multi else "throughput.csv"}
        fsio.write_loss_csv(out / files["loss_csv"], run.loss)
        fsio.write_throughput_csv(out / files["throughput_csv"], run.throughput)
    return {
        "seed": seed,
        "files": files,
        "tracking": _stats_dict(run.tracking, run.t0_s, run.t1_s),
        "loss_db": dict(_summary_dict(run.loss_stats), downtime_fraction=run.downtime_fraction),
        "throughput_gbps": _summary_dict(run.throughput_stats),
        "time_in_state_s": _time_in_state(run.series),
    }


class _WorkerDied(RuntimeError):
    """A worker process running seeds of `run --seeds` died (killed, or out
    of memory) before its seed finished."""


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_seeds(scenario: Scenario, args, seeds: list[int], multi: bool) -> list[dict]:
    """_run_one_seed over the seeds, its results in seed order.

    The seeds run in n = min(len(seeds), usable CPUs) processes: this one
    and n - 1 workers forked from it, or this one alone when n is one or
    the platform cannot fork.  This process runs seeds 0, n, 2n, ... of
    the list itself, as it reaches them in seed order, so it does not sit
    idle on a core while the workers run; the workers run the rest.  A
    worker writes its seed's CSVs and returns only the seed's report
    entry.  Raises the error of the first failing seed in seed order, or
    _WorkerDied; no worker outlives the call.
    """
    procs = min(len(seeds), _usable_cpus())
    if procs < 2 or not hasattr(os, "fork"):
        return [_run_one_seed(scenario, args, s, multi) for s in seeds]
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    # fork, not spawn: a spawned worker would import numpy and fsosim
    # again, which takes about as long as one 70 s seed's run
    pool = ProcessPoolExecutor(procs - 1, mp_context=multiprocessing.get_context("fork"))
    seed = seeds[0]
    try:
        futures = {i: pool.submit(_run_one_seed, scenario, args, s, multi)
                   for i, s in enumerate(seeds) if i % procs}
        per_seed = []
        for i, seed in enumerate(seeds):
            per_seed.append(futures[i].result() if i in futures
                            else _run_one_seed(scenario, args, seed, multi))
        return per_seed
    except BrokenProcessPool:
        raise _WorkerDied(f"a worker process died; seed {seed} did not finish") from None
    finally:
        pool.shutdown(cancel_futures=True)


def cmd_run(args) -> int:
    scenario = _load(args)
    seeds = [args.seed] if args.seeds is None else _parse_seed_range(args.seeds)
    multi = args.seeds is not None
    per_seed = _map_seeds(scenario, args, seeds, multi)

    loss_means = [r["loss_db"]["mean"] for r in per_seed if r["loss_db"]["mean"] is not None]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "scenario": _scenario_header(scenario),
        "duration_s": args.duration,
        "window_t0_s": scenario.apt.stats_warmup_s,
        "window_t1_s": args.duration,
        "seeds": seeds,
        "per_seed": per_seed,
        "aggregate": {
            "loss_db_mean": (
                float(np.mean(loss_means)) if loss_means else None
            ),
            "throughput_gbps_mean": float(
                np.mean([r["throughput_gbps"]["mean"] for r in per_seed])
            ),
            "downtime_fraction_mean": float(
                np.mean([r["loss_db"]["downtime_fraction"] for r in per_seed])
            ),
        },
    }
    _emit_json(payload, _out_dir(args), "report.json")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    scenario = _load(args)
    if args.anchors is None:
        payload = DEFAULT_ANCHORS
    else:
        with open(args.anchors, "r", encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"anchors file: {exc}") from exc
    anchors, static_total, static_distance = parse_anchor_file(payload)
    result = calibrate_coupling(
        scenario, anchors,
        static_total_db=static_total, static_distance_m=static_distance,
        seed=args.seed, tolerance_db=args.tolerance_db,
    )
    report = {
        "schema_version": SCHEMA_VERSION,
        "scenario": _scenario_header(scenario),
        "samples": SAMPLES,
        "seed": args.seed,
        "result": result.as_dict(),
    }
    _emit_json(report, _out_dir(args), "calibration.json")
    return EXIT_OK if result.converged else EXIT_NONCONVERGENCE


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "budget": cmd_budget,
        "sweep": cmd_sweep,
        "track": cmd_track,
        "run": cmd_run,
        "calibrate": cmd_calibrate,
    }
    try:
        return handlers[args.command](args)
    except ScenarioError as exc:
        print(f"fsosim: scenario error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ValueError, OverflowError) as exc:
        # an OverflowError is an input beyond a model's numeric range
        message = re.sub(r"^\w+", lambda name: _FLAG_OF.get(name[0], name[0]), str(exc))
        print(f"fsosim: {message}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"fsosim: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except _WorkerDied as exc:
        print(f"fsosim: {exc}", file=sys.stderr)
        return EXIT_WORKER


if __name__ == "__main__":
    sys.exit(main())
