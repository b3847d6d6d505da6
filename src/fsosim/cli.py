"""Command-line interface: budget, sweep, track, run, calibrate.

Exit codes are a stable contract:
  0 success, 1 validation/parse error, 2 nonconvergence, 3 I/O error,
  4 a worker process of `run --seeds`, or the writer process of `--out`, died.

All emitted artifacts are deterministic functions of (scenario, seed,
flags); rerunning a command reproduces byte-identical files.

The seed workers of `run --seeds` and the --out writer of a one-seed run are
processes forked one way, as _Childs, fed and answered through two pipes;
none outlives the command.  Where no fork is possible, or one fails, their
work runs in this process, with the same bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import re
import signal
import sys
from contextlib import closing, contextmanager, nullcontext, suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, NoReturn

import numpy as np

from . import io as fsio
from .apt import (TICK_RATE_HZ, TrackingSeries, TrackingStats, _check_seed, check_run, run_apt,
                  tick_count, tick_window, tracking_stats)
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


def _check_window(t0: float, t1: float, refusal: str) -> slice:
    """The ticks of the statistics window [t0, t1) of a run of t1 seconds,
    as tick_window gives them, before the run; raises ValueError(refusal)
    when it holds no tick, and refuses a t1 with no finite tick count as
    duration_s.
    """
    try:
        # a NaN bound, or t1 <= t0, is an empty window whatever t1's tick count
        n = tick_count(t1) if t0 < t1 else 0
    except ValueError as exc:
        raise ValueError(f"duration_s: {exc}") from None
    try:
        return tick_window(t0, t1, n)
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
# the processes a verb runs in

class _WorkerDied(RuntimeError):
    """A worker process of `run --seeds`, or the writer process of a run's
    --out CSVs, died (killed, or out of memory) before its work was done."""


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _processes(wanted: int) -> int:
    """The processes, this one and _Childs forked from it, that run `wanted`
    (at least 1) equal shares of work dealt round-robin: with c usable CPUs
    (1 where none can fork), the fewest P >= min(wanted, c) whose last round
    keeps every CPU busy, wanted % P being 0 or at least c.

    3 shares on 2 CPUs run in 3 processes, which the scheduler spreads over
    both CPUs for 1.5 share-times, not 2; `wanted` shares never take more
    than `wanted` processes, and wanted <= 10 000 takes fewer than 6c.
    """
    cpus = _usable_cpus() if hasattr(os, "fork") else 1
    procs = min(wanted, cpus)
    while 0 < wanted % procs < cpus:
        procs += 1
    return procs


class _Child:
    """A process forked from this one that runs work(items), then exits.

    `items` iterates what send() pickles down one pipe, up to a None; each
    value work yields (never None), then None or the exception work raised,
    is pickled up another pipe for receive().  The fork raises OSError, and
    forks nothing, at the process limit or out of memory.  The child first
    closes this process's pipe ends of the children forked before it, so
    that a pipe ends only when its child or this process lets go of it; it
    ends with os._exit, so it never returns into the stack it was forked
    from nor flushes the stdio buffers it inherited.  A child that dies, or
    stops reading, raises _WorkerDied naming `name`.
    """

    _ends: set[int] = set()  # the pipe ends of unreaped children (a fork copies them all)

    def __init__(self, name: str, work: Callable[[Iterator], Iterable]):
        self._name = name
        down_r, down_w = os.pipe()
        up_r, up_w = os.pipe()
        parent = os.getpid()
        try:
            self._pid = os.fork()
        except OSError:
            for fd in (down_r, down_w, up_r, up_w):
                os.close(fd)
            raise
        if self._pid == 0:
            _die_with(parent)
            for fd in (down_w, up_r, *self._ends):
                os.close(fd)
            _serve(work, down_r, up_w)
        os.close(down_r)
        os.close(up_w)
        self._fds = (down_w, up_r)
        self._ends.update(self._fds)
        self._down = os.fdopen(down_w, "wb")
        self._up = os.fdopen(up_r, "rb")

    def send(self, item, what: str) -> None:
        """Pickle item down to the child; `what` names the work a child that
        stopped reading left undone."""
        try:
            pickle.dump(item, self._down, pickle.HIGHEST_PROTOCOL)
            self._down.flush()
        except BrokenPipeError:  # the child stopped reading: it failed or died
            self.receive(what)
            raise self._died(what) from None

    def receive(self, what: str):
        """The next value work yields, or None once work has returned and the
        child has been waited for; raises what work raised, or _WorkerDied
        naming `what` if the child died first."""
        try:
            more, payload = pickle.load(self._up)
        except (EOFError, pickle.UnpicklingError):  # the child died, maybe mid-message
            more, payload = False, self._died(what)
        if not more:
            os.waitpid(self._pid, 0)
            self._pid = None
            if payload is not None:
                raise payload
        return payload

    def reap(self) -> None:
        """Kill the child unless it has been waited for, wait for it, and
        close this process's ends of its pipes."""
        if self._pid is not None:
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None
        self._ends.difference_update(self._fds)
        with suppress(OSError):  # the flush of an item the child did not read
            self._down.close()
        self._up.close()

    def _died(self, what: str) -> _WorkerDied:
        return _WorkerDied(f"{self._name} died; {what} did not finish")


_PR_SET_PDEATHSIG = 1  # <linux/prctl.h>


def _die_with(parent: int) -> None:
    """In a child just forked from `parent`: be killed when `parent` dies
    (on Linux), and exit at once if it died before that was asked, so that
    no child outlives an fsosim that was killed."""
    if sys.platform.startswith("linux"):
        import ctypes  # numpy has imported it already

        ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:
        os._exit(0)


def _serve(work: Callable[[Iterator], Iterable], down_r: int, up_w: int) -> NoReturn:
    """The body of a _Child: work over the items read from down_r, each
    value it yields, then None or its exception, written to up_w.  What
    went up the pipe is the child's outcome; its exit status is not read."""
    try:
        with open(down_r, "rb") as down, open(up_w, "wb") as up:
            try:
                for value in work(iter(lambda: pickle.load(down), None)):
                    up.write(pickle.dumps((True, value)))
                    up.flush()
                outcome = None
            except Exception as exc:
                outcome = exc
            up.write(pickle.dumps((False, outcome)))
    finally:
        os._exit(0)


@contextmanager
def _csv_writer(make_sink: Callable, files: str, fork: bool) -> Iterator[Callable]:
    """A sink that writes a run's CSVs (`files`, for messages): the one
    make_sink() builds, closed when the block exits.  With `fork` and a
    second usable CPU, it runs in a writer process (a _Child) that the sink
    handed out sends each block to, so that the CSVs are formatted while
    this process runs the loop; on a normal exit this process waits for the
    writer to finish, and an OSError the writer raised is raised here.
    Where the writer cannot be forked, the sink runs in this process.
    """
    def write(blocks: Iterator) -> tuple:
        with closing(make_sink()) as sink:
            for block in blocks:
                sink(block)
        return ()

    writer = None
    if fork and _processes(2) == 2:
        with suppress(OSError):  # at the process limit, or out of memory
            writer = _Child("the writer process", write)
    if writer is None:
        with closing(make_sink()) as sink:
            yield sink
        return
    try:
        yield lambda block: writer.send(block, files)
        writer.send(None, files)  # the end of the blocks
        writer.receive(files)
    finally:
        writer.reap()


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


def _check_simulate(scenario: Scenario, duration_s: float, seed: int,
                    enable_fine1: bool | None = None, enable_fine2: bool | None = None) -> slice:
    """Refuse what simulate_run refuses, in its order, without a run; the
    ticks of its statistics window."""
    t0 = scenario.apt.stats_warmup_s
    rows = _check_window(t0, duration_s, f"duration_s {duration_s} s leaves no {TICK_RATE_HZ:g} "
                                         f"Hz tick after the scenario's stats_warmup_s ({t0} s)")
    check_run(scenario, duration_s, seed, enable_fine1, enable_fine2)
    return rows


def simulate_run(scenario: Scenario, duration_s: float, seed: int,
                 enable_fine1: bool | None = None,
                 enable_fine2: bool | None = None,
                 sink: Callable[[tuple[LossSeries, ThroughputSeries]], None] | None = None,
                 ) -> RunResult:
    """The chain behind `fsosim run` for one seed: `run_apt`, then the loss,
    throughput and statistics over [stats_warmup_s, duration_s).  `seed` is
    an integer in [0, 2**64).

    The window's loss, at CSV precision, and its rate are formed once, a
    block of ticks at a time as run_apt hands each block over.  `sink`,
    when given, is called with each block's (loss, throughput), in tick
    order: the rows of loss.csv and throughput.csv.

    Raises ValueError naming `duration_s`, before any tick runs, when that
    window holds no tick; then, before anything is allocated, what
    `run_apt` refuses, `seed` included.
    """
    rows = _check_simulate(scenario, duration_s, seed, enable_fine1, enable_fine2)
    loss_db = np.empty(rows.stop - rows.start)
    link_up = np.empty(loss_db.size, dtype=bool)
    rate_gbps = np.empty(loss_db.size)
    ticks = 0  # ticks handed over so far

    def window_block(block: TrackingSeries) -> None:
        nonlocal ticks
        lo = ticks
        ticks += len(block)
        start, stop = max(rows.start, lo), min(rows.stop, ticks)
        if start >= stop:
            return
        loss = loss_timeseries(block._rows(slice(start - lo, stop - lo)), scenario)
        # statistics are taken over CSV-precision values, those loss.csv holds
        _roundtrip(loss.loss_db)
        throughput = throughput_timeseries(loss, scenario.transceiver)
        at = slice(start - rows.start, stop - rows.start)
        loss_db[at], link_up[at], rate_gbps[at] = loss.loss_db, loss.link_up, throughput.rate_gbps
        if sink is not None:
            sink((loss, throughput))

    series = run_apt(scenario, duration_s, seed, enable_fine1=enable_fine1,
                     enable_fine2=enable_fine2, sink=window_block)
    loss = LossSeries(t_s=series.t_s[rows], loss_db=loss_db, link_up=link_up)
    throughput = ThroughputSeries(t_s=loss.t_s, rate_gbps=rate_gbps)
    return RunResult(
        series=series,
        t0_s=scenario.apt.stats_warmup_s,
        t1_s=duration_s,
        loss=loss,
        throughput=throughput,
        tracking=tracking_stats(series._rows(rows)),
        loss_stats=loss_statistics(loss) if np.isfinite(loss_db).any() else None,
        downtime_fraction=downtime_fraction(loss, scenario.transceiver),
        throughput_stats=summarize(rate_gbps),
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
    # refused before --out is made
    check_run(scenario, args.duration, args.seed, fine1, fine2, args.fine_after)
    out = _out_dir(args)
    writer = nullcontext() if out is None else _csv_writer(
        lambda: fsio.TrackingCsv(out / "tracking.csv"), "tracking.csv", fork=True)
    with writer as sink:
        series = run_apt(
            scenario, args.duration, args.seed,
            enable_fine1=fine1, enable_fine2=fine2, fine_after_s=args.fine_after, sink=sink,
        )
        # the report is formed while a writer process writes the last block
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
    _emit_json(payload, out, "tracking_stats.json")
    return EXIT_OK


def _run_one_seed(scenario: Scenario, args, seed: int, multi: bool,
                  fork_writer: bool = False) -> dict:
    """The seed's report entry; with --out, its CSVs are written as its loop
    runs, by a forked writer process when `fork_writer` is set."""
    out = _out_dir(args)
    files = None
    writer = nullcontext()
    if out is not None:
        files = {"loss_csv": f"loss_{seed}.csv" if multi else "loss.csv",
                 "throughput_csv": f"throughput_{seed}.csv" if multi else "throughput.csv"}
        writer = _csv_writer(
            lambda: fsio.RunCsvs(out / files["loss_csv"], out / files["throughput_csv"]),
            " and ".join(files.values()), fork_writer)
    with writer as sink:
        # the RunResult, and with it the seed's series, dies when this returns
        run = simulate_run(scenario, args.duration, seed, sink=sink)
        return {
            "seed": seed,
            "files": files,
            "tracking": _stats_dict(run.tracking, run.t0_s, run.t1_s),
            "loss_db": dict(_summary_dict(run.loss_stats),
                            downtime_fraction=run.downtime_fraction),
            "throughput_gbps": _summary_dict(run.throughput_stats),
            "time_in_state_s": _time_in_state(run.series),
        }


# how much less CPU than the process that forked it a worker of _map gets
# where they share a CPU: nice 5 weighs about a third of nice 0
_WORKER_NICE = 5


@contextmanager
def _cpu_of_its_own(workers: Iterable[_Child]) -> Iterator[None]:
    """While the block runs, this process has a usable CPU to itself and the
    unreaped `workers` share the others; then all of them may run on every
    usable CPU again.  Without a second usable CPU, or where affinity cannot
    be set, the block runs as it is."""
    pids = [w._pid for w in workers if w._pid is not None]
    usable = os.sched_getaffinity(0) if pids and hasattr(os, "sched_setaffinity") else set()
    if len(usable) < 2:
        yield
        return
    own = {min(usable)}
    _set_affinity([0], own)
    _set_affinity(pids, usable - own)
    try:
        yield
    finally:
        _set_affinity([0, *pids], usable)


def _set_affinity(pids: list[int], cpus: set[int]) -> None:
    for pid in pids:
        # an affinity is a placement, never a failure: a worker may have
        # exited, or the usable CPUs changed meanwhile
        with suppress(OSError):
            os.sched_setaffinity(pid, cpus)


def _map(work: Callable, items: list, what: Callable[..., str]) -> list:
    """work(item) for each item, the results in item order.

    The items run in n = _processes(len(items)) processes: worker k of n - 1
    _Childs runs items k, k + n, ... of the list and sends back their
    results; this process runs items 0, n, 2n, ..., and those of a worker
    that could not be forked, as it reaches them in item order.  Raises the
    error of the first failing item in item order, or _WorkerDied naming
    what(item) for the item it waited for; no worker outlives the call.

    Each item this process runs, it runs on a CPU of its own while the
    workers share the other CPUs; while it waits, every process may run on
    every CPU, the workers at a lower priority (_WORKER_NICE), so that this
    process is not kept waiting behind them when it wakes.  With more
    processes than CPUs the workers, not this process, take turns, and
    the sweep still keeps every CPU busy.
    """
    procs = _processes(len(items))
    workers = {}

    def share(k: int) -> Iterator:
        os.nice(_WORKER_NICE)
        yield from map(work, items[k::procs])

    def run_here(item):
        with _cpu_of_its_own(workers.values()):
            return work(item)

    try:
        for k in range(1, procs):
            try:
                workers[k] = _Child("a worker process", lambda _: share(k))
            except OSError:  # at the process limit, or out of memory: run them here
                break
        return [workers[i % procs].receive(what(item)) if i % procs in workers
                else run_here(item) for i, item in enumerate(items)]
    finally:
        for worker in workers.values():
            worker.reap()


def cmd_run(args) -> int:
    scenario = _load(args)
    seeds = [args.seed] if args.seeds is None else _parse_seed_range(args.seeds)
    multi = args.seeds is not None
    # once, before --out is made or a process forked: every seed passed
    # _parse_seed_range's checks, so the run of one seed is refused as any
    _check_simulate(scenario, args.duration, seeds[-1])
    # a lone seed runs in this process, and it alone forks a --out writer
    per_seed = _map(lambda seed: _run_one_seed(scenario, args, seed, multi,
                                               fork_writer=len(seeds) == 1),
                    seeds, "seed {}".format)

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
