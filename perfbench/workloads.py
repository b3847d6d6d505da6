"""The benchmark's three workloads and the checks on their outputs.

Each workload derives a rotation of operation inputs from the workload
seed.  An operation calls `fsosim.cli.main` the way a user's shell would;
`check` then verifies what it emitted (untimed):

- every output must equal the bytes the same input produced earlier in the
  run, and at DEFAULT_SEED the SHA-256 digests stored in
  `reference_digests.json`;
- `report.json` loss, throughput and downtime statistics must equal the
  statistics recomputed from `loss.csv` and `throughput.csv` exactly, and
  the state counts in `tracking.csv` must reproduce `time_in_state_s`
  (the README's contract).

Anything that breaks a check makes the operation count as failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
from collections import Counter
from itertools import zip_longest
from pathlib import Path

import fsosim.cli
import fsosim.io
import fsosim.link
import fsosim.scenario
from catalog import WORKLOADS as SPECS
from fsosim.states import STATE_NAMES
from tracing import STAGES

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"
REFERENCE_FILE = Path(__file__).resolve().parent / "reference_digests.json"
DEFAULT_SEED = 1

DURATION_S = 120.0
TICK_RATE_HZ = 1000
# one seed_sweep operation: the default sweep of scripts/tune_defaults.py
SWEEP_SEEDS_PER_OP = 3
SWEEP_DURATION_S = 70.0
SWEEP_STEPS = 10_000


def scenario_path(name: str) -> str:
    return str(SCENARIO_DIR / f"{name}.json")


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def load_references() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def _cli(argv: list[str]) -> int:
    return fsosim.cli.main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# contract checks on emitted files (independent of the io readers)
#
# The checks run in the measuring process, so they stream the CSVs: a
# checker that held whole files would set that process's peak RSS.

def _csv_rows(fh, header: str, name: str):
    if fh.readline().rstrip("\n") != header:
        raise ValueError(f"{name}: unexpected header")
    return (line.rstrip("\n").split(",") for line in fh)


def _same_summary(reported: dict, stats) -> bool:
    return (
        reported["mean"] == stats.mean
        and reported["std"] == stats.std
        and reported["min"] == stats.minimum
        and reported["max"] == stats.maximum
        and reported["count"] == stats.count
    )


def check_time_in_state(counts: Counter, reported: dict, where: str) -> list[str]:
    """Ticks per state name against report seconds per state name."""
    expected = {name: n / float(TICK_RATE_HZ) for name, n in counts.items()}
    if expected != reported:
        return [f"{where}: state counts do not reproduce time_in_state_s"]
    return []


def check_tracking_files(csv_path: Path, stats_path: Path, duration_s: float) -> list[str]:
    with open(stats_path, encoding="utf-8") as fh:
        stats = json.load(fh)
    with open(csv_path, encoding="utf-8") as fh:
        counts = Counter(row[1] for row in _csv_rows(fh, fsosim.io.TRACKING_HEADER, csv_path.name))
    problems = []
    rows = sum(counts.values())
    if rows != round(duration_s * TICK_RATE_HZ):
        problems.append(f"{csv_path.name}: {rows} rows")
    problems += check_time_in_state(counts, stats["time_in_state_s"], csv_path.name)
    return problems


def check_report_entry(entry: dict, loss_db: list[float], rate_gbps: list[float],
                       max_tolerable_loss_db: float, where: str) -> list[str]:
    """One `per_seed` entry of report.json against the values of its CSVs."""
    problems = []
    finite = [v for v in loss_db if math.isfinite(v)]
    reported = entry["loss_db"]
    if finite:
        if not _same_summary(reported, fsosim.link.summarize(finite)):
            problems.append(f"{where}: loss_db statistics differ from loss.csv")
    elif reported["count"] != 0 or reported["mean"] is not None:
        problems.append(f"{where}: loss_db statistics reported for an empty link")
    down = sum(1 for v in loss_db if not v <= max_tolerable_loss_db) / len(loss_db)
    if reported["downtime_fraction"] != down:
        problems.append(f"{where}: downtime_fraction differs from loss.csv")
    if not _same_summary(entry["throughput_gbps"], fsosim.link.summarize(rate_gbps)):
        problems.append(f"{where}: throughput statistics differ from throughput.csv")
    return problems


def check_run_files(run_dir: Path, max_tolerable_loss_db: float) -> list[str]:
    with open(run_dir / "report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    problems = []
    for entry in report["per_seed"]:
        where = f"seed {entry['seed']}"
        loss_csv = run_dir / entry["files"]["loss_csv"]
        rate_csv = run_dir / entry["files"]["throughput_csv"]
        loss_db, rate_gbps = [], []
        with open(loss_csv, encoding="utf-8") as lf, open(rate_csv, encoding="utf-8") as rf:
            for loss, rate in zip_longest(_csv_rows(lf, fsosim.io.LOSS_HEADER, loss_csv.name),
                                          _csv_rows(rf, fsosim.io.THROUGHPUT_HEADER, rate_csv.name)):
                if loss is None or rate is None or loss[0] != rate[0]:
                    problems.append(f"{where}: loss and throughput timestamps differ")
                    break
                loss_db.append(float(loss[1]))
                rate_gbps.append(float(rate[1]))
            else:
                problems += check_report_entry(entry, loss_db, rate_gbps,
                                               max_tolerable_loss_db, where)
    return problems


# ---------------------------------------------------------------------------
# workloads

class Workload:
    """A rotation of operation inputs plus the checks on their outputs.

    `inputs` is one full rotation; a run is one or more whole rotations.
    `run` is the timed operation and returns what `check` needs;
    `outputs` hashes each output whose bytes are compared across repeats
    and with the reference digests.
    """

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self.rng = random.Random(f"{self.name}:{seed}")
        self.inputs: list[dict] = []
        self._seen: dict[str, dict[str, str]] = {}
        self._references = None

    def prepare(self) -> list[str]:
        """Untimed set-up, run in its own process before measuring, for the
        workloads whose catalog entry has `prepare` set."""
        return []

    def clear(self) -> None:
        """Remove the previous operation's outputs (untimed)."""
        shutil.rmtree(self.op_dir, ignore_errors=True)

    @property
    def op_dir(self) -> Path:
        return self.workdir / "op"

    def run(self, inp: dict):
        raise NotImplementedError

    def sim_seconds(self, inp: dict) -> float:
        raise NotImplementedError

    def outputs(self, inp: dict, result) -> tuple[dict[str, str], list[str]]:
        """(artifact name -> sha256, contract problems) of one operation."""
        raise NotImplementedError

    def check(self, inp: dict, result) -> list[str]:
        rcs = result["rc"]
        if any(rc != 0 for rc in rcs):
            return [f"exit codes {rcs}"]
        digests, problems = self.outputs(inp, result)
        first = self._seen.setdefault(inp["key"], digests)
        for name, digest in digests.items():
            if first.get(name) != digest:
                problems.append(f"{name}: bytes differ from an earlier run of the same input")
        if self.seed == DEFAULT_SEED:
            if self._references is None:
                self._references = load_references()
            expected = self._references.get(self.name, {}).get(inp["key"])
            if expected is None:
                problems.append(f"no reference digests for {inp['key']}")
            elif expected != digests:
                bad = sorted(n for n in set(expected) | set(digests)
                             if expected.get(n) != digests.get(n))
                problems.append(f"reference digest mismatch: {', '.join(bad)}")
        return problems


class SingleRunEmit(Workload):
    """`track --out` then `run --out` on 1km_default, rotating track stages."""

    name = "single_run_emit"
    duration_s = DURATION_S
    (scenario_name,) = SPECS[name].scenarios

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        for stage in STAGES:
            sim_seed = self.rng.randrange(1, 2**31)
            self.inputs.append({
                "key": f"track --stages {stage} --seed {sim_seed} | run --seed {sim_seed}",
                "stage": stage,
                "seed": sim_seed,
            })
        self.scenario = fsosim.scenario.load_scenario(scenario_path(self.scenario_name))

    def run(self, inp: dict):
        common = ["--scenario", scenario_path(self.scenario_name), "--seed", inp["seed"],
                  "--duration", self.duration_s]
        return {"rc": [
            _cli(["track", *common, "--stages", inp["stage"], "--out", self.op_dir / "track"]),
            _cli(["run", *common, "--out", self.op_dir / "run"]),
        ]}

    def sim_seconds(self, inp: dict) -> float:
        return 2 * self.duration_s

    def outputs(self, inp: dict, result):
        track, run = self.op_dir / "track", self.op_dir / "run"
        files = {
            "tracking.csv": track / "tracking.csv",
            "tracking_stats.json": track / "tracking_stats.json",
            "loss.csv": run / "loss.csv",
            "throughput.csv": run / "throughput.csv",
            "report.json": run / "report.json",
        }
        digests = {name: sha256_file(path) for name, path in files.items()}
        problems = check_tracking_files(files["tracking.csv"], files["tracking_stats.json"],
                                        self.duration_s)
        problems += check_run_files(run, self.scenario.transceiver.max_tolerable_loss_db)
        return digests, problems


class SeedSweep(Workload):
    """`run --seeds a..b` with no `--out`, rotating the four shipped scenarios."""

    name = "seed_sweep"
    duration_s = SWEEP_DURATION_S

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        for scenario in SPECS[self.name].scenarios:
            first = self.rng.randrange(1, 2**31)
            seeds = f"{first}..{first + SWEEP_SEEDS_PER_OP - 1}"
            self.inputs.append({
                "key": f"run {scenario} --seeds {seeds} --duration {self.duration_s}",
                "scenario": scenario,
                "seeds": seeds,
                "first": first,
            })

    def run(self, inp: dict):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = _cli(["run", "--scenario", scenario_path(inp["scenario"]),
                       "--seeds", inp["seeds"], "--duration", self.duration_s])
        return {"rc": [rc], "stdout": out.getvalue()}

    def sim_seconds(self, inp: dict) -> float:
        return SWEEP_SEEDS_PER_OP * self.duration_s

    def outputs(self, inp: dict, result):
        text = result["stdout"]
        digests = {"stdout": hashlib.sha256(text.encode("utf-8")).hexdigest()}
        report = json.loads(text)
        seeds = list(range(inp["first"], inp["first"] + SWEEP_SEEDS_PER_OP))
        problems = []
        if report["seeds"] != seeds or [r["seed"] for r in report["per_seed"]] != seeds:
            problems.append("report seeds differ from --seeds")
        ticks = round(self.duration_s * TICK_RATE_HZ)
        for entry in report["per_seed"]:
            in_state = entry["time_in_state_s"]
            if round(sum(v * TICK_RATE_HZ for v in in_state.values())) != ticks:
                problems.append(f"seed {entry['seed']}: time_in_state_s misses ticks")
        return digests, problems


class OfflineAnalysis(Workload):
    """Parse emitted artifacts and run the static verbs; no simulation."""

    name = "offline_analysis"
    (scenario_name,) = SPECS[name].scenarios

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.source_seed = self.rng.randrange(1, 2**31)
        error_urad = round(self.rng.uniform(0.0, 20.0), 3)
        calibrate_seed = self.rng.randrange(1, 2**31)
        self.inputs.append({
            "key": (f"track+run --seed {self.source_seed} | budget --error-urad {error_urad}"
                    f" | sweep --steps {SWEEP_STEPS} | calibrate --seed {calibrate_seed}"),
            "error_urad": error_urad,
            "calibrate_seed": calibrate_seed,
        })
        self.scenario = fsosim.scenario.load_scenario(scenario_path(self.scenario_name))
        self.source = self.workdir / "source"

    def prepare(self) -> list[str]:
        common = ["--scenario", scenario_path(self.scenario_name), "--seed", self.source_seed,
                  "--duration", DURATION_S]
        rcs = [_cli(["track", *common, "--out", self.source / "track"]),
               _cli(["run", *common, "--out", self.source / "run"])]
        return [] if rcs == [0, 0] else [f"set-up exit codes {rcs}"]

    def run(self, inp: dict):
        track, run = self.source / "track", self.source / "run"
        series = fsosim.io.read_tracking_csv(track / "tracking.csv")
        loss = fsosim.io.read_loss_csv(run / "loss.csv")
        throughput = fsosim.io.read_throughput_csv(run / "throughput.csv")
        problems = self._recheck(series, loss, throughput)
        scenario = ["--scenario", scenario_path(self.scenario_name)]
        rcs = [
            _cli(["budget", *scenario, "--error-urad", inp["error_urad"],
                  "--out", self.op_dir]),
            _cli(["sweep", *scenario, "--steps", SWEEP_STEPS, "--out", self.op_dir]),
            _cli(["calibrate", *scenario, "--seed", inp["calibrate_seed"],
                  "--out", self.op_dir]),
        ]
        return {"rc": rcs, "problems": problems}

    def _recheck(self, series, loss, throughput) -> list[str]:
        """The parsed CSVs against the JSON reports, as an analyst would."""
        with open(self.source / "track" / "tracking_stats.json", encoding="utf-8") as fh:
            stats = json.load(fh)
        with open(self.source / "run" / "report.json", encoding="utf-8") as fh:
            (entry,) = json.load(fh)["per_seed"]
        counts = Counter(STATE_NAMES[s] for s in series.state.tolist())
        problems = check_time_in_state(counts, stats["time_in_state_s"], "tracking.csv")
        if not _same_summary(entry["loss_db"], fsosim.link.loss_statistics(loss)):
            problems.append("loss.csv statistics differ from report.json")
        down = fsosim.link.downtime_fraction(loss, self.scenario.transceiver)
        if entry["loss_db"]["downtime_fraction"] != down:
            problems.append("loss.csv downtime differs from report.json")
        if not _same_summary(entry["throughput_gbps"],
                             fsosim.link.summarize(throughput.rate_gbps)):
            problems.append("throughput.csv statistics differ from report.json")
        return problems

    def sim_seconds(self, inp: dict) -> float:
        return DURATION_S

    def outputs(self, inp: dict, result):
        files = {
            "tracking.csv": self.source / "track" / "tracking.csv",
            "tracking_stats.json": self.source / "track" / "tracking_stats.json",
            "loss.csv": self.source / "run" / "loss.csv",
            "throughput.csv": self.source / "run" / "throughput.csv",
            "report.json": self.source / "run" / "report.json",
            "budget.json": self.op_dir / "budget.json",
            "sweep.csv": self.op_dir / "sweep.csv",
            "calibration.json": self.op_dir / "calibration.json",
        }
        return {name: sha256_file(path) for name, path in files.items()}, list(result["problems"])


WORKLOADS = {w.name: w for w in (SingleRunEmit, SeedSweep, OfflineAnalysis)}
