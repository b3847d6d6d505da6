import copy
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fsosim.apt
import fsosim.cli
import fsosim.io
import fsosim.link
import fsosim.optics
from fsosim import (default_scenario, downtime_fraction, load_scenario, loss_statistics,
                    summarize)
from fsosim.cli import main, simulate_run
from fsosim.io import read_loss_csv, read_throughput_csv
from fsosim.scenario import DEFAULTS


def run_cli(*argv):
    return main(list(argv))


def read_json(path):
    return json.loads(path.read_text())


def _far_scenario(tmp_path):
    """The default scenario with node b 1e13 m up, beyond the beam model's range."""
    payload = copy.deepcopy(DEFAULTS)
    payload["nodes"]["b"]["altitude_m"] = 1e13
    path = tmp_path / "far.json"
    path.write_text(json.dumps(payload))
    return path


class TestBudget:
    def test_stdout_payload(self, capsys):
        assert run_cli("budget") == 0
        payload = json.loads(capsys.readouterr().out)
        b = payload["budget"]
        parts = (b["diffraction_db"] + b["optics_db"] + b["atmosphere_db"]
                 + b["coupling_base_db"] + b["jitter_excess_db"])
        assert b["total_db"] == pytest.approx(parts, abs=1e-12)
        assert payload["scenario"]["distance_m"] == pytest.approx(1000.0, abs=0.5)

    def test_error_term_adds_loss(self, capsys):
        run_cli("budget")
        base = json.loads(capsys.readouterr().out)["budget"]["total_db"]
        run_cli("budget", "--error-urad", "10")
        bumped = json.loads(capsys.readouterr().out)["budget"]["total_db"]
        assert bumped > base

    def test_writes_file(self, tmp_path, capsys):
        assert run_cli("budget", "--out", str(tmp_path)) == 0
        assert capsys.readouterr().out == ""
        payload = read_json(tmp_path / "budget.json")
        assert payload["schema_version"] == 1

    def test_negative_distance_rejected(self, capsys):
        assert run_cli("budget", "--distance-m", "-5") == 1

    @pytest.mark.parametrize("flag, value", [
        ("--distance-m", "nan"), ("--distance-m", "inf"),
        ("--error-urad", "nan"), ("--error-urad", "inf"), ("--error-urad", "-1"),
        # finite, but the beam radius or the jitter loss overflows
        ("--distance-m", "1e308"), ("--error-urad", "1e300"),
        # finite, but the captured power fraction rounds to 0
        ("--distance-m", "1e12"), ("--distance-m", "1e155"),
    ])
    def test_bad_value_rejected_by_name(self, flag, value, capsys):
        assert run_cli("budget", f"{flag}={value}") == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert flag in err

    def test_waist_with_no_rayleigh_range_rejected_by_name(self, tmp_path, capsys):
        path = tmp_path / "thin.json"
        path.write_text(json.dumps({"schema_version": 1, "beam": {"waist_radius_mm": 1e-160}}))
        assert run_cli("budget", "--scenario", str(path)) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("fsosim: scenario error: beam.waist_radius_mm: ")

    def test_scenario_distance_beyond_beam_model_rejected(self, tmp_path, capsys):
        path = _far_scenario(tmp_path)
        assert run_cli("budget", "--scenario", str(path)) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "scenario's node distance" in err and "--distance-m" not in err


class TestSweep:
    def test_stdout_rows(self, capsys):
        assert run_cli("sweep", "--steps", "7") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "distance_m,diffraction_db,total_static_db"
        assert len(lines) == 1 + 7

    def test_csv_artifact(self, tmp_path):
        assert run_cli("sweep", "--steps", "12", "--min-km", "0.5",
                       "--max-km", "4.0", "--out", str(tmp_path)) == 0
        rows = np.loadtxt(tmp_path / "sweep.csv", delimiter=",", skiprows=1, ndmin=2)
        assert len(rows) == 12
        assert rows[0][0] == pytest.approx(500.0)
        assert rows[-1][0] == pytest.approx(4000.0)
        totals = [r[2] for r in rows]
        assert totals == sorted(totals)

    def test_bad_step_count(self, capsys):
        for steps in ("0", "1"):
            assert run_cli("sweep", "--steps", steps) == 1
            assert capsys.readouterr().err.startswith("fsosim: --steps ")

    @pytest.mark.parametrize("steps", [10**15, 10**400])
    def test_steps_beyond_memory_rejected_by_name(self, steps, monkeypatch, capsys):
        # 10**15 rows would need some 56 PB: distance_sweep refuses the count
        # before it builds a single row
        def no_budget(*args):
            raise AssertionError("link_budget ran")

        monkeypatch.setattr(fsosim.optics, "link_budget", no_budget)
        assert run_cli("sweep", "--steps", str(steps)) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("fsosim: --steps: ")

    @pytest.mark.parametrize("flag, value", [
        ("--max-km", "inf"), ("--max-km", "nan"), ("--min-km", "nan"),
        ("--min-km", "0"), ("--min-km", "-1"), ("--min-km", "-inf"),
        # finite, but not in metres; finite, but the beam radius overflows
        ("--min-km", "1e306"), ("--max-km", "1e306"), ("--max-km", "1e305"),
    ])
    def test_bad_distance_rejected_by_name(self, flag, value, capsys):
        assert run_cli("sweep", "--steps", "3", f"{flag}={value}") == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert flag in err

    def test_distances_beyond_beam_model_rejected_by_name(self, capsys):
        # the beam radius stays finite here, but the captured fraction rounds to 0
        assert run_cli("sweep", "--min-km", "1e150", "--max-km", "1e160", "--steps", "3") == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "--max-km" in err and "math domain error" not in err

    def test_stdout_is_the_csv_artifact(self, tmp_path, capsys):
        flags = ("--steps", "9", "--min-km", "0.01", "--max-km", "2e4")
        assert run_cli("sweep", *flags) == 0
        printed = capsys.readouterr().out
        assert run_cli("sweep", *flags, "--out", str(tmp_path)) == 0
        assert printed.encode() == (tmp_path / "sweep.csv").read_bytes()

    def test_min_above_max_rejected(self, capsys):
        assert run_cli("sweep", "--steps", "3", "--min-km", "5", "--max-km", "1") == 1
        err = capsys.readouterr().err
        assert "--min-km" in err and "--max-km" in err


class TestTrack:
    def test_artifacts_and_stats(self, tmp_path, capsys):
        assert run_cli("track", "--duration", "2", "--seed", "3",
                       "--out", str(tmp_path)) == 0
        stats = read_json(tmp_path / "tracking_stats.json")
        assert (tmp_path / "tracking.csv").exists()
        assert stats["stages"] == "full"
        assert stats["seed"] == 3
        assert stats["stats"]["count"] > 0
        assert "stats_after_fine" not in stats
        assert abs(sum(stats["time_in_state_s"].values()) - 2.0) < 1e-9

    def test_fine_after_adds_second_window(self, tmp_path):
        assert run_cli("track", "--duration", "2", "--fine-after", "1",
                       "--seed", "3", "--out", str(tmp_path)) == 0
        stats = read_json(tmp_path / "tracking_stats.json")
        assert stats["stats_after_fine"]["window_t0_s"] == 1.0

    def test_stage_flag_overrides_scenario(self, tmp_path):
        assert run_cli("track", "--duration", "1", "--stages", "coarse",
                       "--seed", "3", "--out", str(tmp_path)) == 0
        assert read_json(tmp_path / "tracking_stats.json")["stages"] == "coarse"

    def test_scenario_stage_flags_apply_when_unset(self, tmp_path):
        assert run_cli("track", "--scenario", "scenarios/1km_coarse_only.json",
                       "--duration", "1", "--seed", "3", "--out", str(tmp_path)) == 0
        assert read_json(tmp_path / "tracking_stats.json")["stages"] == "coarse"

    def test_zero_duration_rejected(self, capsys):
        assert run_cli("track", "--duration", "0") == 1

    @pytest.mark.parametrize("duration", ["1e300", "1e12"])
    def test_duration_beyond_memory_rejected_by_name(self, duration, capsys):
        # finite tick counts whose series alone would not fit in memory
        assert run_cli("track", "--duration", duration) == 1
        err = capsys.readouterr().err
        assert "--duration" in err and "Maximum allowed size" not in err

    @pytest.mark.parametrize("duration", ["0.0004", "0.001", "inf", "nan", "1e306"])
    def test_duration_without_a_window_tick_rejected(self, duration, capsys):
        # 0.4 ms rounds to no tick; 1 ms gives one tick, before the window at
        # 0.5 ms; 1e306 s has no finite tick count
        assert run_cli("track", "--duration", duration) == 1
        err = capsys.readouterr().err
        assert "--duration" in err and "selects no samples" not in err

    def test_shortest_window_runs(self, tmp_path):
        assert run_cli("track", "--duration", "0.0015", "--out", str(tmp_path)) == 0
        assert read_json(tmp_path / "tracking_stats.json")["stats"]["count"] == 1

    @pytest.mark.parametrize("fine_after", ["2", "1.9995", "inf", "1e306"])
    def test_fine_after_without_a_window_tick_rejected(self, fine_after, capsys):
        assert run_cli("track", "--duration", "2", "--fine-after", fine_after) == 1
        assert "--fine-after" in capsys.readouterr().err


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = run_cli("run", "--duration", "12", "--seed", "7", "--out", str(out))
    assert code == 0
    return out


class TestRun:
    def test_artifacts(self, run_dir):
        for name in ("loss.csv", "throughput.csv", "report.json"):
            assert (run_dir / name).exists()

    def test_report_matches_artifacts_exactly(self, run_dir):
        report = read_json(run_dir / "report.json")
        entry = report["per_seed"][0]
        loss = read_loss_csv(run_dir / "loss.csv")
        thr = read_throughput_csv(run_dir / "throughput.csv")

        s = loss_statistics(loss)
        assert entry["loss_db"]["mean"] == s.mean
        assert entry["loss_db"]["std"] == s.std
        assert entry["loss_db"]["min"] == s.minimum
        assert entry["loss_db"]["max"] == s.maximum
        assert entry["loss_db"]["count"] == s.count

        t = summarize(thr.rate_gbps)
        assert entry["throughput_gbps"]["mean"] == t.mean
        assert entry["throughput_gbps"]["std"] == t.std

        trx = default_scenario().transceiver
        assert entry["loss_db"]["downtime_fraction"] == downtime_fraction(loss, trx)

    def test_simulate_run_is_the_reported_run(self, run_dir):
        # the library chain gives the numbers and the loss.csv of `run --out`
        entry = read_json(run_dir / "report.json")["per_seed"][0]
        run = simulate_run(default_scenario(), 12.0, 7)
        loss, rate = run.loss_stats, run.throughput_stats
        assert entry["loss_db"] == {
            "mean": loss.mean, "std": loss.std, "min": loss.minimum, "max": loss.maximum,
            "count": loss.count, "downtime_fraction": run.downtime_fraction,
        }
        assert entry["throughput_gbps"] == {
            "mean": rate.mean, "std": rate.std, "min": rate.minimum, "max": rate.maximum,
            "count": rate.count,
        }
        emitted = read_loss_csv(run_dir / "loss.csv")
        assert run.loss.loss_db.tobytes() == emitted.loss_db.tobytes()

    def test_results_are_hashed_and_compared_by_identity(self):
        # a result and its series hold arrays: hashing works, and comparing
        # two runs neither raises nor compares their arrays
        run = simulate_run(default_scenario(), 10.01, 1)
        for value in (run, run.series, run.loss, run.throughput):
            assert hash(value) == hash(value) and value == value
        other = simulate_run(default_scenario(), 10.01, 1)
        assert (other == run) is False and (other.series == run.series) is False

    def test_peak_is_the_result_and_a_few_blocks(self, monkeypatch):
        # simulate_run holds whole only what it returns: the run's series and
        # its window's loss, link flags and throughput, which share the
        # run's t_s.  The loop's inputs, the loss map, the rounding and the
        # sums work a block at a time; two blocks of the loop's twelve inputs
        # are 10 bytes a tick here.  The base angles and the IMU rate held
        # whole (32 bytes a tick), or whole-window copies of t_s, of the
        # unrounded loss, of the radial error and of the squared deviations
        # (about 40 bytes a window tick), would each break the bound.
        block = 1024
        for module, name in ((fsosim.apt, "_INPUT_BLOCK"), (fsosim.link, "_SUM_BLOCK"),
                             (fsosim.io, "_ROUND_BLOCK")):
            monkeypatch.setattr(module, name, block)
        scenario = default_scenario()
        simulate_run(scenario, 10.01, 1)  # the disturbance filter's design, cached per process
        tracemalloc.start()
        try:
            run = simulate_run(scenario, 20.0, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = [a for a in vars(run.series).values() if isinstance(a, np.ndarray)]
        held += [run.loss.loss_db, run.loss.link_up, run.throughput.rate_gbps]
        returned = sum(a.nbytes for a in held)
        assert returned == 76 * 20_000 + 17 * 10_000
        assert peak < returned + 2 * 12 * 8 * block
        assert np.shares_memory(run.loss.t_s, run.series.t_s)
        assert run.throughput.t_s is run.loss.t_s

    def test_window_bounds(self, run_dir):
        report = read_json(run_dir / "report.json")
        assert report["window_t0_s"] == 10.0
        assert report["window_t1_s"] == 12.0
        loss = read_loss_csv(run_dir / "loss.csv")
        assert loss.t_s[0] >= 10.0
        assert loss.t_s[-1] < 12.0

    def test_rerun_is_byte_identical(self, run_dir, tmp_path):
        assert run_cli("run", "--duration", "12", "--seed", "7",
                       "--out", str(tmp_path)) == 0
        for name in ("loss.csv", "throughput.csv", "report.json"):
            assert (tmp_path / name).read_bytes() == (run_dir / name).read_bytes()

    def test_seed_range(self, tmp_path):
        assert run_cli("run", "--duration", "11", "--seeds", "3..5",
                       "--out", str(tmp_path)) == 0
        report = read_json(tmp_path / "report.json")
        assert report["seeds"] == [3, 4, 5]
        for s in (3, 4, 5):
            assert (tmp_path / f"loss_{s}.csv").exists()
            assert (tmp_path / f"throughput_{s}.csv").exists()
        means = [r["loss_db"]["mean"] for r in report["per_seed"]]
        assert report["aggregate"]["loss_db_mean"] == pytest.approx(
            float(np.mean(means)))
        assert [r["seed"] for r in report["per_seed"]] == [3, 4, 5]

    @pytest.mark.parametrize("duration", ["1e300", "1e12"])
    def test_duration_beyond_memory_rejected_by_name(self, duration, capsys):
        # finite tick counts whose series alone would not fit in memory
        assert run_cli("run", "--duration", duration) == 1
        err = capsys.readouterr().err
        assert "--duration" in err and "Maximum allowed size" not in err

    def test_scenario_distance_beyond_beam_model_rejected(self, tmp_path, capsys):
        assert run_cli("run", "--scenario", str(_far_scenario(tmp_path)),
                       "--duration", "10.5") == 1
        assert "beyond the range of the beam model" in capsys.readouterr().err

    def test_duration_must_exceed_warmup(self, capsys):
        assert run_cli("run", "--duration", "10") == 1
        assert "warmup" in capsys.readouterr().err

    @pytest.mark.parametrize("duration", ["10.0005", "inf", "nan", "1e306"])
    def test_duration_without_a_window_tick_rejected(self, duration, capsys):
        # 10.0005 s rounds to 10000 ticks, the last at 9.999 s, before the window;
        # 1e306 s has no finite tick count
        assert run_cli("run", "--duration", duration) == 1
        err = capsys.readouterr().err
        assert "--duration" in err and "selects no samples" not in err

    @pytest.mark.parametrize("duration, reason", [
        (5.0, "stats_warmup_s"), (10.0, "stats_warmup_s"), (10.0005, "stats_warmup_s"),
        (math.nan, "stats_warmup_s"), (math.inf, "finite tick count"),
        (1e306, "finite tick count"),
    ])
    def test_simulate_run_checks_its_window_before_the_loop(self, duration, reason,
                                                            monkeypatch):
        # the default scenario's 10 s warmup leaves these runs no window tick:
        # the error names duration_s and why, and no tick is simulated first
        # (run_apt refuses a series beyond memory; see test_apt)
        def no_loop(*args, **kwargs):
            raise AssertionError("run_apt ran")

        monkeypatch.setattr(fsosim.cli, "run_apt", no_loop)
        with pytest.raises(ValueError, match=f"^duration_s.*{reason}"):
            simulate_run(default_scenario(), duration, 1)

    @pytest.mark.parametrize("duration", ["5", "1e12"])
    def test_refused_duration_leaves_no_out_dir(self, duration, tmp_path, capsys):
        # no window tick after the warmup; a series beyond memory
        out = tmp_path / "out"
        assert run_cli("run", "--duration", duration, "--out", str(out)) == 1
        assert "--duration" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["x..y", "5..3", "0..20000", "3..", "..5"])
    def test_bad_seed_ranges(self, bad, capsys):
        assert run_cli("run", "--duration", "11", "--seeds", bad) == 1

    @pytest.mark.parametrize("seeds", ["", "\u0661..\u0662", "\uff11..\uff12"])
    def test_empty_or_non_ascii_seed_range_refused_before_any_out_dir(self, seeds, tmp_path,
                                                                      capsys):
        # an empty range is no range, and int() would read Arabic-Indic or
        # fullwidth digits as seeds 1..2
        out = tmp_path / "out"
        assert run_cli("run", "--duration", "12", "--seed", "4", "--out", str(out),
                       "--seeds", seeds) == 1
        stdout, err = capsys.readouterr()
        assert stdout == "" and err == "fsosim: --seeds expects an inclusive range a..b\n"
        assert not out.exists()

    def test_seed_range_beyond_64_bits_refused_before_any_run(self, tmp_path, capsys):
        # the range's first seed is usable: refused up front, it writes nothing
        out = tmp_path / "out"
        assert run_cli("run", "--duration", "11", "--out", str(out),
                       "--seeds", "18446744073709551615..18446744073709551616") == 1
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.count("\n") == 1
        assert err.startswith("fsosim: --seeds 18446744073709551615..18446744073709551616: seed ")
        assert not out.exists()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_simulate_run_refuses_a_seed_outside_64_bits(self, seed, monkeypatch):
        def no_generator(*args, **kwargs):
            raise AssertionError("DisturbanceGenerator constructed")

        monkeypatch.setattr(fsosim.apt, "DisturbanceGenerator", no_generator)
        with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, 2\*\*64\)"):
            simulate_run(default_scenario(), 11.0, seed)


ROOT = Path(__file__).resolve().parents[1]


def run_python(*argv):
    """A fresh interpreter with the package's source on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv],
                          capture_output=True, text=True, env=env, timeout=300)


def run_script(script, *flags):
    return run_python(str(ROOT / "scripts" / script), *flags)


# no verb imports scipy.signal (over 1 s and 65 MB): track and run shape
# their disturbance with fsosim's own Butterworth filter
NO_SCIPY_SIGNAL = """
import contextlib, io, sys
from fsosim.cli import main

def run(command, *flags):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([command, "--scenario", sys.argv[1], *flags]) == 0, command

assert "scipy.signal" not in sys.modules, "import fsosim.cli"
for command, *flags in (["budget"], ["sweep", "--steps", "5"], ["calibrate"],
                        ["track", "--duration", "12"],
                        ["run", "--duration", "11", "--seeds", "1..2"]):
    run(command, *flags)
    assert "scipy.signal" not in sys.modules, command
"""


def test_no_verb_loads_scipy_signal():
    scenario = ROOT / "scenarios" / "1km_default.json"
    done = run_python("-c", NO_SCIPY_SIGNAL, str(scenario))
    assert done.returncode == 0, done.stderr


# ---------------------------------------------------------------------------
# run --seeds in worker processes

# neither the import, nor a one-seed run, nor a run of seeds in worker
# processes loads a process-pool library, whose import would add to the
# start-up of every verb and worker
NO_WORKER_MODULES = """
import contextlib, io, sys
import fsosim.cli

def loaded():
    return [m for m in ("multiprocessing", "concurrent.futures.process") if m in sys.modules]

assert not loaded(), loaded()
with contextlib.redirect_stdout(io.StringIO()):
    assert fsosim.cli.main(["run", "--duration", "11"]) == 0
assert not loaded(), loaded()
fsosim.cli._usable_cpus = lambda: 3
with contextlib.redirect_stdout(io.StringIO()):
    assert fsosim.cli.main(["run", "--seeds", "1..3", "--duration", "11"]) == 0
assert not loaded(), loaded()
"""


def test_import_and_one_seed_load_no_worker_modules():
    done = run_python("-c", NO_WORKER_MODULES)
    assert done.returncode == 0, done.stderr


def _set_usable_cpus(monkeypatch, n):
    monkeypatch.setattr(fsosim.cli, "_usable_cpus", lambda: n)


def _assert_no_child():
    """This process has no child process left, running or a zombie."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _wrap_simulate_run(monkeypatch, before):
    """Make simulate_run call before(seed) first, in whichever process runs it."""
    real = fsosim.cli.simulate_run

    def wrapped(scenario, duration_s, seed, *args, **kwargs):
        before(seed)
        return real(scenario, duration_s, seed, *args, **kwargs)

    monkeypatch.setattr(fsosim.cli, "simulate_run", wrapped)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="seeds run in-process without fork")
class TestSeedWorkers:
    """`run --seeds` runs its seeds in n = min(seeds, usable CPUs) processes:
    this one, which takes seeds 0, n, 2n, ... of the list, and n - 1 forked
    workers (`cli._Child`s); the bytes are the same as those of this process
    alone."""

    ARGV = ("run", "--seeds", "1..3", "--duration", "12")

    def test_workers_write_the_bytes_of_one_process(self, tmp_path, monkeypatch, capsys):
        pid_file = tmp_path / "pids"

        def record_pid(seed):
            with open(pid_file, "a", encoding="ascii") as fh:
                fh.write(f"{seed} {os.getpid()}\n")

        _wrap_simulate_run(monkeypatch, record_pid)
        emitted, pids = {}, {}
        for cpus in (3, 1):
            _set_usable_cpus(monkeypatch, cpus)
            out = tmp_path / f"out-{cpus}"
            assert run_cli(*self.ARGV, "--out", str(out)) == 0
            assert capsys.readouterr().out == ""
            assert run_cli(*self.ARGV) == 0
            files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
            emitted[cpus] = (files, capsys.readouterr().out)
            pids[cpus] = dict(line.split() for line in pid_file.read_text(encoding="ascii")
                              .splitlines())
            pid_file.unlink()
            _assert_no_child()
        assert emitted[3] == emitted[1]
        assert len(emitted[1][0]) == 7  # report.json and two CSVs per seed
        here = str(os.getpid())
        assert pids[3]["1"] == here
        assert here not in (pids[3]["2"], pids[3]["3"])
        assert set(pids[1].values()) == {here}

    def test_refused_duration_is_one_line_and_no_out_dir_on_both_sides(self, tmp_path,
                                                                      monkeypatch, capsys):
        errors = {}
        for cpus in (3, 1):
            _set_usable_cpus(monkeypatch, cpus)
            out = tmp_path / f"out-{cpus}"
            assert run_cli("run", "--seeds", "1..3", "--duration", "5", "--out", str(out)) == 1
            stdout, errors[cpus] = capsys.readouterr()
            assert stdout == "" and errors[cpus].count("\n") == 1
            assert errors[cpus].startswith("fsosim: --duration 5.0 s ")
            assert not out.exists()
            _assert_no_child()
        assert errors[3] == errors[1]

    # procs: the processes that run seeds, this one and its workers
    @pytest.mark.parametrize("cpus, seeds, procs", [
        (1, "1..3", None), (8, "1..1", None), (8, "1..2", 2), (2, "1..3", 2), (3, "1..3", 3)])
    def test_workers_are_the_fewer_of_seeds_and_cpus(self, cpus, seeds, procs,
                                                     monkeypatch, capsys):
        made = []
        real = fsosim.cli._Child

        class Counted(real):
            def __init__(self, name, work):
                made.append(name)
                super().__init__(name, work)

        monkeypatch.setattr(fsosim.cli, "_Child", Counted)
        _set_usable_cpus(monkeypatch, cpus)
        assert run_cli("run", "--seeds", seeds, "--duration", "10.01") == 0
        assert made == ([] if procs is None else ["a worker process"] * (procs - 1))

    def test_first_failing_seed_in_seed_order_sets_the_error(self, tmp_path, monkeypatch,
                                                             capsys):
        # seed 3 fails first in time, seed 2 first in seed order
        def refuse(seed):
            if seed == 2:
                time.sleep(0.5)
            if seed >= 2:
                raise ValueError(f"duration_s refused at seed {seed}")

        _wrap_simulate_run(monkeypatch, refuse)
        _set_usable_cpus(monkeypatch, 3)
        assert run_cli(*self.ARGV) == 1
        assert capsys.readouterr() == ("", "fsosim: --duration refused at seed 2\n")
        _assert_no_child()

    def test_a_killed_worker_exits_4_with_one_line(self, monkeypatch, capsys):
        parent = os.getpid()

        def die(seed):
            if seed == 2 and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)

        _wrap_simulate_run(monkeypatch, die)
        _set_usable_cpus(monkeypatch, 2)
        assert run_cli(*self.ARGV) == fsosim.cli.EXIT_WORKER == 4
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.count("\n") == 1
        assert err.startswith("fsosim: a worker process died; seed ")
        _assert_no_child()

    def test_an_interrupt_kills_the_workers_at_once(self, monkeypatch):
        # this process's own seed is interrupted while a worker's seed runs
        # for a minute
        def stall(seed):
            time.sleep(0.5)
            if seed == 1:
                raise KeyboardInterrupt
            time.sleep(60)

        _wrap_simulate_run(monkeypatch, stall)
        _set_usable_cpus(monkeypatch, 2)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_cli("run", "--seeds", "1..2", "--duration", "12")
        assert time.monotonic() - start < 10
        _assert_no_child()

    def test_usable_cpus_are_the_affinity_mask_else_the_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1}, raising=False)
        assert fsosim.cli._usable_cpus() == 1
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert fsosim.cli._usable_cpus() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert fsosim.cli._usable_cpus() == 1


class TestScripts:
    @pytest.mark.parametrize("script", ["reproduce_results.py", "tune_defaults.py"])
    def test_duration_inside_the_warmup_exits_1_with_one_line(self, script):
        done = run_script(script, "--duration", "5")
        assert done.returncode == 1
        assert done.stderr.startswith(f"{script}: duration_s 5.0 s ")
        assert done.stderr.count("\n") == 1 and "stats_warmup_s" in done.stderr
        assert done.stdout == ""

    def test_duration_beyond_memory_exits_1_with_one_line(self):
        # 1e15 ticks: refused by name before the run allocates its series
        done = run_script("reproduce_results.py", "--duration", "1e12")
        assert done.returncode == 1
        assert done.stderr.startswith("reproduce_results.py: duration_s: ")
        assert done.stderr.count("\n") == 1 and "memory" in done.stderr
        assert done.stdout == ""

    def test_seed_outside_64_bits_exits_1_with_one_line(self):
        # refused by name, not with numpy's unnamed "expected non-negative integer"
        done = run_script("reproduce_results.py", "--seed", "-1", "--duration", "11")
        assert done.returncode == 1
        assert done.stderr.startswith("reproduce_results.py: seed ")
        assert done.stderr.count("\n") == 1
        assert done.stdout == ""

    def test_no_seeds_exits_1_with_one_line(self):
        done = run_script("tune_defaults.py", "--seeds", "0", "--duration", "12")
        assert done.returncode == 1
        assert done.stderr == "tune_defaults.py: --seeds must be >= 1\n"
        assert done.stdout == ""

    @pytest.mark.parametrize("script, flag, text, refusal", [
        ("reproduce_results.py", "--seed", "\u0663", "expected an integer"),  # Arabic-Indic 3
        ("reproduce_results.py", "--seed", "1_0", "expected an integer"),
        ("tune_defaults.py", "--seeds", "\u0661", "expected a count in ASCII digits"),
        ("tune_defaults.py", "--seeds", "+1", "expected a count in ASCII digits"),
    ])
    def test_seed_not_in_ascii_digits_exits_1_with_one_line(self, script, flag, text, refusal):
        # int() would take each of these; fsosim's seeds are ASCII digits
        done = run_script(script, flag, text, "--duration", "12")
        assert done.returncode == 1
        assert done.stderr == f"{script}: {flag} {refusal}, got {text!r}\n"
        assert done.stdout == ""

    @pytest.mark.parametrize("script", ["reproduce_results.py", "tune_defaults.py"])
    def test_usage_error_exits_1_not_the_nonconvergence_code(self, script):
        done = run_script(script, "--bogus")
        assert done.returncode == 1
        assert done.stderr.startswith("usage: ")
        assert done.stderr.endswith(f"{script}: error: unrecognized arguments: --bogus\n")
        assert "Traceback" not in done.stderr
        assert done.stdout == ""


    def test_scenario_file_runs_as_its_document_says(self):
        # 1km_default.json is the defaults under another name: only the
        # header, which echoes the scenario, differs
        default = run_script("tune_defaults.py", "--seeds", "1", "--duration", "10.5")
        named = run_script("tune_defaults.py", "--scenario", "scenarios/1km_default.json",
                           "--seeds", "1", "--duration", "10.5")
        assert default.returncode == named.returncode == 0
        scenario = load_scenario(ROOT / "scenarios/1km_default.json")
        assert named.stdout.splitlines()[0] == (f"# scenario 1km_default | digest "
                                                f"{scenario.digest}")
        assert default.stdout.splitlines()[0].startswith("# scenario default | digest ")
        assert named.stdout.splitlines()[1:] == default.stdout.splitlines()[1:]

    @pytest.mark.parametrize("document, code, refusal", [
        (None, 3, "i/o error: [Errno 2] No such file or directory: '{path}'"),
        ("{broken", 1, "scenario error: {path}: invalid JSON at line 1, column 2: "),
        ('{"schema_version": 1, "cmos0": {"pixels": 0}}', 1, "scenario error: cmos0.pixels: "),
    ])
    def test_unusable_scenario_exits_with_one_line(self, tmp_path, document, code, refusal):
        # a missing file, or one that is not a valid scenario, is refused by
        # the file's name or the dotted field before any run, with fsosim's
        # exit codes
        path = tmp_path / "candidate.json"
        if document is not None:
            path.write_text(document)
        done = run_script("tune_defaults.py", "--scenario", str(path), "--duration", "12")
        assert done.returncode == code
        assert done.stderr.startswith("tune_defaults.py: " + refusal.format(path=path))
        assert done.stderr.count("\n") == 1
        assert done.stdout == ""


class TestCalibrate:
    def test_default_anchors_converge(self, tmp_path):
        assert run_cli("calibrate", "--out", str(tmp_path)) == 0
        payload = read_json(tmp_path / "calibration.json")
        assert payload["result"]["converged"] is True
        assert 10.0 <= payload["result"]["rolloff_halfwidth_urad"] <= 30.0

    def test_contradictory_anchors_exit_2(self, tmp_path, capsys):
        anchors = tmp_path / "anchors.json"
        anchors.write_text(json.dumps({
            "mean_loss_anchors": [
                {"sigma_urad": 3.0, "distance_m": 1000.0, "mean_loss_db": 29.3},
                {"sigma_urad": 24.0, "distance_m": 1000.0, "mean_loss_db": 13.7},
            ],
        }))
        assert run_cli("calibrate", "--anchors", str(anchors)) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["converged"] is False

    def test_unknown_anchor_key_exit_1(self, tmp_path):
        anchors = tmp_path / "anchors.json"
        anchors.write_text(json.dumps({"anchor_list": []}))
        assert run_cli("calibrate", "--anchors", str(anchors)) == 1

    def test_missing_anchor_file_exit_3(self, tmp_path):
        assert run_cli("calibrate", "--anchors", str(tmp_path / "nope.json")) == 3

    def test_invalid_anchor_json_exit_1(self, tmp_path):
        anchors = tmp_path / "anchors.json"
        anchors.write_text("{not json")
        assert run_cli("calibrate", "--anchors", str(anchors)) == 1

    @pytest.mark.parametrize("text, field", [
        ("[]", "anchors file"),
        ('{"mean_loss_anchors": 5}', "mean_loss_anchors"),
        ('{"mean_loss_anchors": [5]}', "anchor 0"),
        ('{"mean_loss_anchors": [{"sigma_urad": null, "distance_m": 1000.0,'
         ' "mean_loss_db": 13.7}]}', "anchor 0: sigma_urad"),
        ('{"mean_loss_anchors": [{"sigma_urad": "nan", "distance_m": 1000.0,'
         ' "mean_loss_db": 13.7}]}', "anchor 0: sigma_urad"),
        ('{"static_total_db": NaN, "static_distance_m": 1000.0}', "static_total_db"),
        ('{"mean_loss_anchors": [{"sigma_urad": 3.0, "distance_m": 1e300,'
         ' "mean_loss_db": 13.7}]}', "anchor 0: distance_m"),
        ('{"mean_loss_anchors": [{"sigma_urad": 3.0, "distance_m": 1000.0,'
         ' "mean_loss_db": 13.7}, {"sigma_urad": 1e300, "distance_m": 1000.0,'
         ' "mean_loss_db": 29.3}]}', "anchor 1: sigma_urad"),
        ('{"mean_loss_anchors": [{"sigma_urad": -3.0, "distance_m": 1000.0,'
         ' "mean_loss_db": 13.7}]}', "anchor 0: sigma_urad must be >= 0"),
        ('{"static_total_db": 12.7, "static_distance_m": -1.0}',
         "static_distance_m must be >= 0"),
    ])
    def test_malformed_anchor_file_exit_1_naming_the_field(self, tmp_path, capsys, text, field):
        anchors = tmp_path / "anchors.json"
        anchors.write_text(text)
        assert run_cli("calibrate", "--anchors", str(anchors), "--out", str(tmp_path)) == 1
        out, err = capsys.readouterr()
        assert out == "" and field in err and "Traceback" not in err
        assert not (tmp_path / "calibration.json").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.1"])
    def test_bad_tolerance_rejected_by_name(self, value, capsys):
        assert run_cli("calibrate", f"--tolerance-db={value}") == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "fsosim: --tolerance-db must be >= 0 and finite\n"

    def test_zero_tolerance_accepted(self, capsys):
        assert run_cli("calibrate", "--tolerance-db", "0") in (0, 2)
        assert "result" in json.loads(capsys.readouterr().out)


class TestExitCodes:
    @pytest.mark.parametrize("argv, flag", [
        (["run", "--duration", "1e300"], "--duration"),
        (["sweep", "--steps", str(10**400)], "--steps"),
    ])
    def test_count_beyond_memory_refused_in_one_short_line(self, argv, flag, capsys):
        # the refusal gives the count in three digits, not all of its hundreds
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"fsosim: {flag}: ") and err.count("\n") == 1
        assert len(err) < 200

    def test_missing_scenario_file_exit_3(self):
        assert run_cli("budget", "--scenario", "/nonexistent/sc.json") == 3

    def test_invalid_scenario_json_exit_1(self, tmp_path):
        p = tmp_path / "sc.json"
        p.write_text("{broken")
        assert run_cli("budget", "--scenario", str(p)) == 1

    def test_unknown_scenario_key_exit_1(self, tmp_path, capsys):
        p = tmp_path / "sc.json"
        p.write_text(json.dumps({"schema_version": 1, "bogus": 1}))
        assert run_cli("budget", "--scenario", str(p)) == 1
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("override, field", [
        ({"beam": 5}, "beam"),
        ({"nodes": {"a": None}}, "nodes.a"),
        ({"disturbance": {"pitch": {"sinusoids": [{"frequency_hz": 1.0, "phase_deg": 0.0}]}}},
         "disturbance.pitch.sinusoids[0].amplitude_urad"),
        ({"nodes": {"b": {"altitude_m": 1e160}}}, "nodes.b.altitude_m"),
        ({"cmos0": {"pixels": 10**400}}, "cmos0.pixels"),
        ({"schema_version": True}, "schema_version"),
        ({"schema_version": 1.0}, "schema_version"),
    ])
    @pytest.mark.parametrize("verb", [("budget",), ("track", "--duration", "1"),
                                      ("run", "--duration", "11")])
    def test_malformed_scenario_exit_1_naming_the_field(self, tmp_path, capsys,
                                                        override, field, verb):
        p = tmp_path / "sc.json"
        p.write_text(json.dumps({"schema_version": 1, **override}))
        assert run_cli(*verb, "--scenario", str(p)) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"fsosim: scenario error: {field}: ")

    def test_usage_error_exits_1(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli("no-such-verb")
        assert err.value.code == 1

    def test_missing_command_exits_1(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli()
        assert err.value.code == 1

    @pytest.mark.parametrize("seed", ["\u0663", "\uff13", "+3", "1_0", " 3"])
    @pytest.mark.parametrize("verb", [("track", "--duration", "1"), ("run", "--duration", "11"),
                                      ("calibrate",)])
    def test_seed_takes_only_ascii_digits(self, verb, seed, tmp_path, capsys):
        # int() would take these as 3 or 10; argparse refuses them as a usage error
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run_cli(*verb, "--seed", seed, "--out", str(out))
        assert exc.value.code == 1
        stdout, err = capsys.readouterr()
        assert stdout == "" and not out.exists()
        assert err.endswith(f"error: argument --seed: expected an integer, got {seed!r}\n")

    def test_seed_must_fit_64_bits(self, tmp_path, capsys):
        # the library refuses the seed in one line; main names the flag, and
        # --out is not made
        out = tmp_path / "out"
        for verb in (("track", "--duration", "1"), ("run", "--duration", "11"), ("calibrate",)):
            for seed in ("-1", str(2**64)):
                assert run_cli(*verb, "--seed", seed, "--out", str(out)) == 1, verb
                stdout, err = capsys.readouterr()
                assert stdout == "" and not out.exists()
                assert err == f"fsosim: --seed must be an integer in [0, 2**64), got {seed}\n"


# ---------------------------------------------------------------------------
# argv fuzzing

# values no flag should turn into a traceback or a non-JSON number; every
# simulated duration is capped at 2 s and every step count is
# either small or beyond memory (refused before any allocation), so no drawn
# argv runs long or allocates much
SPECIAL = st.sampled_from(["nan", "-nan", "inf", "-inf", "-0", "0", "1e308", "-1e308",
                           "1e-320", "", " ", "1_0", "0x10"])
TEXT = st.text(max_size=8)
FLOATS = SPECIAL | TEXT | st.floats(allow_nan=True, allow_infinity=True).map(repr)
DURATIONS = SPECIAL | TEXT.filter(lambda t: not _finite_above(t, 2.0)) | st.floats(0.0, 2.0).map(repr)
COUNTS = st.sampled_from(["-1", "0", "1", "2", "3", "17", str(10**15), str(10**400), "",
                          "nan", "1e3", "x"])
SEEDS = st.integers(-3, 2**64 + 3).map(str) | SPECIAL | TEXT
# malformed ranges, and well-formed ones of at most three seeds
SEED_RANGES = st.sampled_from([
    "", "..", "1..", "..2", "3..1", "1...2", "1..2..3", "a..b", "-1..2", "1.5..2",
    "0..0", " 1..3 ", "1..20000", "18446744073709551615..18446744073709551615",
    "18446744073709551615..18446744073709551616",
]) | TEXT.filter(lambda t: not re.fullmatch(r"\s*[0-9]+\.\.[0-9]+\s*", t))
VERB_FLAGS = {
    "budget": {"--distance-m": FLOATS, "--error-urad": FLOATS},
    "sweep": {"--min-km": FLOATS, "--max-km": FLOATS, "--steps": COUNTS},
    "track": {"--duration": DURATIONS, "--seed": SEEDS, "--fine-after": FLOATS,
              "--stages": st.sampled_from(["coarse", "fine1", "full", "", "all"]) | TEXT},
    "run": {"--duration": DURATIONS, "--seed": SEEDS, "--seeds": SEED_RANGES},
    "calibrate": {"--seed": SEEDS, "--tolerance-db": FLOATS,
                  "--anchors": st.sampled_from(["anchors.json", "contradictory.json",
                                                "bad.json", "missing.json", "."])},
}
# track and run default to 120 s: an argv without --duration gets 2 s instead
DEFAULT_DURATION = {"track": "2", "run": "2"}


def _finite_above(text, limit):
    try:
        value = float(text)
    except ValueError:
        return False
    return math.isfinite(value) and value > limit


def _reject_constant(name):
    raise AssertionError(f"JSON output holds {name}")


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Scenario and anchor files the fuzzed argv may name."""
    root = tmp_path_factory.mktemp("fuzz")
    short = copy.deepcopy(DEFAULTS)
    short["apt"]["stats_warmup_s"] = 0.5  # so `run` fits in a 2 s duration
    (root / "short.json").write_text(json.dumps(short))
    (root / "broken.json").write_text("{")
    (root / "unknown.json").write_text(json.dumps({"schema_version": 1, "x": 1}))
    (root / "anchors.json").write_text(json.dumps({"static_total_db": 12.7}))
    (root / "contradictory.json").write_text(json.dumps({"mean_loss_anchors": [
        {"sigma_urad": 3.0, "distance_m": 1000.0, "mean_loss_db": 20.0},
        {"sigma_urad": 24.0, "distance_m": 1000.0, "mean_loss_db": 10.0}]}))
    (root / "bad.json").write_text("[1, 2")
    return root


@st.composite
def argvs(draw, files):
    """(verb, argv, out) for one in-process CLI call; out says whether --out is
    omitted (None) or names a new directory ("out") or an existing file ("file")."""
    verb = draw(st.sampled_from(sorted(VERB_FLAGS)))
    argv = [verb]
    flags = dict(VERB_FLAGS[verb])
    flags["--scenario"] = st.sampled_from([
        "scenarios/1km_default.json", str(files / "short.json"), str(files / "broken.json"),
        str(files / "unknown.json"), str(files / "missing.json"), str(files)])
    for flag in draw(st.permutations(sorted(flags))):
        if not draw(st.booleans()):
            if flag == "--duration" and verb in DEFAULT_DURATION:
                argv += [flag, DEFAULT_DURATION[verb]]
            continue
        value = draw(flags[flag])
        if flag == "--anchors":
            value = str(files / value)
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    out = draw(st.sampled_from([None, "out", "file"]))
    if draw(st.integers(0, 3)) == 0:
        argv.append(draw(TEXT))  # a stray token
    return verb, argv, out


class TestArgvFuzz:
    @given(data=st.data())
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    def test_any_argv_exits_with_a_contract_code(self, data, fuzz_files, capsys):
        verb, argv, out = data.draw(argvs(fuzz_files), label="argv")
        with tempfile.TemporaryDirectory() as workdir:
            if out is not None:
                target = Path(workdir) / "out"
                if out == "file":
                    target.write_text("")  # --out names a file, not a directory
                argv += ["--out", str(target)]
            capsys.readouterr()
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors and --help
                code = exc.code
            stdout, stderr = capsys.readouterr()
            assert code in (0, 1, 2, 3), (argv, code, stderr)
            assert "Traceback" not in stderr, argv
            if code in (1, 3):
                assert stderr.strip(), argv  # a rejection says why
            written = sorted(Path(workdir).rglob("*.json"))
            texts = [path.read_text() for path in written]
            if out is None and verb != "sweep" and stdout:
                texts.append(stdout)
            for text in texts:
                json.loads(text, parse_constant=_reject_constant)
