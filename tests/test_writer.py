"""The writer process of `track --out` and `run --out`.

A verb that simulates one seed with --out, with a second CPU usable, forks
one writer process (a `cli._Child`, the same kind of process as a worker of
`run --seeds`) before the first tick; the 1 kHz loop hands it each block of
ticks down a pipe, and it writes the CSVs while the loop runs the next
block.  With one usable CPU, when the fork fails, and in the processes of a
multi-seed `run --seeds`, the same sink writes them in-process.  The bytes
are the same either way, and no verb leaves a process behind, whether it
succeeds, is refused or fails.  (A monkeypatch made in this process is
inherited by the writer.)
"""

import errno
import json
import os
import resource
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import fsosim.apt
import fsosim.cli
import fsosim.io
from fsosim import load_scenario
from fsosim.cli import main, simulate_run
from fsosim.scenario import DEFAULTS

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the CSVs are written in-process")

ROOT = Path(__file__).resolve().parents[1]


def set_usable_cpus(monkeypatch, n):
    monkeypatch.setattr(fsosim.cli, "_usable_cpus", lambda: n)


def assert_no_child():
    """This process has no child process left, running or a zombie."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def count_writers(monkeypatch) -> list:
    """A list that gets one entry per writer process forked from here."""
    made = []
    real = fsosim.cli._Child

    class Counted(real):
        def __init__(self, name, work):
            if name == "the writer process":
                made.append(os.getpid())
            super().__init__(name, work)

    monkeypatch.setattr(fsosim.cli, "_Child", Counted)
    return made


def files_of(out: Path) -> dict | None:
    if not out.exists():
        return None
    return {path.relative_to(out).as_posix(): path.read_bytes()
            for path in sorted(out.rglob("*")) if path.is_file()}


@pytest.fixture(scope="module")
def no_warmup(tmp_path_factory) -> Path:
    """The default scenario with no statistics warmup, so that every duration
    down to one tick has a window tick in `run` and in `track`."""
    payload = json.loads(json.dumps(DEFAULTS))
    payload["apt"]["stats_warmup_s"] = 0.0
    path = tmp_path_factory.mktemp("scenario") / "no_warmup.json"
    path.write_text(json.dumps(payload))
    return path


# one tick; the last tick of a 8192-tick loop block (and of two 4096-row
# writer blocks); one tick into the next block; and a window that starts
# inside a block (10 s of the default warmup is tick 10 000)
DURATIONS = ["0.001", "8.192", "8.193", "20"]
VERBS = [("track", "--stages", "coarse"), ("track", "--stages", "fine1"),
         ("track", "--stages", "full"), ("track", "--fine-after", "7"),
         ("run",), ("run", "--seeds", "1..3")]
CASES = [(argv, duration, "no_warmup") for argv in VERBS for duration in DURATIONS]
CASES += [(("run",), "20", "default"), (("run", "--seeds", "1..3"), "20", "default")]


def whole_series_bytes(argv, scenario_path: Path, duration: float) -> dict:
    """What the whole-series writers write for the same run(s)."""
    scenario = load_scenario(scenario_path)
    written = {}
    scratch = scenario_path.parent / "whole.csv"
    if argv[0] == "track":
        fine1, fine2 = (fsosim.cli._STAGE_CHOICES[argv[2]] if argv[1] == "--stages"
                        else (None, None))
        fine_after = float(argv[2]) if argv[1] == "--fine-after" else 0.0
        series = fsosim.apt.run_apt(scenario, duration, 5, enable_fine1=fine1,
                                    enable_fine2=fine2, fine_after_s=fine_after)
        fsosim.io.write_tracking_csv(scratch, series)
        written["tracking.csv"] = scratch.read_bytes()
    else:
        multi = len(argv) > 1
        for seed in (1, 2, 3) if multi else (5,):
            run = simulate_run(scenario, duration, seed)
            suffix = f"_{seed}" if multi else ""
            fsosim.io.write_loss_csv(scratch, run.loss)
            written[f"loss{suffix}.csv"] = scratch.read_bytes()
            fsosim.io.write_throughput_csv(scratch, run.throughput)
            written[f"throughput{suffix}.csv"] = scratch.read_bytes()
    scratch.unlink()
    return written


@pytest.mark.parametrize("argv, duration, scenario", CASES)
def test_writer_process_writes_the_in_process_bytes(argv, duration, scenario, no_warmup,
                                                    tmp_path, monkeypatch, capsys):
    scenario_path = {"no_warmup": no_warmup,
                     "default": ROOT / "scenarios" / "1km_default.json"}[scenario]
    writers = count_writers(monkeypatch)
    emitted = {}
    for cpus in (1, 2):
        set_usable_cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus-{cpus}"
        code = main([*argv, "--scenario", str(scenario_path), "--duration", duration,
                     "--seed", "5", "--out", str(out)])
        emitted[cpus] = (code, *capsys.readouterr(), files_of(out))
        assert_no_child()
        # a writer process for one seed's --out on two CPUs, and only then
        forks = cpus == 2 and code == 0 and "--seeds" not in argv
        assert writers == ([os.getpid()] if forks else [])
        writers.clear()
    assert emitted[1] == emitted[2]
    code, stdout, err, files = emitted[1]
    if argv == ("track", "--fine-after", "7") and duration == "0.001":
        assert (code, stdout, files) == (1, "", None)
        assert err.startswith("fsosim: --fine-after: the statistics window [7.0, 0.001) s")
        return
    assert (code, stdout, err) == (0, "", "")
    written = whole_series_bytes(argv, scenario_path, float(duration))
    assert {name: files[name] for name in written} == written


REFUSED = [
    ("track", "--duration", "0"),
    ("track", "--duration", "1e12"),
    ("track", "--duration", "0.001"),  # no tick after the half-run warmup
    ("track", "--seed", "-1"),
    ("track", "--fine-after", "-1"),
    ("track", "--duration", "2", "--fine-after", "2"),
    ("run", "--duration", "5"),
    ("run", "--duration", "1e12"),
    ("run", "--seed", "18446744073709551616"),
    ("run", "--seeds", "4..4", "--duration", "5"),
    ("run", "--seeds", "1..3", "--duration", "5"),  # before any worker is forked
]


@pytest.mark.parametrize("argv", REFUSED)
def test_refused_before_out_is_made_or_a_writer_forked(argv, tmp_path, monkeypatch, capsys):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    set_usable_cpus(monkeypatch, 3)
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.count("\n") == 1 and err.startswith("fsosim: --")
    assert not out.exists()
    assert_no_child()


@pytest.mark.parametrize("argv", [("track",), ("run",), ("run", "--seeds", "1..3")])
def test_a_fork_that_fails_leaves_the_work_in_process(argv, tmp_path, monkeypatch, capsys):
    # at the process limit (EAGAIN) the verb writes the bytes of one CPU
    set_usable_cpus(monkeypatch, 1)
    assert main([*argv, "--duration", "12", "--out", str(tmp_path / "one-cpu")]) == 0
    forks = []

    def at_the_process_limit():
        forks.append(os.getpid())
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", at_the_process_limit)
    set_usable_cpus(monkeypatch, 3)
    assert main([*argv, "--duration", "12", "--out", str(tmp_path / "no-fork")]) == 0
    assert capsys.readouterr() == ("", "")
    assert forks == [os.getpid()]
    assert files_of(tmp_path / "no-fork") == files_of(tmp_path / "one-cpu")
    assert_no_child()


@pytest.mark.skipif(not hasattr(resource, "RLIMIT_FSIZE"), reason="no file size limit")
@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("verb, name", [("track", "tracking.csv"), ("run", "loss.csv")])
def test_write_error_exits_3_naming_the_file(verb, name, cpus, tmp_path, monkeypatch, capsys):
    # a file size limit of 64 KiB makes the kernel refuse the writes past it
    # (EFBIG), in this process and in a writer forked from it
    set_usable_cpus(monkeypatch, cpus)
    out = tmp_path / "out"
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    resource.setrlimit(resource.RLIMIT_FSIZE, (1 << 16, hard))
    try:
        code = main([verb, "--duration", "20", "--out", str(out)])
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
    assert code == fsosim.cli.EXIT_IO == 3
    assert capsys.readouterr() == (
        "", f"fsosim: i/o error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}: "
            f"'{out / name}'\n")
    assert_no_child()


@pytest.mark.parametrize("verb, name", [("track", "tracking.csv"), ("run", "loss.csv")])
def test_full_disk_in_the_writer_exits_3_naming_the_file(verb, name, tmp_path, monkeypatch,
                                                         capsys):
    parent = os.getpid()
    real = fsosim.io._csv_blocks

    def full_disk(n, cells):
        if os.getpid() != parent:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        yield from real(n, cells)

    monkeypatch.setattr(fsosim.io, "_csv_blocks", full_disk)
    set_usable_cpus(monkeypatch, 2)
    out = tmp_path / "out"
    assert main([verb, "--duration", "20", "--out", str(out)]) == 3
    assert capsys.readouterr() == (
        "", f"fsosim: i/o error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: "
            f"'{out / name}'\n")
    assert_no_child()


SINKS = {"track": (fsosim.io.TrackingCsv, "tracking.csv"),
         "run": (fsosim.io.RunCsvs, "loss.csv and throughput.csv")}


@pytest.mark.parametrize("verb", sorted(SINKS))
@pytest.mark.parametrize("how", ["killed", "stops reading"])
def test_a_writer_that_dies_exits_4_with_one_line(verb, how, tmp_path, monkeypatch, capsys):
    # killed as by the OOM killer; or gone without a word, so that the next
    # block meets a broken pipe
    parent = os.getpid()
    sink, files = SINKS[verb]
    real = sink.__call__

    def dies(self, block):
        if os.getpid() != parent:
            if how == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            os._exit(0)
        real(self, block)

    monkeypatch.setattr(sink, "__call__", dies)
    set_usable_cpus(monkeypatch, 2)
    assert main([verb, "--duration", "20", "--out", str(tmp_path)]) == 4
    assert capsys.readouterr() == (
        "", f"fsosim: the writer process died; {files} did not finish\n")
    assert_no_child()


@pytest.mark.parametrize("verb", sorted(SINKS))
@pytest.mark.parametrize("when", ["in the loop", "after the loop", "waiting for the writer"])
def test_interrupt_reaps_the_writer(verb, when, tmp_path, monkeypatch):
    if when == "in the loop":
        real = fsosim.cli._Child.send
        sent = []

        def interrupted(self, block, what):
            sent.append(block)
            if len(sent) == 2:
                raise KeyboardInterrupt
            real(self, block, what)

        monkeypatch.setattr(fsosim.cli._Child, "send", interrupted)
    elif when == "waiting for the writer":
        real = os.waitpid
        waits = []

        def interrupted(pid, options):
            waits.append(pid)
            if len(waits) == 1:
                raise KeyboardInterrupt
            return real(pid, options)

        monkeypatch.setattr(os, "waitpid", interrupted)
    else:
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(fsosim.cli, "tracking_stats", interrupted)
    set_usable_cpus(monkeypatch, 2)
    with pytest.raises(KeyboardInterrupt):
        main([verb, "--duration", "20", "--out", str(tmp_path)])
    assert_no_child()


# the writer never returns into the stack it was forked from, nor flushes
# the stdio buffers it inherited: "before" is in this process's stdout
# buffer (a pipe, so block-buffered unless PYTHONUNBUFFERED is set) when
# the writer is forked
NO_RETURN = """
import os, sys
import fsosim.cli, fsosim.io

fsosim.cli._usable_cpus = lambda: 2
parent = os.getpid()
real = fsosim.io._csv_blocks

def fails_in_the_writer(n, cells):
    if os.getpid() != parent:
        raise OSError(28, "No space left on device")
    yield from real(n, cells)

if sys.argv[2] == "fails":
    fsosim.io._csv_blocks = fails_in_the_writer
sys.stdout.write("before\\n")
code = fsosim.cli.main(["track", "--duration", "9", "--out", sys.argv[1]])
sys.stdout.write(f"after {code}\\n")
"""


@pytest.mark.parametrize("outcome, code", [("writes", 0), ("fails", 3)])
def test_the_writer_ends_with_os_exit(outcome, code, tmp_path):
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", NO_RETURN, str(tmp_path), outcome],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.stdout == f"before\nafter {code}\n"
    assert done.stderr.count("\n") == (code != 0)
