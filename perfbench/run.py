"""fsosim benchmark: start-up, the 1 kHz loop, artifact I/O, per-layer trace.

Usage (from the repository root):

    python3 perfbench/run.py --workload single_run_emit --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --trace 1

Each workload runs in fresh processes started one at a time: a few
start-up probes for `setup_s`, an untimed set-up process where the
workload needs one, and the process that measures.  The last line printed
for a workload is its JSON result; every line before it starts with '#'.
Results, with the run record, are also written to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import calibration
from catalog import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_work"
OUTDIR = ROOT / ".perfbench_out"

SETUP_PROBES = 7
TIME_LIMIT_S = 170.0  # each workload must finish within 180 s


class BenchError(Exception):
    pass


def _git_sha() -> str:
    """HEAD of the checkout, or `unknown` outside a git work tree."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_record(workload: str, seed: int, trace: int) -> dict:
    """Where and on what a result was measured; never compare across records."""
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def _child(cmd: list[str], deadline: float) -> subprocess.CompletedProcess:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached")
    try:
        # subprocess.run kills the child on timeout and waits for it
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cmd[1:3]} timed out") from exc
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise BenchError(f"{' '.join(cmd[1:3])} exited with {done.returncode}")
    return done


def _scipy_import_s(importtime_log: str) -> float:
    """Import time of scipy from `-X importtime` output.

    scipy loads `signal` lazily, so the log has no `scipy.signal` line;
    this sums the cumulative time of every scipy module not nested in
    another scipy module.  A module's line follows its children's lines,
    and each nesting level indents the name by two spaces.
    """
    pending: list[tuple[int, int]] = []  # (depth, scipy us counted in that subtree)
    total_us = 0
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or line.endswith("| imported package"):
            continue
        _, cumulative, name = line.split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        claimed = sum(us for d, us in pending if d > depth)
        pending = [p for p in pending if p[0] <= depth]
        if name.strip().split(".")[0] == "scipy":
            total_us += int(cumulative) - claimed
            pending.append((depth, int(cumulative)))
        else:
            pending.append((depth, claimed))
    if total_us <= 0:
        raise BenchError("no scipy modules in the import log")
    return total_us * 1e-6


def probe_setup(workload: str, trace: int, deadline: float) -> dict:
    """Median start-up cost over SETUP_PROBES fresh interpreters.

    `setup_s` is each probe's wall time at the reference speed, from the
    calibration loop timed right before, during and right after it; the
    wall time itself is `wall_setup_s`.
    """
    scenarios = [str(ROOT / "scenarios" / f"{s}.json") for s in WORKLOADS[workload].scenarios]
    cmd = [sys.executable, *(["-X", "importtime"] if trace else []),
           str(HERE / "probe.py"), *scenarios]
    samples = {"setup_s": [], "wall_setup_s": [], "import.fsosim_s": [],
               "scenario.load_s": [], "import.scipy_signal_s": []}
    for _ in range(SETUP_PROBES):
        before = calibration.around_sample()
        start = time.perf_counter()
        done = _child(cmd, deadline)
        elapsed = time.perf_counter() - start
        after = calibration.around_sample()
        probe = json.loads(done.stdout.splitlines()[-1])
        wall = elapsed - probe["handler_s"]
        loop = [before, *probe["loop_samples"], after]
        samples["setup_s"].append(calibration.scaled(wall, loop))
        samples["wall_setup_s"].append(wall)
        if Path(probe["fsosim"]).parent != ROOT / "src" / "fsosim":
            raise BenchError(f"fsosim imported from {probe['fsosim']}")
        samples["import.fsosim_s"].append(probe["import_s"])
        samples["scenario.load_s"].append(probe["load_s"])
        if trace:
            samples["import.scipy_signal_s"].append(_scipy_import_s(done.stderr))
    return {k: statistics.median(v) for k, v in samples.items() if v}


def _worker(phase: str, args, workload: str, deadline: float) -> dict:
    result_path = WORKDIR / f"{phase}.json"
    _child([sys.executable, str(HERE / "worker.py"), "--phase", phase,
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", str(WORKDIR), "--result", str(result_path)], deadline)
    return json.loads(result_path.read_text(encoding="utf-8"))


def _print_layers(layers: dict, n_traced: int) -> None:
    print(f"# {'span':<30} {'self s/op':>10} {'calls':>8} {'share':>7}")
    for name, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        per_op = row["self_s"] / n_traced if n_traced else 0.0
        print(f"# {name:<30} {per_op:>10.4f} {row['calls']:>8} {row['share']:>7.1%}")


def bench(workload: str, args) -> tuple[dict, dict]:
    """(contract result, full result with run record) of one workload."""
    deadline = time.monotonic() + TIME_LIMIT_S
    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir()
    try:
        setup = probe_setup(workload, args.trace, deadline)
        problems = []
        if WORKLOADS[workload].prepare:
            problems += _worker("prepare", args, workload, deadline)["problems"]
        measured = _worker("measure", args, workload, deadline)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    for op in measured["ops"]:
        for problem in op["problems"]:
            problems.append(f"op {op['index']} ({op['key']}): {problem}")
    attempted, failed = measured["attempted"], measured["failed"]
    e2e = measured["end_to_end"]
    if args.trace:
        values = dict(measured["layer_metrics"])
        values.update({k: v for k, v in setup.items() if k not in ("setup_s", "wall_setup_s")})
    else:
        values = {
            "setup_s": setup["setup_s"],
            "op_s_p50": e2e["op_s_p50"],
            "realtime_x": e2e["realtime_x"],
            "peak_rss_mb": measured["peak_rss_mb"],
            "ops_ok_frac": (attempted - failed) / attempted,
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = declared["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    contract = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    full = {
        "record": run_record(workload, args.seed, args.trace),
        "result": contract,
        "setup": setup,
        "op_samples": e2e["op_samples"],
        "wall_op_s_p50": e2e["wall_op_s_p50"],
        "problems": problems,
        "ops": measured["ops"],
        "layers": measured.get("layers"),
    }
    return contract, full


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/fsosim/__init__.py", "scenarios/1km_default.json", "BENCHMARK.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not an fsosim checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(ROOT / "src"), quiet=1):
        print("perfbench: src/ does not compile", file=sys.stderr)
        return 2

    OUTDIR.mkdir(exist_ok=True)
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for workload in workloads:
        try:
            contract, full = bench(workload, args)
        except BenchError as exc:
            print(f"perfbench: {workload}: {exc}", file=sys.stderr)
            return 1
        out = OUTDIR / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(full, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"# {workload} seed={args.seed} trace={args.trace} -> {out.relative_to(ROOT)}")
        print(f"# record {json.dumps(full['record'], sort_keys=True)}")
        for problem in full["problems"]:
            print("# FAILED " + "\n#   ".join(problem.splitlines()))
        if args.trace:
            _print_layers(full["layers"], sum(1 for op in full["ops"] if op["traced"]))
        for name, metric in contract["metrics"].items():
            note = f"  (n={full['op_samples']})" if name == "op_s_p50" else ""
            print(f"# {name:<32} {metric['value']:>14.6g} {metric['unit']}{note}")
        print(f"# wall time: setup {full['setup']['wall_setup_s']:.6g} s, "
              f"operation p50 {full['wall_op_s_p50']:.6g} s")
        print(json.dumps(contract))
    return 0


if __name__ == "__main__":
    sys.exit(main())
