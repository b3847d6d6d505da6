#!/usr/bin/env python3
"""Evaluate candidate default parameters against the tracking/loss targets.

The shipped defaults couple several free knobs: the disturbance noise level,
the three loop gains, the sensor noise and the coupling rolloff.  This
script runs one scenario's three stage configurations (coarse-only,
first-fine-only, full cascade) for a few seeds and prints the statistics
the targets pin down, plus the coupling base loss implied by the mean-loss
target.  A candidate is a scenario file: it may set any key, per axis.
Without --scenario the built-in defaults run, as in every fsosim verb.

Usage examples:
    python3 scripts/tune_defaults.py
    python3 scripts/tune_defaults.py --scenario candidate.json
    python3 scripts/tune_defaults.py --seeds 5 --duration 80

The runs share the usable CPUs as the seeds of `fsosim run --seeds` do, in
worker processes that send back each run's row of statistics; the output
is that of one process.  Exit codes follow fsosim's: 1 for an unusable
argument or an invalid scenario, 3 for a scenario file that cannot be read,
4 for a worker process that died.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from fsosim import ScenarioError, default_scenario, link_budget, load_scenario
from fsosim.cli import (EXIT_IO, EXIT_WORKER, _STAGE_CHOICES, _map, _Parser, _WorkerDied,
                        simulate_run)
from fsosim.optics import DB_PER_NEPER


def run_row(scenario, stage, seed, duration):
    """The statistics of one run of a stage set: the row its stage prints."""
    fine1, fine2 = _STAGE_CHOICES[stage]
    run = simulate_run(scenario, duration, seed, enable_fine1=fine1, enable_fine2=fine2)
    st = run.tracking
    window = run.series.window(run.t0_s, run.t1_s)
    r2 = np.hypot(window.error_pitch_rad, window.error_azimuth_rad) ** 2
    return (
        st.radial_mean_rad * 1e6,
        st.pitch_std_rad * 1e6,
        st.azimuth_std_rad * 1e6,
        float(np.mean(r2)) * 1e12,
        float(np.std(r2)) * 1e12,
    )


def describe(label, rows):
    mean = [r[0] for r in rows]
    print(f"{label:7s} E[r] urad   : " + "  ".join(f"{m:7.2f}" for m in mean))
    print(f"{'':7s} std p/a urad: " + "  ".join(f"{r[1]:.1f}/{r[2]:.1f}" for r in rows))
    print(f"{'':7s} E[r^2] ur^2 : " + "  ".join(f"{r[3]:7.1f}" for r in rows))


def main() -> None:
    # a usage error exits 1, as in fsosim; exit 2 is its nonconvergence code
    ap = _Parser(prog="tune_defaults.py", description=__doc__.splitlines()[0])
    ap.add_argument("--scenario", type=str, default=None,
                    help="candidate scenario JSON path (built-in defaults when omitted)")
    # the count is parsed after argparse, so that a refused one is one stderr line
    ap.add_argument("--seeds", default="3", help="number of seeds, 1..N, in ASCII digits")
    ap.add_argument("--duration", type=float, default=70.0)
    args = ap.parse_args()
    # ASCII digits only: int() also takes other scripts' digits, "_" and a sign
    if not (args.seeds.isascii() and args.seeds.isdigit()):
        raise ValueError(f"--seeds expected a count in ASCII digits, got {args.seeds!r}")
    if int(args.seeds) < 1:
        raise ValueError("--seeds must be >= 1")

    scenario = default_scenario() if args.scenario is None else load_scenario(args.scenario)
    seeds = list(range(1, int(args.seeds) + 1))

    # every run comes before the first line, so a refused argument leaves
    # stdout empty; the runs go to fsosim's worker processes, as its seeds do
    runs = [(stage, seed) for stage in ("coarse", "fine1", "full") for seed in seeds]
    rows = _map(lambda run: run_row(scenario, *run, args.duration), runs,
                lambda run: "the {} run of seed {}".format(*run))
    coarse, fine1, full = (rows[k:k + len(seeds)] for k in range(0, len(rows), len(seeds)))
    print(f"# scenario {scenario.name} | digest {scenario.digest}")
    describe("coarse", coarse)
    describe("fine1", fine1)
    describe("full", full)

    # implied coupling parameters for the 1-km loss targets
    static_1km = link_budget(scenario, 1000.0).static_db
    theta2 = (scenario.coupling.rolloff_halfwidth_rad * 1e6) ** 2
    e_r2_full = float(np.mean([r[3] for r in full]))
    e_r2_f1 = float(np.mean([r[3] for r in fine1]))
    sd_r2_full = float(np.mean([r[4] for r in full]))
    excess_full = DB_PER_NEPER * e_r2_full / theta2
    excess_f1 = DB_PER_NEPER * e_r2_f1 / theta2
    base = 13.7 - static_1km - excess_full
    print(f"\nstatic(1 km)        = {static_1km:.3f} dB")
    print(f"mean excess full/f1 = {excess_full:.3f} / {excess_f1:.3f} dB")
    print(f"implied base loss   = {base:.3f} dB  (budget at err=0: {static_1km + base:.3f} dB, target 13.5 +- 1)")
    print(f"implied f1 loss     = {static_1km + base + excess_f1:.3f} dB  (target 29.3 +- 2)")
    print(f"loss std (full)     = {DB_PER_NEPER * sd_r2_full / theta2:.3f} dB  (target 1.4 +- 0.7)")
    ratio1 = np.mean([c[0] for c in coarse]) / np.mean([f[0] for f in fine1])
    ratio2 = np.mean([f[0] for f in fine1]) / np.mean([f[0] for f in full])
    print(f"stage mean ratios   = coarse/f1 {ratio1:.2f}, f1/full {ratio2:.2f}  (each must be >= 2)")
    worst1 = min(c[0] for c in coarse) / max(f[0] for f in fine1)
    worst2 = min(f[0] for f in fine1) / max(f[0] for f in full)
    print(f"worst-case ratios   = {worst1:.2f} / {worst2:.2f}")
    if math.isfinite(base) and base <= 0:
        print("WARNING: implied base loss is not positive")


if __name__ == "__main__":
    try:
        main()
    except ScenarioError as exc:  # the message names the file or the dotted field
        raise SystemExit(f"tune_defaults.py: scenario error: {exc}") from None
    except ValueError as exc:  # an argument the runs cannot use; the message names it
        raise SystemExit(f"tune_defaults.py: {exc}") from None
    except OSError as exc:
        print(f"tune_defaults.py: i/o error: {exc}", file=sys.stderr)
        sys.exit(EXIT_IO)
    except _WorkerDied as exc:
        print(f"tune_defaults.py: {exc}", file=sys.stderr)
        sys.exit(EXIT_WORKER)
