"""End-to-end acceptance checks.

Every test prints exactly one PASS/FAIL line with the measured numbers so a
verbose run reads as a checklist.  Section one asserts each row of the
paper's reference figures as scripts/reproduce_results.py measures it, at
seed 1 over 120 s, one test per row; section two checks model laws and safety properties that hold regardless of
calibration.
"""

import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from fsosim import AptState, run_apt, tracking_stats
from fsosim.apt import TICK_RATE_HZ
from fsosim.cli import main
from fsosim.io import read_loss_csv, read_throughput_csv
from fsosim.optics import distance_sweep, link_budget
from fsosim.scenario import load_scenario

from conftest import (
    fsm_saturation_scenario,
    gimbal_saturation_scenario,
    make_scenario,
    sinusoid,
    zero_noise_overrides,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from reproduce_results import MEASUREMENTS, REFERENCE  # noqa: E402

LEGAL_EDGES = frozenset({
    (AptState.STABILIZE, AptState.STABILIZE),
    (AptState.STABILIZE, AptState.ACQUIRE),
    (AptState.ACQUIRE, AptState.ACQUIRE),
    (AptState.ACQUIRE, AptState.COARSE_TRACK),
    (AptState.COARSE_TRACK, AptState.COARSE_TRACK),
    (AptState.COARSE_TRACK, AptState.FINE_TRACK1),
    (AptState.COARSE_TRACK, AptState.REACQUIRE),
    (AptState.FINE_TRACK1, AptState.FINE_TRACK1),
    (AptState.FINE_TRACK1, AptState.FINE_TRACK2),
    (AptState.FINE_TRACK1, AptState.REACQUIRE),
    (AptState.FINE_TRACK2, AptState.FINE_TRACK2),
    (AptState.FINE_TRACK2, AptState.LINKED),
    (AptState.FINE_TRACK2, AptState.REACQUIRE),
    (AptState.LINKED, AptState.LINKED),
    (AptState.LINKED, AptState.REACQUIRE),
    (AptState.REACQUIRE, AptState.ACQUIRE),
})


def check(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"\n{label}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{label}: {detail}"


# ---------------------------------------------------------------------------
# the paper's figures, as scripts/reproduce_results.py measures them

@pytest.fixture(scope="module")
def default_1km():
    return load_scenario("scenarios/1km_default.json")


@pytest.fixture(scope="module")
def reproduction():
    """The REFERENCE rows of every measurement at seed 1 over 120 s, and the
    wall time of each measurement."""
    rows, timings = {}, {}
    for name, measure in MEASUREMENTS.items():
        t0 = time.perf_counter()
        rows.update(measure(1, 120.0))
        timings[name] = time.perf_counter() - t0
    return rows, timings


class TestCalibratedReproduction:
    @pytest.mark.parametrize("key", REFERENCE)
    def test_reference_row(self, reproduction, key, capsys):
        value = reproduction[0][key]
        low, high = REFERENCE[key]
        check(capsys, key, low <= value <= high, f"{value:.6g} in [{low:g}, {high:g}]")

    def test_static_budget_sweep(self, default_1km, capsys):
        rows = distance_sweep(default_1km, 100.0, 10_000.0, 100)
        totals = [total for _, _, total in rows]
        monotone = all(b >= a for a, b in zip(totals, totals[1:]))
        below_1km = [t for d, _, t in rows if d <= 1000.0]
        flat_rise = max(below_1km) - min(below_1km)
        check(capsys, "static-budget-sweep", monotone and flat_rise < 1.0,
              f"monotone={monotone}, rise below 1 km {flat_rise:.3f} dB < 1")

    def test_runs_fit_wall_clock_budget(self, reproduction, capsys):
        timings = reproduction[1]
        worst = max(timings.values())
        check(capsys, "wall-clock", worst <= 10.0,
              f"slowest measurement {worst:.2f} s <= 10 s ({len(timings)} measurements timed)")


# ---------------------------------------------------------------------------
# calibration-independent properties

def kim_oracle_db(v_km, lam_nm, d_km):
    if v_km > 50.0:
        q = 1.6
    elif v_km > 6.0:
        q = 1.3
    elif v_km > 1.0:
        q = 0.16 * v_km + 0.34
    elif v_km > 0.5:
        q = v_km - 0.5
    else:
        q = 0.0
    beta = (3.912 / v_km) * (lam_nm / 550.0) ** (-q)
    return (10.0 / math.log(10.0)) * beta * d_km


class TestModelProperties:
    def test_visibility_attenuation_oracle(self, capsys):
        worst = 0.0
        for v_km in (0.3, 0.7, 1.5, 5.0, 10.0, 23.0, 60.0):
            for lam_nm in (550.0, 850.0, 1310.0, 1550.0):
                for d_km in (0.5, 1.0, 4.0, 10.0):
                    sc = make_scenario(**{
                        "atmosphere.visibility_km": v_km,
                        "beam.wavelength_nm": lam_nm,
                    })
                    got = link_budget(sc, d_km * 1000.0).atmosphere_db
                    worst = max(worst, abs(got - kim_oracle_db(v_km, lam_nm, d_km)))
        check(capsys, "visibility-attenuation-oracle", worst <= 1e-9,
              f"worst grid deviation {worst:.2e} dB <= 1e-9 over 112 points")

    def test_diffraction_quadrature_oracle(self, scenario, capsys):
        beam, antenna = scenario.beam, scenario.antenna
        # the Gaussian-beam radius w0 sqrt(1 + (z / z_R)^2), z_R = pi w0^2 / lambda
        z_r = math.pi * beam.waist_radius_m**2 / beam.wavelength_m
        worst = 0.0
        for km in (0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 20.0):
            w = beam.waist_radius_m * math.sqrt(1.0 + (km * 1000.0 / z_r) ** 2)
            captured, _ = integrate.dblquad(
                lambda r, phi: (2.0 / (math.pi * w * w))
                * math.exp(-2.0 * r * r / (w * w)) * r,
                0.0, 2.0 * math.pi, 0.0, antenna.aperture_radius_m,
            )
            closed = link_budget(scenario, km * 1000.0).diffraction_db
            worst = max(worst, abs(closed + 10.0 * math.log10(captured)))
        check(capsys, "diffraction-quadrature-oracle", worst <= 0.3,
              f"worst deviation {worst:.3f} dB <= 0.3 over 0.1-20 km")

    def test_actuator_saturation(self, capsys):
        # both runs overdrive the 1 kHz loop's actuators: every limit must be
        # reached (ratio 1) and never passed (ratio <= 1)
        fsm_sc = fsm_saturation_scenario()
        fsm = run_apt(fsm_sc, 20.0, 3, initial_state=AptState.LINKED)
        gim_sc = gimbal_saturation_scenario()
        gim = run_apt(gim_sc, 10.0, 1)
        max_move = gim_sc.gimbal.max_rate_rad_s / TICK_RATE_HZ
        ratios = {
            "fsm1": np.abs(np.r_[fsm.fsm1_pitch_rad, fsm.fsm1_azimuth_rad]).max()
            / fsm_sc.fsm1.range_rad,
            "fsm2": np.abs(np.r_[fsm.fsm2_pitch_rad, fsm.fsm2_azimuth_rad]).max()
            / fsm_sc.fsm2.range_rad,
            "gimbal az": np.abs(gim.gimbal_azimuth_rad).max() / gim_sc.gimbal.azimuth_range_rad,
            "gimbal pitch": np.abs(gim.gimbal_pitch_rad).max() / gim_sc.gimbal.pitch_range_rad,
        }
        worst_move = max(np.abs(np.diff(gim.gimbal_azimuth_rad, prepend=0.0)).max(),
                         np.abs(np.diff(gim.gimbal_pitch_rad, prepend=0.0)).max())
        ok = (all(r == 1.0 for r in ratios.values())
              and max_move * (1.0 - 1e-12) <= worst_move <= max_move + 1e-15)
        check(capsys, "actuator-saturation", ok,
              ", ".join(f"|{k}|/limit {v:.15g}" for k, v in ratios.items())
              + f", worst slew/limit {worst_move / max_move:.17g} (limit + 1e-15 rad)")

    def test_state_machine_safety(self, capsys):
        # run_apt through every edge: a noise-free run from Stabilize to
        # Linked, runs from every other state in which an 8 Hz, 20 mrad
        # pitch swing outruns the gimbal so that locks come and go, and two
        # whose bl0 cone hides the acquisition bias, so the coarse camera
        # never locks
        quiet = make_scenario(**zero_noise_overrides())
        swing = make_scenario(**{"cmos0.centroid_noise_urad": 300.0,
                                 "disturbance.pitch.sinusoids": sinusoid(20_000.0, 8.0),
                                 "apt.lock_loss_frames": 5})
        blind = make_scenario(**zero_noise_overrides(), **{"beacons.bl0.divergence_mrad": 2.0})
        runs = ([(quiet, AptState.STABILIZE, 6.0), (blind, AptState.ACQUIRE, 0.5),
                 (blind, AptState.COARSE_TRACK, 0.5)]
                + [(swing, state, 3.0) for state in list(AptState)[1:]])
        observed = set()
        linked = False
        for scenario, initial, duration in runs:
            series = run_apt(scenario, duration, 5, initial_state=initial)
            states = [initial] + [AptState(s) for s in series.state]
            observed |= set(zip(states, states[1:]))
            if scenario is quiet:
                linked = bool(np.any(series.state == int(AptState.LINKED)))
        illegal = observed - LEGAL_EDGES
        missing = LEGAL_EDGES - observed
        check(capsys, "state-machine-safety", not illegal and not missing and linked,
              f"{len(runs)} runs, {len(observed & LEGAL_EDGES)}/{len(LEGAL_EDGES)} legal "
              f"edges observed, {len(illegal)} illegal; noise-free run reaches Linked: {linked}"
              + (f"; missing {sorted((a.name, b.name) for a, b in missing)}" if missing else ""))

    def test_run_determinism(self, tmp_path, capsys):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            code = main(["run", "--scenario", "scenarios/1km_default.json",
                         "--duration", "30", "--seed", "7", "--out", str(out)])
            assert code == 0
        names = ("loss.csv", "throughput.csv", "report.json")
        same = all(
            (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in names
        )
        # sanity: artifacts are non-trivial, not identical-because-empty
        loss = read_loss_csv(outs[0] / "loss.csv")
        rate = read_throughput_csv(outs[0] / "throughput.csv")
        check(capsys, "run-determinism", same and loss.loss_db.size == 20_000
              and rate.rate_gbps.size == 20_000,
              f"repeated run byte-identical across {len(names)} artifacts: {same}")

    def test_cascade_ordering(self, default_1km, capsys):
        worst_c_over_f1 = math.inf
        worst_f1_over_full = math.inf
        for seed in range(1, 11):
            means = {}
            for label, (f1, f2) in (("coarse", (False, False)),
                                    ("fine1", (True, False)),
                                    ("full", (True, True))):
                series = run_apt(default_1km, 60.0, seed,
                                 enable_fine1=f1, enable_fine2=f2)
                means[label] = tracking_stats(series.window(10.0, 60.0)).radial_mean_rad
            worst_c_over_f1 = min(worst_c_over_f1, means["coarse"] / means["fine1"])
            worst_f1_over_full = min(worst_f1_over_full, means["fine1"] / means["full"])
        ok = worst_c_over_f1 >= 2.0 and worst_f1_over_full >= 2.0
        check(capsys, "cascade-ordering", ok,
              f"10 seeds: min coarse/fine1 ratio {worst_c_over_f1:.2f}, "
              f"min fine1/full ratio {worst_f1_over_full:.2f}, both >= 2")
