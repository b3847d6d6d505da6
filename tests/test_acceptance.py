"""End-to-end acceptance checks.

Every test prints exactly one PASS/FAIL line with the measured numbers so a
verbose run reads as a checklist.  Section one exercises the shipped
scenarios at fixed seeds against the reference performance figures; section
two checks model laws and safety properties that hold regardless of
calibration.
"""

import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from fsosim import AptState, run_apt, summarize, tracking_stats
from fsosim.apt import TICK_RATE_HZ
from fsosim.cli import main, simulate_run
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
from reproduce_results import REFERENCE  # noqa: E402  (the paper's figures, one table)

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


def timed(timings, key, simulate, scenario, duration_s, seed, **kwargs):
    t0 = time.perf_counter()
    result = simulate(scenario, duration_s, seed, **kwargs)
    timings[key] = time.perf_counter() - t0
    return result


def in_reference(key, value):
    """Whether value meets REFERENCE[key], and the bounds as text for the message."""
    low, high = REFERENCE[key]
    return low <= value <= high, f"[{low:g}, {high:g}]"


# ---------------------------------------------------------------------------
# shared simulation runs (each reused by several checks)

@pytest.fixture(scope="module")
def timings():
    return {}


@pytest.fixture(scope="module")
def default_1km():
    return load_scenario("scenarios/1km_default.json")


@pytest.fixture(scope="module")
def full_run(default_1km, timings):
    return timed(timings, "full 120 s", simulate_run, default_1km, 120.0, 1)


@pytest.fixture(scope="module")
def coarse_series(timings):
    scenario = load_scenario("scenarios/1km_coarse_only.json")
    return timed(timings, "coarse 120 s", run_apt, scenario, 120.0, 1)


@pytest.fixture(scope="module")
def fine1_run(default_1km, timings):
    return timed(timings, "fine1 120 s", simulate_run, default_1km, 120.0, 1,
                 enable_fine1=True, enable_fine2=False)


class TestCalibratedReproduction:
    def test_static_budget_sweep(self, default_1km, capsys):
        sc = default_1km
        rows = distance_sweep(sc, 100.0, 10_000.0, 100)
        totals = [total for _, _, total in rows]
        at_10km = totals[-1]
        monotone = all(b >= a for a, b in zip(totals, totals[1:]))
        below_1km = [t for d, _, t in rows if d <= 1000.0]
        flat_rise = max(below_1km) - min(below_1km)
        ok, bounds = in_reference("static_10km_db", at_10km)
        check(
            capsys, "static-budget-sweep",
            ok and monotone and flat_rise < 1.0,
            f"10 km static {at_10km:.3f} dB in {bounds}, monotone={monotone}, "
            f"rise below 1 km {flat_rise:.3f} dB < 1",
        )

    def test_coarse_tracking_residual(self, coarse_series, capsys):
        s = tracking_stats(coarse_series.window(10.0, 120.0))
        mean_ok, mean_bounds = in_reference("coarse_radial_mean_urad", s.radial_mean_rad * 1e6)
        pitch_ok, std_bounds = in_reference("coarse_pitch_std_urad", s.pitch_std_rad * 1e6)
        azimuth_ok, _ = in_reference("coarse_azimuth_std_urad", s.azimuth_std_rad * 1e6)
        check(
            capsys, "coarse-tracking-residual",
            mean_ok and pitch_ok and azimuth_ok,
            f"radial mean {s.radial_mean_rad * 1e6:.1f} urad in {mean_bounds}, axis stds "
            f"{s.pitch_std_rad * 1e6:.1f}/{s.azimuth_std_rad * 1e6:.1f} urad in {std_bounds}",
        )

    def test_fine_handover_residual(self, default_1km, timings, capsys):
        series = timed(timings, "handover 90 s", run_apt, default_1km, 90.0, 1,
                       fine_after_s=30.0)
        s = tracking_stats(series.window(30.0, 90.0))
        mean_ok, mean_bounds = in_reference("handover_radial_mean_urad", s.radial_mean_rad * 1e6)
        pitch_ok, std_bounds = in_reference("handover_pitch_std_urad", s.pitch_std_rad * 1e6)
        azimuth_ok, _ = in_reference("handover_azimuth_std_urad", s.azimuth_std_rad * 1e6)
        check(
            capsys, "fine-handover-residual",
            mean_ok and pitch_ok and azimuth_ok,
            f"last-60 s radial mean {s.radial_mean_rad * 1e6:.2f} urad in {mean_bounds}, axis "
            f"stds {s.pitch_std_rad * 1e6:.2f}/{s.azimuth_std_rad * 1e6:.2f} urad in {std_bounds}",
        )

    def test_full_cascade_loss(self, full_run, fine1_run, capsys):
        full, first = full_run.loss_stats, fine1_run.loss_stats
        radial = full_run.tracking.radial_mean_rad * 1e6
        radial_ok, radial_bounds = in_reference("full_radial_mean_urad", radial)
        mean_ok, mean_bounds = in_reference("full_loss_mean_db", full.mean)
        std_ok, std_bounds = in_reference("full_loss_std_db", full.std)
        first_ok, first_bounds = in_reference("fine1_loss_mean_db", first.mean)
        check(
            capsys, "full-cascade-loss",
            radial_ok and mean_ok and std_ok and first_ok,
            f"radial mean {radial:.2f} urad in {radial_bounds}; "
            f"full mean {full.mean:.2f} dB in {mean_bounds}, std {full.std:.2f} dB in "
            f"{std_bounds}; first-stage mean {first.mean:.2f} dB in {first_bounds}",
        )

    def test_throughput(self, full_run, timings, capsys):
        # the first 100 s of the run's window [10 s, 120 s)
        s = summarize(full_run.throughput.rate_gbps[:100_000])
        assert s.count == 100_000  # exactly 100 s at 1 kHz

        bench_sc = load_scenario("scenarios/bench_direct.json")
        bench = timed(timings, "bench 15 s", simulate_run, bench_sc, 15.0, 1)
        full_rate = bench_sc.transceiver.link_rate_gbps
        at_full_rate = float(np.mean(bench.throughput.rate_gbps == full_rate))
        mean_ok, mean_bounds = in_reference("throughput_mean_gbps", s.mean)
        std_ok, std_bounds = in_reference("throughput_std_gbps", s.std)
        bench_ok, bench_bounds = in_reference("bench_full_rate_frac", at_full_rate)
        check(
            capsys, "throughput",
            mean_ok and std_ok and bench_ok,
            f"100 s mean {s.mean:.5f} Gbps in {mean_bounds}, std {s.std:.3f} in {std_bounds}; "
            f"fixed 24.0 dB bench at full rate {full_rate:.5f} Gbps for a share "
            f"{at_full_rate:g} in {bench_bounds}",
        )

    def test_fog_4km_loss(self, timings, capsys):
        scenario = load_scenario("scenarios/4km_fog.json")
        s = timed(timings, "fog 120 s", simulate_run, scenario, 120.0, 1).loss_stats
        atm = link_budget(scenario, scenario.distance_m).atmosphere_db
        mean_ok, mean_bounds = in_reference("fog_loss_mean_db", s.mean)
        std_ok, std_bounds = in_reference("fog_loss_std_db", s.std)
        atm_ok, atm_bounds = in_reference("fog_atmosphere_db", atm)
        check(
            capsys, "fog-4km-loss",
            mean_ok and std_ok and atm_ok,
            f"mean {s.mean:.2f} dB in {mean_bounds}, std {s.std:.2f} in {std_bounds}, "
            f"atmospheric term {atm:.3f} dB in {atm_bounds}",
        )

    def test_runs_fit_wall_clock_budget(self, full_run, coarse_series,
                                        fine1_run, timings, capsys):
        worst = max(timings.values())
        check(
            capsys, "wall-clock",
            worst <= 10.0,
            "slowest scenario run "
            + f"{worst:.2f} s <= 10 s ({len(timings)} runs timed)",
        )


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
