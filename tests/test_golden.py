"""Golden SHA-256 digests of the CLI artifacts for the shipped scenarios.

Every artifact that `fsosim track --out` and `fsosim run --seeds 1..3 --out`
write for the four scenarios under `scenarios/` (20 simulated seconds each)
is pinned here, and so are `budget --out` and `calibrate --out` for each
scenario and `sweep --out` and the CSV that `sweep` prints without `--out`
(5000 rows, more than one block of the CSV writer).  A refactor of the simulation loop,
the link model or the writers must leave every digest unchanged.  If a digest changes on purpose,
regenerate the table with

    PYTHONPATH=src python tests/test_golden.py

and say in CHANGES.md which artifacts moved and why.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

import pytest

from fsosim.cli import main

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
DURATION = "20"


def _argv(verb, scenario, *flags):
    return [verb, "--scenario", str(SCENARIOS / f"{scenario}.json"),
            "--duration", DURATION, *flags]


def _static_argv(verb, scenario, *flags):
    return [verb, "--scenario", str(SCENARIOS / f"{scenario}.json"), *flags]


SWEEP_FLAGS = ("--min-km", "0.05", "--max-km", "40", "--steps", "5000")

CASES = {
    "track-1km_default-coarse": _argv("track", "1km_default", "--stages", "coarse"),
    "track-1km_default-fine1": _argv("track", "1km_default", "--stages", "fine1"),
    "track-1km_default-full": _argv("track", "1km_default", "--stages", "full"),
    "track-1km_default-fine_after_7": _argv("track", "1km_default", "--fine-after", "7"),
    "track-1km_coarse_only": _argv("track", "1km_coarse_only"),
    "track-4km_fog": _argv("track", "4km_fog"),
    "track-bench_direct": _argv("track", "bench_direct"),
    "run-1km_default": _argv("run", "1km_default", "--seeds", "1..3"),
    "run-1km_coarse_only": _argv("run", "1km_coarse_only", "--seeds", "1..3"),
    "run-4km_fog": _argv("run", "4km_fog", "--seeds", "1..3"),
    "run-bench_direct": _argv("run", "bench_direct", "--seeds", "1..3"),
    "budget-1km_default": _static_argv("budget", "1km_default", "--error-urad", "3"),
    "budget-1km_coarse_only": _static_argv("budget", "1km_coarse_only", "--error-urad", "24"),
    "budget-4km_fog": _static_argv("budget", "4km_fog", "--distance-m", "2500.5"),
    "budget-bench_direct": _static_argv("budget", "bench_direct"),
    "sweep-1km_default": _static_argv("sweep", "1km_default", *SWEEP_FLAGS),
    "sweep-4km_fog": _static_argv("sweep", "4km_fog", *SWEEP_FLAGS),
    "calibrate-1km_default": _static_argv("calibrate", "1km_default", "--seed", "7"),
    "calibrate-1km_coarse_only": _static_argv("calibrate", "1km_coarse_only", "--seed", "7"),
    "calibrate-4km_fog": _static_argv("calibrate", "4km_fog", "--seed", "7"),
    "calibrate-bench_direct": _static_argv("calibrate", "bench_direct", "--seed", "7"),
}

# the exit status of each case that does not exit 0: in fog the default
# anchors cannot all be met (exit 2, not converged), and the report is
# still written
EXIT_STATUS = {"calibrate-4km_fog": 2}

# cases whose artifact is what the verb prints when run without --out
STDOUT_CASES = {
    "sweep-1km_default-stdout": _static_argv("sweep", "1km_default", *SWEEP_FLAGS),
    "sweep-4km_fog-stdout": _static_argv("sweep", "4km_fog"),
}

GOLDEN = {
    'budget-1km_coarse_only': {
        'budget.json':
            '2524594045ddcc49cb9a9c612735354436a3a9e5d5892d88e6fae19da01ce310',
    },
    'budget-1km_default': {
        'budget.json':
            '0b9e5e860af4ccc680fdd7c7fa02b460d14abd30f49c2537695a115d205078c3',
    },
    'budget-4km_fog': {
        'budget.json':
            '9e9406d2ae6e15738643c90137a792c21d81a5058dc4e2d2e9a4478bf0eba761',
    },
    'budget-bench_direct': {
        'budget.json':
            '4644965531902603bc2af00f4555cabcd078cfce9c907fd8c4c00ac7b0f3a4e1',
    },
    'calibrate-1km_coarse_only': {
        'calibration.json':
            '097062143996f948810b21fc589374e881d855c42f72ca80a49eb8a1779f4def',
    },
    'calibrate-1km_default': {
        'calibration.json':
            '03d18da4001bd0b0bc380d7129ab9a873d870052fb346122f7666879e4c74069',
    },
    'calibrate-4km_fog': {
        'calibration.json':
            'e92077082ccf11a1c64120696fa7f673146304c15d72d5200b856105d65cce7f',
    },
    'calibrate-bench_direct': {
        'calibration.json':
            'faa146a45f073eee25a8e27c90d084dcbf18de2a8dc35b4cd099841d2818f5db',
    },
    'run-1km_coarse_only': {
        'loss_1.csv':
            'fc8285252566a0fb35440012d0431f3d0a213da873b3ef5dc2340c64ec41ad41',
        'loss_2.csv':
            '527f6a54331869b75ec6d8753f8e5b741a1314ffc914027541e21cfc25d2beb4',
        'loss_3.csv':
            '4087e5f1049bbf4e60e03756a155717bfc7ff506757215c6b8a169ae11d1bbdf',
        'report.json':
            'c4d4b9cbacf397f67d8c1ccc8eb0533ea5877d046733378c1972bebb5d29edcd',
        'throughput_1.csv':
            '62bbeed0a982c2dd40c5dee4ffe5c81a4d3044e5867a0c3437c1727b05b6b81f',
        'throughput_2.csv':
            '45663707e67e0b6ffb785fb02fff9464d90514849846483f6d2e588bef1438c8',
        'throughput_3.csv':
            '7a53080f4eb23fd5ed1daa1693219a854d96e621a58c11b6dcb37ef0dda1996d',
    },
    'run-1km_default': {
        'loss_1.csv':
            '431603edc569b5070f1d476e932bf12a64597a91564bee2ef73693d4a8d7a68a',
        'loss_2.csv':
            '4ef7726044c563fbd011703c5800c6745108684f07c4c5cb276cf5a601d6637a',
        'loss_3.csv':
            'a37a059e187ad4f0d19b25591c1f65ef5e6a80f6b9e1bff735d7ca5be03592a0',
        'report.json':
            '58c6229ff79e8b623bd3098564151c4e355fb0d3d068f885432ba3d2af8b4b51',
        'throughput_1.csv':
            '60f18196106d3f98e73126688805e85874c5e567eb755eb90e0c7d2cfd950440',
        'throughput_2.csv':
            '60f18196106d3f98e73126688805e85874c5e567eb755eb90e0c7d2cfd950440',
        'throughput_3.csv':
            '60f18196106d3f98e73126688805e85874c5e567eb755eb90e0c7d2cfd950440',
    },
    'run-4km_fog': {
        'loss_1.csv':
            'a8661b34aef60adae65c1c420eb385cf53427de75b79fe35da58b6c1a4719fd6',
        'loss_2.csv':
            '6ae94b7e6b0578314b78929dd3b84f9b4d2f5c1d096ee3f6c1ed45924011f6c2',
        'loss_3.csv':
            '5ee419d0d3db6869cac1a54e8dd550fe2057fa84edfe4f69be0ccbfd8dbac46f',
        'report.json':
            '48140586ba913256bb8779c2e70587485573df1959de42d5cba218604663b03e',
        'throughput_1.csv':
            '029a75538beea8c808056ac3f58827c258d7304a3079594182f743bf27f95c4d',
        'throughput_2.csv':
            '0e084fd4e8ce824cd5d0892495304a22f57afd9bb85eefef1243222ab4d7bae9',
        'throughput_3.csv':
            '8fdf59a6718bf9bbdc6eb2022c5952445fc764d588885cdc86e77dc71f12f772',
    },
    'run-bench_direct': {
        'loss_1.csv':
            'c85abbb8669aae28f059a5a39a4fc4ab5e15f4f034dda1077371493c3f1cc42b',
        'loss_2.csv':
            'c85abbb8669aae28f059a5a39a4fc4ab5e15f4f034dda1077371493c3f1cc42b',
        'loss_3.csv':
            'c85abbb8669aae28f059a5a39a4fc4ab5e15f4f034dda1077371493c3f1cc42b',
        'report.json':
            '5d7cfa67843bc9c8a3d729f19598c68b0e105dba290f188e755f76b4ac028672',
        'throughput_1.csv':
            '60f18196106d3f98e73126688805e85874c5e567eb755eb90e0c7d2cfd950440',
        'throughput_2.csv':
            '60f18196106d3f98e73126688805e85874c5e567eb755eb90e0c7d2cfd950440',
        'throughput_3.csv':
            '60f18196106d3f98e73126688805e85874c5e567eb755eb90e0c7d2cfd950440',
    },
    'sweep-1km_default': {
        'sweep.csv':
            'a897615529ddbcbcc7a4c22fce42e16d3ea41d2681c1f2604987b52dcd0e084c',
    },
    'sweep-1km_default-stdout': {
        'stdout':
            'a897615529ddbcbcc7a4c22fce42e16d3ea41d2681c1f2604987b52dcd0e084c',
    },
    'sweep-4km_fog': {
        'sweep.csv':
            'de68629839a22b9894be06c6714f110a328863c1e2e597aa447f9f6880ec7dac',
    },
    'sweep-4km_fog-stdout': {
        'stdout':
            '11bfb9e0b273f57db44aeb95db2fac037087b0fa0c098b53699ba5f23a367fc8',
    },
    'track-1km_coarse_only': {
        'tracking.csv':
            '205af20c7e28d1d2183d26efe6e023008c7dabab1f78a0cf8582219aa1a8e4a9',
        'tracking_stats.json':
            '5b8cc9f8e3d0b1fda8e88252cca94d7595e42de764f8851199a11d923516b7af',
    },
    'track-1km_default-coarse': {
        'tracking.csv':
            '205af20c7e28d1d2183d26efe6e023008c7dabab1f78a0cf8582219aa1a8e4a9',
        'tracking_stats.json':
            '5badc7f8fde4cabd9d8117cd69739efb0cacd3547991146f9dd44eb78d7ae41c',
    },
    'track-1km_default-fine1': {
        'tracking.csv':
            'c337c125c2c8691693b503bed3a9c29d7f080a1e232cadeef36ce398bb51a53b',
        'tracking_stats.json':
            'b2b90fbb8bd754808670b57940fb4928918aeba8c7a213f2f8fdf595c11d5415',
    },
    'track-1km_default-fine_after_7': {
        'tracking.csv':
            '16f869f78528cb8423291a6e347a2b0d31d47018dbc6b6b01de0085e81097b82',
        'tracking_stats.json':
            '11e88bbff0cdd2dfc268542b868dddda502d3fa67e0352c108ca6509c505b742',
    },
    'track-1km_default-full': {
        'tracking.csv':
            'f08d115b55f31ebdf480bed65911a14becf4a628ae960f819c080e7ede391dbe',
        'tracking_stats.json':
            '8f618b7f33db434710e565f4c3704141b0343ef318e7b7edb5fcf80b5010de74',
    },
    'track-4km_fog': {
        'tracking.csv':
            'f08d115b55f31ebdf480bed65911a14becf4a628ae960f819c080e7ede391dbe',
        'tracking_stats.json':
            '8afacb65a3ffbc513c720a62fbd0efb131ed6e403f54ac3fcc451c3f6274ebff',
    },
    'track-bench_direct': {
        'tracking.csv':
            'f08d115b55f31ebdf480bed65911a14becf4a628ae960f819c080e7ede391dbe',
        'tracking_stats.json':
            'b35baca2f591d188487ca07df13ccfd795681717acfbab6b1ee0e127792f38f1',
    },
}


def artifact_digests(argv, out: Path, status: int = 0) -> dict:
    """Run one CLI case into `out`, expecting exit `status`; SHA-256 of
    each file it wrote."""
    assert main([*argv, "--out", str(out)]) == status
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
    }


def stdout_digest(argv) -> dict:
    """Run one CLI case without --out; SHA-256 of what it printed."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert main(argv) == 0
    return {"stdout": hashlib.sha256(text.getvalue().encode("utf-8")).hexdigest()}


def case_digests(case, out: Path) -> dict:
    if case in STDOUT_CASES:
        return stdout_digest(STDOUT_CASES[case])
    return artifact_digests(CASES[case], out, EXIT_STATUS.get(case, 0))


@pytest.mark.parametrize("case", sorted({**CASES, **STDOUT_CASES}))
def test_artifact_digests(case, tmp_path):
    assert case_digests(case, tmp_path) == GOLDEN[case]


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted({**CASES, **STDOUT_CASES})


if __name__ == "__main__":
    import tempfile

    sys.stdout.write("GOLDEN = {\n")
    for case in sorted({**CASES, **STDOUT_CASES}):
        with tempfile.TemporaryDirectory() as tmp:
            digests = case_digests(case, Path(tmp))
        sys.stdout.write(f"    {case!r}: {{\n")
        for name, digest in digests.items():
            sys.stdout.write(f"        {name!r}:\n            {digest!r},\n")
        sys.stdout.write("    },\n")
    sys.stdout.write("}\n")
