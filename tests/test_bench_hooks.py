"""The traced benchmark's hooks into fsosim, checked from the package's side.

`perfbench/tracing.py` times each layer by replacing the module attributes
listed in its BINDINGS, and `perfbench/run.py::_scipy_import_s` reads the
scipy import time off an `-X importtime` log of `import fsosim.cli`.  The
package no longer calls scipy: the bare `import scipy` in `dynamics.py`
stays only so that this log shows scipy.  A refactor that renames a bound
function, calls around a binding or drops that import passes every other
tier-1 test and breaks only the traced benchmark run; these checks fail
first.  The import-log check and the bare import go together when a
benchmark change retires the `import.scipy_signal_s` metric (ROADMAP
items 1 and 14).
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fsosim.apt
import fsosim.cli
from fsosim import default_scenario

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def load_perfbench(name):
    """perfbench/<name>.py as a module, with its sibling imports resolvable."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.fixture(scope="module")
def tracing():
    return load_perfbench("tracing")


def current_bindings(tracing):
    return [(module, attr, getattr(importlib.import_module(module), attr))
            for module, attr, *_ in tracing.BINDINGS]


def test_every_binding_resolves_to_a_callable(tracing):
    for module, attr, target in current_bindings(tracing):
        assert callable(target), f"{module}.{attr}"
    generator = fsosim.apt.DisturbanceGenerator
    assert callable(generator.__init__) and callable(generator.series)


def test_installed_wraps_then_restores_every_binding(tracing):
    originals = current_bindings(tracing)
    generator = fsosim.apt.DisturbanceGenerator
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        for (module, attr, original), (_, _, wrapped) in zip(originals,
                                                             current_bindings(tracing)):
            assert wrapped is not original and wrapped.__wrapped__ is original, (
                f"{module}.{attr}")
        assert issubclass(fsosim.apt.DisturbanceGenerator, generator)
        # one seed of `fsosim run` passes every binding on its path: 10.01 s
        # leaves 10 samples after the 10 s warmup
        with tracer.op(0):
            fsosim.cli.simulate_run(default_scenario(), 10.01, 1)
    for module, attr, original in originals:
        assert getattr(importlib.import_module(module), attr) is original, f"{module}.{attr}"
    assert fsosim.apt.DisturbanceGenerator is generator
    spans = {span.name for span in tracer.spans}
    assert {"apt.run_apt", "dynamics.disturbance", "link.loss_timeseries", "cli.roundtrip",
            "link.throughput_timeseries", "link.loss_statistics",
            "apt.tracking_stats"} <= spans
    counts = {name: n for (_, name), n in tracer.counts.items()}
    assert counts["apt.ticks"] == 10010
    assert counts["link.samples"] == counts["cli.roundtrip_values"] == 10


def test_cli_import_log_shows_scipy():
    run = load_perfbench("run")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import fsosim.cli"],
                          capture_output=True, text=True, env=env, timeout=120, check=True)
    assert run._scipy_import_s(done.stderr) > 0.0
