"""Start-up probe: import `fsosim.cli` and resolve scenarios, in a fresh interpreter.

Usage: python3 perfbench/probe.py SCENARIO.json [...]

run.py times this whole process from outside for `setup_s`, and reads the
JSON line it prints: the import and scenario-resolve split, and the
calibration loop's samples taken meanwhile, with the time they took.
The split excludes that time.  Run under `python3 -X importtime`, the
split also covers `scipy.signal`.
"""

import json
import sys
import time
from pathlib import Path

import calibration

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

with calibration.Meter() as meter:
    start = time.perf_counter()
    import fsosim.cli  # noqa: E402

    imported = time.perf_counter()
    import_handler_s = meter.handler_s
    for path in sys.argv[1:]:
        fsosim.cli.load_scenario(path)
    loaded = time.perf_counter()

print(json.dumps({
    "import_s": imported - start - import_handler_s,
    "load_s": loaded - imported - (meter.handler_s - import_handler_s),
    "loop_samples": meter.samples,
    "handler_s": meter.handler_s,
    "fsosim": str(Path(fsosim.__file__).resolve()),
}))
