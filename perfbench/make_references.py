"""Regenerate reference_digests.json from the current fsosim sources.

Usage (from the repository root): python3 perfbench/make_references.py

Runs every operation input of every workload once at the default workload
seed and stores the SHA-256 digest of each output.  Regenerate only when
a change alters fsosim's outputs on purpose, and say why in CHANGES.md.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import DEFAULT_SEED, REFERENCE_FILE, WORKLOADS  # noqa: E402

WORKDIR = ROOT / ".perfbench_work" / "references"


def main() -> int:
    references = {"seed": DEFAULT_SEED}
    try:
        for name, cls in WORKLOADS.items():
            workload = cls(DEFAULT_SEED, WORKDIR / name)
            problems = workload.prepare()
            references[name] = {}
            for inp in workload.inputs:
                workload.clear()
                result = workload.run(inp)
                if any(rc != 0 for rc in result["rc"]):
                    problems.append(f"{inp['key']}: exit codes {result['rc']}")
                    continue
                digests, found = workload.outputs(inp, result)
                problems += [f"{inp['key']}: {p}" for p in found]
                references[name][inp["key"]] = digests
            if problems:
                print("\n".join(problems), file=sys.stderr)
                return 1
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    REFERENCE_FILE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    print(f"wrote {REFERENCE_FILE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
