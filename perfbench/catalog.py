"""The workloads' names, the scenarios each resolves and which need a set-up step.

run.py measures start-up in fresh interpreters and so must not import
fsosim itself; workloads.py builds the operations.  Both read these facts
from here, so they cannot drift apart.
"""

from __future__ import annotations

from typing import NamedTuple


class Spec(NamedTuple):
    scenarios: tuple[str, ...]
    prepare: bool  # an untimed process emits the workload's inputs first


SHIPPED_SCENARIOS = ("1km_default", "1km_coarse_only", "4km_fog", "bench_direct")

WORKLOADS = {
    "single_run_emit": Spec(("1km_default",), prepare=False),
    "seed_sweep": Spec(SHIPPED_SCENARIOS, prepare=False),
    "offline_analysis": Spec(("1km_default",), prepare=True),
}
