import copy

import pytest
from hypothesis import strategies as st

from fsosim import default_scenario, resolve_scenario
from fsosim.scenario import DEFAULTS


@pytest.fixture(scope="session")
def scenario():
    return default_scenario()


def make_scenario(**overrides):
    """Resolved scenario from the defaults with dotted-path overrides.

    make_scenario(**{"cmos0.centroid_noise_urad": 0.0}) patches one leaf.
    """
    raw = copy.deepcopy(DEFAULTS)
    for dotted, value in overrides.items():
        node = raw
        *parents, leaf = dotted.split(".")
        for key in parents:
            node = node[key]
        node[leaf] = value
    return resolve_scenario(raw)


def zero_noise_overrides():
    """Overrides that remove every stochastic term from the defaults."""
    return {
        "cmos0.centroid_noise_urad": 0.0,
        "cmos1.centroid_noise_urad": 0.0,
        "cmos2.centroid_noise_urad": 0.0,
        "imu.rate_noise_urad_s": 0.0,
        "disturbance.pitch.noise_rms_urad": 0.0,
        "disturbance.azimuth.noise_rms_urad": 0.0,
        "disturbance.pitch.sinusoids": [],
        "disturbance.azimuth.sinusoids": [],
    }


@pytest.fixture(scope="session")
def zero_noise_scenario():
    return make_scenario(**zero_noise_overrides())


def sinusoid(amplitude_urad, frequency_hz, phase_deg=0.0):
    """One-entry `disturbance.<axis>.sinusoids` list."""
    return [{"amplitude_urad": amplitude_urad, "frequency_hz": frequency_hz,
             "phase_deg": phase_deg}]


def fsm_saturation_scenario():
    """Defaults with mirror ranges (20 / 10 urad) that the seeded loop overdrives.

    Run from Linked (seed 3, 20 s), both mirrors hit both stops on both axes.
    The anti-windup bound alone would hold each integral command at the
    range; the added proportional gain pushes commands past it, so the
    mirror range clamp itself must act.
    """
    return make_scenario(**{"fsm1.range_urad": 20.0, "fsm2.range_urad": 10.0,
                            "control.fsm1.kp": 1.0, "control.fsm2.kp": 1.0})


def gimbal_saturation_scenario():
    """Gimbal ranges (0.5 / 0.3 deg) smaller than the base motion it follows.

    Per axis, a slow 0.5 Hz swing (20 mrad azimuth, 10 mrad pitch) drives
    both range stops and a 10 mrad shake (17 Hz azimuth, 20 Hz pitch) drives
    the slew limit both ways (seed 1, 10 s).
    """
    return make_scenario(**{
        "gimbal.azimuth_range_deg": 0.5,
        "gimbal.pitch_range_deg": 0.3,
        "disturbance.azimuth.sinusoids": sinusoid(20_000.0, 0.5) + sinusoid(10_000.0, 17.0),
        "disturbance.pitch.sinusoids": sinusoid(10_000.0, 0.5, 90.0) + sinusoid(10_000.0, 20.0),
    })


# any JSON value json.loads can return, including NaN, infinities and
# integers beyond the float range
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.text(max_size=4) | st.floats()
    | st.integers() | st.integers(min_value=10**308, max_value=10**400),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _containers(doc, path=()):
    """(path, container) for doc and every object or list nested in it."""
    yield path, doc
    for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
        if isinstance(value, (dict, list)):
            yield from _containers(value, path + (key,))


def mutate_json(data, doc: dict, max_mutations: int = 3) -> dict:
    """A copy of doc with 1..max_mutations random edits drawn from `data`.

    Each edit, at any depth (list entries included), replaces a value with
    an arbitrary JSON value, deletes a key or list entry, or adds a key or
    list entry.
    """
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, max_mutations), label="mutations")):
        containers = [c for _, c in _containers(doc)]
        container = data.draw(st.sampled_from(containers), label="container")
        op = data.draw(st.sampled_from(["replace", "delete", "add"]), label="op")
        if op == "add":
            value = data.draw(JSON_VALUES, label="new value")
            if isinstance(container, dict):
                container[data.draw(st.text(max_size=6), label="new key")] = value
            else:
                container.append(value)
        elif container:
            key = data.draw(st.sampled_from(
                list(container) if isinstance(container, dict) else range(len(container))),
                label="key")
            if op == "delete":
                del container[key]
            else:
                container[key] = data.draw(JSON_VALUES, label="value")
    return doc
