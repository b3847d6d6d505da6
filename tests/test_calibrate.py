import math

import pytest
from conftest import mutate_json
from hypothesis import given, settings
from hypothesis import strategies as st

from fsosim import optics
from fsosim.calibrate import (
    CalibrationResult,
    MeanLossAnchor,
    calibrate_coupling,
    parse_anchor_file,
)


def model_static_db(scenario, insertion_db, distance_m):
    budget = optics.link_budget(scenario, distance_m)
    return budget.diffraction_db + 2.0 * insertion_db + budget.atmosphere_db


SYNTHETIC_THETA = 12e-6
SYNTHETIC_BASE = 5.0
SYNTHETIC_INSERTION = 2.5


def synthetic_mean_loss(scenario, sigma_rad, distance_m):
    # mean radial-squared error of two-axis Gaussian jitter is 2 sigma^2
    excess = optics.DB_PER_NEPER * 2.0 * sigma_rad**2 / SYNTHETIC_THETA**2
    return (model_static_db(scenario, SYNTHETIC_INSERTION, distance_m)
            + SYNTHETIC_BASE + excess)


@pytest.fixture(scope="module")
def synthetic_result(scenario):
    anchors = [
        MeanLossAnchor(3e-6, 1000.0, synthetic_mean_loss(scenario, 3e-6, 1000.0)),
        MeanLossAnchor(24e-6, 1000.0, synthetic_mean_loss(scenario, 24e-6, 1000.0)),
    ]
    return calibrate_coupling(
        scenario, anchors,
        static_total_db=model_static_db(scenario, SYNTHETIC_INSERTION, 10000.0),
        static_distance_m=10000.0, seed=5,
    )


@pytest.fixture(scope="module")
def reference_result(scenario):
    anchors = [
        MeanLossAnchor(3e-6, 1000.0, 13.7),
        MeanLossAnchor(24e-6, 1000.0, 29.3),
    ]
    return calibrate_coupling(
        scenario, anchors,
        static_total_db=12.7, static_distance_m=10000.0, seed=0,
    )


class TestSyntheticRecovery:
    """Anchors generated from known parameters must be recovered."""

    def test_converges(self, synthetic_result):
        assert synthetic_result.converged

    def test_recovers_halfwidth(self, synthetic_result):
        assert synthetic_result.rolloff_halfwidth_rad == pytest.approx(
            SYNTHETIC_THETA, rel=0.02)

    def test_recovers_base_and_insertion(self, synthetic_result):
        assert synthetic_result.base_coupling_loss_db == pytest.approx(
            SYNTHETIC_BASE, abs=0.05)
        assert synthetic_result.insertion_loss_db_per_terminal == pytest.approx(
            SYNTHETIC_INSERTION, abs=1e-9)

    def test_residuals_within_tolerance(self, synthetic_result):
        assert all(abs(r) <= 0.2 for r in synthetic_result.residuals_db.values())


class TestReferenceAnchors:
    """The anchor set used for the shipped defaults solves cleanly."""

    def test_converges(self, reference_result):
        assert reference_result.converged

    def test_halfwidth_in_physical_range(self, reference_result):
        assert 10e-6 <= reference_result.rolloff_halfwidth_rad <= 30e-6
        assert reference_result.rolloff_halfwidth_rad == pytest.approx(17.79e-6, rel=0.01)

    def test_base_and_insertion(self, reference_result):
        assert reference_result.base_coupling_loss_db == pytest.approx(6.894, abs=0.05)
        assert reference_result.insertion_loss_db_per_terminal == pytest.approx(3.041, abs=0.01)

    def test_anchor_residuals_are_solved_exactly(self, reference_result):
        assert all(abs(r) <= 1e-9 for r in reference_result.residuals_db.values())

    def test_as_dict_units(self, reference_result):
        result = reference_result
        d = result.as_dict()
        assert d["rolloff_halfwidth_urad"] == pytest.approx(
            result.rolloff_halfwidth_rad * 1e6)
        assert set(d) == {"converged", "rolloff_halfwidth_urad",
                          "base_coupling_loss_db", "insertion_loss_db_per_terminal",
                          "residuals_db", "samples"}


class TestFailureModes:
    def test_contradictory_anchors_report_nonconvergence(self, scenario):
        anchors = [
            MeanLossAnchor(3e-6, 1000.0, 29.3),
            MeanLossAnchor(24e-6, 1000.0, 13.7),  # more jitter, less loss
        ]
        result = calibrate_coupling(scenario, anchors, seed=0)
        assert not result.converged

    @pytest.mark.parametrize("tolerance_db", [math.nan, math.inf, -math.inf, -0.1])
    def test_bad_tolerance_refused_by_name(self, scenario, tolerance_db):
        # every comparison with a NaN tolerance is false: it would pass any residual
        with pytest.raises(ValueError, match="^tolerance_db must be >= 0 and finite$"):
            calibrate_coupling(scenario, [], tolerance_db=tolerance_db)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_refused_first(self, scenario, seed):
        # refused on entry, before the tolerance and any Monte Carlo draw
        with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, 2\*\*64\)"):
            calibrate_coupling(scenario, [MeanLossAnchor(3e-6, 1000.0, 13.7)], seed=seed,
                               tolerance_db=math.nan)

    def test_static_pair_must_come_together(self, scenario):
        with pytest.raises(ValueError, match="go together"):
            calibrate_coupling(scenario, [], static_total_db=12.7)
        with pytest.raises(ValueError, match="go together"):
            calibrate_coupling(scenario, [], static_distance_m=1000.0)

    def test_no_anchors_keeps_scenario_values(self, scenario):
        result = calibrate_coupling(scenario, [])
        assert result.rolloff_halfwidth_rad == scenario.coupling.rolloff_halfwidth_rad
        assert result.base_coupling_loss_db == scenario.coupling.base_coupling_loss_db
        assert result.converged

    @pytest.mark.parametrize("anchors, message", [
        ([MeanLossAnchor(1e-6, 1e300, 13.7)],
         "anchor 0: distance_m 1e+300 is beyond the range of the beam model"),
        ([MeanLossAnchor(3e-6, 1000.0, 13.7), MeanLossAnchor(1e-6, 1e13, 29.3)],
         "anchor 1: distance_m 1e+13 is beyond the range of the beam model"),
        ([MeanLossAnchor(1e-6, 1000.0, 13.7), MeanLossAnchor(1e294, 1000.0, 29.3)],
         "anchor 1: sigma_urad 1e+300 puts the mean jitter loss beyond the float range"),
        ([MeanLossAnchor(1e294, 1000.0, 29.3)],
         "anchor 0: sigma_urad 1e+300 puts the mean jitter loss beyond the float range"),
        ([MeanLossAnchor(1e-6, 1000.0, 1e308), MeanLossAnchor(3e-6, 1000.0, -1e308)],
         "anchor 1: mean_loss_db -1e+308 leaves a residual beyond the float range"),
    ])
    def test_huge_anchor_values_named(self, scenario, anchors, message):
        # each overflowed with a bare "(34, 'Numerical result out of range')"
        # or wrote an infinite residual
        with pytest.raises(ValueError) as err:
            calibrate_coupling(scenario, anchors, seed=0)
        assert str(err.value) == message

    def test_huge_static_distance_named(self, scenario):
        with pytest.raises(ValueError) as err:
            calibrate_coupling(scenario, [], static_total_db=12.7, static_distance_m=1e300)
        assert str(err.value) == (
            "static_distance_m: 1e+300 m is beyond the range of the beam model")


class TestDeterminism:
    def test_same_seed_same_result(self, scenario):
        anchors = [
            MeanLossAnchor(3e-6, 1000.0, 13.7),
            MeanLossAnchor(24e-6, 1000.0, 29.3),
        ]
        a = calibrate_coupling(scenario, anchors, seed=7)
        b = calibrate_coupling(scenario, anchors, seed=7)
        assert a == b
        assert isinstance(a, CalibrationResult)


class TestParseAnchorFile:
    DOC = {
        "mean_loss_anchors": [
            {"sigma_urad": 3.0, "distance_m": 1000.0, "mean_loss_db": 13.7},
            {"sigma_urad": 24.0, "distance_m": 1000.0, "mean_loss_db": 29.3},
        ],
        "static_total_db": 12.7,
        "static_distance_m": 10000.0,
    }

    def test_valid_document(self):
        anchors, static_db, static_m = parse_anchor_file(self.DOC)
        assert len(anchors) == 2
        assert anchors[0].sigma_rad == pytest.approx(3e-6)
        assert anchors[1].mean_loss_db == 29.3
        assert static_db == 12.7
        assert static_m == 10000.0

    def test_static_pair_optional(self):
        anchors, static_db, static_m = parse_anchor_file(
            {"mean_loss_anchors": self.DOC["mean_loss_anchors"]})
        assert static_db is None and static_m is None
        assert len(anchors) == 2

    def test_unknown_top_level_key(self):
        with pytest.raises(ValueError, match="unknown anchor keys"):
            parse_anchor_file({"anchors": []})

    def test_unknown_entry_key(self):
        with pytest.raises(ValueError, match="anchor 0: unknown keys"):
            parse_anchor_file({"mean_loss_anchors": [
                {"sigma_urad": 3.0, "distance_m": 1.0, "mean_loss_db": 1.0, "x": 1}]})

    def test_missing_entry_key(self):
        with pytest.raises(ValueError, match="anchor 0: missing key"):
            parse_anchor_file({"mean_loss_anchors": [{"sigma_urad": 3.0}]})

    @pytest.mark.parametrize("payload, message", [
        ([], "anchors file: expected a JSON object"),
        ({"mean_loss_anchors": 5}, "mean_loss_anchors: expected a list"),
        ({"mean_loss_anchors": [5]}, "anchor 0: expected an object"),
    ])
    def test_wrong_shape_rejected(self, payload, message):
        with pytest.raises(ValueError) as err:
            parse_anchor_file(payload)
        assert str(err.value) == message

    @pytest.mark.parametrize("value", [None, "nan", "3.0", True, [3.0], {},
                                       math.nan, math.inf, -math.inf, 10**400])
    def test_entry_value_must_be_a_finite_number(self, value):
        entry = dict(self.DOC["mean_loss_anchors"][1], sigma_urad=value)
        with pytest.raises(ValueError, match="anchor 1: sigma_urad"):
            parse_anchor_file({"mean_loss_anchors": [self.DOC["mean_loss_anchors"][0], entry]})

    @pytest.mark.parametrize("key", ["static_total_db", "static_distance_m"])
    @pytest.mark.parametrize("value", ["12.7", False, math.nan, math.inf])
    def test_static_value_must_be_a_finite_number(self, key, value):
        with pytest.raises(ValueError, match=f"^{key}: "):
            parse_anchor_file(dict(self.DOC, **{key: value}))

    def test_static_null_means_absent(self):
        _, static_db, static_m = parse_anchor_file(
            {"static_total_db": None, "static_distance_m": None})
        assert static_db is None and static_m is None

    def test_out_of_range_entry_named(self):
        entry = dict(self.DOC["mean_loss_anchors"][0], distance_m=0.0)
        with pytest.raises(ValueError, match="anchor 0: distance_m must be positive"):
            parse_anchor_file({"mean_loss_anchors": [entry]})

    def test_negative_sigma_named_by_its_key(self):
        entry = dict(self.DOC["mean_loss_anchors"][0], sigma_urad=-1e-300)
        with pytest.raises(ValueError) as err:
            parse_anchor_file({"mean_loss_anchors": [self.DOC["mean_loss_anchors"][0], entry]})
        assert str(err.value) == "anchor 1: sigma_urad must be >= 0"
        anchors, _, _ = parse_anchor_file({"mean_loss_anchors": [dict(entry, sigma_urad=0.0)]})
        assert anchors[0].sigma_rad == 0.0

    def test_negative_static_distance_named_by_its_key(self):
        with pytest.raises(ValueError) as err:
            parse_anchor_file(dict(self.DOC, static_distance_m=-1e-300))
        assert str(err.value) == "static_distance_m must be >= 0"
        assert parse_anchor_file(dict(self.DOC, static_distance_m=0.0))[2] == 0.0

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_fuzzed_document_parses_to_finite_values_or_raises(self, data):
        try:
            anchors, static_db, static_m = parse_anchor_file(mutate_json(data, self.DOC))
        except ValueError:
            return
        values = [v for a in anchors for v in (a.sigma_rad, a.distance_m, a.mean_loss_db)]
        values += [v for v in (static_db, static_m) if v is not None]
        assert all(type(v) is float and math.isfinite(v) for v in values)
