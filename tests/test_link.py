import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsosim import (
    AptState,
    TrackingSeries,
    TransceiverSpec,
    downtime_fraction,
    link_budget,
    loss_statistics,
    loss_timeseries,
    summarize,
    throughput_timeseries,
)
from fsosim.link import _SUM_BLOCK, NO_LINK_LOSS_DB, LossSeries, _exact_sum
from fsosim.optics import DB_PER_NEPER

from conftest import make_scenario

TRX = TransceiverSpec(rated_gbps=10.0, effective_tcp_gbps=9.27,
                      tcp_efficiency=0.988, max_tolerable_loss_db=24.1)


def series_with(states, pitch_urad):
    n = len(states)
    z = np.zeros(n)
    return TrackingSeries(
        t_s=np.arange(n) / 1000.0,
        state=np.array([int(s) for s in states], dtype=np.int8),
        error_pitch_rad=np.asarray(pitch_urad, dtype=float) * 1e-6,
        error_azimuth_rad=z.copy(),
        gimbal_azimuth_rad=z.copy(),
        gimbal_pitch_rad=z.copy(),
        fsm1_pitch_rad=z.copy(),
        fsm1_azimuth_rad=z.copy(),
        fsm2_pitch_rad=z.copy(),
        fsm2_azimuth_rad=z.copy(),
        lock0=np.ones(n, dtype=bool),
        lock1=np.ones(n, dtype=bool),
        lock2=np.ones(n, dtype=bool),
        seed=0,
    )


class TestLossTimeseries:
    def test_lock_states_get_budget_others_get_sentinel(self, scenario):
        states = [AptState.STABILIZE, AptState.ACQUIRE, AptState.COARSE_TRACK,
                  AptState.FINE_TRACK1, AptState.FINE_TRACK2, AptState.LINKED,
                  AptState.REACQUIRE]
        tracked = series_with(states, [0.0] * len(states))
        loss = loss_timeseries(tracked, scenario)
        finite = np.isfinite(loss.loss_db)
        assert finite.tolist() == [False, False, True, True, True, True, False]
        assert loss.link_up.tolist() == finite.tolist()
        assert np.all(loss.loss_db[~finite] == NO_LINK_LOSS_DB)

    def test_loss_is_static_plus_quadratic_jitter(self, scenario):
        err = 10.0  # urad
        tracked = series_with([AptState.LINKED], [err])
        loss = loss_timeseries(tracked, scenario)
        zero = loss_timeseries(series_with([AptState.LINKED], [0.0]), scenario)
        expected_excess = DB_PER_NEPER * (err * 1e-6 / scenario.coupling.rolloff_halfwidth_rad) ** 2
        assert loss.loss_db[0] - zero.loss_db[0] == pytest.approx(expected_excess, rel=1e-12)

    @given(st.lists(st.floats(0.0, 1e-3), min_size=1, max_size=30), st.data())
    @settings(max_examples=50, deadline=None)
    def test_in_lock_loss_is_the_budget_total(self, scenario, pitch_rad, data):
        # the loss series is link_budget's total at each in-lock tick's radial
        # error, bit for bit; azimuth errors make the radial error a hypot
        n = len(pitch_rad)
        states = data.draw(st.lists(st.sampled_from(list(AptState)), min_size=n, max_size=n))
        azimuth = np.array(data.draw(st.lists(st.floats(-1e-3, 1e-3), min_size=n, max_size=n)))
        tracked = replace(series_with(states, np.zeros(n)),
                          error_pitch_rad=np.array(pitch_rad), error_azimuth_rad=azimuth)
        loss = loss_timeseries(tracked, scenario)
        radial = np.hypot(tracked.error_pitch_rad, azimuth)
        up = loss.link_up
        expected = [link_budget(scenario, scenario.distance_m, r).total_db
                    for r in radial[up].tolist()]
        assert np.array_equal(loss.loss_db[up].view(np.int64),
                              np.array(expected, dtype=float).view(np.int64))
        assert np.all(loss.loss_db[~up] == NO_LINK_LOSS_DB)

    def test_fixed_loss_overrides_model_while_in_lock(self):
        tracked = series_with(
            [AptState.LINKED, AptState.ACQUIRE, AptState.COARSE_TRACK],
            [100.0, 100.0, 3000.0],
        )
        loss = loss_timeseries(tracked, make_scenario(**{"link.fixed_loss_db": 24.0}))
        assert loss.loss_db.tolist() == [24.0, math.inf, 24.0]

    def test_same_length_and_timestamps_as_source(self, scenario):
        tracked = series_with([AptState.LINKED] * 5, [1.0] * 5)
        loss = loss_timeseries(tracked, scenario)
        assert loss.t_s.tolist() == tracked.t_s.tolist()
        assert loss.loss_db.size == len(tracked)


class TestThroughput:
    def test_threshold_boundary_inclusive(self):
        loss = LossSeries(
            t_s=np.arange(3) / 1e3,
            loss_db=np.array([24.1, 24.1 + 1e-9, math.inf]),
            link_up=np.array([True, True, False]),
        )
        thr = throughput_timeseries(loss, TRX)
        assert thr.rate_gbps[0] == pytest.approx(TRX.link_rate_gbps)
        assert thr.rate_gbps[1] == 0.0
        assert thr.rate_gbps[2] == 0.0

    def test_rate_value(self):
        assert TRX.link_rate_gbps == pytest.approx(9.27 * 0.988, rel=1e-12)
        assert TRX.link_rate_gbps == pytest.approx(9.15876, abs=1e-9)

    def test_rates_are_zero_or_full(self):
        rng = np.random.default_rng(0)
        loss = LossSeries(
            t_s=np.arange(100) / 1e3,
            loss_db=rng.uniform(10.0, 40.0, 100),
            link_up=np.ones(100, dtype=bool),
        )
        thr = throughput_timeseries(loss, TRX)
        assert set(np.unique(thr.rate_gbps)) <= {0.0, TRX.link_rate_gbps}


class TestSummarize:
    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(17)
        data = rng.normal(13.7, 1.4, 10_000)
        s = summarize(data)
        assert s.mean == pytest.approx(float(np.mean(data)), abs=1e-12)
        assert s.std == pytest.approx(float(np.std(data)), abs=1e-12)
        assert s.minimum == data.min()
        assert s.maximum == data.max()
        assert s.count == data.size

    def test_deterministic_across_calls(self):
        data = np.random.default_rng(3).normal(size=1000) * 1e6
        a = summarize(data)
        b = summarize(data.copy())
        assert (a.mean, a.std) == (b.mean, b.std)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_single_value(self):
        s = summarize([4.2])
        assert s.mean == 4.2
        assert s.std == 0.0
        assert s.count == 1


FORMED_LENGTHS = [1, 5, _SUM_BLOCK - 1, _SUM_BLOCK, _SUM_BLOCK + 1, 2 * _SUM_BLOCK + 3]


class TestSummarizeFormed:
    """summarize((a, b), form) is summarize(form(a, b)), the values formed a
    block at a time and never whole."""

    @pytest.mark.parametrize("n", FORMED_LENGTHS)
    @pytest.mark.parametrize("special", [None, math.inf, -math.inf, math.nan],
                             ids=["finite", "inf", "minus_inf", "nan"])
    def test_equals_the_whole_array(self, n, special):
        rng = np.random.default_rng(n)
        a, b = rng.normal(0.0, 1e-6, (2, n))
        if special is not None:
            a[n // 2] = special
        radial = np.hypot(a, b)
        with np.errstate(invalid="ignore"):
            whole = summarize(radial)
            formed = summarize((a, b), np.hypot)
        for field in ("mean", "std", "minimum", "maximum", "count"):
            got, expected = getattr(formed, field), getattr(whole, field)
            assert struct.pack("<d", got) == struct.pack("<d", expected), field
        # min and max as the whole array's, NaN included
        for got, expected in ((formed.minimum, radial.min()), (formed.maximum, radial.max())):
            assert struct.pack("<d", got) == struct.pack("<d", expected)

    def test_min_and_max_are_of_every_block(self):
        # the extremes in the last, short block and in the first
        values = np.zeros(2 * _SUM_BLOCK + 3)
        values[-1], values[0] = -2.0, 3.0
        s = summarize((values,), np.negative)
        assert (s.minimum, s.maximum) == (-3.0, 2.0)

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="one length"):
            summarize((np.zeros(3), np.zeros(4)), np.hypot)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize((np.zeros(0), np.zeros(0)), np.hypot)


def assert_sums_like_fsum(values):
    """_exact_sum(values) is math.fsum(values) bit for bit, or raises alike."""
    try:
        expected = math.fsum(values)
    except (OverflowError, ValueError) as exc:
        with pytest.raises(type(exc)):
            _exact_sum(values)
        return
    got = _exact_sum(values)
    assert struct.pack("<d", got) == struct.pack("<d", expected), (got, expected)


# lengths from one value to three blocks, block edges included
SUM_LENGTHS = st.one_of(
    st.integers(1, 40),
    st.sampled_from([_SUM_BLOCK - 1, _SUM_BLOCK, _SUM_BLOCK + 1, 2 * _SUM_BLOCK,
                     2 * _SUM_BLOCK + 1, 3 * _SUM_BLOCK]),
    st.integers(1, 3 * _SUM_BLOCK),
)
SPECIAL_VALUES = st.one_of(
    st.floats(),  # nan, +-inf, +-0.0, subnormals and +-1e308 included
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308]),
)


class TestExactSum:
    @given(length=SUM_LENGTHS,
           exponents=st.tuples(st.integers(-1074, 1023), st.integers(-1074, 1023)),
           seed=st.integers(0, 2**32 - 1),
           specials=st.lists(st.tuples(st.integers(0, 3 * _SUM_BLOCK), SPECIAL_VALUES),
                             max_size=4),
           cancel=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_equals_fsum(self, length, exponents, seed, specials, cancel):
        rng = np.random.default_rng(seed)
        low, high = sorted(exponents)
        values = np.ldexp(rng.uniform(-1.0, 1.0, length),
                          rng.integers(low, high + 1, length))
        if cancel:
            # the second half negates the first in another order, so the
            # total is exactly zero unless the length is odd or a special lands
            half = length // 2
            values[half:2 * half] = -rng.permutation(values[:half])
        for position, value in specials:
            values[position % length] = value
        assert_sums_like_fsum(values)

    @pytest.mark.parametrize("values", [
        [0.0], [-0.0], [-0.0, -0.0], [0.0, -0.0], [5e-324], [-5e-324, 5e-324],
        [1e308, 1e308, -1e308], [1.7976931348623157e308, 1e292],
        [2.0**1023, 2.0**1023, -(2.0**1023), -(2.0**1023), 1.0],
        [1e308, -1e308, 1.0], [math.inf, 1.0], [-math.inf, math.inf], [math.nan, 1.0],
        [1.0, 1e100, 1.0, -1e100], [0.1] * 10, [2.0**-1074] * 3 * _SUM_BLOCK,
        [1.0, 2.0**-53], [1.0, 2.0**-53, 2.0**-105], [1.0, -(2.0**-54), 2.0**-200],
    ])
    def test_edge_cases(self, values):
        assert_sums_like_fsum(np.array(values, dtype=float))

    @pytest.mark.parametrize("values", [
        np.random.default_rng(8).normal(13.7, 1.4, 2 * _SUM_BLOCK + 3),
        np.full(2 * _SUM_BLOCK + 3, 6.25), np.full(5, -0.0),
        np.array([1.0, math.inf, 2.0]), np.array([-math.inf, 1.0]),
        np.array([math.inf, -math.inf]), np.array([math.nan, 1.0]),
        np.array([1e153, -1e153, 3.0]), np.array([1.3e154, -1.3e154, 1.0]),
        np.array([1e200, -1e200]),
    ], ids=["random", "constant", "negative_zeros", "inf", "minus_inf", "both_infs", "nan",
            "near_overflow", "overflowing_total", "overflowing_squares"])
    def test_centred_pass_is_the_sum_of_squared_deviations(self, values):
        # summarize's variance pass squares each block as it sums it: the
        # same float as summing the whole array of squares, or the same error
        with np.errstate(over="ignore", invalid="ignore"):
            centre = float(np.mean(values))
            squares = (values - centre) ** 2
            try:
                expected = _exact_sum(squares)
            except (OverflowError, ValueError) as exc:
                with pytest.raises(type(exc)):
                    _exact_sum(values, centre)
                return
            got = _exact_sum(values, centre)
        assert struct.pack("<d", got) == struct.pack("<d", expected), (got, expected)

    def test_summarize_sums_exactly(self):
        # the default tolerance of np.mean would hide a wrong last bit
        data = np.random.default_rng(5).normal(13.7, 1.4, 3 * _SUM_BLOCK + 7)
        s = summarize(data)
        assert s.mean == math.fsum(data.tolist()) / data.size
        assert s.std == math.sqrt(math.fsum(((data - s.mean) ** 2).tolist()) / data.size)


class TestLossStatisticsAndDowntime:
    def _loss(self, values):
        arr = np.asarray(values, dtype=float)
        return LossSeries(
            t_s=np.arange(arr.size) / 1e3,
            loss_db=arr,
            link_up=np.isfinite(arr),
        )

    def test_sentinel_excluded_from_statistics(self):
        loss = self._loss([10.0, math.inf, 14.0, math.inf])
        s = loss_statistics(loss)
        assert s.count == 2
        assert s.mean == pytest.approx(12.0)
        assert s.maximum == 14.0

    def test_downtime_counts_sentinel_and_excess(self):
        loss = self._loss([10.0, math.inf, 25.0, 24.1])
        # inf and 25.0 exceed tolerance; 24.1 is exactly tolerable
        assert downtime_fraction(loss, TRX) == pytest.approx(0.5)

    def test_downtime_zero_when_all_within(self):
        loss = self._loss([10.0, 20.0, 24.1])
        assert downtime_fraction(loss, TRX) == 0.0

    def test_empty_downtime_rejected(self):
        with pytest.raises(ValueError):
            downtime_fraction(self._loss([]), TRX)
