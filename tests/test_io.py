import json
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fsosim import io as fsio
from fsosim import run_apt
from fsosim.apt import TrackingSeries
from fsosim.cli import _roundtrip
from fsosim.io import (
    canonical_json,
    read_loss_csv,
    read_throughput_csv,
    read_tracking_csv,
    write_json,
    write_loss_csv,
    write_sweep_csv,
    write_throughput_csv,
    write_tracking_csv,
)
from fsosim.link import LossSeries, ThroughputSeries, loss_timeseries
from fsosim.states import STATE_NAMES


def read_sweep(path):
    """The (rows, 3) array of a sweep CSV, read by the parser the series
    readers share: the cases below run it on a file of three float columns."""
    names = fsio.SWEEP_HEADER.split(",")
    columns = fsio._read_csv(path, fsio.SWEEP_HEADER, [(name, "f8") for name in names])
    return np.column_stack([columns[name] for name in names])


def throughput_cells(tmp_path, values):
    """The rate_gbps cells write_throughput_csv writes for `values`."""
    path = tmp_path / "cells.csv"
    write_throughput_csv(path, ThroughputSeries(t_s=np.zeros(len(values)),
                                                rate_gbps=np.array(values, dtype=float)))
    return [line.split(",")[1] for line in path.read_text().splitlines()[1:]]


class TestFormatSig:
    def test_six_significant_digits(self, tmp_path):
        assert throughput_cells(tmp_path, [12.3456789, 0.000123456789, 1234567.0, 0.0, -3.5]) == [
            "12.3457", "0.000123457", "1.23457e+06", "0", "-3.5"]

    def test_infinities(self, tmp_path):
        assert throughput_cells(tmp_path, [math.inf, -math.inf]) == ["inf", "-inf"]
        both = np.array([math.inf, -math.inf])
        assert np.array_equal(fsio._through_csv(both), both)

    def test_round_trip_is_fixed_point(self, tmp_path):
        # formatting an already formatted value must not change the text
        values = [13.702344, 1e-7, 9.15876, 26.61234567, math.inf]
        once = throughput_cells(tmp_path, values)
        assert throughput_cells(tmp_path, [float(c) for c in once]) == once
        read_back = fsio._through_csv(np.array(values))
        assert np.array_equal(fsio._through_csv(read_back), read_back)


class TestSweepCsv:
    def test_write_read_write_is_byte_identical(self, tmp_path):
        rows = np.array([(100.0, 0.3850636, 12.123456), (10000.0, 11.9223246, 24.97)])
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_sweep_csv(a, rows)
        write_sweep_csv(b, np.loadtxt(a, delimiter=",", skiprows=1, ndmin=2))
        assert a.read_bytes() == b.read_bytes()

    def test_header_and_line_endings(self, tmp_path):
        p = tmp_path / "s.csv"
        write_sweep_csv(p, np.array([(1.0, 2.0, 3.0)]))
        text = p.read_bytes().decode()
        assert text == "distance_m,diffraction_db,total_static_db\n1,2,3\n"
        assert "\r" not in text

    def test_wrong_header_rejected(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="unexpected CSV header"):
            read_sweep(p)


@pytest.fixture(scope="module")
def series(scenario):
    return run_apt(scenario, duration_s=1.0, seed=3)


class TestTrackingCsv:
    def test_write_read_write_is_byte_identical(self, tmp_path, series):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_tracking_csv(a, series)
        write_tracking_csv(b, read_tracking_csv(a))
        assert a.read_bytes() == b.read_bytes()

    def test_state_names_round_trip(self, tmp_path, series):
        p = tmp_path / "t.csv"
        write_tracking_csv(p, series)
        back = read_tracking_csv(p)
        assert np.array_equal(back.state, series.state)
        names = {line.split(",")[1] for line in p.read_text().splitlines()[1:]}
        assert names <= set(STATE_NAMES.values())

    def test_metadata_not_stored(self, tmp_path, series):
        p = tmp_path / "t.csv"
        write_tracking_csv(p, series)
        back = read_tracking_csv(p)
        assert back.seed == 0
        assert np.all(back.gimbal_azimuth_rad == 0.0)

    def test_errors_preserved_to_format_precision(self, tmp_path, series):
        p = tmp_path / "t.csv"
        write_tracking_csv(p, series)
        back = read_tracking_csv(p)
        # 6 sig digits: half an ulp in the 6th digit, worst case 5e-6 relative
        nz = series.error_pitch_rad != 0.0
        rel = np.abs(back.error_pitch_rad[nz] / series.error_pitch_rad[nz] - 1.0)
        assert rel.max() < 5e-6
        assert np.array_equal(back.lock1, series.lock1)


class TestLossCsv:
    def test_inf_round_trips(self, tmp_path):
        series = LossSeries(
            t_s=np.array([0.0, 0.001, 0.002]),
            loss_db=np.array([13.702, math.inf, 24.1]),
            link_up=np.array([True, False, True]),
        )
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_loss_csv(a, series)
        back = read_loss_csv(a)
        assert math.isinf(back.loss_db[1])
        assert back.link_up.tolist() == [True, False, True]
        write_loss_csv(b, back)
        assert a.read_bytes() == b.read_bytes()

    def test_text_form(self, tmp_path):
        p = tmp_path / "l.csv"
        write_loss_csv(p, LossSeries(
            t_s=np.array([0.0]), loss_db=np.array([math.inf]),
            link_up=np.array([False])))
        assert p.read_text() == "t_s,loss_db,link_up\n0,inf,0\n"


class TestThroughputCsv:
    def test_write_read_write_is_byte_identical(self, tmp_path):
        series = ThroughputSeries(
            t_s=np.arange(4) / 1e3,
            rate_gbps=np.array([9.15876, 0.0, 9.15876, 0.0]),
        )
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_throughput_csv(a, series)
        write_throughput_csv(b, read_throughput_csv(a))
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().splitlines()[0] == "t_s,rate_gbps"


class TestCanonicalJson:
    def test_sorted_keys_and_trailing_newline(self):
        text = canonical_json({"b": 1, "a": {"d": 2, "c": 3}})
        assert text.endswith("}\n")
        assert text.index('"a"') < text.index('"b"')
        assert text.index('"c"') < text.index('"d"')

    def test_write_json_byte_stable(self, tmp_path):
        payload = {"loss_db_mean": 13.7023, "seed": 1, "files": ["x.csv"]}
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        write_json(a, payload)
        write_json(b, json.loads(a.read_text()))
        assert a.read_bytes() == b.read_bytes()

    def test_parses_as_json(self):
        payload = {"nested": {"k": [1, 2, 3]}, "v": 1.5}
        assert json.loads(canonical_json(payload)) == payload


# ---------------------------------------------------------------------------
# block-wise writers and readers against the per-cell definitions

BLOCK = fsio._BLOCK_ROWS
ROUND_BLOCK = fsio._ROUND_BLOCK
ROW_COUNTS = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, ROUND_BLOCK - 1, ROUND_BLOCK, ROUND_BLOCK + 1]
SPECIAL = [math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, -5e-324,
           2.2250738585072014e-308 / 3, 1e300, -1e300, 1e-300, -1e-300]

finite_or_not = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
special_floats = st.one_of(st.sampled_from(SPECIAL), finite_or_not)
float_arrays = hnp.arrays(np.float64, st.integers(0, 40), elements=special_floats)


def sample_values(n, seed=0):
    """n float64 values of every magnitude, with SPECIAL spread through them."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)
    if n:
        values[rng.integers(0, n, len(SPECIAL))] = SPECIAL
    return values


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def per_cell_text(header, rows):
    """The CSV each writer must produce: every number cell through '%.6g'."""
    return header + "\n" + "".join(",".join(row) + "\n" for row in rows)


def tick_text(t):
    """The exact decimal of a tick time t = k / 1000 s (0 <= k < 2**53), or None."""
    if not math.isfinite(t * 1000) or math.copysign(1.0, t) < 0.0:
        return None
    k = round(t * 1000)
    if k >= 2**53 or k / 1000 != t:
        return None
    return f"{k // 1000}.{k % 1000:03d}".rstrip("0").rstrip(".")


def time_texts(t_s):
    """The t_s cells: a block of tick times as exact decimals, any other
    block through '%.6g'."""
    texts = []
    for lo in range(0, len(t_s), BLOCK):
        block = t_s[lo:lo + BLOCK].tolist()
        ticks = [tick_text(t) for t in block]
        texts += ["%.6g" % t for t in block] if None in ticks else ticks
    return texts


def tracking_from(values, seed=0):
    n = len(values)
    rng = np.random.default_rng(seed)
    shifted = [np.roll(values, k) for k in range(6)]
    locks = rng.random((3, n)) < 0.5
    return TrackingSeries(
        t_s=np.roll(values, 6), state=rng.integers(0, len(STATE_NAMES), n).astype(np.int8),
        error_pitch_rad=shifted[0], error_azimuth_rad=shifted[1],
        gimbal_azimuth_rad=np.zeros(n), gimbal_pitch_rad=np.zeros(n),
        fsm1_pitch_rad=shifted[2], fsm1_azimuth_rad=shifted[3],
        fsm2_pitch_rad=shifted[4], fsm2_azimuth_rad=shifted[5],
        lock0=locks[0], lock1=locks[1], lock2=locks[2],
        seed=0,
    )


def tracking_text(s):
    urad = (s.error_pitch_rad, s.error_azimuth_rad, s.fsm1_pitch_rad,
            s.fsm1_azimuth_rad, s.fsm2_pitch_rad, s.fsm2_azimuth_rad)
    t_s = time_texts(s.t_s)
    rows = (
        [t_s[i], STATE_NAMES[int(s.state[i])],
         *("%.6g" % (float(a[i]) * 1e6) for a in urad),
         *(str(int(lock[i])) for lock in (s.lock0, s.lock1, s.lock2))]
        for i in range(len(s.t_s))
    )
    return per_cell_text(fsio.TRACKING_HEADER, rows)


def loss_from(values, seed=0):
    up = np.random.default_rng(seed).random(len(values)) < 0.5
    return LossSeries(t_s=np.roll(values, 1), loss_db=values, link_up=up)


def loss_text(s):
    rows = ([t, "%.6g" % v, str(int(u))]
            for t, v, u in zip(time_texts(s.t_s), s.loss_db, s.link_up))
    return per_cell_text(fsio.LOSS_HEADER, rows)


def throughput_from(values):
    return ThroughputSeries(t_s=np.roll(values, 1), rate_gbps=values)


def throughput_text(s):
    rows = ([t, "%.6g" % r]
            for t, r in zip(time_texts(s.t_s), s.rate_gbps))
    return per_cell_text(fsio.THROUGHPUT_HEADER, rows)


def sweep_from(values):
    return np.column_stack((values, np.roll(values, 1), np.roll(values, 2)))


def sweep_text(rows):
    return per_cell_text(fsio.SWEEP_HEADER,
                         (["%.6g" % v for v in row] for row in rows.tolist()))


def cells(path, column):
    """Column `column` of every data row, as float() parses the text."""
    lines = path.read_text().splitlines()[1:]
    return np.array([float(line.split(",")[column]) for line in lines], dtype=np.float64)


def check_writers_and_readers(values, tmp_path, t_s=None):
    """Every writer equals its per-cell definition; every reader parses like
    float().  With t_s given, the series carry those times instead."""
    times = {} if t_s is None else {"t_s": t_s}
    series = replace(tracking_from(values), **times)
    p = tmp_path / "tracking.csv"
    with np.errstate(over="ignore"):  # values near the float64 limit overflow to inf in urad
        write_tracking_csv(p, series)
    assert p.read_text() == tracking_text(series)
    back = read_tracking_csv(p)
    assert np.array_equal(bits(back.t_s), bits(cells(p, 0)))
    urad = (back.error_pitch_rad, back.error_azimuth_rad, back.fsm1_pitch_rad,
            back.fsm1_azimuth_rad, back.fsm2_pitch_rad, back.fsm2_azimuth_rad)
    for column, rad in enumerate(urad, 2):
        assert np.array_equal(bits(rad), bits(cells(p, column) * 1e-6))
    assert np.array_equal(back.state, series.state)
    assert np.array_equal(back.lock2, series.lock2)

    loss = replace(loss_from(values), **times)
    p = tmp_path / "loss.csv"
    write_loss_csv(p, loss)
    assert p.read_text() == loss_text(loss)
    back = read_loss_csv(p)
    assert np.array_equal(bits(back.t_s), bits(cells(p, 0)))
    assert np.array_equal(bits(back.loss_db), bits(cells(p, 1)))
    assert np.array_equal(back.link_up, loss.link_up)

    rate = replace(throughput_from(values), **times)
    p = tmp_path / "throughput.csv"
    write_throughput_csv(p, rate)
    assert p.read_text() == throughput_text(rate)
    back = read_throughput_csv(p)
    assert np.array_equal(bits(back.t_s), bits(cells(p, 0)))
    assert np.array_equal(bits(back.rate_gbps), bits(cells(p, 1)))

    rows = sweep_from(values)
    p = tmp_path / "sweep.csv"
    write_sweep_csv(p, rows)
    assert p.read_text() == sweep_text(rows)
    parsed = [float(c) for line in sweep_text(rows).splitlines()[1:] for c in line.split(",")]
    assert np.array_equal(bits(read_sweep(p)).ravel(), bits(parsed))


# values at the edges of the numpy rounding in fsio._through_csv
ROUNDTRIP_EDGES = {
    "sixth_digit_ties": [1.0000005, 1.000005, 123456.5, 0.1234565, 2.500005e-3,
                         1234565.0, 8.888885e10, 4.5e-5, 314159.5],
    "below_powers_of_ten": [9.999995, 99999.95, 999999.5, 9.9999949, 0.09999995,
                            9.999995e19, 1e5, 1e6, 1.0, 10.0, 100.0],
    "power_of_ten_range": [*(10.0**k for k in range(-19, 30)),
                           *(1.234567 * 10.0**k for k in range(-19, 30)),
                           9.99999e-18, 1.00001e-17, 1.5e-17, 9.5e22, 1.1e23, 4.4e27, 6e28],
    "subnormals": [5e-324, 1e-323, 2.2250738585072014e-308 / 3, 1e-310,
                   2.225073858507201e-308],
}


def check_roundtrip(values):
    expected = [float("%.6g" % v) for v in values.tolist()]
    assert np.array_equal(bits(_roundtrip(values)), bits(expected))


class TestBlockFormatting:
    @settings(max_examples=60, deadline=None)
    @given(values=float_arrays)
    def test_writers_and_readers_match_per_cell(self, values, tmp_path_factory):
        check_writers_and_readers(values, tmp_path_factory.mktemp("csv"))

    @settings(max_examples=200, deadline=None)
    @given(values=float_arrays)
    def test_roundtrip_is_float_of_format_sig(self, values):
        check_roundtrip(values)

    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_block_boundaries(self, n, tmp_path):
        values = sample_values(n, seed=n)
        check_writers_and_readers(values, tmp_path)
        check_roundtrip(values)

    @pytest.mark.parametrize("kind", sorted(ROUNDTRIP_EDGES))
    def test_roundtrip_edge_cases(self, kind):
        # each value, its nextafter neighbours and their negations: ties in
        # the sixth digit and carries to a seventh take the '%.6g' fallback,
        # and so do magnitudes whose power of ten is not an exact float
        values = np.array(ROUNDTRIP_EDGES[kind], dtype=float)
        values = np.concatenate([values, np.nextafter(values, -np.inf),
                                 np.nextafter(values, np.inf)])
        check_roundtrip(np.concatenate([values, -values]))


# ---------------------------------------------------------------------------
# tick times and flags

def write_times(tmp_path, t_s):
    """The t_s cells write_throughput_csv writes for `t_s`, and the times read back."""
    p = tmp_path / "times.csv"
    t_s = np.asarray(t_s, dtype=float)
    write_throughput_csv(p, ThroughputSeries(t_s=t_s, rate_gbps=np.zeros(len(t_s))))
    return [line.split(",")[0] for line in p.read_text().splitlines()[1:]], read_throughput_csv(p).t_s


def read_times(tmp_path):
    """t_s as each series reader returns it from the files check_writers_and_readers wrote."""
    return [read(tmp_path / name).t_s for read, name in
            [(read_tracking_csv, "tracking.csv"), (read_loss_csv, "loss.csv"),
             (read_throughput_csv, "throughput.csv")]]


tick_arrays = hnp.arrays(np.int64, st.integers(0, 40), elements=st.integers(0, 2**53 - 1))


class TestTickTimes:
    def test_below_1000_s_the_text_is_format_sig(self, tmp_path):
        t_s = np.arange(10**6) / 1000
        texts, back = write_times(tmp_path, t_s)
        assert texts == ["%.6g" % t for t in t_s.tolist()]
        assert np.array_equal(bits(back), bits(t_s))

    @pytest.mark.parametrize("k, text", [
        (10**6 + 1, "1000.001"),
        (1234567, "1234.567"),
        # (2**53 - 1) / 1000 rounds to the float (2**53 - 2) / 1000, written as that tick
        (2**53 - 1, "9007199254740.99"),
    ])
    def test_exact_decimals_from_1000_s(self, k, text, tmp_path):
        texts, back = write_times(tmp_path, [k / 1000])
        assert texts == [text]
        assert np.array_equal(bits(back), bits([k / 1000]))

    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_tick_times_through_block_boundaries(self, n, tmp_path):
        # from 997.952 s, so the times past 1000 s differ from their '%.6g' text
        ticks = (10**6 - BLOCK // 2 + np.arange(n)) / 1000
        check_writers_and_readers(sample_values(n, seed=n), tmp_path, t_s=ticks)
        for back in read_times(tmp_path):
            assert np.array_equal(bits(back), bits(ticks))

    @settings(max_examples=60, deadline=None)
    @given(k=tick_arrays)
    def test_writers_match_per_cell_on_any_ticks(self, k, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("ticks")
        check_writers_and_readers(sample_values(len(k)), tmp_path, t_s=k / 1000)
        for back in read_times(tmp_path):
            assert np.array_equal(bits(back), bits(k / 1000))

    @pytest.mark.parametrize("odd", [-0.0, -0.001, math.nan, math.inf, -math.inf, 1e300,
                                     1000.0005, 2**53 / 1000])
    def test_a_block_with_another_time_falls_back(self, odd, tmp_path):
        # three blocks of ticks from 1000 s, where '%.6g' drops the milliseconds:
        # only the middle one, which holds `odd`, is written with '%.6g'
        t_s = (10**6 + np.arange(3 * BLOCK)) / 1000
        t_s[BLOCK + 7] = odd
        texts, back = write_times(tmp_path, t_s)
        assert texts[BLOCK:2 * BLOCK] == ["%.6g" % t for t in t_s[BLOCK:2 * BLOCK].tolist()]
        assert texts[:BLOCK] + texts[2 * BLOCK:] == [
            tick_text(t) for t in [*t_s[:BLOCK].tolist(), *t_s[2 * BLOCK:].tolist()]]
        assert texts[BLOCK + 8] == "1004.1"
        assert texts[2 * BLOCK + 1] == "1008.193"

    def test_a_block_mixing_milliseconds_and_1e12_s(self, tmp_path):
        t_s = [0.001, 1e12, 0.002, (10**15 + 1) / 1000, 0.0, 1.5]
        texts, back = write_times(tmp_path, t_s)
        assert texts == ["0.001", "1000000000000", "0.002", "1000000000000.001", "0", "1.5"]
        assert np.array_equal(bits(back), bits(t_s))

    @pytest.mark.parametrize("t", [1e306, -1e306, math.nan, math.inf, 5e-324, 1e12])
    def test_no_warning_escapes(self, t, tmp_path):
        # t * 1000 overflows at 1e306; NaN and inf are no ticks
        t_s = np.array([0.0, 0.001, t])
        values = np.array([1.0, 2.0, 3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            check_writers_and_readers(values, tmp_path, t_s=t_s)

    def test_times_from_1000_s_read_back_exact(self, tmp_path):
        ticks = np.arange(999990, 1000010) / 1000
        p = tmp_path / "loss.csv"
        write_loss_csv(p, LossSeries(t_s=ticks, loss_db=np.full(20, 13.7),
                                     link_up=np.ones(20, dtype=bool)))
        assert np.array_equal(bits(read_loss_csv(p).t_s), bits(ticks))

    def test_window_of_a_series_read_back_from_1000_s(self, tmp_path):
        # a 20-row tracking.csv cut from a longer run: window picks rows by t_s
        ticks = np.arange(999990, 1000010) / 1000
        p = tmp_path / "tracking.csv"
        write_tracking_csv(p, replace(tracking_from(np.zeros(20)), t_s=ticks))
        back = read_tracking_csv(p)
        assert np.array_equal(bits(back.t_s), bits(ticks))
        window = back.window(999.995, 1000.005)
        assert len(window) == 10
        assert np.array_equal(bits(window.t_s), bits(np.arange(999995, 1000005) / 1000))

    def test_window_of_a_series_starting_at_10_s(self):
        # rows by time, not by their position from t = 0
        series = replace(tracking_from(np.arange(100.0)), t_s=(10_000 + np.arange(100)) / 1000)
        window = series.window(10.02, 10.023)
        assert window.t_s.tolist() == [10.02, 10.021, 10.022]
        assert np.array_equal(window.fsm1_pitch_rad, series.fsm1_pitch_rad[20:23])
        with pytest.raises(ValueError, match="selects no samples"):
            series.window(0.0, 0.05)


class TestFlags:
    def test_every_producer_gives_bool(self, tmp_path, series, scenario):
        loss = loss_timeseries(series, scenario)
        write_tracking_csv(tmp_path / "t.csv", series)
        write_loss_csv(tmp_path / "l.csv", loss)
        back = read_tracking_csv(tmp_path / "t.csv")
        flags = [series.lock0, series.lock1, series.lock2, loss.link_up,
                 back.lock0, back.lock1, back.lock2, read_loss_csv(tmp_path / "l.csv").link_up]
        assert all(flag.dtype == np.bool_ for flag in flags)

    @pytest.mark.parametrize("name", ["lock0", "lock1", "lock2"])
    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.float64])
    def test_tracking_refuses_other_lock_dtypes(self, name, dtype, tmp_path, series):
        p = tmp_path / "t.csv"
        bad = replace(series, **{name: getattr(series, name).astype(dtype)})
        with pytest.raises(ValueError, match=rf"^{name} must be a bool array"):
            write_tracking_csv(p, bad)
        assert not p.exists()

    def test_loss_refuses_other_link_up_dtypes(self, tmp_path):
        p = tmp_path / "l.csv"
        bad = LossSeries(t_s=np.zeros(2), loss_db=np.zeros(2), link_up=np.array([0, 1]))
        with pytest.raises(ValueError, match=r"^link_up must be a bool array"):
            write_loss_csv(p, bad)
        assert not p.exists()


# ---------------------------------------------------------------------------
# reader faults and edge cases

READERS = {
    "tracking": (read_tracking_csv, fsio.TRACKING_HEADER, "0,Linked,1,2,3,4,5,6,1,0,1"),
    "loss": (read_loss_csv, fsio.LOSS_HEADER, "0,13.7,1"),
    "throughput": (read_throughput_csv, fsio.THROUGHPUT_HEADER, "0,9.15876"),
    "sweep": (read_sweep, fsio.SWEEP_HEADER, "100,0.385064,12.1235"),
}


def write_text(tmp_path, header, lines):
    p = tmp_path / "in.csv"
    p.write_text(header + "\n" + "".join(line + "\n" for line in lines))
    return p


def series_len(result):
    return len(result) if isinstance(result, np.ndarray) else len(result.t_s)


class TestReaderFaults:
    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_header_only_is_empty_without_warning(self, kind, tmp_path):
        read, header, _ = READERS[kind]
        p = write_text(tmp_path, header, [])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert series_len(read(p)) == 0

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_blank_and_whitespace_lines_skipped(self, kind, tmp_path):
        # empty lines, and the whitespace of '\r\n' and bare '\r' line ends,
        # read as in the plain '\n' file, across a block edge too; a line of
        # spaces or tabs is a malformed row (the next test)
        read, header, row = READERS[kind]
        rows = numbered_rows(row, READ_ROWS + 2)
        plain = arrays(read_quietly(read, write_text(tmp_path, header, rows)))
        lines = [header, "", *rows[:READ_ROWS - 1], "", "", *rows[READ_ROWS - 1:], "", ""]
        p = tmp_path / "ends.csv"
        for end in ["\n", "\r\n", "\r"]:
            p.write_bytes(end.join(lines).encode())
            for got, want in zip(arrays(read_quietly(read, p)), plain, strict=True):
                assert np.array_equal(got, want), repr(end)

    @pytest.mark.parametrize("kind", sorted(READERS))
    @pytest.mark.parametrize("fault", ["short", "long", "text", "empty", "space", "tab"])
    def test_malformed_row_names_file_and_line(self, kind, fault, tmp_path):
        read, header, row = READERS[kind]
        cells = row.split(",")
        bad = {
            "short": ",".join(cells[:-1]),
            "long": row + ",7",
            "text": ",".join(["abc", *cells[1:]]),
            "empty": ",".join(["", *cells[1:]]),
            # a whitespace-only line is a row of one cell, not a blank line
            "space": "  ",
            "tab": "\t",
        }[fault]
        # line 1 is the header and line 3 is blank, so the bad row is line 5
        p = write_text(tmp_path, header, [row, "", row, bad, row])
        with pytest.raises(ValueError, match=rf"in\.csv, line 5: "):
            read(p)

    def test_non_numeric_lock_flag_rejected(self, tmp_path):
        p = write_text(tmp_path, fsio.TRACKING_HEADER, ["0,Linked,1,2,3,4,5,6,1,x,1"])
        with pytest.raises(ValueError, match=r"line 2: lock1 cell 'x'"):
            read_tracking_csv(p)

    @pytest.mark.parametrize("name", ["lock0", "lock1", "lock2", "link_up"])
    @pytest.mark.parametrize("value", ["2", "-1", "127"])
    def test_flag_other_than_0_or_1_names_file_line_and_column(self, name, value, tmp_path):
        read, header, row = READERS["loss" if name == "link_up" else "tracking"]
        cells = row.split(",")
        cells[header.split(",").index(name)] = value
        p = write_text(tmp_path, header, [row, "", ",".join(cells), row])
        with pytest.raises(ValueError, match=rf"in\.csv, line 4: {name} cell '{value}' is not 0 or 1"):
            read(p)

    @pytest.mark.parametrize("name", ["Bogus", "linked", " Linked", "CoarseTrackX",
                                      "CoarseTrackCoarseTrack"])
    def test_unknown_state_names_file_and_line(self, name, tmp_path):
        # a name longer than every state must not be cut down to a valid one
        row = f"0.001,{name},1,2,3,4,5,6,1,0,1"
        p = write_text(tmp_path, fsio.TRACKING_HEADER,
                       ["0,Linked,1,2,3,4,5,6,1,0,1", "", row])
        with pytest.raises(ValueError, match=rf"in\.csv, line 4: unknown state '{name}'"):
            read_tracking_csv(p)

    def test_state_cell_is_a_whole_name_or_unknown(self):
        # a state's code is looked up from two bytes of its cell, then the
        # whole name is checked: every name with a byte changed, dropped or
        # added, and the empty cell, has no state (a cell's trailing NULs
        # are padding to numpy)
        names = [STATE_NAMES[s] for s in range(len(STATE_NAMES))]
        width = int(fsio._STATE_FIELD[1:])
        near = {name[:i] + c + name[i + 1:] for name in names for i in range(len(name) + 1)
                for c in ("x", "\0", "")} | {""}
        near = [cell for cell in near if cell.rstrip("\0") not in names and len(cell) <= width]
        codes, unknown = fsio._state_codes(np.array(names + near, dtype=fsio._STATE_FIELD))
        assert codes[:len(names)].tolist() == list(range(len(names)))
        assert unknown.tolist() == [False] * len(names) + [True] * len(near)


# ---------------------------------------------------------------------------
# readers parse _READ_ROWS rows at a time into preallocated columns

READ_ROWS = fsio._READ_ROWS


def numbered_rows(row, n):
    """n copies of a row whose first cell is its index: row i reads back as i."""
    rest = row[row.index(","):]
    return [f"{i}{rest}" for i in range(n)]


def first_column(result):
    return result[:, 0] if isinstance(result, np.ndarray) else result.t_s


def arrays(result):
    """Every array a reader returned."""
    if isinstance(result, np.ndarray):
        return [result]
    return [a for a in vars(result).values() if isinstance(a, np.ndarray)]


def read_quietly(read, path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return read(path)


class TestBlockReads:
    @pytest.mark.parametrize("kind", sorted(READERS))
    @pytest.mark.parametrize("n", [READ_ROWS - 1, READ_ROWS, READ_ROWS + 1, 2 * READ_ROWS + 1])
    def test_row_counts_around_block_edges(self, kind, n, tmp_path):
        read, header, row = READERS[kind]
        result = read_quietly(read, write_text(tmp_path, header, numbered_rows(row, n)))
        assert series_len(result) == n
        assert np.array_equal(first_column(result), np.arange(n))

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_last_row_without_newline_at_a_block_edge(self, kind, tmp_path):
        # the newline count bounds the rows only with the header's newline
        read, header, row = READERS[kind]
        p = tmp_path / "in.csv"
        p.write_text(header + "\n" + "\n".join(numbered_rows(row, READ_ROWS)))
        assert np.array_equal(first_column(read_quietly(read, p)), np.arange(READ_ROWS))

    @pytest.mark.parametrize("kind", sorted(READERS))
    @pytest.mark.parametrize("blank", ["", " ", "\t"])
    def test_blank_lines_across_a_block_edge(self, kind, blank, tmp_path):
        # empty lines are skipped; a whitespace-only line is a malformed row,
        # here the first one, after the header and READ_ROWS - 1 rows
        read, header, row = READERS[kind]
        rows = numbered_rows(row, READ_ROWS + 3)
        lines = rows[:READ_ROWS - 1] + [blank, blank] + rows[READ_ROWS - 1:READ_ROWS + 1]
        lines += [blank] + rows[READ_ROWS + 1:] + [blank]
        p = write_text(tmp_path, header, lines)
        if blank:
            with pytest.raises(ValueError, match=rf"in\.csv, line {READ_ROWS + 1}: 1 cells"):
                read(p)
        else:
            assert np.array_equal(first_column(read_quietly(read, p)), np.arange(READ_ROWS + 3))

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_bare_cr_line_endings_fall_back(self, kind, tmp_path):
        # no '\n' at all: the columns are sized by the '\r' line ends
        read, header, row = READERS[kind]
        p = tmp_path / "in.csv"
        p.write_bytes("\r".join([header, *numbered_rows(row, 5)]).encode() + b"\r")
        assert np.array_equal(first_column(read_quietly(read, p)), np.arange(5))

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_malformed_row_in_a_later_block(self, kind, tmp_path):
        read, header, row = READERS[kind]
        rows = numbered_rows(row, 2 * READ_ROWS)
        rows[READ_ROWS + 7] += ",7"
        p = write_text(tmp_path, header, rows)
        with pytest.raises(ValueError, match=rf"in\.csv, line {READ_ROWS + 9}: "
                                             rf"{len(row.split(',')) + 1} cells"):
            read(p)

    def test_unknown_state_in_a_later_block(self, tmp_path):
        rows = numbered_rows(READERS["tracking"][2], 2 * READ_ROWS)
        rows[READ_ROWS + 7] = rows[READ_ROWS + 7].replace("Linked", "Bogus")
        p = write_text(tmp_path, fsio.TRACKING_HEADER, rows)
        with pytest.raises(ValueError,
                           match=rf"in\.csv, line {READ_ROWS + 9}: unknown state 'Bogus'"):
            read_tracking_csv(p)

    @pytest.mark.parametrize("name, fault", [
        ("Linkéd", "unknown state 'Linkéd'"),  # Latin-1: parsed, but no state's name
        ("L€nked", "state cell 'L€nked' is not"),  # not Latin-1: np.loadtxt refuses it
    ])
    def test_non_ascii_state_names_file_and_line(self, name, fault, tmp_path):
        p = write_text(tmp_path, fsio.TRACKING_HEADER,
                       ["0,Linked,1,2,3,4,5,6,1,0,1", f"0.001,{name},1,2,3,4,5,6,1,0,1"])
        with pytest.raises(ValueError, match=rf"in\.csv, line 3: {fault}"):
            read_tracking_csv(p)

    @pytest.mark.parametrize("kind", sorted(READERS))
    @pytest.mark.parametrize("fault", ["long", "space"])
    def test_fault_in_the_third_block_checks_one_line(self, kind, fault, tmp_path, monkeypatch):
        # the search parses only the failing block, and asks _row_fault
        # about the one line it finds
        read, header, row = READERS[kind]
        rows = numbered_rows(row, 3 * READ_ROWS)
        rows[2 * READ_ROWS + 100] = {"long": rows[2 * READ_ROWS + 100] + ",7", "space": " "}[fault]
        asked = []
        row_fault = fsio._row_fault
        monkeypatch.setattr(fsio, "_row_fault", lambda line, dtype: asked.append(line)
                            or row_fault(line, dtype))
        with pytest.raises(ValueError, match=rf"in\.csv, line {2 * READ_ROWS + 102}: "):
            read(write_text(tmp_path, header, rows))
        assert asked == [rows[2 * READ_ROWS + 100] + "\n"]

    def test_peak_is_the_returned_arrays_and_one_block(self, tmp_path):
        p = write_text(tmp_path, fsio.TRACKING_HEADER,
                       numbered_rows(READERS["tracking"][2], 3 * READ_ROWS))
        assert traced_peak(read_tracking_csv, p) < peak_bound(read_tracking_csv(p))

    def test_whitespace_line_after_120_s_of_ticks_refused_in_one_block(self, tmp_path):
        # a 120 s tracking.csv, 120 000 rows, and then a line of one space:
        # refused by its line within the clean read's memory bound
        rows = numbered_rows(READERS["tracking"][2], 120_000)
        bound = peak_bound(read_tracking_csv(write_text(tmp_path, fsio.TRACKING_HEADER, rows)))
        p = write_text(tmp_path, fsio.TRACKING_HEADER, rows + [" "])
        with pytest.raises(ValueError, match=r"in\.csv, line 120002: 1 cells, expected 11"):
            read_tracking_csv(p)
        assert traced_peak(read_tracking_csv, p) < bound


def traced_peak(read, path):
    """The peak bytes tracemalloc traces while read(path) runs, raising or not."""
    tracemalloc.start()
    try:
        read(path)
    except ValueError:
        pass
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


def peak_bound(series):
    """What a tracking read may hold at its peak: the arrays it returns and
    one block's records."""
    names = fsio.TRACKING_HEADER.split(",")
    record = np.dtype([(names[0], "f8"), (names[1], fsio._STATE_FIELD)]
                      + [(name, "f8") for name in names[2:8]]
                      + [(name, "i1") for name in names[8:]])
    return sum(a.nbytes for a in arrays(series)) + READ_ROWS * record.itemsize
