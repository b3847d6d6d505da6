"""Link-level series: per-sample loss, achievable throughput, summary statistics.

Loss samples are positive dB.  Ticks where no beacon is being tracked carry
math.inf as a "no link" sentinel; such samples are excluded from loss
statistics and counted into the downtime fraction instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

import numpy as np

from . import optics
from .states import LOCK_STATES

if TYPE_CHECKING:  # avoid runtime import cycles; both modules import this one
    from .apt import TrackingSeries
    from .scenario import Scenario

NO_LINK_LOSS_DB = math.inf


@dataclass(frozen=True)
class TransceiverSpec:
    """Fixed-rate transceiver with a hard sensitivity threshold."""

    rated_gbps: float
    effective_tcp_gbps: float
    tcp_efficiency: float
    max_tolerable_loss_db: float

    @property
    def link_rate_gbps(self) -> float:
        """Delivered TCP rate while the loss is within tolerance."""
        return self.effective_tcp_gbps * self.tcp_efficiency


@dataclass(frozen=True, eq=False)
class LossSeries:
    """Per-tick total link loss; same length and timestamps as its source,
    whose t_s array it holds (not a copy)."""

    t_s: np.ndarray
    loss_db: np.ndarray
    link_up: np.ndarray  # bool; False where loss is the no-link sentinel


@dataclass(frozen=True, eq=False)
class ThroughputSeries:
    """Per-tick achievable rate; t_s is its loss series' array (not a copy)."""

    t_s: np.ndarray
    rate_gbps: np.ndarray


@dataclass(frozen=True)
class SummaryStats:
    mean: float
    std: float
    minimum: float
    maximum: float
    count: int


def loss_timeseries(tracking: "TrackingSeries", scenario: "Scenario") -> LossSeries:
    """Total loss per tracking sample of a run of `scenario`.

    The loss is the budget's total at the scenario distance and each tick's
    radial pointing error.  When the scenario's fixed_loss_db is set (bench
    configurations with an inline attenuator) it replaces the modeled loss
    while in lock.  Out-of-lock ticks get the no-link sentinel.  The modeled
    loss is formed _SUM_BLOCK ticks at a time, so that the radial error and
    the budget's terms are never whole-series arrays.
    """
    in_lock = np.isin(tracking.state, [int(s) for s in LOCK_STATES])
    if scenario.fixed_loss_db is None:
        pitch, azimuth = tracking.error_pitch_rad, tracking.error_azimuth_rad
        loss = np.empty(in_lock.shape)
        for lo in range(0, loss.size, _SUM_BLOCK):
            radial = np.hypot(pitch[lo:lo + _SUM_BLOCK], azimuth[lo:lo + _SUM_BLOCK])
            loss[lo:lo + _SUM_BLOCK] = optics.link_budget(scenario, scenario.distance_m,
                                                          radial).total_db
    else:
        loss = np.full(in_lock.shape, float(scenario.fixed_loss_db))
    loss[~in_lock] = NO_LINK_LOSS_DB
    return LossSeries(t_s=tracking.t_s, loss_db=loss, link_up=in_lock)


def throughput_timeseries(loss: LossSeries, transceiver: TransceiverSpec) -> ThroughputSeries:
    """Hard-threshold rate: full TCP rate at or below the tolerable loss, else zero."""
    rate = np.where(
        loss.loss_db <= transceiver.max_tolerable_loss_db,
        transceiver.link_rate_gbps,
        0.0,
    )
    return ThroughputSeries(t_s=loss.t_s, rate_gbps=rate)


# loss_timeseries and _exact_sum work through their input in blocks of this
# many values
_SUM_BLOCK = 8192
# np.frexp writes a finite x as m * 2**e with 0.5 <= |m| < 1 and e from
# -1073 (the smallest subnormal) to 1024; m * 2**53 is then an integer
_MIN_EXP = -1073
_EXP_BINS = 1024 - _MIN_EXP + 1
_LOW_MASK = (1 << 26) - 1
# _fsum hands math.fsum a list of this many Python floats at a time; a list
# of 8192 read a peak RSS about 0.3 MB higher for the same speed
_FSUM_BLOCK = 1024


class _Formed:
    """form(*columns) of equal-length arrays, formed a slice at a time as
    _blocks asks for it, never whole; `low` and `high` are the least and
    greatest value formed so far, NaN once one is NaN."""

    def __init__(self, form: Callable[..., np.ndarray], columns: tuple[np.ndarray, ...]):
        self._form, self._columns, self.size = form, columns, columns[0].size
        self.low, self.high = math.inf, -math.inf

    def __getitem__(self, rows: slice) -> np.ndarray:
        block = self._form(*(column[rows] for column in self._columns))
        self.low = np.minimum(self.low, block.min())
        self.high = np.maximum(self.high, block.max())
        return block


def _blocks(values: np.ndarray | _Formed, centre: float | None,
            size: int) -> Iterator[np.ndarray]:
    """values, size values at a time, each block's (values - centre) ** 2
    when a centre is given."""
    for start in range(0, values.size, size):
        block = values[start:start + size]
        yield block if centre is None else (block - centre) ** 2


def _exact_sum(values: np.ndarray | _Formed, centre: float | None = None) -> float:
    """math.fsum(values) for a float64 array or a _Formed, the same float
    bit for bit; with a centre, math.fsum((values - centre) ** 2), the
    squares formed one block at a time.

    Each value is an integer below 2**53 times 2**(e - 53).  The integers
    of one exponent are summed in 26-bit halves, one block at a time, so
    every float64 partial sum stays below 2**40 and is exact.  One Python
    int then takes the exact total, and one int division rounds it
    correctly, as fsum does.  Non-finite values, totals whose magnitude
    could overflow inside fsum, and zero totals (fsum picks the sign of
    zero) are left to math.fsum, except a zero total of squares: squares
    are never -0.0, so theirs is +0.0.
    """
    low_sums = np.zeros(_EXP_BINS, dtype=np.int64)
    high_sums = np.zeros(_EXP_BINS, dtype=np.int64)
    top = _MIN_EXP
    for block in _blocks(values, centre, _SUM_BLOCK):
        if not np.isfinite(block).all():
            return _fsum(values, centre)
        mantissa, exponent = np.frexp(block)
        ints = (mantissa * 2.0**53).astype(np.int64)
        top = max(top, int(exponent.max()))
        bins = exponent - _MIN_EXP
        low_sums += np.bincount(bins, weights=ints & _LOW_MASK,
                                minlength=_EXP_BINS).astype(np.int64)
        high_sums += np.bincount(bins, weights=ints >> 26,
                                 minlength=_EXP_BINS).astype(np.int64)
    # every |value| is below 2**top, so the sum of magnitudes is below
    # 2**(top + bit_length(n)); fsum's partials stay within a few times that
    used = np.flatnonzero(low_sums | high_sums)
    if used.size == 0 and centre is not None:
        return 0.0
    if used.size == 0 or top + values.size.bit_length() > 1020:
        return _fsum(values, centre)
    first = int(used[0])
    total = 0
    for k, low, high in zip(used.tolist(), low_sums[used].tolist(), high_sums[used].tolist()):
        total += ((high << 26) + low) << (k - first)
    if total == 0:
        return _fsum(values, centre)
    scale = first + _MIN_EXP - 53
    return float(total << scale) if scale >= 0 else total / (1 << -scale)


def _fsum(values: np.ndarray | _Formed, centre: float | None = None) -> float:
    """math.fsum of what _exact_sum sums, given the same floats as Python
    floats, one block's list at a time: faster than over numpy scalars,
    without a list of them all."""
    blocks = (block.tolist() for block in _blocks(values, centre, _FSUM_BLOCK))
    return math.fsum(chain.from_iterable(blocks))


def summarize(values: Iterable[float] | tuple[np.ndarray, ...],
              form: Callable[..., np.ndarray] | None = None) -> SummaryStats:
    """Mean/population-std/min/max from exactly rounded sums.

    Both sums are exactly rounded (math.fsum's result, see _exact_sum) and
    so independent of the order of the samples: repeated runs over the same
    samples give identical statistics.  With `form`, the samples are
    form(*values) of a tuple of equal-length arrays, an elementwise
    function formed a block at a time by each sum, never whole.
    """
    columns = tuple(np.asarray(c, dtype=float) for c in (values if form else (values,)))
    if len({column.size for column in columns}) > 1:
        raise ValueError("summarize's arrays must have one length")
    data = _Formed(form or (lambda column: column), columns)
    n = data.size
    if n == 0:
        raise ValueError("summarize requires at least one value")
    mean = _exact_sum(data) / n
    var = _exact_sum(data, mean) / n
    return SummaryStats(
        mean=mean,
        std=math.sqrt(var),
        minimum=float(data.low),
        maximum=float(data.high),
        count=int(n),
    )


def loss_statistics(loss: LossSeries) -> SummaryStats:
    """Summary of the finite (in-lock) loss samples."""
    values = loss.loss_db
    if not np.isfinite(values).all():
        values = values[np.isfinite(values)]
    return summarize(values)


def downtime_fraction(loss: LossSeries, transceiver: TransceiverSpec) -> float:
    """Share of samples whose loss exceeds the tolerable maximum (sentinel included)."""
    if loss.loss_db.size == 0:
        raise ValueError("empty loss series")
    down = np.count_nonzero(~(loss.loss_db <= transceiver.max_tolerable_loss_db))
    return down / loss.loss_db.size
