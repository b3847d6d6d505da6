"""CSV and JSON serialization for series and run reports.

CSVs use '.' as the decimal separator and plain '\\n' line endings.  Tick
times (t_s = k / 1000 s) are written as their exact decimals; every other
number keeps 6 significant digits.  A written file re-parses to values that
format back to the identical text, so emitted artifacts are stable
round-trip.  Infinite loss samples are written as 'inf'.  Writers format a
block of rows with one %-format, and a cell that can take only a few texts
(a lock flag, a state name, a repeated rate) is looked up, not formatted.
A run's CSVs are also written a block of ticks at a time as its 1 kHz loop
runs (`TrackingCsv`, `RunCsvs`), with the same row formats and bytes.
Readers parse a block of rows with one np.loadtxt and copy it into one
array per field, sized from the file's count of line-end bytes, so a read
holds little more than the arrays it returns; a malformed row is named by
its line, found by searching only the block that holds it.  Neither goes
cell by cell in Python.
"""

from __future__ import annotations

import json
import warnings
from itertools import chain, islice
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Sequence, TextIO

import numpy as np

from .apt import TrackingSeries, tick_count, tick_window
from .link import LossSeries, ThroughputSeries, loss_timeseries, throughput_timeseries
from .states import NAME_TO_STATE, STATE_NAMES

if TYPE_CHECKING:
    from .scenario import Scenario

SWEEP_HEADER = "distance_m,diffraction_db,total_static_db"
TRACKING_HEADER = (
    "t_s,state,err_pitch_urad,err_az_urad,"
    "fsm1_p_urad,fsm1_a_urad,fsm2_p_urad,fsm2_a_urad,lock0,lock1,lock2"
)
# the series fields of the tracking CSV's six angle columns (urad), in order
_URAD_FIELDS = ("error_pitch_rad", "error_azimuth_rad", "fsm1_pitch_rad",
                "fsm1_azimuth_rad", "fsm2_pitch_rad", "fsm2_azimuth_rad")
LOSS_HEADER = "t_s,loss_db,link_up"
THROUGHPUT_HEADER = "t_s,rate_gbps"

# one row of a sweep CSV; the series writers build theirs block by block,
# with %.6g for a number they format and %s for a text they look up
_SWEEP_ROW = "%.6g,%.6g,%.6g\n"

# rows formatted together; bounds the text and the cells held at once
_BLOCK_ROWS = 4096
# the row format of a block of rows (a slice) and its cells, column by column
_Cells = Callable[[slice], tuple[str, Sequence]]

# tick times are whole milliseconds, t = k / 1000 s; a block of them is
# written as the text of k // 1000 followed by _TICK_FRACTION[k % 1000]:
# '' for a whole second, else '.001' ... '.999' as '%.6g' spells k / 1000
_MS_PER_S = 1000
_TICK_FRACTION = np.array([("%.6g" % (j / _MS_PER_S))[1:] for j in range(_MS_PER_S)],
                          dtype=object)
# while k is an exact float, k / 1000 is the float that k's decimal parses to
_MAX_TICK = 2.0**53

# lock0..2 as one cell, indexed by lock0 << 2 | lock1 << 1 | lock2, and link_up
_LOCK_TEXT = np.array([f"{i >> 2},{i >> 1 & 1},{i & 1}" for i in range(8)], dtype=object)
_FLAG_TEXT = np.array(["0", "1"], dtype=object)

# values _through_csv rounds together, and the powers of ten it scales by:
# float(10**k) is exact up to 10**22 (5**22 < 2**53)
_ROUND_BLOCK = 8192
_MAX_EXACT_POW10 = 22
_POW10 = np.array([float(10**k) for k in range(_MAX_EXACT_POW10 + 1)])

_STATE_NAME_OF = np.array([STATE_NAMES[s] for s in range(len(STATE_NAMES))], dtype=object)
# a state cell is read as bytes (np.loadtxt encodes it as Latin-1 and refuses
# any other text), one wider than any name, so that a longer cell is never cut
# to a valid name
_STATE_FIELD = f"S{max(map(len, NAME_TO_STATE)) + 1}"
_STATE_CODE_OF = {name.encode("ascii"): code for name, code in NAME_TO_STATE.items()}

# rows np.loadtxt parses at a time: the records of one block are all a
# reader holds beside the columns it returns
_READ_ROWS = 16384
# bytes read at a time to count a file's line ends
_COUNT_BYTES = 1 << 20


def _csv_blocks(n: int, cells: _Cells) -> Iterator[str]:
    """Text of rows 0..n-1, one string per block of _BLOCK_ROWS rows.

    cells(block) returns the block's row format and its cells column by
    column; each block is formatted with a single `row * k % (cells row by
    row)`.
    """
    for lo in range(0, n, _BLOCK_ROWS):
        row, block = cells(slice(lo, lo + _BLOCK_ROWS))
        columns = [np.asarray(c).tolist() for c in block]
        yield row * len(columns[0]) % tuple(chain.from_iterable(zip(*columns)))


def _row(*formats: str) -> str:
    return ",".join(formats) + "\n"


def _time_cells(t: np.ndarray) -> tuple[str, list]:
    """The format and cells of a block's t_s column.

    When every time is a tick, k / 1000 s with 0 <= k < 2**53 and the sign
    bit clear, each is written as its exact decimal from two looked-up
    texts: its whole seconds (formatted once per distinct value) and its
    fraction.  Below 1000 s that is the text '%.6g' writes.  Any other
    block is written with '%.6g'.
    """
    t = np.asarray(t, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN fall back
        k = np.rint(t * _MS_PER_S)
        ticks = (t == k / _MS_PER_S).all() and (k < _MAX_TICK).all()
    if not ticks or np.signbit(t).any():
        return "%.6g", [t]
    whole, at = np.divmod(k.astype(np.int64), _MS_PER_S)
    seconds, inverse = _distinct(whole)
    whole_text = np.array([str(w) for w in seconds.tolist()], dtype=object)
    return "%s%s", [whole_text[inverse], _TICK_FRACTION[at]]


def _distinct_cells(values: np.ndarray) -> np.ndarray:
    """'%.6g' of each value, formatted once per distinct bit pattern."""
    values = np.asarray(values, dtype=np.float64)
    distinct, inverse = _distinct(values.view(np.int64))
    text = np.array(["%.6g" % v for v in distinct.view(np.float64).tolist()], dtype=object)
    return text[inverse]


def _distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, sorted, and the index of each key among them.

    A search in np.unique's result, not its return_inverse: on numpy 2.4
    that argsort path read a peak RSS 1-3 MB higher over repeated
    track --out and run --out.
    """
    distinct = np.unique(keys)
    return distinct, np.searchsorted(distinct, keys)


def _flags(series: object, *names: str) -> list[np.ndarray]:
    """The flag arrays `names` of a series, which index the text tables, so
    must be bool: ValueError names the first that is not."""
    arrays = [np.asarray(getattr(series, name)) for name in names]
    for name, flag in zip(names, arrays):
        if flag.dtype != np.bool_:
            raise ValueError(f"{name} must be a bool array, not {flag.dtype}")
    return arrays


def _through_csv(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Each value as it reads back from a CSV number cell: float('%.6g' % v),
    into `out` (a new array by default; `values` itself rounds in place).

    Rounds in numpy, _ROUND_BLOCK values at a time.  With e = floor(log10|v|)
    and k = 5 - e, '%.6g' prints the six-digit integer r = round(|v| * 10**k)
    and float() reads back r / 10**k, correctly rounded.  For |k| <= 22, r
    and 10**|k| are exact floats, so one IEEE division (or product) gives
    that same float.  Only q = |v| * 10**k is inexact, by less than 2**-33,
    so rint(q) is r unless q is within 1e-9 of a tie.  Those values, values
    whose q is not a six-digit mantissa (a carry to seven digits or a
    misjudged exponent), NaN and |k| > 22 go through '%.6g' one by one;
    zeros and infinities read back as themselves.
    """
    if out is None:
        out = np.empty(len(values))
    with np.errstate(divide="ignore", invalid="ignore"):  # log10(0); inf - inf
        for lo in range(0, len(values), _ROUND_BLOCK):
            v = values[lo:lo + _ROUND_BLOCK]
            a = np.abs(v)
            k = 5.0 - np.floor(np.log10(a))
            exact = np.abs(k) <= _MAX_EXACT_POW10  # False for zero, inf and NaN
            k = np.where(exact, k, 0.0).astype(np.intp)
            up = k >= 0
            scale = _POW10[np.abs(k)]
            q = np.where(up, a * scale, a / scale)
            r = np.rint(q)
            exact &= (q > 1e5 + 0.5) & (q < 1e6 - 0.5) & (np.abs(q - r) < 0.5 - 1e-9)
            block = np.copysign(np.where(up, r / scale, r * scale), v)
            same = (a == 0.0) | (a == np.inf)
            block[same] = v[same]
            for i in np.flatnonzero(~(exact | same)):
                block[i] = float("%.6g" % v[i])
            out[lo:lo + len(v)] = block
    return out


def _write_rows(fh: TextIO, header: str, n: int, cells: _Cells) -> None:
    fh.write(header + "\n")
    fh.writelines(_csv_blocks(n, cells))


class _CsvFile:
    """A CSV file open for writing, its header written: rows are appended a
    block at a time.  An OSError raised in writing or closing the file (a
    full disk, say) names its path."""

    def __init__(self, path: str | Path, header: str):
        self.path = path
        self._fh = open(path, "w", encoding="utf-8", newline="")
        self._named(self._fh.write, header + "\n")

    def append(self, n: int, cells: _Cells) -> None:
        """Write rows 0..n-1 of cells."""
        self._named(self._fh.writelines, _csv_blocks(n, cells))

    def close(self) -> None:
        self._named(self._fh.close)

    def _named(self, write: Callable, *args) -> None:
        try:
            write(*args)
        except OSError as exc:
            if exc.filename is None and exc.errno is not None:
                exc.filename = str(self.path)
            raise


def _write_csv(path: str | Path, header: str, n: int, cells: _Cells) -> None:
    csv = _CsvFile(path, header)
    try:
        csv.append(n, cells)
    finally:
        csv.close()


def _loadtxt(lines, dtype: np.dtype, max_rows: int | None = None) -> np.ndarray:
    with warnings.catch_warnings():
        # a header-only file is an empty series, not a fault; nor is a block
        # that begins at the end of the file or holds a blank line
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        warnings.filterwarnings("ignore", r"Input line \d+ contained no data", UserWarning)
        return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1,
                          max_rows=max_rows)


def _row_fault(line: str, dtype: np.dtype) -> str | None:
    """Why one data line is not a row of dtype, or None."""
    cells = line.rstrip("\n").split(",")
    if len(cells) != len(dtype.names):
        return f"{len(cells)} cells, expected {len(dtype.names)}"
    for name, cell in zip(dtype.names, cells):
        if not cell.strip():
            return f"{name} cell is empty"
        try:
            value = _loadtxt([cell], dtype[name])
        except ValueError:
            return f"{name} cell {cell!r} is not a {dtype[name]} value"
        _, values, fault = _COLUMNS[dtype[name].kind]
        if values(value)[1].any():
            return fault.format(name=name, cell=cell)
    return None


def _state_codes(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The state code of each name in cells, and where no state has the name."""
    codes = np.full(len(cells), -1, dtype=np.int8)
    for name, code in _STATE_CODE_OF.items():
        codes[cells == name] = code
    return codes, codes < 0


# the column a field fills, by the kind of dtype its cells parse as: its
# dtype, the map from a block of cells to its values and to the cells with
# none (an integer other than 0 or 1, a negative one above 1 as a byte; a
# name no state has), and the fault of such a cell
_COLUMNS: dict[str, tuple[type, Callable[[np.ndarray], tuple], str]] = {
    "f": (np.float64, lambda cells: (cells, np.False_), ""),
    "i": (np.bool_, lambda cells: (cells == 1, cells.view(np.uint8) > 1),
          "{name} cell {cell!r} is not 0 or 1"),
    "S": (np.int8, _state_codes, "unknown state {cell!r}"),
}


def _line_ends(path: str | Path) -> int:
    """The number of '\\n' and '\\r' bytes in a file, read _COUNT_BYTES at a
    time: at least its number of line ends, whichever ending it uses."""
    count = 0
    with open(path, "rb") as fh:
        while block := fh.read(_COUNT_BYTES):
            codes = np.frombuffer(block, np.uint8)  # a third of the time bytes.count takes
            count += int(np.count_nonzero(codes == ord("\n")))
            if b"\r" in block:  # a tenth of the time of counting: most files hold none
                count += int(np.count_nonzero(codes == ord("\r")))
    return count


def _columns(dtype: np.dtype, rows: int) -> dict[str, np.ndarray]:
    return {name: np.empty(rows, dtype=_COLUMNS[dtype[name].kind][0]) for name in dtype.names}


def _put(columns: dict[str, np.ndarray], lines, dtype: np.dtype, at: int,
         max_rows: int | None = None) -> int | None:
    """Parse lines (a list, or max_rows rows of an open file) into rows at,
    at + 1, ... of the columns.  The number of rows, or None if a line is
    not a row of dtype or a cell has no value in its column."""
    try:
        records = _loadtxt(lines, dtype, max_rows)
    except ValueError:
        return None
    for name, column in columns.items():
        values, bad = _COLUMNS[dtype[name].kind][1](records[name])
        if bad.any():
            return None
        column[at:at + len(records)] = values
    return len(records)


def _fault(fh: TextIO, path: str | Path, dtype: np.dtype, start: int) -> ValueError:
    """The error naming the first bad line in the block of data rows from
    row `start` on: the block's lines are read again, numbered and without
    the empty lines np.loadtxt skips, and the span holding a bad line is
    halved until one line is left, about one block's parse in all."""
    fh.seek(0)
    fh.readline()
    numbered = ((number, line) for number, line in enumerate(fh, 2) if line != "\n")
    block = list(islice(numbered, start, start + _READ_ROWS))
    lo, hi = 0, len(block)  # block[lo:hi] holds a bad line, and none is before lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _put(_columns(dtype, mid - lo), [line for _, line in block[lo:mid]], dtype, 0) is None:
            hi = mid
        else:
            lo = mid
    number, line = block[lo]
    return ValueError(f"{path}, line {number}: {_row_fault(line, dtype)}")


def _read_csv(path: str | Path, header: str,
              fields: list[tuple[str, str]]) -> dict[str, np.ndarray]:
    """The columns of a CSV by field name, one row per non-empty line after
    the header.

    The columns are sized by the file's count of line-end bytes, which
    bounds its rows, and filled _READ_ROWS rows at a time, so that only one
    block's records are held beside them.  Raises ValueError naming the
    file and the line of the first malformed row.
    """
    dtype = np.dtype(fields)
    with open(path, "r", encoding="utf-8") as fh:
        found = fh.readline().rstrip("\n")
        if found != header:
            raise ValueError(f"unexpected CSV header {found!r}")
        columns = _columns(dtype, _line_ends(path))
        rows = 0
        # each block carries on where the last one ended
        while (block := _put(columns, fh, dtype, rows, _READ_ROWS)) == _READ_ROWS:
            rows += block
        if block is None:
            del columns  # the search for the bad line holds a block's lines instead
            raise _fault(fh, path, dtype, rows)
    return {name: column[:rows + block] for name, column in columns.items()}


# ---------------------------------------------------------------------------
# distance sweep

def _write_sweep(fh: TextIO, table: np.ndarray) -> None:
    _write_rows(fh, SWEEP_HEADER, len(table), lambda b: (_SWEEP_ROW, table[b].T))


def write_sweep_csv(path: str | Path, table: np.ndarray) -> None:
    """Write a (rows, 3) array of distance_sweep rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _write_sweep(fh, table)


# ---------------------------------------------------------------------------
# tracking

def _tracking_cells(s: TrackingSeries) -> _Cells:
    urad = [getattr(s, field) for field in _URAD_FIELDS]
    lock0, lock1, lock2 = _flags(s, "lock0", "lock1", "lock2")

    def cells(b: slice) -> tuple[str, list]:
        time, t = _time_cells(s.t_s[b])
        l0, l1, l2 = (lock[b].view(np.uint8) for lock in (lock0, lock1, lock2))
        locks = l0 << 2 | l1 << 1 | l2
        return (_row(time, "%s", *["%.6g"] * len(urad), "%s"),
                [*t, _STATE_NAME_OF[s.state[b]], *(a[b] * 1e6 for a in urad), _LOCK_TEXT[locks]])

    return cells


def write_tracking_csv(path: str | Path, series: TrackingSeries) -> None:
    _write_csv(path, TRACKING_HEADER, len(series.t_s), _tracking_cells(series))


def read_tracking_csv(path: str | Path) -> TrackingSeries:
    """Parse a tracking CSV.  Gimbal angles and the seed are not stored in
    the CSV; they come back zeroed."""
    names = TRACKING_HEADER.split(",")
    fields = [(names[0], "f8"), (names[1], _STATE_FIELD)]
    fields += [(name, "f8") for name in names[2:8]] + [(name, "i1") for name in names[8:]]
    columns = _read_csv(path, TRACKING_HEADER, fields)
    urad = {field: columns[name] for field, name in zip(_URAD_FIELDS, names[2:8])}
    for column in urad.values():
        column *= 1e-6
    n = len(columns["t_s"])
    return TrackingSeries(t_s=columns["t_s"], state=columns["state"], **urad,
                          gimbal_azimuth_rad=np.zeros(n), gimbal_pitch_rad=np.zeros(n),
                          lock0=columns["lock0"], lock1=columns["lock1"],
                          lock2=columns["lock2"], seed=0)


# ---------------------------------------------------------------------------
# loss / throughput

def _loss_cells(s: LossSeries) -> _Cells:
    (link_up,) = _flags(s, "link_up")

    def cells(b: slice) -> tuple[str, list]:
        time, t = _time_cells(s.t_s[b])
        return _row(time, "%.6g", "%s"), [*t, s.loss_db[b], _FLAG_TEXT[link_up[b].view(np.uint8)]]

    return cells


def write_loss_csv(path: str | Path, series: LossSeries) -> None:
    _write_csv(path, LOSS_HEADER, len(series.t_s), _loss_cells(series))


def read_loss_csv(path: str | Path) -> LossSeries:
    return LossSeries(**_read_csv(path, LOSS_HEADER,
                                  [("t_s", "f8"), ("loss_db", "f8"), ("link_up", "i1")]))


def _throughput_cells(s: ThroughputSeries) -> _Cells:
    def cells(b: slice) -> tuple[str, list]:
        time, t = _time_cells(s.t_s[b])
        return _row(time, "%s"), [*t, _distinct_cells(s.rate_gbps[b])]

    return cells


def write_throughput_csv(path: str | Path, series: ThroughputSeries) -> None:
    _write_csv(path, THROUGHPUT_HEADER, len(series.t_s), _throughput_cells(series))


def read_throughput_csv(path: str | Path) -> ThroughputSeries:
    return ThroughputSeries(**_read_csv(path, THROUGHPUT_HEADER,
                                        [("t_s", "f8"), ("rate_gbps", "f8")]))


# ---------------------------------------------------------------------------
# a run's CSVs, written as its 1 kHz loop runs
#
# Each is a `run_apt` sink: it is called with each block of ticks as the loop
# finishes it, and writes that block's rows, through the cells functions of
# the whole-series writers above, so the file has their bytes.

class TrackingCsv(_CsvFile):
    """The tracking.csv of a run, written block by block."""

    def __init__(self, path: str | Path):
        super().__init__(path, TRACKING_HEADER)

    def __call__(self, block: TrackingSeries) -> None:
        self.append(len(block.t_s), _tracking_cells(block))


class RunCsvs:
    """The loss.csv and throughput.csv of one seed of `fsosim run`, written
    block by block: the rows of the statistics window [t0_s, t1_s) of a run
    of t1_s seconds, their loss at CSV precision and their rate, as
    `cli.simulate_run` forms them."""

    def __init__(self, loss_path: str | Path, throughput_path: str | Path,
                 scenario: "Scenario", t0_s: float, t1_s: float):
        self._scenario = scenario
        self._window = tick_window(t0_s, t1_s, tick_count(t1_s))
        self._ticks = 0  # ticks handed over so far
        self._loss = _CsvFile(loss_path, LOSS_HEADER)
        try:
            self._throughput = _CsvFile(throughput_path, THROUGHPUT_HEADER)
        except OSError:
            self._loss.close()
            raise

    def __call__(self, block: TrackingSeries) -> None:
        lo = self._ticks
        self._ticks += len(block.t_s)
        start, stop = max(self._window.start, lo), min(self._window.stop, self._ticks)
        if start >= stop:
            return
        loss = loss_timeseries(block._rows(slice(start - lo, stop - lo)), self._scenario)
        _through_csv(loss.loss_db, out=loss.loss_db)
        throughput = throughput_timeseries(loss, self._scenario.transceiver)
        self._loss.append(len(loss.t_s), _loss_cells(loss))
        self._throughput.append(len(throughput.t_s), _throughput_cells(throughput))

    def close(self) -> None:
        try:
            self._loss.close()
        finally:
            self._throughput.close()


# ---------------------------------------------------------------------------
# reports

def canonical_json(payload: dict) -> str:
    """Deterministic JSON text: sorted keys, fixed separators, trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=True) + "\n"


def write_json(path: str | Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(canonical_json(payload))
