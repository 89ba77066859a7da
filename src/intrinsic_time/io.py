"""Tick-file ingestion and event/report serialization.

File formats are deliberately plain: tick files are two-column CSV
(``timestamp,price``), event files are CSV or JSON Lines with a fixed
field order. Every CSV written here starts with a ``#``-prefixed schema
version comment. One reader, ``_text_rows``, numbers the lines of every
file read here and skips blank lines, CSV comments and the header. When
``_scan.c`` is compiled, nanosecond tick files and event files are parsed
in C into columns, from which ``engine._events`` builds the events. Tick
and event files share one number grammar in C, JSON's, and one exact
codec: every timestamp, every price or delta of at most 19 significant
digits and 22 after the point without an exponent, and ``.17g`` of every
price in [1e-6, 2**53) take integer arithmetic, other numbers ``strtod``
and ``snprintf``, to the same values and text. Each C parser reads a
strict subset of what its Python row loop reads; one loop, ``_parse_c``,
reads the file one block at a time, carries the row a block cuts into the
next, resumes the parser past each blank, comment or header line wherever
it stands, and hands a file with any other line to the row loop, which
reads it whole from its first byte and stays the spec: the result and
every error never depend on the path taken or the block size. Every tick
and event file is written by one loop, ``_c_blocks``: a head, then blocks
of rows from a C writer, and wherever it writes nothing rows from a Python
template, its spec (``write_ticks``' own; ``_event_rows`` after
``_event_head`` for event files): from the row C stops at, runs that
double while C writes nothing, or without the kernel bounded runs. Event
lists and scan arrays share one event writer, ``_write_event_columns``,
whose C writer leaves each JSON Lines row with a price outside
[1e-3, 2**52), subnormal too. CSV prices are serialized with 17 significant
digits and JSON Lines prices as ``repr`` writes them, so numeric
round-trips are lossless. Writers go through a temp-file-then-rename step,
so a failed run never leaves a partial output behind, and the files they
create take their permissions from the umask.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import json
import math
import operator
import os
import re
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, InvalidOperation, Overflow
from enum import Enum
from io import BytesIO
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

from .engine import (_BUILD_DTYPES, EventArrays, EventKind, IntrinsicEvent, Mode, TickInput,
                     TickSeries, _build_events, _collector_paused, _events, _in_int64,
                     _load_kernel, _whole, as_tick_series)
from .errors import ConfigurationError, DomainError, IngestionError, OrderingError, WriteError

TICK_SCHEMA_COMMENT = "# intrinsic-time tick-csv v1"
EVENT_SCHEMA_COMMENT = "# intrinsic-time event-csv v1"
EVENT_FIELDS = ("kind", "direction", "timestamp_ns", "price", "delta", "clock_index")
EVENT_HEADER = ",".join(EVENT_FIELDS)


class TimestampUnit(Enum):
    SECONDS = "s"
    MILLIS = "ms"
    NANOS = "ns"


_UNIT_EXPONENT = {TimestampUnit.SECONDS: 9, TimestampUnit.MILLIS: 6}
# Decimal arithmetic that never rounds: scaling by a power of ten is exact.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)
# A well-formed number with an exponent, which Decimal refuses when the
# exponent is past its limit.
_EXPONENT_FORM = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)[eE]([+-]?)[0-9]+")
_FIRST_ROWS = 1 << 16  # the most rows of the first columns ``_parse_c`` fills
# The block size of every file read and written here: the bytes ``_parse_c``
# reads at a time, and the buffer the C writers fill and hand on.
_BLOCK_BYTES = 1 << 18
_TEMPLATE_ROWS = 1 << 12  # the most rows of one template call: about a block of text


class EventFileFormat(Enum):
    CSV = "csv"
    JSONL = "jsonl"


def _member(enum: type[Enum], value, what: str):
    """``value`` as a member of ``enum``: a member, or its value such as
    ``"csv"``; anything else raises ConfigurationError naming ``what``."""
    try:
        return enum(value)
    except ValueError:
        raise ConfigurationError(f"unknown {what} {value!r}") from None


@dataclass(frozen=True)
class TickFileSpec:
    """A tick file to read; ``timestamp_unit`` may be a unit's value, e.g. ``"ms"``."""

    path: str | Path
    has_header: bool = True
    timestamp_unit: TimestampUnit = TimestampUnit.NANOS

    def __post_init__(self):
        object.__setattr__(self, "timestamp_unit",
                           _member(TimestampUnit, self.timestamp_unit, "timestamp unit"))


def _parse_timestamp(text: str, unit: TimestampUnit) -> int:
    if unit is TimestampUnit.NANOS:
        value = int(text)
    else:
        try:
            value = Decimal(text)
        except InvalidOperation:
            # Decimal refuses an exponent past its limit (about 10**18 in
            # size); with one, a number other than zero is far outside int64
            # or below 1 ns.
            form = _EXPONENT_FORM.fullmatch(text)
            if form is None:
                raise
            value = Decimal(form[1])
            if value != 0 and form[2] == "-":
                raise ValueError("not a whole number of nanoseconds") from None
            if value != 0:
                raise OverflowError("outside the int64 nanosecond range") from None
        value = value.scaleb(_UNIT_EXPONENT[unit], _EXACT)
    # The range is checked first, on the exact Decimal, so a huge exponent
    # is refused before it becomes a huge int.
    if not _in_int64(value):
        raise OverflowError("outside the int64 nanosecond range")
    ts = _whole(value)
    if ts is None:
        raise ValueError("not a whole number of nanoseconds")
    return ts


@contextlib.contextmanager
def _opened(path: Path) -> Iterator[tuple[BinaryIO, int]]:
    """``path`` open for reading from byte 0, and its size (0 where the
    system does not know it). A stream that cannot seek, such as a pipe, is
    read whole first, so that a reader can still go back to byte 0. An
    OSError while the file is opened or read raises IngestionError."""
    try:
        with open(path, "rb", buffering=0) as fh:
            if fh.seekable():
                yield fh, os.fstat(fh.fileno()).st_size
            else:
                data = fh.read()
                yield BytesIO(data), len(data)
    except OSError as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from exc


def _text_rows(path: Path, data: bytes, comments: bool,
               header: bool | str) -> Iterator[tuple[int, str]]:
    """Yield ``(row, line)`` for the data lines of ``data``, read from ``path``.

    Rows count from 1 over every line of the file. Blank lines, ``#``
    lines when ``comments`` is set, and the first remaining line when
    ``header`` is set are skipped; a ``header`` string must equal that
    line. Bytes that are not UTF-8 raise IngestionError.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Count the bad byte's row the way splitlines numbers the rows below.
        row = len((exc.object[:exc.start].decode("utf-8") + "_").splitlines())
        raise IngestionError(
            f"row {row}: {path} is not valid UTF-8: {exc.reason}", row=row) from exc
    header_pending = bool(header)
    for row_no, line in enumerate(map(str.strip, text.splitlines()), start=1):
        if not line or comments and line[0] == "#":
            continue
        if header_pending:
            header_pending = False
            if header is not True and line != header:
                raise IngestionError(
                    f"row {row_no}: expected header {header!r}, got {line!r}", row=row_no)
            continue
        yield row_no, line


def _read_on(fh: BinaryIO, rest: bytes) -> tuple[bytes, bool]:
    """``rest`` and the next block of ``fh``, or the blocks up to the first
    that holds a LF, and whether the file ended. ``rest`` holds no LF, so at
    the end of the file they are its last line, which gets a LF."""
    blocks = [rest]
    while block := fh.read(_BLOCK_BYTES):
        blocks.append(block)
        if b"\n" in block:
            return b"".join(blocks), False
    last = b"".join(blocks)
    return last + b"\n" if last else last, True


def _parse_c(parse, fh: BinaryIO, size: int, comments: bool, header: bool | str,
             dtypes: Sequence[np.dtype]) -> list[np.ndarray] | None:
    """The columns of the data rows of the file ``fh``, of ``size`` bytes
    (0 if unknown), read by a C row parser one block at a time, or None
    when the row loop must read the file.

    ``parse(buf, len, *pos, *columns, cap)`` reads rows from ``buf[*pos]``
    into one array per dtype, returns how many, and leaves ``*pos`` where
    it stopped. It stops before a line without LF, so the line that a block
    cuts is carried into the next block, and a line longer than a block is
    read on to its LF. At every other stop, the line there is read by
    ``_text_rows``' rules ``comments`` and ``header``: a blank line, a
    comment or the header (once) is skipped and the parse resumes after it.
    Any other line gives None, as does one that is not UTF-8 or holds a
    break other than LF. Only the blocks, the carried line and the columns
    are held, and the columns returned hold their rows and no more.
    """
    # a row takes at least 4 bytes
    cap = min(size // 4 + 1, _FIRST_ROWS) if size else _FIRST_ROWS
    columns = [np.empty(cap, dtype=dtype) for dtype in dtypes]
    # each column's address and item size, once per allocation: ``.ctypes``
    # costs microseconds, and a file of comments resumes the parser per line
    at = [(c.ctypes.data, c.itemsize) for c in columns]
    pos, n, header_pending = ctypes.c_int64(0), 0, bool(header)
    (data, eof), base = _read_on(fh, b""), 0  # base: the file offset of data[0]
    while True:
        # a header in the grammar must not be read as a row
        if not header_pending and n < cap and pos.value < len(data):
            n += parse(data, len(data), pos, *[a + n * width for a, width in at], cap - n)
        start = pos.value
        end = data.find(b"\n", start)
        if end < 0 and eof:  # at the end of data, which ends in LF
            for c in columns:  # no view of it is left: its spare rows are freed in place
                c.resize(n, refcheck=False)
            return columns
        if end < 0:  # the block ends inside the line at start, or at it
            data, eof = _read_on(fh, data[start:])
            base, pos.value = base + start, 0
            continue
        if n == cap:  # full: resume into columns sized by the mean row so far, at least double
            cap = max(2 * cap, n * size // (base + start) * 17 // 16)  # 1/16 spare
            columns, full = [np.empty(cap, c.dtype) for c in columns], columns
            for new, old in zip(columns, full):
                new[:n] = old  # not np.pad, which would touch every page of the spare rows
            at = [(c.ctypes.data, c.itemsize) for c in columns]
            continue
        try:
            line = data[start:end].decode("utf-8")
        except UnicodeDecodeError:
            return None
        if len((line + "_").splitlines()) > 1:
            return None
        line = line.strip()
        if line and not (comments and line[0] == "#"):  # neither blank nor a comment
            if not header_pending or header is not True and line != header:
                return None
            header_pending = False
        pos.value = end + 1


def _parse_tick_rows(spec: TickFileSpec, data: bytes, allow_unordered: bool):
    """``(timestamps, prices)`` of a tick file, read row by row in Python."""
    timestamps: list[int] = []
    prices: list[float] = []
    prev_ts: int | None = None
    for row_no, line in _text_rows(Path(spec.path), data, comments=True,
                                   header=spec.has_header):
        parts = line.split(",")
        if len(parts) != 2:
            raise IngestionError(
                f"row {row_no}: expected 'timestamp,price', got {line!r}", row=row_no)
        try:
            ts = _parse_timestamp(parts[0].strip(), spec.timestamp_unit)
        except (ValueError, InvalidOperation) as exc:
            raise IngestionError(
                f"row {row_no}: bad timestamp {parts[0]!r}", row=row_no) from exc
        except (OverflowError, Overflow) as exc:
            raise IngestionError(
                f"row {row_no}: timestamp {parts[0].strip()} is outside the int64"
                " nanosecond range", row=row_no) from exc
        try:
            price = float(parts[1])
        except ValueError as exc:
            raise IngestionError(
                f"row {row_no}: bad price {parts[1]!r}", row=row_no) from exc
        if not 0.0 < price < math.inf:
            raise IngestionError(
                f"row {row_no}: price {parts[1].strip()} is not positive and finite",
                row=row_no)
        if not allow_unordered and prev_ts is not None and ts < prev_ts:
            raise IngestionError(
                f"row {row_no}: timestamp {ts} precedes previous {prev_ts}"
                " (pass allow_unordered to sort)", row=row_no)
        prev_ts = ts
        timestamps.append(ts)
        prices.append(price)
    return np.array(timestamps, dtype=np.int64), np.array(prices, dtype=np.float64)


def parse_ticks(spec: TickFileSpec, allow_unordered: bool = False) -> TickSeries:
    """Read a tick CSV into a TickSeries, normalizing timestamps to ns.

    Strict by default: a file that is not UTF-8, a non-positive or
    non-finite price, a timestamp that is not a whole number of
    nanoseconds inside int64, or a backwards timestamp raises
    IngestionError naming the 1-based file row. The header line, if
    any, may name its columns freely. With ``allow_unordered`` the rows
    are stably sorted by timestamp instead.

    Nanosecond files go through the C parser when it is compiled, which
    reads the file one block at a time and skips blank lines, comments and
    the header wherever they stand; a file with any other line outside its
    grammar, or whose timestamps go backwards, is read again from its first
    byte by the Python row loop, which raises the row-numbered error.
    """
    kernel = _load_kernel()
    with _opened(Path(spec.path)) as (fh, size):
        if kernel is not None and spec.timestamp_unit is TimestampUnit.NANOS:
            columns = _parse_c(kernel.parse_ticks, fh, size, True, spec.has_header,
                               (np.int64, np.float64))
            if columns is not None:
                with contextlib.suppress(OrderingError):  # the row loop names the row
                    return _tick_series(*columns, allow_unordered)
        fh.seek(0)
        return _tick_series(*_parse_tick_rows(spec, fh.read(), allow_unordered),
                            allow_unordered)


def _tick_series(ts: np.ndarray, px: np.ndarray, allow_unordered: bool) -> TickSeries:
    """The TickSeries of parsed columns, stably sorted by timestamp first
    with ``allow_unordered``."""
    if allow_unordered and ts.size > 1:
        order = np.argsort(ts, kind="stable")
        ts, px = ts[order], px[order]
    return TickSeries(ts, px)


def _atomic_write(path: str | Path, blocks: Iterable[bytes | memoryview]) -> None:
    """Write ``blocks`` of UTF-8 bytes to a fresh temp file beside ``path``,
    then rename it.

    The temp file is created with mode 0o666 less the umask, as ``open``
    creates files. On failure, also one raised while the blocks are made,
    it is removed; an OSError is raised as WriteError.
    """
    path = Path(path)
    try:
        tmp = path.parent / f".{path.name}.{os.urandom(8).hex()}.tmp"
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb") as fh:
                for block in blocks:
                    fh.write(block)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise WriteError(f"cannot write {path}: {exc}") from exc


def _fmt(x: float | None, spec: str = ".17g", blank: str = "") -> str:
    """``x`` formatted by ``spec`` (lossless by default), ``blank`` for None."""
    return blank if x is None else format(x, spec)


def _c_blocks(head: str, n: int, format_rows,
              python_rows) -> Iterator[bytes | memoryview]:
    """A file of ``head`` and ``n`` rows in blocks, as every writer here writes.

    ``format_rows(row, buf, cap)``, a C writer or None, formats the rows
    from ``row.value`` on into the ``cap`` bytes at ``buf`` and moves
    ``row`` past them. Where it writes nothing, the template
    ``python_rows(start, stop)`` formats rows from there: 1, then twice as
    many each time C writes nothing again, up to ``_TEMPLATE_ROWS`` (at
    once without a C writer). Each C block is a view of one reused buffer,
    valid until the next.
    """
    yield head.encode("utf-8")
    buf = np.empty(_BLOCK_BYTES, dtype=np.uint8)
    row, address = ctypes.c_int64(0), buf.ctypes.data
    chunk = _TEMPLATE_ROWS if format_rows is None else 1
    while row.value < n:
        size = format_rows(row, address, buf.size) if format_rows else 0
        if size > 0:
            yield memoryview(buf)[:size]
            chunk = 1
        else:
            stop = min(row.value + chunk, n)
            yield python_rows(row.value, stop).encode("utf-8")
            row.value, chunk = stop, min(2 * chunk, _TEMPLATE_ROWS)


def write_ticks(series: TickInput, path: str | Path) -> None:
    """Write a tick CSV (nanosecond timestamps, versioned header) of what
    ``as_tick_series`` takes. Rows are ``timestamp,price`` with the price in
    ``.17g``; the C writer, when compiled, writes the template's bytes.
    """
    series, kernel = as_tick_series(series), _load_kernel()
    ts, px = series.timestamps, series.prices  # C-contiguous (TickSeries guarantees it)
    _atomic_write(path, _c_blocks(
        f"{TICK_SCHEMA_COMMENT}\ntimestamp,price\n", len(series),
        kernel and functools.partial(kernel.format_ticks, ts.ctypes.data, px.ctypes.data,
                                     len(series)),
        # the rows of a tick file: the spec of it_format_ticks
        lambda start, stop: "".join([f"{t},{p:.17g}\n" for t, p in zip(
            ts[start:stop].tolist(), px[start:stop].tolist())])))


def _event_values(ts, price, delta, clock) -> tuple[int, float, float, int]:
    """The checked values of an event row as ``(int, float, float, int)``;
    ValueError names the first value that an event file cannot hold."""
    whole_ts, whole_clock = _whole(ts), _whole(clock)
    if whole_ts is None:
        raise ValueError(f"timestamp_ns {ts!r} is not a whole number")
    if not _in_int64(whole_ts):
        raise ValueError(f"timestamp_ns {whole_ts!r} is outside the int64 range")
    if whole_clock is None or whole_clock < 0:
        raise ValueError(f"clock_index {clock!r} is not a whole number >= 0")
    if not 0.0 < (real_price := _real(price)) < math.inf:
        raise ValueError(f"price {price!r} is not positive and finite")
    if not 0.0 < (real_delta := _real(delta)) < 1.0:
        raise ValueError(f"delta {delta!r} is not in (0, 1)")
    return whole_ts, real_price, real_delta, whole_clock


def _real(value) -> float:
    """``value`` as a float; nan for a bool, an array, ``"1.5"``, None or ``10**400``."""
    if type(value) is float:  # the common case, at a fraction of the cost
        return value
    try:
        real = not isinstance(value, (bool, np.bool_, np.ndarray)) and value < math.inf
        return float(value) if real else math.nan
    except (TypeError, ValueError, ArithmeticError):
        return math.nan


def _member_code(field: str, value, enum: type[Enum]) -> int:
    """The column code of ``value``; ValueError when it is not an ``enum`` member."""
    if type(value) is not enum:
        raise ValueError(f"{field} {value!r} is not a member of {enum.__name__}")
    return int(value is EventKind.OVERSHOOT) if enum is EventKind else value.value


# the event-file text of each kind code (0, 1) and direction code (+1, -1)
_KIND_TEXT, _DIRECTION_TEXT = ("DC", "OS"), {1: "up", -1: "down"}


def _event_head(format: EventFileFormat) -> str:
    """The lines of an event file before its rows."""
    return f"{EVENT_SCHEMA_COMMENT}\n{EVENT_HEADER}\n" if format is EventFileFormat.CSV else ""


def _event_rows(rows: Iterable[tuple], format: EventFileFormat) -> str:
    """The lines of the event rows ``rows``: the spec of ``it_format_events``."""
    # float.__repr__ writes what json.dumps does, also for numpy float64s.
    if format is EventFileFormat.CSV:
        return "".join([f"{k},{d},{t},{p:.17g},{dl:.17g},{c}\n" for k, d, t, p, dl, c in rows])
    return "".join([f'{{"kind":"{k}","direction":"{d}","timestamp_ns":{t},'
                    f'"price":{float.__repr__(float(p))},"delta":{float.__repr__(float(dl))},'
                    f'"clock_index":{c}}}\n' for k, d, t, p, dl, c in rows])


def _event_columns(rows: list[tuple]) -> list[list]:
    """The six columns of a list of event rows. ``map`` with ``itemgetter``
    takes about a quarter of the time of ``zip(*rows)``, and gives six empty
    columns for no rows."""
    return [list(map(operator.itemgetter(j), rows)) for j in range(len(EVENT_FIELDS))]


def _write_event_columns(path: str | Path, format: EventFileFormat, kinds, directions,
                         timestamps, prices, deltas, clocks) -> None:
    """The one event writer, from six checked columns: ``it_format_events``
    writes the rows, given every run of equal deltas and the text of each
    distinct delta at once, the ``_event_rows`` template each row it leaves,
    or every row without the kernel or with a clock past int64."""
    kernel, jsonl = _load_kernel(), format is EventFileFormat.JSONL
    columns = [np.ascontiguousarray(column, dtype=dtype) for column, dtype in (
        (kinds, np.int8), (directions, np.int8), (timestamps, np.int64), (prices, np.float64))]
    deltas = np.asarray(deltas, dtype=np.float64)
    try:
        clocks = np.ascontiguousarray(clocks, dtype=np.int64)
    except OverflowError:
        clocks, kernel = np.array(clocks, dtype=object), None
    format_rows = None
    if kernel is not None:
        starts = np.flatnonzero(deltas[1:] != deltas[:-1]) + 1
        run_ends = np.append(starts, len(deltas)).astype(np.int64)
        # each run's delta as its index among the distinct deltas, formatted once
        values, run_texts = np.unique(np.concatenate((deltas[:1], deltas[starts])),
                                      return_inverse=True)
        run_texts = run_texts.astype(np.int64)
        texts = [(float.__repr__ if jsonl else _fmt)(delta) for delta in values.tolist()]
        text_at = np.cumsum([0, *map(len, texts)], dtype=np.int64)
        # the arrays behind the pointers are kept alive by these locals
        format_rows = functools.partial(
            kernel.format_events, *[c.ctypes.data for c in (*columns, clocks)],
            len(run_ends), run_ends.ctypes.data, run_texts.ctypes.data,
            "".join(texts).encode("ascii"), text_at.ctypes.data, jsonl)

    def python_rows(start, stop):
        kind, direction, *rest = (c[start:stop].tolist() for c in (*columns, deltas, clocks))
        return _event_rows(zip(map(_KIND_TEXT.__getitem__, kind),
                               map(_DIRECTION_TEXT.__getitem__, direction), *rest), format)

    _atomic_write(path, _c_blocks(_event_head(format), len(deltas), format_rows, python_rows))


def write_events(events: Sequence[IntrinsicEvent], path: str | Path,
                 format: EventFileFormat | str = EventFileFormat.CSV) -> None:
    """Serialize events losslessly to CSV or JSON Lines.

    CSV carries a version comment plus header even when empty; JSONL is
    one object per line and empty for an empty list. Field order is
    fixed: kind, direction, timestamp_ns, price, delta, clock_index.
    A kind that is not an EventKind, a direction that is not a Mode, a
    price that is not a positive finite number (``nan``, ``"1.5"``, None,
    ``True``, an array, ``10**400``), a delta that is not a number in
    (0, 1), a timestamp that is not a whole number inside int64 or a clock
    index that is not a whole number >= 0 raises DomainError naming the
    event's position, and no file is written. Timestamps and clock indices
    are written as ``int(value)``, so ``2.0`` becomes ``2``, prices and
    deltas as ``float(value)``. ``format`` is an EventFileFormat or its
    value (``"csv"``, ``"jsonl"``); any other value raises ConfigurationError.
    """
    format = _member(EventFileFormat, format, "event file format")
    rows = []
    with _collector_paused():  # the rows are tuples of numbers, which make no cycle
        for i, ev in enumerate(events):
            try:
                rows.append((_member_code("kind", ev.kind, EventKind),
                             _member_code("direction", ev.direction, Mode),
                             *_event_values(ev.timestamp, ev.price, ev.delta, ev.clock_index)))
            except ValueError as exc:
                raise DomainError(f"event {i}: {exc}") from None
    _write_event_columns(path, format, *_event_columns(rows))


def _write_event_arrays(arrays: EventArrays, path: str | Path, format: EventFileFormat) -> None:
    """What ``write_events`` writes for ``events_from_arrays(arrays)``."""
    _write_event_columns(path, format, arrays.kinds, arrays.directions, arrays.timestamps,
                         arrays.prices, np.broadcast_to(arrays.config.delta, len(arrays)),
                         np.arange(len(arrays), dtype=np.int64))


def _event_row(kind: str, direction: str, ts, price, delta, clock) -> tuple:
    """One row of the ``_build_events`` columns, from the six raw fields of a file row."""
    if direction not in _DIRECTION_TEXT.values():
        raise ValueError(f"direction {direction!r} is not 'up' or 'down'")
    values = _event_values(int(ts), float(price), float(delta), int(clock))
    if kind not in _KIND_TEXT:
        raise ValueError(f"kind {kind!r} is not 'DC' or 'OS'")
    return (_KIND_TEXT.index(kind), 1 if direction == _DIRECTION_TEXT[1] else -1, *values)


def _jsonl_fields(line: str) -> list:
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {line!r}")
    fields = [obj[name] for name in EVENT_FIELDS]
    for name in ("timestamp_ns", "clock_index"):
        if type(obj[name]) is not int:
            raise ValueError(f"{name} {obj[name]!r} is not an integer")
    for name in ("price", "delta"):
        if type(obj[name]) not in (int, float):
            raise ValueError(f"{name} {obj[name]!r} is not a number")
    return fields


def _read_event_rows(path: Path, data: bytes, csv: bool) -> list[IntrinsicEvent]:
    """The events of an event file, read row by row in Python: the spec of
    ``it_parse_events``, and the only reader that names a bad row."""
    rows = []
    header = EVENT_HEADER if csv else False
    with _collector_paused():  # the rows are tuples of numbers, which make no cycle
        for row_no, line in _text_rows(path, data, comments=csv, header=header):
            try:
                fields = line.split(",") if csv else _jsonl_fields(line)
                if len(fields) != len(EVENT_FIELDS):
                    raise ValueError(f"expected {len(EVENT_FIELDS)} fields")
                rows.append(_event_row(*fields))
            except (ValueError, KeyError, TypeError, OverflowError) as exc:
                raise IngestionError(f"row {row_no}: {exc}", row=row_no) from exc
    return _build_events(*_event_columns(rows))


def read_events(path: str | Path,
                format: EventFileFormat | str = EventFileFormat.CSV) -> list[IntrinsicEvent]:
    """Parse an event file written by write_events.

    A malformed row raises IngestionError naming its 1-based line:
    bytes that are not UTF-8, a CSV header line other than
    ``kind,direction,timestamp_ns,price,delta,clock_index``, a wrong
    field count, a direction other than ``up`` or ``down``, a JSONL
    line that is not an object, a JSONL ``timestamp_ns`` or
    ``clock_index`` that is not a JSON integer or a ``price`` or
    ``delta`` that is not a JSON number, a timestamp outside int64, a
    negative clock index, a price that is not positive and finite, or
    a delta outside (0, 1). ``format`` is taken as by write_events.

    When the C kernel is loaded, ``it_parse_events`` reads the file into
    columns, one block at a time, skipping blank lines, CSV comments and
    the header wherever they stand, and ``engine._events`` builds the
    events from them; a file with any other line outside its grammar goes
    to the Python row loop, which reads it again from its first byte and
    raises the row-numbered error. The result never depends on the path
    taken.
    """
    csv = _member(EventFileFormat, format, "event file format") is EventFileFormat.CSV
    path, kernel = Path(path), _load_kernel()
    with _opened(path) as (fh, size):
        if kernel is not None:
            columns = _parse_c(lambda buf, length, pos, *rest:
                               kernel.parse_events(buf, length, pos, not csv, *rest),
                               fh, size, csv, EVENT_HEADER if csv else False, _BUILD_DTYPES)
            if columns is not None:  # a file of one delta passes one float, as arrays do
                delta = None
                if columns[4].size and columns[4].min() == columns[4].max():
                    delta, columns[4] = columns[4].item(0), None
                return _events(columns, delta)
        fh.seek(0)
        return _read_event_rows(path, fh.read(), csv)
