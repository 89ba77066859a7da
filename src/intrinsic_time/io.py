"""Tick-file ingestion and event/report serialization.

File formats are deliberately plain: tick files are two-column CSV
(``timestamp,price``), event files are CSV or JSON Lines with a fixed
field order. Every CSV written here starts with a ``#``-prefixed schema
version comment. One reader, ``_text_rows``, numbers the lines of every
file read here and skips blank lines, CSV comments and the header;
one writer, ``_write_event_rows``, formats every event row. Nanosecond
tick files are parsed and written in C when ``_scan.c`` is compiled: the
parser reads a strict subset of what ``_text_rows`` and ``float()`` read
and hands any other file to the Python row loop, so the result never
depends on the path taken. Prices are
serialized with 17 significant digits so numeric round-trips are
lossless. Writers go through a temp-file-then-rename step, so a failed
run never leaves a partial output behind, and the files they create
take their permissions from the umask.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import re
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, InvalidOperation, Overflow
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .engine import (EventArrays, EventKind, IntrinsicEvent, Mode, TickSeries, _in_int64,
                     _load_kernel, _whole)
from .errors import DomainError, IngestionError, WriteError

TICK_SCHEMA_COMMENT = "# intrinsic-time tick-csv v1"
EVENT_SCHEMA_COMMENT = "# intrinsic-time event-csv v1"
EVENT_FIELDS = ("kind", "direction", "timestamp_ns", "price", "delta", "clock_index")


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


class EventFileFormat(Enum):
    CSV = "csv"
    JSONL = "jsonl"


@dataclass(frozen=True)
class TickFileSpec:
    path: str | Path
    has_header: bool = True
    timestamp_unit: TimestampUnit = TimestampUnit.NANOS


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


def _read_bytes(path: Path) -> bytes:
    try:
        return path.read_bytes()
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


def _first_row_offset(data: bytes, has_header: bool) -> int | None:
    """The byte offset of the first line ``_text_rows`` yields for a tick file.

    None when a line before it is not UTF-8 or holds a line break other
    than LF, which ``str.splitlines`` would split where this does not.
    """
    start, header_pending = 0, has_header
    while start < len(data):
        end = data.find(b"\n", start)
        end = len(data) if end < 0 else end
        try:
            line = data[start:end].decode("utf-8")
        except UnicodeDecodeError:
            return None
        if len((line + "_").splitlines()) > 1:
            return None
        line = line.strip()
        if line and line[0] != "#":
            if not header_pending:
                return start
            header_pending = False
        start = end + 1
    return len(data)


def _parse_ticks_c(parse, data: bytes, has_header: bool):
    """``(timestamps, prices)`` of a nanosecond tick file through the C
    parser, or None when any line of it is outside the parser's grammar."""
    pos = _first_row_offset(data, has_header)
    if pos is None:
        return None
    cap = data.count(b"\n", pos) + 1
    ts = np.empty(cap, dtype=np.int64)
    px = np.empty(cap, dtype=np.float64)
    stop = ctypes.c_int64(pos)
    n = parse(data, len(data), stop, ts.ctypes.data, px.ctypes.data, cap)
    if stop.value < len(data):
        # The parser stops before a last row without its LF; give it one.
        if data.find(b"\n", stop.value) >= 0:
            return None
        tail = data[stop.value:] + b"\n"
        stop.value = 0
        n += parse(tail, len(tail), stop, ts[n:].ctypes.data, px[n:].ctypes.data, cap - n)
        if stop.value < len(tail):
            return None
    return ts[:n], px[:n]


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

    Nanosecond files go through the C parser when it is compiled; a file
    it does not read whole, or whose timestamps go backwards, is read
    again by the Python row loop, which raises the row-numbered error.
    """
    data = _read_bytes(Path(spec.path))
    kernel = _load_kernel()
    fast = None
    if kernel is not None and spec.timestamp_unit is TimestampUnit.NANOS:
        fast = _parse_ticks_c(kernel.parse_ticks, data, spec.has_header)
    if fast is not None and (allow_unordered or not (fast[0][1:] < fast[0][:-1]).any()):
        ts_arr, px_arr = fast
    else:
        ts_arr, px_arr = _parse_tick_rows(spec, data, allow_unordered)
    if allow_unordered and ts_arr.size > 1:
        order = np.argsort(ts_arr, kind="stable")
        ts_arr, px_arr = ts_arr[order], px_arr[order]
    return TickSeries(ts_arr, px_arr)


def _atomic_write(path: str | Path,
                  content: str | Iterable[bytes | memoryview]) -> None:
    """Write ``content`` (text, or blocks of UTF-8 bytes) to a fresh temp
    file beside ``path``, then rename it.

    The temp file is created with mode 0o666 less the umask, as ``open``
    creates files. On failure it is removed and WriteError is raised.
    """
    path = Path(path)
    blocks = [content.encode("utf-8")] if isinstance(content, str) else content
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


def _tick_blocks(format_ticks, series: TickSeries,
                 head: str) -> Iterator[bytes | memoryview]:
    """The tick file in blocks of at most 256 KiB, its rows formatted in C.

    Each block is a view of one reused buffer, valid until the next.
    """
    yield head.encode("utf-8")
    ts = np.ascontiguousarray(series.timestamps, dtype=np.int64)
    px = series.prices  # C-contiguous float64 (TickSeries guarantees it)
    buf = np.empty(1 << 18, dtype=np.uint8)
    row = ctypes.c_int64(0)
    while row.value < len(series):
        size = format_ticks(ts.ctypes.data, px.ctypes.data, len(series), row,
                            buf.ctypes.data, buf.size)
        if size < 0:
            raise MemoryError("cannot make a C locale to write ticks in")
        yield memoryview(buf)[:size]


def write_ticks(series: TickSeries, path: str | Path) -> None:
    """Write a tick CSV (nanosecond timestamps, versioned header).

    Rows are ``timestamp,price`` with the price in ``.17g``; the C writer,
    when compiled, writes the same bytes as the Python one.
    """
    head = f"{TICK_SCHEMA_COMMENT}\ntimestamp,price\n"
    kernel = _load_kernel()
    if kernel is not None:
        _atomic_write(path, _tick_blocks(kernel.format_ticks, series, head))
        return
    _atomic_write(path, head + "".join(
        f"{int(t)},{_fmt(p)}\n"
        for t, p in zip(series.timestamps.tolist(), series.prices.tolist())))


def _event_values(ts, price: float, delta: float, clock) -> tuple[int, float, float, int]:
    """The checked values of an event row, with ``ts`` and ``clock`` as ints;
    ValueError names the first value that an event file cannot hold."""
    whole_ts, whole_clock = _whole(ts), _whole(clock)
    if whole_ts is None:
        raise ValueError(f"timestamp_ns {ts!r} is not a whole number")
    if not _in_int64(whole_ts):
        raise ValueError(f"timestamp_ns {whole_ts!r} is outside the int64 range")
    if whole_clock is None or whole_clock < 0:
        raise ValueError(f"clock_index {clock!r} is not a whole number >= 0")
    if not 0.0 < price < math.inf:
        raise ValueError(f"price {price!r} is not positive and finite")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta {delta!r} is not in (0, 1)")
    return whole_ts, price, delta, whole_clock


def _write_event_rows(rows: Iterable[tuple], path: str | Path,
                      format: EventFileFormat) -> None:
    # float.__repr__ writes what json.dumps does, also for numpy float64s.
    if format is EventFileFormat.CSV:
        lines = [EVENT_SCHEMA_COMMENT, ",".join(EVENT_FIELDS)]
        lines += [f"{k},{d},{t},{p:.17g},{dl:.17g},{c}" for k, d, t, p, dl, c in rows]
    else:
        lines = [f'{{"kind":"{k}","direction":"{d}","timestamp_ns":{t},'
                 f'"price":{float.__repr__(float(p))},"delta":{float.__repr__(float(dl))},'
                 f'"clock_index":{c}}}' for k, d, t, p, dl, c in rows]
    _atomic_write(path, "\n".join(lines) + ("\n" if lines else ""))


def write_events(events: Sequence[IntrinsicEvent], path: str | Path,
                 format: EventFileFormat = EventFileFormat.CSV) -> None:
    """Serialize events losslessly to CSV or JSON Lines.

    CSV carries a version comment plus header even when empty; JSONL is
    one object per line and empty for an empty list. Field order is
    fixed: kind, direction, timestamp_ns, price, delta, clock_index.
    A price that is not positive and finite (``nan``, ``inf``), a delta
    outside (0, 1), a timestamp that is not a whole number inside int64
    or a clock index that is not a whole number >= 0 raises DomainError
    naming the event's position, and no file is written. Timestamps and
    clock indices are written as ``int(value)``, so ``2.0`` becomes ``2``.
    """
    rows = []
    for i, ev in enumerate(events):
        try:
            ts, price, delta, clock = _event_values(ev.timestamp, ev.price, ev.delta,
                                                    ev.clock_index)
        except ValueError as exc:
            raise DomainError(f"event {i}: {exc}") from None
        rows.append((ev.kind.value, ev.direction.name.lower(), ts, price, delta, clock))
    _write_event_rows(rows, path, format)


def _write_event_arrays(arrays: EventArrays, path: str | Path,
                        format: EventFileFormat) -> None:
    _write_event_rows(zip(np.where(arrays.kinds == 0, "DC", "OS").tolist(),
                          np.where(arrays.directions == 1, "up", "down").tolist(),
                          arrays.timestamps.tolist(), arrays.prices.tolist(),
                          [arrays.config.delta] * len(arrays), range(len(arrays))),
                      path, format)


def _event_from_fields(kind: str, direction: str, ts, price, delta,
                       clock) -> IntrinsicEvent:
    if direction not in ("up", "down"):
        raise ValueError(f"direction {direction!r} is not 'up' or 'down'")
    values = _event_values(int(ts), float(price), float(delta), int(clock))
    return IntrinsicEvent(EventKind(kind), Mode.UP if direction == "up" else Mode.DOWN, *values)


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


def read_events(path: str | Path,
                format: EventFileFormat = EventFileFormat.CSV) -> list[IntrinsicEvent]:
    """Parse an event file written by write_events.

    A malformed row raises IngestionError naming its 1-based line:
    bytes that are not UTF-8, a CSV header line other than
    ``kind,direction,timestamp_ns,price,delta,clock_index``, a wrong
    field count, a direction other than ``up`` or ``down``, a JSONL
    line that is not an object, a JSONL ``timestamp_ns`` or
    ``clock_index`` that is not a JSON integer or a ``price`` or
    ``delta`` that is not a JSON number, a timestamp outside int64, a
    negative clock index, a price that is not positive and finite, or
    a delta outside (0, 1).
    """
    csv = format is EventFileFormat.CSV
    events: list[IntrinsicEvent] = []
    header = ",".join(EVENT_FIELDS) if csv else False
    path = Path(path)
    for row_no, line in _text_rows(path, _read_bytes(path), comments=csv, header=header):
        try:
            fields = line.split(",") if csv else _jsonl_fields(line)
            if len(fields) != len(EVENT_FIELDS):
                raise ValueError(f"expected {len(EVENT_FIELDS)} fields")
            events.append(_event_from_fields(*fields))
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise IngestionError(f"row {row_no}: {exc}", row=row_no) from exc
    return events
