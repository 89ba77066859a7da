"""Tick-file ingestion and event/report serialization.

File formats are deliberately plain: tick files are two-column CSV
(``timestamp,price``), event files are CSV or JSON Lines with a fixed
field order. Every CSV written here starts with a ``#``-prefixed schema
version comment; readers skip comment lines. Prices are serialized with
17 significant digits so numeric round-trips are lossless. Writers go
through a temp-file-then-rename step, so a failed run never leaves a
partial output behind.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .engine import EventKind, IntrinsicEvent, Mode, TickSeries
from .errors import IngestionError, WriteError

TICK_SCHEMA_COMMENT = "# intrinsic-time tick-csv v1"
EVENT_SCHEMA_COMMENT = "# intrinsic-time event-csv v1"
EVENT_FIELDS = ("kind", "direction", "timestamp_ns", "price", "delta", "clock_index")


class TickFileFormat(Enum):
    CSV_TIMESTAMP_PRICE = "csv"


class TimestampUnit(Enum):
    SECONDS = "s"
    MILLIS = "ms"
    NANOS = "ns"


_UNIT_SCALE = {
    TimestampUnit.SECONDS: 10**9,
    TimestampUnit.MILLIS: 10**6,
    TimestampUnit.NANOS: 1,
}


class EventFileFormat(Enum):
    CSV = "csv"
    JSONL = "jsonl"


@dataclass(frozen=True)
class TickFileSpec:
    path: str | Path
    format: TickFileFormat = TickFileFormat.CSV_TIMESTAMP_PRICE
    has_header: bool = True
    timestamp_unit: TimestampUnit = TimestampUnit.NANOS


def _parse_timestamp(text: str, unit: TimestampUnit) -> int:
    if unit is TimestampUnit.NANOS:
        return int(text)
    # Decimal keeps e.g. epoch seconds with fractional digits exact.
    return int(Decimal(text) * _UNIT_SCALE[unit])


def parse_ticks(spec: TickFileSpec, allow_unordered: bool = False) -> TickSeries:
    """Read a tick CSV into a TickSeries, normalizing timestamps to ns.

    Strict by default: a non-positive or non-finite price, or a backwards
    timestamp, raises IngestionError naming the 1-based file row. With
    ``allow_unordered`` the rows are stably sorted by timestamp instead.
    """
    path = Path(spec.path)
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from exc

    timestamps: list[int] = []
    prices: list[float] = []
    header_pending = spec.has_header
    prev_ts: int | None = None
    for row_no, line in enumerate(raw.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if header_pending:
            header_pending = False
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise IngestionError(
                f"row {row_no}: expected 'timestamp,price', got {line!r}", row=row_no)
        try:
            ts = _parse_timestamp(parts[0].strip(), spec.timestamp_unit)
        except (ValueError, InvalidOperation) as exc:
            raise IngestionError(
                f"row {row_no}: bad timestamp {parts[0]!r}", row=row_no) from exc
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

    ts_arr = np.array(timestamps, dtype=np.int64)
    px_arr = np.array(prices, dtype=np.float64)
    if allow_unordered and ts_arr.size > 1:
        order = np.argsort(ts_arr, kind="stable")
        ts_arr, px_arr = ts_arr[order], px_arr[order]
    return TickSeries(ts_arr, px_arr)


def _atomic_write(path: str | Path, text: str) -> None:
    path = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."),
                                   prefix=f".{path.name}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise WriteError(f"cannot write {path}: {exc}") from exc


def _fmt(x: float) -> str:
    return format(x, ".17g")


def write_ticks(series: TickSeries, path: str | Path) -> None:
    """Write a tick CSV (nanosecond timestamps, versioned header)."""
    lines = [TICK_SCHEMA_COMMENT, "timestamp,price"]
    lines.extend(f"{int(t)},{_fmt(p)}"
                 for t, p in zip(series.timestamps.tolist(), series.prices.tolist()))
    _atomic_write(path, "\n".join(lines) + "\n")


def _event_record(ev: IntrinsicEvent) -> tuple:
    return (ev.kind.value, "up" if ev.direction is Mode.UP else "down",
            ev.timestamp, ev.price, ev.delta, ev.clock_index)


def write_events(events: Sequence[IntrinsicEvent], path: str | Path,
                 format: EventFileFormat = EventFileFormat.CSV) -> None:
    """Serialize events losslessly to CSV or JSON Lines.

    CSV carries a version comment plus header even when empty; JSONL is
    one object per line and empty for an empty list. Field order is
    fixed: kind, direction, timestamp_ns, price, delta, clock_index.
    """
    if format is EventFileFormat.CSV:
        lines = [EVENT_SCHEMA_COMMENT, ",".join(EVENT_FIELDS)]
        for ev in events:
            kind, direction, ts, price, delta, clock = _event_record(ev)
            lines.append(f"{kind},{direction},{ts},{_fmt(price)},{_fmt(delta)},{clock}")
        _atomic_write(path, "\n".join(lines) + "\n")
    else:
        lines = []
        for ev in events:
            kind, direction, ts, price, delta, clock = _event_record(ev)
            lines.append(json.dumps(
                {"kind": kind, "direction": direction, "timestamp_ns": ts,
                 "price": price, "delta": delta, "clock_index": clock},
                separators=(",", ":")))
        _atomic_write(path, "\n".join(lines) + ("\n" if lines else ""))


def _event_from_fields(kind: str, direction: str, ts, price, delta,
                       clock) -> IntrinsicEvent:
    return IntrinsicEvent(
        kind=EventKind(kind),
        direction=Mode.UP if direction == "up" else Mode.DOWN,
        timestamp=int(ts),
        price=float(price),
        delta=float(delta),
        clock_index=int(clock),
    )


def read_events(path: str | Path,
                format: EventFileFormat = EventFileFormat.CSV) -> list[IntrinsicEvent]:
    """Parse an event file written by write_events."""
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from exc
    events: list[IntrinsicEvent] = []
    if format is EventFileFormat.CSV:
        header_pending = True
        for row_no, line in enumerate(raw.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header_pending:
                header_pending = False
                continue
            parts = line.split(",")
            if len(parts) != len(EVENT_FIELDS):
                raise IngestionError(
                    f"row {row_no}: expected {len(EVENT_FIELDS)} fields", row=row_no)
            try:
                events.append(_event_from_fields(*parts))
            except (ValueError, KeyError) as exc:
                raise IngestionError(f"row {row_no}: {exc}", row=row_no) from exc
    else:
        for row_no, line in enumerate(raw.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                events.append(_event_from_fields(
                    obj["kind"], obj["direction"], obj["timestamp_ns"],
                    obj["price"], obj["delta"], obj["clock_index"]))
            except (ValueError, KeyError) as exc:
                raise IngestionError(f"row {row_no}: {exc}", row=row_no) from exc
    return events
