"""Streaming detection of directional-change and overshoot events.

A runner watches one price stream at one threshold. While the market
trends, the runner tracks the trend extremum; once the price retraces
from that extremum by the threshold, a directional-change (DC) event
fires and the trend flips. After a DC, every further threshold-sized
advance of the new trend fires an overshoot (OS) event. The resulting
event sequence is the intrinsic-time representation of the series at
that threshold: it ticks fast in active markets and slows down in
quiet ones.

Two move conventions are supported. ``RELATIVE`` measures moves as
(to - from) / from; ``LOG_RETURN`` uses ln(to / from), which makes up
and down moves symmetric and the event sequence invariant under price
rescaling.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import os
import platform
import shutil
import tempfile
import threading
import warnings
import zlib
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Union

import numpy as np

from .errors import (
    ConfigurationError,
    ConsistencyError,
    DomainError,
    EmptyInputError,
    OrderingError,
)

# Threshold comparisons allow this relative slack so that moves that are
# exactly one threshold in real arithmetic (e.g. 99 -> 98.01 at 1%) still
# register despite binary rounding of the decimal inputs.
BOUNDARY_TOLERANCE = 1e-12


class Mode(Enum):
    """Trend direction of a runner."""

    UP = 1
    DOWN = -1

    @property
    def flipped(self) -> "Mode":
        return Mode.DOWN if self is Mode.UP else Mode.UP


class EventKind(Enum):
    DIRECTIONAL_CHANGE = "DC"
    OVERSHOOT = "OS"


class MoveConvention(Enum):
    RELATIVE = "relative"
    LOG_RETURN = "log"


class Tick(NamedTuple):
    """One price observation: integer nanoseconds since epoch, positive price."""

    timestamp: int
    price: float


@dataclass(frozen=True)
class TickSeries:
    """Column-oriented tick buffer: int64 nanosecond timestamps, float64 prices.

    Validates on construction: equal lengths, strictly positive and finite
    prices, non-decreasing timestamps. Iterating yields ``Tick`` tuples.
    """

    timestamps: np.ndarray
    prices: np.ndarray

    def __post_init__(self):
        ts = np.ascontiguousarray(self.timestamps, dtype=np.int64)
        px = np.ascontiguousarray(self.prices, dtype=np.float64)
        if ts.ndim != 1 or px.ndim != 1 or ts.shape != px.shape:
            raise DomainError("timestamps and prices must be 1-d arrays of equal length")
        valid = (px > 0.0) & (px < np.inf)
        if not bool(np.all(valid)):
            bad = int(np.argmax(~valid))
            raise DomainError(
                f"price {float(px[bad])!r} at position {bad} is not positive and finite")
        if ts.size > 1 and bool(np.any(np.diff(ts) < 0)):
            bad = int(np.argmax(np.diff(ts) < 0)) + 1
            raise OrderingError(f"timestamp decreases at position {bad}")
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "prices", px)

    def __len__(self) -> int:
        return int(self.timestamps.size)

    def __iter__(self) -> Iterator[Tick]:
        for t, p in zip(self.timestamps.tolist(), self.prices.tolist()):
            yield Tick(t, p)

    def __getitem__(self, i: int) -> Tick:
        return Tick(int(self.timestamps[i]), float(self.prices[i]))

    @property
    def span_ns(self) -> int:
        """Time covered by the series, 0 for fewer than two ticks."""
        if len(self) < 2:
            return 0
        return int(self.timestamps[-1] - self.timestamps[0])


TickInput = Union[TickSeries, Iterable]


def as_tick_series(ticks: TickInput) -> TickSeries:
    """Coerce a TickSeries, an iterable of Tick, or (timestamp, price) pairs."""
    if isinstance(ticks, TickSeries):
        return ticks
    data = list(ticks)
    ts = np.array([int(t[0]) for t in data], dtype=np.int64)
    px = np.array([float(t[1]) for t in data], dtype=np.float64)
    return TickSeries(ts, px)


@dataclass(frozen=True)
class ThresholdConfig:
    """One intrinsic-time scale: threshold fraction plus move convention."""

    delta: float
    move_convention: MoveConvention = MoveConvention.RELATIVE

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise ConfigurationError(f"delta must be in (0, 1), got {self.delta!r}")
        if not isinstance(self.move_convention, MoveConvention):
            raise ConfigurationError(f"unknown move convention {self.move_convention!r}")


@dataclass(frozen=True)
class IntrinsicEvent:
    """One tick of intrinsic time.

    ``price`` and ``timestamp`` come from the tick that triggered the
    event; ``clock_index`` is the event's position in the runner's
    output, starting at 0.
    """

    kind: EventKind
    direction: Mode
    timestamp: int
    price: float
    delta: float
    clock_index: int


@dataclass
class RunnerState:
    """Mutable per-threshold state machine state.

    ``os_reference_price`` is the base of the overshoot grid: after a DC
    it starts at the confirmation price and advances by exactly one
    threshold step per emitted overshoot. ``dc_confirm_price`` is unset
    until the first DC; no overshoot can fire before it.
    """

    mode: Mode
    extremum_price: float
    os_reference_price: float
    dc_count_since_init: int = 0
    intrinsic_clock: int = 0
    dc_confirm_price: float | None = None
    last_timestamp: int = 0


def relative_move(from_price: float, to_price: float,
                  convention: MoveConvention = MoveConvention.RELATIVE) -> float:
    """Signed fractional move from one price to another.

    RELATIVE returns (to - from) / from, LOG_RETURN returns ln(to / from).
    """
    if not (from_price > 0.0) or not (to_price > 0.0):
        raise DomainError(
            f"prices must be positive, got {from_price!r} -> {to_price!r}")
    if convention is MoveConvention.LOG_RETURN:
        return math.log(to_price / from_price)
    return (to_price - from_price) / from_price


def _threshold_steps(config: ThresholdConfig) -> tuple[float, float, float]:
    """(guard, up_factor, down_factor) shared by ``step`` and the batch scans.

    A move triggers once it reaches ``guard``; each overshoot advances the
    overshoot reference by one factor. Exponentials come from libm through
    ``math``, like every log in the scans, so all paths round alike.
    """
    delta = config.delta
    guard = delta * (1.0 - BOUNDARY_TOLERANCE)
    if config.move_convention is MoveConvention.LOG_RETURN:
        return guard, math.exp(delta), math.exp(-delta)
    return guard, 1.0 + delta, 1.0 - delta


def new_runner(config: ThresholdConfig, initial_tick: Tick,
               initial_mode: Mode = Mode.UP) -> RunnerState:
    """Fresh runner state anchored at the first tick."""
    ts, price = int(initial_tick[0]), float(initial_tick[1])
    if not (0.0 < price < math.inf):
        raise DomainError(f"initial price must be positive and finite, got {price!r}")
    return RunnerState(
        mode=initial_mode,
        extremum_price=price,
        os_reference_price=price,
        dc_count_since_init=0,
        intrinsic_clock=0,
        dc_confirm_price=None,
        last_timestamp=ts,
    )


def step(state: RunnerState, tick: Tick,
         config: ThresholdConfig) -> tuple[RunnerState, list[IntrinsicEvent]]:
    """Advance the runner by one tick; mutates and returns the state.

    In UP mode: a higher tick extends the trend, updating the extremum
    and emitting one overshoot per full threshold increment the price
    has crossed on the overshoot grid (only after the first DC). A tick
    that retraces at least one threshold from the extremum emits exactly
    one DC, flips the mode, and re-anchors extremum, overshoot reference
    and confirmation price at the tick price. DOWN mode is the mirror
    image. Gap ticks may emit several overshoots but never more than
    one DC.
    """
    ts, price = int(tick[0]), float(tick[1])
    if not (0.0 < price < math.inf):
        raise DomainError(f"price must be positive and finite, got {price!r}")
    if ts < state.last_timestamp:
        raise OrderingError(
            f"timestamp {ts} precedes previous tick at {state.last_timestamp}")
    state.last_timestamp = ts

    delta = config.delta
    guard, up_factor, down_factor = _threshold_steps(config)
    use_log = config.move_convention is MoveConvention.LOG_RETURN

    def move(base: float) -> float:
        return math.log(price / base) if use_log else (price - base) / base

    events: list[IntrinsicEvent] = []

    def emit(kind: EventKind, direction: Mode) -> None:
        events.append(IntrinsicEvent(kind, direction, ts, price, delta,
                                     state.intrinsic_clock))
        state.intrinsic_clock += 1

    if state.mode is Mode.UP:
        if price > state.extremum_price:
            state.extremum_price = price
            if state.dc_confirm_price is not None:
                while move(state.os_reference_price) >= guard:
                    emit(EventKind.OVERSHOOT, Mode.UP)
                    state.os_reference_price *= up_factor
        elif move(state.extremum_price) <= -guard:
            emit(EventKind.DIRECTIONAL_CHANGE, Mode.DOWN)
            state.mode = Mode.DOWN
            state.extremum_price = price
            state.os_reference_price = price
            state.dc_confirm_price = price
            state.dc_count_since_init += 1
    else:
        if price < state.extremum_price:
            state.extremum_price = price
            if state.dc_confirm_price is not None:
                while move(state.os_reference_price) <= -guard:
                    emit(EventKind.OVERSHOOT, Mode.DOWN)
                    state.os_reference_price *= down_factor
        elif move(state.extremum_price) >= guard:
            emit(EventKind.DIRECTIONAL_CHANGE, Mode.UP)
            state.mode = Mode.UP
            state.extremum_price = price
            state.os_reference_price = price
            state.dc_confirm_price = price
            state.dc_count_since_init += 1

    return state, events


# The batch scan runs in C (``_scan.c``), compiled with the system ``cc`` on
# first use and cached by a checksum of source and flags: beside this module
# in ``__pycache__/``, else in the user's cache directory. Without a working
# compiler, ``_scan_python`` runs the same loop.
_KERNEL_SOURCE = Path(__file__).with_name("_scan.c")
_KERNEL_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
_UNLOADED = object()
_kernel = _UNLOADED  # the loaded C function, or None on the Python fallback
_kernel_lock = threading.Lock()


def _kernel_cache_dirs() -> list[Path]:
    dirs = [_KERNEL_SOURCE.parent / "__pycache__"]
    user = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    if os.path.isabs(user):
        dirs.append(Path(user) / "intrinsic_time")
    return dirs


def _compile_kernel(cache_dirs: list[Path]):
    """The C scan function, compiled into the first writable cache directory.

    Returns None when no compiler is on PATH. A compiler or loader that
    fails, or no writable cache directory, also gives None, reported with
    a RuntimeWarning.
    """
    source = _KERNEL_SOURCE.read_bytes()
    key = zlib.crc32(source + repr((_KERNEL_FLAGS, platform.machine())).encode())
    name = f"_scan-{key:08x}.so"
    for directory in cache_dirs:
        if os.path.isfile(directory / name):
            return _bind_kernel(directory / name)
    cc = shutil.which("cc")
    if cc is None:
        return None
    import subprocess  # only needed to compile

    for directory in cache_dirs:
        try:
            directory.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix="_scan-", suffix=".tmp", dir=directory)
        except OSError:
            continue  # not writable: try the next directory
        os.close(fd)
        try:
            subprocess.run([cc, *_KERNEL_FLAGS, "-o", tmp, str(_KERNEL_SOURCE), "-lm"],
                           check=True, capture_output=True, timeout=300)
            os.replace(tmp, directory / name)
        except (OSError, subprocess.SubprocessError) as exc:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            detail = (getattr(exc, "stderr", None) or b"").decode(errors="replace")
            warnings.warn(f"cannot compile the C scan kernel ({exc}) {detail.strip()}; "
                          "using the slower Python scan", RuntimeWarning)
            return None
        return _bind_kernel(directory / name)
    warnings.warn("no writable cache directory for the C scan kernel; "
                  "using the slower Python scan", RuntimeWarning)
    return None


def _bind_kernel(path: Path):
    try:
        scan = ctypes.CDLL(str(path)).it_scan
    except OSError as exc:
        warnings.warn(f"cannot load the C scan kernel {path}: {exc}; "
                      "using the slower Python scan", RuntimeWarning)
        return None
    ptr, i64, f64, c_int = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double, ctypes.c_int
    scan.argtypes = [ptr, i64, f64, f64, f64, c_int, c_int, ptr, ptr, ptr, i64]
    scan.restype = i64
    return scan


def _load_kernel():
    """The C scan function, or None; the first call may come from worker threads."""
    global _kernel
    if _kernel is _UNLOADED:
        with _kernel_lock:
            if _kernel is _UNLOADED:
                _kernel = _compile_kernel(_kernel_cache_dirs())
    return _kernel


def kernel_backend() -> str:
    """The batch scan in use: ``"c"`` (compiled kernel) or ``"python"``."""
    return "python" if _load_kernel() is None else "c"


def _scan_c(scan, prices: np.ndarray, guard: float, up_factor: float,
            down_factor: float, use_log: bool, mode: int):
    cap = 1024
    while True:
        kinds = np.empty(cap, dtype=np.int8)
        dirs = np.empty(cap, dtype=np.int8)
        idx = np.empty(cap, dtype=np.int64)
        # prices is a C-contiguous float64 array (TickSeries guarantees it)
        m = scan(prices.ctypes.data, prices.size, guard, up_factor, down_factor,
                 use_log, mode, kinds.ctypes.data, dirs.ctypes.data,
                 idx.ctypes.data, cap)
        if m <= cap:
            return kinds[:m].copy(), dirs[:m].copy(), idx[:m].copy()
        cap = m


def _scan_python(prices: np.ndarray, guard: float, up_factor: float,
                 down_factor: float, use_log: bool, mode: int):
    """Pure-Python twin of ``it_scan`` in ``_scan.c``, operation by operation.

    ``mode`` is +1 or -1; ``mode * x >= guard`` reads ``x >= guard`` up
    and ``x <= -guard`` down, exactly, since negation does not round.
    """
    px = prices.tolist()
    log = math.log
    events = []
    ext = ref = px[0]
    confirmed = False
    for i in range(1, len(px)):
        p = px[i]
        if mode * p > mode * ext:
            ext = p
            if confirmed:
                factor = up_factor if mode == 1 else down_factor
                while mode * (log(p / ref) if use_log else (p - ref) / ref) >= guard:
                    events.append((1, mode, i))
                    ref = ref * factor
        elif -mode * (log(p / ext) if use_log else (p - ext) / ext) >= guard:
            mode = -mode
            events.append((0, mode, i))
            ext = ref = p
            confirmed = True
    table = np.array(events, dtype=np.int64).reshape(-1, 3)
    return (table[:, 0].astype(np.int8), table[:, 1].astype(np.int8),
            np.ascontiguousarray(table[:, 2]))


@dataclass(frozen=True)
class EventArrays:
    """Column-oriented event buffer, the fast-path twin of IntrinsicEvent lists.

    kinds: 0 = directional change, 1 = overshoot. directions: +1 up, -1
    down. ``tick_indices`` locates each event's triggering tick in the
    source series; clock indices are implicit (array position).
    """

    kinds: np.ndarray
    directions: np.ndarray
    timestamps: np.ndarray
    prices: np.ndarray
    tick_indices: np.ndarray

    def __len__(self) -> int:
        return int(self.kinds.size)

    @property
    def n_dc(self) -> int:
        return int(np.count_nonzero(self.kinds == 0))

    @property
    def n_os(self) -> int:
        return int(np.count_nonzero(self.kinds == 1))


def process_arrays(ticks: TickInput, config: ThresholdConfig,
                   initial_mode: Mode = Mode.UP) -> EventArrays:
    """Run the event scan and return events as arrays (no object churn)."""
    series = as_tick_series(ticks)
    if len(series) == 0:
        raise EmptyInputError("cannot process an empty tick sequence")
    scan = _load_kernel()
    args = (*_threshold_steps(config),
            config.move_convention is MoveConvention.LOG_RETURN, initial_mode.value)
    if scan is None:
        kinds, dirs, idx = _scan_python(series.prices, *args)
    else:
        kinds, dirs, idx = _scan_c(scan, series.prices, *args)
    return EventArrays(kinds, dirs, series.timestamps[idx], series.prices[idx], idx)


def events_from_arrays(arrays: EventArrays, delta: float) -> list[IntrinsicEvent]:
    """Materialize IntrinsicEvent objects from an array buffer."""
    kinds = arrays.kinds.tolist()
    dirs = arrays.directions.tolist()
    tss = arrays.timestamps.tolist()
    pxs = arrays.prices.tolist()
    return [
        IntrinsicEvent(
            EventKind.DIRECTIONAL_CHANGE if k == 0 else EventKind.OVERSHOOT,
            Mode.UP if d == 1 else Mode.DOWN,
            t, p, delta, i,
        )
        for i, (k, d, t, p) in enumerate(zip(kinds, dirs, tss, pxs))
    ]


def process(ticks: TickInput, config: ThresholdConfig,
            initial_mode: Mode = Mode.UP) -> list[IntrinsicEvent]:
    """Transform a whole tick sequence into its intrinsic-time events.

    Equivalent to folding ``step`` over the sequence after ``new_runner``
    on the first tick, but runs as one pass with constant state, in C
    where a compiler is available (see ``kernel_backend``). Raises
    EmptyInputError on an empty sequence; a single tick yields no events.
    """
    arrays = process_arrays(ticks, config, initial_mode)
    return events_from_arrays(arrays, config.delta)


def _segment_overshoots(series: TickSeries, arrays: EventArrays,
                        convention: MoveConvention) -> np.ndarray:
    """Overshoot length of every completed DC-to-DC segment.

    A segment's length is the absolute move from the DC confirmation
    price to the most extreme price the trend reached before the next
    DC. The trailing unfinished trend contributes nothing.
    """
    dc_mask = arrays.kinds == 0
    dc_idx = arrays.tick_indices[dc_mask]
    dc_px = arrays.prices[dc_mask]
    dc_dir = arrays.directions[dc_mask]
    if dc_idx.size < 2:
        return np.empty(0, dtype=np.float64)
    # reduceat segment k covers ticks [dc_idx[k], dc_idx[k+1]); the next
    # DC's trigger tick can never extend the previous trend's extremum,
    # so the half-open window is exact.
    highs = np.maximum.reduceat(series.prices, dc_idx)[:-1]
    lows = np.minimum.reduceat(series.prices, dc_idx)[:-1]
    ext = np.where(dc_dir[:-1] == 1, highs, lows)
    base = dc_px[:-1]
    if convention is MoveConvention.LOG_RETURN:
        return np.abs(np.log(ext / base))
    return np.abs((ext - base) / base)


def overshoot_lengths(events: list[IntrinsicEvent], ticks: TickInput,
                      config: ThresholdConfig) -> np.ndarray:
    """Per-segment overshoot lengths for events produced from these ticks.

    Returns one non-negative fraction per completed DC-to-DC segment, in
    order; fewer than two DCs give an empty array. The events must have
    been produced by ``process`` on ``ticks`` with ``config``; a
    mismatch raises ConsistencyError.
    """
    for ev in events:
        if ev.delta != config.delta:
            raise ConsistencyError(
                f"event delta {ev.delta!r} does not match config delta {config.delta!r}")
    dc_events = [ev for ev in events if ev.kind is EventKind.DIRECTIONAL_CHANGE]
    if len(dc_events) < 2:
        return np.empty(0, dtype=np.float64)
    series = as_tick_series(ticks)
    # Before the first DC the runner must have been in the opposite mode,
    # so the scan can be replayed without knowing the original initial mode.
    initial_mode = dc_events[0].direction.flipped
    arrays = process_arrays(series, config, initial_mode)
    dc_mask = arrays.kinds == 0
    if (arrays.n_dc != len(dc_events)
            or not np.array_equal(arrays.prices[dc_mask],
                                  np.array([ev.price for ev in dc_events]))
            or not np.array_equal(arrays.timestamps[dc_mask],
                                  np.array([ev.timestamp for ev in dc_events]))):
        raise ConsistencyError("events do not correspond to the given ticks and config")
    return _segment_overshoots(series, arrays, config.move_convention)
