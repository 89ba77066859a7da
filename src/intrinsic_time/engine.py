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
from typing import Callable, Iterable, Iterator, NamedTuple, Union

import numpy as np

from .errors import (
    ConfigurationError,
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

    Validates on construction: equal lengths, whole-number timestamps
    inside int64 (integral floats are accepted), prices that read as
    float64 and are strictly positive and finite, non-decreasing
    timestamps. Iterating yields ``Tick`` tuples.
    """

    timestamps: np.ndarray
    prices: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.timestamps)
        px = _float64_prices(self.prices)
        if ts.ndim != 1 or px.ndim != 1 or ts.shape != px.shape:
            raise DomainError("timestamps and prices must be 1-d arrays of equal length")
        ts = _int64_timestamps(ts)
        valid = (px > 0.0) & (px < np.inf)
        if not bool(np.all(valid)):
            bad = int(np.argmax(~valid))
            raise DomainError(
                f"price {float(px[bad])!r} at position {bad} is not positive and finite")
        backwards = ts[1:] < ts[:-1]  # not np.diff, which wraps on int64
        if bool(backwards.any()):
            bad = int(np.argmax(backwards)) + 1
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
        """Time covered by the series, 0 for fewer than two ticks.

        An exact Python int, which can exceed the int64 range.
        """
        if len(self) < 2:
            return 0
        return int(self.timestamps[-1]) - int(self.timestamps[0])


def _whole(value) -> int | None:
    """``value`` as an int if it is a whole number such as ``2.0``, else None."""
    if type(value) is int:  # the common case, at a fraction of the cost
        return value
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return whole if whole == value else None


def _in_int64(value) -> bool:
    """Whether ``value``, an int or a Decimal, lies inside the int64 range."""
    return -2**63 <= value < 2**63


def _float64_prices(px) -> np.ndarray:
    """``px`` as contiguous float64; DomainError names the first value that
    cannot be read as one."""
    try:
        return np.ascontiguousarray(px, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        values = np.asarray(px, dtype=object).ravel().tolist()
    for i, value in enumerate(values):
        try:
            float(value)
        except (TypeError, ValueError, OverflowError):
            raise DomainError(
                f"price {value!r} at position {i} cannot be read as a float64") from None
    raise DomainError("prices must be a 1-d array of numbers")


def _int64_timestamps(ts: np.ndarray) -> np.ndarray:
    """``ts`` as contiguous int64; DomainError names the first value that
    is not a whole number inside int64. Safe casts take no checking pass."""
    if np.can_cast(ts.dtype, np.int64):
        return np.ascontiguousarray(ts, dtype=np.int64)
    for i, value in enumerate(ts.tolist()):
        whole = _whole(value)
        if whole is None or not _in_int64(whole):
            raise DomainError(f"timestamp {value!r} at position {i} is not"
                              " a whole number inside int64")
    return ts.astype(np.int64)


TickInput = Union[TickSeries, Iterable]


def as_tick_series(ticks: TickInput) -> TickSeries:
    """Coerce a TickSeries, an iterable of Tick, or (timestamp, price) pairs."""
    if isinstance(ticks, TickSeries):
        return ticks
    data = list(ticks)
    # object dtype keeps Python ints exact for the whole-number check, and
    # leaves each price for TickSeries to read and name if it cannot
    return TickSeries(np.array([t[0] for t in data], dtype=object),
                      np.array([t[1] for t in data], dtype=object))


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
    if not (0.0 < from_price < math.inf) or not (0.0 < to_price < math.inf):
        raise DomainError(
            f"prices must be positive and finite, got {from_price!r} -> {to_price!r}")
    if convention is MoveConvention.LOG_RETURN:
        return math.log(to_price / from_price)
    return (to_price - from_price) / from_price


def _scan_args(config: ThresholdConfig) -> tuple[float, float, float, bool]:
    """(guard, up_factor, down_factor, use_log), the scans' view of a config.

    A move triggers once it reaches ``guard``; each overshoot advances the
    overshoot reference by one factor. Exponentials come from libm through
    ``math``, like every log in the scans, so all paths round alike.
    """
    delta = config.delta
    guard = delta * (1.0 - BOUNDARY_TOLERANCE)
    if config.move_convention is MoveConvention.LOG_RETURN:
        return guard, math.exp(delta), math.exp(-delta), True
    return guard, 1.0 + delta, 1.0 - delta, False


def _tick_values(tick) -> tuple[int, float]:
    """``(timestamp, price)`` of a streamed tick; DomainError as in TickSeries."""
    ts = _whole(tick[0])
    if ts is None or not _in_int64(ts):
        raise DomainError(f"timestamp {tick[0]!r} is not a whole number inside int64")
    try:
        price = float(tick[1])
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"price {tick[1]!r} cannot be read as a float64") from None
    if not (0.0 < price < math.inf):
        raise DomainError(f"price must be positive and finite, got {price!r}")
    return ts, price


def new_runner(config: ThresholdConfig, initial_tick: Tick,
               initial_mode: Mode = Mode.UP) -> RunnerState:
    """Fresh runner state anchored at the first tick."""
    ts, price = _tick_values(initial_tick)
    return RunnerState(mode=initial_mode, extremum_price=price, os_reference_price=price,
                       last_timestamp=ts)


def step(state: RunnerState, tick: Tick,
         config: ThresholdConfig) -> tuple[RunnerState, list[IntrinsicEvent]]:
    """Advance the runner by one tick; mutates and returns the state.

    The move itself is the batch scan's Python loop run on this one tick,
    so streaming and batch share one state machine. In UP mode a higher
    tick extends the trend, updating the extremum and emitting one
    overshoot per full threshold increment the price has crossed on the
    overshoot grid (only after the first DC). A tick that retraces at
    least one threshold from the extremum emits exactly one DC, flips the
    mode, and re-anchors extremum, overshoot reference and confirmation
    price at the tick price. DOWN mode is the mirror image. Gap ticks may
    emit several overshoots but never more than one DC.
    """
    ts, price = _tick_values(tick)
    if ts < state.last_timestamp:
        raise OrderingError(
            f"timestamp {ts} precedes previous tick at {state.last_timestamp}")
    state.last_timestamp = ts

    mode = state.mode
    sign = mode.value
    found, state.extremum_price, state.os_reference_price, new_sign, _ = _scan_python(
        [price], 0, state.extremum_price, state.os_reference_price, sign,
        state.dc_confirm_price is not None, *_scan_args(config))
    if new_sign != sign:  # a DC fired, and it is this tick's only event
        mode = state.mode = mode.flipped
        state.dc_confirm_price = price
        state.dc_count_since_init += 1
    events = []
    for kind, *_ in found:
        events.append(IntrinsicEvent(
            EventKind.DIRECTIONAL_CHANGE if kind == 0 else EventKind.OVERSHOOT,
            mode, ts, price, config.delta, state.intrinsic_clock))
        state.intrinsic_clock += 1
    return state, events


# The batch scan and the tick-file parser and writer run in C (``_scan.c``),
# compiled with the system ``cc`` on first use and cached by a checksum of
# source and flags: beside this module in ``__pycache__/``, else in the
# user's cache directory. Without a working compiler, ``_scan_python`` runs
# the same loop (``step`` runs it too) and ``io`` its Python row loop and
# writer.
_KERNEL_SOURCE = Path(__file__).with_name("_scan.c")
_KERNEL_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
_UNLOADED = object()
_kernel = _UNLOADED  # the loaded _Kernel, or None on the Python fallback
_kernel_lock = threading.Lock()


def _kernel_cache_dirs() -> list[Path]:
    dirs = [_KERNEL_SOURCE.parent / "__pycache__"]
    user = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    if os.path.isabs(user):
        dirs.append(Path(user) / "intrinsic_time")
    return dirs


class _Kernel(NamedTuple):
    """The C functions of ``_scan.c``, bound through ctypes."""

    scan: Callable[..., int]  # it_scan
    parse_ticks: Callable[..., int]  # it_parse_ticks
    format_ticks: Callable[..., int]  # it_format_ticks


def _compile_kernel(cache_dirs: list[Path]):
    """The C functions, compiled into the first writable cache directory.

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
                          "using the slower Python scan and tick-file I/O", RuntimeWarning)
            return None
        return _bind_kernel(directory / name)
    warnings.warn("no writable cache directory for the C scan kernel; "
                  "using the slower Python scan and tick-file I/O", RuntimeWarning)
    return None


def _bind_kernel(path: Path):
    try:
        lib = ctypes.CDLL(str(path))
        kernel = _Kernel(lib.it_scan, lib.it_parse_ticks, lib.it_format_ticks)
    except OSError as exc:
        warnings.warn(f"cannot load the C scan kernel {path}: {exc}; "
                      "using the slower Python scan and tick-file I/O", RuntimeWarning)
        return None
    ptr, i64, f64, c_int = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double, ctypes.c_int
    i64_ptr = ctypes.POINTER(i64)
    kernel.scan.argtypes = [ptr, i64, f64, f64, f64, c_int, ctypes.POINTER(_ScanState),
                            ptr, ptr, ptr, ptr, i64]
    kernel.parse_ticks.argtypes = [ctypes.c_char_p, i64, i64_ptr, ptr, ptr, i64]
    kernel.format_ticks.argtypes = [ptr, ptr, i64, i64_ptr, ptr, i64]
    for function in kernel:
        function.restype = i64
    return kernel


def _load_kernel():
    """The C functions, or None; the first call may come from user threads."""
    global _kernel
    if _kernel is _UNLOADED:
        with _kernel_lock:
            if _kernel is _UNLOADED:
                _kernel = _compile_kernel(_kernel_cache_dirs())
    return _kernel


def kernel_backend() -> str:
    """The backend in use: ``"c"`` (the compiled ``_scan.c``) or ``"python"``.

    One compiled unit serves both the batch scan and the parsing and
    writing of nanosecond tick files; results never depend on the backend.
    """
    return "python" if _load_kernel() is None else "c"


class _ScanState(ctypes.Structure):
    """``struct it_state`` of ``_scan.c``: the runner state a scan resumes from."""

    _fields_ = [("ext", ctypes.c_double), ("ref", ctypes.c_double),
                ("i", ctypes.c_int64), ("mode", ctypes.c_int32),
                ("confirmed", ctypes.c_int32)]


def _scan_c(scan, prices: np.ndarray, guard: float, up_factor: float,
            down_factor: float, use_log: bool, mode: int):
    """Scan the whole array. When the kernel stops on a full buffer, it is
    resumed from its state with one twice as large, never from tick 1."""
    state = _ScanState(prices[0], prices[0], 1, mode, 0)
    parts = []
    cap = 1024
    while True:
        kinds = np.empty(cap, dtype=np.int8)
        dirs = np.empty(cap, dtype=np.int8)
        idx = np.empty(cap, dtype=np.int64)
        xt = np.empty(cap, dtype=np.float64)
        # prices is a C-contiguous float64 array (TickSeries guarantees it)
        m = scan(prices.ctypes.data, prices.size, guard, up_factor, down_factor,
                 use_log, state, kinds.ctypes.data, dirs.ctypes.data,
                 idx.ctypes.data, xt.ctypes.data, cap)
        parts.append((kinds[:m], dirs[:m], idx[:m], xt[:m]))
        if state.i == prices.size:
            return tuple(np.concatenate(column) for column in zip(*parts))
        cap *= 2


def _scan_python(px: list, i: int, ext: float, ref: float, mode: int,
                 confirmed: bool, guard: float, up_factor: float,
                 down_factor: float, use_log: bool):
    """Pure-Python twin of ``it_scan`` in ``_scan.c``, operation by operation.

    Scans ``px[i:]`` from the given runner state; returns the events as
    ``(kind, direction, tick index, trend extremum)`` tuples (a DC's is
    the extremum of the trend it ends) and the state after the last tick.
    ``mode`` is +1 or -1; ``mode * x >= guard`` reads ``x >= guard`` up
    and ``x <= -guard`` down, exactly, since negation does not round.
    """
    log = math.log
    events = []
    for i in range(i, len(px)):
        p = px[i]
        if mode * p >= mode * ext:
            ext = p
            if confirmed:
                factor = up_factor if mode == 1 else down_factor
                while mode * (log(p / ref) if use_log else (p - ref) / ref) >= guard:
                    events.append((1, mode, i, ext))
                    ref = ref * factor
        elif -mode * (log(p / ext) if use_log else (p - ext) / ext) >= guard:
            mode = -mode
            events.append((0, mode, i, ext))
            ext = ref = p
            confirmed = True
    return events, ext, ref, mode, confirmed


@dataclass(frozen=True)
class EventArrays:
    """Column-oriented event buffer, the fast-path twin of IntrinsicEvent lists.

    kinds: 0 = directional change, 1 = overshoot. directions: +1 up, -1
    down. ``extrema``: the trend extremum at each event, for a DC that of
    the trend it ends. Clock indices are implicit (array position).
    ``config`` is the threshold and convention of the scan that made the
    columns; the functions that read them take both from it. CLI
    ``transform`` writes its event files from these columns.
    """

    kinds: np.ndarray
    directions: np.ndarray
    timestamps: np.ndarray
    prices: np.ndarray
    extrema: np.ndarray
    config: ThresholdConfig

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
    kernel = _load_kernel()
    args = _scan_args(config)
    if kernel is None:
        px = series.prices.tolist()
        found = _scan_python(px, 1, px[0], px[0], initial_mode.value, False, *args)[0]
        # float64 holds these kinds, directions and tick indices exactly
        kinds, dirs, idx, xt = np.array(found, dtype=np.float64).reshape(-1, 4).T.copy()
        kinds, dirs, idx = kinds.astype(np.int8), dirs.astype(np.int8), idx.astype(np.int64)
    else:
        kinds, dirs, idx, xt = _scan_c(kernel.scan, series.prices, *args, initial_mode.value)
    return EventArrays(kinds, dirs, series.timestamps[idx], series.prices[idx], xt, config)


def events_from_arrays(arrays: EventArrays) -> list[IntrinsicEvent]:
    """Materialize IntrinsicEvent objects from an array buffer."""
    delta = arrays.config.delta
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
    on the first tick, but runs as one pass with constant state: in C
    where a compiler is available (see ``kernel_backend``), else in the
    Python loop that ``step`` runs tick by tick. The C scan hands its
    state back when its event buffer fills and resumes from it, so every
    tick is scanned once however many events there are. Raises
    EmptyInputError on an empty sequence; a single tick yields no events.
    """
    return events_from_arrays(process_arrays(ticks, config, initial_mode))


def overshoot_lengths(arrays: EventArrays) -> np.ndarray:
    """Overshoot length of every completed DC-to-DC segment of a scan.

    A segment's length is the absolute move, in the scan's convention,
    from the DC confirmation price to the trend's extremum, which the
    next DC records. Returns one non-negative fraction per segment, in
    order; the trailing unfinished trend contributes nothing, so fewer
    than two DCs give an empty array.
    """
    dc = arrays.kinds == 0
    return np.abs(_moves(arrays.prices[dc][:-1], arrays.extrema[dc][1:],
                         arrays.config.move_convention))


def _moves(frm: np.ndarray, to: np.ndarray, convention: MoveConvention) -> np.ndarray:
    """``relative_move`` elementwise, in numpy, for prices already checked."""
    if convention is MoveConvention.LOG_RETURN:
        return np.log(to / frm)
    return (to - frm) / frm
