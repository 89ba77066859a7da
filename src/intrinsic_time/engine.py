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
import dataclasses
import gc
import itertools
import math
import os
import platform
import shutil
import sys
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


def _eq_with_arrays(self, other) -> bool:
    """``==`` for a dataclass that holds numpy columns: same type, equal
    scalar fields, and every column equal in dtype and by ``np.array_equal``.

    Such a dataclass sets ``eq=False`` and takes this as its ``__eq__``,
    which also leaves it unhashable.
    """
    if type(other) is not type(self):
        return NotImplemented
    for field in dataclasses.fields(self):
        a, b = getattr(self, field.name), getattr(other, field.name)
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            if not (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                    and a.dtype == b.dtype and np.array_equal(a, b)):
                return False
        elif a != b:
            return False
    return True


@dataclass(frozen=True, eq=False)
class TickSeries:
    """Column-oriented tick buffer: int64 nanosecond timestamps, float64 prices.

    Validates on construction: equal lengths, whole-number timestamps
    inside int64 (integral floats are accepted), prices that read as
    float64 and are strictly positive and finite, non-decreasing
    timestamps. An integer index or iteration yields ``Tick`` tuples, a
    slice a validated TickSeries; two series are equal when their columns are.
    """

    timestamps: np.ndarray
    prices: np.ndarray

    __eq__ = _eq_with_arrays

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

    def __getitem__(self, i: int | slice) -> Tick | TickSeries:
        if isinstance(i, slice):
            return TickSeries(self.timestamps[i], self.prices[i])
        if isinstance(i, bool) or not isinstance(i, (int, np.integer)):  # numpy: bool = mask
            raise TypeError(f"TickSeries indices are integers or slices, not {type(i).__name__}")
        return Tick(self.timestamps.item(i), self.prices.item(i))

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
        try:
            in_range = 0.0 < self.delta < 1.0
            delta = float(self.delta)  # a Decimal, Fraction or numpy scalar too
        except (TypeError, ValueError):  # not a number: "0.5", None, an array
            in_range = False
        if not in_range:
            raise ConfigurationError(f"delta must be in (0, 1), got {self.delta!r}")
        object.__setattr__(self, "delta", delta)
        _known_convention(self.move_convention)


def _known_convention(convention) -> None:
    """ConfigurationError unless ``convention`` is a MoveConvention."""
    if not isinstance(convention, MoveConvention):
        raise ConfigurationError(f"unknown move convention {convention!r}")


def _known_mode(mode) -> int:
    """``mode``'s value, +1 or -1; ConfigurationError unless it is a Mode."""
    if not isinstance(mode, Mode):
        raise ConfigurationError(f"initial mode must be a Mode, got {mode!r}")
    return mode.value


class IntrinsicEvent(NamedTuple):
    """One tick of intrinsic time.

    ``price`` and ``timestamp`` come from the tick that triggered the
    event; ``clock_index`` is the event's position in the runner's
    output, starting at 0.

    An event is an immutable named tuple, like ``Tick``: it unpacks into
    its six fields, compares and hashes as the tuple of them (so it is
    ``==`` to a plain tuple of the same values), and setting a field
    raises AttributeError. ``ev._replace(price=...)`` makes a changed
    copy and ``ev._asdict()`` a dict of the fields.
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

    RELATIVE returns (to - from) / from, LOG_RETURN returns ln(to / from);
    any other convention raises ConfigurationError, before the prices are read.
    """
    _known_convention(convention)
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


def _overshoots_due(price: float, ref: float, mode: float, factor: float) -> tuple[float, bool]:
    """About how many overshoots of ``factor`` are due at ``price`` from the
    reference ``ref`` in trend ``mode`` (+1 or -1), in closed form, and
    whether that is a flood: more than physical memory holds at 26 bytes
    an event (``_columns``), where the scans stop and raise ``_stopped``."""
    due = (mode * (math.log(price) - math.log(ref)) / abs(math.log(factor))
           if mode * (price - ref) > 0 and factor != 1.0 else 0.0)
    return due, due > os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 26


def _stopped(config: ThresholdConfig, timestamp: int, price: float, ref: float, mode: float,
             factor: float, stall: bool) -> DomainError:
    """The error for the tick where a scan stopped, from its state there: a
    ``stall``, where an overshoot step leaves the reference price where it
    is (``ref * factor == ref``), so the scan would never end, or else a
    flood, whose overshoots cannot all be held."""
    if stall:
        return DomainError(
            f"threshold {config.delta!r}: an overshoot step from reference price {ref!r} "
            f"rounds back to it at the tick at timestamp {timestamp} (price {price!r}), "
            "so the scan would never end")
    due = _overshoots_due(price, ref, mode, factor)[0]
    return DomainError(
        f"threshold {config.delta!r}: its events do not fit in memory at the tick at "
        f"timestamp {timestamp} (price {price!r}), where about {due:.3g} more overshoots are due")


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
    """Fresh runner state anchored at the first tick; ConfigurationError
    unless ``initial_mode`` is a Mode."""
    ts, price = _tick_values(initial_tick)
    _known_mode(initial_mode)
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

    mode = state.mode
    sign = mode.value
    args = _scan_args(config)
    found, ext, ref, new_sign, _, stop, stall = _scan_python(
        [price], state.extremum_price, state.os_reference_price, sign,
        state.dc_confirm_price is not None, *args)
    if stop == 0:
        raise _stopped(config, ts, price, ref, sign, args[1] if sign == 1 else args[2],
                       stall >= 0)
    state.extremum_price, state.os_reference_price, state.last_timestamp = ext, ref, ts
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


# The grid scan (one pass over a block of ticks for a threshold grid), the
# tick-file and event-file parsers and writers (``_scan.c``; the parsers
# share one number reader, the writers one "%.17g" formatter) and, on
# CPython, the event builder run in C, compiled with the system ``cc`` on
# first use and cached per interpreter by a checksum of source and flags:
# beside this module in ``__pycache__/``, else in the user's cache
# directory. A new build replaces its interpreter's older builds there.
# Without a kernel (``_load_kernel`` warns once why: no compiler, a build
# that fails or cannot load, no cache directory), ``_scan_python`` runs
# the same loop per threshold and block, without the C price bands, quiet
# ticks and put-off trend extensions (``step`` runs it too), ``io`` its
# Python row loops and writers, and ``_build_events`` makes the events, as
# it does for a build without the Python headers.
_KERNEL_SOURCE = Path(__file__).with_name("_scan.c")
_KERNEL_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
# the interpreter a build is for, in its file name, such as ``cpython-311``
_INTERPRETER = f"{sys.implementation.cache_tag}{getattr(sys, 'abiflags', '')}"
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
    parse_events: Callable[..., int]  # it_parse_events
    format_events: Callable[..., int]  # it_format_events
    build_events: Callable[..., list | None] | None  # it_build_events, if compiled in


def _python_includes() -> list[str]:
    """The ``-I`` flags that compile the event builder into the kernel: the
    directories of ``Python.h`` and ``pyconfig.h`` on CPython, none elsewhere."""
    if sys.implementation.name != "cpython":
        return []
    import sysconfig  # only needed to compile

    paths = sysconfig.get_paths()
    return [f"-I{d}" for d in dict.fromkeys((paths["include"], paths["platinclude"]))]


def _compile_kernel(cache_dirs: list[Path]) -> _Kernel:
    """The C functions, compiled into the first writable cache directory. OSError says
    why there are none: no cc on PATH, one that fails, no writable cache directory, or a
    build that cannot load (AttributeError if it lacks a function) or make its C locale."""
    source = _KERNEL_SOURCE.read_bytes()
    key = zlib.crc32(source + repr((_KERNEL_FLAGS, platform.machine())).encode())
    name = f"_scan-{_INTERPRETER}-{key:08x}.so"
    for directory in cache_dirs:
        if os.path.isfile(directory / name):
            return _bind_kernel(directory / name)
    cc = shutil.which("cc")
    if cc is None:
        raise OSError("no C compiler (cc) on PATH for the C scan kernel")
    import subprocess  # only needed to compile

    for directory in cache_dirs:
        try:
            directory.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix="_scan-", suffix=".tmp", dir=directory)
        except OSError:
            continue  # not writable: try the next directory
        os.close(fd)
        try:
            subprocess.run([cc, *_KERNEL_FLAGS, *_python_includes(), "-o", tmp,
                            str(_KERNEL_SOURCE), "-lm"],
                           check=True, capture_output=True, timeout=300)
            os.replace(tmp, directory / name)
            _remove_other_builds(directory, name)
        except (OSError, subprocess.SubprocessError) as exc:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            detail = (getattr(exc, "stderr", None) or b"").decode(errors="replace")
            raise OSError(f"cannot compile the C scan kernel ({exc}) {detail.strip()}") from exc
        return _bind_kernel(directory / name)
    raise OSError("no writable cache directory for the C scan kernel")


def _remove_other_builds(directory: Path, name: str) -> None:
    """Delete this interpreter's builds of other ``_scan.c`` sources, and
    untagged ones, from ``directory``, leaving any that cannot be removed."""
    with contextlib.suppress(OSError):
        for pattern in (f"_scan-{_INTERPRETER}-*.so", "_scan-????????.so"):
            for stale in directory.glob(pattern):
                if stale.name != name:
                    with contextlib.suppress(OSError):
                        stale.unlink()


def _bind_kernel(path: Path) -> _Kernel:
    lib = ctypes.CDLL(str(path))  # an OSError naming the file if it cannot load
    kernel = _Kernel(lib.it_scan, lib.it_parse_ticks, lib.it_format_ticks,
                     lib.it_parse_events, lib.it_format_events, None)
    lib.it_init.argtypes, lib.it_init.restype = [], ctypes.c_int
    if not lib.it_init():  # once per process: a second bind keeps the locale
        raise OSError(f"cannot make a C locale for the C scan kernel {path}")
    ptr, i64, c_int, obj = ctypes.c_void_p, ctypes.c_int64, ctypes.c_int, ctypes.py_object
    i64_ptr = ctypes.POINTER(i64)
    kernel.scan.argtypes = [ptr, ptr, i64, i64_ptr, ctypes.POINTER(_Runner), i64]
    kernel.parse_ticks.argtypes = [ctypes.c_char_p, i64, i64_ptr, ptr, ptr, i64]
    kernel.format_ticks.argtypes = [ptr, ptr, i64, i64_ptr, ptr, i64]
    kernel.parse_events.argtypes = [ctypes.c_char_p, i64, i64_ptr, c_int,
                                    ptr, ptr, ptr, ptr, ptr, ptr, i64]
    kernel.format_events.argtypes = [ptr, ptr, ptr, ptr, ptr, i64, ptr, ptr, ctypes.c_char_p,
                                     ptr, c_int, i64_ptr, ptr, i64]
    for function in kernel[:-1]:  # all but the builder, bound below
        function.restype = i64
    # The builder makes Python objects, so it is called holding the GIL, as
    # a PyDLL function, through the handle the CDLL above opened.
    build = getattr(ctypes.PyDLL(str(path), handle=lib._handle), "it_build_events", None)
    if build is not None:
        build.argtypes = [obj, obj, ctypes.POINTER(_Runner), i64, obj, ptr, ptr]
        build.restype = obj
    return kernel._replace(build_events=build)


def _load_kernel():
    """The C functions, or None on the Python fallback, which the first call
    (from any thread) to find no kernel records, then warns once why."""
    global _kernel
    if _kernel is _UNLOADED:
        with _kernel_lock:
            if _kernel is _UNLOADED:
                try:
                    _kernel = _compile_kernel(_kernel_cache_dirs())
                except (OSError, AttributeError) as exc:
                    _kernel = None
                    warnings.warn(f"{exc}; using the slower Python scan and file I/O",
                                  RuntimeWarning)
    return _kernel


def kernel_backend() -> str:
    """The backend in use: ``"c"`` (the compiled ``_scan.c``) or ``"python"``.

    One compiled unit serves the batch grid scan, the parsing and writing
    of nanosecond tick files and of event files and, on CPython where the
    Python headers are installed, the building of ``IntrinsicEvent``
    objects for ``process``, ``run_grid``, ``events_from_arrays`` and
    ``read_events``. Everything else, and all of it on ``"python"`` (which
    the first call reports once, saying why), runs in Python; results never
    depend on the backend.
    """
    return "python" if _load_kernel() is None else "c"


class _Runner(ctypes.Structure):
    """``struct it_runner`` of ``_scan.c``: one threshold's scan arguments,
    state and event columns, for either backend; the last four are C's."""

    _fields_ = [("guard", ctypes.c_double), ("up_factor", ctypes.c_double),
                ("down_factor", ctypes.c_double), ("use_log", ctypes.c_int32),
                ("confirmed", ctypes.c_int32), ("ext", ctypes.c_double),
                ("mode", ctypes.c_double), ("ref", ctypes.c_double), ("stall", ctypes.c_int64),
                ("kind", ctypes.c_void_p), ("dir", ctypes.c_void_p),
                ("ts", ctypes.c_void_p), ("px", ctypes.c_void_p), ("xt", ctypes.c_void_p),
                ("cap", ctypes.c_int64), ("m", ctypes.c_int64),
                ("os_c", ctypes.c_double), ("dc_c", ctypes.c_double),
                ("os_at", ctypes.c_double), ("dc_at", ctypes.c_double)]

    @property
    def factor(self) -> float:
        """The overshoot step of the current trend."""
        return self.up_factor if self.mode > 0 else self.down_factor


_FIRST_CAP = 1024  # event slots of a runner's first block; each next one doubles


def _columns(block: np.ndarray, m: int) -> tuple[np.ndarray, ...]:
    """The first ``m`` events of a block of 26-byte slots: kinds, directions,
    timestamps, prices and extrema, laid out 8-byte columns first."""
    cap = block.size // 26
    return (block[24 * cap:24 * cap + m].view(np.int8), block[25 * cap:25 * cap + m].view(np.int8),
            block[:8 * m].view(np.int64), block[8 * cap:8 * (cap + m)].view(np.float64),
            block[16 * cap:8 * (2 * cap + m)].view(np.float64))


def _column_addresses(base: int, cap: int) -> tuple[int, ...]:
    """The addresses of the kind, direction, timestamp, price and extremum
    columns of a block of ``cap`` slots at ``base``, as ``_columns`` lays
    them out."""
    return base + 24 * cap, base + 25 * cap, base, base + 8 * cap, base + 16 * cap


def _scan_python(px: list, ext: float, ref: float, mode: int, confirmed: bool,
                 guard: float, up_factor: float, down_factor: float, use_log: bool):
    """Pure-Python twin of ``it_scan`` in ``_scan.c``: the same events from
    the same tests, without the C scan's price bands, so it is the spec
    the compiled scan is tested against.

    Scans ``px`` from the given runner state; returns the events as
    ``(kind, direction, tick index, trend extremum)`` tuples (a DC's is
    the extremum of the trend it ends), the state after the last tick
    read, the index of the next tick to read and ``stall``: ``len(px)`` and
    -1, unless the scan stops at a tick that floods (``_overshoots_due``),
    checked once the tick has fired ``_FIRST_CAP`` overshoots, so that a
    tick that fires fewer pays nothing, or at a stall: a tick where an
    overshoot step cannot move the reference price (``ref * factor ==
    ref``), so that it would loop forever; ``stall`` is then its index.
    ``mode`` is +1 or -1; ``mode * x >= guard`` reads ``x >= guard`` up
    and ``x <= -guard`` down, exactly, since negation does not round.
    """
    log = math.log
    events = []
    for i, p in enumerate(px):
        if mode * p >= mode * ext:
            ext = p
            if confirmed:
                factor = up_factor if mode == 1 else down_factor
                fired = 0  # this tick's overshoots
                while mode * (log(p / ref) if use_log else (p - ref) / ref) >= guard:
                    fired += 1
                    if ref * factor == ref:
                        return events, ext, ref, mode, confirmed, i, i
                    if fired == _FIRST_CAP and _overshoots_due(p, ref, mode, factor)[1]:
                        return events, ext, ref, mode, confirmed, i, -1
                    events.append((1, mode, i, ext))
                    ref = ref * factor
        elif -mode * (log(p / ext) if use_log else (p - ext) / ext) >= guard:
            mode = -mode
            events.append((0, mode, i, ext))
            ext = ref = p
            confirmed = True
    return events, ext, ref, mode, confirmed, len(px), -1


@dataclass(frozen=True, eq=False)
class EventArrays:
    """Column-oriented event buffer, the fast-path twin of IntrinsicEvent lists.

    kinds: 0 = directional change, 1 = overshoot. directions: +1 up, -1
    down. ``extrema``: the trend extremum at each event, for a DC that of
    the trend it ends. Clock indices are implicit (array position).
    ``config`` is the threshold and convention of the scan that made the
    columns; the functions that read them take both from it. CLI
    ``transform`` writes its event files from these columns. Two buffers
    are equal when their columns and configs are. Columns that are not
    1-d and of one length raise DomainError naming each column's length.
    """

    kinds: np.ndarray
    directions: np.ndarray
    timestamps: np.ndarray
    prices: np.ndarray
    extrema: np.ndarray
    config: ThresholdConfig

    __eq__ = _eq_with_arrays

    def __post_init__(self):
        shapes = {f.name: np.shape(getattr(self, f.name)) for f in dataclasses.fields(self)[:5]}
        if len(set(shapes.values())) > 1 or len(shapes["kinds"]) != 1:
            raise DomainError("event columns must be 1-d and of one length, got " + ", ".join(
                f"{name} {s[0] if len(s) == 1 else s}" for name, s in shapes.items()))

    def __len__(self) -> int:
        return int(self.kinds.size)

    @property
    def n_dc(self) -> int:
        return int(np.count_nonzero(self.kinds == 0))

    @property
    def n_os(self) -> int:
        return int(np.count_nonzero(self.kinds == 1))


class _GridScan:
    """A threshold grid's scan, the only one the library starts: built from
    the configs, any ``TickInput`` and a ``Mode``, which it checks, and fed
    the ticks. ``feed`` goes on with more, split anywhere, from each
    ``_Runner`` as the last block left it, in C, which reads each tick once
    for the grid, or in ``_scan_python``. Each runner's events go to one
    block, copied to one twice as large when it fills; the first blocks are
    slices of one allocation. A stall or flood of a threshold stops the
    scan: ``feed`` raises there, and the scan is not fed again."""

    def __init__(self, configs: list[ThresholdConfig], ticks: TickInput,
                 initial_mode: Mode = Mode.UP):
        series = as_tick_series(ticks)
        if len(series) == 0:
            raise EmptyInputError("cannot process an empty tick sequence")
        for config in configs:
            if not isinstance(config, ThresholdConfig):
                raise ConfigurationError(f"expected a ThresholdConfig, got {config!r}")
        mode, first_price = _known_mode(initial_mode), float(series.prices[0])
        self.configs = configs
        self.kernel = _load_kernel()
        cap, k = _FIRST_CAP, len(configs)
        step = -(-26 * cap // 8) * 8  # each block starts 8-aligned, for its 8-byte columns
        first = np.empty(step * k, np.uint8)  # every runner's first block, in one
        base = first.ctypes.data
        self.runners = (_Runner * k)(*(
            (*_scan_args(config), 0, first_price, mode, first_price, -1,
             *_column_addresses(base + step * j, cap), cap)
            for j, config in enumerate(configs)))
        self.blocks = [first[step * j:step * j + 26 * cap] for j in range(k)]
        self.feed(series.timestamps, series.prices)

    def feed(self, timestamps: np.ndarray, prices: np.ndarray) -> None:
        """Scan the next ticks: C-contiguous int64 timestamps, float64 prices.
        DomainError (``_stopped``) for the first tick, then threshold in grid
        order, where a threshold stalls or floods; the same for every split
        of the ticks and on both backends."""
        stops = []  # (tick, runner) where a runner cannot go on
        if self.kernel is None:
            px = prices.tolist()
            for j, r in enumerate(self.runners):
                found, r.ext, r.ref, r.mode, r.confirmed, stop, r.stall = _scan_python(
                    px, r.ext, r.ref, r.mode, r.confirmed, r.guard, r.up_factor,
                    r.down_factor, r.use_log)
                if stop < len(px):
                    stops.append((stop, j))
                # float64 holds these kinds, directions and tick indices exactly
                kinds, dirs, idx, xt = np.array(found, np.float64).reshape(-1, 4).T
                idx, m = idx.astype(np.int64), r.m + len(found)
                self.blocks[j] = self._grow(j, m)
                for column, new in zip(_columns(self.blocks[j], m),
                                       (kinds, dirs, timestamps[idx], prices[idx], xt)):
                    column[r.m:] = new
                r.m = m
        else:
            at = ctypes.c_int64(0)
            while (j := self.kernel.scan(timestamps.ctypes.data, prices.ctypes.data,
                                         prices.size, at, self.runners, len(self.runners))) >= 0:
                r = self.runners[j]
                # not a stall but a full block: a larger one, unless none can hold the events
                if r.stall < 0 and not _overshoots_due(float(prices[at.value]), r.ref, r.mode,
                                                       r.factor)[1]:
                    with contextlib.suppress(MemoryError):
                        self.blocks[j] = self._grow(j, r.cap + 1)
                        continue
                stops.append((at.value, j))
                break
        if stops:
            i, j = min(stops)
            r = self.runners[j]
            raise _stopped(self.configs[j], int(timestamps[i]), float(prices[i]), r.ref, r.mode,
                           r.factor, r.stall >= 0)

    def _grow(self, j: int, need: int) -> np.ndarray:
        """Runner j's block if it has ``need`` event slots, else a new one
        for the caller to keep, at least twice as large, with its events."""
        r = self.runners[j]
        if need <= r.cap:
            return self.blocks[j]
        cap = max(2 * r.cap, need)
        block = np.empty(26 * cap, np.uint8)
        for new, old in zip(_columns(block, r.m), _columns(self.blocks[j], r.m)):
            new[:] = old
        r.kind, r.dir, r.ts, r.px, r.xt = _column_addresses(block.ctypes.data, cap)
        r.cap = cap
        return block

    def finish(self) -> list[EventArrays]:
        """Every config's event arrays, in order, from the ticks fed."""
        return [EventArrays(*_columns(block, r.m), config)
                for block, r, config in zip(self.blocks, self.runners, self.configs)]

    def events(self) -> list[list[IntrinsicEvent]]:
        """Every config's events, in order: ``events_from_arrays`` of each of
        ``finish``'s arrays, built from every runner's columns in one
        ``it_build_events`` call where the kernel has the builder, which
        leaves them untracked by the cyclic garbage collector."""
        build = self.kernel and self.kernel.build_events
        if build:
            events = build(IntrinsicEvent, _MEMBERS, self.runners, len(self.runners),
                           tuple(config.delta for config in self.configs), None, None)
            if events is not None:
                return events
        return [events_from_arrays(arrays) for arrays in self.finish()]


def process_arrays(ticks: TickInput, config: ThresholdConfig,
                   initial_mode: Mode = Mode.UP) -> EventArrays:
    """Run the event scan and return events as arrays (no object churn).

    The one-threshold case of ``_GridScan``, which ``run_grid``,
    ``decompose`` and the CLI commands build once for a whole grid, so that
    they read the ticks once. Raises as ``process`` does.
    """
    return _GridScan([config], ticks, initial_mode).finish()[0]


_KINDS = {0: EventKind.DIRECTIONAL_CHANGE, 1: EventKind.OVERSHOOT}  # by kind code
_DIRECTIONS = {1: Mode.UP, -1: Mode.DOWN}
_MEMBERS = (*_KINDS.values(), Mode.UP, Mode.DOWN)  # it_build_events': kinds, then up, down


@contextlib.contextmanager
def _collector_paused() -> Iterator[None]:
    """The cyclic garbage collector off inside the block, then as it was.

    For loops that make many objects that cannot be part of a garbage
    cycle, such as events: the collector would scan them again and again as
    they are made. It still tracks them after the block, unlike the events
    of ``it_build_events``, which pauses it in C and untracks each event.
    ``gc.disable`` is process-wide, so other threads allocate without
    collections while the block runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _build_events(kinds: Iterable[int], directions: Iterable[int], timestamps: Iterable,
                  prices: Iterable, deltas: Iterable, clocks: Iterable) -> list[IntrinsicEvent]:
    """IntrinsicEvent objects from six columns of Python values, with the
    kind as a code (0 = DC, 1 = OS) and the direction as +1 (up) or -1
    (down), with the collector paused; KeyError for any other code. The
    loop runs in C: ``map`` calls ``tuple.__new__`` on each zipped row. The
    spec of ``it_build_events``."""
    with _collector_paused():
        return list(map(tuple.__new__, itertools.repeat(IntrinsicEvent),
                        zip(map(_KINDS.__getitem__, kinds),
                            map(_DIRECTIONS.__getitem__, directions),
                            timestamps, prices, deltas, clocks)))


# the dtypes of the columns it_build_events reads and it_parse_events
# fills: kinds, directions, timestamps, prices, deltas and clocks
_BUILD_DTYPES = tuple(map(np.dtype, (np.int8, np.int8, np.int64, np.float64, np.float64,
                                     np.int64)))


def _built_in_c(kinds, directions, timestamps, prices, delta, deltas=None, clocks=None):
    """The events of these columns from ``it_build_events``: each gets
    ``delta``, or its value of ``deltas``, and its value of ``clocks``, or
    else its position. None where ``_build_events`` must make them: without
    the builder, for a column that is not a 1-d C-contiguous numpy array of
    its exact dtype as long as ``kinds``, or at a code the builder does not
    take (``_build_events`` then gives the same events, or its error)."""
    kernel = _load_kernel()
    build = kernel and kernel.build_events
    columns = (kinds, directions, timestamps, prices, deltas, clocks)
    if not build or any(
            column is not None and not (type(column) is np.ndarray and column.dtype == dtype
                                        and column.shape == kinds.shape == (kinds.size,)
                                        and column.flags.c_contiguous)
            for column, dtype in zip(columns, _BUILD_DTYPES)):
        return None
    data = [None if column is None else column.ctypes.data for column in columns]
    runner = _Runner(kind=data[0], dir=data[1], ts=data[2], px=data[3], m=kinds.size)
    events = build(IntrinsicEvent, _MEMBERS, runner, 1, (delta,), data[4], data[5])
    return None if events is None else events[0]


def _events(columns: list, delta) -> list[IntrinsicEvent]:
    """The events of the numpy columns ``columns`` (kinds, directions,
    timestamps, prices, deltas or None, clocks or None), as ``_built_in_c``
    gives them, from ``it_build_events`` where it can, else from
    ``_build_events``, for which each column becomes a list, and its entry of
    ``columns`` is replaced, before the next is converted: a caller that
    holds the arrays only in ``columns`` holds one of them at a time. A kind
    code other than 0 or 1, or a direction other than +1 or -1, raises
    DomainError naming the first event that has one."""
    events = _built_in_c(*columns[:4], delta, *columns[4:])
    if events is not None:
        return events
    missing = (None,) * 4 + (itertools.repeat(delta), range(columns[0].size))
    for j, default in enumerate(missing):
        columns[j] = default if columns[j] is None else columns[j].tolist()
    try:
        return _build_events(*columns)
    except KeyError:
        i, kind, direction = next((i, k, d) for i, (k, d) in enumerate(
            zip(*columns[:2])) if k not in _KINDS or d not in _DIRECTIONS)
        raise DomainError(f"event {i} has kind code {kind!r} and direction {direction!r}: a "
                          "kind code is 0 (DC) or 1 (OS), a direction +1 (up) or -1 (down)"
                          ) from None


def events_from_arrays(arrays: EventArrays) -> list[IntrinsicEvent]:
    """Materialize IntrinsicEvent objects from an array buffer.

    The events are named tuples (see ``IntrinsicEvent``): change one with
    ``ev._replace(...)``, read it as a dict with ``ev._asdict()``; the
    dataclass helpers do not apply. Every field holds an enum member, an
    ``int`` or a ``float``, never a numpy scalar, and every event holds the
    one ``arrays.config.delta`` object. A kind code other than 0 or 1, or a
    direction other than +1 or -1, raises DomainError naming the first
    event that has one.
    """
    return _events([arrays.kinds, arrays.directions, arrays.timestamps, arrays.prices,
                    None, None], arrays.config.delta)


def process(ticks: TickInput, config: ThresholdConfig,
            initial_mode: Mode = Mode.UP) -> list[IntrinsicEvent]:
    """Transform a whole tick sequence into its intrinsic-time events.

    Equivalent to folding ``step`` over the sequence after ``new_runner``
    on the first tick, but one pass of ``_GridScan``, which reads each tick
    once however many events there are: in C where a compiler is available
    (see ``kernel_backend``), else in the Python loop that ``step`` runs
    tick by tick. Raises EmptyInputError on an empty sequence, then
    ConfigurationError naming a ``config`` or ``initial_mode`` of the wrong
    type; a single tick yields no events. At the first tick where an
    overshoot step cannot move the reference price, or whose overshoots do
    not fit in memory, it raises the DomainError that ``step`` raises there.
    """
    return _GridScan([config], ticks, initial_mode).events()[0]


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
