"""Multi-threshold runs over one tick stream and per-threshold summaries.

Intrinsic time is a multi-scale notion: a grid of thresholds turns one
tick series into one event series per threshold, each with its own
coastline (the cumulative length of all threshold-sized moves). Smaller
thresholds resolve more events and a longer coastline.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

import numpy as np

from . import engine
from .engine import (
    EventArrays,
    EventKind,
    IntrinsicEvent,
    Mode,
    MoveConvention,
    ThresholdConfig,
    TickInput,
    TickSeries,
    as_tick_series,
    overshoot_lengths,
)
from .errors import ConfigurationError, ConsistencyError

# Overrides the worker count used for grid runs (positive integer).
THREADS_ENV_VAR = "INTRINSIC_TIME_THREADS"


@dataclass(frozen=True)
class ThresholdGrid:
    """Strictly ascending, distinct threshold fractions in (0, 1)."""

    deltas: tuple[float, ...]

    def __post_init__(self):
        deltas = tuple(float(d) for d in self.deltas)
        if not deltas:
            raise ConfigurationError("threshold grid must not be empty")
        for d in deltas:
            if not (0.0 < d < 1.0):
                raise ConfigurationError(f"threshold {d!r} outside (0, 1)")
        if any(b <= a for a, b in zip(deltas, deltas[1:])):
            raise ConfigurationError(
                f"thresholds must be strictly ascending and distinct, got {deltas}")
        object.__setattr__(self, "deltas", deltas)

    def __len__(self) -> int:
        return len(self.deltas)

    def __iter__(self):
        return iter(self.deltas)


GridInput = Union[ThresholdGrid, Iterable[float]]


def as_threshold_grid(grid: GridInput) -> ThresholdGrid:
    if isinstance(grid, ThresholdGrid):
        return grid
    return ThresholdGrid(tuple(grid))


@dataclass(frozen=True)
class ThresholdSummary:
    """Event counts and coastline for one threshold.

    The coastline is reported in cumulative fractional units: every DC
    and every OS contributes exactly one threshold-sized move, so
    ``coastline == (n_dc + n_os) * delta`` holds identically.
    """

    delta: float
    n_dc: int
    n_os: int
    coastline: float
    overshoot_lengths: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.float64))
    first_event_ts: int | None = None
    last_event_ts: int | None = None


def _default_workers(n_tasks: int) -> int:
    env = os.environ.get(THREADS_ENV_VAR, "").strip()
    if env.isdigit() and int(env) > 0:
        workers = int(env)
    else:
        workers = os.cpu_count() or 1
    return max(1, min(workers, n_tasks))


def _scan_grid(series: TickSeries, grid: GridInput, convention: MoveConvention,
               initial_mode: Mode = Mode.UP,
               max_workers: int | None = None) -> list[tuple[float, EventArrays]]:
    """``run_grid`` before event materialisation: ``(delta, EventArrays)`` pairs."""
    configs = [ThresholdConfig(d, convention) for d in as_threshold_grid(grid)]
    workers = max_workers if max_workers is not None else _default_workers(len(configs))
    # through the module, so that a patched ``engine.process_arrays`` sees every scan
    if workers <= 1 or len(configs) == 1:
        results = [engine.process_arrays(series, c, initial_mode) for c in configs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(
                lambda c: engine.process_arrays(series, c, initial_mode), configs))
    return [(c.delta, arrays) for c, arrays in zip(configs, results)]


def run_grid(ticks: TickInput, grid: GridInput,
             convention: MoveConvention = MoveConvention.RELATIVE,
             initial_mode: Mode = Mode.UP,
             max_workers: int | None = None) -> list[tuple[float, list[IntrinsicEvent]]]:
    """Run one independent runner per threshold over the same ticks.

    Output order follows the grid; element i is exactly what a single
    ``process`` call at that threshold returns. Runners share the
    immutable tick buffer and may execute on a thread pool (the compiled
    scan kernel releases the GIL); results are merged deterministically.
    """
    scans = _scan_grid(as_tick_series(ticks), grid, convention, initial_mode, max_workers)
    return [(delta, engine.events_from_arrays(arrays, delta)) for delta, arrays in scans]


def summarize(delta: float, events: Sequence[IntrinsicEvent],
              ticks: TickInput | None = None,
              convention: MoveConvention = MoveConvention.RELATIVE) -> ThresholdSummary:
    """Counts, coastline and event-time span for one threshold's events.

    All events must carry the given delta. When the source ticks are
    supplied, exact per-segment overshoot lengths are included;
    otherwise that field is left empty.
    """
    for ev in events:
        if ev.delta != delta:
            raise ConsistencyError(
                f"event delta {ev.delta!r} does not match summary delta {delta!r}")
    n_dc = sum(1 for ev in events if ev.kind is EventKind.DIRECTIONAL_CHANGE)
    n_os = len(events) - n_dc
    lengths = np.empty(0, dtype=np.float64)
    if ticks is not None:
        lengths = overshoot_lengths(list(events), ticks,
                                    ThresholdConfig(delta, convention))
    return ThresholdSummary(
        delta=delta,
        n_dc=n_dc,
        n_os=n_os,
        coastline=(n_dc + n_os) * delta,
        overshoot_lengths=lengths,
        first_event_ts=events[0].timestamp if events else None,
        last_event_ts=events[-1].timestamp if events else None,
    )
