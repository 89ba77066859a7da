"""Multi-threshold runs over one tick stream and per-threshold summaries.

Intrinsic time is a multi-scale notion: a grid of thresholds turns one
tick series into one event series per threshold, each with its own
coastline (the cumulative length of all threshold-sized moves). Smaller
thresholds resolve more events and a longer coastline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from . import engine
from .engine import (
    EventArrays,
    EventKind,
    IntrinsicEvent,
    MoveConvention,
    ThresholdConfig,
    TickInput,
    TickSeries,
    as_tick_series,
)
from .errors import ConfigurationError, ConsistencyError


@dataclass(frozen=True)
class ThresholdGrid:
    """Strictly ascending, distinct threshold fractions in (0, 1)."""

    deltas: tuple[float, ...]

    def __post_init__(self):
        deltas = tuple(float(d) for d in self.deltas)
        if not deltas:
            raise ConfigurationError("threshold grid must not be empty")
        for d in deltas:
            ThresholdConfig(d)  # ConfigurationError unless d is in (0, 1)
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
    first_event_ts: int | None = None
    last_event_ts: int | None = None


def _scan_grid(series: TickSeries, grid: GridInput,
               convention: MoveConvention) -> list[tuple[float, EventArrays]]:
    """``run_grid`` before event materialisation: ``(delta, EventArrays)`` pairs."""
    # through the module, so that a patched ``engine.process_arrays`` sees every scan
    return [(d, engine.process_arrays(series, ThresholdConfig(d, convention)))
            for d in as_threshold_grid(grid)]


def run_grid(ticks: TickInput, grid: GridInput,
             convention: MoveConvention = MoveConvention.RELATIVE
             ) -> list[tuple[float, list[IntrinsicEvent]]]:
    """Run one independent runner per threshold over the same ticks.

    Every runner starts in ``Mode.UP``. The thresholds are scanned one
    after another in the calling thread, and the output follows the grid
    order; element i is exactly what a single ``process`` call at that
    threshold returns.
    """
    scans = _scan_grid(as_tick_series(ticks), grid, convention)
    return [(delta, engine.events_from_arrays(arrays)) for delta, arrays in scans]


def summarize(delta: float, events: Sequence[IntrinsicEvent]) -> ThresholdSummary:
    """Counts, coastline and event-time span for one threshold's events.

    All events must carry the given delta; an event that does not raises
    ConsistencyError. Per-segment overshoot lengths are not part of the
    summary: ``overshoot_lengths`` reads them from the scan's arrays.
    """
    for ev in events:
        if ev.delta != delta:
            raise ConsistencyError(f"event delta {ev.delta!r} does not match {delta!r}")
    n_dc = sum(1 for ev in events if ev.kind is EventKind.DIRECTIONAL_CHANGE)
    n_os = len(events) - n_dc
    return ThresholdSummary(
        delta=delta,
        n_dc=n_dc,
        n_os=n_os,
        coastline=(n_dc + n_os) * delta,
        first_event_ts=events[0].timestamp if events else None,
        last_event_ts=events[-1].timestamp if events else None,
    )
