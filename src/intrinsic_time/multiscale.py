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
        # ConfigurationError, as ThresholdConfig raises it, unless each is a number in (0, 1)
        deltas = _ascending(tuple(ThresholdConfig(d).delta for d in self.deltas))
        object.__setattr__(self, "deltas", deltas)

    def __len__(self) -> int:
        return len(self.deltas)

    def __iter__(self):
        return iter(self.deltas)


GridInput = Union[ThresholdGrid, Iterable[float]]


def _ascending(deltas: tuple[float, ...]) -> tuple[float, ...]:
    """``deltas``, checked deltas, unless they are none or not strictly ascending."""
    if not deltas:
        raise ConfigurationError("threshold grid must not be empty")
    if any(b <= a for a, b in zip(deltas, deltas[1:])):
        raise ConfigurationError(
            f"thresholds must be strictly ascending and distinct, got {deltas}")
    return deltas


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


def _configs(grid: GridInput, convention: MoveConvention) -> list[ThresholdConfig]:
    """The configs of ``grid``, each delta checked once, by its config; the
    errors are those of ``ThresholdGrid(grid)``, then of the convention."""
    if isinstance(grid, ThresholdGrid) or not isinstance(convention, MoveConvention):
        return [ThresholdConfig(d, convention) for d in as_threshold_grid(grid)]
    configs = [ThresholdConfig(d, convention) for d in grid]
    _ascending(tuple(config.delta for config in configs))
    return configs


def _scan_grid(series: TickSeries, grid: GridInput,
               convention: MoveConvention) -> list[EventArrays]:
    """``run_grid`` as event arrays: those of every threshold, in grid
    order, each carrying its threshold in ``config.delta``, from one call
    of the grid driver, which reads each tick once for the whole grid."""
    # through the module, so that a patched ``engine._grid_scan`` sees every pass
    return engine._grid_scan(series, _configs(grid, convention)).finish()


def run_grid(ticks: TickInput, grid: GridInput,
             convention: MoveConvention = MoveConvention.RELATIVE
             ) -> list[tuple[float, list[IntrinsicEvent]]]:
    """Run one independent runner per threshold over the same ticks.

    Every runner starts in ``Mode.UP``. One pass over the ticks in the
    calling thread serves every threshold (with the C kernel; the Python
    fallback scans once per threshold), and the output follows the grid
    order; element i is exactly what a single ``process`` call at that
    threshold returns. The events of the whole grid are built in one call
    of the C builder where the kernel has it. The first tick, then
    threshold, where a threshold stalls or floods raises the DomainError
    that ``process`` raises for that threshold alone.
    """
    series = as_tick_series(ticks)
    configs = _configs(grid, convention)
    events = engine._grid_scan(series, configs).events()
    return [(config.delta, config_events) for config, config_events in zip(configs, events)]


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
