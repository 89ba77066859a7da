"""Multi-threshold runs over one tick stream and per-threshold summaries.

Intrinsic time is a multi-scale notion: a grid of thresholds turns one
tick series into one event series per threshold, each with its own
coastline (the cumulative length of all threshold-sized moves). Smaller
thresholds resolve more events and a longer coastline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

from . import engine
from .engine import (
    EventKind,
    IntrinsicEvent,
    MoveConvention,
    ThresholdConfig,
    TickInput,
)
from .errors import ConfigurationError, ConsistencyError


@dataclass(frozen=True)
class ThresholdGrid:
    """Strictly ascending, distinct threshold fractions in (0, 1)."""

    deltas: tuple[float, ...]

    def __post_init__(self):
        # ConfigurationError, as ThresholdConfig raises it, unless each is a number in (0, 1)
        deltas = _ascending(tuple(ThresholdConfig(d).delta for d in _deltas(self.deltas)))
        object.__setattr__(self, "deltas", deltas)

    def __len__(self) -> int:
        return len(self.deltas)

    def __iter__(self):
        return iter(self.deltas)


GridInput = Union[ThresholdGrid, Iterable[float]]


def _deltas(grid) -> Iterator:
    """``iter(grid)``; ConfigurationError for a str, bytes or non-iterable grid."""
    try:
        if not isinstance(grid, (str, bytes)):
            return iter(grid)
    except TypeError:
        pass
    raise ConfigurationError(f"threshold grid must be an iterable of numbers, got {grid!r}")


def _ascending(deltas: tuple[float, ...]) -> tuple[float, ...]:
    """``deltas``, checked deltas, unless they are none or not strictly ascending."""
    if not deltas:
        raise ConfigurationError("threshold grid must not be empty")
    if any(b <= a for a, b in zip(deltas, deltas[1:])):
        raise ConfigurationError(
            f"thresholds must be strictly ascending and distinct, got {deltas}")
    return deltas


def as_threshold_grid(grid: GridInput) -> ThresholdGrid:
    return grid if isinstance(grid, ThresholdGrid) else ThresholdGrid(grid)


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
    configs = [ThresholdConfig(d, convention) for d in _deltas(grid)]
    _ascending(tuple(config.delta for config in configs))
    return configs


def _scan_grid(ticks: TickInput, grid: GridInput,
               convention: MoveConvention) -> engine._GridScan:
    """The ``engine._GridScan`` of ``ticks`` for ``grid``, in grid order; grid
    errors come before tick errors. Looked up in ``engine``, so that a
    patched ``_GridScan`` sees every scan."""
    return engine._GridScan(_configs(grid, convention), ticks)


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
    scan = _scan_grid(ticks, grid, convention)
    return [(config.delta, events) for config, events in zip(scan.configs, scan.events())]


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
