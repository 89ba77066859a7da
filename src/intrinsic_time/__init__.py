"""Event-based intrinsic time for tick data.

Transforms tick-by-tick price series into directional-change and
overshoot event series at one or many thresholds, computes per-threshold
coastlines, and estimates the power-law and decomposition regularities
those event series exhibit. Includes seeded synthetic generators and
plain CSV/JSONL serialization; see the ``cli`` module or the
``intrinsic-time`` entry point for the command-line pipeline.
"""

from .engine import (
    BOUNDARY_TOLERANCE,
    EventArrays,
    EventKind,
    IntrinsicEvent,
    Mode,
    MoveConvention,
    RunnerState,
    ThresholdConfig,
    Tick,
    TickSeries,
    as_tick_series,
    events_from_arrays,
    kernel_backend,
    new_runner,
    overshoot_lengths,
    process,
    process_arrays,
    relative_move,
    step,
)
from .errors import (
    ConfigurationError,
    ConsistencyError,
    DomainError,
    EmptyInputError,
    FitError,
    IngestionError,
    InsufficientDataError,
    IntrinsicTimeError,
    OrderingError,
    WriteError,
)
from .io import (
    EventFileFormat,
    TickFileSpec,
    TimestampUnit,
    parse_ticks,
    read_events,
    write_events,
    write_ticks,
)
from .multiscale import (
    ThresholdGrid,
    ThresholdSummary,
    as_threshold_grid,
    run_grid,
    summarize,
)
from .scaling import (
    DecompositionReport,
    DecompositionRow,
    ReturnSeries,
    ScalingFit,
    decompose,
    fit_power_law,
    mean_overshoot_ratio,
    physical_returns,
    squared_mean,
)
from .synthetic import GbmParams, generate_gbm, generate_random_walk

__version__ = "0.1.0"

__all__ = [
    "BOUNDARY_TOLERANCE",
    "ConfigurationError",
    "ConsistencyError",
    "DecompositionReport",
    "DecompositionRow",
    "DomainError",
    "EmptyInputError",
    "EventArrays",
    "EventFileFormat",
    "EventKind",
    "FitError",
    "GbmParams",
    "IngestionError",
    "InsufficientDataError",
    "IntrinsicEvent",
    "IntrinsicTimeError",
    "Mode",
    "MoveConvention",
    "OrderingError",
    "ReturnSeries",
    "RunnerState",
    "ScalingFit",
    "ThresholdConfig",
    "ThresholdGrid",
    "ThresholdSummary",
    "Tick",
    "TickFileSpec",
    "TickSeries",
    "TimestampUnit",
    "WriteError",
    "as_threshold_grid",
    "as_tick_series",
    "decompose",
    "events_from_arrays",
    "fit_power_law",
    "generate_gbm",
    "generate_random_walk",
    "kernel_backend",
    "mean_overshoot_ratio",
    "new_runner",
    "overshoot_lengths",
    "parse_ticks",
    "physical_returns",
    "process",
    "process_arrays",
    "read_events",
    "relative_move",
    "run_grid",
    "squared_mean",
    "step",
    "summarize",
    "write_events",
    "write_ticks",
]
