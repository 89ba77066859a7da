"""Event-based intrinsic time for tick data.

Transforms tick-by-tick price series into directional-change and
overshoot event series at one or many thresholds, computes per-threshold
coastlines, and estimates the power-law and decomposition regularities
those event series exhibit. Includes seeded synthetic generators and
plain CSV/JSONL serialization; see the ``cli`` module or the
``intrinsic-time`` entry point for the command-line pipeline.

``import intrinsic_time`` loads no submodule, nor numpy, until one is used (PEP 562).
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "engine": "BOUNDARY_TOLERANCE EventArrays EventKind IntrinsicEvent Mode MoveConvention"
              " RunnerState ThresholdConfig Tick TickSeries as_tick_series events_from_arrays"
              " kernel_backend new_runner overshoot_lengths process process_arrays"
              " relative_move step",
    "errors": "ConfigurationError ConsistencyError DomainError EmptyInputError FitError"
              " IngestionError InsufficientDataError IntrinsicTimeError OrderingError WriteError",
    "io": "EventFileFormat TickFileSpec TimestampUnit parse_ticks read_events write_events"
          " write_ticks",
    "multiscale": "ThresholdGrid ThresholdSummary as_threshold_grid run_grid summarize",
    "scaling": "DecompositionReport DecompositionRow ReturnSeries ScalingFit decompose"
               " fit_power_law mean_overshoot_ratio physical_returns squared_mean",
    "synthetic": "GbmParams generate_gbm generate_random_walk",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME and name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_HOME.get(name, name)}")
    globals()[name] = value = getattr(module, name) if name in _HOME else module
    return value  # stored above, so that later lookups do not come here


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
