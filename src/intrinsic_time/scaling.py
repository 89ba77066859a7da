"""Scaling-law estimation and the liquidity/volatility decomposition.

Three empirical regularities of threshold-based event series are
estimated here. First, the number of directional changes follows a
power law in the threshold, fitted by least squares in log-log space.
Second, the average overshoot length of a completed trend segment is
close to one threshold. Third, mean squared physical-time returns
factorize, up to a constant, into overshoot variability times the
directional-change count, which holds simultaneously across thresholds;
the stability of the measured ratio across a grid is the check.

The fit is deliberately plain ordinary least squares on logs. Rigorous
power-law identification (maximum-likelihood exponents, formal
goodness-of-fit testing against alternatives) is a different job and is
out of scope; r_squared and stderr_b are descriptive diagnostics only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .engine import (
    MoveConvention,
    ThresholdConfig,
    TickInput,
    _moves,
    _whole,
    as_tick_series,
    overshoot_lengths,
)
from .errors import (
    ConfigurationError,
    EmptyInputError,
    FitError,
    InsufficientDataError,
)
from .multiscale import GridInput, _scan_grid, as_threshold_grid


@dataclass(frozen=True)
class ScalingFit:
    """Power law y = a * x^b fitted on logs, with regression diagnostics."""

    a: float
    b: float
    r_squared: float
    stderr_b: float
    n_points: int


@dataclass(frozen=True)
class ReturnSeries:
    """Returns sampled on a fixed physical-time grid of spacing dt (ns)."""

    dt: int
    returns: np.ndarray


@dataclass(frozen=True)
class DecompositionRow:
    """Per-threshold side of the decomposition check.

    ``os_variability`` is the mean squared deviation of completed
    overshoot lengths from the threshold; ``rhs`` multiplies it by the
    DC count. ``ratio`` compares the threshold-independent left side
    against this row; it is None when the row is unusable (fewer than
    two completed segments, or a zero right side).
    """

    delta: float
    os_variability: float | None
    n_dc: int
    rhs: float | None
    ratio: float | None
    insufficient: bool


@dataclass(frozen=True)
class DecompositionReport:
    lhs: float
    rows: tuple[DecompositionRow, ...]
    ratio_cv: float | None
    degenerate: bool


def squared_mean(values) -> float:
    """Mean of squared values, (1/n) * sum(v_i^2)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise EmptyInputError("squared_mean of an empty sequence")
    return float(np.mean(np.square(arr)))


def fit_power_law(points: Iterable[tuple[float, float]]) -> ScalingFit:
    """Ordinary least squares for y = a * x^b on (ln x, ln y).

    Needs at least two points with strictly positive coordinates and
    distinct x values. Constant y is reported as a perfect b = 0 law
    (r_squared 1, stderr 0). With two points the line is exact and
    stderr_b is 0 by convention.
    """
    pts = np.asarray(list(points), dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise FitError("need at least two (x, y) points")
    x, y = pts[:, 0], pts[:, 1]
    if not bool(np.all(np.isfinite(pts))):
        raise FitError("power-law fit requires finite coordinates")
    if not (np.all(x > 0.0) and np.all(y > 0.0)):
        raise FitError("power-law fit requires strictly positive coordinates")
    if np.unique(x).size != x.size:
        raise FitError("x values must be distinct")

    lx, ly = np.log(x), np.log(y)
    n = lx.size
    dx = lx - lx.mean()
    sxx = float(dx @ dx)
    b = float(dx @ (ly - ly.mean())) / sxx
    intercept = float(ly.mean() - b * lx.mean())
    resid = ly - (intercept + b * lx)
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    # constant y up to rounding of the mean: a perfect flat law, not a
    # zero-r-squared fit
    ly_scale = max(1.0, float(np.max(np.abs(ly))))
    noise_floor = n * (8.0 * np.finfo(np.float64).eps * ly_scale) ** 2
    if ss_tot <= noise_floor:
        return ScalingFit(a=float(np.exp(ly.mean())), b=0.0, r_squared=1.0,
                          stderr_b=0.0, n_points=int(n))
    r_squared = min(1.0, max(0.0, 1.0 - ss_res / ss_tot))
    if n <= 2 or ss_res <= 0.0:
        stderr_b = 0.0
    else:
        stderr_b = float(np.sqrt(ss_res / (n - 2) / sxx))
    return ScalingFit(a=float(np.exp(intercept)), b=b, r_squared=r_squared,
                      stderr_b=stderr_b, n_points=int(n))


def mean_overshoot_ratio(overshoot_lengths, delta: float) -> float:
    """Mean overshoot length divided by the threshold; near 1 on diffusive data."""
    arr = np.asarray(overshoot_lengths, dtype=np.float64)
    if arr.size == 0:
        raise EmptyInputError("no completed overshoot segments")
    ThresholdConfig(delta)  # ConfigurationError unless delta is in (0, 1)
    return float(np.mean(arr)) / delta


def physical_returns(ticks: TickInput, dt: int,
                     convention: MoveConvention = MoveConvention.RELATIVE) -> ReturnSeries:
    """Returns sampled every dt nanoseconds by previous-tick interpolation.

    Prices are sampled at t0, t0+dt, t0+2dt, ... using the last tick at
    or before each sample time (no look-ahead), then differenced with
    the given convention. The tick span must cover at least 2 * dt, and
    dt must be a positive whole number (an integral float is accepted).
    """
    series = as_tick_series(ticks)
    ns = _whole(dt)
    if ns is None or ns <= 0:
        raise ConfigurationError(
            f"dt must be a positive whole number of nanoseconds, got {dt!r}")
    dt = ns
    if series.span_ns < 2 * dt:
        raise InsufficientDataError(
            f"tick span {series.span_ns} ns is shorter than 2*dt = {2 * dt} ns")
    n_samples = series.span_ns // dt + 1
    # Every sample time lies in the ticks' int64 range, but an offset from
    # t0 may not; uint64 arithmetic wraps modulo 2**64, so the int64 view
    # of t0 + offset is exact.
    offsets = np.arange(n_samples, dtype=np.uint64) * np.uint64(dt)
    sample_times = (offsets + series.timestamps[:1].view(np.uint64)).view(np.int64)
    idx = np.searchsorted(series.timestamps, sample_times, side="right") - 1
    p = series.prices[idx]
    return ReturnSeries(dt=dt, returns=_moves(p[:-1], p[1:], convention))


def decompose(ticks: TickInput, grid: GridInput, dt: int,
              convention: MoveConvention = MoveConvention.RELATIVE) -> DecompositionReport:
    """Check the return-variance decomposition across a threshold grid.

    The left side is the squared mean of physical-time returns; each
    row's right side is the squared mean of (overshoot length - delta)
    over completed segments times the DC count at that threshold.
    ``ratio_cv`` is the coefficient of variation of lhs/rhs over usable
    rows (population stdev over mean, 0 for a single row, None when no
    row is usable).
    """
    series = as_tick_series(ticks)
    grid = as_threshold_grid(grid)
    lhs = squared_mean(physical_returns(series, dt, convention).returns)

    rows: list[DecompositionRow] = []
    for delta, arrays in _scan_grid(series, grid, convention):
        omegas = overshoot_lengths(arrays)
        n_dc = arrays.n_dc
        if omegas.size < 2:
            rows.append(DecompositionRow(delta, None, n_dc, None, None, True))
            continue
        os_variability = squared_mean(omegas - delta)
        rhs = os_variability * n_dc
        ratio = lhs / rhs if rhs > 0.0 else None
        rows.append(DecompositionRow(delta, os_variability, n_dc, rhs, ratio, False))

    ratios = np.array([r.ratio for r in rows if r.ratio is not None])
    if ratios.size == 0:
        ratio_cv = None
    elif ratios.size == 1:
        ratio_cv = 0.0
    else:
        ratio_cv = float(ratios.std() / ratios.mean())
    degenerate = lhs == 0.0 or ratios.size == 0
    return DecompositionReport(lhs=lhs, rows=tuple(rows), ratio_cv=ratio_cv,
                               degenerate=degenerate)
