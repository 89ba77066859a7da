"""Seeded synthetic price paths for testing and verification.

Both generators are fully deterministic given their parameters: uniform
doubles come from numpy's PCG64 via ``Generator.random``, and normal
variates are derived from them with the basic Box-Muller transform
(cosine branch) rather than numpy's ziggurat sampler, so the exact
streams can be reproduced from the documented recipe in any language.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import TickSeries, _whole
from .errors import ConfigurationError, DomainError

NS_PER_SECOND = 1_000_000_000


def _whole_at_least(name: str, value, least: int) -> int:
    """``value`` as an int; ConfigurationError unless it is a whole number >= ``least``."""
    whole = _whole(value)
    if whole is None or whole < least:
        raise ConfigurationError(f"{name} must be a whole number >= {least}, got {value!r}")
    return whole


@dataclass(frozen=True)
class GbmParams:
    """Geometric Brownian motion: dS = mu*S*dt + sigma*S*dW, Euler-exact in logs.

    ``dt_step`` is the physical step in seconds; timestamps come out as
    k * dt_step in nanoseconds. ``n_steps`` and ``seed`` are whole numbers,
    >= 1 and >= 0, stored as ints.
    """

    s0: float
    mu: float
    sigma: float
    dt_step: float
    n_steps: int
    seed: int

    def __post_init__(self):
        if not (0.0 < self.s0 < math.inf):
            raise ConfigurationError(f"s0 must be positive and finite, got {self.s0!r}")
        if not math.isfinite(self.mu):
            raise ConfigurationError(f"mu must be finite, got {self.mu!r}")
        if not (0.0 <= self.sigma < math.inf):
            raise ConfigurationError(
                f"sigma must be non-negative and finite, got {self.sigma!r}")
        if not (self.dt_step > 0.0):
            raise ConfigurationError(f"dt_step must be positive, got {self.dt_step!r}")
        object.__setattr__(self, "n_steps", _whole_at_least("n_steps", self.n_steps, 1))
        object.__setattr__(self, "seed", _whole_at_least("seed", self.seed, 0))
        # _timestamps casts the rounded last timestamp to int64; no float
        # below 2**63 rounds up to it, so the unrounded product decides
        if not self.n_steps * (self.dt_step * NS_PER_SECOND) < 2**63:
            raise ConfigurationError(
                f"dt_step {self.dt_step!r} s times n_steps {self.n_steps!r} does not fit"
                " the int64 nanosecond range")


def _standard_normals(rng: np.random.Generator, n: int) -> np.ndarray:
    # Box-Muller, cosine branch: two uniforms per variate, u1 shifted off 0.
    u1 = rng.random(n)
    u2 = rng.random(n)
    return np.sqrt(-2.0 * np.log(1.0 - u1)) * np.cos(2.0 * np.pi * u2)


def _timestamps(n_ticks: int, dt_step_seconds: float) -> np.ndarray:
    ns = np.arange(n_ticks, dtype=np.float64) * (dt_step_seconds * NS_PER_SECOND)
    return np.round(ns).astype(np.int64)


def _path_ticks(what: str, s0: float, log_path: np.ndarray,
                dt_step_seconds: float) -> TickSeries:
    """Ticks at ``s0 * exp(log_path)``; ConfigurationError names ``what`` and
    the first step whose price leaves the float64 range (0 or inf)."""
    with np.errstate(over="ignore", under="ignore"):
        prices = s0 * np.exp(log_path)
    try:
        return TickSeries(_timestamps(log_path.size, dt_step_seconds), prices)
    except DomainError as exc:
        step = int(np.argmin((prices > 0.0) & (prices < np.inf)))
        raise ConfigurationError(f"{what} leaves the float64 price range at step {step}"
                                 f" (price {float(prices[step])!r})") from exc


def generate_gbm(params: GbmParams) -> TickSeries:
    """Simulate GBM: S_{k+1} = S_k * exp((mu - sigma^2/2) dt + sigma sqrt(dt) Z_k).

    Returns n_steps + 1 ticks starting at s0. Identical parameters
    (including the seed) give bit-identical output.
    """
    rng = np.random.default_rng(params.seed)
    z = _standard_normals(rng, params.n_steps)
    drift = (params.mu - 0.5 * params.sigma**2) * params.dt_step
    increments = drift + params.sigma * np.sqrt(params.dt_step) * z
    log_path = np.concatenate(([0.0], np.cumsum(increments)))
    return _path_ticks(repr(params), params.s0, log_path, params.dt_step)


def generate_random_walk(s0: float, step_size: float, n_steps: int,
                         seed: int) -> TickSeries:
    """Log-price random walk with equiprobable +-step_size increments.

    One tick per second plus the starting tick at s0. Deterministic for
    a given seed. ``n_steps`` and ``seed`` are whole numbers, >= 1 and >= 0.
    """
    if not (0.0 < s0 < math.inf):
        raise ConfigurationError(f"s0 must be positive and finite, got {s0!r}")
    if not (0.0 < step_size < 1.0):
        raise ConfigurationError(f"step_size must be in (0, 1), got {step_size!r}")
    n_steps = _whole_at_least("n_steps", n_steps, 1)
    seed = _whole_at_least("seed", seed, 0)
    rng = np.random.default_rng(seed)
    up = rng.random(n_steps) < 0.5
    increments = np.where(up, step_size, -step_size)
    log_path = np.concatenate(([0.0], np.cumsum(increments)))
    return _path_ticks(f"random walk s0={s0!r} step_size={step_size!r} n_steps={n_steps!r}"
                       f" seed={seed!r}", s0, log_path, 1.0)
