"""Seeded synthetic price paths for testing and verification.

Both generators are fully deterministic given their parameters: uniform
doubles come from numpy's PCG64 via ``Generator.random``, and normal
variates are derived from them with the basic Box-Muller transform
(cosine branch) rather than numpy's ziggurat sampler, so the exact
streams can be reproduced from the documented recipe in any language.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import TickSeries
from .errors import ConfigurationError

NS_PER_SECOND = 1_000_000_000


@dataclass(frozen=True)
class GbmParams:
    """Geometric Brownian motion: dS = mu*S*dt + sigma*S*dW, Euler-exact in logs.

    ``dt_step`` is the physical step in seconds; timestamps come out as
    k * dt_step in nanoseconds.
    """

    s0: float
    mu: float
    sigma: float
    dt_step: float
    n_steps: int
    seed: int

    def __post_init__(self):
        if not (self.s0 > 0.0):
            raise ConfigurationError(f"s0 must be positive, got {self.s0!r}")
        if self.sigma < 0.0:
            raise ConfigurationError(f"sigma must be non-negative, got {self.sigma!r}")
        if not (self.dt_step > 0.0):
            raise ConfigurationError(f"dt_step must be positive, got {self.dt_step!r}")
        if self.n_steps < 1:
            raise ConfigurationError(f"n_steps must be >= 1, got {self.n_steps!r}")
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
    prices = params.s0 * np.exp(log_path)
    return TickSeries(_timestamps(params.n_steps + 1, params.dt_step), prices)


def generate_random_walk(s0: float, step_size: float, n_steps: int,
                         seed: int) -> TickSeries:
    """Log-price random walk with equiprobable +-step_size increments.

    One tick per second plus the starting tick at s0. Deterministic for
    a given seed.
    """
    if not (s0 > 0.0):
        raise ConfigurationError(f"s0 must be positive, got {s0!r}")
    if not (0.0 < step_size < 1.0):
        raise ConfigurationError(f"step_size must be in (0, 1), got {step_size!r}")
    if n_steps < 1:
        raise ConfigurationError(f"n_steps must be >= 1, got {n_steps!r}")
    rng = np.random.default_rng(seed)
    up = rng.random(n_steps) < 0.5
    increments = np.where(up, step_size, -step_size)
    log_path = np.concatenate(([0.0], np.cumsum(increments)))
    prices = s0 * np.exp(log_path)
    return TickSeries(_timestamps(n_steps + 1, 1.0), prices)
