"""Tests for grid runs, summaries and the coastline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import intrinsic_time as it
from intrinsic_time import multiscale

DC = it.EventKind.DIRECTIONAL_CHANGE
OS = it.EventKind.OVERSHOOT

FOUR_TICKS = [(0, 100.0), (1, 99.0), (2, 98.01), (3, 99.0001)]


def test_singleton_grid_matches_single_process():
    events = it.process(FOUR_TICKS, it.ThresholdConfig(0.01))
    results = it.run_grid(FOUR_TICKS, [0.01])
    assert results == [(0.01, events)]


def test_grid_scan_returns_one_event_buffer_per_threshold():
    series = it.as_tick_series(FOUR_TICKS)
    scans = multiscale._scan_grid(series, [0.005, 0.01], it.MoveConvention.LOG_RETURN)
    assert [type(arrays) for arrays in scans] == [it.EventArrays] * 2
    assert [arrays.config for arrays in scans] == [
        it.ThresholdConfig(d, it.MoveConvention.LOG_RETURN) for d in (0.005, 0.01)]
    assert scans[1] == it.process_arrays(series, scans[1].config)


def test_two_threshold_grid_on_fixture():
    results = it.run_grid(FOUR_TICKS, [0.005, 0.01])
    assert [delta for delta, _ in results] == [0.005, 0.01]
    fine, coarse = results[0][1], results[1][1]
    assert len(fine) >= len(coarse)
    assert len(coarse) == 3


@pytest.mark.parametrize("deltas", [
    [0.01, 0.01],
    [0.01, 0.005],
    [0.0, 0.01],
    [0.01, 1.5],
    [],
    ["x"],  # not numbers: the error ThresholdConfig raises, not a bare one
    [None],
    ["0.5"],
])
def test_invalid_grids_rejected(deltas):
    with pytest.raises(it.ConfigurationError):
        it.ThresholdGrid(tuple(deltas))
    with pytest.raises(it.ConfigurationError):
        it.run_grid(FOUR_TICKS, deltas)
    with pytest.raises(it.ConfigurationError):
        it.decompose(FOUR_TICKS, deltas, 1)


@pytest.mark.parametrize("grid", [[0.005, 0.01], iter([0.005, 0.01]),
                                  it.ThresholdGrid((0.005, 0.01))])
def test_each_delta_is_checked_once_per_grid_call(monkeypatch, grid):
    checked, post_init = [], it.ThresholdConfig.__post_init__
    monkeypatch.setattr(it.ThresholdConfig, "__post_init__",
                        lambda config: checked.append(config.delta) or post_init(config))
    results = it.run_grid(FOUR_TICKS, grid, it.MoveConvention.LOG_RETURN)
    assert [delta for delta, _ in results] == checked == [0.005, 0.01]


@pytest.mark.parametrize("deltas, message", [
    ([0.01, 0.005], "strictly ascending"), ([0.01, 1.5], "delta must be in"),
    ([], "must not be empty"), ([0.01], "unknown move convention")])
def test_grid_errors_come_before_the_conventions(deltas, message):
    # as ThresholdGrid(deltas), then ThresholdConfig(delta, convention), raise them
    for grid in (deltas, iter(deltas)):
        with pytest.raises(it.ConfigurationError, match=message):
            it.run_grid(FOUR_TICKS, grid, "log")


def test_run_grid_rejects_duplicate_deltas():
    with pytest.raises(it.ConfigurationError):
        it.run_grid(FOUR_TICKS, [0.01, 0.01])


def test_grid_results_independent_of_other_thresholds():
    walk = it.generate_random_walk(50.0, 0.003, 5000, seed=3)
    grid = [0.002, 0.004, 0.01]
    combined = it.run_grid(walk, grid)
    for delta, events in combined:
        alone = it.process(walk, it.ThresholdConfig(delta))
        assert events == alone


def test_summarize_empty_events():
    s = it.summarize(0.01, [])
    assert (s.n_dc, s.n_os, s.coastline) == (0, 0, 0.0)
    assert s.first_event_ts is None and s.last_event_ts is None


def test_summarize_counts_and_coastline():
    events = [
        it.IntrinsicEvent(DC, it.Mode.DOWN, 1, 99.0, 0.01, 0),
        it.IntrinsicEvent(OS, it.Mode.DOWN, 2, 98.01, 0.01, 1),
        it.IntrinsicEvent(DC, it.Mode.UP, 3, 99.0001, 0.01, 2),
    ]
    s = it.summarize(0.01, events)
    assert (s.n_dc, s.n_os) == (2, 1)
    assert s.coastline == pytest.approx(0.03)
    assert s.coastline == (s.n_dc + s.n_os) * 0.01
    assert (s.first_event_ts, s.last_event_ts) == (1, 3)


def test_summarize_rejects_mixed_deltas():
    events = [it.IntrinsicEvent(DC, it.Mode.DOWN, 1, 99.0, 0.02, 0)]
    with pytest.raises(it.ConsistencyError):
        it.summarize(0.01, events)


def test_summarize_with_ticks_fills_overshoot_lengths():
    cfg = it.ThresholdConfig(0.01)
    omegas = it.overshoot_lengths(it.process_arrays(FOUR_TICKS, cfg))
    assert omegas.shape == (1,)
    assert omegas[0] == pytest.approx(0.01)


@given(st.integers(min_value=0, max_value=2**31), st.sampled_from([0.002, 0.01]))
@settings(max_examples=60)
def test_coastline_identity(seed, delta):
    walk = it.generate_random_walk(1.0, 0.004, 300, seed=seed)
    events = it.process(walk, it.ThresholdConfig(delta))
    s = it.summarize(delta, events)
    assert s.coastline == (s.n_dc + s.n_os) * delta
    assert s.n_dc == sum(1 for e in events if e.kind is DC)
    assert s.n_os == sum(1 for e in events if e.kind is OS)


def test_finer_threshold_yields_longer_coastline_on_long_walk():
    sigma = 1e-4
    walk = it.generate_gbm(it.GbmParams(s0=1.0, mu=0.5 * sigma**2, sigma=sigma,
                                        dt_step=1.0, n_steps=10**6, seed=6))
    results = dict(it.run_grid(walk, [0.001, 0.01]))
    fine = it.summarize(0.001, results[0.001]).coastline
    coarse = it.summarize(0.01, results[0.01]).coastline
    assert fine > coarse


def test_coastline_shrinks_as_threshold_grows():
    # statistical property of diffusive inputs, checked across seeds
    grid = [0.002, 0.004, 0.008]
    for seed in range(20):
        walk = it.generate_gbm(it.GbmParams(s0=1.0, mu=0.0, sigma=4e-4,
                                            dt_step=1.0, n_steps=10**5,
                                            seed=seed))
        coastlines = [it.summarize(d, events).coastline
                      for d, events in it.run_grid(walk, grid)]
        assert all(a >= b for a, b in zip(coastlines, coastlines[1:])), \
            f"coastline increased with threshold for seed {seed}: {coastlines}"
