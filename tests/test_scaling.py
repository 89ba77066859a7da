"""Tests for power-law fitting, overshoot statistics and the decomposition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import intrinsic_time as it

REL = it.MoveConvention.RELATIVE
LOG = it.MoveConvention.LOG_RETURN
NS = 1_000_000_000


def brownian(sigma, n_steps, seed, dt_step=1.0):
    return it.generate_gbm(it.GbmParams(s0=1.0, mu=0.5 * sigma**2, sigma=sigma,
                                        dt_step=dt_step, n_steps=n_steps,
                                        seed=seed))


# ---------------------------------------------------------------------------
# squared_mean
# ---------------------------------------------------------------------------


def test_squared_mean_examples():
    assert it.squared_mean([1, 2, 3]) == pytest.approx(14 / 3)
    assert it.squared_mean([0, 0]) == 0.0
    assert it.squared_mean([-2, 2]) == 4.0


def test_squared_mean_empty_raises():
    with pytest.raises(it.EmptyInputError):
        it.squared_mean([])


@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30),
       st.floats(-100, 100))
def test_squared_mean_scales_quadratically(values, c):
    arr = np.array(values)
    assert it.squared_mean(c * arr) == pytest.approx(
        c**2 * it.squared_mean(arr), rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# fit_power_law
# ---------------------------------------------------------------------------


def test_fit_exact_two_point_law():
    fit = it.fit_power_law([(0.01, 100.0), (0.1, 1.0)])
    assert fit.b == pytest.approx(-2.0, abs=1e-12)
    assert fit.a == pytest.approx(0.01, rel=1e-12)
    assert fit.r_squared == 1.0
    assert fit.stderr_b == 0.0
    assert fit.n_points == 2


def test_fit_constant_y_is_perfect_flat_law():
    fit = it.fit_power_law([(1.0, 5.0), (2.0, 5.0), (4.0, 5.0)])
    assert fit.b == 0.0
    assert fit.a == pytest.approx(5.0, rel=1e-14)
    assert fit.r_squared == 1.0
    assert fit.stderr_b == 0.0


@pytest.mark.parametrize("points", [
    [(1.0, 2.0)],
    [(1.0, 2.0), (1.0, 3.0)],
    [(1.0, 2.0), (-2.0, 3.0)],
    [(1.0, 0.0), (2.0, 3.0)],
    [(1.0, float("nan")), (2.0, 3.0)],
    [(1.0, 2.0), (float("inf"), 3.0)],
])
def test_fit_rejects_bad_points(points):
    with pytest.raises(it.FitError):
        it.fit_power_law(points)


@given(st.floats(1e-4, 1e4), st.floats(-5, 5), st.integers(3, 12),
       st.integers(0, 2**31))
@settings(max_examples=200)
def test_fit_recovers_exact_laws(a, b, n, seed):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.5, 3.0, n)) * np.geomspace(1e-3, 1e3, n)
    y = a * x**b
    fit = it.fit_power_law(list(zip(x, y)))
    assert abs(fit.b - b) <= 1e-10 * max(1.0, abs(b))
    assert abs(fit.a - a) <= 1e-10 * a
    assert fit.r_squared > 1 - 1e-12


def test_fit_reports_residual_spread():
    fit = it.fit_power_law([(1.0, 1.0), (2.0, 5.0), (4.0, 15.0), (8.0, 70.0)])
    assert fit.stderr_b > 0.0
    assert 0.0 < fit.r_squared < 1.0
    assert fit.n_points == 4


# ---------------------------------------------------------------------------
# mean_overshoot_ratio
# ---------------------------------------------------------------------------


def test_mean_overshoot_ratio_examples():
    for delta in (0.001, 0.01, 0.1):
        assert it.mean_overshoot_ratio([delta] * 3, delta) == pytest.approx(1.0)
        assert it.mean_overshoot_ratio([0.0, 2 * delta], delta) == pytest.approx(1.0)


def test_mean_overshoot_ratio_errors():
    with pytest.raises(it.EmptyInputError):
        it.mean_overshoot_ratio([], 0.01)
    with pytest.raises(it.ConfigurationError):
        it.mean_overshoot_ratio([0.01], 1.5)


def test_mean_overshoot_ratio_brownian():
    walk = brownian(1e-4, 10**6, seed=11)
    cfg = it.ThresholdConfig(0.003)
    omegas = it.overshoot_lengths(it.process_arrays(walk, cfg))
    assert 0.8 <= it.mean_overshoot_ratio(omegas, 0.003) <= 1.2


# ---------------------------------------------------------------------------
# physical_returns
# ---------------------------------------------------------------------------


def test_physical_returns_regular_grid():
    ticks = [(0, 100.0), (1 * NS, 101.0), (2 * NS, 102.0), (3 * NS, 103.0)]
    rs = it.physical_returns(ticks, NS, REL)
    assert rs.dt == NS
    np.testing.assert_allclose(rs.returns, [0.01, 0.009901, 0.009804],
                               rtol=1e-4)
    np.testing.assert_array_equal(
        rs.returns, [(101.0 - 100.0) / 100.0, (102.0 - 101.0) / 101.0,
                     (103.0 - 102.0) / 102.0])


def test_physical_returns_previous_tick_sampling():
    # ticks at 0s, 1.5s, 3s; the 1s and 2s samples hold the prior price
    ticks = [(0, 100.0), (int(1.5 * NS), 110.0), (3 * NS, 120.0)]
    rs = it.physical_returns(ticks, NS, REL)
    sampled = [100.0, 100.0, 110.0, 120.0]
    expected = [(b - a) / a for a, b in zip(sampled, sampled[1:])]
    assert rs.returns.tolist() == expected


def test_physical_returns_log_convention():
    ticks = [(0, 100.0), (NS, 110.0), (2 * NS, 121.0)]
    rs = it.physical_returns(ticks, NS, LOG)
    np.testing.assert_allclose(rs.returns, np.log(1.1), rtol=1e-12)


def test_physical_returns_span_too_short():
    ticks = [(0, 100.0), (NS, 101.0)]
    with pytest.raises(it.InsufficientDataError):
        it.physical_returns(ticks, NS)


def test_physical_returns_rejects_bad_dt():
    with pytest.raises(it.ConfigurationError):
        it.physical_returns([(0, 1.0), (NS, 1.0), (2 * NS, 1.0)], 0)
    ticks = [(0, 1.0), (5, 1.0), (10, 1.0)]
    for dt in (2.5, 0.5, -1, float("nan"), float("inf"), "5"):
        with pytest.raises(it.ConfigurationError, match=f"got {dt!r}"):
            it.physical_returns(ticks, dt)
    for dt in (5, 5.0, np.int64(5), np.float64(5.0)):
        assert it.physical_returns(ticks, dt).dt == 5


def test_physical_returns_span_beyond_int64_is_exact():
    ticks = [(-2**63, 1.0), (0, 2.0), (2**63 - 1, 4.0)]
    # samples at -2**63, -2**62, 0 and 2**62
    rs = it.physical_returns(ticks, 2**62, REL)
    assert rs.returns.tolist() == [0.0, 1.0, 0.0]


def test_return_variance_scales_linearly_with_dt():
    walk = brownian(2e-4, 3 * 10**5, seed=21)
    per_unit = []
    for k in (1, 2, 4):
        rs = it.physical_returns(walk, k * NS, LOG)
        per_unit.append(it.squared_mean(rs.returns) / k)
    for c in per_unit[1:]:
        assert abs(c / per_unit[0] - 1.0) < 0.1


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------


def test_decompose_constant_input_is_degenerate():
    ticks = [(k * NS, 42.0) for k in range(1000)]
    report = it.decompose(ticks, [0.001, 0.01], 10 * NS)
    assert report.lhs == 0.0
    assert report.degenerate
    assert all(row.n_dc == 0 and row.insufficient for row in report.rows)
    assert report.ratio_cv is None


def test_decompose_single_threshold_cv_zero():
    walk = brownian(1e-4, 2 * 10**5, seed=31)
    report = it.decompose(walk, [0.001], 50 * NS)
    assert not report.degenerate
    assert report.ratio_cv == 0.0
    assert report.rows[0].ratio is not None


def test_decompose_ratio_stable_across_thresholds():
    walk = brownian(1e-4, 10**6, seed=41)
    report = it.decompose(walk, [0.001, 0.002, 0.004, 0.008], 100 * NS)
    assert not report.degenerate
    assert all(not row.insufficient for row in report.rows)
    assert report.ratio_cv < 0.3


def test_decompose_rows_follow_definition():
    walk = brownian(2e-4, 10**5, seed=51)
    grid = [0.002, 0.004]
    dt = 20 * NS
    report = it.decompose(walk, grid, dt)
    lhs = it.squared_mean(it.physical_returns(walk, dt).returns)
    assert report.lhs == lhs
    for row in report.rows:
        cfg = it.ThresholdConfig(row.delta)
        arrays = it.process_arrays(walk, cfg)
        events = it.events_from_arrays(arrays)
        omegas = it.overshoot_lengths(arrays)
        assert row.n_dc == sum(1 for e in events
                               if e.kind is it.EventKind.DIRECTIONAL_CHANGE)
        assert row.os_variability == pytest.approx(
            it.squared_mean(omegas - row.delta), rel=1e-12)
        assert row.rhs == pytest.approx(row.os_variability * row.n_dc, rel=1e-12)
        assert row.ratio == pytest.approx(lhs / row.rhs, rel=1e-12)


def test_overshoot_variability_scales_with_delta_squared():
    walk = brownian(1e-4, 10**6, seed=61)
    report = it.decompose(walk, [0.001, 0.002, 0.004, 0.008], 100 * NS)
    points = [(row.delta, row.os_variability) for row in report.rows]
    fit = it.fit_power_law(points)
    assert abs(fit.b - 2.0) <= 0.3


def test_decompose_log_convention_rescale_invariant():
    walk = brownian(2e-4, 10**5, seed=71)
    scaled = it.TickSeries(walk.timestamps, walk.prices * 2.0)
    grid = [0.002, 0.004]
    a = it.decompose(walk, grid, 20 * NS, LOG)
    b = it.decompose(scaled, grid, 20 * NS, LOG)
    assert a.lhs == pytest.approx(b.lhs, rel=1e-9)
    assert a.ratio_cv == pytest.approx(b.ratio_cv, rel=1e-9, abs=1e-12)
    for ra, rb in zip(a.rows, b.rows):
        assert ra.n_dc == rb.n_dc
        assert ra.ratio == pytest.approx(rb.ratio, rel=1e-9)
