"""Tests for the seeded synthetic price generators."""

import math
import re
import warnings

import numpy as np
import pytest

import intrinsic_time as it

NS = 1_000_000_000
DC = it.EventKind.DIRECTIONAL_CHANGE
OS = it.EventKind.OVERSHOOT


def test_zero_vol_zero_drift_is_constant():
    series = it.generate_gbm(it.GbmParams(s0=7.25, mu=0.0, sigma=0.0,
                                          dt_step=1.0, n_steps=100, seed=1))
    assert len(series) == 101
    np.testing.assert_array_equal(series.prices, np.full(101, 7.25))


def test_zero_vol_positive_drift_is_exponential_ramp():
    mu, dt = 0.03, 0.5
    series = it.generate_gbm(it.GbmParams(s0=2.0, mu=mu, sigma=0.0,
                                          dt_step=dt, n_steps=50, seed=1))
    k = np.arange(51)
    np.testing.assert_allclose(series.prices, 2.0 * np.exp(mu * k * dt),
                               rtol=1e-12)


def test_gbm_log_return_variance_matches_sigma():
    # zero log drift keeps the path level so long runs do not underflow
    sigma, dt = 0.01, 1.0
    series = it.generate_gbm(it.GbmParams(s0=100.0, mu=0.5 * sigma**2,
                                          sigma=sigma, dt_step=dt,
                                          n_steps=10**5, seed=9))
    log_rets = np.diff(np.log(series.prices))
    assert abs(log_rets.var() / (sigma**2 * dt) - 1.0) < 0.05


def test_gbm_deterministic_for_seed():
    params = it.GbmParams(s0=1.0, mu=0.01, sigma=0.1, dt_step=0.25,
                          n_steps=5000, seed=123)
    a, b = it.generate_gbm(params), it.generate_gbm(params)
    np.testing.assert_array_equal(a.prices, b.prices)
    np.testing.assert_array_equal(a.timestamps, b.timestamps)
    c = it.generate_gbm(it.GbmParams(s0=1.0, mu=0.01, sigma=0.1, dt_step=0.25,
                                     n_steps=5000, seed=124))
    assert not np.array_equal(a.prices, c.prices)


def test_gbm_prices_positive_timestamps_equidistant():
    series = it.generate_gbm(it.GbmParams(s0=0.001, mu=-0.001, sigma=0.05,
                                          dt_step=0.1, n_steps=20000, seed=5))
    assert np.all(series.prices > 0)
    steps = np.diff(series.timestamps)
    assert np.all(steps == steps[0])
    assert steps[0] == int(0.1 * NS)


def test_zero_vol_gbm_triggers_no_events():
    series = it.generate_gbm(it.GbmParams(s0=10.0, mu=0.0, sigma=0.0,
                                          dt_step=1.0, n_steps=1000, seed=2))
    for delta in (0.0001, 0.01):
        assert it.process(series, it.ThresholdConfig(delta)) == []


@pytest.mark.parametrize("kwargs", [
    dict(s0=0.0, mu=0.0, sigma=0.1, dt_step=1.0, n_steps=10, seed=0),
    dict(s0=1.0, mu=0.0, sigma=-0.1, dt_step=1.0, n_steps=10, seed=0),
    dict(s0=1.0, mu=0.0, sigma=0.1, dt_step=0.0, n_steps=10, seed=0),
    dict(s0=1.0, mu=0.0, sigma=0.1, dt_step=1.0, n_steps=0, seed=0),
])
def test_gbm_invalid_params_rejected(kwargs):
    with pytest.raises(it.ConfigurationError):
        it.GbmParams(**kwargs)


@pytest.mark.parametrize("name, value", [("s0", math.inf), ("mu", math.nan), ("mu", math.inf),
                                         ("mu", -math.inf), ("sigma", math.nan),
                                         ("sigma", math.inf)])
def test_gbm_parameters_that_are_not_finite_are_named(name, value):
    kwargs = dict(s0=1.0, mu=0.0, sigma=0.1, dt_step=1.0, n_steps=10, seed=0)
    with pytest.raises(it.ConfigurationError, match=f"^{name} must be .*finite, got {value!r}$"):
        it.GbmParams(**{**kwargs, name: value})


def test_walk_s0_that_is_not_finite_is_named():
    with pytest.raises(it.ConfigurationError, match="^s0 must be positive and finite, got inf$"):
        it.generate_random_walk(math.inf, 0.01, 10, seed=0)


def test_gbm_span_past_int64_is_a_configuration_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for dt_step, n_steps in [(5e9, 3), (9.3e9, 1), (1e300, 1), (math.inf, 1)]:
            with pytest.raises(it.ConfigurationError, match="dt_step .* n_steps"):
                it.generate_gbm(it.GbmParams(s0=1.0, mu=0.0, sigma=1e-4, dt_step=dt_step,
                                             n_steps=n_steps, seed=1))
        series = it.generate_gbm(it.GbmParams(s0=1.0, mu=0.0, sigma=1e-4, dt_step=9.2e9,
                                              n_steps=1, seed=1))
    assert series.timestamps.tolist() == [0, 9_200_000_000_000_000_000]


def test_walk_single_step_hits_one_of_two_prices():
    seen = set()
    for seed in range(40):
        series = it.generate_random_walk(1.0, 0.01, 1, seed=seed)
        assert len(series) == 2
        p = series.prices[1]
        assert p == pytest.approx(np.exp(0.01)) or p == pytest.approx(np.exp(-0.01))
        seen.add(p > 1.0)
    assert seen == {True, False}


def test_walk_deterministic_for_seed():
    a = it.generate_random_walk(2.0, 0.005, 3000, seed=77)
    b = it.generate_random_walk(2.0, 0.005, 3000, seed=77)
    np.testing.assert_array_equal(a.prices, b.prices)


@pytest.mark.parametrize("kwargs", [
    dict(s0=-1.0, step_size=0.01, n_steps=10, seed=0),
    dict(s0=1.0, step_size=0.0, n_steps=10, seed=0),
    dict(s0=1.0, step_size=1.0, n_steps=10, seed=0),
    dict(s0=1.0, step_size=0.01, n_steps=0, seed=0),
])
def test_walk_invalid_params_rejected(kwargs):
    with pytest.raises(it.ConfigurationError):
        it.generate_random_walk(**kwargs)


WHOLE_NUMBER_CASES = [("n_steps", 0, ">= 1"), ("n_steps", 2.5, ">= 1"),
                      ("n_steps", None, ">= 1"), ("n_steps", "10", ">= 1"),
                      ("seed", -1, ">= 0"), ("seed", 1.5, ">= 0"), ("seed", None, ">= 0"),
                      ("seed", math.nan, ">= 0"), ("seed", "7", ">= 0")]



def whole_number_message(name, value, bound):
    return f"^{name} must be a whole number {bound}, got {re.escape(repr(value))}$"


@pytest.mark.parametrize("name, value, bound", WHOLE_NUMBER_CASES)
def test_gbm_seed_and_step_count_must_be_whole_numbers(name, value, bound):
    kwargs = dict(s0=1.0, mu=0.0, sigma=0.1, dt_step=1.0, n_steps=10, seed=0)
    with pytest.raises(it.ConfigurationError, match=whole_number_message(name, value, bound)):
        it.GbmParams(**{**kwargs, name: value})


@pytest.mark.parametrize("name, value, bound", WHOLE_NUMBER_CASES)
def test_walk_seed_and_step_count_must_be_whole_numbers(name, value, bound):
    kwargs = dict(s0=1.0, step_size=0.01, n_steps=10, seed=0)
    with pytest.raises(it.ConfigurationError, match=whole_number_message(name, value, bound)):
        it.generate_random_walk(**{**kwargs, name: value})


def test_whole_float_seed_and_step_count_give_the_int_path():
    gbm = dict(s0=1.0, mu=0.0, sigma=0.01, dt_step=1.0)
    params = it.GbmParams(**gbm, n_steps=200.0, seed=np.int64(3))
    assert params == it.GbmParams(**gbm, n_steps=200, seed=3)
    assert type(params.n_steps) is int and type(params.seed) is int
    a, b = it.generate_gbm(params), it.generate_gbm(it.GbmParams(**gbm, n_steps=200, seed=3))
    assert a.prices.tobytes() == b.prices.tobytes()
    walk = it.generate_random_walk(1.0, 0.01, 200.0, seed=3.0)
    assert walk.prices.tobytes() == it.generate_random_walk(1.0, 0.01, 200, 3).prices.tobytes()


def predicted_events_from_signs(signs):
    """Combinatorial oracle for a walk whose every step is one threshold.

    After the first counter-trend step, every step emits exactly one
    event: a DC when the step direction flips, an OS when it repeats.
    """
    out = []
    mode = 1
    started = False
    for sgn in signs:
        if not started:
            if sgn == -mode:
                out.append(("DC", sgn))
                mode = sgn
                started = True
        elif sgn == mode:
            out.append(("OS", sgn))
        else:
            out.append(("DC", sgn))
            mode = sgn
    return out


def test_threshold_sized_walk_steps_match_sign_change_count():
    # each step slightly exceeds the threshold so a reversal step is a DC
    # and a trend step is an OS, robust to rounding at the exact boundary
    delta = 0.005
    step = delta * (1.0 + 1e-6)
    for seed in range(20):
        walk = it.generate_random_walk(1.0, step, 2000, seed=seed)
        signs = np.sign(np.diff(np.log(walk.prices))).astype(int).tolist()
        events = it.process(walk, it.ThresholdConfig(
            delta, it.MoveConvention.LOG_RETURN))
        got = [("DC" if e.kind is DC else "OS", e.direction.value) for e in events]
        assert got == predicted_events_from_signs(signs)
        n_flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        first_down = next((i for i, s in enumerate(signs) if s == -1), None)
        expected_dc = n_flips + (1 if first_down == 0 else 0)
        assert sum(1 for k, _ in got if k == "DC") == expected_dc


@pytest.mark.parametrize("make,named,step,price", [
    (lambda: it.generate_gbm(it.GbmParams(s0=100.0, mu=0.0, sigma=0.3, dt_step=1.0,
                                          n_steps=30000, seed=11)),
     "sigma=0.3", 16527, 0.0),
    (lambda: it.generate_random_walk(1.0, 0.9, 1_000_000, 3), "step_size=0.9", 427680, 0.0),
    (lambda: it.generate_gbm(it.GbmParams(s0=1e308, mu=1.0, sigma=0.0, dt_step=1.0,
                                          n_steps=10, seed=0)),
     "s0=1e+308", 1, math.inf),
    (lambda: it.generate_gbm(it.GbmParams(s0=1.0, mu=1000.0, sigma=0.0, dt_step=1.0,
                                          n_steps=3, seed=0)),
     "mu=1000.0", 1, math.inf),
], ids=["gbm-underflow", "walk", "gbm-overflow", "gbm-exp-overflow"])
def test_paths_that_leave_float64_raise_configuration_error(make, named, step, price):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(it.ConfigurationError) as err:
            make()
    message = str(err.value)
    assert named in message
    assert message.endswith(f"leaves the float64 price range at step {step} (price {price!r})")
