"""Unit and property tests for the event engine."""

import math
import shutil
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import intrinsic_time as it
from intrinsic_time import engine
from oracle_reference import DOWN, UP, reference_events, reference_overshoots

REL = it.MoveConvention.RELATIVE
LOG = it.MoveConvention.LOG_RETURN
DC = it.EventKind.DIRECTIONAL_CHANGE
OS = it.EventKind.OVERSHOOT


def ticks_from_prices(prices, timestamps=None):
    if timestamps is None:
        timestamps = range(len(prices))
    return [it.Tick(int(t), float(p)) for t, p in zip(timestamps, prices)]


def run(prices, delta, convention=REL, initial_mode=it.Mode.UP, timestamps=None):
    config = it.ThresholdConfig(delta, convention)
    return it.process(ticks_from_prices(prices, timestamps), config, initial_mode)


def as_tuples(events):
    return [(ev.kind.value, ev.direction.value, ev.timestamp, ev.price)
            for ev in events]


# ---------------------------------------------------------------------------
# construction and elementary moves
# ---------------------------------------------------------------------------


def test_new_runner_initializes_at_first_tick():
    state = it.new_runner(it.ThresholdConfig(0.01), it.Tick(0, 100.0), it.Mode.UP)
    assert state.mode is it.Mode.UP
    assert state.extremum_price == 100.0
    assert state.os_reference_price == 100.0
    assert state.dc_count_since_init == 0
    assert state.intrinsic_clock == 0
    assert state.dc_confirm_price is None


def test_new_runner_down_mode():
    state = it.new_runner(it.ThresholdConfig(0.005), it.Tick(0, 1.1250), it.Mode.DOWN)
    assert state.mode is it.Mode.DOWN
    assert state.extremum_price == 1.1250
    assert state.os_reference_price == 1.1250
    assert state.intrinsic_clock == 0


@pytest.mark.parametrize("delta", [1.5, 1.0, 0.0, -0.2])
def test_threshold_out_of_range_rejected(delta):
    with pytest.raises(it.ConfigurationError):
        it.ThresholdConfig(delta)


def test_new_runner_rejects_nonpositive_price():
    with pytest.raises(it.DomainError):
        it.new_runner(it.ThresholdConfig(0.01), it.Tick(0, 0.0))


def test_relative_move_examples():
    assert it.relative_move(100.0, 99.0, REL) == pytest.approx(-0.01)
    assert it.relative_move(100.0, 100.0, LOG) == 0.0
    assert it.relative_move(99.0, 98.01, REL) == pytest.approx(-0.01)


def test_relative_move_rejects_nonpositive_price():
    with pytest.raises(it.DomainError):
        it.relative_move(-1.0, 2.0)
    with pytest.raises(it.DomainError):
        it.relative_move(1.0, 0.0, LOG)
    for convention in (REL, LOG):
        for prices in ((1.0, math.inf), (math.inf, 1.0), (1.0, -math.inf)):
            with pytest.raises(it.DomainError):
                it.relative_move(*prices, convention)


# ---------------------------------------------------------------------------
# hand-traced step behaviour
# ---------------------------------------------------------------------------


def test_step_move_just_inside_threshold_is_silent():
    cfg = it.ThresholdConfig(0.005)
    state = it.new_runner(cfg, it.Tick(0, 100.0))
    state, _ = it.step(state, it.Tick(1, 101.0), cfg)
    assert state.extremum_price == 101.0
    state, events = it.step(state, it.Tick(2, 100.50), cfg)
    # (100.50 - 101) / 101 is about -0.495%, short of the 0.5% threshold
    assert events == []
    assert state.mode is it.Mode.UP


def test_step_reversal_at_threshold_fires_dc():
    cfg = it.ThresholdConfig(0.005)
    state = it.new_runner(cfg, it.Tick(0, 100.0))
    state, _ = it.step(state, it.Tick(1, 101.0), cfg)
    state, events = it.step(state, it.Tick(2, 100.49), cfg)
    assert len(events) == 1
    ev = events[0]
    assert ev.kind is DC and ev.direction is it.Mode.DOWN and ev.price == 100.49
    assert state.mode is it.Mode.DOWN
    assert state.extremum_price == 100.49
    assert state.os_reference_price == 100.49
    assert state.dc_confirm_price == 100.49
    assert state.dc_count_since_init == 1


def test_constant_prices_never_fire():
    for delta in (0.001, 0.05, 0.3):
        assert run([100.0] * 200, delta) == []


def test_overshoots_advance_on_threshold_grid():
    cfg = it.ThresholdConfig(0.01)
    state = it.new_runner(cfg, it.Tick(0, 100.0))
    state, events = it.step(state, it.Tick(1, 99.0), cfg)
    assert [e.kind for e in events] == [DC]
    state, events = it.step(state, it.Tick(2, 98.01), cfg)
    assert [e.kind for e in events] == [OS]
    assert events[0].direction is it.Mode.DOWN
    # reference steps down by exactly one threshold, to 99 * 0.99
    assert state.os_reference_price == pytest.approx(98.01, rel=1e-12)
    state, events = it.step(state, it.Tick(3, 97.0299), cfg)
    assert [e.kind for e in events] == [OS]
    assert state.intrinsic_clock == 3


def test_gap_tick_emits_multiple_overshoots_one_dc_max():
    cfg = it.ThresholdConfig(0.01)
    state = it.new_runner(cfg, it.Tick(0, 100.0))
    state, events = it.step(state, it.Tick(1, 99.0), cfg)
    assert [e.kind for e in events] == [DC]
    # one gap tick deep below two full overshoot increments
    state, events = it.step(state, it.Tick(2, 96.5), cfg)
    assert [e.kind for e in events] == [OS, OS]
    assert {e.timestamp for e in events} == {2}
    assert [e.clock_index for e in events] == [1, 2]


def test_gap_tick_crossing_dc_emits_only_the_dc():
    cfg = it.ThresholdConfig(0.01)
    state = it.new_runner(cfg, it.Tick(0, 100.0))
    # gap straight through the reversal and one further increment
    state, events = it.step(state, it.Tick(1, 96.0), cfg)
    assert [e.kind for e in events] == [DC]
    # the next move beyond one threshold from the confirm price overshoots
    state, events = it.step(state, it.Tick(2, 94.9), cfg)
    assert [e.kind for e in events] == [OS]


def test_step_rejects_decreasing_timestamp():
    cfg = it.ThresholdConfig(0.01)
    state = it.new_runner(cfg, it.Tick(10, 100.0))
    with pytest.raises(it.OrderingError):
        it.step(state, it.Tick(9, 100.0), cfg)


def test_step_rejects_nonpositive_price():
    cfg = it.ThresholdConfig(0.01)
    state = it.new_runner(cfg, it.Tick(0, 100.0))
    with pytest.raises(it.DomainError):
        it.step(state, it.Tick(1, -5.0), cfg)


@pytest.mark.parametrize("timestamp", [0.5, 1.9, math.nan, math.inf, 2**70, -2**63 - 1, "5"])
def test_new_runner_and_step_reject_timestamps_that_are_not_whole_int64(timestamp):
    cfg = it.ThresholdConfig(0.01)
    with pytest.raises(it.DomainError, match="not a whole number inside int64"):
        it.new_runner(cfg, (timestamp, 100.0))
    state = it.new_runner(cfg, it.Tick(0, 100.0))
    with pytest.raises(it.DomainError, match="not a whole number inside int64"):
        it.step(state, (timestamp, 98.0), cfg)
    assert (state.last_timestamp, state.mode, state.intrinsic_clock) == (0, it.Mode.UP, 0)


@pytest.mark.parametrize("price", ["abc", None, [1.0], 10**400],
                         ids=["str", "None", "list", "int-past-float64"])
def test_prices_that_are_not_numbers_raise_domain_error(price):
    cfg = it.ThresholdConfig(0.01)
    with pytest.raises(it.DomainError, match="position 1"):
        it.TickSeries([0, 1], [1.0, price])
    with pytest.raises(it.DomainError, match="position 1"):
        it.as_tick_series([(0, 1.0), (1, price)])
    with pytest.raises(it.DomainError, match="cannot be read as a float64"):
        it.new_runner(cfg, (0, price))
    state = it.new_runner(cfg, it.Tick(0, 100.0))
    with pytest.raises(it.DomainError, match="cannot be read as a float64"):
        it.step(state, (1, price), cfg)
    assert (state.last_timestamp, state.extremum_price, state.intrinsic_clock) == \
        (0, 100.0, 0)


def test_new_runner_and_step_take_whole_timestamps_as_ints():
    cfg = it.ThresholdConfig(0.01)
    state = it.new_runner(cfg, (2.0, 100.0))
    assert type(state.last_timestamp) is int and state.last_timestamp == 2
    state, events = it.step(state, (np.int64(3), 98.0), cfg)
    assert [type(e.timestamp) for e in events] == [int] and events[0].timestamp == 3
    state, _ = it.step(state, (np.float64(2.0**62), 97.0), cfg)
    assert type(state.last_timestamp) is int and state.last_timestamp == 2**62
    state, _ = it.step(state, (2**63 - 1, 97.0), cfg)
    assert state.last_timestamp == 2**63 - 1


def test_equal_timestamp_ticks_processed_in_order():
    events = run([100.0, 99.0, 98.01], 0.01, timestamps=[5, 5, 5])
    assert [(e.kind, e.timestamp) for e in events] == [(DC, 5), (OS, 5)]


# ---------------------------------------------------------------------------
# process
# ---------------------------------------------------------------------------


def test_process_four_tick_fixture():
    events = run([100.0, 99.0, 98.01, 99.0001], 0.01)
    assert as_tuples(events) == [
        ("DC", -1, 1, 99.0),
        ("OS", -1, 2, 98.01),
        ("DC", 1, 3, 99.0001),
    ]
    assert [e.clock_index for e in events] == [0, 1, 2]


def test_process_single_tick_yields_nothing():
    assert run([100.0], 0.01) == []


def test_process_empty_input_raises():
    with pytest.raises(it.EmptyInputError):
        it.process([], it.ThresholdConfig(0.01))


def test_process_rejects_unordered_timestamps():
    with pytest.raises(it.OrderingError):
        run([100.0, 101.0], 0.01, timestamps=[1, 0])


def test_tick_series_orders_the_whole_int64_range():
    ts = np.array([-2**63, 2**63 - 1], dtype=np.int64)
    assert it.TickSeries(ts, np.ones(2)).span_ns == 2**64 - 1
    for bad_ts, position in (([2**63 - 1, -2**63], 1), ([-2**63, 0, 2**63 - 1, 5], 3)):
        with pytest.raises(it.OrderingError, match=f"position {position}$"):
            it.TickSeries(np.array(bad_ts, dtype=np.int64), np.ones(len(bad_ts)))


@pytest.mark.parametrize("timestamps,position", [
    (np.array([0.5, 1.7]), 0),
    (np.array([0.0, 1.7]), 1),
    (np.array([np.nan, 1.0]), 0),
    (np.array([1e30, 2e30]), 0),
    (np.array([0.0, 2.0**63]), 1),
    (np.array([0, 2**63], dtype=np.uint64), 1),
    (np.array([0, 2**64], dtype=object), 1),
    (np.array([0, 1.5], dtype=object), 1),
    (np.array(["0", "5"]), 0),
], ids=["fraction", "later-fraction", "nan", "huge-float", "float-2**63", "uint64-2**63",
        "python-int-2**64", "python-float-fraction", "string"])
def test_tick_series_rejects_timestamps_that_are_not_whole_int64(timestamps, position):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(it.DomainError, match=f"at position {position} is not a whole"):
            it.TickSeries(timestamps, np.ones(len(timestamps)))


@pytest.mark.parametrize("pairs,position", [
    ([(0.5, 1.0)], 0),
    ([(0, 1.0), (math.nan, 1.0)], 1),
    ([(-1, 1.0), (2**63 - 1, 1.0), (2**63, 1.0)], 2),
    ([(0, 1.0), ("5", 1.0)], 1),
])
def test_as_tick_series_rejects_timestamps_that_are_not_whole_int64(pairs, position):
    with pytest.raises(it.DomainError, match=f"at position {position} is not a whole"):
        it.as_tick_series(pairs)


def test_tick_series_accepts_whole_timestamps_of_any_dtype():
    for ts in (np.array([-2.0**63, 0.0, 2.0**62]), np.array([0, 2**63 - 1], dtype=np.uint64),
               np.array([1, 2], dtype=np.int32)):
        series = it.TickSeries(ts, np.ones(len(ts)))
        assert series.timestamps.dtype == np.int64
        assert series.timestamps.tolist() == [int(t) for t in ts.tolist()]
    assert it.as_tick_series([(0.0, 1.0), (2, 1.5)]).timestamps.tolist() == [0, 2]
    ts = np.arange(3, dtype=np.int64)
    assert np.shares_memory(it.TickSeries(ts, np.ones(3)).timestamps, ts)


def test_process_rejects_nan_price():
    config = it.ThresholdConfig(0.01)
    for bad in (float("nan"), math.inf, -math.inf):
        with pytest.raises(it.DomainError):
            run([100.0, bad], 0.01)
        with pytest.raises(it.DomainError):
            it.new_runner(config, it.Tick(0, bad))
        with pytest.raises(it.DomainError):
            it.step(it.new_runner(config, it.Tick(0, 100.0)), it.Tick(1, bad), config)
    # an infinite tick would walk the overshoot grid up to overflow
    with pytest.raises(it.DomainError, match="position 3"):
        run([1.0, 0.5, 1.0, math.inf], 0.001)


def test_process_mirrored_fixture_down_start():
    # mirror image of the four-tick fixture, started in DOWN mode; the
    # final tick sits exactly one threshold below the extremum in decimal
    events = run([100.0, 101.0, 102.0101, 100.989999], 0.01,
                 initial_mode=it.Mode.DOWN)
    assert as_tuples(events) == [
        ("DC", 1, 1, 101.0),
        ("OS", 1, 2, 102.0101),
        ("DC", -1, 3, 100.989999),
    ]


# ---------------------------------------------------------------------------
# overshoot lengths
# ---------------------------------------------------------------------------


def test_overshoot_length_spans_confirm_to_extremum():
    prices = [100.0, 99.0, 98.01, 97.03, 98.01]
    ticks = ticks_from_prices(prices)
    cfg = it.ThresholdConfig(0.01)
    omegas = it.overshoot_lengths(it.process_arrays(ticks, cfg))
    assert omegas.shape == (1,)
    assert omegas[0] == pytest.approx((99.0 - 97.03) / 99.0)
    assert omegas[0] == pytest.approx(0.0199, rel=1e-3)


def test_overshoot_zero_on_immediate_reversal():
    prices = [100.0, 99.0, 100.0]
    ticks = ticks_from_prices(prices)
    cfg = it.ThresholdConfig(0.01)
    arrays = it.process_arrays(ticks, cfg)
    assert arrays.kinds.tolist() == [0, 0]
    omegas = it.overshoot_lengths(arrays)
    assert omegas.tolist() == [0.0]


def test_overshoot_needs_two_dcs():
    prices = [100.0, 99.0, 98.5]
    ticks = ticks_from_prices(prices)
    cfg = it.ThresholdConfig(0.01)
    assert it.overshoot_lengths(it.process_arrays(ticks, cfg)).size == 0


def test_mean_overshoot_near_threshold_on_diffusive_path():
    walk = it.generate_gbm(it.GbmParams(s0=1.0, mu=0.5 * 1e-4**2, sigma=1e-4,
                                        dt_step=1.0, n_steps=10**6, seed=7))
    omegas = it.overshoot_lengths(it.process_arrays(walk, it.ThresholdConfig(0.003)))
    assert 0.8 <= float(np.mean(omegas)) / 0.003 <= 1.2


# ---------------------------------------------------------------------------
# property tests against the brute-force reference
# ---------------------------------------------------------------------------


@st.composite
def tick_walks(draw):
    """Random walks mixing grid-exact, gappy and tied prices."""
    delta = draw(st.sampled_from([0.002, 0.005, 0.01, 0.03]))
    n = draw(st.integers(min_value=2, max_value=70))
    steps = draw(st.lists(st.integers(min_value=-3, max_value=3),
                          min_size=n, max_size=n))
    scale = draw(st.sampled_from([0.31, 0.8, 1.0, 1.7]))
    use_log = draw(st.booleans())
    init_mode = draw(st.sampled_from([it.Mode.UP, it.Mode.DOWN]))
    dts = draw(st.lists(st.integers(min_value=0, max_value=2),
                        min_size=n, max_size=n))
    unit = math.log(1.0 + delta) * scale
    log_prices = np.concatenate(([0.0], np.cumsum(np.array(steps) * unit)))
    prices = 100.0 * np.exp(log_prices)
    timestamps = np.concatenate(([0], np.cumsum(dts))).astype(np.int64)
    return timestamps, prices, delta, use_log, init_mode


@given(tick_walks())
@settings(max_examples=250)
def test_engine_matches_bruteforce_reference(walk):
    timestamps, prices, delta, use_log, init_mode = walk
    convention = LOG if use_log else REL
    events = it.process(
        it.TickSeries(timestamps, prices),
        it.ThresholdConfig(delta, convention), init_mode)
    expected = reference_events(timestamps.tolist(), prices, delta, use_log,
                                init_mode.value)
    assert as_tuples(events) == [(k, d, t, p) for k, d, t, p, _ in expected]


@given(tick_walks())
@settings(max_examples=250)
def test_overshoot_lengths_match_reference(walk):
    timestamps, prices, delta, use_log, init_mode = walk
    convention = LOG if use_log else REL
    cfg = it.ThresholdConfig(delta, convention)
    series = it.TickSeries(timestamps, prices)
    arrays = it.process_arrays(series, cfg, init_mode)
    expected = np.array(reference_overshoots(
        prices, reference_events(timestamps.tolist(), prices, delta, use_log,
                                 init_mode.value), use_log))
    got = it.overshoot_lengths(arrays)
    assert got.shape == expected.shape
    if expected.size:
        # vectorized and scalar log may disagree in the last bit
        np.testing.assert_array_max_ulp(got, expected, maxulp=2)


@given(tick_walks())
@settings(max_examples=250)
def test_dc_alternation_and_os_direction(walk):
    timestamps, prices, delta, use_log, init_mode = walk
    convention = LOG if use_log else REL
    events = it.process(it.TickSeries(timestamps, prices),
                        it.ThresholdConfig(delta, convention), init_mode)
    last_dc_dir = None
    seen_dc = False
    for ev in events:
        if ev.kind is DC:
            assert ev.direction != last_dc_dir
            last_dc_dir = ev.direction
            seen_dc = True
        else:
            assert seen_dc, "overshoot before the first directional change"
            assert ev.direction == last_dc_dir


@given(tick_walks())
@settings(max_examples=250)
def test_clock_indices_are_consecutive(walk):
    timestamps, prices, delta, use_log, init_mode = walk
    convention = LOG if use_log else REL
    events = it.process(it.TickSeries(timestamps, prices),
                        it.ThresholdConfig(delta, convention), init_mode)
    assert [ev.clock_index for ev in events] == list(range(len(events)))


@given(tick_walks(), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=150)
def test_streaming_fold_equals_batch(walk, chunk_seed):
    timestamps, prices, delta, use_log, init_mode = walk
    convention = LOG if use_log else REL
    cfg = it.ThresholdConfig(delta, convention)
    ticks = ticks_from_prices(prices, timestamps)

    state = it.new_runner(cfg, ticks[0], init_mode)
    folded = []
    per_step_dc_counts = []
    for tick in ticks[1:]:
        state, events = it.step(state, tick, cfg)
        folded.extend(events)
        per_step_dc_counts.append(sum(1 for e in events if e.kind is DC))

    batch = it.process(ticks, cfg, init_mode)
    assert folded == batch
    assert all(c <= 1 for c in per_step_dc_counts)
    assert state.intrinsic_clock == len(batch)
    assert state.dc_count_since_init == sum(1 for e in batch if e.kind is DC)


@given(tick_walks(), st.sampled_from([0.5, 2.0, 1024.0, 2.0**-20]))
@settings(max_examples=150)
def test_log_convention_is_scale_invariant(walk, factor):
    timestamps, prices, delta, use_log, init_mode = walk
    cfg = it.ThresholdConfig(delta, LOG)
    base = it.process(it.TickSeries(timestamps, prices), cfg, init_mode)
    scaled = it.process(it.TickSeries(timestamps, prices * factor), cfg, init_mode)
    assert [(e.kind, e.direction, e.timestamp, e.clock_index) for e in base] == \
           [(e.kind, e.direction, e.timestamp, e.clock_index) for e in scaled]


# a DC, then a gap tick of about 3000 overshoots: the kernel's first
# 1024-event buffer fills inside that tick's overshoot loop
GAP_PRICES = [100.0, 99.0, 99.0 * math.exp(-3.0), 60.0, 99.0 * math.exp(-6.0)]


def test_extreme_inputs_match_reference():
    # huge gap ticks, tiny prices and a near-degenerate threshold
    cases = [
        ([1.0, 1000.0, 1.0, 500.0], 0.001, REL),
        ([1e-300, 2e-300, 1e-300, 5e-300], 0.01, LOG),
        ([100.0, 100.0, 100.0, 99.0, 101.0, 1.0], 0.49, REL),
        ([1e9, 2e9, 1e8, 3e9], 0.3, LOG),
        (GAP_PRICES, 0.001, LOG),
    ]
    for prices, delta, convention in cases:
        arr = np.array(prices)
        ts = np.arange(len(arr), dtype=np.int64)
        events = it.process(it.TickSeries(ts, arr),
                            it.ThresholdConfig(delta, convention))
        expected = reference_events(ts.tolist(), arr, delta,
                                    convention is LOG, UP)
        assert as_tuples(events) == [(k, d, t, p) for k, d, t, p, _ in expected]
        assert [e.clock_index for e in events] == list(range(len(events)))


def test_runners_synchronize_after_two_dcs():
    for seed in range(10):
        walk = it.generate_random_walk(1.0, 0.004, 4000, seed=seed)
        cfg = it.ThresholdConfig(0.005)
        up = it.process(walk, cfg, it.Mode.UP)
        down = it.process(walk, cfg, it.Mode.DOWN)
        tails = []
        for events in (up, down):
            dc_positions = [i for i, e in enumerate(events) if e.kind is DC]
            assert len(dc_positions) >= 2, "walk too quiet to test synchronization"
            tails.append(as_tuples(events[dc_positions[1]:]))
        short, long_ = sorted(tails, key=len)
        assert long_[len(long_) - len(short):] == short


# ---------------------------------------------------------------------------
# scan backends: the compiled kernel and the pure-Python fallback
# ---------------------------------------------------------------------------

HAS_CC = shutil.which("cc") is not None
ARRAY_FIELDS = ("kinds", "directions", "timestamps", "prices", "extrema")
DENSE_WALK = it.generate_random_walk(1.0, 0.01, 20000, seed=8)
GAP_SERIES = it.TickSeries(np.arange(len(GAP_PRICES)), np.array(GAP_PRICES))


def sweep_case(rng, i):
    """One input in the style of the acceptance oracle sweep."""
    n = int(rng.integers(2, 1001))
    delta = float(rng.uniform(0.001, 0.05))
    convention = LOG if i % 2 else REL
    init_mode = it.Mode.UP if i % 4 < 2 else it.Mode.DOWN
    steps = rng.normal(0.0, delta * float(rng.uniform(0.3, 2.0)), n - 1)
    if i % 5 == 0:
        steps = rng.integers(-2, 3, n - 1) * np.log(1.0 + delta)  # grid-exact
    if i % 3 == 0:
        steps[rng.random(n - 1) < 0.05] *= 8.0  # gap ticks
    if i % 7 == 0:
        steps[rng.random(n - 1) < 0.2] = 0.0  # tied prices
    prices = 100.0 * np.exp(np.concatenate(([0.0], np.cumsum(steps))))
    timestamps = np.cumsum(rng.integers(0, 3, n)).astype(np.int64)
    return it.TickSeries(timestamps, prices), it.ThresholdConfig(delta, convention), init_mode


@pytest.mark.skipif(not HAS_CC, reason="no C compiler (cc) on PATH")
def test_kernel_backend_is_c_with_a_compiler():
    assert it.kernel_backend() == "c"


@pytest.mark.skipif(not HAS_CC, reason="no C compiler (cc) on PATH")
def test_python_fallback_equals_compiled_kernel(monkeypatch):
    rng = np.random.default_rng(31)
    cases = [sweep_case(rng, i) for i in range(400)]
    # a dense case that overflows the kernel's first output buffer, and a
    # gap tick that overflows it mid-way through one overshoot loop
    cases.append((GAP_SERIES, it.ThresholdConfig(0.001, LOG), it.Mode.UP))
    cases.append((DENSE_WALK, it.ThresholdConfig(0.002, LOG), it.Mode.DOWN))
    compiled = [it.process_arrays(*case) for case in cases]
    monkeypatch.setattr(engine, "_kernel", None)
    assert it.kernel_backend() == "python"
    for case, got in zip(cases, compiled):
        fallback = it.process_arrays(*case)
        for field in ARRAY_FIELDS:
            a, b = getattr(got, field), getattr(fallback, field)
            assert a.dtype == b.dtype and np.array_equal(a, b), field
    assert len(compiled[-2]) > 1024 and len(compiled[-1]) > 1024


@pytest.mark.skipif(not HAS_CC, reason="no C compiler (cc) on PATH")
@pytest.mark.parametrize("series, delta, mode", [(DENSE_WALK, 0.002, it.Mode.DOWN),
                                                 (GAP_SERIES, 0.001, it.Mode.UP)])
def test_full_buffer_resumes_without_rescanning(monkeypatch, series, delta, mode):
    kernel = engine._load_kernel()
    spans = []  # (first tick, tick the call stopped at) of each kernel call

    def tracing(*args):
        state = args[6]
        first = state.i
        written = kernel.scan(*args)
        spans.append((first, state.i))
        return written

    monkeypatch.setattr(engine, "_kernel", kernel._replace(scan=tracing))
    arrays = it.process_arrays(series, it.ThresholdConfig(delta, LOG), mode)
    assert len(arrays) > 1024 and len(spans) > 1
    # each call starts where the previous one stopped, so no tick is rescanned
    assert spans[0][0] == 1 and spans[-1][1] == len(series)
    assert all(stop == start for (_, stop), (start, _) in zip(spans, spans[1:]))
    if series is GAP_SERIES:
        assert spans[0] == (1, 2)  # the first stop falls inside the gap tick


def reduceat_overshoots(prices, dc_events, use_log):
    """Overshoot lengths taken from the whole tick array: the highest (up
    trend) or lowest (down trend) price over ticks [DC k, DC k+1)."""
    dc_idx = np.array([ev[4] for ev in dc_events])
    up = np.array([ev[1] == UP for ev in dc_events])[:-1]
    base = np.array([ev[3] for ev in dc_events])[:-1]
    highs = np.maximum.reduceat(prices, dc_idx)[:-1]
    lows = np.minimum.reduceat(prices, dc_idx)[:-1]
    ext = np.where(up, highs, lows)
    if use_log:
        return np.abs(np.log(ext / base))
    return np.abs((ext - base) / base)


@pytest.mark.parametrize("backend", [
    pytest.param("c", marks=pytest.mark.skipif(not HAS_CC,
                                               reason="no C compiler (cc) on PATH")),
    "python"])
@pytest.mark.parametrize("series, delta, mode", [(DENSE_WALK, 0.002, it.Mode.DOWN),
                                                 (GAP_SERIES, 0.001, it.Mode.UP)])
def test_overshoot_lengths_past_full_buffer(monkeypatch, backend, series, delta, mode):
    # the scans resume a full event buffer; on the gap series the resume
    # falls inside an overshoot loop, so the extremum must survive it
    if backend == "python":
        monkeypatch.setattr(engine, "_kernel", None)
    assert it.kernel_backend() == backend
    cfg = it.ThresholdConfig(delta, LOG)
    arrays = it.process_arrays(series, cfg, mode)
    assert len(arrays) > 1024
    expected = reference_events(series.timestamps.tolist(), series.prices, delta,
                                True, mode.value)
    dc_events = [ev for ev in expected if ev[0] == "DC"]
    got = it.overshoot_lengths(arrays)
    old = reduceat_overshoots(series.prices, dc_events, True)
    assert got.size >= 2 and got.dtype == old.dtype and got.tobytes() == old.tobytes()
    np.testing.assert_array_max_ulp(
        got, np.array(reference_overshoots(series.prices, expected, True)), maxulp=2)


def test_no_compiler_falls_back_to_python(monkeypatch, tmp_path):
    monkeypatch.setenv("PATH", str(tmp_path))
    monkeypatch.setattr(engine, "_kernel", engine._UNLOADED)
    monkeypatch.setattr(engine, "_kernel_cache_dirs", lambda: [tmp_path / "cache"])
    assert it.kernel_backend() == "python"
    events = run([100.0, 99.0, 98.01, 99.0001], 0.01)
    assert [(e.kind, e.direction) for e in events] == \
        [(DC, it.Mode.DOWN), (OS, it.Mode.DOWN), (DC, it.Mode.UP)]
    assert not (tmp_path / "cache").exists()


@pytest.mark.skipif(sys.platform == "win32", reason="the fake compiler is a shell script")
def test_failing_compiler_warns_and_falls_back(monkeypatch, tmp_path):
    fake_cc = tmp_path / "bin" / "cc"
    fake_cc.parent.mkdir()
    fake_cc.write_text("#!/bin/sh\necho 'no such target' >&2\nexit 1\n")
    fake_cc.chmod(0o755)
    monkeypatch.setenv("PATH", str(fake_cc.parent))
    monkeypatch.setattr(engine, "_kernel", engine._UNLOADED)
    monkeypatch.setattr(engine, "_kernel_cache_dirs", lambda: [tmp_path / "cache"])
    with pytest.warns(RuntimeWarning, match="no such target"):
        assert it.kernel_backend() == "python"
    assert list((tmp_path / "cache").iterdir()) == []  # the temp file is gone
    assert len(run([100.0, 99.0, 98.01, 99.0001], 0.01)) == 3


@pytest.mark.skipif(not HAS_CC, reason="no C compiler (cc) on PATH")
def test_unwritable_cache_warns_and_falls_back(monkeypatch, tmp_path):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setattr(engine, "_kernel", engine._UNLOADED)
    monkeypatch.setattr(engine, "_kernel_cache_dirs", lambda: [blocker / "cache"])
    with pytest.warns(RuntimeWarning, match="no writable cache directory"):
        assert it.kernel_backend() == "python"


@pytest.mark.skipif(not HAS_CC, reason="no C compiler (cc) on PATH")
def test_first_use_from_many_threads_compiles_once(monkeypatch, tmp_path):
    compiles = []
    compile_kernel = engine._compile_kernel

    def counting(cache_dirs):
        compiles.append(cache_dirs)
        return compile_kernel(cache_dirs)

    monkeypatch.setattr(engine, "_kernel", engine._UNLOADED)
    monkeypatch.setattr(engine, "_kernel_cache_dirs", lambda: [tmp_path])
    monkeypatch.setattr(engine, "_compile_kernel", counting)
    walk = it.generate_random_walk(50.0, 0.003, 20000, seed=4)
    configs = [it.ThresholdConfig(d) for d in
               (0.002, 0.003, 0.004, 0.006, 0.008, 0.012, 0.016, 0.024)]
    results = {}

    def scan(config):
        results[config.delta] = it.process_arrays(walk, config)

    workers = [threading.Thread(target=scan, args=(c,)) for c in configs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert len(compiles) == 1
    assert it.kernel_backend() == "c"
    cached = list(tmp_path.iterdir())  # one shared object, no temp files left
    assert len(cached) == 1 and cached[0].suffix == ".so"
    assert len(results) == len(configs)
    for config in configs:
        serial = it.process_arrays(walk, config)
        for field in ARRAY_FIELDS:
            assert np.array_equal(getattr(results[config.delta], field),
                                  getattr(serial, field)), field
