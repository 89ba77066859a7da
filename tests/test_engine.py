"""Unit and property tests for the event engine."""

import ctypes
import dataclasses
import itertools
import math
import os
import re
import shutil
import subprocess
import sys
import textwrap
import threading
import types
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import intrinsic_time as it
from intrinsic_time import engine
from oracle_reference import DOWN, UP, EndlessScan, reference_events, reference_overshoots

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


@pytest.mark.parametrize("delta", ["0.5", None, b"0.5", [0.5], np.array([0.5, 0.6])])
def test_threshold_that_is_not_a_number_is_a_configuration_error(delta):
    with pytest.raises(it.ConfigurationError, match=r"^delta must be in \(0, 1\), got "):
        it.ThresholdConfig(delta)


@pytest.mark.parametrize("delta", [Decimal("0.01"), Fraction(1, 100), np.float32(0.01),
                                   np.float64(0.01), np.array(0.01)])
def test_threshold_is_kept_as_the_float_the_scans_use(delta):
    config = it.ThresholdConfig(delta, LOG)
    assert type(config.delta) is float and config.delta == float(delta)
    assert repr(config.delta) == repr(float(delta))  # the CLI's file label
    events = run([100.0, 98.0, 97.0, 99.5], delta, LOG)
    assert [e.kind for e in events] == [DC, OS, DC]
    assert all(type(e.delta) is float for e in events)


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


@pytest.mark.parametrize("convention", ["log", None, 1])
def test_relative_move_refuses_an_unknown_convention(convention):
    # "log" gave the relative move, 0.10000000000000009, and named nothing
    with pytest.raises(it.ConfigurationError,
                       match=re.escape(f"unknown move convention {convention!r}")):
        it.relative_move(1.0, 1.1, convention)
    assert it.relative_move(1.0, 1.1, REL) == 0.10000000000000009
    assert it.relative_move(1.0, 1.1, LOG) == math.log(1.1)


@pytest.mark.parametrize("mode", ["up", "down", 1, -1, None])
def test_a_mode_that_is_not_a_mode_is_a_configuration_error(mode):
    # new_runner kept it until the next step, and the scans raised a bare
    # AttributeError; each now names it
    message = re.escape(f"initial mode must be a Mode, got {mode!r}")
    config = it.ThresholdConfig(0.05)
    with pytest.raises(it.ConfigurationError, match=message):
        it.new_runner(config, it.Tick(0, 1.0), mode)
    for scan in (it.process, it.process_arrays):
        with pytest.raises(it.ConfigurationError, match=message):
            scan([(0, 1.0), (1, 1.1)], config, mode)
        with pytest.raises(it.EmptyInputError):  # no ticks still comes first
            scan([], config, mode)


@pytest.mark.parametrize("config", ["x", 0.05, None, (0.05, LOG)])
def test_a_config_that_is_not_a_threshold_config_is_a_configuration_error(config):
    for scan in (it.process, it.process_arrays):
        with pytest.raises(it.ConfigurationError,
                           match=re.escape(f"expected a ThresholdConfig, got {config!r}")):
            scan([(0, 1.0), (1, 1.1)], config)


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


TICKS = it.TickSeries(np.array([0, 5, 5, 9], dtype=np.int64), np.array([1.0, 2.0, 1.5, 3.0]))


@pytest.mark.parametrize("index", [0, 2, -1, np.int64(1), np.int32(3)])
def test_tick_series_integer_index_gives_a_tick(index):
    tick = TICKS[index]
    assert type(tick) is it.Tick and type(tick.timestamp) is int and type(tick.price) is float
    assert tick == list(TICKS)[int(index)]
    with pytest.raises(IndexError):
        TICKS[index + 4 if index >= 0 else index - 4]


@pytest.mark.parametrize("index", [slice(1, 3), slice(None, 3), slice(None, None, 2),
                                   slice(2, 2), slice(-2, None), slice(10, 20)])
def test_tick_series_slice_gives_the_series_of_its_ticks(index):
    part = TICKS[index]
    assert type(part) is it.TickSeries
    assert list(part) == list(TICKS)[index]
    assert part == it.TickSeries(TICKS.timestamps[index], TICKS.prices[index])
    assert part.timestamps.flags.c_contiguous and part.prices.flags.c_contiguous
    if len(part):
        config = it.ThresholdConfig(0.1)
        assert it.process(part, config) == it.process(list(part), config)


def test_tick_series_slice_is_validated():
    with pytest.raises(it.OrderingError, match="position 1$"):
        TICKS[::-1]


@pytest.mark.parametrize("index", [1.0, "1", None, (0, 1), [0, 1], np.array([0, 1]),
                                   np.float64(1.0), True, np.True_])
def test_tick_series_other_index_raises_type_error_naming_its_type(index):
    with pytest.raises(TypeError, match=f"integers or slices, not {type(index).__name__}$"):
        TICKS[index]


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
# value equality of the dataclasses that hold arrays
# ---------------------------------------------------------------------------

EQ_WALK = it.generate_random_walk(1.0, 0.004, 500, seed=5)


@pytest.mark.parametrize("make", [
    lambda delta: it.process_arrays(EQ_WALK, it.ThresholdConfig(delta)),
    lambda delta: it.TickSeries(EQ_WALK.timestamps, EQ_WALK.prices * (1.0 + delta)),
    lambda delta: it.physical_returns(EQ_WALK, int(delta * 2e11)),  # dt 1 s, 2 s
], ids=["EventArrays", "TickSeries", "ReturnSeries"])
def test_array_dataclasses_compare_by_value(make):
    a, b, other = make(0.005), make(0.005), make(0.01)
    assert a is not b and a == b and not a != b
    assert a != other and not a == other
    assert a.__eq__(object()) is NotImplemented
    assert a != [a] and a != None  # noqa: E711 -- == with a non-instance is False
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)


def test_array_dataclass_equality_needs_equal_dtypes():
    series = it.TickSeries(np.arange(3), np.array([1.0, 2.0, 3.0]))
    arrays = it.process_arrays(series, it.ThresholdConfig(0.1))
    as_int16 = dataclasses.replace(arrays, kinds=arrays.kinds.astype(np.int16))
    assert np.array_equal(as_int16.kinds, arrays.kinds) and as_int16 != arrays
    assert dataclasses.replace(arrays, config=it.ThresholdConfig(0.1, LOG)) != arrays


def test_built_events_are_the_events_the_constructor_makes():
    rows = [(0, 1, 5, 1.5, 0.01, 0), (1, -1, -2**63, 2.0, 0.5, 2**63 - 1),
            (1, 1, 7, np.float64(3.25), 0.25, 3)]
    built = engine._build_events(*zip(*rows))
    made = [it.IntrinsicEvent(engine._KINDS[k], engine._DIRECTIONS[d], t, p, delta, clock)
            for k, d, t, p, delta, clock in rows]
    for b, m in zip(built, made, strict=True):
        assert type(b) is it.IntrinsicEvent
        assert tuple(b) == tuple(m)
        assert [type(v) for v in b] == [type(v) for v in m]
        assert b == m and hash(b) == hash(m) and repr(b) == repr(m)
    with pytest.raises(AttributeError):
        built[0].price = 2.0
    with pytest.raises(AttributeError):
        built[0].extra = 2.0


def test_built_events_keep_compact_attribute_storage():
    # In a fresh interpreter: how CPython stores the attributes of a class's
    # objects depends on the objects made before, here by earlier tests.
    script = textwrap.dedent("""
        import tracemalloc
        from intrinsic_time import engine

        class Plain:
            def __init__(self, *values):
                (self.kind, self.direction, self.timestamp, self.price, self.delta,
                 self.clock_index) = values

        def traced_bytes(build, rows):
            tracemalloc.start()
            try:
                objects = build(rows)
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        rows = [(i % 2, 1 - 2 * (i % 3 == 0), i, 1.0 + i, 0.01, i) for i in range(2000)]
        plain = traced_bytes(lambda rows: [Plain(*row) for row in rows], rows)
        print(traced_bytes(lambda rows: engine._build_events(*zip(*rows)), rows) / plain)
    """)
    package_root = str(Path(it.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    ratio = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           check=True, env={**os.environ, "PYTHONPATH": path}).stdout
    # a dict of its own per event would take about 2.5 times as much
    assert float(ratio) < 1.1


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
        at = args[3]  # in: the tick to start at; out: the tick the call stopped at
        first = at.value
        full = kernel.scan(*args)
        spans.append((first, at.value))
        return full

    monkeypatch.setattr(engine, "_kernel", kernel._replace(scan=tracing))
    arrays = it.process_arrays(series, it.ThresholdConfig(delta, LOG), mode)
    assert len(arrays) > 1024 and len(spans) > 1
    # each call starts where the previous one stopped, so no tick is rescanned
    assert spans[0][0] == 0 and spans[-1][1] == len(series)
    assert all(stop == start for (_, stop), (start, _) in zip(spans, spans[1:]))
    if series is GAP_SERIES:
        assert spans[0] == (0, 2)  # the first stop falls inside the gap tick


def grid_walk(rng, start, factors, n, lo, hi):
    """n prices from start on the scan's own grid: each is 0, 1 or 2 steps
    of up_factor or down_factor from the last (ties and double steps),
    then moved by up to 2 ulps, so that ticks fall on both sides of the
    triggers within rounding. A step that would leave [lo, hi] goes the
    other way."""
    up, down = factors
    prices = [start]
    for k, ulps in zip(rng.integers(-2, 3, n - 1).tolist(), rng.integers(-2, 3, n - 1).tolist()):
        for first, second in ((up, down), (down, up)):
            q = prices[-1]
            for _ in range(abs(k)):
                q *= first if k > 0 else second
            if lo <= q <= hi:
                break
        nudged = q + ulps * math.ulp(q)
        prices.append(nudged if lo <= nudged <= hi else q)
    return np.array(prices)


@pytest.mark.skipif(not HAS_CC, reason="no C compiler (cc) on PATH")
def test_price_bands_skip_only_ticks_that_cannot_fire(monkeypatch):
    # The C scan runs its exact tests only outside its price bands; the
    # Python twin runs them on every tick. Walks on the scan's own grid
    # put ticks within rounding of every trigger, where a band that is
    # too narrow or on the wrong side of it drops or adds events.
    rng = np.random.default_rng(17)
    tiny, huge = sys.float_info.min, sys.float_info.max
    walks = [(delta, 1.0 + float(rng.random()), 1e-30, 1e30) for delta in (1e-9, 1e-4, 0.01, 0.49)]
    # band products that go subnormal, and band products that overflow
    walks += [(delta, tiny, tiny * 2.0**-30, tiny * 1e6) for delta in (1e-4, 0.01)]
    walks += [(delta, huge * 0.9999, huge * 1e-6, huge) for delta in (1e-4, 0.01)]
    cases = []
    for delta, start, lo, hi in walks:
        for convention in (REL, LOG):
            config = it.ThresholdConfig(delta, convention)
            prices = grid_walk(rng, start, engine._scan_args(config)[1:3], 2000, lo, hi)
            series = it.TickSeries(np.arange(prices.size), prices)
            cases += [(series, config, mode) for mode in it.Mode]
    n_walks = len(cases)
    # a gap tick that fills the first event buffer inside its overshoot loop
    cases += [(GAP_SERIES, it.ThresholdConfig(0.001, convention), it.Mode.UP)
              for convention in (REL, LOG)]
    # ticks within rounding of a relative DC down at a threshold near 1,
    # where a margin of mu (1 - guard) would be below the rounding of p - ref
    near_one = it.ThresholdConfig(1 - 2**-40)
    low = 1.0 - engine._scan_args(near_one)[0]
    for p in (low + k * 2.0**-56 for k in range(-4, 5)):
        cases += [(it.TickSeries(np.arange(3), np.array(prices)), near_one, mode)
                  for prices, mode in (([1.0, p, 1.0], it.Mode.UP), ([1.0, 1 / p, 1.0], it.Mode.DOWN))]
    compiled = [it.process_arrays(*case) for case in cases]
    monkeypatch.setattr(engine, "_kernel", None)
    for case, got in zip(cases, compiled):
        twin = it.process_arrays(*case)
        for field in ARRAY_FIELDS:
            a, b = getattr(got, field), getattr(twin, field)
            assert a.dtype == b.dtype and np.array_equal(a, b), (case[1], case[2], field)
    assert min(len(arrays) for arrays in compiled[:n_walks]) > 20
    assert min(len(arrays) for arrays in compiled[n_walks:n_walks + 2]) > 1024


def within_lines(budget, fn, *args):
    """fn(*args), stopped with RuntimeError after budget traced lines: a
    scan that never ends then fails its test instead of hanging it."""
    lines = itertools.count()

    def trace(frame, event, arg):
        if next(lines) == budget:
            raise RuntimeError(f"{fn.__name__} did not end within {budget} lines")
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        return fn(*args)
    finally:
        sys.settrace(previous)


# An overshoot step that cannot move its reference price: 1 + 1e-17 == 1
# and exp(1e-17) == 1, and 4e-323 * 1.001 rounds back to 4e-323
ENDLESS = [([1.0, 0.5, 1.0, 2.0], 1e-17), ([2e-323, 1e-323, 4e-323, 3.2e-322], 0.001)]


@pytest.mark.parametrize("prices, delta", ENDLESS)
@pytest.mark.parametrize("convention", [REL, LOG])
def test_a_step_that_cannot_move_the_reference_stops_the_scan(monkeypatch, prices, delta,
                                                              convention):
    config = it.ThresholdConfig(delta, convention)
    series = it.TickSeries(np.arange(4) * 10, np.array(prices))
    error = r"rounds back to it at the tick at timestamp 30 \(price "
    if HAS_CC:  # the kernel first, capped, so that a scan without end cannot hang
        kernel = engine._load_kernel()
        cap = 100_000
        out = [np.empty(cap, dtype)
               for dtype in (np.int8, np.int8, np.int64, np.float64, np.float64)]
        runner = engine._Runner(*engine._scan_args(config), 0, prices[0], 1.0, prices[0], -1,
                                *(column.ctypes.data for column in out), cap, 0)
        at = ctypes.c_int64(1)
        assert kernel.scan(series.timestamps.ctypes.data, series.prices.ctypes.data, 4, at,
                           runner, 1) == 0  # runner 0 stopped the scan
        assert (runner.m, runner.stall) == (2, 3)  # the two DCs, then the stall at tick 3
        assert at.value == 3 and runner.ref == prices[2]  # the scan stopped there
        with pytest.raises(it.DomainError, match=error):
            it.process_arrays(series, config)
    monkeypatch.setattr(engine, "_kernel", None)
    with pytest.raises(it.DomainError, match=error):
        within_lines(100_000, it.process_arrays, series, config)
    state = it.new_runner(config, series[0])
    assert [len(it.step(state, series[k], config)[1]) for k in (1, 2)] == [1, 1]
    with pytest.raises(it.DomainError, match=error):
        within_lines(100_000, it.step, state, series[3], config)
    assert (state.last_timestamp, state.intrinsic_clock) == (20, 2)  # left as it was


@pytest.mark.parametrize("prices, delta", ENDLESS)
@pytest.mark.parametrize("use_log", [False, True])
def test_the_oracle_stops_where_a_step_cannot_move_the_reference(prices, delta, use_log):
    with pytest.raises(EndlessScan, match=r"rounds back to it at tick 3$"):
        within_lines(100_000, reference_events, range(4), prices, delta, use_log)


# Grids whose thresholds stop at different ticks: on subnormal prices
# (multiples of the smallest one) the second threshold stalls first in
# time and the first one later; on the last prices, 1e-17 stalls at
# timestamp 30, where 1e-15 fires nothing, and 1e-15 floods at timestamp
# 40, with about 6.9e15 overshoots due
STOPPING_GRIDS = [(REL, np.array([170, 150, 138, 143, 6, 2]) * 5e-324, (0.01, 0.05), (50, 40)),
                  (LOG, np.array([160, 50, 54, 3, 40, 173]) * 5e-324, (0.01, 0.1), (50, 30)),
                  (REL, np.array([1.0, 0.5, 1.0, 1 + 5e-16, 2000.0]), (1e-17, 1e-15), (30, 40))]


@pytest.mark.parametrize("backend", [
    pytest.param("c", marks=pytest.mark.skipif(not HAS_CC,
                                               reason="no C compiler (cc) on PATH")),
    "python"])
@pytest.mark.parametrize("convention, prices, deltas, stop_ts", STOPPING_GRIDS)
def test_a_grid_raises_for_the_threshold_that_stops_first_in_time(
        monkeypatch, backend, convention, prices, deltas, stop_ts):
    if backend == "python":
        monkeypatch.setattr(engine, "_kernel", None)
    assert it.kernel_backend() == backend
    series = it.TickSeries(np.arange(prices.size) * 10, prices)
    alone = []  # each threshold's error alone, which folding step raises too
    for delta, ts in zip(deltas, stop_ts):
        config = it.ThresholdConfig(delta, convention)
        with pytest.raises(it.DomainError, match=rf"^threshold {delta!r}: .* timestamp {ts} ") \
                as error:
            it.process_arrays(series, config)
        alone.append(str(error.value))
        state = it.new_runner(config, series[0])
        with pytest.raises(it.DomainError) as error:
            for tick in series[1:]:
                it.step(state, tick, config)
        assert str(error.value) == alone[-1]
    first = alone[int(np.argmin(stop_ts))]
    with pytest.raises(it.DomainError) as error:
        within_lines(100_000, it.run_grid, series, deltas, convention)
    assert str(error.value) == first
    with pytest.raises(it.DomainError) as error:  # the grid in the other order
        engine._GridScan([it.ThresholdConfig(d, convention) for d in deltas[::-1]], series)
    assert str(error.value) == first


def twin_grid(series, configs, mode):
    """Each threshold scanned alone by the Python twin, the spec."""
    kernel = engine._kernel
    engine._kernel = None
    try:
        return [it.process_arrays(series, config, mode) for config in configs]
    finally:
        engine._kernel = kernel


@pytest.mark.skipif(not HAS_CC, reason="no C compiler (cc) on PATH")
@pytest.mark.parametrize("k", [1, 2, 7, 64])
def test_one_pass_over_a_grid_equals_each_threshold_scanned_alone(monkeypatch, k):
    # The kernel reads each tick once for k thresholds, and skips the ticks
    # inside all their quiet intervals. The smallest threshold's interval is
    # mostly inside the others', so the grids are rotated to put it first,
    # in the middle or last. 3-slot first blocks make the kernel stop and
    # resume often: inside a gap tick's overshoot loop, and where one
    # threshold fills after the thresholds before it have read that tick
    # and before those after it have.
    kernel = engine._load_kernel()
    stops = []  # the runner whose block filled, per stop

    def tracing(*args):
        full = kernel.scan(*args)
        stops.append(full)
        return full

    monkeypatch.setattr(engine, "_kernel", kernel._replace(scan=tracing))
    monkeypatch.setattr(engine, "_FIRST_CAP", 3)
    rng = np.random.default_rng(40 + k)
    tiny, huge = sys.float_info.min, sys.float_info.max
    # (threshold the walk is on, first price, bounds): ties and ticks within
    # rounding of that threshold's triggers, band products that go
    # subnormal or overflow, and the gap tick
    walks = [(delta, 1.0 + float(rng.random()), 1e-30, 1e30) for delta in (1e-9, 1e-4, 0.01)]
    walks += [(0.01, tiny, tiny * 2.0**-30, tiny * 1e6), (0.01, huge * 0.9999, huge * 1e-6, huge)]
    shifts = itertools.cycle((0, k // 2, k - 1))  # where the smallest threshold goes
    cases = []
    for convention in (REL, LOG):
        for delta, start, lo, hi in walks:
            # the walk's threshold and k - 1 up to 16 times larger
            deltas = delta * np.geomspace(1, 16, k) if k > 1 else [delta]
            configs = [it.ThresholdConfig(d, convention) for d in np.roll(deltas, next(shifts))]
            factors = engine._scan_args(it.ThresholdConfig(delta, convention))[1:3]
            prices = grid_walk(rng, start, factors, 400, lo, hi)
            series = it.TickSeries(np.arange(prices.size), prices)
            cases += [(series, configs, mode) for mode in it.Mode]
        gap = np.roll(np.geomspace(0.001, 0.03, k), next(shifts))
        cases.append((GAP_SERIES, [it.ThresholdConfig(d, convention) for d in gap], it.Mode.UP))
    for series, configs, mode in cases:
        grid = engine._GridScan(configs, series, mode).finish()
        assert [arrays.config for arrays in grid] == configs
        assert sum(map(len, grid)) > 20
        for got, twin in zip(grid, twin_grid(series, configs, mode)):
            for field in ARRAY_FIELDS:
                a, b = getattr(got, field), getattr(twin, field)
                assert a.dtype == b.dtype and np.array_equal(a, b), (got.config, mode, field)
    if k >= 7:
        assert any(0 < full < k - 1 for full in stops)


def test_each_first_event_block_keeps_its_8_byte_columns_aligned(monkeypatch):
    # the first blocks are slices of one allocation; with a cap that is not
    # a multiple of 4, 26-byte slots would misalign every other runner's
    monkeypatch.setattr(engine, "_FIRST_CAP", 3)
    scan = engine._GridScan([it.ThresholdConfig(d) for d in (0.01, 0.02, 0.03)], [(0, 1.0)])
    assert all(r.ts % 8 == r.px % 8 == r.xt % 8 == 0 for r in scan.runners)


def scan_in_blocks(series, configs, mode, cuts):
    """The grid's event arrays from one ``_GridScan`` built from the ticks
    up to the first cut past 0 and fed the rest split at the other ``cuts``
    (sorted; equal cuts make empty blocks), or the text of the DomainError
    the scan raises."""
    bounds = [cut for cut in cuts if cut > 0] + [len(series)]
    try:
        scan = engine._GridScan(configs, series[:bounds[0]], mode)
        for lo, hi in zip(bounds, bounds[1:]):
            scan.feed(series.timestamps[lo:hi], series.prices[lo:hi])
    except it.DomainError as exc:
        return str(exc)
    return scan.finish()


# The gap tick, whose overshoot loop fills 3-slot blocks part way through,
# and the grids that stall, one of them before a flood, each fed as one grid
SPLIT_GRIDS = [(GAP_SERIES, [it.ThresholdConfig(d, c) for d in (0.03, 0.001, 0.003)], it.Mode.UP)
               for c in (REL, LOG)]
SPLIT_GRIDS += [(it.TickSeries(np.arange(prices.size) * 10, prices),
                 [it.ThresholdConfig(d, c) for d in deltas], it.Mode.UP)
                for c, prices, deltas, _ in STOPPING_GRIDS]


@st.composite
def block_splits(draw):
    """A grid, a start mode and where to split its ticks into blocks: into
    single ticks, or at up to 8 cuts anywhere."""
    walks = tick_walks().map(lambda walk: (
        it.TickSeries(walk[0], walk[1]),
        [it.ThresholdConfig(walk[2] * k, LOG if walk[3] else REL) for k in (1, 2.5)], walk[4]))
    series, configs, mode = draw(st.one_of(st.sampled_from(SPLIT_GRIDS), walks))
    n = len(series)
    cuts = draw(st.one_of(st.just(list(range(1, n))),
                          st.lists(st.integers(0, n), max_size=8).map(sorted)))
    return series, configs, mode, cuts


@pytest.mark.parametrize("backend", [
    pytest.param("c", marks=pytest.mark.skipif(not HAS_CC,
                                               reason="no C compiler (cc) on PATH")),
    "python"])
@given(block_splits(), st.sampled_from([3, 1024]))
@example((*SPLIT_GRIDS[1], [3]), 3)  # a block that starts right after the gap tick
@settings(max_examples=150)
def test_any_split_of_the_ticks_gives_the_events_of_one_feed(backend, split, first_cap):
    series, configs, mode, cuts = split
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_FIRST_CAP", first_cap)  # 3: blocks fill and resume often
        if backend == "python":
            patch.setattr(engine, "_kernel", None)
        assert it.kernel_backend() == backend
        whole = scan_in_blocks(series, configs, mode, [])
        assert scan_in_blocks(series, configs, mode, cuts) == whole
    if isinstance(whole, str):  # a stall: every split raises it, for the same threshold
        assert re.match(r"^threshold .* so the scan would never end$", whole)
        return
    for arrays in whole:
        expected = reference_events(series.timestamps.tolist(), series.prices,
                                    arrays.config.delta, arrays.config.move_convention is LOG,
                                    mode.value)
        got = zip(arrays.kinds.tolist(), arrays.directions.tolist(),
                  arrays.timestamps.tolist(), arrays.prices.tolist())
        assert [("OS" if k else "DC", d, t, p) for k, d, t, p in got] == \
               [event[:4] for event in expected]


def trend_walk(rng, deltas, convention, runs):
    """Prices from 1.0 in ``runs`` monotone runs of 4 to 40 small steps,
    each much smaller than every threshold, so that the runs extend trends
    on quiet ticks and the C scan reads most of them four at a time. Each
    run ends on the retrace from its extreme onto the DC trigger of one of
    ``deltas`` there, moved by up to 2 ulps, or on a shorter retrace."""
    prices = [1.0]
    for _ in range(runs):
        sign = rng.choice([-1.0, 1.0])
        size = min(deltas) * rng.uniform(0.02, 0.4)
        for step in rng.uniform(0.1, 1.0, int(rng.integers(4, 41))):
            prices.append(prices[-1] * math.exp(sign * size * step))
        up_factor, down_factor = engine._scan_args(
            it.ThresholdConfig(float(rng.choice(deltas)), convention))[1:3]
        trigger = prices[-1] * (down_factor if sign > 0 else up_factor)
        if rng.random() < 0.2:
            trigger = (prices[-1] + trigger) / 2
        prices.append(trigger + int(rng.integers(-2, 3)) * math.ulp(trigger))
    return np.array(prices)


@pytest.mark.skipif(not HAS_CC, reason="no C compiler (cc) on PATH")
@pytest.mark.parametrize("convention", [REL, LOG])
@pytest.mark.parametrize("first_cap", [1, 2, 3, 1024])
def test_trends_extended_on_quiet_ticks_fire_where_the_twin_fires(monkeypatch, convention,
                                                                 first_cap):
    # The C scan moves a runner's extremum up to the highest (or lowest)
    # price of the quiet ticks only at the next tick that can fire, and at
    # the end of a call. Retraces onto the DC triggers of those extrema
    # fire only if every extremum got there: through quiet four-tick
    # blocks, through full-buffer stops (first blocks of 1 to 3 slots,
    # with thresholds after the full one that have not read the tick), and
    # through feeds of 1 to 7 ticks.
    kernel = engine._load_kernel()
    stops = []  # (runner whose block filled, runners in the grid)

    def tracing(*args):
        full = kernel.scan(*args)
        stops.append((full, args[-1]))
        return full

    monkeypatch.setattr(engine, "_kernel", kernel._replace(scan=tracing))
    monkeypatch.setattr(engine, "_FIRST_CAP", first_cap)
    rng = np.random.default_rng(60 + first_cap)
    grids = [(0.01,), (0.005, 0.03), (0.01, 0.02, 0.04), (0.002, 0.004, 0.008, 0.016)]
    for deltas in grids:
        for mode in it.Mode:
            prices = trend_walk(rng, deltas, convention, 12)
            series = it.TickSeries(np.arange(prices.size), prices)
            configs = [it.ThresholdConfig(d, convention) for d in rng.permutation(deltas)]
            whole = scan_in_blocks(series, configs, mode, [])
            assert sum(arrays.n_dc for arrays in whole) >= 6
            for size in range(1, 8):
                assert scan_in_blocks(series, configs, mode,
                                      list(range(size, len(series), size))) == whole
            for got, twin in zip(whole, twin_grid(series, configs, mode)):
                for field in ARRAY_FIELDS:
                    a, b = getattr(got, field), getattr(twin, field)
                    assert a.dtype == b.dtype and np.array_equal(a, b), (got.config, mode, field)
                expected = reference_events(series.timestamps.tolist(), series.prices,
                                            got.config.delta, convention is LOG, mode.value)
                events = zip(got.kinds.tolist(), got.directions.tolist(),
                             got.timestamps.tolist(), got.prices.tolist())
                assert [("OS" if k else "DC", d, t, p) for k, d, t, p in events] == \
                       [event[:4] for event in expected]
    if first_cap < 1024:
        assert any(0 <= full < k - 1 for full, k in stops)


# A down trend that falls on quiet ticks from normal prices to 170 times
# the smallest subnormal, then retraces to 172 times it, a DC at 0.01. The
# DC band at that low, 170 times about 1.01, rounds to 172 times it, the
# tick's own price, so a subnormal band must not leave the tick quiet:
# reached on one quiet tick, and as the low of a quiet four-tick block
SUBNORMAL_LOWS = [[1e-307, 170, 172], [1e-307, 0.9e-307, 170, 171, 171, 171, 172]]


@pytest.mark.skipif(not HAS_CC, reason="no C compiler (cc) on PATH")
@pytest.mark.parametrize("convention", [REL, LOG])
@pytest.mark.parametrize("prices", SUBNORMAL_LOWS)
def test_a_subnormal_extremum_reached_on_quiet_ticks_keeps_its_dc(convention, prices):
    prices = np.array([p if p < 1 else p * 5e-324 for p in prices])
    series = it.TickSeries(np.arange(prices.size), prices)
    config = it.ThresholdConfig(0.01, convention)
    got = it.process_arrays(series, config, it.Mode.DOWN)
    twin = twin_grid(series, [config], it.Mode.DOWN)[0]
    assert got == twin and twin.kinds.tolist() == [0] and twin.timestamps[0] == prices.size - 1


# At 1e-12 the tick 2.0 asks for about 6.9e11 overshoots, each a step that
# moves the reference price, so the scan ends, but not in memory
FLOOD = it.TickSeries(np.arange(4), np.array([1.0, 0.5, 1.0, 2.0]))


# How each backend meets the flood: step never uses the kernel, and leaves
# the runner as it was
FLOOD_CALLS = {
    "c": 'assert it.kernel_backend() == "c"\nit.process_arrays(series, config)',
    "python": "engine._kernel = None\nit.process_arrays(series, config)",
    "step": textwrap.dedent("""\
        state = it.new_runner(config, series[0])
        for k in (1, 2):
            it.step(state, series[k], config)
        try:
            it.step(state, series[3], config)
        finally:
            assert (state.last_timestamp, state.intrinsic_clock, state.os_reference_price) == (
                2, 2, 1.0)"""),
}


@pytest.mark.parametrize("backend", [
    pytest.param("c", marks=pytest.mark.skipif(not HAS_CC,
                                               reason="no C compiler (cc) on PATH")),
    "python", "step"])
def test_an_overshoot_flood_raises_before_it_runs_out_of_memory(backend):
    # In a fresh interpreter, with its address space limited to 2 GiB more
    # than it has mapped (not to 2 GiB in all, which leaves no room beside
    # AddressSanitizer's shadow memory): a scan that doubles its event block
    # until no more can be allocated takes over a second there, and fails
    # with a bare MemoryError
    script = textwrap.dedent("""
        import re, resource, time
        from pathlib import Path
        import numpy as np
        import intrinsic_time as it
        from intrinsic_time import engine

        it.kernel_backend()  # loads, or compiles, the kernel before the limit
        mapped = int(re.search(r"VmSize:\\s+(\\d+) kB", Path("/proc/self/status").read_text())[1])
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, ((mapped << 10) + (2 << 30), hard))
        series = it.TickSeries(np.arange(4), np.array([1.0, 0.5, 1.0, 2.0]))
        config = it.ThresholdConfig(1e-12)
        start = time.perf_counter()
        try:
            exec(CALL)
        except Exception as exc:
            print(time.perf_counter() - start, type(exc).__name__, exc)
    """).replace("CALL", repr(FLOOD_CALLS[backend]))
    package_root = str(Path(it.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, timeout=300, env={**os.environ, "PYTHONPATH": path}).stdout
    seconds, kind, message = out.split(" ", 2)
    assert kind == "DomainError" and float(seconds) < 1.0
    assert re.match(r"threshold 1e-12: its events do not fit in memory at the tick at "
                    r"timestamp 3 \(price 2\.0\), where about 6\.93e\+11 more", message)


@pytest.mark.parametrize("backend", [
    pytest.param("c", marks=pytest.mark.skipif(not HAS_CC,
                                               reason="no C compiler (cc) on PATH")),
    "python"])
def test_a_flooding_grid_raises_for_its_first_flooding_tick(monkeypatch, backend):
    # With memory for 1e5 events, 1e-5 holds its 6.9e4 overshoots at tick 3
    # and floods at tick 4, after 1e-6, which floods at tick 3
    sizes = {"SC_PHYS_PAGES": 100_000, "SC_PAGE_SIZE": 26}
    monkeypatch.setattr(engine.os, "sysconf", sizes.__getitem__)
    if backend == "python":
        monkeypatch.setattr(engine, "_kernel", None)
    assert it.kernel_backend() == backend
    series = it.TickSeries(np.arange(5), np.array([1.0, 0.5, 1.0, 2.0, 1e6]))
    with pytest.raises(it.DomainError, match=r"^threshold 1e-06: .* at timestamp 3 \(price "
                                             r"2\.0\), where about 6\.92e\+05 more"):
        engine._GridScan([it.ThresholdConfig(1e-5), it.ThresholdConfig(1e-6)], series)


@pytest.mark.skipif(not HAS_CC, reason="no C compiler (cc) on PATH")
def test_an_event_block_that_cannot_be_allocated_raises_the_same_error(monkeypatch):
    empty = np.empty

    def failing(shape, dtype=float):  # no block past 4096 event slots
        if dtype is np.uint8 and shape > 26 * 4096:
            raise MemoryError
        return empty(shape, dtype)

    monkeypatch.setattr(np, "empty", failing)
    # about 6.9e6 overshoots: few enough for the machine, not for the blocks
    with pytest.raises(it.DomainError, match=r"^threshold 1e-07: its events do not fit in "
                                             r"memory at the tick at timestamp 3 \(price 2\.0\)"):
        it.process_arrays(FLOOD, it.ThresholdConfig(1e-7))


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
    with pytest.warns(RuntimeWarning, match="no C compiler") as record:
        assert it.kernel_backend() == "python"
    assert len(record) == 1  # and no more: the error filter would raise one
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


@pytest.mark.skipif(sys.platform == "win32", reason="the fake compiler is a shell script")
def test_a_failing_compiler_runs_once_when_warnings_are_errors(monkeypatch, tmp_path):
    # the fallback is recorded before the warning, so the warning raised as
    # an error does not leave the next call to build again
    runs = tmp_path / "runs"
    fake_cc = tmp_path / "bin" / "cc"
    fake_cc.parent.mkdir()
    fake_cc.write_text(f"#!/bin/sh\necho run >> '{runs}'\necho 'no such target' >&2\nexit 1\n")
    fake_cc.chmod(0o755)
    monkeypatch.setenv("PATH", str(fake_cc.parent))
    monkeypatch.setattr(engine, "_kernel", engine._UNLOADED)
    monkeypatch.setattr(engine, "_kernel_cache_dirs", lambda: [tmp_path / "cache"])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="no such target"):
            it.kernel_backend()
        assert it.kernel_backend() == "python"
        assert len(run([100.0, 99.0, 98.01, 99.0001], 0.01)) == 3
    assert runs.read_text() == "run\n"


@pytest.mark.parametrize("lacks", [
    "shared object",
    pytest.param("kernel function",
                 marks=pytest.mark.skipif(not HAS_CC, reason="no C compiler (cc) on PATH"))])
@pytest.mark.skipif(sys.platform == "win32", reason="the fake compiler is a shell script")
def test_a_cached_build_that_cannot_load_warns_once_and_falls_back(monkeypatch, tmp_path,
                                                                   lacks):
    # a fake compiler leaves a file that is no kernel under the build's own
    # name; a later process finds it there with no compiler
    payload = tmp_path / "payload"
    if lacks == "shared object":
        payload.write_text(f"{lacks:>4096}")
    else:
        subprocess.run(["cc", "-shared", "-fPIC", "-x", "c", "-o", str(payload), "-"],
                       input=b"int nothing(void) { return 0; }\n", check=True)
    fake_cc = tmp_path / "bin" / "cc"
    fake_cc.parent.mkdir()
    fake_cc.write_text('#!/bin/sh\nwhile [ "$1" != -o ]; do shift; done\n'
                       f'{shutil.which("cp")} \'{payload}\' "$2"\n')
    fake_cc.chmod(0o755)
    monkeypatch.setenv("PATH", str(fake_cc.parent))
    monkeypatch.setattr(engine, "_kernel", engine._UNLOADED)
    monkeypatch.setattr(engine, "_kernel_cache_dirs", lambda: [tmp_path / "cache"])
    with pytest.warns(RuntimeWarning):
        assert it.kernel_backend() == "python"
    (build,) = (tmp_path / "cache").iterdir()
    assert build.name.startswith("_scan-") and build.suffix == ".so"
    monkeypatch.setenv("PATH", str(tmp_path / "empty"))
    monkeypatch.setattr(engine, "_kernel", engine._UNLOADED)
    with pytest.warns(RuntimeWarning, match=re.escape(str(build))) as record:
        assert [it.kernel_backend() for _ in range(3)] == ["python"] * 3
    assert len(record) == 1
    assert str(record[0].message).endswith("; using the slower Python scan and file I/O")
    assert "no C compiler" not in str(record[0].message)
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
def test_kernel_source_compiles_without_warnings(tmp_path):
    # an unused helper or a narrowing slip fails here, not only in review
    result = subprocess.run(["cc", *engine._KERNEL_FLAGS, "-Wall", "-Wextra", "-Werror",
                             "-o", str(tmp_path / "scan.so"), str(engine._KERNEL_SOURCE), "-lm"],
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


def test_every_static_function_of_the_kernel_is_used():
    # gcc warns about an unused static function, not about an unused
    # static inline one, so the compile test above misses those
    source = engine._KERNEL_SOURCE.read_text()
    defined = re.findall(r"^(?:static|FIELD)\b[^;=]*?\b(\w+)\(", source, re.MULTILINE)
    assert {"move", "band", "digits", "real_field", "put_g17"} <= set(defined)
    unused = [name for name in defined if len(re.findall(rf"\b{name}\b", source)) < 2]
    assert unused == []


class _DlInfo(ctypes.Structure):
    _fields_ = [("fname", ctypes.c_char_p), ("fbase", ctypes.c_void_p),
                ("sname", ctypes.c_char_p), ("saddr", ctypes.c_void_p)]


@pytest.mark.skipif(not HAS_CC, reason="no C compiler (cc) on PATH")
def test_no_function_of_the_kernel_comes_before_it_scan():
    # it_scan's place in .text sets where its loops fall, and so its speed: a
    # helper that gcc lays out ahead of it moves it
    nm, dladdr = shutil.which("nm"), getattr(ctypes.CDLL(None), "dladdr", None)
    if nm is None or dladdr is None:
        pytest.skip("no nm on PATH, or no dladdr to find the loaded kernel")
    dladdr.argtypes = [ctypes.c_void_p, ctypes.POINTER(_DlInfo)]
    info = _DlInfo()  # the file the loaded it_scan comes from
    assert dladdr(ctypes.cast(engine._load_kernel().scan, ctypes.c_void_p), ctypes.byref(info))
    listing = subprocess.run([nm, "-n", info.fname.decode()], capture_output=True, text=True,
                             check=True, timeout=60).stdout
    text = [(int(address, 16), name.split(".")[0]) for address, kind, name in
            (line.split() for line in listing.splitlines() if len(line.split()) == 3)
            if kind in "tT"]  # gcc's clones are named like real_field.part.0
    scan_at = next(address for address, name in text if name == "it_scan")
    in_source = set(re.findall(r"\b(\w+)\(", engine._KERNEL_SOURCE.read_text()))
    assert [name for address, name in text if address < scan_at and name in in_source] == []


def test_the_kernel_makes_its_c_locale_once():
    # one locale, made by it_init when the kernel is bound, serves every
    # parser and writer: none makes or frees one per call
    source = engine._KERNEL_SOURCE.read_text()
    init = re.search(r"^int it_init\(void\)\n\{\n.*?^\}", source, re.MULTILINE | re.DOTALL)
    assert init is not None and "newlocale(" in init[0]
    assert len(re.findall(r"\bnewlocale\b", source)) == 1
    assert "freelocale" not in source
    assert source.count("uselocale(c_locale)") == source.count("uselocale(caller)") == 4


@pytest.mark.skipif(not HAS_CC, reason="no C compiler (cc) on PATH")
def test_a_kernel_without_a_c_locale_warns_and_falls_back(monkeypatch):
    assert engine._load_kernel() is not None  # built, so the call below only binds it
    library = ctypes.CDLL

    def without_locale(path):
        lib = library(path)
        return types.SimpleNamespace(**{name: getattr(lib, name) for name in (
            "it_scan", "it_parse_ticks", "it_format_ticks", "it_parse_events",
            "it_format_events")}, it_init=lambda: 0)

    monkeypatch.setattr(engine.ctypes, "CDLL", without_locale)
    monkeypatch.setattr(engine, "_kernel", engine._UNLOADED)
    with pytest.warns(RuntimeWarning, match="cannot make a C locale"):
        assert it.kernel_backend() == "python"


@pytest.mark.skipif(not HAS_CC, reason="no C compiler (cc) on PATH")
def test_a_new_build_removes_the_builds_of_other_sources(tmp_path):
    stale = tmp_path / "_scan-0badc0de.so"
    stale.write_bytes(b"a build of an earlier _scan.c")
    compiling = tmp_path / "_scan-k2x9q1.tmp"  # another process's build in progress
    compiling.write_bytes(b"")
    kernel = engine._compile_kernel([tmp_path])
    assert kernel is not None
    left = sorted(p.name for p in tmp_path.iterdir())
    assert len(left) == 2 and compiling.name in left and stale.name not in left
    built = tmp_path / next(name for name in left if name.endswith(".so"))
    assert engine._compile_kernel([tmp_path]) is not None  # the cached build
    assert sorted(p.name for p in tmp_path.iterdir()) == left and built.is_file()


@pytest.mark.skipif(not HAS_CC, reason="no C compiler (cc) on PATH")
def test_a_build_leaves_the_builds_of_other_interpreters(monkeypatch, tmp_path):
    this = engine._INTERPRETER
    older = tmp_path / f"_scan-{this}-0badc0de.so"  # this interpreter, an earlier source
    older.write_bytes(b"a build of an earlier _scan.c")
    assert engine._compile_kernel([tmp_path]) is not None
    (built,) = tmp_path.glob("*.so")
    assert built.name.startswith(f"_scan-{this}-")
    stamp = built.stat().st_mtime_ns
    monkeypatch.setattr(engine, "_INTERPRETER", "cpython-399")
    assert engine._compile_kernel([tmp_path]) is not None
    (other,) = tmp_path.glob("_scan-cpython-399-*.so")
    assert built.is_file() and other.name == built.name.replace(this, "cpython-399")
    monkeypatch.setattr(engine, "_INTERPRETER", this)
    assert engine._compile_kernel([tmp_path]) is not None  # the cached build: no compile
    assert sorted(tmp_path.glob("*.so")) == sorted([built, other])
    assert built.stat().st_mtime_ns == stamp


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
