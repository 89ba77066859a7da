"""The two event builders: ``it_build_events`` in the C kernel and its spec,
``engine._build_events``, and the pause of the garbage collector around
event loops.

Each builder turns event columns into ``IntrinsicEvent`` objects, the C one
in one call for a whole grid. The C builder is compiled in only where the
Python headers are found; without it, or for columns it does not take,
the Python builder runs, and the results and error texts are the same.
"""

import contextlib
import dataclasses
import gc
import itertools
import re
import shutil
import struct
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import intrinsic_time as it
from intrinsic_time import engine, io

HAS_CC = shutil.which("cc") is not None
KERNEL = engine._load_kernel()
needs_builder = pytest.mark.skipif(KERNEL is None or KERNEL.build_events is None,
                                   reason="the kernel has no event builder")
WALK = it.generate_random_walk(1.0, 0.004, 20000, seed=11)
CONFIG = it.ThresholdConfig(0.004, it.MoveConvention.LOG_RETURN)
INT64 = st.integers(-2**63, 2**63 - 1)


def python_events(kinds, directions, timestamps, prices, delta, deltas=None, clocks=None):
    """What ``_build_events`` makes of columns as ``_built_in_c`` takes them."""
    return engine._build_events(
        kinds.tolist(), directions.tolist(), timestamps.tolist(), prices.tolist(),
        itertools.repeat(delta) if deltas is None else deltas.tolist(),
        range(kinds.size) if clocks is None else clocks.tolist())


def exact(events):
    """The fields of each event, with each float as its bits, so that a nan
    equals itself and 0.0 differs from -0.0."""
    return [(*ev[:3], struct.pack("<d", ev[3]), struct.pack("<d", ev[4]), ev[5])
            for ev in events]


def outcome(build, *args):
    """``("events", events)`` or ``(error type, message)`` of a build."""
    try:
        return "events", build(*args)
    except Exception as exc:  # any error: both builders must raise the same
        return type(exc), str(exc)


@st.composite
def event_columns(draw):
    """Columns of valid codes and any values: timestamps at the int64
    extremes, prices of any bits, one delta or a column of them, and clock
    indices from the positions or a column past the small-int cache."""
    n = draw(st.integers(0, 60))

    def column(dtype, elements):
        return draw(hnp.arrays(dtype, n, elements=elements))

    kinds = column(np.int8, st.sampled_from([0, 1]))
    directions = column(np.int8, st.sampled_from([1, -1]))
    timestamps = column(np.int64, st.one_of(INT64, st.sampled_from([-2**63, 2**63 - 1])))
    prices = column(np.float64, st.floats(allow_nan=True, allow_infinity=True))
    delta = draw(st.floats(1e-9, 0.99))
    deltas = draw(st.none() | st.just(column(np.float64, st.floats(1e-9, 0.99))))
    clocks = draw(st.none() | st.just(column(np.int64, st.one_of(
        st.integers(0, 1000), st.integers(2**63 - 300, 2**63 - 1)))))
    return kinds, directions, timestamps, prices, delta, deltas, clocks


@needs_builder
@given(event_columns())
@example((np.zeros(3, np.int8), np.ones(3, np.int8), np.array([-2**63, 0, 2**63 - 1]),
          np.array([5e-324, -0.0, np.inf]), 0.01, None,
          np.array([255, 256, 2**63 - 1], np.int64)))
def test_the_c_builder_makes_the_python_builders_events(columns):
    built = engine._built_in_c(*columns)
    expected = python_events(*columns)
    assert built is not None and exact(built) == exact(expected)
    delta, deltas = columns[4], columns[5]
    for ev in built:
        assert type(ev) is it.IntrinsicEvent
        assert ev.kind in engine._KINDS.values() and ev.direction in engine._DIRECTIONS.values()
        assert [type(v) for v in ev[2:]] == [int, float, float, int]
        assert deltas is not None or ev.delta is delta  # one shared delta object


@needs_builder
def test_the_grid_builder_makes_each_thresholds_python_events():
    configs = [it.ThresholdConfig(d) for d in (0.002, 0.004, 0.01)]
    scan = engine._grid_scan(WALK, configs)
    built = scan.events()
    for events, arrays in zip(built, scan.finish(), strict=True):
        expected = python_events(arrays.kinds, arrays.directions, arrays.timestamps,
                                 arrays.prices, arrays.config.delta)
        assert len(events) > 1024 and events == expected
        assert all(ev.delta is arrays.config.delta for ev in events)


@needs_builder
def test_the_c_builder_keeps_reference_counts():
    arrays = it.process_arrays(WALK, CONFIG)
    delta, n = CONFIG.delta, len(arrays)
    deltas, clocks = np.full(n, 0.25), np.arange(n, dtype=np.int64) + 1000
    grid = engine._grid_scan(WALK, [CONFIG, it.ThresholdConfig(0.01)])
    grid.finish()[-1].kinds[-1] = 2  # a bad code at the last runner's last event
    builds = [
        lambda: it.events_from_arrays(arrays),
        lambda: engine._grid_scan(WALK, [CONFIG, it.ThresholdConfig(0.01)]).events(),
        lambda: engine._built_in_c(arrays.kinds, arrays.directions, arrays.timestamps,
                                   arrays.prices, delta, deltas, clocks),
        lambda: engine._built_in_c(arrays.kinds + 2, arrays.directions, arrays.timestamps,
                                   arrays.prices, delta),  # a bad code: None
        # None after every other list is built: they are all freed
        lambda: KERNEL.build_events(it.IntrinsicEvent, engine._MEMBERS, grid.runners, 2,
                                    (delta, delta), None, None),
    ]
    watched = [it.IntrinsicEvent, *engine._MEMBERS, delta]
    assert builds[-2]() is None and builds[-1]() is None
    for build in builds:
        build()
        before = [sys.getrefcount(obj) for obj in watched]
        for _ in range(100):
            build()
        assert [sys.getrefcount(obj) for obj in watched] == before


ARRAYS = it.process_arrays(WALK[:3000], CONFIG)


def strided(column):
    """The same values in a view that is not contiguous."""
    return np.repeat(column, 2)[::2]


@pytest.mark.parametrize("backend", ["c", "python"])
@pytest.mark.parametrize("column, code, message", [
    ("kinds", 5, "kind code 5 and direction 1"),
    ("kinds", -1, "kind code -1 and direction 1"),  # not read as _KINDS[-1], an overshoot
    ("directions", 0, "kind code 0 and direction 0"),
], ids=["kind-5", "kind-minus-1", "direction-0"])
def test_a_bad_code_raises_a_domain_error_naming_its_event(monkeypatch, backend, column, code,
                                                           message):
    if backend == "python":
        monkeypatch.setattr(engine, "_kernel", None)
    elif KERNEL is None:
        pytest.skip("no C kernel")
    values = np.array(getattr(ARRAYS, column))
    first = int(np.flatnonzero(ARRAYS.kinds == 0)[1])  # a DC, going up, past event 0
    assert ARRAYS.directions[first] == 1
    values[first:first + 2] = code
    arrays = dataclasses.replace(ARRAYS, **{column: values})
    with pytest.raises(it.DomainError, match=rf"^event {first} has {message}: "):
        it.events_from_arrays(arrays)


@pytest.mark.parametrize("change", [
    {"kinds": ARRAYS.kinds.astype(np.int64)},
    {"kinds": ARRAYS.kinds.astype(np.float64)},
    {"timestamps": ARRAYS.timestamps.astype(np.uint64)},
    {"prices": ARRAYS.prices.astype(">f8")},
    {"kinds": strided(ARRAYS.kinds)},
    {"prices": strided(ARRAYS.prices)},
    {"directions": ARRAYS.directions.tolist()},
], ids=["int64-kinds", "float-kinds", "uint64-timestamps", "big-endian-prices",
        "strided-kinds", "strided-prices", "list-directions"])
def test_unusual_user_arrays_give_the_python_builders_result_or_error(change):
    arrays = dataclasses.replace(ARRAYS, **change)

    def spec(arrays):
        return engine._build_events(arrays.kinds.tolist(), arrays.directions.tolist(),
                                    arrays.timestamps.tolist(), arrays.prices.tolist(),
                                    itertools.repeat(arrays.config.delta), range(len(arrays)))

    got, expected = outcome(it.events_from_arrays, arrays), outcome(spec, arrays)
    assert got == expected and (got[0] == "events") == (not isinstance(got[0], type))


N = len(ARRAYS)


@pytest.mark.parametrize("change, lengths", [
    ({"timestamps": ARRAYS.timestamps[:-1]}, f"kinds {N}, directions {N}, timestamps {N - 1}"),
    ({"prices": ARRAYS.prices[:5]}, f"timestamps {N}, prices 5, extrema {N}"),
    ({"kinds": ARRAYS.kinds.reshape(1, -1)}, f"kinds (1, {N}), directions {N}"),
    ({"kinds": np.int8(0)}, f"kinds (), directions {N}"),
], ids=["short-timestamps", "five-prices", "2d-kinds", "0d-kinds"])
def test_event_columns_of_unequal_shapes_are_refused_on_construction(change, lengths):
    with pytest.raises(it.DomainError, match=rf"^event columns must be 1-d and of one length, "
                                             rf"got .*{re.escape(lengths)}"):
        dataclasses.replace(ARRAYS, **change)


# ---------------------------------------------------------------------------
# the collector
# ---------------------------------------------------------------------------


EVENTS = it.events_from_arrays(ARRAYS)


def event_file(tmp_path):
    path = tmp_path / "events.csv"
    it.write_events(EVENTS, path)
    return path


# each call, and the error it raises, if any
CALLS = {
    "process": (lambda tmp_path: it.process(WALK, CONFIG), None),
    "run_grid": (lambda tmp_path: it.run_grid(WALK, [0.002, 0.01]), None),
    "events_from_arrays": (lambda tmp_path: it.events_from_arrays(ARRAYS), None),
    "bad kind code": (lambda tmp_path: it.events_from_arrays(
        dataclasses.replace(ARRAYS, kinds=np.full(len(ARRAYS), 5, np.int8))), it.DomainError),
    "python builder, bad code": (lambda tmp_path: engine._build_events(
        [0, 7], [1, 1], [0, 1], [1.0, 1.0], [0.1, 0.1], [0, 1]), KeyError),
    "read_events": (lambda tmp_path: it.read_events(event_file(tmp_path)), None),
    "write_events": (lambda tmp_path: it.write_events(EVENTS, tmp_path / "x"), None),
    "write_events, bad direction": (lambda tmp_path: it.write_events(
        [*EVENTS, EVENTS[0]._replace(direction=1)], tmp_path / "x"), it.DomainError),
}


@pytest.mark.parametrize("backend", ["c", "python"])
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("call", list(CALLS))
def test_each_call_leaves_the_collector_as_it_was(monkeypatch, tmp_path, backend, enabled,
                                                  call):
    if backend == "python":
        monkeypatch.setattr(engine, "_kernel", None)
    elif KERNEL is None:
        pytest.skip("no C kernel")
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        run, error = CALLS[call]
        with pytest.raises(error) if error else contextlib.nullcontext():
            run(tmp_path)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("call, backend", [
    ("events_from_arrays", "c"), ("events_from_arrays", "python"), ("read_events", "c"),
    ("read_events", "python"), ("write_events", "c"), ("write_events", "python")])
def test_event_loops_run_without_collections(monkeypatch, tmp_path, backend, call):
    # 20k events: unpaused, the collector would run dozens of times
    if backend == "python":
        monkeypatch.setattr(engine, "_kernel", None)
    elif KERNEL is None:
        pytest.skip("no C kernel")
    arrays = it.process_arrays(WALK, CONFIG)
    events = it.events_from_arrays(arrays)
    assert len(events) > 19000
    path = tmp_path / "events.csv"
    it.write_events(events, path)
    run = {"events_from_arrays": lambda: it.events_from_arrays(arrays),
           "read_events": lambda: it.read_events(path),
           "write_events": lambda: it.write_events(events, path)}[call]
    collections = []
    was = gc.isenabled()
    gc.enable()
    gc.callbacks.append(lambda phase, info: collections.append(phase))
    try:
        run()
    finally:
        gc.callbacks.pop()
        (gc.enable if was else gc.disable)()
    assert len(collections) <= 4  # start and stop of at most two, outside the loops


@pytest.mark.skipif(KERNEL is None, reason="no C kernel")
@pytest.mark.parametrize("deltas", [1, 2], ids=["one-delta", "two-deltas"])
def test_read_events_without_the_builder_frees_each_column_as_it_is_converted(
        monkeypatch, tmp_path, deltas):
    # the Python builder takes lists: each C column's array goes once its list is made
    live, parse_c = [], io._parse_c

    class Column(np.ndarray):
        def tolist(self):
            live.append(sum(ref() is not None for ref in refs))
            return super().tolist()

    def tracked(*args):
        columns = [column.view(Column) for column in parse_c(*args)]
        refs.extend(weakref.ref(column) for column in columns)
        return columns

    refs = []
    monkeypatch.setattr(engine, "_kernel", KERNEL._replace(build_events=None))
    monkeypatch.setattr(io, "_parse_c", tracked)
    events = EVENTS if deltas == 1 else [*EVENTS, EVENTS[-1]._replace(delta=0.5)]
    path = event_file(tmp_path)
    it.write_events(events, path)
    assert it.read_events(path) == events
    # one array fewer at each conversion; a file of one delta passes it as a
    # float, so that column is dropped before the build and not converted
    assert live == list(range(4 + deltas, 0, -1))


# ---------------------------------------------------------------------------
# building the kernel with and without the Python headers
# ---------------------------------------------------------------------------


@pytest.mark.skipif(not HAS_CC, reason="no C compiler (cc) on PATH")
def test_a_kernel_without_python_headers_scans_in_c_and_builds_in_python(monkeypatch,
                                                                          tmp_path):
    grid = [0.002, 0.01]
    expected = (it.process(WALK, CONFIG), it.run_grid(WALK, grid))
    monkeypatch.setattr(engine, "_python_includes", lambda: [])
    monkeypatch.setattr(engine, "_kernel", engine._UNLOADED)
    monkeypatch.setattr(engine, "_kernel_cache_dirs", lambda: [tmp_path / "cache"])
    built = []
    build_events = engine._build_events

    def counting(*columns):
        built.append(1)
        return build_events(*columns)

    monkeypatch.setattr(engine, "_build_events", counting)
    assert it.kernel_backend() == "c"
    assert engine._kernel.build_events is None
    assert (it.process(WALK, CONFIG), it.run_grid(WALK, grid)) == expected
    assert len(built) == 1 + len(grid)


@pytest.mark.skipif(not HAS_CC, reason="no C compiler (cc) on PATH")
def test_the_kernel_has_the_event_builder_where_python_headers_are(tmp_path):
    # a kernel that silently lost its builder would only be slower
    if not any((Path(flag[2:]) / "Python.h").is_file() for flag in engine._python_includes()):
        pytest.skip("no Python.h for this interpreter")
    assert KERNEL is not None and KERNEL.build_events is not None
    # and the builder compiles without a warning, as the rest of the unit does
    result = subprocess.run(["cc", *engine._KERNEL_FLAGS, *engine._python_includes(), "-Wall",
                             "-Wextra", "-Werror", "-o", str(tmp_path / "scan.so"),
                             str(engine._KERNEL_SOURCE), "-lm"],
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
