"""Tests for tick ingestion and event serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import intrinsic_time as it
from intrinsic_time.io import EVENT_SCHEMA_COMMENT

NS = 1_000_000_000
CSV = it.EventFileFormat.CSV
JSONL = it.EventFileFormat.JSONL


def spec_for(path, **kwargs):
    defaults = dict(has_header=False, timestamp_unit=it.TimestampUnit.SECONDS)
    defaults.update(kwargs)
    return it.TickFileSpec(path=path, **defaults)


def test_parse_two_row_seconds_file(tmp_path):
    path = tmp_path / "ticks.csv"
    path.write_text("0,100.0\n1,101.0\n")
    series = it.parse_ticks(spec_for(path))
    assert series.timestamps.tolist() == [0, NS]
    assert series.prices.tolist() == [100.0, 101.0]


def test_parse_rejects_nonpositive_price_with_row(tmp_path):
    path = tmp_path / "ticks.csv"
    path.write_text("0,100.0\n5,-1.0\n")
    with pytest.raises(it.IngestionError) as err:
        it.parse_ticks(spec_for(path))
    assert err.value.row == 2
    assert "row 2" in str(err.value)


def test_parse_rejects_backwards_timestamps_unless_allowed(tmp_path):
    path = tmp_path / "ticks.csv"
    path.write_text("2,100.0\n1,101.0\n3,102.0\n")
    with pytest.raises(it.IngestionError) as err:
        it.parse_ticks(spec_for(path))
    assert err.value.row == 2
    series = it.parse_ticks(spec_for(path), allow_unordered=True)
    assert series.timestamps.tolist() == [NS, 2 * NS, 3 * NS]
    assert series.prices.tolist() == [101.0, 100.0, 102.0]


def test_parse_skips_header_and_comments(tmp_path):
    path = tmp_path / "ticks.csv"
    path.write_text("# some comment\ntimestamp,price\n0,1.0\n# mid comment\n1,2.0\n")
    series = it.parse_ticks(spec_for(path, has_header=True))
    assert len(series) == 2


def test_parse_fractional_seconds_exact(tmp_path):
    path = tmp_path / "ticks.csv"
    path.write_text("1700000000.123456789,1.0\n")
    series = it.parse_ticks(spec_for(path))
    assert series.timestamps.tolist() == [1700000000123456789]


def test_parse_millis_unit(tmp_path):
    path = tmp_path / "ticks.csv"
    path.write_text("1500,4.5\n")
    series = it.parse_ticks(spec_for(path, timestamp_unit=it.TimestampUnit.MILLIS))
    assert series.timestamps.tolist() == [1_500_000_000]


@pytest.mark.parametrize("content,bad_row", [
    ("abc,1.0\n", 1),
    ("0,xyz\n", 1),
    ("0,1.0\n1\n", 2),
    ("0,nan\n", 1),
    ("nan,1.0\n", 1),
    ("0,1.0\n1,inf\n", 2),
    ("0,-inf\n", 1),
])
def test_parse_malformed_rows_name_the_row(tmp_path, content, bad_row):
    path = tmp_path / "ticks.csv"
    path.write_text(content)
    with pytest.raises(it.IngestionError) as err:
        it.parse_ticks(spec_for(path))
    assert err.value.row == bad_row


def test_parse_missing_file_raises():
    with pytest.raises(it.IngestionError):
        it.parse_ticks(spec_for("/no/such/file.csv"))


def test_tick_roundtrip_is_exact(tmp_path):
    series = it.generate_gbm(it.GbmParams(s0=1.0, mu=0.0, sigma=0.01,
                                          dt_step=0.5, n_steps=500, seed=3))
    path = tmp_path / "ticks.csv"
    it.write_ticks(series, path)
    back = it.parse_ticks(it.TickFileSpec(path=path))
    np.testing.assert_array_equal(series.timestamps, back.timestamps)
    np.testing.assert_array_equal(series.prices, back.prices)


def test_write_events_empty_csv_is_header_only(tmp_path):
    path = tmp_path / "events.csv"
    it.write_events([], path, CSV)
    lines = path.read_text().splitlines()
    assert lines == [EVENT_SCHEMA_COMMENT,
                     "kind,direction,timestamp_ns,price,delta,clock_index"]
    assert it.read_events(path, CSV) == []


def test_write_events_empty_jsonl_is_empty_file(tmp_path):
    path = tmp_path / "events.jsonl"
    it.write_events([], path, JSONL)
    assert path.read_text() == ""
    assert it.read_events(path, JSONL) == []


def test_single_dc_event_has_one_row(tmp_path):
    ev = it.IntrinsicEvent(it.EventKind.DIRECTIONAL_CHANGE, it.Mode.DOWN,
                           123, 99.5, 0.01, 0)
    path = tmp_path / "events.csv"
    it.write_events([ev], path, CSV)
    data_rows = [l for l in path.read_text().splitlines()
                 if l and not l.startswith("#")][1:]
    assert len(data_rows) == 1
    assert data_rows[0].startswith("DC,down,123,")


event_lists = st.lists(
    st.builds(
        it.IntrinsicEvent,
        kind=st.sampled_from([it.EventKind.DIRECTIONAL_CHANGE,
                              it.EventKind.OVERSHOOT]),
        direction=st.sampled_from([it.Mode.UP, it.Mode.DOWN]),
        timestamp=st.integers(min_value=0, max_value=2**62),
        price=st.floats(min_value=1e-6, max_value=1e9, allow_nan=False),
        delta=st.floats(min_value=1e-6, max_value=0.5, allow_nan=False),
        clock_index=st.integers(min_value=0, max_value=2**31),
    ),
    max_size=40,
)


@given(event_lists, st.sampled_from([CSV, JSONL]))
@settings(max_examples=120)
def test_event_roundtrip_lossless(tmp_path_factory, events, fmt):
    path = tmp_path_factory.mktemp("rt") / f"events.{fmt.value}"
    it.write_events(events, path, fmt)
    assert it.read_events(path, fmt) == events


def test_events_from_engine_roundtrip(tmp_path):
    walk = it.generate_random_walk(1.0, 0.004, 2000, seed=13)
    events = it.process(walk, it.ThresholdConfig(0.005))
    assert len(events) > 0
    for fmt in (CSV, JSONL):
        path = tmp_path / f"ev.{fmt.value}"
        it.write_events(events, path, fmt)
        assert it.read_events(path, fmt) == events


def test_write_to_unwritable_path_raises():
    ev = []
    with pytest.raises(it.WriteError):
        it.write_events(ev, "/no/such/dir/out.csv", CSV)
