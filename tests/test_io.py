"""Tests for tick ingestion and event serialization."""

import contextlib
import ctypes
import json
import locale
import os
import re
import shutil
import stat
import subprocess
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import read_through_a_fifo
from hypothesis import given, settings
from hypothesis import strategies as st

import intrinsic_time as it
from intrinsic_time import engine, io
from intrinsic_time.cli import cli_main
from intrinsic_time.io import EVENT_FIELDS, EVENT_SCHEMA_COMMENT, TICK_SCHEMA_COMMENT

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
    path.write_text("time,bid\n0,1.0\n")  # tick headers may name columns freely
    assert len(it.parse_ticks(spec_for(path, has_header=True))) == 1


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


@pytest.mark.parametrize("unit", list(it.TimestampUnit))
def test_a_timestamp_unit_may_be_named_by_value(tmp_path, monkeypatch, unit):
    path = tmp_path / "ticks.csv"
    path.write_text("timestamp,price\n1500,4.5\n2000,4.25\n")
    parsed, parse_c = [], io._parse_c
    monkeypatch.setattr(io, "_parse_c", lambda *args: parsed.append(1) or parse_c(*args))
    spec = it.TickFileSpec(path, timestamp_unit=unit.value)
    assert spec.timestamp_unit is unit
    member = it.TickFileSpec(path, timestamp_unit=unit)
    by_value, by_member = it.parse_ticks(spec), it.parse_ticks(member)
    assert by_value.timestamps.tolist() == by_member.timestamps.tolist()
    assert by_value.prices.tolist() == by_member.prices.tolist() == [4.5, 4.25]
    # a nanosecond file takes the C parser, named by member or by value
    nanos = unit is it.TimestampUnit.NANOS and it.kernel_backend() == "c"
    assert len(parsed) == 2 * nanos


def test_an_unknown_timestamp_unit_raises(tmp_path):
    with pytest.raises(it.ConfigurationError, match="unknown timestamp unit 'min'"):
        it.TickFileSpec(tmp_path / "ticks.csv", timestamp_unit="min")


@pytest.mark.parametrize("content,bad_row", [
    ("abc,1.0\n", 1),
    ("0,xyz\n", 1),
    ("0,1.0\n1\n", 2),
    ("0,nan\n", 1),
    ("nan,1.0\n", 1),
    ("0,1.0\n1,inf\n", 2),
    ("0,-inf\n", 1),
    ("0,1.0\ninf,2.0\n", 2),
    ("1e30,1.0\n", 1),
    ("9.3e9,1.0\n", 1),
    ("1e999999,1.0\n", 1),
    ("1e999990,1.0\n", 1),
    ("0,1.0\n\n# comment\n1,xyz\n", 4),
    ("0.0000000005,1.0\n", 1),
    ("0,1.0\n0.0000000019,1.0\n", 2),
    ("1700000000.123456789999999999999,1.0\n", 1),
    ("9223372036.854775808,1.0\n", 1),
])
def test_parse_malformed_rows_name_the_row(tmp_path, content, bad_row):
    path = tmp_path / "ticks.csv"
    path.write_text(content)
    with pytest.raises(it.IngestionError) as err:
        it.parse_ticks(spec_for(path))
    assert err.value.row == bad_row


def test_parse_huge_exponent_is_refused_at_once(tmp_path):
    path = tmp_path / "ticks.csv"
    path.write_text("1e999990,1.0\n")
    start = time.perf_counter()
    with pytest.raises(it.IngestionError, match="row 1: .* outside the int64"):
        it.parse_ticks(spec_for(path))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("unit", [it.TimestampUnit.SECONDS, it.TimestampUnit.MILLIS])
@pytest.mark.parametrize("timestamp", ["1e9999999999999999999", "1e999990"])
def test_parse_huge_exponent_is_out_of_range_not_malformed(tmp_path, unit, timestamp):
    # Decimal cannot hold the first exponent; the number is still well formed
    path = tmp_path / "ticks.csv"
    path.write_text(f"{timestamp},1.0\n")
    with pytest.raises(it.IngestionError,
                       match=f"row 1: timestamp {timestamp} is outside the int64"
                             " nanosecond range"):
        it.parse_ticks(spec_for(path, timestamp_unit=unit))


def test_parse_exponent_past_decimal_limit_keeps_zero_and_fractions(tmp_path):
    path = tmp_path / "ticks.csv"
    path.write_text("0e9999999999999999999,1.0\n")
    assert it.parse_ticks(spec_for(path)).timestamps.tolist() == [0]
    path.write_text("0,1.0\n1e-9999999999999999999,1.0\n")
    with pytest.raises(it.IngestionError, match="row 2: bad timestamp"):
        it.parse_ticks(spec_for(path))


def test_parse_seconds_reach_both_ends_of_int64(tmp_path):
    path = tmp_path / "ticks.csv"
    path.write_text("-9223372036.854775808,1.0\n9223372036.854775807,1.0\n")
    assert it.parse_ticks(spec_for(path)).timestamps.tolist() == [-2**63, 2**63 - 1]


def test_parse_nanosecond_timestamps_outside_int64_name_the_row(tmp_path):
    path = tmp_path / "ticks.csv"
    nanos = it.TimestampUnit.NANOS
    path.write_text(f"0,1.0\n{2**63 - 1},1.0\n")
    assert it.parse_ticks(spec_for(path, timestamp_unit=nanos)).timestamps.tolist() \
        == [0, 2**63 - 1]
    path.write_text(f"{-2**63},1.0\n{2**63 - 1},1.0\n")
    assert it.parse_ticks(spec_for(path, timestamp_unit=nanos)).span_ns == 2**64 - 1
    for content in ("0,1.0\n99999999999999999999,1.0\n", f"0,1.0\n{2**63},1.0\n"):
        path.write_text(content)
        with pytest.raises(it.IngestionError) as err:
            it.parse_ticks(spec_for(path, timestamp_unit=nanos))
        assert err.value.row == 2


@pytest.mark.parametrize("read", [
    lambda path: it.parse_ticks(spec_for(path, has_header=True)),
    lambda path: it.read_events(path, CSV),
    lambda path: it.read_events(path, JSONL),
], ids=["ticks", "events-csv", "events-jsonl"])
def test_undecodable_file_names_the_file_and_row(tmp_path, read):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"timestamp,price\r\n0,1.0\n\n1,\xff\xfe\n")
    with pytest.raises(it.IngestionError, match="row 4: .*bad.txt is not valid UTF-8") \
            as err:
        read(path)
    assert err.value.row == 4


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


# ---------------------------------------------------------------------------
# tick files in C: the compiled parser and writer against the Python ones
# ---------------------------------------------------------------------------

HAS_CC = shutil.which("cc") is not None
needs_cc = pytest.mark.skipif(not HAS_CC, reason="no C compiler (cc) on PATH")
# every line break str.splitlines honours besides LF
OTHER_BREAKS = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def test_other_breaks_are_all_that_splitlines_honours():
    found = [chr(c) for c in range(0x110000) if len(f"a{chr(c)}a".splitlines()) > 1]
    assert sorted(found) == sorted(OTHER_BREAKS + ["\n"])


def parse_outcome(path, has_header, allow_unordered):
    """What parse_ticks gives: its arrays as bytes, or its error's row and text."""
    spec = it.TickFileSpec(path, has_header=has_header)
    try:
        series = it.parse_ticks(spec, allow_unordered)
    except it.IngestionError as exc:
        return "error", exc.row, str(exc)
    return ("ok", series.timestamps.dtype, series.timestamps.tobytes(),
            series.prices.dtype, series.prices.tobytes())


def parse_both_ways(path, has_header=False, allow_unordered=False):
    """``(compiled, row loop, took the fast path)`` outcomes of parse_ticks.

    The first parse runs with the compiled kernel, counting calls to the
    row loop; the second runs with the kernel switched off.
    """
    assert it.kernel_backend() == "c"
    loop_calls = []
    row_loop = io._parse_tick_rows

    def counting(*args):
        loop_calls.append(args)
        return row_loop(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(io, "_parse_tick_rows", counting)
        fast = parse_outcome(path, has_header, allow_unordered)
        took_fast_path = not loop_calls
        mp.setattr(engine, "_kernel", None)
        assert it.kernel_backend() == "python"
        slow = parse_outcome(path, has_header, allow_unordered)
    assert len(loop_calls) == 1 + (not took_fast_path)
    return fast, slow, took_fast_path


@st.composite
def tick_texts(draw, min_rows=0):
    """A nanosecond tick file inside the C parser's grammar, as its parts."""
    n = draw(st.integers(min_rows, 25))
    stamps = sorted(draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n)))
    values = draw(st.lists(st.floats(1e-300, 1e300), min_size=n, max_size=n))
    styles = draw(st.lists(st.sampled_from(["r", ".17g", ".6e", ".12E", ".0f"]),
                           min_size=n, max_size=n))
    texts = [repr(p) if style == "r" else format(p, style) for p, style in zip(values, styles)]
    # .0f writes a price below 0.5 as 0, which is outside the grammar
    rows = [[str(t), text if float(text) > 0 else repr(p)]
            for t, p, text in zip(stamps, values, texts)]
    prefix = draw(st.lists(st.sampled_from(["# comment", "", "  # indented é", "#"]),
                           max_size=3))
    return prefix, draw(st.booleans()), rows, draw(st.booleans())


def render(prefix, has_header, rows, final_newline):
    lines = prefix + (["timestamp,price"] if has_header else []) + [",".join(r) for r in rows]
    text = "\n".join(lines) + ("\n" if final_newline and lines else "")
    return text.encode("utf-8", "surrogateescape")  # "\udcff" stands for the byte 0xff


def set_field(column, text):
    def mutate(prefix, rows, k):
        rows[k][column] = text
    return mutate


def swap_with_next(prefix, rows, k):  # a backwards row unless the two are equal
    j = min(k + 1, len(rows) - 1)
    rows[k], rows[j] = rows[j], rows[k]


MUTATIONS = {
    **{f"timestamp {t}": set_field(0, t) for t in [
        "1234567890123456789", "12345678901234567890", "9223372036854775807",
        "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
        "007", "-0", "+5", "1_0", " 5", "5 ", "0x10", "1e3", "1.0", "-", "", "٣"]},
    **{f"price {p}": set_field(1, p) for p in [
        ".5", "1.", "5e-324", "2.2250738585072011e-308", "1e-400", "1e400", "0", "0.0",
        "-1.5", "inf", "nan", "+1.5", "1_0.5", "0x1p3", "1e", "1e+", "e5", ".", "1.5 ",
        " 1.5", "1,5", "", "1.5\r", "1.5\x0c", "１", "1.5\udcff", "1" * 400 + "e-399"]},
    "blank line after the row": lambda prefix, rows, k: rows.insert(k + 1, []),
    "comment after the row": lambda prefix, rows, k: rows.insert(k + 1, ["# mid"]),
    "blank line before the rows": lambda prefix, rows, k: rows.insert(0, []),
    "comment before the rows": lambda prefix, rows, k: rows.insert(0, ["# first"]),
    "three fields": lambda prefix, rows, k: rows[k].append("1"),
    "backwards row": swap_with_next,
    "invalid UTF-8 in the prefix": lambda prefix, rows, k: prefix.insert(0, "# \udcff"),
    **{f"break {b!r} in the prefix": (lambda b: lambda prefix, rows, k:
                                      prefix.insert(0, f"# a{b}b"))(b)
       for b in OTHER_BREAKS},
}


@needs_cc
@given(tick_texts(), st.booleans())
@settings(max_examples=150)
def test_fast_parser_takes_generated_files_and_equals_row_loop(
        tmp_path_factory, text, allow_unordered):
    path = tmp_path_factory.mktemp("fast") / "ticks.csv"
    path.write_bytes(render(*text))
    fast, slow, took_fast_path = parse_both_ways(path, text[1], allow_unordered)
    assert took_fast_path
    assert fast == slow and fast[0] == "ok"


@needs_cc
@given(tick_texts(min_rows=1), st.sampled_from(sorted(MUTATIONS)), st.booleans(), st.data())
@settings(max_examples=400)
def test_fast_parser_equals_row_loop_on_mutated_files(
        tmp_path_factory, text, mutation, allow_unordered, data):
    prefix, has_header, rows, final_newline = text
    k = data.draw(st.integers(0, len(rows) - 1))
    MUTATIONS[mutation](prefix, rows, k)
    path = tmp_path_factory.mktemp("mutated") / "ticks.csv"
    path.write_bytes(render(prefix, has_header, rows, final_newline))
    fast, slow, _ = parse_both_ways(path, has_header, allow_unordered)
    assert fast == slow


@needs_cc
@pytest.mark.parametrize("has_header", [False, True])
@pytest.mark.parametrize("prefix, body, allow_unordered, taken", [
    (b"", b"1234567890123456789,1.0\n", False, True),
    (b"", b"9223372036854775807,1.0\n", False, True),
    (b"", b"-9223372036854775808,1.0\n", False, True),
    (b"", b"9223372036854775808,1.0\n", False, False),
    (b"", b"12345678901234567890,1.0\n", False, False),
    (b"", b"2,1e-5\n3,2.5E+3\n", False, True),
    (b"", b"0,.5\n", False, False),
    (b"", b"1,1.\n", False, False),
    (b"", b"007,1.0\n", False, False),
    (b"", b"0,5e-324\n", False, False),
    (b"", b"0,1e400\n", False, False),
    (b"", b"0,0\n", False, False),
    (b"", b"0,1.0\n1,2.0", False, True),
    (b"", b"", False, True),
    (b"# \xff\n", b"0,1.0\n", False, False),
    (b"# comment\n\n", b"0,1.0\n1,\xff\n", False, False),
    (b"", b"1,1.0\n0,2.0\n", False, False),
    (b"", b"1,1.0\n0,2.0\n", True, True),
    (b"", b"0,1.0\r\n", False, False),
    (b"", b"0, 1.0\n", False, False),
    (b"", b"\n0,1.0\n", False, True),
    (b"", b"0,1.0\n\n1,2.0\n", False, True),
    (b"", b"0,1.0\n# mid\n1,2.0\n", False, True),
    (b"", b"0,1.0\n# end", False, True),
    (b"", b"0,1.0\n  \n1,2.0\n", False, True),
    (b"", b"0,1.0\ntimestamp,price\n", False, False),
] + [(f"# a{b}b\n".encode(), b"0,1.0\n", False, False) for b in OTHER_BREAKS])
def test_fast_parser_takes_exactly_its_grammar(tmp_path, has_header, prefix, body,
                                               allow_unordered, taken):
    path = tmp_path / "ticks.csv"
    path.write_bytes(prefix + (b"timestamp,price\n" if has_header else b"") + body)
    fast, slow, took_fast_path = parse_both_ways(path, has_header, allow_unordered)
    assert fast == slow
    assert took_fast_path == taken


@needs_cc
def test_fast_parser_never_reads_the_header_as_a_row(tmp_path):
    path = tmp_path / "ticks.csv"
    path.write_bytes(b"0,1.0\n5,2.0\n")  # a header inside the row grammar
    fast, slow, took_fast_path = parse_both_ways(path, has_header=True)
    assert took_fast_path
    assert fast == slow == ("ok", np.dtype(np.int64), np.array([5], np.int64).tobytes(),
                            np.dtype(np.float64), np.array([2.0]).tobytes())


def fixed_text(w, k):
    """w / 10**k, a whole number w >= 0, in decimal with k digits after the point."""
    text = str(w).rjust(k + 1, "0")
    return f"{text[:-k]}.{text[-k:]}" if k else text


@st.composite
def decimal_texts(draw):
    """A decimal of 1-25 significant digits, 0-25 of them after the point,
    or an exact tie between two doubles, written out in full."""
    if draw(st.booleans()):  # m 2**f and the next double, (2m + 1) 2**(f - 1)
        tie, f = 2 * draw(st.integers(2**52, 2**53 - 1)) + 1, draw(st.integers(-70, 8)) - 1
        return str(tie << f) if f >= 0 else fixed_text(tie * 5**-f, -f)
    digits = draw(st.sampled_from("123456789")) + draw(st.text("0123456789", max_size=24))
    return fixed_text(int(digits), draw(st.integers(0, 25)))


timestamp_texts = st.one_of(st.integers(-2**64, 2**64), st.integers(-2**63 - 2, -2**63 + 2),
                            st.integers(2**63 - 2, 2**63 + 2)).map(str) | st.just("-0")


@needs_cc
@given(st.lists(st.tuples(timestamp_texts, decimal_texts()), min_size=1, max_size=20))
@settings(max_examples=300)
def test_c_number_reader_equals_int_and_float(rows):
    # it_parse_ticks, a row a call, against Python's int() and float(): the
    # same values, and a row refused exactly where they give a timestamp
    # outside int64 or a price that is not positive
    kernel, ts, px = engine._load_kernel(), np.empty(1, np.int64), np.empty(1)
    for t, p in rows:
        data = f"{t},{p}\n".encode()
        read = kernel.parse_ticks(data, len(data), ctypes.c_int64(0), ts.ctypes.data,
                                  px.ctypes.data, 1)
        expected = -2**63 <= int(t) < 2**63 and float(p) > 0
        assert read == expected and (not read or (ts[0], px[0]) == (int(t), float(p))), (t, p)


def write_both_ways(series, path):
    """The bytes write_ticks writes with the compiled kernel and without it."""
    assert it.kernel_backend() == "c"
    it.write_ticks(series, path)
    compiled = path.read_bytes()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_kernel", None)
        assert it.kernel_backend() == "python"
        it.write_ticks(series, path)
    return compiled, path.read_bytes()


# Prices whose "%.17g" or float() is easy to get wrong: the ends of the
# double range, the edges of the exact writer's range [1e-6, 2**53) and of
# %g's exponent form (below 1e-4, at 1e17), and exact ties on the 17th digit
# (2**50 + 0.25 and 1307231931751.78125), which round to the even digit.
HARD_PRICES = [1e-5, 5e-324, 1e22, 1 / 3, float(np.nextafter(1.0, 2.0)), 1.7976931348623157e308,
               9.9999999999999991e-5, 1e-4, 1e16, 1e17, 1e-6, float(np.nextafter(1e-6, 1.0)),
               2.0 ** 53, 2.0 ** 53 - 1, 2.0 ** 50 + 0.25, 1307231931751.78125]
HARD_STAMPS = [-2**63, -1, 0, *range(1, len(HARD_PRICES) - 3), 2**63 - 1]
GBM_WALK = it.generate_gbm(it.GbmParams(s0=1.0, mu=0.0, sigma=0.01, dt_step=0.5,
                                        n_steps=50_000, seed=3))


@needs_cc
@pytest.mark.parametrize("series", [
    it.TickSeries(np.array(HARD_STAMPS), np.array(HARD_PRICES)),
    GBM_WALK,
    it.TickSeries(np.array([], dtype=np.int64), np.array([])),
], ids=["hard-prices", "gbm", "empty"])
def test_both_tick_writers_write_17g_bytes(tmp_path, series):
    compiled, python = write_both_ways(series, tmp_path / "ticks.csv")
    rows = "".join(f"{t},{format(p, '.17g')}\n"
                   for t, p in zip(series.timestamps.tolist(), series.prices.tolist()))
    assert compiled == python == f"{TICK_SCHEMA_COMMENT}\ntimestamp,price\n{rows}".encode()
    assert [p.name for p in tmp_path.iterdir()] == ["ticks.csv"]  # no temp file left


@needs_cc
def test_c_tick_writer_equals_17g_on_random_doubles(tmp_path):
    rng = np.random.default_rng(11)
    prices = np.concatenate([
        # every positive finite double, by its bits
        rng.integers(1, 0x7FF0000000000000, size=100_000).view(np.float64),
        # the exact writer's range, [1e-6, 2**53), and a little below it
        np.ldexp(rng.integers(2**52, 2**53, size=100_000).astype(float),
                 rng.integers(-73, 1, size=100_000)),
        # ties on the 17th digit: 16 digits and a quarter, 15 and an eighth
        rng.integers(10**15, 2**51, size=2_000) + rng.choice([0.25, 0.75], size=2_000),
        rng.integers(10**14, 2**49, size=2_000) + rng.integers(0, 8, size=2_000) / 8])
    it.write_ticks(it.TickSeries(np.arange(len(prices)), prices), tmp_path / "ticks.csv")
    lines = (tmp_path / "ticks.csv").read_text().splitlines()[2:]
    assert [line.split(",")[1] for line in lines] == [format(p, ".17g") for p in prices.tolist()]


@needs_cc
def test_c_tick_writer_resumes_after_a_full_buffer(tmp_path, monkeypatch):
    kernel = engine._load_kernel()
    calls = []

    def counting(*args):
        first = args[3].value
        size = kernel.format_ticks(*args)
        calls.append((first, args[3].value, size))
        return size

    monkeypatch.setattr(engine, "_kernel", kernel._replace(format_ticks=counting))
    monkeypatch.setattr(io, "_BLOCK_BYTES", 200)  # four to six rows a block
    walk = it.TickSeries(GBM_WALK.timestamps[:300], GBM_WALK.prices[:300])
    compiled, python = write_both_ways(walk, tmp_path / "ticks.csv")
    assert compiled == python
    assert len(calls) > 40 and all(0 < size <= 200 for _, _, size in calls)
    assert [first for first, _, _ in calls] == [0] + [after for _, after, _ in calls[:-1]]
    assert calls[-1][1] == len(walk)


@needs_cc
def test_both_tick_parsers_read_a_written_walk_alike(tmp_path):
    path = tmp_path / "ticks.csv"
    it.write_ticks(GBM_WALK, path)
    fast, slow, took_fast_path = parse_both_ways(path, has_header=True)
    assert took_fast_path and fast == slow
    assert fast[2] == GBM_WALK.timestamps.tobytes() and fast[4] == GBM_WALK.prices.tobytes()


def counting_parser(monkeypatch, name):
    """The row rooms that the kernel's parser ``name`` is called with, as it
    runs from now on, with first columns of three rows."""
    kernel, rooms = engine._load_kernel(), []

    def counting(*args):
        rooms.append(args[-1])
        return getattr(kernel, name)(*args)

    monkeypatch.setattr(engine, "_kernel", kernel._replace(**{name: counting}))
    monkeypatch.setattr(io, "_FIRST_ROWS", 3)
    return rooms


@needs_cc
@pytest.mark.parametrize("has_header", [False, True])
@pytest.mark.parametrize("body, calls", [
    (b"".join(b"%d,%r\n" % (t, p) for t, p in GBM_WALK[:200]), 2),  # sized once, at row 3
    (b"0,1.0000000000000002\n" * 3 + b"1,2\n" * 200, 4),  # shorter rows later: grows 3 times
    (b"0,1.0\n1,2.0\n2,3.0\n", 1),  # full at the end of the file: no growth
    (b"0,1.0\n1,2.0\n2,3.0\n3,4.0", 2),  # a last row without LF, given one, after a full block
], ids=["walk", "shorter-rows", "full-at-end", "no-final-lf"])
def test_fast_parser_grows_its_columns_mid_file(tmp_path, monkeypatch, has_header, body,
                                                calls):
    rooms = counting_parser(monkeypatch, "parse_ticks")
    path = tmp_path / "ticks.csv"
    path.write_bytes((b"timestamp,price\n" if has_header else b"") + body)
    fast, slow, took_fast_path = parse_both_ways(path, has_header)
    assert took_fast_path and fast == slow and fast[0] == "ok"
    assert rooms[0] == 3 and len(rooms) == calls


@needs_cc
def test_fast_parser_columns_hold_no_spare_rows(tmp_path, monkeypatch):
    # columns of three rows at first, each next one about twice the rows
    # so far, have spare rows where the file ends
    counting_parser(monkeypatch, "parse_ticks")
    path = tmp_path / "ticks.csv"
    path.write_bytes(b"".join(b"%d,%r\n" % (t, p) for t, p in GBM_WALK[:25]))
    series = it.parse_ticks(spec_for(path, timestamp_unit=it.TimestampUnit.NANOS))
    assert len(series) == 25
    for column in (series.timestamps, series.prices):
        assert column.flags.owndata and column.size == 25


COMMA_LOCALES = ["de_DE.UTF-8", "de_DE.utf8", "de_DE", "fr_FR.UTF-8", "fr_FR.utf8",
                 "fr_FR", "nl_NL.UTF-8", "ru_RU.UTF-8", "es_ES.UTF-8", "it_IT.UTF-8"]


def set_comma_decimal_locale(names):
    """Whether LC_NUMERIC could be set to one of ``names`` that writes 1.5 as 1,5."""
    for name in names:
        try:
            locale.setlocale(locale.LC_NUMERIC, name)
        except locale.Error:
            continue
        if locale.localeconv()["decimal_point"] == ",":
            return True
    return False


@pytest.fixture(scope="session")
def compiled_locales(tmp_path_factory):
    """A directory holding de_DE.UTF-8, compiled by localedef (about 2 s)."""
    source = Path(os.environ.get("I18NPATH", "/usr/share/i18n")) / "locales" / "de_DE"
    if shutil.which("localedef") is None or not source.is_file():
        pytest.skip("no comma-decimal locale installed, and localedef or its "
                    "de_DE source is missing")
    directory = tmp_path_factory.mktemp("locales")
    # localedef may exit non-zero for warnings alone; the locale is checked
    # when it is set
    subprocess.run(["localedef", "-i", "de_DE", "-f", "UTF-8",
                    str(directory / "de_DE.UTF-8")], capture_output=True, timeout=300)
    return directory


@pytest.fixture
def comma_decimal_locale(request, monkeypatch):
    """LC_NUMERIC set to a locale that writes 1.5 as 1,5: an installed one,
    else de_DE.UTF-8 compiled for the session and found through LOCPATH."""
    old = locale.setlocale(locale.LC_NUMERIC)
    try:
        if not set_comma_decimal_locale(COMMA_LOCALES):
            monkeypatch.setenv("LOCPATH", str(request.getfixturevalue("compiled_locales")))
            assert set_comma_decimal_locale(["de_DE.UTF-8"]), "the compiled locale does not load"
        yield
    finally:
        locale.setlocale(locale.LC_NUMERIC, old)


@needs_cc
def test_tick_io_ignores_a_comma_decimal_locale(tmp_path, comma_decimal_locale):
    prices = [p for p in HARD_PRICES if p != 5e-324]  # subnormal: the parser leaves it
    series = it.TickSeries(np.arange(len(prices)), np.array(prices))
    path = tmp_path / "ticks.csv"
    compiled, python = write_both_ways(series, path)
    assert compiled == python and b"1.0000000000000002\n" in compiled
    fast, slow, took_fast_path = parse_both_ways(path, has_header=True)
    assert took_fast_path and fast == slow and fast[4] == series.prices.tobytes()


def test_write_events_empty_csv_is_header_only(tmp_path):
    path = tmp_path / "events.csv"
    it.write_events([], path, CSV)
    lines = path.read_text().splitlines()
    assert lines == [EVENT_SCHEMA_COMMENT,
                     "kind,direction,timestamp_ns,price,delta,clock_index"]
    assert it.read_events(path, CSV) == []


@pytest.mark.parametrize("content", ["", EVENT_SCHEMA_COMMENT + "\n\n"])
def test_event_csv_without_data_lines_reads_empty(tmp_path, content):
    path = tmp_path / "events.csv"
    path.write_text(content)
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


numpy_float_event_lists = event_lists.map(lambda events: [
    ev._replace(price=np.float64(ev.price), delta=np.float64(ev.delta))
    for ev in events])


def expected_event_lines(events, fmt):
    records = [{"kind": ev.kind.value,
                "direction": "up" if ev.direction is it.Mode.UP else "down",
                "timestamp_ns": ev.timestamp, "price": ev.price, "delta": ev.delta,
                "clock_index": ev.clock_index} for ev in events]
    if fmt is JSONL:
        return [json.dumps(r, separators=(",", ":")) for r in records]
    return [EVENT_SCHEMA_COMMENT, ",".join(EVENT_FIELDS)] + [
        ",".join(format(v, ".17g") if isinstance(v, float) else str(v)
                 for v in r.values()) for r in records]


@given(st.one_of(event_lists, numpy_float_event_lists), st.sampled_from([CSV, JSONL]))
@settings(max_examples=120)
def test_event_file_bytes_match_json_dumps_and_17g(tmp_path_factory, events, fmt):
    path = tmp_path_factory.mktemp("bytes") / f"events.{fmt.value}"
    it.write_events(events, path, fmt)
    lines = expected_event_lines(events, fmt)
    assert path.read_bytes() == "".join(line + "\n" for line in lines).encode()


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


def test_write_ticks_takes_what_as_tick_series_takes(tmp_path):
    pairs = [(0, 1.0), (1, 2.0), (5, 1.5)]
    it.write_ticks(pairs, tmp_path / "pairs.csv")
    it.write_ticks([it.Tick(*pair) for pair in pairs], tmp_path / "ticks.csv")
    it.write_ticks(it.as_tick_series(pairs), tmp_path / "series.csv")
    written = {p.read_bytes() for p in tmp_path.iterdir()}
    assert written == {f"{TICK_SCHEMA_COMMENT}\ntimestamp,price\n0,1\n1,2\n5,1.5\n".encode()}
    with pytest.raises(it.DomainError):
        it.write_ticks([(0, 1.0), (1, -2.0)], tmp_path / "negative.csv")
    with pytest.raises(it.OrderingError):
        it.write_ticks([(1, 1.0), (0, 2.0)], tmp_path / "unordered.csv")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pairs.csv", "series.csv",
                                                         "ticks.csv"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo")
@pytest.mark.parametrize("newline", [b"\n", b"\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("kind", ["ticks", "events"])
def test_a_pipe_reads_as_the_regular_file_does(tmp_path, monkeypatch, kind, newline):
    # A pipe cannot seek, so it is read whole first. With the kernel, an LF
    # file is read by the C parser and a CRLF file by the Python row loop.
    walk, path = GBM_WALK[:5000], tmp_path / "file.csv"
    if kind == "ticks":
        it.write_ticks(walk, path)
        read, row_loop = (lambda p: it.parse_ticks(it.TickFileSpec(p))), "_parse_tick_rows"
    else:
        it.write_events(it.process(walk, it.ThresholdConfig(0.002)), path)
        read, row_loop = it.read_events, "_read_event_rows"
    path.write_bytes(path.read_bytes().replace(b"\n", newline))
    assert path.stat().st_size > 1 << 16  # more than a pipe's buffer
    loops, rows = [], getattr(io, row_loop)
    monkeypatch.setattr(io, row_loop, lambda *args: loops.append(1) or rows(*args))
    expected = read(path)
    assert read_through_a_fifo(path, read) == expected
    assert len(loops) == 2 * (newline == b"\r\n" or it.kernel_backend() == "python")


EVENT_CSV_HEAD = f"{EVENT_SCHEMA_COMMENT}\n{','.join(EVENT_FIELDS)}\n"
GOOD_JSONL = ('{"kind":"DC","direction":"up","timestamp_ns":1,"price":1.5,'
              '"delta":0.01,"clock_index":0}\n')


@pytest.mark.parametrize("fmt,content,bad_row", [
    (CSV, EVENT_CSV_HEAD + "DC,sideways,1,1.5,0.01,0\n", 3),
    (CSV, EVENT_CSV_HEAD + "DC,up,1,1.5,0.01,0\nOS,UP,2,1.6,0.01,1\n", 4),
    (CSV, EVENT_CSV_HEAD + "DC,up,1.7,1.5,0.01,0\n", 3),
    (JSONL, GOOD_JSONL.replace('"up"', '"sideways"'), 1),
    (JSONL, GOOD_JSONL + "[1,2]\n", 2),
    (JSONL, GOOD_JSONL + "null\n", 2),
    (JSONL, GOOD_JSONL.replace('"timestamp_ns":1', '"timestamp_ns":1.7'), 1),
    (JSONL, GOOD_JSONL.replace('"clock_index":0', '"clock_index":0.0'), 1),
    (JSONL, GOOD_JSONL.replace('"timestamp_ns":1', '"timestamp_ns":true'), 1),
    (JSONL, GOOD_JSONL.replace('"price":1.5', '"price":null'), 1),
    (CSV, EVENT_CSV_HEAD + "DC,up,1,nan,0.01,0\n", 3),
    (CSV, EVENT_CSV_HEAD + "DC,up,1,1.5,0.01,0\nOS,up,2,-5,0.01,1\n", 4),
    (CSV, EVENT_CSV_HEAD + "DC,up,1,1.5,7,0\n", 3),
    (JSONL, GOOD_JSONL.replace('"price":1.5', '"price":NaN'), 1),
    (JSONL, GOOD_JSONL + GOOD_JSONL.replace('"delta":0.01', '"delta":Infinity'), 2),
    (JSONL, GOOD_JSONL.replace('"price":1.5', '"price":true'), 1),
    (JSONL, GOOD_JSONL + GOOD_JSONL.replace('"delta":0.01', '"delta":"0.01"'), 2),
    (JSONL, GOOD_JSONL.replace('"price":1.5', '"price":1' + "0" * 400), 1),
    (CSV, EVENT_CSV_HEAD + f"DC,up,{10**23},1.5,0.01,0\n", 3),
    (JSONL, GOOD_JSONL.replace('"timestamp_ns":1', f'"timestamp_ns":{10**23}'), 1),
    (CSV, EVENT_CSV_HEAD + "DC,up,1,1.5,0.01,-3\n", 3),
    (CSV, EVENT_CSV_HEAD + "DC,up,1,1.5,0.01,0\n\n# comment\nOS,up,2,-5,0.01,1\n", 6),
    (JSONL, GOOD_JSONL + "# comment\n", 2),
    (CSV, EVENT_CSV_HEAD + "DC,up,1,1.5,0.01\n", 3),
    (CSV, EVENT_CSV_HEAD + "DC,up,1,1.5,0.01,0\nOS,up,2,1.6,0.01,1,9\n", 4),
    (CSV, EVENT_SCHEMA_COMMENT + "\nDC,up,1,1.5,0.01,0\nOS,up,2,1.6,0.01,1\n", 2),
    (CSV, "\nkind,direction,timestamp_ns,price,delta\n", 2),
], ids=["csv-sideways", "csv-UP", "csv-float-ts", "jsonl-sideways", "jsonl-array",
        "jsonl-null", "jsonl-float-ts", "jsonl-float-clock", "jsonl-bool-ts",
        "jsonl-null-price", "csv-nan-price", "csv-negative-price", "csv-delta-7",
        "jsonl-nan-price", "jsonl-infinite-delta", "jsonl-bool-price",
        "jsonl-string-delta", "jsonl-overflowing-price", "csv-int64-overflow-ts",
        "jsonl-int64-overflow-ts", "csv-negative-clock", "csv-row-after-blank-and-comment",
        "jsonl-comment", "csv-5-fields", "csv-7-fields", "csv-headerless",
        "csv-wrong-header"])
def test_read_events_rejects_malformed_rows(tmp_path, fmt, content, bad_row):
    path = tmp_path / f"events.{fmt.value}"
    path.write_text(content)
    with pytest.raises(it.IngestionError) as err:
        it.read_events(path, fmt)
    assert err.value.row == bad_row


@pytest.mark.parametrize("fmt", [CSV, JSONL])
def test_write_events_writes_whole_numbers_as_ints(tmp_path, fmt):
    good = it.IntrinsicEvent(it.EventKind.DIRECTIONAL_CHANGE, it.Mode.UP, 2, 1.5, 0.01, 0)
    events = [good._replace(timestamp=2.0, clock_index=np.int64(0)),
              good._replace(timestamp=np.int64(2), clock_index=1.0),
              good._replace(timestamp=np.float64(2.0), clock_index=True)]
    ints = [good._replace(clock_index=c) for c in (0, 1, 1)]
    it.write_events(events, tmp_path / "events", fmt)
    it.write_events(ints, tmp_path / "ints", fmt)
    assert (tmp_path / "events").read_bytes() == (tmp_path / "ints").read_bytes()
    assert it.read_events(tmp_path / "events", fmt) == ints


def test_write_to_unwritable_path_raises():
    ev = []
    with pytest.raises(it.WriteError):
        it.write_events(ev, "/no/such/dir/out.csv", CSV)


@pytest.mark.parametrize("error, raised", [(RuntimeError, RuntimeError),
                                           (OSError, it.WriteError)])
def test_a_failed_streamed_write_keeps_the_old_file(tmp_path, error, raised):
    path = tmp_path / "events.csv"
    path.write_bytes(b"old bytes\n")
    while_writing = []

    def blocks():
        yield b"new bytes\n"
        while_writing.extend(p.name for p in tmp_path.iterdir())
        raise error("the second block failed")

    with pytest.raises(raised, match="the second block failed"):
        io._atomic_write(path, blocks())
    assert len(while_writing) == 2 and while_writing.count(path.name) == 1
    assert path.read_bytes() == b"old bytes\n"
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("fmt", [CSV, JSONL])
def test_write_events_refuses_nan_price_before_writing(tmp_path, fmt):
    good = it.IntrinsicEvent(it.EventKind.DIRECTIONAL_CHANGE, it.Mode.UP, 1, 1.5, 0.01, 0)
    for bad in (good._replace(price=float("nan"), clock_index=1),
                good._replace(timestamp=10**23, clock_index=1),
                good._replace(timestamp=1.5, clock_index=1),
                good._replace(timestamp=float("nan"), clock_index=1),
                good._replace(timestamp="2", clock_index=1),
                good._replace(clock_index=1.5),
                good._replace(clock_index=-1),
                good._replace(kind="DC", clock_index=1),
                good._replace(direction="up", clock_index=1),
                good._replace(direction=None, clock_index=1)):
        with pytest.raises(it.DomainError, match="event 1"):
            it.write_events([good, bad], tmp_path / f"events.{fmt.value}", fmt)
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fmt", [CSV, JSONL])
@pytest.mark.parametrize("field, value, message", [
    ("price", "1.5", "price '1.5' is not positive and finite"),
    ("price", None, "price None is not positive and finite"),
    ("delta", "0.01", "delta '0.01' is not in (0, 1)"),
    ("delta", None, "delta None is not in (0, 1)"),
    ("price", True, "price True is not positive and finite"),
    pytest.param("price", np.True_, f"price {np.True_!r} is not positive and finite",
                 id="price-numpy-bool"),
    pytest.param("price", np.array([1.0, 2.0]),
                 "price array([1., 2.]) is not positive and finite", id="price-array"),
    pytest.param("price", 10**400, f"price {10**400} is not positive and finite",
                 id="price-int-past-float")])
def test_write_events_refuses_a_price_or_delta_that_is_not_a_number(tmp_path, fmt, field,
                                                                     value, message):
    good = it.IntrinsicEvent(it.EventKind.DIRECTIONAL_CHANGE, it.Mode.UP, 1, 1.5, 0.01, 0)
    bad = good._replace(clock_index=1, **{field: value})
    with pytest.raises(it.DomainError, match=re.escape(f"event 1: {message}")):
        it.write_events([good, bad], tmp_path / f"events.{fmt.value}", fmt)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_files_follow_the_umask(tmp_path, umask, mode):
    series = it.generate_random_walk(1.0, 0.01, 50, seed=1)
    old = os.umask(umask)
    try:
        it.write_ticks(series, tmp_path / "ticks.csv")
        it.write_events(it.process(series, it.ThresholdConfig(0.01)), tmp_path / "events.csv")
        assert cli_main(["transform", "--in", str(tmp_path / "ticks.csv"), "--deltas",
                         "0.01,0.02", "--format", "jsonl",
                         "--out-dir", str(tmp_path / "out")]) == 0
    finally:
        os.umask(old)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.rglob("*")
             if p.is_file()}
    assert modes == dict.fromkeys(["ticks.csv", "events.csv", "events_delta_0.01.jsonl",
                                   "events_delta_0.02.jsonl", "summary.csv"], mode)


# ---------------------------------------------------------------------------
# event files in C: the compiled reader against the Python row loop
# ---------------------------------------------------------------------------

# strtod reports ERANGE below the smallest normal double and int_field
# refuses past int64, so a subnormal price or delta or a clock index past
# int64 sends its file to the row loop; the writers below write none
NORMAL_PRICES = st.floats(min_value=np.finfo(np.float64).tiny,
                          max_value=np.finfo(np.float64).max)
NORMAL_DELTAS = st.floats(min_value=np.finfo(np.float64).tiny, max_value=1.0,
                          exclude_max=True)
INT64 = st.integers(-2**63, 2**63 - 1)

wide_event_lists = st.lists(st.builds(
    it.IntrinsicEvent,
    kind=st.sampled_from(list(it.EventKind)),
    direction=st.sampled_from([it.Mode.UP, it.Mode.DOWN]),
    timestamp=INT64, price=NORMAL_PRICES, delta=NORMAL_DELTAS,
    clock_index=st.integers(0, 2**63 - 1)), max_size=25)


@st.composite
def event_arrays(draw):
    n = draw(st.integers(0, 25))

    def column(elements, dtype):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)), dtype=dtype)

    prices = column(NORMAL_PRICES, np.float64)
    config = it.ThresholdConfig(draw(NORMAL_DELTAS),
                                draw(st.sampled_from(list(it.MoveConvention))))
    return it.EventArrays(column(st.sampled_from([0, 1]), np.int8),
                          column(st.sampled_from([1, -1]), np.int8),
                          column(INT64, np.int64), prices, prices, config)


# (writer, its input, the events read_events should give back)
event_writes = st.one_of(
    wide_event_lists.map(lambda events: (it.write_events, events, events)),
    event_arrays().map(lambda arrays: (io._write_event_arrays, arrays,
                                       it.events_from_arrays(arrays))))


def read_outcome(path, fmt):
    """What read_events gives: the repr of its events (exact, and naming
    every value's type), or its error's row and text."""
    try:
        events = it.read_events(path, fmt)
    except it.IngestionError as exc:
        return "error", exc.row, str(exc)
    return "ok", repr(events)


def read_both_ways(path, fmt):
    """``(compiled, row loop, took the fast path)`` outcomes of read_events,
    counted and switched as in ``parse_both_ways``."""
    assert it.kernel_backend() == "c"
    loop_calls = []
    row_loop = io._read_event_rows

    def counting(*args):
        loop_calls.append(args)
        return row_loop(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(io, "_read_event_rows", counting)
        fast = read_outcome(path, fmt)
        took_fast_path = not loop_calls
        mp.setattr(engine, "_kernel", None)
        assert it.kernel_backend() == "python"
        slow = read_outcome(path, fmt)
    assert len(loop_calls) == 1 + (not took_fast_path)
    return fast, slow, took_fast_path


@needs_cc
@given(event_writes, st.sampled_from([CSV, JSONL]), st.booleans())
@settings(max_examples=150)
def test_fast_event_reader_takes_written_files_and_equals_row_loop(
        tmp_path_factory, write, fmt, final_newline):
    writer, data, expected = write
    path = tmp_path_factory.mktemp("written") / f"events.{fmt.value}"
    writer(data, path, fmt)
    if not final_newline:  # the C reader gets a LF after the last row
        path.write_bytes(path.read_bytes().removesuffix(b"\n"))
    fast, slow, took_fast_path = read_both_ways(path, fmt)
    assert took_fast_path
    assert fast == slow == ("ok", repr(expected))


@needs_cc
@pytest.mark.parametrize("fmt", [CSV, JSONL])
@pytest.mark.parametrize("final_newline", [True, False])
def test_fast_event_reader_grows_its_columns_mid_file(tmp_path, monkeypatch, fmt,
                                                      final_newline):
    events = it.process(GBM_WALK[:5000], it.ThresholdConfig(0.02))
    path = tmp_path / f"events.{fmt.value}"
    it.write_events(events, path, fmt)
    if not final_newline:
        path.write_bytes(path.read_bytes().removesuffix(b"\n"))
    rooms = counting_parser(monkeypatch, "parse_events")
    fast, slow, took_fast_path = read_both_ways(path, fmt)
    assert took_fast_path and fast == slow == ("ok", repr(events))
    assert rooms[0] == 3 and len(rooms) >= 2 and len(events) > 20


def set_event_field(name, text):
    """Write ``text`` as the raw value of field ``name`` in either format."""
    index = EVENT_FIELDS.index(name)

    def mutate(fmt, lines, k):
        if fmt is CSV:
            fields = lines[k].split(",")
            fields[index] = text
            lines[k] = ",".join(fields)
        else:
            lines[k] = re.sub(f'"{name}":[^,}}]*', lambda _: f'"{name}":{text}', lines[k])
    return mutate


def set_event_word(name, word):
    """``word`` as field ``name``: bare in CSV, a JSON string in JSONL."""
    def mutate(fmt, lines, k):
        set_event_field(name, word if fmt is CSV else f'"{word}"')(fmt, lines, k)
    return mutate


def reorder_keys(fmt, lines, k):  # in CSV, the price and delta trade places
    if fmt is CSV:
        fields = lines[k].split(",")
        fields[3], fields[4] = fields[4], fields[3]
        lines[k] = ",".join(fields)
    else:
        obj = json.loads(lines[k])
        lines[k] = "{" + ",".join(f'"{key}":{json.dumps(obj[key])}'
                                  for key in reversed(obj)) + "}"


def space_after_separators(fmt, lines, k):
    lines[k] = lines[k].replace(",", ", ") if fmt is CSV else lines[k].replace(":", ": ")


def wrong_csv_header(fmt, lines, k):  # a JSONL file gets it as its first line
    if fmt is CSV:
        lines[1] = "kind,direction,timestamp_ns,price,delta"
    else:
        lines.insert(0, ",".join(EVENT_FIELDS))


def drop_final_newline(fmt, lines, k):
    lines.pop()  # the empty text after the last LF


EVENT_NUMBER_TEXTS = ["007", "-0", "+5", "1E5", ".5", "5.", "5e-324", "1e400", "nan",
                      "NaN", "Infinity", "true", '"0.01"', "0", "1", "0.5", "-1.5e-3"]
EVENT_MUTATIONS = {
    **{f"{name} {text}": set_event_field(name, text)
       for name in ("timestamp_ns", "price", "delta", "clock_index")
       for text in EVENT_NUMBER_TEXTS},
    **{f"clock_index {c}": set_event_field("clock_index", str(c)) for c in (2**63 - 1, 2**63)},
    **{f"timestamp_ns {t}": set_event_field("timestamp_ns", str(t))
       for t in (-2**63 - 1, -2**63, 2**63 - 1, 2**63)},
    **{f"{name} {word!r}": set_event_word(name, word) for name, word in [
        ("kind", "OS"), ("kind", "dc"), ("kind", "D\\u0043"), ("kind", "DC "),
        ("direction", "down"), ("direction", "UP"), ("direction", "u\\u0070")]},
    "CRLF": lambda fmt, lines, k: lines.__setitem__(k, lines[k] + "\r"),
    "blank line after the row": lambda fmt, lines, k: lines.insert(k + 1, ""),
    "comment after the row": lambda fmt, lines, k: lines.insert(k + 1, "# mid"),
    "blank line before the rows": lambda fmt, lines, k: lines.insert(2 if fmt is CSV else 0, ""),
    "comment with a break before the rows":
        lambda fmt, lines, k: lines.insert(0, "# a\x85b"),
    "keys reordered": reorder_keys,
    "spaces after the separators": space_after_separators,
    "wrong CSV header": wrong_csv_header,
    "no final LF": drop_final_newline,
    "invalid UTF-8 in the row": lambda fmt, lines, k: lines.__setitem__(k, lines[k] + "\udcff"),
}


@needs_cc
@given(event_writes.filter(lambda write: len(write[2]) > 0), st.sampled_from([CSV, JSONL]),
       st.sampled_from(sorted(EVENT_MUTATIONS)), st.data())
@settings(max_examples=500)
def test_fast_event_reader_equals_row_loop_on_mutated_files(
        tmp_path_factory, write, fmt, mutation, data):
    writer, events, _ = write
    path = tmp_path_factory.mktemp("mutated") / f"events.{fmt.value}"
    writer(events, path, fmt)
    lines = path.read_text().split("\n")
    first = 2 if fmt is CSV else 0  # CSV files start with the schema comment and header
    EVENT_MUTATIONS[mutation](fmt, lines, data.draw(st.integers(first, len(lines) - 2)))
    path.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape"))
    fast, slow, _ = read_both_ways(path, fmt)
    assert fast == slow


EVENT_JSONL_ROW = ('{{"kind":"{}","direction":"up","timestamp_ns":{},"price":{},'
                   '"delta":{},"clock_index":{}}}\n')


def event_file(fmt, *rows):
    """An event file with rows of (kind, timestamp, price, delta, clock) texts."""
    if fmt is CSV:
        return EVENT_CSV_HEAD + "".join(f"{k},up,{t},{p},{d},{c}\n" for k, t, p, d, c in rows)
    return "".join(EVENT_JSONL_ROW.format(*row) for row in rows)


@needs_cc
@pytest.mark.parametrize("fmt", [CSV, JSONL])
@pytest.mark.parametrize("row, taken", [
    (("DC", 1, 1.5, 0.01, 0), True),
    (("OS", -2**63, 1e-5, 0.5, 2**63 - 1), True),
    (("DC", 2**63 - 1, 1e+22, 1e-300, 7), True),
    (("DC", 1, 100, 0.25, 0), True),
    (("DC", 1, "2.5E+3", "1E-2", 0), True),
    (("DC", "-0", 1.5, 0.01, 0), True),
    (("DC", "007", 1.5, 0.01, 0), False),
    (("DC", 1, 1.5, 0.01, "007"), False),
    (("DC", 1, "01.5", 0.01, 0), False),
    (("DC", 1, 1.5, 0.01, "-0"), False),
    (("DC", 1, 1.5, 0.01, 2**63), False),
    (("DC", 2**63, 1.5, 0.01, 0), False),
    (("DC", 1, "5e-324", 0.01, 0), False),
    (("DC", 1, 1.5, "5e-324", 0), False),
    (("DC", 1, "1e400", 0.01, 0), False),
    (("DC", 1, 1.5, 1, 0), False),
    (("DC", 1, "-1.5", 0.01, 0), False),
    (("DC", 1, ".5", 0.01, 0), False),
    (("DC", 1, "5.", 0.01, 0), False),
    (("XX", 1, 1.5, 0.01, 0), False),
])
def test_fast_event_reader_takes_exactly_its_grammar(tmp_path, fmt, row, taken):
    path = tmp_path / f"events.{fmt.value}"
    path.write_text(event_file(fmt, ("OS", 0, 1.25, 0.01, 0), row))
    fast, slow, took_fast_path = read_both_ways(path, fmt)
    assert fast == slow
    assert took_fast_path == taken


@needs_cc
@pytest.mark.parametrize("fmt", [CSV, JSONL])
@pytest.mark.parametrize("before, between, after, comment", [
    ("\n", "", "", False),  # a blank line between the header and the first row
    ("", "\n", "", False),
    ("", " \t\n", "\n\n", False),
    ("", "# mid\n", "", True),
    ("", "", "# end", True),
])
def test_fast_event_reader_skips_blank_lines_and_csv_comments_anywhere(
        tmp_path, fmt, before, between, after, comment):
    path = tmp_path / f"events.{fmt.value}"
    head = EVENT_CSV_HEAD if fmt is CSV else ""
    first, second = (event_file(fmt, row)[len(head):]
                     for row in (("OS", 0, 1.25, 0.01, 0), ("DC", 1, 1.5, 0.01, 1)))
    path.write_text(head + before + first + between + second + after)
    fast, slow, took_fast_path = read_both_ways(path, fmt)
    assert fast == slow
    assert took_fast_path == (fmt is CSV or not comment)  # JSON Lines has no comments


# Texts read exactly in integer arithmetic, and texts next to them that go
# to strtod: exact ties between two doubles, written out in full; just past
# a tie, by less than the quotient's last bit (only the remainder, as the
# sticky bit, tells); 19 and 20 digits, and 2**64 - 1 and past it; 22 and 23
# digits after the point; leading zeros; %g's layout edges written both ways.
CODEC_TEXTS = [
    "9007199254740993", "9007199254740995", "4503599627370496.5", "4503599627370497.5",
    "2251799813685248.25", "1125899906842624.125", "1125899906842624.375",
    "1.00000000000000011102230246251565404236316680908203125",
    "1.197005600543192494", "0.005036796303984159094", "6815.365195739121646",
    "1234567890.123456789", "9999999999999999999", "12345678901234567890",
    "18446744073709551614", "18446744073709551615", "18446744073709551616",
    "0.0001234567890123456789", "0.1234567890123456789012", "0.0000000000000000000001",
    "0.00000000000000000000001", "0.0000001", "0.000000000000000000000000000001", "0.000",
    "0.00001", "0.000099999999999999991", "9.9999999999999991e-5", "1e16",
    "10000000000000000", "1e17", "100000000000000000"]


@needs_cc
@pytest.mark.parametrize("fmt", [CSV, JSONL])
@pytest.mark.parametrize("ts, text, taken", [
    (1, "1e-5", True), (1, "2.5E+3", True), (1, ".5", False), (1, "1.", False),
    (1, "007", False), (1, "-0", False), (1, "+5", False), (1, "5e-324", False),
    (1, "1e400", False), ("-0", "1.5", True), (-2**63, "1.5", True), (2**63 - 1, "1.5", True),
    (2**63, "1.5", False), (-2**63 - 1, "1.5", False)]
    + [(1, text, float(text) > 0) for text in CODEC_TEXTS])
def test_tick_and_event_prices_share_one_grammar(tmp_path, fmt, ts, text, taken):
    ticks = tmp_path / "ticks.csv"
    ticks.write_text(f"{ts},1.25\n{ts},{text}\n")
    tick_fast, tick_slow, tick_taken = parse_both_ways(ticks)
    events = tmp_path / f"events.{fmt.value}"
    events.write_text(event_file(fmt, ("OS", ts, 1.25, 0.01, 0), ("DC", ts, text, 0.01, 1)))
    event_fast, event_slow, event_taken = read_both_ways(events, fmt)
    assert tick_fast == tick_slow and event_fast == event_slow
    assert tick_taken == event_taken == taken


@needs_cc
@pytest.mark.parametrize("fmt", [CSV, JSONL])
def test_event_files_written_by_transform_take_the_c_path(tmp_path, fmt):
    walk = it.generate_random_walk(1.0, 0.004, 3000, seed=13)
    it.write_ticks(walk, tmp_path / "ticks.csv")
    assert cli_main(["transform", "--in", str(tmp_path / "ticks.csv"), "--deltas",
                     "0.002,0.005,0.01", "--convention", "log", "--format", fmt.value,
                     "--out-dir", str(tmp_path / "out")]) == 0
    paths = sorted((tmp_path / "out").glob(f"events_delta_*.{fmt.value}"))
    assert len(paths) == 3
    for path in paths:
        fast, slow, took_fast_path = read_both_ways(path, fmt)
        assert took_fast_path and fast == slow and fast[0] == "ok"


@needs_cc
def test_event_reader_ignores_a_comma_decimal_locale(tmp_path, comma_decimal_locale):
    events = [it.IntrinsicEvent(it.EventKind.OVERSHOOT, it.Mode.DOWN, i, price, 0.015625, i)
              for i, price in enumerate(p for p in HARD_PRICES if p != 5e-324)]
    for fmt in (CSV, JSONL):
        path = tmp_path / f"events.{fmt.value}"
        it.write_events(events, path, fmt)
        fast, slow, took_fast_path = read_both_ways(path, fmt)
        assert took_fast_path and fast == slow == ("ok", repr(events))


@pytest.mark.parametrize("fmt", [CSV, JSONL])
def test_read_events_without_the_kernel_reads_the_same_events(tmp_path, monkeypatch, fmt):
    walk = it.generate_random_walk(1.0, 0.004, 2000, seed=13)
    events = it.process(walk, it.ThresholdConfig(0.005))
    path = tmp_path / f"events.{fmt.value}"
    it.write_events(events, path, fmt)
    loaded = it.read_events(path, fmt)
    monkeypatch.setattr(engine, "_kernel", None)
    assert it.kernel_backend() == "python"
    assert it.read_events(path, fmt) == loaded == events


# Every field of every event is this type: a tuple compares an np.int64 or an
# np.float64 equal to the int or float, so == alone would not show one.
EVENT_FIELD_TYPES = [it.EventKind, it.Mode, int, float, float, int]


@needs_cc
@pytest.mark.parametrize("convention", [it.MoveConvention.RELATIVE,
                                        it.MoveConvention.LOG_RETURN])
def test_every_edge_builds_the_same_events_of_python_values(tmp_path, monkeypatch,
                                                            convention):
    walk = it.generate_random_walk(1.0, 0.01, 3000, seed=8)
    config = it.ThresholdConfig(0.002, convention)
    ticks = [it.Tick(t, p) for t, p in zip(walk.timestamps.tolist(), walk.prices.tolist())]
    state = it.new_runner(config, ticks[0])
    folded = []
    for tick in ticks[1:]:
        state, events = it.step(state, tick, config)
        folded.extend(events)
    edges = {"process": it.process(walk, config),
             "run_grid": it.run_grid(walk, [0.001, 0.002], convention)[1][1],
             "events_from_arrays": it.events_from_arrays(it.process_arrays(walk, config)),
             "step": folded}
    loop_calls = []
    row_loop = io._read_event_rows
    monkeypatch.setattr(io, "_read_event_rows",
                        lambda *args: loop_calls.append(args) or row_loop(*args))
    for fmt in (CSV, JSONL):
        path = tmp_path / f"events.{fmt.value}"
        it.write_events(folded, path, fmt)
        edges[f"read_events {fmt.value}, C"] = it.read_events(path, fmt)
        assert not loop_calls
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        edges[f"read_events {fmt.value}, row loop"] = it.read_events(path, fmt)
        assert len(loop_calls) == 1
        loop_calls.clear()
    assert len(folded) > 1000
    for edge, events in edges.items():
        assert events == folded, edge
        for event in events:
            assert type(event) is it.IntrinsicEvent, edge
            assert [type(value) for value in event] == EVENT_FIELD_TYPES, (edge, event)


# ---------------------------------------------------------------------------
# files read one block at a time: any block size gives the row loop's result
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def blocks_of(block, path):
    """Files read ``block`` bytes at a time (``path``'s exact size for None),
    into first columns of three rows, so that they grow mid-file."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(io, "_BLOCK_BYTES", block or max(path.stat().st_size, 1))
        mp.setattr(io, "_FIRST_ROWS", 3)
        yield


BLOCK_SIZES = [1, 7, 64, None]  # None: the file's exact size, which ends at a block end
LONG_COMMENT = "# " + "a comment longer than a block, é " * 3
LONG_PRICE = "1." + "0" * 80 + "1"  # a row longer than a block
WALK_ROWS = "".join(f"{t},{p!r}\n" for t, p in GBM_WALK[:40])
# (lines before the header, header, rows, whether the C parser reads the file)
TICK_BLOCK_CASES = {
    "comments longer than a block": (f"{LONG_COMMENT}\n\n#\n", True, WALK_ROWS, True),
    "a row longer than a block": ("", False, f"0,1.5\n1,{LONG_PRICE}\n2,2\n", True),
    "a walk": ("", True, WALK_ROWS, True),
    "no final LF": ("", False, WALK_ROWS + f"{2**62},3.25", True),
    "a comment without LF after the rows": ("", False, WALK_ROWS + "# end", True),
    "a blank line after a row": ("", False, "0,1.5\n\n1,2.5\n", True),
    "a comment between rows": ("", False, "0,1.5\n1,2.5\n# mid\n2,3.5\n", True),
    "a backwards row": ("", False, WALK_ROWS + "0,1.5\n", False),
    "a row with a space": ("# c\n", True, "0,1.5\n1, 2.5\n", False),
    "CRLF": ("", True, WALK_ROWS.replace("\n", "\r\n"), False),
    "invalid UTF-8 after the rows": ("", False, "0,1.5\n1,2.5\n# \udcff\n", False),
}


@needs_cc
@pytest.mark.parametrize("block", BLOCK_SIZES)
@pytest.mark.parametrize("case", sorted(TICK_BLOCK_CASES))
def test_tick_files_read_in_blocks_equal_the_row_loop(tmp_path, case, block):
    before, has_header, rows, taken = TICK_BLOCK_CASES[case]
    path = tmp_path / "ticks.csv"
    text = before + ("timestamp,price\n" if has_header else "") + rows
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    with blocks_of(block, path):
        fast, slow, took_fast_path = parse_both_ways(path, has_header)
    assert fast == slow and took_fast_path == taken


def event_block_cases(fmt):
    """(file text, whether the C parser reads the file) by case name."""
    events = it.process(GBM_WALK[:5000], it.ThresholdConfig(0.02))[:30]
    rows = io._event_rows([(e.kind.value, e.direction.name.lower(), *e[2:]) for e in events],
                          fmt)
    head = EVENT_CSV_HEAD if fmt is CSV else ""
    long_row = event_file(fmt, ("OS", 7, LONG_PRICE, 0.01, 3))[len(head):]
    return {
        "a head longer than a block": (
            (f"{LONG_COMMENT}\n" + head if fmt is CSV else "\n" * 70) + rows, True),
        "a row longer than a block": (head + rows + long_row, True),
        "rows": (head + rows, True),
        "no final LF": (head + rows[:-1], True),
        "a blank line after a row": (head + rows + "\n" + long_row, True),
        "a comment after the rows": (head + rows + "# end\n", fmt is CSV),
        "a bad row": (head + rows + long_row.replace("OS", "XX"), False),
        "CRLF": (head + rows.replace("\n", "\r\n"), False),
    }


@needs_cc
@pytest.mark.parametrize("block", BLOCK_SIZES)
@pytest.mark.parametrize("fmt", [CSV, JSONL])
@pytest.mark.parametrize("case", sorted(event_block_cases(CSV)))
def test_event_files_read_in_blocks_equal_the_row_loop(tmp_path, case, fmt, block):
    text, taken = event_block_cases(fmt)[case]
    path = tmp_path / f"events.{fmt.value}"
    path.write_text(text)
    with blocks_of(block, path):
        fast, slow, took_fast_path = read_both_ways(path, fmt)
    assert fast == slow and took_fast_path == taken


@needs_cc
@given(tick_texts(), st.one_of(st.none(), st.sampled_from(sorted(MUTATIONS))),
       st.integers(1, 80), st.booleans(), st.data())
@settings(max_examples=200)
def test_any_block_size_reads_tick_files_as_the_row_loop(tmp_path_factory, text, mutation,
                                                         block, allow_unordered, data):
    prefix, has_header, rows, final_newline = text
    if mutation and rows:
        MUTATIONS[mutation](prefix, rows, data.draw(st.integers(0, len(rows) - 1)))
    path = tmp_path_factory.mktemp("blocks") / "ticks.csv"
    path.write_bytes(render(prefix, has_header, rows, final_newline))
    with blocks_of(block, path):
        fast, slow, took_fast_path = parse_both_ways(path, has_header, allow_unordered)
    assert fast == slow
    assert took_fast_path or mutation


@needs_cc
@given(event_writes, st.sampled_from([CSV, JSONL]),
       st.one_of(st.none(), st.sampled_from(sorted(EVENT_MUTATIONS))), st.integers(1, 200),
       st.data())
@settings(max_examples=200)
def test_any_block_size_reads_event_files_as_the_row_loop(tmp_path_factory, write, fmt,
                                                          mutation, block, data):
    writer, events, expected = write
    path = tmp_path_factory.mktemp("blocks") / f"events.{fmt.value}"
    writer(events, path, fmt)
    lines = path.read_text().split("\n")
    first = 2 if fmt is CSV else 0
    if mutation and len(lines) - 2 >= first:
        EVENT_MUTATIONS[mutation](fmt, lines, data.draw(st.integers(first, len(lines) - 2)))
        path.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape"))
    with blocks_of(block, path):
        fast, slow, took_fast_path = read_both_ways(path, fmt)
    assert fast == slow
    assert mutation or took_fast_path and fast == ("ok", repr(expected))


BLANK_LINES = ["", "  ", "\t", " \t "]
COMMENT_LINES = ["#", "# comment", "  # indented", "# é ü", "\t# ∆ non-ASCII"]
# lines that are neither a row, a blank line, a comment nor the header where
# they stand: a second header, a comment that is not UTF-8 or that holds a
# break other than LF, a row with a space
OTHER_LINES = ["{header}", "# \udcff", "# a\x85b", "# a\rb", "{row} "]
LINE_FILE_EVENTS = it.process(GBM_WALK[:5000], it.ThresholdConfig(0.02))[:12]


@st.composite
def line_files(draw, fmt):
    """A tick file (``fmt`` None) or an event file of ``fmt``, made of rows,
    blank and whitespace-only lines, comments and a header, with or without
    a final LF, and perhaps one line of ``OTHER_LINES``: ``(text, has_header,
    whether every line is a row, a blank line, a comment or the header)``."""
    if fmt is None:
        pool, has_header = WALK_ROWS.splitlines(), draw(st.booleans())
        header = "timestamp,price"
    else:
        pool = io._event_rows([(e.kind.value, e.direction.name.lower(), *e[2:])
                               for e in LINE_FILE_EVENTS], fmt).splitlines()
        has_header, header = fmt is CSV, io.EVENT_HEADER
    # half the JSON Lines files, which have no comments, get no # lines
    fillers = st.sampled_from(BLANK_LINES + COMMENT_LINES * (fmt is not JSONL or draw(
        st.booleans())))
    head = draw(st.lists(fillers, max_size=3)) + ([header] if has_header else [])
    body = pool[:draw(st.integers(0, 12))]
    for _ in range(draw(st.integers(0, 6))):
        body.insert(draw(st.integers(0, len(body))), draw(fillers))
    lines = head + body
    other = draw(st.none() | st.sampled_from(OTHER_LINES))
    if other is not None:
        at = draw(st.integers(len(head), len(lines)))
        lines.insert(at, other.format(header=header, row=pool[0]))
    comments = any(line.strip().startswith("#") for line in lines)
    text = "\n".join(lines) + ("\n" if lines and draw(st.booleans()) else "")
    return text, has_header, other is None and (fmt is not JSONL or not comments)



@needs_cc
@pytest.mark.parametrize("fmt", [None, CSV, JSONL], ids=["ticks", "csv", "jsonl"])
@settings(max_examples=120)
@given(data=st.data())
def test_the_c_path_is_taken_exactly_where_every_line_is_a_row_blank_comment_or_header(
        tmp_path_factory, fmt, data):
    text, has_header, taken = data.draw(line_files(fmt))
    path = tmp_path_factory.mktemp("lines") / "file"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    for block in (1, 7, 64, io._BLOCK_BYTES):
        with blocks_of(block, path):
            if fmt is None:
                fast, slow, took_fast_path = parse_both_ways(path, has_header)
            else:
                fast, slow, took_fast_path = read_both_ways(path, fmt)
        assert fast == slow
        assert took_fast_path == taken, block


@needs_cc
def test_files_are_read_a_block_at_a_time(tmp_path, monkeypatch):
    path = tmp_path / "ticks.csv"
    it.write_ticks(GBM_WALK, path)
    reads = []
    read_on = io._read_on
    monkeypatch.setattr(io, "_read_on", lambda fh, rest: reads.append(
        read_on(fh, rest)) or reads[-1])
    monkeypatch.setattr(io, "_BLOCK_BYTES", 4096)
    fast, slow, took_fast_path = parse_both_ways(path, has_header=True)
    assert took_fast_path and fast == slow
    assert len(reads) > path.stat().st_size // 4096
    assert max(len(data) for data, _ in reads) < 4096 + 64  # a block and a cut row


@needs_cc
@pytest.mark.parametrize("ends", [b"\n", b"\r\n"], ids=["LF", "CRLF"])
def test_a_pipe_is_read_whole_and_then_as_a_file(tmp_path, ends):
    path, fifo = tmp_path / "ticks.csv", tmp_path / "ticks.fifo"
    path.write_bytes(b"timestamp,price" + ends + b"0,1.5" + ends + b"1,2.5" + ends)
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as fh:  # blocks until the reader opens the pipe
            fh.write(path.read_bytes())

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        from_pipe = parse_outcome(fifo, True, False)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert from_pipe == parse_outcome(path, True, False) and from_pipe[0] == "ok"


# ---------------------------------------------------------------------------
# event files written in C: it_format_events against the row templates
# ---------------------------------------------------------------------------

def write_arrays_both_ways(arrays, path, fmt):
    """The bytes ``_write_event_arrays`` writes in C, the bytes the
    ``_event_rows`` template writes for the same rows (which it writes
    without the kernel too), and one ``(first row, next row, bytes)`` per
    call of the C writer."""
    kernel = engine._load_kernel()
    assert kernel is not None
    calls = []

    def counting(*args):
        row = next(arg for arg in args if isinstance(arg, ctypes.c_int64))
        first = row.value
        size = kernel.format_events(*args)
        calls.append((first, row.value, size))
        return size

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_kernel", kernel._replace(format_events=counting))
        io._write_event_arrays(arrays, path, fmt)
        compiled = path.read_bytes()
        mp.setattr(engine, "_kernel", None)
        io._write_event_arrays(arrays, path, fmt)
        without_kernel = path.read_bytes()
    rows = [("DC" if k == 0 else "OS", "up" if d == 1 else "down", t, p,
             arrays.config.delta, i)
            for i, (k, d, t, p) in enumerate(zip(
                arrays.kinds.tolist(), arrays.directions.tolist(),
                arrays.timestamps.tolist(), arrays.prices.tolist()))]
    io._atomic_write(path, [(io._event_head(fmt) + io._event_rows(rows, fmt)).encode()])
    assert path.read_bytes() == without_kernel
    return compiled, without_kernel, calls


def rows_left_to_python(calls):
    return [first for first, _, size in calls if size == 0]


def rows_c_leaves(prices, fmt):
    """The rows at which the C event writer writes nothing, for prices that
    fit one block: each JSON Lines price outside ``C_REPR_RANGE`` that a
    template run does not cover. A run takes 1 row, then twice as many each
    time C writes nothing again, and 1 again after C writes."""
    outside = [fmt is JSONL and not C_REPR_RANGE[0] <= p < C_REPR_RANGE[1] for p in prices]
    left, row, chunk = [], 0, 1
    while row < len(prices):
        if outside[row]:
            left.append(row)
            row, chunk = row + chunk, min(2 * chunk, io._TEMPLATE_ROWS)
        else:
            while row < len(prices) and not outside[row]:
                row += 1
            chunk = 1
    return left


def arrays_with_prices(prices, delta=0.0025):
    n = len(prices)
    return it.EventArrays(np.arange(n, dtype=np.int8) % 2,
                          np.where(np.arange(n) % 3 == 0, 1, -1).astype(np.int8),
                          (np.arange(n, dtype=np.int64) - n // 2) * 2**57,  # n <= 128
                          np.array(prices, dtype=np.float64),
                          np.array(prices, dtype=np.float64),
                          it.ThresholdConfig(delta))


SMALLEST_NORMAL = float(np.finfo(np.float64).tiny)
# Prices whose float.__repr__ is easy to get wrong: the ends of C's range,
# the places where repr's layout changes, and exact ties on the last digit
# (2**50 + 0.25 and 1307231931751.78125), which round to the even digit.
REPR_HARD_PRICES = [2.0 ** k for k in range(-20, 61)] + [
    0.1, 0.3, 1 / 3, 1e-3, float(np.nextafter(1e-3, 0)), float(np.nextafter(1e-3, 1)),
    2.0 ** 52 - 1, 2.0 ** 52 + 1, 1e15, 1e16, 1e22, 5e-324, SMALLEST_NORMAL,
    2.0 ** 50 + 0.25, 1307231931751.78125]
# exactly the prices it_format_events writes in JSON Lines
C_REPR_RANGE = (1e-3, 2.0 ** 52)

writer_prices = st.one_of(
    st.floats(min_value=5e-324, max_value=np.finfo(np.float64).max),
    st.floats(min_value=C_REPR_RANGE[0], max_value=C_REPR_RANGE[1]),
    st.floats(min_value=0.99e-3, max_value=1.01e-3),
    st.floats(min_value=0.99 * 2.0 ** 52, max_value=1.01 * 2.0 ** 52),
    st.floats(min_value=5e-324, max_value=SMALLEST_NORMAL, exclude_max=True),
    # exact binary fractions, among them ties on the last digit
    st.builds(lambda m, k: m / 2.0 ** k, st.integers(1, 2 ** 53), st.integers(1, 60)))


@needs_cc
@given(st.lists(writer_prices, max_size=30), NORMAL_DELTAS, st.sampled_from([CSV, JSONL]))
@settings(max_examples=300)
def test_c_event_writer_equals_row_templates(tmp_path_factory, prices, delta, fmt):
    path = tmp_path_factory.mktemp("written") / f"events.{fmt.value}"
    compiled, python, calls = write_arrays_both_ways(arrays_with_prices(prices, delta),
                                                    path, fmt)
    assert compiled == python
    assert rows_left_to_python(calls) == rows_c_leaves(prices, fmt)


@needs_cc
@pytest.mark.parametrize("fmt", [CSV, JSONL])
def test_c_event_writer_on_hard_prices(tmp_path, fmt):
    compiled, python, calls = write_arrays_both_ways(
        arrays_with_prices(REPR_HARD_PRICES), tmp_path / f"events.{fmt.value}", fmt)
    assert compiled == python
    lines = compiled.decode().splitlines()[2 if fmt is CSV else 0:]
    field = (lambda line: line.split(",")[3]) if fmt is CSV else (
        lambda line: line.split('"price":')[1].split(",")[0])
    written = [field(line) for line in lines]
    assert written == [format(p, ".17g") if fmt is CSV else repr(p) for p in REPR_HARD_PRICES]
    assert "1125899906842624.2" in written and "1307231931751.7812" in written
    assert rows_left_to_python(calls) == rows_c_leaves(REPR_HARD_PRICES, fmt)


@needs_cc
@pytest.mark.parametrize("fmt", [CSV, JSONL])
def test_c_event_writer_resumes_after_a_full_buffer(tmp_path, monkeypatch, fmt):
    arrays = it.process_arrays(it.generate_random_walk(1.0, 0.004, 3000, seed=13),
                               it.ThresholdConfig(0.002, it.MoveConvention.LOG_RETURN))
    monkeypatch.setattr(io, "_BLOCK_BYTES", 600)  # three or four rows a block
    compiled, python, calls = write_arrays_both_ways(arrays, tmp_path / "events", fmt)
    assert compiled == python
    assert len(calls) > 10 and not rows_left_to_python(calls)
    assert [first for first, _, _ in calls] == [0] + [after for _, after, _ in calls[:-1]]
    assert calls[-1][1] == len(arrays) and all(0 < size <= 600 for _, _, size in calls)


@needs_cc
def test_c_event_writer_leaves_one_row_to_python_between_two_c_rows(tmp_path):
    compiled, python, calls = write_arrays_both_ways(
        arrays_with_prices([1.5, 1e-5, 2.5]), tmp_path / "events.jsonl", JSONL)
    assert compiled == python and b'"price":1e-05,' in compiled
    assert [(first, after) for first, after, _ in calls] == [(0, 1), (1, 1), (2, 3)]
    assert rows_left_to_python(calls) == [1]


@needs_cc
def test_the_template_takes_doubling_runs_where_c_writes_nothing(monkeypatch, tmp_path):
    # JSON Lines prices near 1e-5, which C leaves, but for three rows it writes
    n, bound = 3 * io._TEMPLATE_ROWS + 5, io._TEMPLATE_ROWS
    prices = 1e-5 * (1.5 + np.sin(np.arange(n)))
    prices[bound - 1:bound + 2] = [1.5, 2.5, 3.5]
    arrays = it.EventArrays(np.arange(n, dtype=np.int8) % 2,
                            np.where(np.arange(n) % 3 == 0, 1, -1).astype(np.int8),
                            np.arange(n, dtype=np.int64) * 1000, prices, prices,
                            it.ThresholdConfig(0.002))
    path, templated, c_blocks = tmp_path / "events.jsonl", [], io._c_blocks

    def recording(head, n, format_rows, python_rows):
        def template(start, stop):
            templated.append((start, stop))
            return python_rows(start, stop)
        return c_blocks(head, n, format_rows, template)

    monkeypatch.setattr(io, "_c_blocks", recording)
    io._write_event_arrays(arrays, path, JSONL)
    compiled, runs = path.read_bytes(), list(templated)
    monkeypatch.setattr(engine, "_kernel", None)
    io._write_event_arrays(arrays, path, JSONL)
    assert compiled == path.read_bytes()
    # runs of 1, 2, 4, ... rows up to the rows C writes, then from 1 again up to the bound
    doubling = [(2**j - 1, 2**(j + 1) - 1) for j in range(12)]
    after = [(bound + 2 + 2**j - 1, bound + 2 + 2**(j + 1) - 1) for j in range(12)]
    assert runs == doubling + after + [(bound + 2 + 4095, bound + 2 + 4095 + bound),
                                       (bound + 2 + 4095 + bound, n)]
    assert doubling[-1][1] == bound - 1 and len(runs) <= 2 * np.log2(n) + n / bound


@pytest.mark.parametrize("writer", ["ticks", "no-kernel", "wide-clock"])
def test_the_template_formats_at_most_its_bound_of_rows_a_call(monkeypatch, tmp_path, writer):
    n, bound = 3 * io._TEMPLATE_ROWS + 5, io._TEMPLATE_ROWS
    path, templated, c_blocks = tmp_path / "written", [], io._c_blocks

    def recording(head, n, format_rows, python_rows):
        def template(start, stop):
            templated.append((start, stop))
            return python_rows(start, stop)
        return c_blocks(head, n, format_rows, template)

    monkeypatch.setattr(io, "_c_blocks", recording)
    if writer != "wide-clock":
        monkeypatch.setattr(engine, "_kernel", None)
    if writer == "ticks":
        series = it.generate_random_walk(1.0, 0.004, n - 1, seed=3)  # n ticks
        it.write_ticks(series, path)
        expected = TICK_SCHEMA_COMMENT + "\ntimestamp,price\n" + "".join(
            f"{t},{p:.17g}\n" for t, p in zip(series.timestamps.tolist(), series.prices.tolist()))
    else:
        # a clock past int64 leaves every row to the template, kernel or not
        clocks = [*range(n - 1), 2**64 if writer == "wide-clock" else n]
        rows = [("OS" if i % 2 else "DC", "up" if i % 3 else "down", i, 1.5 + i / n, 0.002, clock)
                for i, clock in enumerate(clocks)]
        it.write_events([it.IntrinsicEvent(it.EventKind(k), it.Mode.UP if d == "up" else it.Mode.DOWN,
                                           *rest) for k, d, *rest in rows], path, JSONL)
        expected = io._event_rows(rows, JSONL)
    assert path.read_text() == expected
    assert templated == [(0, bound), (bound, 2 * bound), (2 * bound, 3 * bound), (3 * bound, n)]


@needs_cc
def test_c_event_writer_ignores_a_comma_decimal_locale(tmp_path, comma_decimal_locale):
    arrays = arrays_with_prices([p for p in HARD_PRICES if p != 5e-324], delta=0.015625)
    for fmt in (CSV, JSONL):
        compiled, python, calls = write_arrays_both_ways(
            arrays, tmp_path / f"events.{fmt.value}", fmt)
        assert compiled == python and b"1.0000000000000002," in compiled


def write_events_both_ways(events, path, fmt):
    """The bytes ``write_events`` writes with the C writer and without the
    kernel, and one ``(first row, next row, bytes, runs of equal deltas)``
    per call of the C writer."""
    kernel = engine._load_kernel()
    assert kernel is not None
    calls = []

    def counting(*args):
        row = next(arg for arg in args if isinstance(arg, ctypes.c_int64))
        first = row.value
        size = kernel.format_events(*args)
        calls.append((first, row.value, size, args[5]))
        return size

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_kernel", kernel._replace(format_events=counting))
        it.write_events(events, path, fmt)
        compiled = path.read_bytes()
        mp.setattr(engine, "_kernel", None)
        it.write_events(events, path, fmt)
    return compiled, path.read_bytes(), calls


@needs_cc
@pytest.mark.parametrize("fmt", [CSV, JSONL])
def test_listed_events_take_the_c_event_writer(tmp_path, fmt):
    E, dc, os_ = it.IntrinsicEvent, it.EventKind.DIRECTIONAL_CHANGE, it.EventKind.OVERSHOOT
    up, down = it.Mode.UP, it.Mode.DOWN
    events = [E(dc, up, -5, 1.5, 0.01, 0), E(os_, down, 3, 2.5, 0.01, 4),
              # a run of delta 0.0005 with repeated clock indices, and JSON
              # Lines prices below 1e-3 and past 2**52 between C rows
              E(os_, down, 7, 1e-5, 0.0005, 4), E(dc, up, 8, 3.25, 0.0005, 4),
              E(os_, up, 9, 2.0**60, 0.0005, 9), E(dc, down, 10, 1.75, 0.0005, 2**63 - 1),
              E(dc, up, 11, 1.25, 0.25, 2**63 - 1)]
    path = tmp_path / f"events.{fmt.value}"
    compiled, python, calls = write_events_both_ways(events, path, fmt)
    assert compiled == python
    assert it.read_events(path, fmt) == events
    # one call per block, given all three runs of equal deltas
    rows = [(first, after, runs) for first, after, size, runs in calls]
    if fmt is CSV:
        assert rows == [(0, 7, 3)]
    else:
        assert rows == [(0, 2, 3), (2, 2, 3), (3, 4, 3), (4, 4, 3), (5, 7, 3)]
        assert b'"delta":0.0005,' in compiled
    assert [first for first, _, size, _ in calls if size == 0] == ([] if fmt is CSV else [2, 4])
    # a clock index past int64 leaves the whole file to the template
    wide = [*events, events[0]._replace(clock_index=2**64)]
    compiled, python, calls = write_events_both_ways(wide, path, fmt)
    assert compiled == python and calls == [] and it.read_events(path, fmt) == wide
    compiled, python, calls = write_events_both_ways([], path, fmt)
    assert compiled == python == io._event_head(fmt).encode() and calls == []


@needs_cc
@pytest.mark.parametrize("fmt", [CSV, JSONL])
@pytest.mark.parametrize("block", [300, 1 << 18], ids=["small-blocks", "one-block"])
def test_c_event_writer_takes_a_new_delta_at_every_row(tmp_path, monkeypatch, fmt, block):
    deltas = [0.01, 0.02, 0.0005, 0.01, 1e-300, 0.5, 0.02, 1 / 3] * 10
    events = [it.IntrinsicEvent(it.EventKind("OS" if i % 2 else "DC"),
                                it.Mode.UP if i % 3 else it.Mode.DOWN, i - 40, 1.5 + i, d, i)
              for i, d in enumerate(deltas)]
    monkeypatch.setattr(io, "_BLOCK_BYTES", block)
    compiled, python, calls = write_events_both_ways(events, tmp_path / "events", fmt)
    rows = [("OS" if i % 2 else "DC", "up" if i % 3 else "down", i - 40, 1.5 + i, d, i)
            for i, d in enumerate(deltas)]
    assert compiled == python == (io._event_head(fmt) + io._event_rows(rows, fmt)).encode()
    assert all(size > 0 and runs == len(events) for _, _, size, runs in calls)
    assert [first for first, _, _, _ in calls] == [0] + [after for _, after, _, _ in calls[:-1]]
    assert calls[-1][1] == len(events) and (len(calls) == 1) == (block == 1 << 18)


@needs_cc
def test_c_event_writer_fits_the_longest_row(tmp_path, monkeypatch):
    # %.17g of a positive number takes at most 23 characters; put_g17's
    # bound of 24 counts a minus sign
    price, delta = 9.8765432109876543e+300, 1.2345678901234567e-100
    delta_text = format(delta, ".17g")
    assert len(format(price, ".17g")) == len(delta_text) == 23
    event = it.IntrinsicEvent(it.EventKind.OVERSHOOT, it.Mode.DOWN, -2**63, price, delta,
                              2**63 - 1)
    # the smallest buffer it_format_events writes any row into: EVENT_ROW_MAX
    # and the delta
    monkeypatch.setattr(io, "_BLOCK_BYTES", 160 + len(delta_text))
    compiled, python, calls = write_events_both_ways([event], tmp_path / "events.csv", CSV)
    row = f"OS,down,{-2**63},{price:.17g},{delta_text},{2**63 - 1}\n".encode()
    assert compiled == python == io._event_head(CSV).encode() + row
    assert [(first, after, size) for first, after, size, _ in calls] == [(0, 1, len(row))]


@pytest.mark.parametrize("name", ["csv", "jsonl"])
def test_event_formats_may_be_named_by_value(tmp_path, name):
    events = it.process(it.generate_random_walk(1.0, 0.004, 2000, seed=13),
                        it.ThresholdConfig(0.005))
    it.write_events(events, tmp_path / "by_value", name)
    it.write_events(events, tmp_path / "by_member", it.EventFileFormat(name))
    assert (tmp_path / "by_value").read_bytes() == (tmp_path / "by_member").read_bytes()
    assert (tmp_path / "by_value").read_bytes().startswith(
        b"# intrinsic-time" if name == "csv" else b'{"kind":')
    assert it.read_events(tmp_path / "by_value", name) == events


@pytest.mark.parametrize("bad", ["CSV", "json", None, 1])
def test_unknown_event_format_raises(tmp_path, bad):
    with pytest.raises(it.ConfigurationError, match="unknown event file format"):
        it.write_events([], tmp_path / "events", bad)
    assert not (tmp_path / "events").exists()
    (tmp_path / "events").write_text("")
    with pytest.raises(it.ConfigurationError, match="unknown event file format"):
        it.read_events(tmp_path / "events", bad)
