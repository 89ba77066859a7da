"""The C parsers, writers and grid scan of ``_scan.c`` under AddressSanitizer
and UBSan.

The kernel's parsers read buffers with no terminator, which the readers cut
into blocks, and its writers fill fixed blocks; no byte outside either may be
read or written. ``sanitized_scan.c`` runs them over the files of the
grammar tests in ``test_io.py``, cut at every byte offset, and over seeded
random doubles, in a build that stops at the first report. The grid scan
reads ahead of the tick it is at, and must stop at the end of its block: the
same build scans seeded walks cut at every tick, with event columns that
fill and resume.
"""

import ctypes
import os
import shutil
import struct
import subprocess
from pathlib import Path

import pytest
import test_io
from test_io import (EVENT_CSV_HEAD, EVENT_MUTATIONS, MUTATIONS, TICK_BLOCK_CASES, event_file,
                     render)

import intrinsic_time as it
from intrinsic_time import engine, io

CC = shutil.which("cc")
SANITIZE = ("-g", "-O1", "-fno-omit-frame-pointer", "-fsanitize=address,undefined",
            "-fno-sanitize-recover=all")
SOURCE = Path(__file__).with_name("sanitized_scan.c")
ENV = {**os.environ, "ASAN_OPTIONS": "detect_leaks=0:abort_on_error=0",
       "UBSAN_OPTIONS": "print_stacktrace=1"}


@pytest.fixture(scope="module")
def sanitized(tmp_path_factory):
    """Build ``sanitized_scan.c`` with ``_scan.c`` under the sanitizers; skip
    when ``cc`` cannot build and run a sanitized program here."""
    if CC is None:
        pytest.skip("no C compiler (cc) on PATH")
    directory = tmp_path_factory.mktemp("sanitized")
    probe = directory / "probe.c"
    probe.write_text("int main(void) { return 0; }\n")
    try:
        subprocess.run([CC, *SANITIZE, "-o", directory / "probe", probe], check=True,
                       capture_output=True, timeout=120)
        subprocess.run([directory / "probe"], check=True, capture_output=True, timeout=60,
                       env=ENV)
    except (OSError, subprocess.SubprocessError) as exc:
        pytest.skip(f"cc cannot build and run with -fsanitize=address,undefined: {exc}")
    program = directory / "sanitized_scan"
    build = subprocess.run([CC, *SANITIZE, "-ffp-contract=off", "-o", program, SOURCE,
                            engine._KERNEL_SOURCE, "-lm"], capture_output=True, text=True,
                           timeout=300)
    assert build.returncode == 0, build.stderr
    return program


def parametrized(test, argnames: str) -> list[tuple]:
    """The argument tuples a test is parametrized with over ``argnames``."""
    return next(mark.args[1] for mark in test.pytestmark
                if mark.name == "parametrize" and mark.args[0] == argnames)


def grammar_files() -> list[bytes]:
    """The files of the grammar and mutation tests of ``test_io``."""
    files = []
    for prefix, body, _, _ in parametrized(test_io.test_fast_parser_takes_exactly_its_grammar,
                                           "prefix, body, allow_unordered, taken"):
        files += [prefix + body, prefix + b"timestamp,price\n" + body]
    for before, has_header, rows, _ in TICK_BLOCK_CASES.values():
        text = before + ("timestamp,price\n" if has_header else "") + rows
        files.append(text.encode("utf-8", "surrogateescape"))
    for mutate in MUTATIONS.values():
        for k in range(3):
            prefix, rows = ["# c", ""], [["1", "1.5"], ["2", "2.5e-3"], ["3", "7"]]
            mutate(prefix, rows, k)
            files.append(render(prefix, True, rows, True))
    events = [it.IntrinsicEvent(it.EventKind.OVERSHOOT, it.Mode.DOWN, -3, 1.25, 0.01, 0),
              it.IntrinsicEvent(it.EventKind.DIRECTIONAL_CHANGE, it.Mode.UP, 5, 2e-5, 0.5, 1),
              it.IntrinsicEvent(it.EventKind.OVERSHOOT, it.Mode.UP, 9, 3e22, 1e-300, 2)]
    rows = [(e.kind.value, e.direction.name.lower(), *e[2:]) for e in events]
    for fmt in (test_io.CSV, test_io.JSONL):
        for (row, _) in parametrized(test_io.test_fast_event_reader_takes_exactly_its_grammar,
                                     "row, taken"):
            files.append(event_file(fmt, ("OS", 0, 1.25, 0.01, 0), row).encode())
        for (ts, text, _) in parametrized(test_io.test_tick_and_event_prices_share_one_grammar,
                                          "ts, text, taken"):
            files.append(event_file(fmt, ("OS", ts, 1.25, 0.01, 0),
                                    ("DC", ts, text, 0.01, 1)).encode())
            if fmt is test_io.CSV:  # and as a tick file
                files.append(f"{ts},1.25\n{ts},{text}\n".encode())
        base = (io._event_head(fmt) + io._event_rows(rows, fmt)).split("\n")
        first = 2 if fmt is test_io.CSV else 0
        for mutate in EVENT_MUTATIONS.values():
            for k in range(first, len(base) - 1):
                lines = list(base)
                mutate(fmt, lines, k)
                files.append("\n".join(lines).encode("utf-8", "surrogateescape"))
    files.append((EVENT_CSV_HEAD + "\n" + "# mid\n").encode())
    return files


def test_parsers_and_writers_stay_inside_their_buffers(sanitized, tmp_path):
    corpus = tmp_path / "corpus"
    files = grammar_files()
    corpus.write_bytes(b"".join(struct.pack("<Q", len(f)) + f for f in files))
    run = subprocess.run([sanitized, corpus], capture_output=True, text=True, timeout=300,
                         env=ENV)
    assert run.returncode == 0 and "Sanitizer" not in run.stderr \
        and "runtime error" not in run.stderr, run.stderr[-4000:]
    assert run.stdout.startswith(f"{len(files)} files")


def test_grid_scan_stays_inside_its_buffers(sanitized):
    run = subprocess.run([sanitized, "--scan"], capture_output=True, text=True, timeout=300,
                         env=ENV)
    assert run.returncode == 0 and "Sanitizer" not in run.stderr \
        and "runtime error" not in run.stderr, run.stderr[-4000:]
    # the program's struct it_runner is the one engine._Runner lays out
    offsets = " ".join(str(getattr(engine._Runner, name).offset)
                       for name, _ in engine._Runner._fields_)
    assert run.stdout.startswith(f"runner {ctypes.sizeof(engine._Runner)}: {offsets}\n")
    assert int(run.stdout.split("\n")[1].split()[0]) > 10_000  # events
