"""Span recording for the benchmark's traced runs.

The tracer wraps library functions under the names through which their
callers reach them (``intrinsic_time.cli.parse_ticks``,
``intrinsic_time.multiscale.process``, ...), so nothing in the library
changes. Each call records one span ``(id, name, start, end, parent,
run)`` in memory; the spans are written out once, at the end. Times come
from ``time.monotonic_ns``, which on Linux reads CLOCK_MONOTONIC, so
spans of the benchmark and of its child processes share one clock.

Run as a script, this module is the traced command-line child:

    python3 bench/spans.py SPANS_OUT ID_PREFIX PARENT_ID RUN_ID -- <intrinsic-time args>
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple

# (module, attribute, span name) for every binding through which a layer's
# public function is called. A function imported into several modules is
# wrapped in each of them under one span name. Bindings that a version of
# the library does not have are skipped.
WRAPS = (
    ("engine", "process", "engine.process"),
    ("engine", "process_arrays", "engine.process_arrays"),
    ("engine", "events_from_arrays", "engine.events_from_arrays"),
    ("engine", "_segment_overshoots", "engine.segment_overshoots"),
    ("multiscale", "process", "engine.process"),
    ("multiscale", "overshoot_lengths", "engine.overshoot_lengths"),
    ("multiscale", "run_grid", "multiscale.run_grid"),
    ("scaling", "process_arrays", "engine.process_arrays"),
    ("scaling", "_segment_overshoots", "engine.segment_overshoots"),
    ("scaling", "physical_returns", "scaling.physical_returns"),
    ("io", "read_events", "io.read_events"),
    ("cli", "generate_gbm", "synthetic.generate_gbm"),
    ("cli", "write_ticks", "io.write_ticks"),
    ("cli", "parse_ticks", "io.parse_ticks"),
    ("cli", "write_events", "io.write_events"),
    ("cli", "run_grid", "multiscale.run_grid"),
    ("cli", "summarize", "multiscale.summarize"),
    ("cli", "overshoot_lengths", "engine.overshoot_lengths"),
    ("cli", "mean_overshoot_ratio", "scaling.mean_overshoot_ratio"),
    ("cli", "fit_power_law", "scaling.fit_power_law"),
    ("cli", "decompose", "scaling.decompose"),
)


class Span(NamedTuple):
    id: str
    name: str
    start: int
    end: int
    parent: str | None
    run: int


class Tracer:
    """In-memory span recorder; ``install`` patches the library bindings.

    ``run`` tags every span recorded from now on (one id per benchmark
    operation). Spans opened on a worker thread with nothing open on that
    thread take the innermost open span of the installing thread as their
    parent, which is the call that fanned the work out.
    """

    def __init__(self, id_prefix: str = "", root: str | None = None, run: int = 0):
        self.spans: list[Span] = []
        self.run = run
        self._prefix = id_prefix
        self._root = root
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner_stack: list[str] = []
        self._owner = threading.get_ident()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[str]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[str]) -> str | None:
        if stack:
            return stack[-1]
        try:
            return self._owner_stack[-1]
        except IndexError:
            return self._root

    @contextmanager
    def span(self, name: str):
        """Record one span around the body; yields the span id."""
        stack = self._stack()
        parent = self._parent(stack)
        # next() on a count and list.append are single calls into C, so
        # worker threads can share them without a lock.
        span_id = f"{self._prefix}{next(self._ids)}"
        run = self.run
        stack.append(span_id)
        start = time.monotonic_ns()
        try:
            yield span_id
        finally:
            end = time.monotonic_ns()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, run))

    def wrap(self, name: str, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name):
                return func(*args, **kwargs)
        return traced

    def install(self) -> None:
        # Import every module before patching any: a module imported after
        # a patch would bind the wrapper and get wrapped twice.
        modules = {}
        for module_name, _, _ in WRAPS:
            try:
                modules[module_name] = importlib.import_module(
                    f"intrinsic_time.{module_name}")
            except ImportError:
                pass
        for module_name, attr, span_name in WRAPS:
            module = modules.get(module_name)
            func = getattr(module, attr, None)
            if callable(func):
                self._patched.append((module, attr, func))
                setattr(module, attr, self.wrap(span_name, func))

    def uninstall(self) -> None:
        for module, attr, func in reversed(self._patched):
            setattr(module, attr, func)
        self._patched.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([list(s) for s in self.spans], fh)


def load(path: str) -> list[Span]:
    with open(path, encoding="utf-8") as fh:
        return [Span(*row) for row in json.load(fh)]


def _covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times_ns(spans: list[Span]) -> dict[str, int]:
    """Self time of every span: its duration minus what its children cover.

    Children on worker threads may overlap each other, so the covered part
    is the union of their intervals, not their sum.
    """
    children: dict[str | None, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - _covered(children[s.id], s.start, s.end)
            for s in spans}


def _child_main(argv: list[str]) -> int:
    spans_out, id_prefix, parent, run = argv[:4]
    if argv[4:5] != ["--"]:
        print("usage: spans.py SPANS_OUT ID_PREFIX PARENT_ID RUN_ID -- ARGS...",
              file=sys.stderr)
        return 2
    tracer = Tracer(id_prefix, parent, int(run))
    tracer.install()
    from intrinsic_time.cli import cli_main

    try:
        return cli_main(argv[5:])
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv[1:]))
