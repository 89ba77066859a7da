"""Benchmark of the intrinsic-time library, measured from outside.

    python3 bench/run.py --workload grid_scan --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10
    python3 bench/run.py --workload all --smoke --seconds 0.2

Run it from the repository root. It builds nothing: the library is
imported from ``src/`` and the command line runs as child interpreters
with ``src`` on ``PYTHONPATH``. Nothing under ``src/`` is changed.

Workloads (the one-line reasons are in ``BENCHMARK.json``). Each is a
closed loop with one client: the next operation starts when the previous
one has finished, for ``--seconds`` seconds after one untimed warm-up
operation. The inputs are a seeded walk the benchmark generates itself.

- ``grid_scan``: in-memory ``run_grid`` over a 10-threshold grid on a
  quiet walk, once per move convention (one operation = both passes).
- ``cli_pipeline``: ``generate``, ``transform``, ``scaling`` and
  ``decompose`` as child processes on a tick CSV the benchmark wrote.
- ``dense_events``: ``transform --format jsonl --convention log`` at
  thresholds near the per-tick volatility, then ``read_events`` on every
  file written.

With ``--trace 0`` the last line of standard output is a JSON result
carrying the end-to-end metrics: ``setup_s`` (fresh interpreter, import,
first 2-tick ``process``; median of several), ``op_s`` (mean wall time
of one operation over the window) and ``peak_rss_mb`` (largest peak RSS
of the program: children through ``os.wait4``, in-process work through
``ru_maxrss``). ``setup_s`` and ``op_s`` are scaled by a reference child
that imports numpy and no library code, measured in the same window (see
``REFERENCE_S``). The lines before the result give the raw values and
the per-stage metrics (``grid_rel_mevals_per_s``, ``transform_s``, ...)
with median, tail percentile and sample count.

With ``--trace 1`` operations alternate between traced and untraced, and
the result carries the per-layer metrics: self-time shares of the traced
operations, scan counts per command, solo scan cost per tick, thread
speed-up of ``run_grid`` and the tracing overhead. The spans are written
to ``.bench_work/traces/``. ``LAYER_MAP`` below says which end-to-end
metric each layer metric should move.

Every operation's output is checked: events against the brute-force
oracle in ``tests/oracle_reference.py`` on a prefix of the walk, command
line output files against in-process ``process``, and every repetition
byte for byte against the first. A mismatch is a failed operation.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
ORACLE = ROOT / "tests" / "oracle_reference.py"
WORK = ROOT / ".bench_work"

SAMPLES = 8
MIN_SAMPLES = 3
# A child that starts an interpreter and imports numpy and nothing of the
# library, and the time it takes on the machine the bounds were set on.
REFERENCE_CODE = "import numpy"
REFERENCE_S = 0.18
ORACLE_PREFIX = 5000
CHILD_TIMEOUT_S = 150.0
SETUP_CODE = ("import intrinsic_time as it; "
              "it.process([(0, 1.0), (1, 1.01)], it.ThresholdConfig(0.005))")
# What the installed ``intrinsic-time`` entry point does.
CLI_BOOT = ("import sys; from intrinsic_time.cli import main; "
            "sys.argv[0] = 'intrinsic-time'; main()")

CONVENTIONS = ("relative", "log")
COMMANDS = ("generate", "transform", "scaling", "decompose")
# Layers whose self time is reported as a share of the traced operations.
LAYERS = (
    "engine.process_arrays", "engine.events_from_arrays",
    "engine.overshoot_lengths", "engine.segment_overshoots",
    "multiscale.run_grid", "multiscale.summarize",
    "io.parse_ticks", "io.write_ticks", "io.write_events", "io.read_events",
    "scaling.decompose", "scaling.physical_returns", "scaling.fit_power_law",
    "synthetic.generate_gbm",
)
# Per-layer metric -> the end-to-end metrics (and workloads) it should move.
LAYER_MAP = {
    "engine.process_arrays.calls.<command>":
        "scaling_s, decompose_s on cli_pipeline (scaling scans twice per "
        "threshold); no move on grid_scan",
    "engine.scan_ns_per_tick.relative|log":
        "grid_*_mevals_per_s on grid_scan; secondary on cli_pipeline and "
        "dense_transform_s",
    "engine.events_per_tick": "work count explaining how the workloads differ",
    "engine.events_from_arrays.pct": "dense_transform_s; about zero on grid_scan",
    "engine.overshoot_lengths.pct": "scaling_s",
    "multiscale.run_grid.pct, multiscale.parallel_speedup": "grid_*_mevals_per_s",
    "multiscale.summarize.pct": "transform_s",
    "io.parse_ticks.pct, io.parse_ticks.rows_per_s":
        "transform_s, scaling_s, decompose_s; not grid_*",
    "io.write_ticks.pct": "generate_s",
    "io.write_events.pct, io.write_events.bytes": "dense_transform_s",
    "io.read_events.pct": "event_read_s",
    "scaling.decompose.pct, scaling.physical_returns.pct, scaling.fit_power_law.pct":
        "decompose_s, scaling_s",
    "synthetic.generate_gbm.pct": "generate_s",
    "cli.<command>.self_pct":
        "the matching <command>_s: interpreter start, import, formatting",
}


@dataclass(frozen=True)
class Spec:
    sigma: float
    steps: int
    deltas: tuple[float, ...]
    conventions: tuple[str, ...]


SPECS = {
    # ~0.1 % of ticks are events, and no threshold comes near the 1024-event
    # buffer of the seed engine, so every seed does the same scan work.
    "grid_scan": Spec(1e-4, 50_000, tuple(np.geomspace(0.002, 0.02, 10).tolist()),
                      CONVENTIONS),
    "cli_pipeline": Spec(1e-4, 100_000, (0.001, 0.002, 0.004, 0.008), ("relative",)),
    # thresholds at 0.5-2x the per-tick volatility: 0.2-1 events per tick.
    "dense_events": Spec(1e-3, 20_000, (0.0005, 0.001, 0.002), ("log",)),
}
SMOKE_STEPS = {"grid_scan": 3_000, "cli_pipeline": 3_000, "dense_events": 2_000}


class SetupError(Exception):
    """The checkout cannot run the benchmark (library or oracle missing)."""


class Mismatch(Exception):
    """An operation's output differs from the reference."""


def load_library():
    if not (SRC / "intrinsic_time" / "__init__.py").is_file():
        raise SetupError(f"library not found under {SRC}")
    if not ORACLE.is_file():
        raise SetupError(f"oracle not found at {ORACLE}")
    sys.path.insert(0, str(SRC))
    import intrinsic_time

    spec = importlib.util.spec_from_file_location("oracle_reference", ORACLE)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return intrinsic_time, oracle


# ---------------------------------------------------------------- inputs

def gbm_walk(seed: int, sigma: float, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The recipe documented in ``synthetic.py``: s0=1, mu=0, dt=1 s.

    PCG64 uniforms, cosine Box-Muller normals, exact log increments and
    timestamps k * 1e9 ns, so ``generate`` with the same arguments writes
    the same bytes as ``tick_csv`` of this walk.
    """
    rng = np.random.default_rng(seed)
    u1 = rng.random(steps)
    u2 = rng.random(steps)
    z = np.sqrt(-2.0 * np.log(1.0 - u1)) * np.cos(2.0 * np.pi * u2)
    dt = 1.0
    increments = (0.0 - 0.5 * sigma**2) * dt + sigma * np.sqrt(dt) * z
    prices = 1.0 * np.exp(np.concatenate(([0.0], np.cumsum(increments))))
    ns = np.arange(steps + 1, dtype=np.float64) * (dt * 1_000_000_000)
    return np.round(ns).astype(np.int64), prices


def tick_csv(ts: np.ndarray, px: np.ndarray) -> bytes:
    """Tick CSV v1: versioned comment, header, prices to 17 significant digits."""
    lines = ["# intrinsic-time tick-csv v1", "timestamp,price"]
    lines.extend(f"{t},{p:.17g}" for t, p in zip(ts.tolist(), px.tolist()))
    return ("\n".join(lines) + "\n").encode("utf-8")


# ---------------------------------------------------------- statistics

def tail(values: list[float], higher_is_better: bool = False):
    """The highest percentile with at least ten samples beyond it.

    Returns (percentile, value) on the bad side of the distribution, or
    None when there are too few samples.
    """
    ordered = sorted(values, reverse=higher_is_better)
    n = len(ordered)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(pct / 100.0 * n)
        if rank >= 1 and n - rank >= 10:
            return pct, ordered[rank - 1]
    return None


def describe(values: list[float], unit: str, higher_is_better: bool = False,
             center=statistics.median) -> dict:
    out = {"value": center(values), "unit": unit, "n": len(values)}
    hi = tail(values, higher_is_better)
    if hi is not None:
        out["tail_pct"], out["tail"] = hi
    return out


# ---------------------------------------------------------- environment

def kernel_backend(package) -> tuple[str, bool]:
    """Which scan kernel the library uses, as far as it shows from outside."""
    probe = getattr(package, "kernel_backend", None)
    if callable(probe):
        return str(probe()), True
    kernel = getattr(package.engine, "_scan_kernel", None)
    if kernel is None:
        return "unknown", False
    if type(kernel).__module__.startswith("numba"):
        return "numba", bool(getattr(kernel, "signatures", ()))
    return "python", False


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def env_stamp(package, workload: str, seed: int, spec: Spec, seconds: float) -> dict:
    backend, compiled = kernel_backend(package)
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "ticks": spec.steps + 1, "deltas": list(spec.deltas),
        "kernel": backend, "kernel_compiled": compiled,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "INTRINSIC_TIME_THREADS": os.environ.get("INTRINSIC_TIME_THREADS"),
        "python": platform.python_version(), "numpy": np.__version__,
        "cpu_model": cpu_model(), "commit": git_commit(),
    }


# ------------------------------------------------------------- running

class Bench:
    """One workload over one seeded input, in a private work directory."""

    def __init__(self, package, oracle, workload: str, seed: int, spec: Spec,
                 work: Path, trace: bool):
        self.it = package
        self.oracle = oracle
        self.workload = workload
        self.seed = seed
        self.spec = spec
        self.work = work
        self.tracer = spans.Tracer() if trace else None
        self.child_rss_kb = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.ts, self.px = gbm_walk(seed, spec.sigma, spec.steps)
        self.series = package.TickSeries(self.ts, self.px)
        self.tick_bytes = tick_csv(self.ts, self.px)
        self.ticks_path = work / "ticks.csv"
        self.ticks_path.write_bytes(self.tick_bytes)
        self.delta_arg = ",".join(repr(d) for d in spec.deltas)
        self.reference = {
            (conv, d): package.process(
                self.series, package.ThresholdConfig(d, package.MoveConvention(conv)))
            for conv in spec.conventions for d in spec.deltas}
        self.digests: dict[str, str] | None = None
        self.write_bytes: list[int] = []

    # -- children

    def child(self, argv: list[str], name: str, record_rss: bool = True) -> float:
        """Run one child process to completion; returns its wall seconds."""
        with open(self.work / f"{name}.out", "wb") as out, \
                open(self.work / f"{name}.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env,
                                    cwd=self.work)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
                watchdog.join()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if record_rss:
            self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        if proc.returncode != 0:
            msg = (self.work / f"{name}.err").read_text(errors="replace")[-2000:]
            raise Mismatch(f"{name} exited with {proc.returncode}: {msg}")
        return seconds

    def cli(self, args: list[str], traced: bool) -> float:
        command = args[0]
        if not traced:
            return self.child([sys.executable, "-c", CLI_BOOT, *args], command)
        spans_file = self.work / "child-spans.json"
        with self.tracer.span(f"cli.{command}") as span_id:
            seconds = self.child(
                [sys.executable, str(BENCH / "spans.py"), str(spans_file),
                 f"{span_id}.", span_id, str(self.tracer.run), "--", *args], command)
        self.tracer.spans.extend(spans.load(str(spans_file)))
        spans_file.unlink()
        return seconds

    def sample(self) -> tuple[list[float], float]:
        """Two reference children and one set-up child, back to back."""
        reference = [self.child([sys.executable, "-c", REFERENCE_CODE], "reference",
                                record_rss=False) for _ in range(2)]
        return reference, self.child([sys.executable, "-c", SETUP_CODE], "setup",
                                     record_rss=False)

    # -- checks

    def check_oracle(self) -> None:
        """Reference events equal the brute-force oracle on a walk prefix."""
        n = min(ORACLE_PREFIX, len(self.ts))
        cutoff = int(self.ts[n - 1])
        for (conv, d), events in self.reference.items():
            expected = [ev[:4] for ev in self.oracle.reference_events(
                self.ts[:n].tolist(), self.px[:n], d, use_log=conv == "log")]
            got = [(ev.kind.value, ev.direction.value, ev.timestamp, ev.price)
                   for ev in events if ev.timestamp <= cutoff]
            if got != expected:
                raise Mismatch(f"{conv} delta={d!r}: events differ from the oracle "
                               f"on the first {n} ticks")

    def match_delta(self, label: str) -> float:
        value = float(label)
        for d in self.spec.deltas:
            if abs(d - value) <= 1e-6 * d:
                return d
        raise Mismatch(f"output label {label!r} matches no threshold")

    def event_files(self, directory: Path, ext: str) -> dict[float, Path]:
        files = {self.match_delta(p.name[len("events_delta_"):-len(ext) - 1]): p
                 for p in sorted(directory.glob(f"events_delta_*.{ext}"))}
        if sorted(files) != sorted(self.spec.deltas):
            raise Mismatch(f"expected one event file per threshold, got "
                           f"{sorted(p.name for p in files.values())}")
        return files

    def check_counts(self, path: Path, conv: str, columns: tuple[str, ...]) -> None:
        """Rows of a CLI table agree with the reference event counts."""
        lines = [ln for ln in path.read_text().splitlines()
                 if ln and not ln.startswith("#")]
        header = lines[0].split(",")
        rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
        if len(rows) != len(self.spec.deltas):
            raise Mismatch(f"{path.name}: {len(rows)} rows for "
                           f"{len(self.spec.deltas)} thresholds")
        for row in rows:
            events = self.reference[(conv, self.match_delta(row["delta"]))]
            n_dc = sum(1 for ev in events if ev.kind.value == "DC")
            counts = {"n_dc": n_dc, "n_os": len(events) - n_dc}
            for column in columns:
                if int(row[column]) != counts[column]:
                    raise Mismatch(f"{path.name}: {column} for delta {row['delta']} "
                                   f"is {row[column]}, expected {counts[column]}")

    def check_repeat(self, directory: Path) -> None:
        """Every repetition writes the same bytes as the first operation."""
        digests = {str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(directory.rglob("*")) if p.is_file()}
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            changed = sorted(k for k in set(digests) | set(self.digests)
                             if digests.get(k) != self.digests.get(k))
            raise Mismatch(f"outputs differ from the first operation: {changed}")

    # -- operations

    def op_dir(self) -> Path:
        path = self.work / "op"
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir()
        return path

    # Whether the library also runs inside the benchmark process, which
    # makes that process's own peak RSS part of the program's footprint.
    in_process = True

    def op(self, first: bool, traced: bool) -> dict[str, float]:
        """One closed-loop operation; returns its stage times in seconds."""
        raise NotImplementedError


class GridScan(Bench):
    def op(self, first, traced):
        stages, results = {}, {}
        for conv in self.spec.conventions:
            convention = self.it.MoveConvention(conv)
            start = time.perf_counter()
            results[conv] = self.it.multiscale.run_grid(self.series, self.spec.deltas,
                                                        convention)
            stages[conv] = time.perf_counter() - start
        for conv, result in results.items():
            if result != [(d, self.reference[(conv, d)]) for d in self.spec.deltas]:
                raise Mismatch(f"run_grid ({conv}) differs from per-threshold process")
        return stages


class CliPipeline(Bench):
    in_process = False

    def op(self, first, traced):
        out = self.op_dir()
        ticks, deltas = str(self.ticks_path), self.delta_arg
        common = ["--in", ticks, "--deltas", deltas, "--convention", "relative"]
        stages = {
            "generate": self.cli(
                ["generate", "--model", "gbm", "--s0", "1.0", "--mu", "0.0",
                 "--sigma", repr(self.spec.sigma), "--steps", str(self.spec.steps),
                 "--dt", "1.0", "--seed", str(self.seed),
                 "--out", str(out / "generated.csv")], traced),
            "transform": self.cli(
                ["transform", *common, "--out-dir", str(out / "events")], traced),
            "scaling": self.cli(
                ["scaling", *common, "--out", str(out / "scaling.csv")], traced),
            "decompose": self.cli(
                ["decompose", *common, "--dt-seconds", "100",
                 "--out", str(out / "decomposition.csv")], traced),
        }
        if (out / "generated.csv").read_bytes() != self.tick_bytes:
            raise Mismatch("generate output differs from the benchmark's walk")
        files = self.event_files(out / "events", "csv")
        self.write_bytes.append(sum(p.stat().st_size for p in files.values()))
        if first:
            for d, path in files.items():
                if self.it.read_events(path) != self.reference[("relative", d)]:
                    raise Mismatch(f"{path.name} differs from in-process process")
            self.check_counts(out / "events" / "summary.csv", "relative",
                              ("n_dc", "n_os"))
            self.check_counts(out / "scaling.csv", "relative", ("n_dc",))
            self.check_counts(out / "decomposition.csv", "relative", ("n_dc",))
        self.check_repeat(out)
        return stages


class DenseEvents(Bench):
    def op(self, first, traced):
        out = self.op_dir()
        stages = {"dense_transform": self.cli(
            ["transform", "--in", str(self.ticks_path), "--deltas", self.delta_arg,
             "--convention", "log", "--format", "jsonl",
             "--out-dir", str(out / "events")], traced)}
        files = self.event_files(out / "events", "jsonl")
        self.write_bytes.append(sum(p.stat().st_size for p in files.values()))
        jsonl = self.it.EventFileFormat.JSONL
        start = time.perf_counter()
        read = {d: self.it.io.read_events(path, jsonl) for d, path in files.items()}
        stages["event_read"] = time.perf_counter() - start
        for d, events in read.items():
            if events != self.reference[("log", d)]:
                raise Mismatch(f"events read back at delta={d!r} differ from process")
        if first:
            self.check_counts(out / "events" / "summary.csv", "log",
                              ("n_dc", "n_os"))
        self.check_repeat(out)
        return stages


WORKLOADS = {"grid_scan": GridScan, "cli_pipeline": CliPipeline,
             "dense_events": DenseEvents}


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def attempt(self, what: str, func, *args):
        """Run one checked operation; a failure is counted, never raised."""
        self.attempted += 1
        try:
            return func(*args)
        except Exception:
            self.failed += 1
            print(f"FAILED {what}:\n{traceback.format_exc()}", file=sys.stderr)
            return None


def closed_loop(bench: Bench, tally: Tally, seconds: float, traced: bool):
    """Warm up once, then run operations back to back for ``seconds``.

    Returns the timed operations as (op, traced, op seconds, stage seconds
    or None if the operation failed), the (reference, set-up) samples and
    the calibration passes. The machine's speed drifts over seconds, so
    what is compared is measured across the whole window: an untraced run
    takes its samples between operations, and a traced run traces every
    other operation and follows each traced one with a calibration pass.
    """
    tally.attempt("warm-up operation", bench.op, True, False)
    records, samples, calibration = [], [], []
    begin = time.perf_counter()
    k = 0
    while True:
        is_traced = traced and k % 2 == 0
        if is_traced:
            bench.tracer.run = k
            bench.tracer.install()
        start = time.perf_counter()
        try:
            if is_traced:
                with bench.tracer.span(f"op.{bench.workload}"):
                    stages = tally.attempt(f"operation {k}", bench.op, False, True)
            else:
                stages = tally.attempt(f"operation {k}", bench.op, False, False)
        finally:
            if is_traced:
                bench.tracer.uninstall()
        now = time.perf_counter()
        records.append((k, is_traced, now - start, stages))
        k += 1
        if is_traced:
            calibration.append(calibrate(bench))
        elif not traced and now - begin >= len(samples) * seconds / SAMPLES:
            samples.append(bench.sample())
        if time.perf_counter() - begin >= seconds and k >= (2 if traced else 1):
            break
    while not traced and len(samples) < MIN_SAMPLES:
        samples.append(bench.sample())
    return records, samples, calibration


def stage_metrics(workload: str, spec: Spec, records) -> dict[str, dict]:
    """The named per-stage metrics of a workload, from its timed operations."""
    out = {}
    evals = (spec.steps + 1) * len(spec.deltas) / 1e6
    done = [r[3] for r in records if r[3] is not None]
    for stage in done[0] if done else ():
        times = [stages[stage] for stages in done]
        if workload == "grid_scan":
            name = "grid_rel_mevals_per_s" if stage == "relative" else "grid_log_mevals_per_s"
            out[name] = describe([evals / t for t in times], "Mevals/s", True)
        else:
            out[f"{stage}_s"] = describe(times, "s")
    return out


def layer_metrics(bench: Bench, records, calibration: list[dict]) -> dict[str, dict]:
    """Per-layer metrics from the spans of the traced operations."""
    recorded = bench.tracer.spans
    self_ns = spans.self_times_ns(recorded)
    by_id = {s.id: s for s in recorded}
    traced_runs = {r[0] for r in records if r[1]}
    in_ops = [s for s in recorded if s.run in traced_runs]
    op_ids = {s.id for s in in_ops if s.name.startswith("op.")}
    # Spans that run at the same time on the thread pool each count in full,
    # so shares are of the summed self time, which is the wall time of the
    # operations when nothing overlaps.
    total_ns = sum(self_ns[s.id] for s in in_ops) or 1

    def pct(ns: float) -> dict:
        return {"value": 100.0 * ns / total_ns, "unit": "%"}

    out = {}
    for layer in LAYERS:
        out[f"{layer}.pct"] = pct(sum(self_ns[s.id] for s in in_ops if s.name == layer))
    for command in COMMANDS:
        out[f"cli.{command}.self_pct"] = pct(
            sum(self_ns[s.id] for s in in_ops if s.name == f"cli.{command}"))

    # scans per command: count process_arrays spans under each command span
    # (a direct child of an operation span)
    def command_of(span):
        while span.parent in by_id and span.parent not in op_ids:
            span = by_id[span.parent]
        return span.name.split(".")[-1]

    commands = [s for s in in_ops if s.parent in op_ids]
    for command in ("run_grid", "transform", "scaling", "decompose"):
        invocations = sum(1 for s in commands if command_of(s) == command)
        calls = sum(1 for s in in_ops if s.name == "engine.process_arrays"
                    and command_of(s) == command)
        out[f"engine.process_arrays.calls.{command}"] = {
            "value": calls / invocations if invocations else 0.0, "unit": "count"}

    ticks = bench.spec.steps + 1
    for conv in CONVENTIONS:
        scan_ns = statistics.mean(c["scan_ns"][conv] for c in calibration)
        out[f"engine.scan_ns_per_tick.{conv}"] = {
            "value": scan_ns / (ticks * len(bench.spec.deltas)), "unit": "ns"}
    n_events = sum(len(ev) for ev in bench.reference.values())
    out["engine.events_per_tick"] = {
        "value": n_events / (ticks * len(bench.reference)), "unit": "events/tick"}
    grids = [s.end - s.start for s in in_ops if s.name == "multiscale.run_grid"]
    solo = statistics.mean(c["solo_ns"][conv] for c in calibration
                           for conv in bench.spec.conventions)
    out["multiscale.parallel_speedup"] = {
        "value": solo / statistics.mean(grids) if grids else 0.0, "unit": "x"}

    parses = [s.end - s.start for s in in_ops if s.name == "io.parse_ticks"]
    out["io.parse_ticks.rows_per_s"] = {
        "value": ticks * len(parses) / (sum(parses) / 1e9) if parses else 0.0,
        "unit": "1/s"}
    out["io.write_events.bytes"] = {
        "value": statistics.mean(bench.write_bytes) if bench.write_bytes else 0.0,
        "unit": "bytes"}

    traced = [r[2] for r in records if r[1]]
    untraced = [r[2] for r in records if not r[1]]
    overhead = (100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0)
                if traced and untraced else 0.0)
    out["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    return out


def calibrate(bench: Bench) -> dict:
    """One solo, serial, traced pass over the thresholds per convention.

    Gives the scan cost per tick in both conventions, and the serial time
    that ``run_grid`` is compared against.
    """
    tracer = bench.tracer
    tracer.run = -1
    result = {"scan_ns": {}, "solo_ns": {}}
    tracer.install()
    try:
        for conv in CONVENTIONS:
            mark = len(tracer.spans)
            convention = bench.it.MoveConvention(conv)
            for d in bench.spec.deltas:
                bench.it.engine.process(bench.series,
                                        bench.it.ThresholdConfig(d, convention))
            mine = tracer.spans[mark:]
            result["scan_ns"][conv] = sum(s.end - s.start for s in mine
                                          if s.name == "engine.process_arrays")
            result["solo_ns"][conv] = sum(s.end - s.start for s in mine
                                          if s.name == "engine.process")
    finally:
        tracer.uninstall()
    return result


def run_workload(package, oracle, workload: str, seed: int, seconds: float,
                 trace: bool, smoke: bool) -> dict:
    spec = SPECS[workload]
    if smoke:
        # Events per threshold grow like steps * sigma**2; keep them as they
        # are at full size, so that every threshold still has reversals.
        steps = SMOKE_STEPS[workload]
        spec = Spec(spec.sigma * math.sqrt(spec.steps / steps), steps, spec.deltas,
                    spec.conventions)
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = WORKLOADS[workload](package, oracle, workload, seed, spec, work, trace)
        tally = Tally()
        tally.attempt("oracle check", bench.check_oracle)
        stamp = env_stamp(package, workload, seed, spec, seconds)
        if trace:
            records, _, calibration = closed_loop(bench, tally, seconds, traced=True)
            metrics = layer_metrics(bench, records, calibration)
            trace_file = WORK / "traces" / f"{workload}-seed{seed}.json"
            trace_file.parent.mkdir(parents=True, exist_ok=True)
            trace_file.write_text(json.dumps(
                {"env": stamp, "layer_map": LAYER_MAP, "metrics": metrics,
                 "spans": [list(s) for s in bench.tracer.spans]}))
            named = {}
        else:
            records, samples, _ = closed_loop(bench, tally, seconds, traced=False)
            rss_kb = bench.child_rss_kb
            if bench.in_process:
                rss_kb = max(rss_kb, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
            reference = [r for pair, _ in samples for r in pair]
            # op_s is the mean, not the median: the machine's speed comes in
            # phases of seconds, and a median flips between them.
            named = {"setup_s": describe([s for _, s in samples], "s"),
                     "op_s": describe([r[2] for r in records], "s", center=statistics.mean),
                     **stage_metrics(workload, spec, records),
                     "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB", "n": 1},
                     "failed_frac": {"value": tally.failed / tally.attempted,
                                     "unit": "1", "n": tally.attempted},
                     "reference_s": describe(reference, "s")}
            # The speed of the machine changes by up to 2x over minutes, and
            # starting processes most of all. The gated times are scaled by
            # the reference child measured in the same window, which runs
            # no library code, to what they would be on a machine where it
            # takes REFERENCE_S.
            scale = REFERENCE_S / statistics.median(reference)
            metrics = {
                "setup_s": {"value": named["setup_s"]["value"] * scale, "unit": "s"},
                "op_s": {"value": named["op_s"]["value"] * scale, "unit": "s"},
                "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"}}
        return {"env": stamp, "attempted": tally.attempted, "failed": tally.failed,
                "ops": len(records), "metrics": metrics, "named": named}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        extra = f"  n={m['n']}" if "n" in m else ""
        if "tail" in m:
            extra += f"  p{m['tail_pct']:g}={m['tail']:.6g}"
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']:<10}{extra}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for testing the benchmark itself")
    args = parser.parse_args(argv)
    try:
        package, oracle = load_library()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.workload != "all":
        result = run_workload(package, oracle, args.workload, args.seed, args.seconds,
                              bool(args.trace), args.smoke)
        print("env " + json.dumps(result["env"]))
        if result["named"]:
            print_table(f"{args.workload}: {result['ops']} timed operations",
                        result["named"])
        else:
            print_table(f"{args.workload}: per-layer metrics", result["metrics"])
        print(json.dumps({"correct": result["failed"] == 0,
                          "attempted": result["attempted"], "failed": result["failed"],
                          "metrics": result["metrics"]}))
        return 0

    # every workload, untraced then traced: all named metrics in one place
    attempted = failed = 0
    named = {}
    for workload in WORKLOADS:
        for trace in (False, True):
            result = run_workload(package, oracle, workload, args.seed, args.seconds,
                                  trace, args.smoke)
            attempted += result["attempted"]
            failed += result["failed"]
            if trace:
                print_table(f"{workload}: per-layer metrics", result["metrics"])
            else:
                print("env " + json.dumps(result["env"]))
                print_table(f"{workload}: {result['ops']} timed operations",
                            result["named"])
                for name, m in result["named"].items():
                    shared = name in ("setup_s", "op_s", "peak_rss_mb", "failed_frac",
                                      "reference_s")
                    named[f"{workload}.{name}" if shared else name] = m
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": named}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
