"""Tests of the benchmark itself, on its smoke sizes.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMED = {"setup_s", "grid_rel_mevals_per_s", "grid_log_mevals_per_s", "generate_s",
         "transform_s", "scaling_s", "decompose_s", "dense_transform_s",
         "event_read_s", "op_s", "peak_rss_mb", "failed_frac", "reference_s"}


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc, proc.stdout.strip().splitlines()


def test_walk_matches_library_generator(tmp_path):
    import intrinsic_time as it

    ts, px = run.gbm_walk(9, 1e-3, 500)
    series = it.generate_gbm(it.GbmParams(s0=1.0, mu=0.0, sigma=1e-3, dt_step=1.0,
                                          n_steps=500, seed=9))
    it.write_ticks(series, tmp_path / "ticks.csv")
    assert np.array_equal(series.timestamps, ts)
    assert np.array_equal(series.prices, px)
    assert (tmp_path / "ticks.csv").read_bytes() == run.tick_csv(ts, px)


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(19))) is None
    assert run.tail(list(range(1, 21))) == (50.0, 10)
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    assert run.tail([float(i) for i in range(1, 101)], higher_is_better=True) == (90.0, 11.0)


def test_self_time_subtracts_union_of_children():
    s = spans.Span
    tree = [s("1", "a", 0, 100, None, 0),
            s("2", "b", 10, 60, "1", 0), s("3", "b", 40, 70, "1", 0),
            s("4", "c", 20, 30, "2", 0)]
    assert spans.self_times_ns(tree) == {"1": 40, "2": 40, "3": 30, "4": 10}


def test_each_workload_reports_the_declared_metrics():
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    layers = {m["name"] for m in SPEC["per_layer"]}
    for workload, trace, names in (("grid_scan", "0", e2e),
                                   ("dense_events", "1", layers)):
        proc, lines = bench("--workload", workload, "--seed", "4", "--seconds", "0.2",
                            "--trace", trace, "--smoke")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == names
        assert all(m["value"] > 0 for n, m in result["metrics"].items() if n in e2e)


def test_all_workloads_correct_with_every_named_metric():
    proc, lines = bench("--workload", "all", "--seed", "2", "--seconds", "0.2",
                        "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    names = {n.split(".", 1)[-1] for n in result["metrics"]}
    assert names == NAMED
    for m in result["metrics"].values():
        assert {"value", "unit", "n"} <= set(m)
    assert sum(m["value"] for n, m in result["metrics"].items()
               if n.endswith("failed_frac")) == 0
    assert any(ln.startswith("env ") and '"kernel"' in ln for ln in lines)


def test_scaling_scans_twice_per_threshold():
    proc, lines = bench("--workload", "cli_pipeline", "--seed", "3", "--seconds", "0.2",
                        "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(lines[-1])["metrics"]
    grid = len(run.SPECS["cli_pipeline"].deltas)
    assert metrics["engine.process_arrays.calls.scaling"]["value"] == 2 * grid
    assert metrics["engine.process_arrays.calls.transform"]["value"] == grid


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "grid_scan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170,
                          env=env)
    assert proc.returncode != 0
    assert not any(ln.startswith("{") for ln in proc.stdout.splitlines())
