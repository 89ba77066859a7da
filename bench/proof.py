"""Repeat the benchmark over several seeds and report the run-to-run spread.

    python3 bench/proof.py --runs 10 --first-seed 1 --out bench/trajectory/FILE.json

Runs the command in ``BENCHMARK.json`` once per seed and workload, one run
at a time, then prints for every end-to-end metric the median, the
quartiles and their distance as a share of the median (the spread), next
to a third of the metric's bound. ``--traced`` adds one traced run per
workload for the per-layer metrics. ``--out`` writes everything,
environment stamps included, as one JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command: list[str], workload: str, seed: int, seconds: int,
             trace: int) -> tuple[dict, dict]:
    argv = [sys.executable if command[0] == "python3" else command[0], *command[1:],
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-3000:]}")
    env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), {})
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result, env


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2,
            "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"runs": args.runs, "seconds": args.seconds, "workloads": {}}
    steady = True
    for workload in args.workloads:
        results, envs = [], []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, env = run_once(spec["command"], workload, seed, args.seconds, 0)
            results.append(result)
            envs.append(env)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"wall={result['wall_s']:.1f}s", flush=True)
        entry = {"env": envs[0], "correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "max_wall_s": max(r["wall_s"] for r in results), "metrics": {}}
        for name, bound in bounds.items():
            stats = spread([r["metrics"][name]["value"] for r in results])
            stats["bound"] = bound
            entry["metrics"][name] = stats
            ok = stats["spread"] < bound / 3 or name == "setup_s"
            steady &= ok
            print(f"  {name:<14} median={stats['median']:.6g} "
                  f"q1={stats['q1']:.6g} q3={stats['q3']:.6g} "
                  f"spread={stats['spread']:.4f} (bound/3={bound / 3:.4f})"
                  f"{'' if ok else '  NOT STEADY'}", flush=True)
        if args.traced:
            result, _ = run_once(spec["command"], workload, args.first_seed,
                                 args.seconds, 1)
            entry["per_layer"] = result["metrics"]
            entry["traced_correct"] = result["correct"]
        report["workloads"][workload] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    print("steady" if steady else "NOT steady")
    return 0


if __name__ == "__main__":
    sys.exit(main())
