"""Acceptance suite: one test per shipping criterion, strictest reading.

Statistical criteria run on frozen seeds, so every number asserted here
is deterministic. Expected ranges were established with an independent
Monte-Carlo calibration of diffusive inputs (drift-free log-price walks),
where the per-segment overshoot length is exponentially distributed with
mean one threshold and the reversal count scales like the inverse square
of the threshold.
"""

import time

import numpy as np
import pytest

import intrinsic_time as it
from oracle_reference import reference_events

NS = 1_000_000_000

WALK_SIGMA = 1e-4
WALK_STEPS = 10**6
WALK_SEEDS = tuple(range(1000, 1010))
DELTA_GRID = (0.001, 0.002, 0.004, 0.008)

DC = it.EventKind.DIRECTIONAL_CHANGE


def make_brownian_walk(seed, n_steps=WALK_STEPS, sigma=WALK_SIGMA):
    """Zero-drift Brownian log-price walk, one tick per second."""
    return it.generate_gbm(it.GbmParams(s0=1.0, mu=0.5 * sigma**2, sigma=sigma,
                                        dt_step=1.0, n_steps=n_steps, seed=seed))


@pytest.fixture(scope="module")
def walk_stats():
    """Per-walk, per-threshold event statistics on the frozen seeds."""
    t0 = time.perf_counter()
    stats = {}
    walks = {}
    for seed in WALK_SEEDS:
        walk = make_brownian_walk(seed)
        walks[seed] = walk
        per_delta = {}
        for delta in DELTA_GRID:
            cfg = it.ThresholdConfig(delta)
            arrays = it.process_arrays(walk, cfg)
            events = it.events_from_arrays(arrays)
            omegas = it.overshoot_lengths(arrays)
            summary = it.summarize(delta, events)
            per_delta[delta] = (summary, omegas)
        stats[seed] = per_delta
    elapsed = time.perf_counter() - t0
    return walks, stats, elapsed


def test_oracle_equivalence_bulk():
    """1000 random sequences, both conventions: engine equals brute force exactly."""
    rng = np.random.default_rng(2024)
    # warm the compiled kernel outside the timed region
    it.process([(0, 1.0), (1, 2.0)], it.ThresholdConfig(0.01))

    checked = 0
    t0 = time.perf_counter()
    for i in range(1000):
        n = int(rng.integers(2, 1001))
        delta = float(rng.uniform(0.001, 0.05))
        use_log = bool(i % 2)
        init_mode = it.Mode.UP if i % 4 < 2 else it.Mode.DOWN
        sigma = delta * float(rng.uniform(0.3, 2.0))
        steps = rng.normal(0.0, sigma, n - 1)
        if i % 5 == 0:
            # grid-exact moves stress the threshold boundary
            steps = rng.integers(-2, 3, n - 1) * np.log(1.0 + delta)
        if i % 7 == 0:
            steps[rng.random(n - 1) < 0.2] = 0.0  # tied prices
        prices = 100.0 * np.exp(np.concatenate(([0.0], np.cumsum(steps))))
        timestamps = np.cumsum(rng.integers(0, 3, n)).astype(np.int64)
        series = it.TickSeries(timestamps, prices)

        convention = (it.MoveConvention.LOG_RETURN if use_log
                      else it.MoveConvention.RELATIVE)
        events = it.process(series, it.ThresholdConfig(delta, convention),
                            init_mode)
        expected = reference_events(timestamps.tolist(), prices, delta,
                                    use_log, init_mode.value)
        got = [(e.kind.value, e.direction.value, e.timestamp, e.price)
               for e in events]
        assert got == [(k, d, t, p) for k, d, t, p, _ in expected], \
            f"sequence {i} diverged (delta={delta}, log={use_log})"
        checked += len(events)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"
    print(f"\n[PASS] oracle equivalence: 1000 random sequences, "
          f"{checked} events, exact match in {elapsed:.1f}s")


def test_runner_synchronization_after_two_dcs():
    """Up- and down-initialized runners agree from the later second DC on."""
    for seed in range(100):
        walk = it.generate_random_walk(1.0, 0.004, 4000, seed=seed)
        cfg = it.ThresholdConfig(0.005)
        tails = []
        for mode in (it.Mode.UP, it.Mode.DOWN):
            events = it.process(walk, cfg, mode)
            dc_pos = [i for i, e in enumerate(events) if e.kind is DC]
            assert len(dc_pos) >= 2, f"seed {seed}: too few DCs to compare"
            tails.append([(e.kind, e.direction, e.timestamp, e.price)
                          for e in events[dc_pos[1]:]])
        short, long_ = sorted(tails, key=len)
        assert long_[len(long_) - len(short):] == short, \
            f"seed {seed}: streams disagree after the second DC"
    print("\n[PASS] synchronization: 100 walks, streams identical after the "
          "second DC, zero tolerance")


def test_mean_overshoot_ratio_within_band(walk_stats):
    """Average overshoot per threshold stays within [0.8, 1.2] on every walk."""
    walks, stats, elapsed = walk_stats
    pooled = {delta: [] for delta in DELTA_GRID}
    for seed in WALK_SEEDS:
        for delta in DELTA_GRID:
            _, omegas = stats[seed][delta]
            ratio = it.mean_overshoot_ratio(omegas, delta)
            assert 0.8 <= ratio <= 1.2, \
                f"seed {seed} delta {delta}: ratio {ratio:.3f} out of band"
            pooled[delta].append(omegas)
    pooled_ratios = {
        delta: float(np.mean(np.concatenate(chunks))) / delta
        for delta, chunks in pooled.items()
    }
    assert elapsed < 60.0, f"walk statistics took {elapsed:.1f}s"
    summary = ", ".join(f"{d}: {r:.3f}" for d, r in pooled_ratios.items())
    print(f"\n[PASS] mean overshoot/threshold in [0.8, 1.2] on all 10 walks; "
          f"pooled ratios {{{summary}}}; stats computed in {elapsed:.1f}s")


def test_dc_count_power_law(walk_stats):
    """Reversal counts follow ~ delta^-2 with a tight log-log fit, per walk."""
    _, stats, _ = walk_stats
    slopes = []
    for seed in WALK_SEEDS:
        points = [(delta, stats[seed][delta][0].n_dc) for delta in DELTA_GRID]
        fit = it.fit_power_law(points)
        assert -2.15 <= fit.b <= -1.85, f"seed {seed}: b = {fit.b:.3f}"
        assert fit.r_squared > 0.99, f"seed {seed}: r2 = {fit.r_squared:.4f}"
        slopes.append(fit.b)
    mean_counts = [(delta, np.mean([stats[s][delta][0].n_dc for s in WALK_SEEDS]))
                   for delta in DELTA_GRID]
    pooled = it.fit_power_law(mean_counts)
    print(f"\n[PASS] dc-count power law: per-walk b in "
          f"[{min(slopes):.3f}, {max(slopes):.3f}], all within [-2.15, -1.85], "
          f"r2 > 0.99; pooled b = {pooled.b:.3f}, r2 = {pooled.r_squared:.5f}")


def test_decomposition_ratio_stability(walk_stats):
    """lhs/rhs ratios agree across the grid: cv < 0.3 on every walk."""
    walks, _, _ = walk_stats
    cvs = []
    for seed in WALK_SEEDS:
        report = it.decompose(walks[seed], DELTA_GRID, 100 * NS)
        assert not report.degenerate
        assert all(not row.insufficient for row in report.rows), \
            f"seed {seed}: insufficient rows"
        assert report.ratio_cv < 0.3, f"seed {seed}: cv = {report.ratio_cv:.3f}"
        cvs.append(report.ratio_cv)
    print(f"\n[PASS] decomposition: ratio_cv < 0.3 on all 10 walks "
          f"(max {max(cvs):.3f})")


def test_coastline_monotone_and_identity(walk_stats):
    """Coastline never grows with the threshold; identity holds exactly."""
    _, stats, _ = walk_stats
    for seed in WALK_SEEDS:
        coastlines = []
        for delta in DELTA_GRID:
            summary, _ = stats[seed][delta]
            assert summary.coastline == (summary.n_dc + summary.n_os) * delta
            coastlines.append(summary.coastline)
        assert all(a >= b for a, b in zip(coastlines, coastlines[1:])), \
            f"seed {seed}: coastline increased with threshold: {coastlines}"
    print("\n[PASS] coastline: identity exact and non-increasing in the "
          "threshold on all 10 walks")


def test_power_law_exact_recovery():
    """1000 synthetic exact laws recovered to 1e-10 relative error."""
    rng = np.random.default_rng(7)
    worst_a = worst_b = 0.0
    for _ in range(1000):
        a = float(10.0 ** rng.uniform(-6, 6))
        b = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 5.0))
        n = int(rng.integers(3, 13))
        decades = float(rng.uniform(1.0, 6.0))
        x = np.geomspace(1.0, 10.0**decades, n) * rng.uniform(0.9, 1.1, n)
        x = np.unique(x)
        y = a * x**b
        fit = it.fit_power_law(list(zip(x, y)))
        err_a = abs(fit.a - a) / a
        err_b = abs(fit.b - b) / abs(b)
        worst_a, worst_b = max(worst_a, err_a), max(worst_b, err_b)
        assert err_a <= 1e-10 and err_b <= 1e-10
    print(f"\n[PASS] exact-fit regression: 1000 draws, worst relative error "
          f"a {worst_a:.2e}, b {worst_b:.2e} (tolerance 1e-10)")


def test_cli_determinism_and_serialization_roundtrip(tmp_path):
    """Same seed, same bytes; event files parse back to the same objects."""
    from intrinsic_time.cli import cli_main

    def run_pipeline(base):
        base.mkdir()
        ticks = base / "ticks.csv"
        assert cli_main(["generate", "--model", "gbm", "--sigma", "0.002",
                         "--mu", "0", "--steps", "100000", "--seed", "99",
                         "--out", str(ticks)]) == 0
        assert cli_main(["transform", "--in", str(ticks), "--deltas",
                         "0.002,0.004,0.008", "--out-dir",
                         str(base / "events")]) == 0
        assert cli_main(["scaling", "--in", str(ticks), "--deltas",
                         "0.002,0.004,0.008", "--out",
                         str(base / "scaling.csv")]) == 0
        assert cli_main(["decompose", "--in", str(ticks), "--deltas",
                         "0.002,0.004,0.008", "--dt-seconds", "50",
                         "--out", str(base / "decomp.csv")]) == 0
        return {p.relative_to(base): p.read_bytes()
                for p in sorted(base.rglob("*")) if p.is_file()}

    first = run_pipeline(tmp_path / "run1")
    second = run_pipeline(tmp_path / "run2")
    assert first.keys() == second.keys()
    assert first == second, "pipeline outputs differ between identical runs"

    rng = np.random.default_rng(17)
    kinds = [it.EventKind.DIRECTIONAL_CHANGE, it.EventKind.OVERSHOOT]
    modes = [it.Mode.UP, it.Mode.DOWN]
    for case in range(100):
        events = [
            it.IntrinsicEvent(
                kind=kinds[int(rng.integers(2))],
                direction=modes[int(rng.integers(2))],
                timestamp=int(rng.integers(0, 2**60)),
                price=float(10.0 ** rng.uniform(-4, 6)),
                delta=float(rng.uniform(1e-5, 0.5)),
                clock_index=i,
            )
            for i in range(int(rng.integers(0, 50)))
        ]
        for fmt in (it.EventFileFormat.CSV, it.EventFileFormat.JSONL):
            path = tmp_path / f"case{case}.{fmt.value}"
            it.write_events(events, path, fmt)
            assert it.read_events(path, fmt) == events
    print("\n[PASS] determinism and round-trip: pipeline byte-identical "
          f"({len(first)} files); 100 random event lists lossless in CSV "
          "and JSONL")


def test_engine_throughput():
    """A 10-threshold grid over 1e7 ticks finishes in under 5 seconds."""
    series = make_brownian_walk(2028, n_steps=10**7)
    grid = [float(d) for d in np.geomspace(0.002, 0.02, 10)]
    warmup = it.TickSeries(series.timestamps[:1000], series.prices[:1000])
    it.run_grid(warmup, grid)  # compile the kernel outside the timed region

    t0 = time.perf_counter()
    results = it.run_grid(series, grid)
    elapsed = time.perf_counter() - t0
    n_events = sum(len(events) for _, events in results)
    assert len(results) == 10
    assert n_events > 0
    assert elapsed < 5.0, f"grid run took {elapsed:.2f}s"
    rate = 10 * len(series) / elapsed / 1e6
    print(f"\n[PASS] throughput: 10 thresholds x {len(series):,} ticks in "
          f"{elapsed:.2f}s ({rate:.0f}M tick-evaluations/s), {n_events} events, "
          f"{it.kernel_backend()} kernel")
