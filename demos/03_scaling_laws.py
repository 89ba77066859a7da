"""Two regularities of event counts and overshoots on diffusive data.

First, the number of directional changes falls off as a power of the
threshold; on a drift-free walk the exponent sits near -2 (halving the
threshold quadruples the reversal count). Second, the average overshoot
length of a completed trend segment is close to one threshold, at every
threshold, even though individual segments vary wildly around it.

Run:  python3 demos/03_scaling_laws.py
"""

import numpy as np

import intrinsic_time as it

sigma = 1e-4
walk = it.generate_gbm(it.GbmParams(
    s0=1.0, mu=0.5 * sigma**2, sigma=sigma, dt_step=1.0,
    n_steps=1_000_000, seed=4))
grid = [0.001, 0.002, 0.004, 0.008]

rows = []
print(f"{'threshold':>10} {'n_dc':>8} {'mean overshoot / threshold':>28}")
for delta in grid:
    arrays = it.process_arrays(walk, it.ThresholdConfig(delta))
    ratio = it.mean_overshoot_ratio(it.overshoot_lengths(arrays), delta)
    rows.append((delta, arrays.n_dc))
    print(f"{delta:>10.4f} {arrays.n_dc:>8} {ratio:>28.3f}")

fit = it.fit_power_law(rows)
print(f"\nreversal-count fit: n_dc = {fit.a:.3g} * threshold^{fit.b:.3f}")
print(f"log-log r-squared {fit.r_squared:.5f}, "
      f"exponent standard error {fit.stderr_b:.3f}")

# the mean overshoot hides a lot of spread: most segments stop short of
# one threshold, a few run several thresholds deep
omegas = it.overshoot_lengths(it.process_arrays(walk, it.ThresholdConfig(0.002)))
q = np.percentile(omegas / 0.002, [10, 50, 90, 99])
print(f"\novershoot / threshold percentiles at 0.2%: "
      f"p10={q[0]:.2f} median={q[1]:.2f} p90={q[2]:.2f} p99={q[3]:.2f}")
print(f"mean={np.mean(omegas) / 0.002:.2f} over {omegas.size} segments")
