"""Walk through the event transform on a small hand-made price path.

Run:  python3 demos/01_single_threshold_events.py
"""

import intrinsic_time as it

# A price path with one clean down trend and a rebound. The threshold is
# 1%, so the drop from 100 to 99 confirms a down move, the slide to 98.01
# extends it by exactly one more threshold, and the jump back above 99
# flips the trend.
ticks = [
    (0, 100.00),
    (1, 100.30),
    (2, 99.00),
    (3, 98.01),
    (4, 97.50),
    (5, 99.10),
    (6, 100.20),
]
config = it.ThresholdConfig(delta=0.01)

print("tick-by-tick view (threshold 1%):\n")
state = it.new_runner(config, it.Tick(*ticks[0]))
print(f"  t=0  price=100.00  start in {state.mode.name} mode")
for raw in ticks[1:]:
    tick = it.Tick(*raw)
    state, events = it.step(state, tick, config)
    if not events:
        print(f"  t={tick.timestamp}  price={tick.price:7.2f}  (no event, "
              f"extremum {state.extremum_price:.2f})")
    for ev in events:
        label = ("directional change"
                 if ev.kind is it.EventKind.DIRECTIONAL_CHANGE else "overshoot")
        print(f"  t={tick.timestamp}  price={tick.price:7.2f}  -> {label} "
              f"{ev.direction.name}, intrinsic clock {ev.clock_index}")

print("\nbatch view gives the identical sequence:")
arrays = it.process_arrays(ticks, config)
for ev in it.events_from_arrays(arrays):
    print(f"  {ev.kind.value} {ev.direction.name:<4} at t={ev.timestamp} "
          f"price={ev.price}")

omegas = it.overshoot_lengths(arrays)
print(f"\ncompleted trend segments: {len(omegas)}; "
      f"overshoot lengths: {[round(w, 5) for w in omegas.tolist()]}")
print("(each one measures how far the trend ran past its confirmation price)")
