"""Brute-force reference for the event transform, independent of the library.

Deliberately naive: the trend extremum is recomputed from the stored
price prefix at every tick instead of being carried forward, events are
plain tuples, and there is no batching or compilation. Shares only the
documented contract with the engine: moves are (p - base) / base or
ln(p / base), a move of at least delta * (1 - 1e-12) triggers, and the
overshoot reference advances multiplicatively by one threshold per
overshoot.
"""

import math

import numpy as np

UP, DOWN = 1, -1


class EndlessScan(ArithmeticError):
    """An overshoot is due but one threshold step cannot move its reference."""


def reference_events(timestamps, prices, delta, use_log=False, initial_mode=UP):
    """Return [(kind, direction, timestamp, price, tick_index), ...].

    kind is "DC" or "OS"; direction is +1 (up) or -1 (down). Raises
    EndlessScan at an overshoot whose step would leave the reference price
    where it is (``ref * factor == ref``), where the loop would never end.
    """
    px = np.asarray(prices, dtype=np.float64)
    ts = list(timestamps)
    guard = delta * (1.0 - 1e-12)
    up_factor = math.exp(delta) if use_log else 1.0 + delta
    down_factor = math.exp(-delta) if use_log else 1.0 - delta

    def move(base, price):
        return math.log(price / base) if use_log else (price - base) / base

    def stuck(ref, factor, i):
        if ref * factor == ref:  # the step cannot move the reference: no end
            raise EndlessScan(f"an overshoot step from {ref!r} rounds back to it at tick {i}")

    events = []
    mode = initial_mode
    trend_start = 0          # prefix window of the current trend
    confirm_price = None     # unset until the first DC
    os_ref = None

    for i in range(1, len(px)):
        p = float(px[i])
        if confirm_price is not None:
            if mode == UP:
                while move(os_ref, p) >= guard:
                    stuck(os_ref, up_factor, i)
                    events.append(("OS", UP, ts[i], p, i))
                    os_ref = os_ref * up_factor
            else:
                while move(os_ref, p) <= -guard:
                    stuck(os_ref, down_factor, i)
                    events.append(("OS", DOWN, ts[i], p, i))
                    os_ref = os_ref * down_factor
        window = px[trend_start:i + 1]
        ext = float(window.max()) if mode == UP else float(window.min())
        mv = move(ext, p)
        if mode == UP and mv <= -guard:
            events.append(("DC", DOWN, ts[i], p, i))
            mode, trend_start, confirm_price, os_ref = DOWN, i, p, p
        elif mode == DOWN and mv >= guard:
            events.append(("DC", UP, ts[i], p, i))
            mode, trend_start, confirm_price, os_ref = UP, i, p, p
    return events


def reference_overshoots(prices, events, use_log=False):
    """Per completed DC-to-DC segment: |move| from confirm price to extremum."""
    px = np.asarray(prices, dtype=np.float64)
    dcs = [(ev[4], ev[3], ev[1]) for ev in events if ev[0] == "DC"]
    out = []
    for (i0, confirm, direction), (i1, _, _) in zip(dcs, dcs[1:]):
        window = px[i0:i1 + 1]
        ext = float(window.max()) if direction == UP else float(window.min())
        mv = math.log(ext / confirm) if use_log else (ext - confirm) / confirm
        out.append(abs(mv))
    return out
