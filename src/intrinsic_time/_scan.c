/* Resumable directional-change / overshoot scan over a price array.
 *
 * The C twin of ``engine._scan_python``, operation by operation, because
 * the fold-equivalence and oracle tests compare events bit for bit.
 * ``mode`` is +1 (up) or -1 (down); negating a double is exact, so
 * ``mode * x >= guard`` is the same comparison as ``x >= guard`` in up mode
 * and ``x <= -guard`` in down mode.
 *
 * The runner state comes in through ``s`` and goes back there. Events go
 * to kind (0 = DC, 1 = OS), dir (+1 / -1) and idx (triggering tick); the
 * return value is the number written. The scan stops at the end of the
 * prices, or when an event is due and all ``cap`` slots are full: then
 * ``s->i`` is that event's tick, and a call with fresh buffers resumes
 * there. The stop may fall inside a gap tick's overshoot loop; the trend
 * test is ``>=`` so that the resumed tick, already the extremum, re-enters
 * the loop. On an ordinary tie the loop emits nothing: its first test
 * repeats the one that ended it, or is move(p, p) = 0 right after a DC.
 *
 * xt gets the trend extremum: a DC writes it before resetting ``ext``, so
 * it is that of the trend the DC ends; an OS writes its own price.
 *
 * Build: cc -O2 -fPIC -shared -ffp-contract=off -lm (no fused multiply-add,
 * no fast-math: the arithmetic must round exactly as Python's does).
 */
#include <math.h>
#include <stdint.h>

struct it_state {
    double ext;        /* trend extremum */
    double ref;        /* overshoot reference */
    int64_t i;         /* next tick to read */
    int32_t mode;      /* +1 up, -1 down */
    int32_t confirmed; /* a DC has fired, so overshoots may */
};

static double move(double from, double to, int use_log)
{
    return use_log ? log(to / from) : (to - from) / from;
}

int64_t it_scan(const double *px, int64_t n, double guard, double up_factor,
                double down_factor, int use_log, struct it_state *s,
                int8_t *kind, int8_t *dir, int64_t *idx, double *xt,
                int64_t cap)
{
    double ext = s->ext, ref = s->ref;
    int mode = s->mode, confirmed = s->confirmed;
    int64_t i = s->i, m = 0;

#define EMIT(k, d)                                                         \
    do {                                                                   \
        if (m == cap)                                                      \
            goto out;                                                      \
        kind[m] = (k);                                                     \
        dir[m] = (int8_t)(d);                                              \
        xt[m] = ext;                                                       \
        idx[m++] = i;                                                      \
    } while (0)

    for (; i < n; i++) {
        double p = px[i];
        if (mode * p >= mode * ext) {         /* the trend extends (or ties) */
            ext = p;
            if (confirmed) {
                double factor = mode == 1 ? up_factor : down_factor;
                while (mode * move(ref, p, use_log) >= guard) {
                    EMIT(1, mode);
                    ref = ref * factor;
                }
            }
        } else if (-mode * move(ext, p, use_log) >= guard) {
            EMIT(0, -mode);                   /* retraced: directional change */
            mode = -mode;
            ext = p;
            ref = p;
            confirmed = 1;
        }
    }
#undef EMIT
out:
    *s = (struct it_state){ext, ref, i, mode, confirmed};
    return m;
}
