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
 * After the scan come the tick-file parser and writer that ``io.py`` uses
 * in place of its Python row loop and writer when this unit is loaded.
 *
 * Build: cc -O2 -fPIC -shared -ffp-contract=off -lm (no fused multiply-add,
 * no fast-math: the arithmetic must round exactly as Python's does).
 */
#define _POSIX_C_SOURCE 200809L /* newlocale, uselocale */
#include <errno.h>
#include <locale.h>
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>

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

/* The end of the run of ASCII digits that starts at p. */
static const char *digits(const char *p, const char *end)
{
    while (p < end && *p >= '0' && *p <= '9')
        p++;
    return p;
}

/* Tick rows from buf[*pos] on, each ``-?[0-9]+`` nanoseconds, a comma, a
 * plain-decimal or exponent price (``[0-9]*(.[0-9]*)?([eE][+-]?[0-9]+)?``
 * with at least one mantissa digit) and LF, into ts and px. The return
 * value is the number of rows read. The parse stops at buf[len], after cap
 * rows, or at a row it does not read: one outside that grammar, without
 * its LF, whose timestamp or price is out of range (ERANGE), or whose price
 * is not positive. *pos is left at the start of the next unread row. No
 * byte at or past buf[len] is read, so buf needs no terminator.
 *
 * Everything this grammar accepts, Python's int() and float() read to the
 * same values, so a caller that falls back to its Python reader on any
 * unread row gets the same result either way. strtoll and strtod run in
 * the C locale whatever the process locale is.
 */
int64_t it_parse_ticks(const char *buf, int64_t len, int64_t *pos,
                       int64_t *ts, double *px, int64_t cap)
{
    const char *end = buf + len, *row = buf + *pos;
    int64_t m = 0;
    locale_t c_locale = newlocale(LC_ALL_MASK, "C", (locale_t)0);
    if (c_locale == (locale_t)0)
        return 0;
    locale_t caller = uselocale(c_locale);

    for (; m < cap && row < end; m++) {
        const char *p = row + (*row == '-'), *q = digits(p, end), *r;
        char *stop;
        if (q == p || q == end || *q != ',')
            break;
        errno = 0;
        long long t = strtoll(row, &stop, 10);
        if (stop != q || errno == ERANGE)
            break;

        p = q + 1;
        q = digits(p, end);
        int mantissa = q > p;
        if (q < end && *q == '.') {
            r = digits(q + 1, end);
            mantissa |= r > q + 1;
            q = r;
        }
        if (!mantissa)
            break;
        if (q < end && (*q == 'e' || *q == 'E')) {
            r = q + 1;
            r += r < end && (*r == '+' || *r == '-');
            q = digits(r, end);
            if (q == r)
                break;
        }
        if (q == end || *q != '\n')
            break;
        errno = 0;
        double x = strtod(p, &stop);
        if (stop != q || errno == ERANGE || !(x > 0.0 && x < HUGE_VAL))
            break;
        ts[m] = t;
        px[m] = x;
        row = q + 1;
    }
    uselocale(caller);
    freelocale(c_locale);
    *pos = row - buf;
    return m;
}

/* Longer than any "%lld,%.17g\n" row: 20 + 1 + 24 + 1 characters. */
#define TICK_ROW_MAX 64

/* Tick rows ts[*i], px[*i], ... as "%lld,%.17g\n" into buf, while a
 * longest row still fits in its cap bytes, in the C locale. Returns the
 * bytes written and leaves *i at the next row; -1 when no C locale could
 * be made.
 */
int64_t it_format_ticks(const int64_t *ts, const double *px, int64_t n,
                        int64_t *i, char *buf, int64_t cap)
{
    int64_t k = *i, size = 0;
    locale_t c_locale = newlocale(LC_ALL_MASK, "C", (locale_t)0);
    if (c_locale == (locale_t)0)
        return -1;
    locale_t caller = uselocale(c_locale);

    for (; k < n && cap - size >= TICK_ROW_MAX; k++)
        size += snprintf(buf + size, TICK_ROW_MAX, "%lld,%.17g\n",
                         (long long)ts[k], px[k]);
    uselocale(caller);
    freelocale(c_locale);
    *i = k;
    return size;
}
