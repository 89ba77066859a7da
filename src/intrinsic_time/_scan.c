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
 * After the scan come the tick-file parser and writer and the event-file
 * parser that ``io.py`` uses in place of its Python row loops and writer
 * when this unit is loaded.
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

/* The field readers below are inlined into it_parse_events: as functions
 * of their own, the compiler would place them before it_scan and move it. */
#define FIELD static inline __attribute__((always_inline))

/* The end of the text lit at p, or NULL when p does not start with it. */
FIELD const char *literal(const char *p, const char *end, const char *lit)
{
    for (; *lit; lit++, p++)
        if (p == end || *p != *lit)
            return NULL;
    return p;
}

/* The end of a at p, else of b at p (then *second is set), else NULL. */
FIELD const char *either(const char *p, const char *end, const char *a,
                          const char *b, int *second)
{
    const char *q = literal(p, end, a);
    *second = q == NULL;
    return q != NULL ? q : literal(p, end, b);
}

/* The end of a JSON integer ``-?(0|[1-9][0-9]*)`` at p (without the minus
 * when sign is 0), or NULL. */
FIELD const char *integer(const char *p, const char *end, int sign)
{
    p += sign && p < end && *p == '-';
    if (p == end || *p < '0' || *p > '9')
        return NULL;
    return *p == '0' ? p + 1 : digits(p, end);
}

/* The end of a JSON number ``-?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?``
 * at p, or NULL. */
FIELD const char *number(const char *p, const char *end)
{
    const char *q = integer(p, end, 1), *r;
    if (q != NULL && q < end && *q == '.') {
        r = digits(q + 1, end);
        q = r > q + 1 ? r : NULL;
    }
    if (q != NULL && q < end && (*q == 'e' || *q == 'E')) {
        r = q + 1;
        r += r < end && (*r == '+' || *r == '-');
        q = digits(r, end);
        q = q > r ? q : NULL;
    }
    return q;
}

/* An integer field at p, read by strtoll into *out, followed by the text
 * next: the end of next, or NULL when the field is outside the grammar or
 * int64. Checking next first keeps strtoll inside the buffer. */
FIELD const char *int_field(const char *p, const char *end, int sign,
                             const char *next, int64_t *out)
{
    const char *q = integer(p, end, sign), *r;
    char *stop;
    if (q == NULL || (r = literal(q, end, next)) == NULL)
        return NULL;
    errno = 0;
    *out = strtoll(p, &stop, 10);
    return stop == q && errno != ERANGE ? r : NULL;
}

/* A number field at p, read by strtod into *out, followed by the text next:
 * the end of next, or NULL when the field is outside the grammar, ERANGE or
 * not in (0, hi). */
FIELD const char *real_field(const char *p, const char *end, double hi,
                              const char *next, double *out)
{
    const char *q = number(p, end), *r;
    char *stop;
    if (q == NULL || (r = literal(q, end, next)) == NULL)
        return NULL;
    errno = 0;
    *out = strtod(p, &stop);
    return stop == q && errno != ERANGE && *out > 0.0 && *out < hi ? r : NULL;
}

/* The text before each of the six fields of an event row and after the
 * last, as ``_write_event_rows`` writes them: CSV, then JSON Lines. */
static const char *const EVENT_SEP[2][7] = {
    {"", ",", ",", ",", ",", ",", "\n"},
    {"{\"kind\":\"", "\",\"direction\":\"", "\",\"timestamp_ns\":", ",\"price\":",
     ",\"delta\":", ",\"clock_index\":", "}\n"},
};

/* Event rows from buf[*pos] on, in the exact layout ``_write_event_rows``
 * writes (CSV when jsonl is 0, JSON Lines otherwise), into kind (0 = DC,
 * 1 = OS), dir (+1 up, -1 down), ts, px, delta and clock. The fields are
 * ``DC|OS``, ``up|down``, a ``-?(0|[1-9][0-9]*)`` timestamp, a price and a
 * delta in the JSON number grammar, and a ``0|[1-9][0-9]*`` clock index.
 * The return value is the number of rows read. The parse stops at
 * buf[len], after cap rows, or at a row it does not read: one outside that
 * layout, without its LF, with a number out of range (ERANGE), a price
 * that is not in (0, inf) or a delta that is not in (0, 1). *pos is left
 * at the start of the next unread row. No byte at or past buf[len] is read.
 *
 * Everything this grammar accepts, the Python row loop reads to the same
 * values without an error, so a caller that falls back to it on any
 * unread row gets the same result either way. strtoll and strtod run in
 * the C locale whatever the process locale is.
 */
int64_t it_parse_events(const char *buf, int64_t len, int64_t *pos, int jsonl,
                        int8_t *kind, int8_t *dir, int64_t *ts, double *px,
                        double *delta, int64_t *clock, int64_t cap)
{
    const char *const *sep = EVENT_SEP[jsonl != 0];
    const char *end = buf + len, *row = buf + *pos;
    int64_t m = 0;
    locale_t c_locale = newlocale(LC_ALL_MASK, "C", (locale_t)0);
    if (c_locale == (locale_t)0)
        return 0;
    locale_t caller = uselocale(c_locale);

    for (; m < cap && row < end; m++) {
        int os, down;
        const char *p = literal(row, end, sep[0]);
        if (p == NULL || (p = either(p, end, "DC", "OS", &os)) == NULL
            || (p = literal(p, end, sep[1])) == NULL
            || (p = either(p, end, "up", "down", &down)) == NULL
            || (p = literal(p, end, sep[2])) == NULL
            || (p = int_field(p, end, 1, sep[3], &ts[m])) == NULL
            || (p = real_field(p, end, HUGE_VAL, sep[4], &px[m])) == NULL
            || (p = real_field(p, end, 1.0, sep[5], &delta[m])) == NULL
            || (p = int_field(p, end, 0, sep[6], &clock[m])) == NULL)
            break;
        kind[m] = (int8_t)os;
        dir[m] = down ? -1 : 1;
        row = p;
    }
    uselocale(caller);
    freelocale(c_locale);
    *pos = row - buf;
    return m;
}
