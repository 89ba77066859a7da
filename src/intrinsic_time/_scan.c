/* Resumable directional-change / overshoot scan of a tick stream, block by
 * block, at a grid of thresholds, each tick read once for all of them.
 *
 * Each runner (struct it_runner) is the C twin of ``engine._scan_python``
 * at one threshold: it makes the same decisions, with the same exact tests
 * in the same operations, because the fold-equivalence and oracle tests
 * compare events bit for bit. ``mode`` is +1.0 (up) or -1.0 (down), a
 * double so that the tick loop converts no integer; negating a double is
 * exact, so ``mode * x >= guard`` is the same comparison as ``x >= guard``
 * in up mode and ``x <= -guard`` in down mode.
 *
 * Price bands. Most ticks can fire nothing, and for them a runner skips
 * the exact test and its log or division. A move up reaches guard only at
 * a price above c_up times its base, a move down only below c_dn times it:
 * c_up = exp(guard) (1 - mu) and c_dn = exp(-guard) (1 + mu) in the log
 * convention, 1 + guard - mu and 1 - guard + mu in the relative one, with
 * mu = 2^-30. So the overshoot test runs only at or past os_at = ref * c
 * (c_up up, c_dn down), and the DC test only at or past dc_at = ext * c
 * (c_dn up, c_up down); each band moves when its base does. mu is many
 * orders above every rounding between a band and its exact test: of c_up
 * and c_dn, of p / ref or p - ref and the division (2^-53 each), and of
 * libm's log (1 ulp of a value below 1). Rounding the band product cannot
 * move the band past a tick that fires, as rounding is monotone and every
 * tick is a double; band() keeps that product a normal double, or lets
 * every tick through. The relative margin is added, not multiplied: with
 * (1 - guard)(1 + mu), a delta near 1 would leave a margin of mu (1 - guard),
 * below the rounding of p - ref.
 *
 * Quiet ticks and lazy extremes. A tick that reaches neither band of a
 * runner can change only its trend extremum: in up mode, a tick in
 * [dc_at, os_at] (os_at is +inf before the first DC) fires nothing and sets
 * ext to max(ext, p) and dc_at to the band there. At dc_at the DC
 * test fails, and at os_at the overshoot test, as each band ends mu short
 * of its trigger; a tie at ext sets ext and dc_at to what they were. Down
 * mode is the mirror image. The scan puts those extensions off: top and
 * bottom are the highest and lowest prices read since the last busy tick,
 * and a tick is quiet for every runner when
 *
 *     lo = max(L, top * cu) <= p <= min(H, bottom * cd) = hi,
 *
 * with L the largest of the up runners' dc_at and the down runners' os_at,
 * H the smallest of the down runners' dc_at and the up runners' os_at, all
 * at the stored ext and ref, cu the largest dc_c of the up runners (0 for
 * none) and cd the smallest of the down runners' (+inf for none). That is
 * exact, as rounding is monotone: the band at an up runner's extremum
 * max(ext, top) is max(ext * c, top * c), and the largest top * c over the
 * up runners is top * cu; likewise down. L and H come from band(), so a
 * band product that is not normal empties the interval. The products with
 * top and bottom are left raw, which is exact where it matters: an up
 * runner whose extremum moves to top has a normal ext * c (else L is
 * +inf), so top * c is normal too, or overflows to +inf, which only raises
 * lo. A down runner's bottom * c cannot overflow below its normal ext * c,
 * but where it is subnormal it may round past the trigger, so a subnormal
 * hi is taken as -inf. A quiet tick costs two compares for the test and
 * two for top and bottom, and a product at a new high or low. After it
 * the scan tries the next four ticks at once, against the bounds that
 * their own high and low make with top and bottom, which are never looser
 * than the bounds of each tick alone; in a dense stretch, with no quiet
 * ticks, that test never runs.
 *
 * Any other tick is busy: each runner first moves ext to top (up) or
 * bottom (down) where that extends its trend, with dc_at, then makes its
 * exact tests as ``_scan_python`` does, and L, H, cu and cd are rebuilt
 * from all runners as they stand after it; top and bottom start again at
 * that tick. The extremes are also moved at the end of the call, and at a
 * stop for the runners after the one that stopped, so that every runner
 * the caller or the next call sees holds its own. A call starts with
 * an empty interval, so that every runner reads its first tick, which may
 * be one whose overshoot loop a full buffer cut short.
 *
 * Events go to each runner's own kind (0 = DC, 1 = OS), dir (+1 / -1), ts,
 * px (the triggering tick's) and xt columns, m of its cap slots written.
 * Each block of ticks is scanned from its tick 0, from the runners' state
 * after the last block. The scan stops at the end of the block, returning
 * -1, or at a runner that cannot go on, returning its index with ``*at`` at
 * that tick: where an event is due and its cap slots are full, or where its
 * overshoot step cannot move ref (ref * factor == ref, for a threshold below
 * the price's rounding or a subnormal ref), a stall, which also sets its
 * ``stall`` to the tick (a full stop leaves it at -1, as ref alone cannot
 * tell: a full buffer at a DC may meet such a ref). A stall ends the scan; a
 * call with a larger buffer resumes every runner at a full stop, which may
 * fall inside a gap tick's overshoot loop; the trend test is ``>=`` so that
 * the resumed tick, already the extremum, re-enters the loop. The runners
 * before the full one have read that tick already, and reading it again is a
 * no-op: a tie, whose overshoot loop emits nothing, because its first test
 * repeats the one that ended it, or is move(p, p) = 0 right after a DC; or a
 * tick that failed the DC test and fails it again.
 *
 * xt gets the trend extremum: a DC writes it before resetting ``ext``, so
 * it is that of the trend the DC ends; an OS writes its own price.
 *
 * After the scan come the tick-file and event-file parsers, then their
 * writers, which ``io.py`` uses in place of its Python row loops and
 * writers when this unit is loaded. Both parsers read their numbers with
 * int_field and real_field, in the JSON number grammar; both writers write
 * "%.17g" with put_g17. These are exact in integer arithmetic for every
 * timestamp, for a price or delta of at most 19 significant digits and 22
 * after the point without an exponent, and for "%.17g" of a double in
 * [1e-6, 2^53); any other number goes to strtod or snprintf, and no value or
 * text depends on which. The event writer formats a JSON Lines price as
 * float.__repr__ does, exactly, for prices in [1e-3, 2^52); it leaves a
 * row with any other price to Python. The parsers and writers switch the
 * calling thread to the C locale and back around their loops, so strtod
 * and snprintf use '.' whatever the process locale; that locale is made
 * once, by it_init, which ``engine._bind_kernel`` calls when it loads this
 * unit.
 *
 * Last comes the event builder, it_build_events, which turns event columns
 * into IntrinsicEvent objects that the cyclic garbage collector does not
 * track, unlike the ones engine._build_events makes, as none can be part of
 * a garbage cycle. It uses the Python C API, so it is compiled only where
 * <Python.h> is found; ``engine`` passes its directory to cc on CPython
 * alone. A build without it, such as the sanitized test program's, keeps
 * everything else.
 *
 * Build: cc -O2 -fPIC -shared -ffp-contract=off [-I<Python include>] -lm
 * (no fused multiply-add, no fast-math: the arithmetic must round exactly
 * as Python's does).
 */
#if defined(__has_include)
#if __has_include(<Python.h>)
#define PY_SSIZE_T_CLEAN
#include <Python.h> /* first, as the C API asks */
#define IT_EVENTS 1
#endif
#endif
#ifndef _POSIX_C_SOURCE
#define _POSIX_C_SOURCE 200809L /* locale_t, uselocale */
#endif
#include <errno.h>
#include <float.h>
#include <locale.h>
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#define BAND_MU 0x1p-30 /* mu, the price bands' margin */

/* The C locale the parsers and writers run in, made once by it_init. */
static locale_t c_locale;

struct it_runner {
    double guard, up_factor, down_factor; /* the threshold (engine._scan_args) */
    int32_t use_log;    /* log moves, else relative */
    int32_t confirmed;  /* a DC has fired, so overshoots may */
    double ext;         /* trend extremum */
    double mode;        /* +1.0 up, -1.0 down */
    double ref;         /* overshoot reference; kept apart from ext, which gcc
                           would otherwise store with it as one (p, p) vector,
                           built on every tick the loop reads */
    int64_t stall;      /* -1, or the tick where an overshoot step cannot move ref */
    int8_t *kind, *dir; /* the event columns */
    int64_t *ts;
    double *px, *xt;
    int64_t cap, m;     /* their slots, and the events written */
    double os_c, dc_c, os_at, dc_at; /* it_scan's own: band factors, bands;
                                        os_at is mode * inf before the first DC */
};

static double move(double from, double to, int use_log)
{
    return use_log ? log(to / from) : (to - from) / from;
}

/* The band at price * c where that product is a normal double, else a
 * band that every tick passes: side * p >= side * band(price, c, side). */
static inline double band(double price, double c, double side)
{
    double b = price * c;
    return b >= DBL_MIN && b <= DBL_MAX ? b : -side * HUGE_VAL;
}

/* Runners [r, end) brought up to top, the highest price read since the last
 * busy tick (up runners), and bottom, the lowest (down runners). */
static inline void catch_up(struct it_runner *r, const struct it_runner *end, double top,
                            double bottom)
{
    for (; r < end; r++) {
        double mode = r->mode, x = mode > 0 ? top : bottom;
        if (mode * x > mode * r->ext) {
            r->ext = x;
            r->dc_at = band(x, r->dc_c, -mode);
        }
    }
}

#define MAX(a, b) ((a) > (b) ? (a) : (b))
#define MIN(a, b) ((a) < (b) ? (a) : (b))

int64_t it_scan(const int64_t *ts, const double *px, int64_t n, int64_t *at,
                struct it_runner *run, int64_t k)
{
    struct it_runner *const end = run + k, *r;
    int64_t i = *at;
    double lo = HUGE_VAL, hi = -HUGE_VAL;  /* the quiet interval, empty */
    double top = -HUGE_VAL, bottom = HUGE_VAL, cu = 0, cd = HUGE_VAL; /* none */

    for (r = run; r < end; r++) {
        double g = r->guard, mode = r->mode;
        double c_up = r->use_log ? exp(g) * (1 - BAND_MU) : 1 + g - BAND_MU;
        double c_dn = r->use_log ? exp(-g) * (1 + BAND_MU) : 1 - g + BAND_MU;
        r->os_c = mode > 0 ? c_up : c_dn;
        r->dc_c = mode > 0 ? c_dn : c_up;
        r->os_at = r->confirmed ? band(r->ref, r->os_c, mode) : mode * HUGE_VAL;
        r->dc_at = band(r->ext, r->dc_c, -mode);
    }

#define EMIT(code, d)                                                      \
    do {                                                                   \
        if (r->m == r->cap)                                                \
            goto stop;                                                     \
        r->kind[r->m] = (code);                                            \
        r->dir[r->m] = (int8_t)(d);                                        \
        r->ts[r->m] = ts[i];                                               \
        r->px[r->m] = p;                                                   \
        r->xt[r->m++] = r->ext;                                            \
    } while (0)

    for (; i < n; i++) {
        const double p = px[i];
        if (lo <= p && p <= hi) {             /* quiet for every runner */
            if (p > top) {                    /* up runners' extremes to move */
                top = p;
                lo = MAX(lo, p * cu);
            }
            if (p < bottom) {                 /* down runners' */
                bottom = p;
                hi = MIN(hi, p * cd);
                hi = hi >= DBL_MIN ? hi : -HUGE_VAL; /* not subnormal */
            }
            while (i + 4 < n) {               /* the next four, while all are quiet */
                const double a = px[i + 1], b = px[i + 2], c = px[i + 3], d = px[i + 4];
                const double up = MAX(MAX(a, b), MAX(c, d)), dn = MIN(MIN(a, b), MIN(c, d));
                const double lo4 = MAX(lo, up * cu), hi4 = MIN(hi, dn * cd);
                if (!(lo4 <= dn && up <= hi4 && hi4 >= DBL_MIN))
                    break;
                lo = lo4;
                hi = hi4;
                top = MAX(top, up);
                bottom = MIN(bottom, dn);
                i += 4;
            }
            continue;
        }
        lo = -HUGE_VAL;                       /* busy: rebuilt from every runner */
        hi = HUGE_VAL;
        cu = 0;
        cd = HUGE_VAL;
        for (r = run; r < end; r++) {
            catch_up(r, r + 1, top, bottom);
            double mode = r->mode, ext = r->ext, dc_at = r->dc_at;
            if (mode * p >= mode * ext) {     /* the trend extends (or ties) */
                r->ext = ext = p;
                r->dc_at = dc_at = band(p, r->dc_c, -mode);
                if (mode * p >= mode * r->os_at) {
                    double factor = mode > 0 ? r->up_factor : r->down_factor;
                    while (mode * move(r->ref, p, r->use_log) >= r->guard) {
                        if (r->ref * factor == r->ref) {
                            r->stall = i;     /* a step that cannot move ref */
                            goto stop;
                        }
                        EMIT(1, mode);
                        r->ref *= factor;
                    }
                    r->os_at = band(r->ref, r->os_c, mode);
                }
            } else if (mode * p <= mode * dc_at
                       && -mode * move(ext, p, r->use_log) >= r->guard) {
                EMIT(0, -mode);               /* retraced: directional change */
                double c = r->os_c;           /* the band factors trade sides */
                r->os_c = r->dc_c;
                r->dc_c = c;
                r->mode = mode = -mode;
                r->ref = p;
                r->confirmed = 1;
                r->ext = ext = p;
                r->os_at = band(p, r->os_c, mode);
                r->dc_at = dc_at = band(p, r->dc_c, -mode);
            }
            double os_at = r->os_at, dc_c = r->dc_c;
            if (mode > 0) {
                lo = MAX(lo, dc_at);
                hi = MIN(hi, os_at);
                cu = MAX(cu, dc_c);
            } else {
                lo = MAX(lo, os_at);
                hi = MIN(hi, dc_at);
                cd = MIN(cd, dc_c);
            }
        }
        top = bottom = p;
    }
#undef EMIT
    catch_up(run, end, top, bottom);
    *at = i;
    return -1;
stop:
    catch_up(r + 1, end, top, bottom);
    *at = i;
    return r - run;
}

/* The field readers and writers below are forced inline, so that gcc lays
 * none of them out before it_scan. Left to gcc, real_field is called, not
 * inlined, which slows it_parse_ticks by 8%. */
#define FIELD static inline __attribute__((always_inline))

/* 10^0 .. 10^11: 10^q for q <= 22 is the product of two of them. */
static const uint64_t POW10[12] = {
    1ULL, 10ULL, 100ULL, 1000ULL, 10000ULL, 100000ULL, 1000000ULL, 10000000ULL,
    100000000ULL, 1000000000ULL, 10000000000ULL, 100000000000ULL};

/* 10^q, for 0 <= q <= 22, in 128 bits. */
FIELD unsigned __int128 ten_to(int q)
{
    return (unsigned __int128)POW10[q / 2] * POW10[q - q / 2];
}

/* m 10^q >> shift, the bits shifted out in *rest: the exact arithmetic of
 * both decimal writers, for m 10^q < 2^128 and a quotient below 2^64. */
FIELD uint64_t scaled(uint64_t m, int q, int shift, unsigned __int128 *rest)
{
    unsigned __int128 r = ten_to(q) * m;
    *rest = r & (((unsigned __int128)1 << shift) - 1);
    return (uint64_t)(r >> shift);
}

/* The end of the run of ASCII digits that starts at p, each appended to *w
 * (10 *w + d) by the overflow builtins: UINT64_MAX once it would pass that. */
FIELD const char *digits(const char *p, const char *end, uint64_t *w)
{
    for (; p < end && *p >= '0' && *p <= '9'; p++)
        if (__builtin_mul_overflow(*w, 10, w) || __builtin_add_overflow(*w, *p - '0', w))
            *w = UINT64_MAX;
    return p;
}

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
 * when sign is 0), or NULL. Its digits go to *w as digits() appends them. */
FIELD const char *integer(const char *p, const char *end, int sign, uint64_t *w)
{
    p += sign && p < end && *p == '-';
    if (p == end || *p < '0' || *p > '9')
        return NULL;
    return *p == '0' ? p + 1 : digits(p, end, w);
}

/* The end of a JSON number ``-?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?``
 * at p, or NULL. The digits before the exponent go to *w as digits()
 * appends them, and *k is the number of them after the point, or INT64_MAX
 * with an exponent. */
FIELD const char *number(const char *p, const char *end, uint64_t *w, int64_t *k)
{
    const char *q = integer(p, end, 1, w), *r;
    if (q != NULL && q < end && *q == '.') {
        r = digits(q + 1, end, w);
        *k = r - (q + 1);
        q = r > q + 1 ? r : NULL;
    }
    if (q != NULL && q < end && (*q == 'e' || *q == 'E')) {
        r = q + 1;
        r += r < end && (*r == '+' || *r == '-');
        q = digits(r, end, &(uint64_t){0});
        q = q > r ? q : NULL;
        *k = INT64_MAX;
    }
    return q;
}

/* An integer field at p, read into *out, followed by the text next: the end
 * of next, or NULL when the field is outside the grammar or int64. It is read
 * as integer() checks it, so the text is walked once, exactly over
 * [-2^63, 2^63). */
FIELD const char *int_field(const char *p, const char *end, int sign,
                             const char *next, int64_t *out)
{
    uint64_t w = 0;
    int minus = sign && p < end && *p == '-';
    const char *q = integer(p, end, sign, &w);
    if (q == NULL || w > (uint64_t)INT64_MAX + minus)
        return NULL;
    *out = (int64_t)(minus ? 0 - w : w); /* gcc converts modulo 2^64 */
    return literal(q, end, next);
}

/* A number field at p, read into *out, followed by the text next: the end of
 * next, or NULL when the field is outside the grammar, ERANGE or not in
 * (0, hi). The one place this unit reads a double.
 *
 * A number without an exponent whose digits w, read as number() checks them,
 * stay below 2^64 (any of at most 19 significant digits), k <= 22 of them
 * after the point, is w / 10^k = w / (5^k 2^k) (Clinger, "How to read
 * floating point numbers accurately", PLDI 1990). q = (w << s) / 5^k, in 128
 * bits with 2^62 < q < 2^64, holds its leading bits; the conversion of q to
 * double rounds half to even, with the remainder as a sticky bit in q's last
 * place, and ldexp is exact, as the value is in [1e-22, 2^64). Any other
 * number goes to strtod. Either way *out is the double nearest the text,
 * ties to even, as Python's float() reads it. */
FIELD const char *real_field(const char *p, const char *end, double hi,
                              const char *next, double *out)
{
    uint64_t w = 0;
    int64_t k = 0;
    const char *q = number(p, end, &w, &k), *r;
    if (q == NULL || *p == '-' || (r = literal(q, end, next)) == NULL)
        return NULL;                          /* a minus sign reads as 0 or less */
    if (w != 0 && w != UINT64_MAX && k <= 22) {
        uint64_t five = (uint64_t)(ten_to((int)k) >> k);
        int s = __builtin_clzll(w) + 63 - __builtin_clzll(five);
        unsigned __int128 n = (unsigned __int128)w << s;
        uint64_t quotient = (uint64_t)(n / five);
        *out = ldexp((double)(quotient | ((uint64_t)n != quotient * five)), -s - (int)k);
    } else {
        char *stop;
        errno = 0;
        *out = strtod(p, &stop);
        if (stop != q || errno == ERANGE)
            return NULL;
    }
    return *out > 0.0 && *out < hi ? r : NULL;
}

/* Tick rows from buf[*pos] on, each a ``-?(0|[1-9][0-9]*)`` timestamp in
 * nanoseconds, a comma, a price in the JSON number grammar and LF, into ts
 * and px. The return value is the number of rows read. The parse stops at
 * buf[len], after cap rows, or at a row it does not read: one outside that
 * grammar, without its LF, with a number out of range (ERANGE), or whose
 * price is not positive. *pos is left at the start of the next unread row.
 * No byte at or past buf[len] is read, so buf needs no terminator.
 *
 * Everything this grammar accepts, Python's int() and float() read to the
 * same values, so a caller that falls back to its Python reader on any
 * unread row gets the same result either way. strtod runs in the C locale
 * whatever the process locale is.
 */
int64_t it_parse_ticks(const char *buf, int64_t len, int64_t *pos,
                       int64_t *ts, double *px, int64_t cap)
{
    const char *end = buf + len, *row = buf + *pos;
    int64_t m = 0;
    locale_t caller = uselocale(c_locale);

    for (; m < cap && row < end; m++) {
        const char *p = int_field(row, end, 1, ",", &ts[m]);
        if (p == NULL || (p = real_field(p, end, HUGE_VAL, "\n", &px[m])) == NULL)
            break;
        row = p;
    }
    uselocale(caller);
    *pos = row - buf;
    return m;
}

/* The text before each of the six fields of an event row and after the
 * last, as ``io._event_rows`` writes them: CSV, then JSON Lines. */
static const char *const EVENT_SEP[2][7] = {
    {"", ",", ",", ",", ",", ",", "\n"},
    {"{\"kind\":\"", "\",\"direction\":\"", "\",\"timestamp_ns\":", ",\"price\":",
     ",\"delta\":", ",\"clock_index\":", "}\n"},
};

/* Event rows from buf[*pos] on, in the exact layout ``io._event_rows``
 * writes (CSV when jsonl is 0, JSON Lines otherwise), into kind (0 = DC,
 * 1 = OS), dir (+1 up, -1 down), ts, px, delta and clock. The fields are
 * ``DC|OS``, ``up|down``, a timestamp and a price as in a tick row, a delta
 * in the same number grammar and a ``0|[1-9][0-9]*`` clock index. The parse
 * reads, stops and leaves *pos as it_parse_ticks does, and also stops at a
 * delta that is not in (0, 1).
 *
 * Everything this grammar accepts, the Python row loop reads to the same
 * values without an error, so a caller that falls back to it on any
 * unread row gets the same result either way.
 */
int64_t it_parse_events(const char *buf, int64_t len, int64_t *pos, int jsonl,
                        int8_t *kind, int8_t *dir, int64_t *ts, double *px,
                        double *delta, int64_t *clock, int64_t cap)
{
    const char *const *sep = EVENT_SEP[jsonl != 0];
    const char *end = buf + len, *row = buf + *pos;
    int64_t m = 0;
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
    *pos = row - buf;
    return m;
}

/* The decimal digits of v, written so that they end at end: their start. */
FIELD char *digits_before(char *end, uint64_t v)
{
    do {
        *--end = (char)('0' + v % 10);
        v /= 10;
    } while (v != 0);
    return end;
}

/* The text s at out: the end of it. */
FIELD char *put_text(char *out, const char *s)
{
    while (*s)
        *out++ = *s++;
    return out;
}

/* The n characters at s, at out: the end of them. */
FIELD char *put_chars(char *out, const char *s, int n)
{
    while (n-- > 0)
        *out++ = *s++;
    return out;
}

/* v in decimal at out: the end of it. */
FIELD char *put_int(char *out, int64_t v)
{
    char text[20], *end = text + sizeof text;
    if (v < 0)
        *out++ = '-';
    const char *first = digits_before(end, v < 0 ? -(uint64_t)v : (uint64_t)v);
    return put_chars(out, first, (int)(end - first));
}

/* The n digits at first in fixed notation, with the decimal point point
 * places after the first digit (-point zeros before it when point <= 0),
 * then whole after a whole number: the end of the text at out. */
FIELD char *put_fixed(char *out, const char *first, int n, int point, const char *whole)
{
    if (point <= 0)
        return put_chars(put_chars(out, "0.000", 2 - point), first, n);
    if (point >= n)
        return put_text(put_chars(put_chars(out, first, n), "0000000000000000", point - n),
                        whole);
    out = put_chars(put_chars(out, first, point), ".", 1);
    return put_chars(out, first + point, n - point);
}

/* x as "%.17g" writes it, in the caller's C locale, at out: the end of the
 * text, at most 24 characters. The one place this unit writes "%.17g".
 *
 * A normal x = m 2^e with e < 0 (x < 2^53) and p = 16 - floor(log10 x) in
 * [0, 22] (x >= 1e-6) has the 17 digits D = (m 10^p) >> -e, rounded half to
 * even on the bits shifted out, in 128 bits; p is guessed as in put_repr.
 * D is checked to be in [10^16, 10^17) before and after rounding, then laid
 * out by %g's rules: no trailing zeros, and the exponent form below 1e-4
 * (p > 20). Any other x or D goes to snprintf: the text is the same. */
FIELD char *put_g17(char *out, double x)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    int32_t biased = (int32_t)(bits >> 52);   /* with the sign: 0 for x > 0 */
    uint64_t m = (bits & ((1ULL << 52) - 1)) | (1ULL << 52);
    int32_t e = biased - 1075, p = 15 - (((e + 52) * 78913) >> 18);
    if (biased != 0 && e < 0 && p <= 22) {    /* not 0, subnormal, x >= 2^53, inf, nan, x < 0 */
        unsigned __int128 rest, half = (unsigned __int128)1 << (-e - 1);
        uint64_t d = scaled(m, p, -e, &rest);
        if (d < 10000000000000000ULL && p < 22)
            d = scaled(m, ++p, -e, &rest);
        int full = d >= 10000000000000000ULL;  /* 17 digits before rounding: p is right */
        d += rest > half || (rest == half && d % 2 == 1);
        if (full && d < 100000000000000000ULL) {
            char text[20], *end = text + sizeof text;
            const char *first = digits_before(end, d);
            int n = 17;
            while (first[n - 1] == '0')
                n--;
            out = put_fixed(out, first, n, p <= 20 ? 17 - p : 1, "");
            return p <= 20 ? out : put_text(out, p == 21 ? "e-05" : "e-06");
        }
    }
    return out + snprintf(out, 32, "%.17g", x);
}

/* x as Python's float.__repr__ writes it, at out: the end of the text. NULL
 * when x is not a normal double in [1e-3, 2^52), the range where the exact
 * arithmetic below fits in 128 bits.
 *
 * The digits are Ryu's (Adams, "Ryu: fast float-to-string conversion",
 * PLDI 2018): the shortest that read back to x, and of those the nearest
 * to x, ties to even. Where Ryu takes the bounds of x's rounding interval
 * from tables, they are computed here exactly by scaled(): with x = m 2^e
 * and q = 18 - floor(log10 x), the interval is (vm, vp) around vr in units
 * of 10^-q, where vr, vp and vm are 4m, 4m + 2 and 4m - 1 - (m != 2^52),
 * times 10^q, shifted right by 2 - e. The bits shifted out say whether a
 * value is a whole number of units. The digits are then laid out in
 * repr's fixed form, with ".0" after a whole number. repr takes the
 * exponent form instead when the decimal point is 4 or more places left of
 * the first digit or more than 16 right of it, which no x in the range
 * needs; such an x would be left to Python too.
 */
FIELD char *put_repr(char *out, double x)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    int32_t biased = (int32_t)(bits >> 52);   /* with the sign: 0 for x > 0 */
    uint64_t m = (bits & ((1ULL << 52) - 1)) | (1ULL << 52);
    int32_t e = biased - 1075;                /* x = m 2^e */
    if (biased == 0 || e >= 0)     /* 0, subnormal, x >= 2^52, inf, nan, x < 0 */
        return NULL;
    /* q = 18 - floor(log10 x), guessed from b = floor(log2 x) as
     * 17 - floor(b log10 2): right, or one too small when vr < 10^18 */
    int32_t q = 17 - (((e + 52) * 78913) >> 18), shift = 2 - e;
    if (q > 21)
        return NULL;
    unsigned __int128 r, p, lo;
    uint64_t vr = scaled(4 * m, q, shift, &r);
    if (vr < 1000000000000000000ULL) {
        if (++q > 21)                         /* x < 1e-3 */
            return NULL;
        vr = scaled(4 * m, q, shift, &r);
    }
    uint64_t vp = scaled(4 * m + 2, q, shift, &p),
             vm = scaled(4 * m - 1 - (m != 1ULL << 52), q, shift, &lo);
    int even = (m & 1) == 0;                  /* the bounds round to x */
    int vr_whole = r == 0, vm_whole = even && lo == 0;
    vp -= !even && p == 0;
    int removed = 0, last = 0;
    while (vp / 10 > vm / 10 || (vm_whole && vm % 10 == 0)) {
        vm_whole &= vm % 10 == 0;
        vr_whole &= last == 0;
        last = (int)(vr % 10);
        vr /= 10, vp /= 10, vm /= 10;
        removed++;
    }
    if (vr_whole && last == 5 && vr % 2 == 0)
        last = 4;                             /* a tie rounds to even */
    uint64_t d = vr + ((vr == vm && !vm_whole) || last >= 5);

    char text[20], *end = text + sizeof text;
    const char *first = digits_before(end, d);
    int n = (int)(end - first), point = n + removed - q;
    if (point <= -4 || point > 16)            /* repr's exponent form */
        return NULL;
    return put_fixed(out, first, n, point, ".0");
}

/* Longer than any "%lld,%.17g\n" row: 20 + 1 + 24 + 1 characters. */
#define TICK_ROW_MAX 64

/* Tick rows ts[*i], px[*i], ... as "%lld,%.17g\n" into buf, while a
 * longest row still fits in its cap bytes, in the C locale. Returns the
 * bytes written and leaves *i at the next row.
 */
int64_t it_format_ticks(const int64_t *ts, const double *px, int64_t n,
                        int64_t *i, char *buf, int64_t cap)
{
    int64_t k = *i, size = 0;
    locale_t caller = uselocale(c_locale);

    for (; k < n && cap - size >= TICK_ROW_MAX; k++)
        size = put_text(put_g17(put_text(put_int(buf + size, ts[k]), ","), px[k]),
                        "\n") - buf;
    uselocale(caller);
    *i = k;
    return size;
}

/* Longer than any event row less its delta: 76 characters of field names
 * and separators, kind 2, direction 4, timestamp 20, price 24, clock 20. */
#define EVENT_ROW_MAX 160

/* Event rows *i, *i + 1, ... into buf, in the exact layout
 * ``io._event_rows`` writes (CSV when jsonl is 0, JSON Lines otherwise),
 * while a longest row still fits in its cap bytes. The fields are kind
 * (0 = DC, else OS), dir (+1 up, else down), ts, px, the delta and clock.
 * The rows come in runs of one delta: run r ends before row run_end[r], the
 * last of the runs at the last row, and its delta is text t = run_text[r],
 * the bytes from text[text_at[t]] to text[text_at[t + 1]]. A CSV price is
 * written as a tick row's is (put_g17), a JSON Lines price as
 * float.__repr__ writes it (put_repr). The writer stops before a row whose
 * price is not in (0, inf), or, in JSON Lines, is not in [1e-3, 2^52): a
 * call that writes nothing leaves row *i to the caller. Returns the bytes
 * written; *i is the next row. */
int64_t it_format_events(const int8_t *kind, const int8_t *dir, const int64_t *ts,
                         const double *px, const int64_t *clock, int64_t runs,
                         const int64_t *run_end, const int64_t *run_text,
                         const char *text, const int64_t *text_at, int jsonl,
                         int64_t *i, char *buf, int64_t cap)
{
    const char *const *sep = EVENT_SEP[jsonl != 0];
    int64_t k = *i, size = 0, n = runs > 0 ? run_end[runs - 1] : 0, r = 0, hi = runs;
    while (r < hi) {                          /* r: the run of row k */
        int64_t mid = r + (hi - r) / 2;
        if (run_end[mid] > k)
            hi = mid;
        else
            r = mid + 1;
    }
    locale_t caller = uselocale(c_locale);

    for (; k < n; k++) {
        r += k == run_end[r];
        const char *delta = text + text_at[run_text[r]];
        int64_t delta_len = text + text_at[run_text[r] + 1] - delta;
        if (cap - size < EVENT_ROW_MAX + delta_len)
            break;
        char *out = put_text(buf + size, sep[0]);
        out = put_text(put_text(out, kind[k] ? "OS" : "DC"), sep[1]);
        out = put_text(put_text(out, dir[k] == 1 ? "up" : "down"), sep[2]);
        out = put_text(put_int(out, ts[k]), sep[3]);
        double x = px[k];
        if (!(x > 0.0 && x < HUGE_VAL)) /* "%.17g" writes some NaNs as -nan */
            break;
        out = jsonl ? put_repr(out, x) : put_g17(out, x);
        if (out == NULL)
            break;
        out = put_chars(put_text(out, sep[4]), delta, (int)delta_len);
        size = put_text(put_int(put_text(out, sep[5]), clock[k]), sep[6]) - buf;
    }
    uselocale(caller);
    *i = k;
    return size;
}

/* Makes the C locale the parsers and writers switch to, once: a later call
 * keeps it. Returns 1, or 0 when none can be made; the parsers and writers
 * must not run before a call that returned 1. */
int it_init(void)
{
    if (c_locale == (locale_t)0)
        c_locale = newlocale(LC_ALL_MASK, "C", (locale_t)0);
    return c_locale != (locale_t)0;
}

#ifdef IT_EVENTS
/* A list of the n events of r's columns, each type->tp_alloc(type, 6) with
 * the fields engine._build_events gives it: member[kind], member[2] (up) or
 * member[3] (down), an int timestamp, a float price, the delta and an int
 * clock: delta itself, or a new float of delta_col[i] when delta_col is
 * given, and clock_col[i], or else i. The events are untracked by the
 * cyclic garbage collector, unless they share a delta that is not an exact
 * float. None at the first kind other than 0 or 1, or dir other than +1 or
 * -1; NULL with an exception set when an object cannot be made. */
static PyObject *event_list(PyTypeObject *type, PyObject *const *member,
                            const struct it_runner *r, PyObject *delta,
                            const double *delta_col, const int64_t *clock_col)
{
    PyObject *list = PyList_New((Py_ssize_t)r->m);
    if (list == NULL)
        return NULL;
    int untrack = delta_col != NULL || PyFloat_CheckExact(delta);
    for (int64_t i = 0; i < r->m; i++) {
        if ((r->kind[i] != 0 && r->kind[i] != 1) || (r->dir[i] != 1 && r->dir[i] != -1)) {
            Py_DECREF(list);
            Py_RETURN_NONE;
        }
        PyObject *ev = type->tp_alloc(type, 6);
        if (ev == NULL)
            goto fail;
        /* An event holds only the four members, which live as long as their
         * classes, exact ints and floats, and the shared delta: none of them
         * can refer back to it as garbage, so no garbage cycle runs through
         * it, and the collector need never traverse it. CPython would not
         * untrack it by itself: it untracks only exact tuples, and only
         * those that hold no tracked object, such as an enum member. A
         * shared delta that is not an exact float (only a hand-made
         * EventArrays config gives one) may refer back, and leaves the
         * list's events tracked. */
        if (untrack)
            PyObject_GC_UnTrack(ev);
        PyList_SET_ITEM(list, i, ev);         /* the list frees a part-filled event */
        PyTuple_SET_ITEM(ev, 0, Py_NewRef(member[r->kind[i]]));
        PyTuple_SET_ITEM(ev, 1, Py_NewRef(member[r->dir[i] > 0 ? 2 : 3]));
        PyObject *field[4] = {
            PyLong_FromLongLong(r->ts[i]), PyFloat_FromDouble(r->px[i]),
            delta_col != NULL ? PyFloat_FromDouble(delta_col[i]) : Py_NewRef(delta),
            PyLong_FromLongLong(clock_col != NULL ? clock_col[i] : i)};
        for (int f = 0; f < 4; f++)
            PyTuple_SET_ITEM(ev, f + 2, field[f]);
        if (!field[0] || !field[1] || !field[2] || !field[3])
            goto fail;
    }
    return list;
fail:
    Py_DECREF(list);
    return NULL;
}

/* The IntrinsicEvent objects of k runners' event columns (kind, dir, ts, px,
 * m of them), as a list of k lists: runner j's events get delta deltas[j],
 * a tuple of k objects, and clock 0, 1, ... With a delta column or a clock
 * column (k = 1), they get those instead, as event_list says. type is
 * IntrinsicEvent and members the tuple (DC, OS, Mode.UP, Mode.DOWN).
 *
 * Returns None at the first code event_list does not take, and frees every
 * event built before it: the caller then runs engine._build_events, which
 * is the spec, and raises its own error. An event can be part of no garbage
 * cycle, so the cyclic garbage collector is paused while the events are
 * made, and left as it was, and event_list untracks them: no collection
 * after this call walks or promotes them, as collections do the events
 * engine._build_events makes. The caller holds the GIL: this function is
 * bound through ctypes.PyDLL, and makes no call that could release it, so
 * no other thread runs while the collector is paused. */
PyObject *it_build_events(PyObject *type, PyObject *members, const struct it_runner *run,
                          int64_t k, PyObject *deltas, const double *delta_col,
                          const int64_t *clock_col)
{
    int enabled = PyGC_Disable();
    PyObject *out = PyList_New((Py_ssize_t)k);
    for (int64_t j = 0; out != NULL && j < k; j++) {
        PyObject *events = event_list((PyTypeObject *)type, &PyTuple_GET_ITEM(members, 0),
                                      &run[j], PyTuple_GET_ITEM(deltas, j), delta_col,
                                      clock_col);
        if (events == NULL || events == Py_None) {
            Py_SETREF(out, events); /* and so frees the lists before j */
            break;
        }
        PyList_SET_ITEM(out, j, events);
    }
    if (enabled)
        PyGC_Enable();
    return out;
}
#endif
