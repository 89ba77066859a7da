/* Runs the parsers and writers of ``_scan.c`` over cut buffers, and its
 * grid scan over cut tick walks, for a build with AddressSanitizer and
 * UBSan (``test_sanitized_kernel.py``):
 *
 *     cc -g -O1 -fsanitize=address,undefined -fno-sanitize-recover=all \
 *        -ffp-contract=off -o sanitized_scan sanitized_scan.c _scan.c -lm
 *     ./sanitized_scan CORPUS
 *     ./sanitized_scan --scan
 *
 * CORPUS holds files, each as an 8-byte little-endian length and its bytes.
 * Each file is cut at every byte offset, and the bytes before the cut and
 * the bytes after it are each copied into a malloc block of exactly their
 * size, so that a read at or past buf[len] is a heap-buffer-overflow. Each
 * parser reads every block from every line start it reaches, two rows a
 * call, into columns of exactly two rows. The writers format seeded random
 * doubles into blocks of every size up to a few rows.
 *
 * With --scan, it_scan reads seeded walks of 40 ticks cut at every tick,
 * the ticks before the cut and those after it each in blocks of exactly
 * their size, for grids of one to four thresholds (one grid with a
 * threshold that stalls), in both conventions and from both modes. Each
 * runner's event columns start with 1 to 3 slots, and a runner that fills
 * them gets one more slot and the scan resumes; a stall ends it, and a
 * stall before the cut ends it before the ticks after the cut. The events
 * and the runners' state must be those of one scan of the whole walk. The
 * first line out gives the size and field offsets of struct it_runner as
 * declared here.
 *
 * The first sanitizer report ends the run with a non-zero status.
 */
#include <float.h>
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

int it_init(void);
int64_t it_parse_ticks(const char *buf, int64_t len, int64_t *pos, int64_t *ts, double *px,
                       int64_t cap);
int64_t it_parse_events(const char *buf, int64_t len, int64_t *pos, int jsonl, int8_t *kind,
                        int8_t *dir, int64_t *ts, double *px, double *delta, int64_t *clock,
                        int64_t cap);
int64_t it_format_ticks(const int64_t *ts, const double *px, int64_t n, int64_t *i, char *buf,
                        int64_t cap);
int64_t it_format_events(const int8_t *kind, const int8_t *dir, const int64_t *ts,
                         const double *px, const int64_t *clock, int64_t runs,
                         const int64_t *run_end, const int64_t *run_text, const char *text,
                         const int64_t *text_at, int jsonl, int64_t *i, char *buf,
                         int64_t cap);

/* struct it_runner of _scan.c, laid out as engine._Runner lays it out */
struct it_runner {
    double guard, up_factor, down_factor;
    int32_t use_log, confirmed;
    double ext, mode, ref;
    int64_t stall;
    int8_t *kind, *dir;
    int64_t *ts;
    double *px, *xt;
    int64_t cap, m;
    double os_c, dc_c, os_at, dc_at;
};
int64_t it_scan(const int64_t *ts, const double *px, int64_t n, int64_t *at,
                struct it_runner *run, int64_t k);

#define ROWS 2      /* the rows of each parser column */
#define WRITTEN 200 /* the rows of each writer column */

static void *block(size_t size)
{
    void *p = malloc(size);
    if (p == NULL && size > 0) {
        fprintf(stderr, "out of memory\n");
        exit(2);
    }
    return p;
}

/* The rows parser reads from buf (0 ticks, 1 CSV events, 2 JSON Lines
 * events), resuming after each line it stops at. */
static int64_t parse(int parser, const char *buf, int64_t len)
{
    int64_t *ts = block(ROWS * sizeof *ts), *clock = block(ROWS * sizeof *clock);
    double *px = block(ROWS * sizeof *px), *delta = block(ROWS * sizeof *delta);
    int8_t *kind = block(ROWS), *dir = block(ROWS);
    int64_t pos = 0, rows = 0;
    while (pos < len) {
        int64_t m = parser == 0
            ? it_parse_ticks(buf, len, &pos, ts, px, ROWS)
            : it_parse_events(buf, len, &pos, parser == 2, kind, dir, ts, px, delta, clock,
                              ROWS);
        rows += m;
        if (m < ROWS) {  /* a line it does not read, or the end */
            const char *lf = pos < len ? memchr(buf + pos, '\n', (size_t)(len - pos)) : NULL;
            if (lf == NULL)
                break;
            pos = lf - buf + 1;
        }
    }
    free(ts), free(clock), free(px), free(delta), free(kind), free(dir);
    return rows;
}

/* Each parser over every cut of the n bytes at data. */
static int64_t parse_cuts(const char *data, int64_t n)
{
    int64_t rows = 0;
    for (int64_t cut = 0; cut <= n; cut++) {
        char *head = block((size_t)cut), *tail = block((size_t)(n - cut));
        memcpy(head, data, (size_t)cut);
        memcpy(tail, data + cut, (size_t)(n - cut));
        for (int parser = 0; parser < 3; parser++)
            rows += parse(parser, head, cut) + parse(parser, tail, n - cut);
        free(head), free(tail);
    }
    return rows;
}

static uint64_t seed = 0x9e3779b97f4a7c15ULL;

static uint64_t next(void) /* splitmix64 */
{
    uint64_t z = (seed += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/* Any double at all, one near the JSON Lines price range, or an edge case. */
static double random_double(void)
{
    static const double edges[] = {0.0, -0.0, 1e-3, 0x1p52, DBL_MIN, DBL_TRUE_MIN, DBL_MAX,
                                   1.0, -1.0, 0.1, 1e22, 1e16};
    uint64_t bits = next();
    double x;
    switch (bits % 4) {
    case 0:
        memcpy(&x, &bits, sizeof x);
        return x;
    case 1:
        return ldexp((double)(next() >> 11), (int)(next() % 120) - 83);
    case 2:
        return nextafter(edges[next() % 12], next() % 2 ? INFINITY : -INFINITY);
    default:
        return next() % 3 ? edges[next() % 12] : next() % 2 ? NAN : INFINITY;
    }
}

/* Both writers over seeded rows, into blocks of every size up to maxcap;
 * a row a writer leaves is skipped, as the caller writes it. */
static int64_t write_rows(int64_t maxcap)
{
    int64_t ts[WRITTEN], clock[WRITTEN], run_end[WRITTEN], run_text[WRITTEN];
    double px[WRITTEN];
    int8_t kind[WRITTEN], dir[WRITTEN];
    char text[16 * 32];
    int64_t text_at[17] = {0}, runs = 0, bytes = 0;
    for (int k = 0; k < WRITTEN; k++) {
        ts[k] = (int64_t)next();
        clock[k] = (int64_t)(next() >> (next() % 2));
        px[k] = random_double();
        kind[k] = (int8_t)(next() % 2);
        dir[k] = next() % 2 ? 1 : -1;
    }
    for (int t = 0; t < 16; t++)  /* delta texts of 1 to 24 characters */
        text_at[t + 1] = text_at[t] + snprintf(text + text_at[t], 32, "%.*g",
                                               (int)(next() % 17) + 1, random_double());
    for (int64_t k = 0; k < WRITTEN; runs++) {
        k += 1 + (int64_t)(next() % 4);
        run_end[runs] = k < WRITTEN ? k : WRITTEN;
        run_text[runs] = (int64_t)(next() % 16);
        k = run_end[runs];
    }
    for (int64_t cap = 0; cap <= maxcap; cap++) {
        char *buf = block((size_t)cap);
        for (int64_t i = 0; i < WRITTEN;) {
            int64_t size = it_format_ticks(ts, px, WRITTEN, &i, buf, cap);
            if (size == 0)
                break;
            bytes += size;
        }
        for (int jsonl = 0; jsonl < 2; jsonl++)
            for (int64_t i = 0; i < WRITTEN;) {
                int64_t size = it_format_events(kind, dir, ts, px, clock, runs, run_end,
                                                run_text, text, text_at, jsonl, &i, buf, cap);
                i += size == 0;
                bytes += size;
            }
        free(buf);
    }
    return bytes;
}

#define WALK 40     /* the ticks of each scanned walk */
#define GRIDS 4

/* The thresholds of each grid, 0-terminated; 1e-17 stalls: a step of
 * 1 + 1e-17 or exp(1e-17) cannot move a reference price near 1. */
static const double GRID[GRIDS][5] = {
    {0.01}, {0.02, 0.005}, {0.01, 1e-17, 0.03}, {0.004, 0.012, 0.02, 0.05}};

/* Runner r's event columns replaced by blocks of exactly cap slots that
 * hold its events. */
static void grow(struct it_runner *r, int64_t cap)
{
    int8_t *kind = block((size_t)cap), *dir = block((size_t)cap);
    int64_t *ts = block((size_t)cap * sizeof *ts);
    double *px = block((size_t)cap * sizeof *px), *xt = block((size_t)cap * sizeof *xt);
    if (r->m > 0) {
        memcpy(kind, r->kind, (size_t)r->m);
        memcpy(dir, r->dir, (size_t)r->m);
        memcpy(ts, r->ts, (size_t)r->m * sizeof *ts);
        memcpy(px, r->px, (size_t)r->m * sizeof *px);
        memcpy(xt, r->xt, (size_t)r->m * sizeof *xt);
    }
    free(r->kind), free(r->dir), free(r->ts), free(r->px), free(r->xt);
    r->kind = kind, r->dir = dir, r->ts = ts, r->px = px, r->xt = xt;
    r->cap = cap;
}

/* The runners of grid g at the first tick's price p0, as engine._GridScan
 * makes them, with cap event slots each; returns how many. */
static int64_t runners(struct it_runner *run, int g, int use_log, double p0, double mode,
                       int64_t cap)
{
    int64_t k = 0;
    for (; k < 4 && GRID[g][k] > 0; k++) {
        struct it_runner *r = &run[k];
        double delta = GRID[g][k];
        memset(r, 0, sizeof *r);
        r->guard = delta * (1.0 - 1e-12);
        r->up_factor = use_log ? exp(delta) : 1.0 + delta;
        r->down_factor = use_log ? exp(-delta) : 1.0 - delta;
        r->use_log = use_log;
        r->ext = r->ref = p0;
        r->mode = mode;
        r->stall = -1;
        grow(r, cap);
    }
    return k;
}

/* it_scan over ticks [from, to), copied into blocks of exactly their size,
 * resumed after each full stop with one more slot for the full runner, and
 * ended at a stall, whose runner gets the walk's index of its stall tick.
 * Returns whether a stall ended it. */
static int scan(const int64_t *ts, const double *px, int64_t from, int64_t to,
                struct it_runner *run, int64_t k)
{
    int64_t n = to - from, at = 0, stop;
    int64_t *t = block((size_t)n * sizeof *t);
    double *p = block((size_t)n * sizeof *p);
    if (n > 0) {
        memcpy(t, ts + from, (size_t)n * sizeof *t);
        memcpy(p, px + from, (size_t)n * sizeof *p);
    }
    while ((stop = it_scan(t, p, n, &at, run, k)) >= 0 && run[stop].stall < 0)
        grow(&run[stop], run[stop].cap + 1);
    if (stop >= 0)
        run[stop].stall += from;
    free(t), free(p);
    return stop >= 0;
}

/* Whether runners a and b hold the same state and events. */
static int same(const struct it_runner *a, const struct it_runner *b)
{
    size_t m = (size_t)a->m;
    return a->m == b->m && a->ext == b->ext && a->ref == b->ref && a->mode == b->mode
        && a->confirmed == b->confirmed && a->stall == b->stall
        && !memcmp(a->kind, b->kind, m) && !memcmp(a->dir, b->dir, m)
        && !memcmp(a->ts, b->ts, m * sizeof *a->ts) && !memcmp(a->px, b->px, m * sizeof *a->px)
        && !memcmp(a->xt, b->xt, m * sizeof *a->xt);
}

static void free_runners(struct it_runner *run, int64_t k)
{
    for (int64_t j = 0; j < k; j++)
        free(run[j].kind), free(run[j].dir), free(run[j].ts), free(run[j].px), free(run[j].xt);
}

/* A walk of WALK ticks from 1.0: ties, gaps of 6% and small steps. */
static void walk(int64_t *ts, double *px)
{
    double p = 1.0;
    for (int i = 0; i < WALK; i++) {
        uint64_t r = next();
        if (r % 8 == 1)
            p *= exp(r % 16 == 1 ? 0.06 : -0.06);
        else if (r % 8 > 1)
            p *= exp(((double)(next() >> 11) * 0x1p-53 - 0.5) * 0.006);
        ts[i] = i;
        px[i] = p;
    }
}

/* Every walk, grid, convention, start mode, first cap and cut, each scan
 * against one of the whole walk; returns the events, or -1 on a mismatch. */
static int64_t scan_walks(void)
{
    int64_t ts[WALK], events = 0;
    double px[WALK];
    struct it_runner whole[4], split[4];
    for (int w = 0; w < 10; w++) {
        walk(ts, px);
        for (int g = 0; g < GRIDS; g++)
            for (int use_log = 0; use_log < 2; use_log++)
                for (int up = 0; up < 2; up++) {
                    double mode = up ? 1.0 : -1.0;
                    int64_t k = runners(whole, g, use_log, px[0], mode, 4 * WALK);
                    scan(ts, px, 0, WALK, whole, k);
                    for (int64_t cap = 1; cap <= 3; cap++)
                        for (int64_t cut = 0; cut <= WALK; cut++) {
                            runners(split, g, use_log, px[0], mode, cap);
                            if (!scan(ts, px, 0, cut, split, k))
                                scan(ts, px, cut, WALK, split, k);
                            for (int64_t j = 0; j < k; j++) {
                                if (!same(&whole[j], &split[j])) {
                                    fprintf(stderr, "walk %d grid %d log %d mode %g cap %lld "
                                            "cut %lld: runner %lld differs\n", w, g, use_log,
                                            mode, (long long)cap, (long long)cut, (long long)j);
                                    return -1;
                                }
                                events += split[j].m;
                            }
                            free_runners(split, k);
                        }
                    free_runners(whole, k);
                }
    }
    return events;
}

int main(int argc, char **argv)
{
    if (argc == 2 && !strcmp(argv[1], "--scan")) {
        printf("runner %zu:", sizeof(struct it_runner));
        size_t offsets[] = {
            offsetof(struct it_runner, guard), offsetof(struct it_runner, up_factor),
            offsetof(struct it_runner, down_factor), offsetof(struct it_runner, use_log),
            offsetof(struct it_runner, confirmed), offsetof(struct it_runner, ext),
            offsetof(struct it_runner, mode), offsetof(struct it_runner, ref),
            offsetof(struct it_runner, stall), offsetof(struct it_runner, kind),
            offsetof(struct it_runner, dir), offsetof(struct it_runner, ts),
            offsetof(struct it_runner, px), offsetof(struct it_runner, xt),
            offsetof(struct it_runner, cap), offsetof(struct it_runner, m),
            offsetof(struct it_runner, os_c), offsetof(struct it_runner, dc_c),
            offsetof(struct it_runner, os_at), offsetof(struct it_runner, dc_at)};
        for (size_t f = 0; f < sizeof offsets / sizeof *offsets; f++)
            printf(" %zu", offsets[f]);
        int64_t events = scan_walks();
        if (events < 0)
            return 1;
        printf("\n%lld events\n", (long long)events);
        return 0;
    }
    if (argc != 2 || !it_init()) {
        fprintf(stderr, "usage: sanitized_scan CORPUS | --scan\n");
        return 2;
    }
    FILE *fh = fopen(argv[1], "rb");
    if (fh == NULL) {
        perror(argv[1]);
        return 2;
    }
    int64_t files = 0, rows = 0;
    unsigned char size[8];
    while (fread(size, 1, 8, fh) == 8) {
        uint64_t n = 0;
        for (int b = 7; b >= 0; b--)
            n = n << 8 | size[b];
        char *data = block((size_t)n);
        if (fread(data, 1, (size_t)n, fh) != n) {
            fprintf(stderr, "truncated corpus\n");
            return 2;
        }
        rows += parse_cuts(data, (int64_t)n);
        free(data);
        files++;
    }
    fclose(fh);
    int64_t bytes = 0;
    for (int round = 0; round < 20; round++)
        bytes += write_rows(420);
    printf("%lld files, %lld rows parsed, %lld bytes written\n", (long long)files,
           (long long)rows, (long long)bytes);
    return 0;
}
