/* Runs the parsers and writers of ``_scan.c`` over cut buffers, for a
 * build with AddressSanitizer and UBSan (``test_sanitized_kernel.py``):
 *
 *     cc -g -O1 -fsanitize=address,undefined -fno-sanitize-recover=all \
 *        -ffp-contract=off -o sanitized_scan sanitized_scan.c _scan.c -lm
 *     ./sanitized_scan CORPUS
 *
 * CORPUS holds files, each as an 8-byte little-endian length and its bytes.
 * Each file is cut at every byte offset, and the bytes before the cut and
 * the bytes after it are each copied into a malloc block of exactly their
 * size, so that a read at or past buf[len] is a heap-buffer-overflow. Each
 * parser reads every block from every line start it reaches, two rows a
 * call, into columns of exactly two rows. The writers format seeded random
 * doubles into blocks of every size up to a few rows. The first sanitizer
 * report ends the run with a non-zero status.
 */
#include <float.h>
#include <math.h>
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

int main(int argc, char **argv)
{
    if (argc != 2 || !it_init()) {
        fprintf(stderr, "usage: sanitized_scan CORPUS\n");
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
