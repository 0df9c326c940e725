/* Dense kernels the solvers call once per Krylov step:
 *
 *   - axpy: y += alpha * x over n contiguous entries, the NumPy
 *     backend's axpy in one pass instead of a multiply and an add;
 *   - band_qr_step: the Givens sweep of one block step of the
 *     band-Hessenberg QR (linalg/dense.py, BlockGivensWorkspace);
 *   - cgs2_project: both projection passes of CGS2 against a Krylov
 *     basis, in three sweeps over it instead of four;
 *   - bcgs2_project: both projection passes of block CGS2, a block W of
 *     k vectors against the basis, in three sweeps instead of four GEMMs.
 *
 * axpy and band_qr_step do the arithmetic of their Python versions in
 * the same order and precision, so the results agree bit for bit (built
 * with -ffp-contract=off, which keeps every product rounded before its
 * sum): axpy rounds alpha * x[i] and then y[i] + that, as NumPy's
 * multiply then add does, and band_qr_step computes each rotation and
 * applies it to the same entries in the same order as the Python loop.
 *
 * cgs2_project and bcgs2_project do not: their Python versions are
 * sequences of BLAS GEMVs and GEMMs, whose summation order BLAS picks.
 * They sum over fixed 64-byte lanes instead, so they agree with BLAS to
 * rounding, and the order depends on the shape only (n and j, and k for
 * bcgs2_project), so their results are the same on every call, at any
 * address, in any thread and with any number of CPUs.
 *
 * A basis of at least two segments of rows (pool.c's POOL_SEGMENT, 8192)
 * is split into n / POOL_SEGMENT segments, fewer when their accumulators
 * would pass CGS2_PARTIALS_BYTES (BCGS2_PARTIALS_BYTES), which the caller
 * and the pool's helpers sweep in parallel (pool_run).  A segment starts
 * at a multiple of the kernel's row tile.  Each segment sums its rows into
 * its own lane accumulators, and those are added in segment order, so
 * which thread swept a segment does not change a bit.  A shorter basis is
 * one segment: the order of a sweep over all rows.  bcgs2_project keeps
 * its accumulators on the heap, one allocation per call; everything else
 * it needs is a tile on the stack.
 *
 * Written once and instantiated for float and double: the file includes
 * itself with DENSE_T and DENSE_NAME defined.
 */

#ifndef DENSE_T

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Rows per tile of cgs2_project: a multiple of every lane count, and a
 * divisor of POOL_SEGMENT. */
#define CGS2_TILE 1024
/* Most bytes of per-segment accumulators cgs2_project keeps on the stack,
 * once it has more than two segments. */
#define CGS2_PARTIALS_BYTES (128 * 1024)

/* Rows per tile of bcgs2_project: a multiple of every lane count, and a
 * divisor of POOL_SEGMENT; a tile of 8 columns of W and of their products
 * stays in L1/L2 while the basis streams past. */
#define BCGS2_TILE 512
/* Columns of W, and of the basis, one register block of bcgs2_project
 * holds. */
#define BCGS2_KB 8
#define BCGS2_NC 4
/* Most bytes of per-segment accumulators bcgs2_project allocates, once
 * it has more than two segments. */
#define BCGS2_PARTIALS_BYTES (128 * 1024)

/* pool.c */
typedef void (*pool_task)(void *arg, int64_t segment);
int64_t pool_segments(int64_t n, int64_t most, int64_t align, int64_t *length);
void pool_run(int64_t count, pool_task task, void *arg);

/* End of the projections' tile of `tile` rows (CGS2_TILE or BCGS2_TILE)
 * that starts at row r.  Tiles start at load boundaries (see the lane
 * layout below), so the first ends tile - phase rows in. */
static inline int64_t tile_end(int64_t r, int64_t n, int64_t phase, int64_t tile)
{
    const int64_t end = r ? r + tile : tile - phase;
    return end < n ? end : n;
}

/* Basis columns of the next register block: bcgs2_project's widest block for kb that
 * fits the j - c columns left, else one. */
static inline int64_t bcgs2_block_columns(int64_t kb, int64_t left)
{
    const int64_t wide = kb <= 2 ? 2 * BCGS2_NC : BCGS2_NC;
    return left >= wide ? wide : 1;
}

#define DENSE_T float
#define DENSE_NAME(name) name##_f32
#define DENSE_VEC vec_f32
#define DENSE_SQRT sqrtf
#define DENSE_ABS fabsf
#include __FILE__
#undef DENSE_T
#undef DENSE_NAME
#undef DENSE_SQRT
#undef DENSE_ABS
#undef DENSE_VEC

#define DENSE_T double
#define DENSE_NAME(name) name##_f64
#define DENSE_VEC vec_f64
#define DENSE_SQRT sqrt
#define DENSE_ABS fabs
#include __FILE__
#undef DENSE_T
#undef DENSE_NAME
#undef DENSE_SQRT
#undef DENSE_ABS
#undef DENSE_VEC

#else /* DENSE_T: the kernels for one value type */

void DENSE_NAME(axpy)(int64_t n, double alpha, const DENSE_T *x, DENSE_T *y)
{
    const DENSE_T a = (DENSE_T)alpha;
    for (int64_t i = 0; i < n; ++i)
        y[i] = y[i] + a * x[i];
}

/* Rows row0/row1 of n entries <- [c -s; s c] applied to them
 * (BlockGivensWorkspace._rotate_rows). */
static void DENSE_NAME(rotate_rows)(DENSE_T *row0, DENSE_T *row1, int64_t n, DENSE_T c,
                                    DENSE_T s)
{
    for (int64_t i = 0; i < n; ++i) {
        DENSE_T a = row0[i], b = row1[i];
        row0[i] = a * c - b * s;
        row1[i] = b * c + a * s;
    }
}

/* Annihilate the subdiagonal band of the k Hessenberg columns q..q+k-1
 * of R (row-major, row stride ldr), each column bottom-up, and apply
 * every rotation to the panel columns to its right, to the first k
 * columns of G and to the first q + 2k columns of QT (row strides ldg,
 * ldq).  Rotations are computed as givens_rotation() does; a zero
 * entry is skipped. */
void DENSE_NAME(band_qr_step)(int64_t q, int64_t k, DENSE_T *R, int64_t ldr, DENSE_T *G,
                              int64_t ldg, DENSE_T *QT, int64_t ldq)
{
    const DENSE_T one = 1;
    for (int64_t j = q; j < q + k; ++j) {
        for (int64_t r = j + k; r > j; --r) {
            DENSE_T *head = R + (r - 1) * ldr + j, *tail = R + r * ldr + j;
            DENSE_T a = *head, b = *tail, c, s, t;
            if (b == 0)
                continue;
            if (DENSE_ABS(b) > DENSE_ABS(a)) {
                t = -a / b;
                s = one / DENSE_SQRT(one + t * t);
                c = s * t;
            } else {
                t = -b / a;
                c = one / DENSE_SQRT(one + t * t);
                s = c * t;
            }
            *head = c * a - s * b;
            *tail = 0;
            DENSE_NAME(rotate_rows)(head + 1, tail + 1, q + k - j - 1, c, s);
            DENSE_NAME(rotate_rows)(G + (r - 1) * ldg, G + r * ldg, k, c, s);
            DENSE_NAME(rotate_rows)(QT + (r - 1) * ldq, QT + r * ldq, q + 2 * k, c, s);
        }
    }
}

/* ---- cgs2_project ------------------------------------------------------ */

/* 64 bytes of lanes whatever the CPU's vector width, so the lane layout,
 * and with it the summation order, is the same on every host. */
typedef DENSE_T DENSE_VEC __attribute__((vector_size(64)));
#define LANES ((int64_t)(sizeof(DENSE_VEC) / sizeof(DENSE_T)))

static inline DENSE_VEC DENSE_NAME(load)(const DENSE_T *p)
{
    DENSE_VEC v;
    memcpy(&v, p, sizeof v);
    return v;
}

static inline void DENSE_NAME(store)(DENSE_T *p, DENSE_VEC v)
{
    memcpy(p, &v, sizeof v);
}

/* Lane layout.  Row i of the basis always goes to lane i mod LANES, and
 * each lane adds its rows in row order, from +0.  Which rows share a
 * vector load is a separate choice, the phase: loads start at rows
 * congruent to -phase, and a load's lane p holds row i with
 * (i + phase) mod LANES == p, so its accumulator is the lane layout
 * rotated by phase, which lane_sum does not see.  A partial load adds
 * its rows to their lanes only, so the phase changes which loads are
 * aligned but not one bit of the result.  cgs2_project picks the phase
 * that aligns the loads of V. */

/* The phase that makes the loads of every column of V (n x j, leading
 * dimension n) 64-byte aligned, or 0 if there is none.  V is read from
 * L2 or L3, where a load that splits a cache line costs most; w's
 * loads hit L1 and may split. */
static int64_t DENSE_NAME(phase)(int64_t n, const DENSE_T *V)
{
    const uintptr_t at = (uintptr_t)V % sizeof(DENSE_VEC);
    if (at % sizeof(DENSE_T) || (n * (int64_t)sizeof(DENSE_T)) % (int64_t)sizeof(DENSE_VEC))
        return 0;
    return (int64_t)(at / sizeof(DENSE_T));
}

/* Rows of a tile before its first full load: a tile starts at a load
 * boundary except the first, whose row 0 sits in lane `lead`. */
static inline int64_t DENSE_NAME(head)(int64_t rows, int64_t lead)
{
    return lead == 0 ? 0 : (rows < LANES - lead ? rows : LANES - lead);
}

/* a[pos + k] += v[k] * x[k] for k < count: the products of a partial
 * load, added to their lanes only (the other lanes would add +0). */
#define PARTIAL_DOT(a, v, x, pos, count)                                                   \
    for (int64_t k_ = 0; k_ < (count); ++k_)                                               \
        (a)[(pos) + k_] += (v)[k_] * (x)[k_];

/* acc[c] += V[:, c] * w, lane by lane, over the `rows` rows of a tile. */
static void DENSE_NAME(tile_dots)(int64_t rows, int64_t lead, int64_t j, int64_t ld,
                                  const DENSE_T *V, const DENSE_T *w, DENSE_VEC *acc)
{
    const int64_t head = DENSE_NAME(head)(rows, lead);
    const int64_t full = head + (rows - head) / LANES * LANES, rest = rows - full;
    const DENSE_T *wt = w + full;
    int64_t c = 0;
    for (; c + 4 <= j; c += 4) {
        const DENSE_T *v0 = V + c * ld, *v1 = v0 + ld, *v2 = v1 + ld, *v3 = v2 + ld;
        DENSE_VEC a0 = acc[c], a1 = acc[c + 1], a2 = acc[c + 2], a3 = acc[c + 3];
        PARTIAL_DOT(a0, v0, w, lead, head)
        PARTIAL_DOT(a1, v1, w, lead, head)
        PARTIAL_DOT(a2, v2, w, lead, head)
        PARTIAL_DOT(a3, v3, w, lead, head)
        for (int64_t i = head; i < full; i += LANES) {
            const DENSE_VEC x = DENSE_NAME(load)(w + i);
            a0 += DENSE_NAME(load)(v0 + i) * x;
            a1 += DENSE_NAME(load)(v1 + i) * x;
            a2 += DENSE_NAME(load)(v2 + i) * x;
            a3 += DENSE_NAME(load)(v3 + i) * x;
        }
        PARTIAL_DOT(a0, v0 + full, wt, 0, rest)
        PARTIAL_DOT(a1, v1 + full, wt, 0, rest)
        PARTIAL_DOT(a2, v2 + full, wt, 0, rest)
        PARTIAL_DOT(a3, v3 + full, wt, 0, rest)
        acc[c] = a0, acc[c + 1] = a1, acc[c + 2] = a2, acc[c + 3] = a3;
    }
    for (; c < j; ++c) {
        const DENSE_T *v0 = V + c * ld;
        DENSE_VEC a0 = acc[c];
        PARTIAL_DOT(a0, v0, w, lead, head)
        for (int64_t i = head; i < full; i += LANES)
            a0 += DENSE_NAME(load)(v0 + i) * DENSE_NAME(load)(w + i);
        PARTIAL_DOT(a0, v0 + full, wt, 0, rest)
        acc[c] = a0;
    }
}

#undef PARTIAL_DOT

/* The lanes of an accumulator summed as a tree: lane l + LANES/2 into
 * lane l, then l + LANES/4 into l, ...  Each step pairs lanes by their
 * distance, so an accumulator rotated by any phase pairs the same sums:
 * additions commute, and the result is that of the unrotated one. */
static DENSE_T DENSE_NAME(lane_sum)(DENSE_VEC v)
{
    DENSE_T s[LANES];
    memcpy(s, &v, sizeof v);
    for (int64_t width = LANES / 2; width > 0; width /= 2)
        for (int64_t l = 0; l < width; ++l)
            s[l] += s[l + width];
    return s[0];
}

/* Row i's entry of V h: the columns' products added in column order. */
static inline DENSE_T DENSE_NAME(row_product)(const DENSE_T *V, int64_t ld, int64_t j,
                                              const DENSE_T *h)
{
    DENSE_T s = V[0] * h[0];
    for (int64_t c = 1; c < j; ++c)
        s = s + V[c * ld] * h[c];
    return s;
}

/* w -= V h over the `rows` rows of a tile.  Each row's product is formed
 * as row_product does (in t, from the first full load on) and then
 * subtracted, as gemv_notrans forms V h in its scratch vector before the
 * subtraction. */
static void DENSE_NAME(tile_subtract)(int64_t rows, int64_t lead, int64_t j, int64_t ld,
                                      const DENSE_T *V, const DENSE_T *h, DENSE_T *w,
                                      DENSE_T *t)
{
    const int64_t head = DENSE_NAME(head)(rows, lead);
    const int64_t full = head + (rows - head) / LANES * LANES;
    for (int64_t i = 0; i < head; ++i)
        w[i] = w[i] - DENSE_NAME(row_product)(V + i, ld, j, h);
    for (int64_t i = full; i < rows; ++i)
        w[i] = w[i] - DENSE_NAME(row_product)(V + i, ld, j, h);
    const DENSE_VEC zero = {0};
    const DENSE_VEC b = zero + h[0];
    for (int64_t i = head; i < full; i += LANES)
        DENSE_NAME(store)(t + i - head, DENSE_NAME(load)(V + i) * b);
    int64_t c = 1;
    for (; c + 4 <= j; c += 4) {
        const DENSE_T *v0 = V + c * ld, *v1 = v0 + ld, *v2 = v1 + ld, *v3 = v2 + ld;
        const DENSE_VEC b0 = zero + h[c], b1 = zero + h[c + 1], b2 = zero + h[c + 2],
                        b3 = zero + h[c + 3];
        for (int64_t i = head; i < full; i += LANES) {
            DENSE_VEC s = DENSE_NAME(load)(t + i - head);
            s = s + DENSE_NAME(load)(v0 + i) * b0;
            s = s + DENSE_NAME(load)(v1 + i) * b1;
            s = s + DENSE_NAME(load)(v2 + i) * b2;
            s = s + DENSE_NAME(load)(v3 + i) * b3;
            DENSE_NAME(store)(t + i - head, s);
        }
    }
    for (; c < j; ++c) {
        const DENSE_T *v0 = V + c * ld;
        const DENSE_VEC b0 = zero + h[c];
        for (int64_t i = head; i < full; i += LANES)
            DENSE_NAME(store)(t + i - head,
                              DENSE_NAME(load)(t + i - head) + DENSE_NAME(load)(v0 + i) * b0);
    }
    for (int64_t i = head; i < full; i += LANES)
        DENSE_NAME(store)(w + i, DENSE_NAME(load)(w + i) - DENSE_NAME(load)(t + i - head));
}

/* The basis of a cgs2_project call, split into `count` segments: each but
 * the last `length` rows, which start at multiples of CGS2_TILE and so in
 * the same load phase as row 0. */
struct DENSE_NAME(cgs2_job) {
    int64_t n, j, length, count, phase;
    const DENSE_T *V;
    DENSE_T *w;
    const DENSE_T *h;  /* subtract V h from w first, or NULL */
    DENSE_VEC *partial; /* count x j lane accumulators to fill, or NULL */
};

/* One sweep over the rows of segment s (a pool_task): tile by tile,
 * w -= V h on the tile, then V^T w on it into the segment's accumulators. */
static void DENSE_NAME(cgs2_segment)(void *arg, int64_t s)
{
    const struct DENSE_NAME(cgs2_job) *job = arg;
    const int64_t j = job->j, r0 = s * job->length;
    const int64_t rows = s + 1 == job->count ? job->n - r0 : job->length;
    const DENSE_T *V = job->V + r0;
    DENSE_T *w = job->w + r0;
    DENSE_VEC t[CGS2_TILE / LANES], *acc = job->partial ? job->partial + s * j : NULL;
    const DENSE_VEC zero = {0};
    int64_t r, e;

    for (int64_t c = 0; acc && c < j; ++c)
        acc[c] = zero;
    for (r = 0; r < rows; r = e) {
        e = tile_end(r, rows, job->phase, CGS2_TILE);
        if (job->h)
            DENSE_NAME(tile_subtract)(e - r, r ? 0 : job->phase, j, job->n, V + r, job->h,
                                      w + r, (DENSE_T *)t);
        if (acc)
            DENSE_NAME(tile_dots)(e - r, r ? 0 : job->phase, j, job->n, V + r, w + r, acc);
    }
}

/* h[c] = the lanes of column c's accumulators, added in segment order. */
static void DENSE_NAME(cgs2_sums)(const struct DENSE_NAME(cgs2_job) *job, DENSE_T *h)
{
    for (int64_t c = 0; c < job->j; ++c) {
        DENSE_VEC acc = job->partial[c];
        for (int64_t s = 1; s < job->count; ++s)
            acc += job->partial[s * job->j + c];
        h[c] = DENSE_NAME(lane_sum)(acc);
    }
}

/* Both projection passes of CGS2 on w (n entries) against the j >= 1
 * columns of V (n x j, column-major, leading dimension n), in three
 * sweeps over V instead of four, each over the segments in parallel:
 *
 *   1. h1 = V^T w;
 *   2. tile by tile, w -= V h1 on the tile, then h2 += V^T w on it while
 *      the tile is still in cache;
 *   3. w -= V h2.
 *
 * The order of every sum depends on n and j only (see the lane layout
 * above and the segments in the header), not on addresses, threads or
 * CPUs.  It is not BLAS's order, so the results agree with the GEMV
 * sequence to rounding, not bit for bit.  The accumulators take 64 j
 * bytes of the stack per segment, at most max(128 j, CGS2_PARTIALS_BYTES)
 * bytes; the caller bounds j. */
void DENSE_NAME(cgs2_project)(int64_t n, int64_t j, const DENSE_T *V, DENSE_T *w, DENSE_T *h1,
                              DENSE_T *h2)
{
    int64_t most = CGS2_PARTIALS_BYTES / (j * (int64_t)sizeof(DENSE_VEC)), length;
    const int64_t count = pool_segments(n, most > 2 ? most : 2, CGS2_TILE, &length);
    DENSE_VEC partial[count * j];
    struct DENSE_NAME(cgs2_job) job = {n, j, length, count, DENSE_NAME(phase)(n, V),
                                       V, w, NULL, partial};

    pool_run(count, DENSE_NAME(cgs2_segment), &job);
    DENSE_NAME(cgs2_sums)(&job, h1);
    job.h = h1;
    pool_run(count, DENSE_NAME(cgs2_segment), &job);
    DENSE_NAME(cgs2_sums)(&job, h2);
    job.h = h2;
    job.partial = NULL;
    pool_run(count, DENSE_NAME(cgs2_segment), &job);
}


/* ---- bcgs2_project ----------------------------------------------------- */

/* The lane layout, the phase and the segments of cgs2_project, for a
 * block W of k columns: coefficient (c, q) of V^T W sums row i of
 * V[:, c] * W[:, q] into lane i mod LANES, and each product row of V H
 * adds its columns' products in column order.  The kernels below work on
 * register blocks of nc <= BCGS2_NC basis columns by kb <= BCGS2_KB
 * columns of W, inlined with both constant; the blocking changes no bit. */

/* acc[c * k + q] += V[:, c] * W[:, q] over the full loads of a tile,
 * rows [head, full), for nc x kb accumulators. */
static inline __attribute__((always_inline)) void
DENSE_NAME(block_dots)(const int64_t nc, const int64_t kb, int64_t head, int64_t full,
                       int64_t ld, const DENSE_T *V, const DENSE_T *W, DENSE_VEC *acc,
                       int64_t k)
{
    DENSE_VEC a[2 * BCGS2_NC][BCGS2_KB];
    for (int64_t c = 0; c < nc; ++c)
        for (int64_t q = 0; q < kb; ++q)
            a[c][q] = acc[c * k + q];
    for (int64_t i = head; i < full; i += LANES) {
        DENSE_VEC v[2 * BCGS2_NC];
        for (int64_t c = 0; c < nc; ++c)
            v[c] = DENSE_NAME(load)(V + c * ld + i);
        for (int64_t q = 0; q < kb; ++q) {
            const DENSE_VEC x = DENSE_NAME(load)(W + q * ld + i);
            for (int64_t c = 0; c < nc; ++c)
                a[c][q] += v[c] * x;
        }
    }
    for (int64_t c = 0; c < nc; ++c)
        for (int64_t q = 0; q < kb; ++q)
            acc[c * k + q] = a[c][q];
}

/* t[q][i] (+)= sum over the nc columns c of V[i, c] H[c, q], the first
 * block (`first`) starting from the product of its first column, over
 * the full loads of a tile, rows [head, full).  H has row stride k; t has
 * row stride BCGS2_TILE and starts at row head. */
static inline __attribute__((always_inline)) void
DENSE_NAME(block_products)(const int64_t nc, const int64_t kb, int first, int64_t head,
                           int64_t full, int64_t ld, const DENSE_T *V, const DENSE_T *H,
                           int64_t k, DENSE_T *t)
{
    const DENSE_VEC zero = {0};
    DENSE_VEC b[2 * BCGS2_NC][BCGS2_KB];
    for (int64_t c = 0; c < nc; ++c)
        for (int64_t q = 0; q < kb; ++q)
            b[c][q] = zero + H[c * k + q];
    for (int64_t i = head; i < full; i += LANES) {
        DENSE_VEC v[2 * BCGS2_NC];
        for (int64_t c = 0; c < nc; ++c)
            v[c] = DENSE_NAME(load)(V + c * ld + i);
        for (int64_t q = 0; q < kb; ++q) {
            DENSE_T *tq = t + q * BCGS2_TILE + i - head;
            DENSE_VEC s = first ? v[0] * b[0][q] : DENSE_NAME(load)(tq) + v[0] * b[0][q];
            for (int64_t c = 1; c < nc; ++c)
                s = s + v[c] * b[c][q];
            DENSE_NAME(store)(tq, s);
        }
    }
}

/* Calls `kernel` with constant nc and kb, so that each instance keeps its
 * block in registers: nc is BCGS2_NC basis columns (twice that for kb of
 * 1 or 2, where a block has few accumulators), or 1 for the last columns;
 * kb is 1 to BCGS2_KB. */
#define BCGS2_DISPATCH(kernel, nc, kb, ...)                                                \
    do {                                                                                   \
        if ((nc) == 2 * BCGS2_NC) {                                                        \
            if ((kb) == 1)                                                                 \
                kernel(2 * BCGS2_NC, 1, __VA_ARGS__);                                      \
            else                                                                           \
                kernel(2 * BCGS2_NC, 2, __VA_ARGS__);                                      \
        } else if ((nc) == BCGS2_NC) {                                                     \
            switch (kb) {                                                                  \
            case 3: kernel(BCGS2_NC, 3, __VA_ARGS__); break;                               \
            case 4: kernel(BCGS2_NC, 4, __VA_ARGS__); break;                               \
            case 5: kernel(BCGS2_NC, 5, __VA_ARGS__); break;                               \
            case 6: kernel(BCGS2_NC, 6, __VA_ARGS__); break;                               \
            case 7: kernel(BCGS2_NC, 7, __VA_ARGS__); break;                               \
            default: kernel(BCGS2_NC, 8, __VA_ARGS__); break;                              \
            }                                                                              \
        } else {                                                                           \
            switch (kb) {                                                                  \
            case 1: kernel(1, 1, __VA_ARGS__); break;                                      \
            case 2: kernel(1, 2, __VA_ARGS__); break;                                      \
            case 3: kernel(1, 3, __VA_ARGS__); break;                                      \
            case 4: kernel(1, 4, __VA_ARGS__); break;                                      \
            case 5: kernel(1, 5, __VA_ARGS__); break;                                      \
            case 6: kernel(1, 6, __VA_ARGS__); break;                                      \
            case 7: kernel(1, 7, __VA_ARGS__); break;                                      \
            default: kernel(1, 8, __VA_ARGS__); break;                                     \
            }                                                                              \
        }                                                                                  \
    } while (0)

/* acc[c * k + q] += the lanes of V[:, c] * W[:, q] over a tile, for all
 * j x k pairs. */
static void DENSE_NAME(tile_block_dots)(int64_t rows, int64_t lead, int64_t j, int64_t k,
                                        int64_t ld, const DENSE_T *V, const DENSE_T *W,
                                        DENSE_VEC *acc)
{
    const int64_t head = DENSE_NAME(head)(rows, lead);
    const int64_t full = head + (rows - head) / LANES * LANES;
    for (int64_t c = 0; c < j; ++c)
        for (int64_t q = 0; q < k; ++q) {
            for (int64_t r = 0; r < head; ++r)
                acc[c * k + q][lead + r] += V[c * ld + r] * W[q * ld + r];
        }
    for (int64_t q = 0; q < k; q += BCGS2_KB) {
        const int64_t kb = k - q < BCGS2_KB ? k - q : BCGS2_KB;
        for (int64_t c = 0; c < j;) {
            const int64_t nc = bcgs2_block_columns(kb, j - c);
            BCGS2_DISPATCH(DENSE_NAME(block_dots), nc, kb, head, full, ld, V + c * ld,
                           W + q * ld, acc + c * k + q, k);
            c += nc;
        }
    }
    for (int64_t c = 0; c < j; ++c)
        for (int64_t q = 0; q < k; ++q) {
            for (int64_t r = full; r < rows; ++r)
                acc[c * k + q][r - full] += V[c * ld + r] * W[q * ld + r];
        }
}

/* W -= V H on rows [r0, r1), one row at a time. */
static void DENSE_NAME(rows_subtract)(int64_t r0, int64_t r1, int64_t j, int64_t k, int64_t ld,
                                      const DENSE_T *V, const DENSE_T *H, DENSE_T *W)
{
    for (int64_t q = 0; q < k; ++q)
        for (int64_t i = r0; i < r1; ++i) {
            DENSE_T s = V[i] * H[q];
            for (int64_t c = 1; c < j; ++c)
                s = s + V[c * ld + i] * H[c * k + q];
            W[q * ld + i] = W[q * ld + i] - s;
        }
}

/* W -= V H over the `rows` rows of a tile: each row's product formed in
 * column order (in t, from the first full load on), then subtracted. */
static void DENSE_NAME(tile_block_subtract)(int64_t rows, int64_t lead, int64_t j, int64_t k,
                                            int64_t ld, const DENSE_T *V, const DENSE_T *H,
                                            DENSE_T *W, DENSE_T *t)
{
    const int64_t head = DENSE_NAME(head)(rows, lead);
    const int64_t full = head + (rows - head) / LANES * LANES;
    DENSE_NAME(rows_subtract)(0, head, j, k, ld, V, H, W);
    DENSE_NAME(rows_subtract)(full, rows, j, k, ld, V, H, W);
    for (int64_t q = 0; q < k; q += BCGS2_KB) {
        const int64_t kb = k - q < BCGS2_KB ? k - q : BCGS2_KB;
        for (int64_t c = 0; c < j;) {
            const int64_t nc = bcgs2_block_columns(kb, j - c);
            BCGS2_DISPATCH(DENSE_NAME(block_products), nc, kb, c == 0, head, full, ld,
                           V + c * ld, H + c * k + q, k, t);
            c += nc;
        }
        for (int64_t p = 0; p < kb; ++p) {
            DENSE_T *w = W + (q + p) * ld;
            const DENSE_T *tq = t + p * BCGS2_TILE - head;
            for (int64_t i = head; i < full; i += LANES)
                DENSE_NAME(store)(w + i, DENSE_NAME(load)(w + i) - DENSE_NAME(load)(tq + i));
        }
    }
}

#undef BCGS2_DISPATCH

/* A bcgs2_project call split into `count` segments of `length` rows, a
 * multiple of BCGS2_TILE (the last takes the rest). */
struct DENSE_NAME(bcgs2_job) {
    int64_t n, j, k, length, count, phase;
    const DENSE_T *V;
    DENSE_T *W;
    const DENSE_T *H;   /* subtract V H from W first, or NULL */
    DENSE_VEC *partial; /* count x j x k lane accumulators to fill, or NULL */
};

/* One sweep over the rows of segment s (a pool_task): tile by tile,
 * W -= V H on the tile, then V^T W on it into the segment's accumulators. */
static void DENSE_NAME(bcgs2_segment)(void *arg, int64_t s)
{
    const struct DENSE_NAME(bcgs2_job) *job = arg;
    const int64_t j = job->j, k = job->k, r0 = s * job->length;
    const int64_t rows = s + 1 == job->count ? job->n - r0 : job->length;
    DENSE_VEC t[BCGS2_TILE * BCGS2_KB / LANES];
    DENSE_VEC *acc = job->partial ? job->partial + s * j * k : NULL;
    const DENSE_VEC zero = {0};
    int64_t r, e;

    for (int64_t c = 0; acc && c < j * k; ++c)
        acc[c] = zero;
    for (r = 0; r < rows; r = e) {
        e = tile_end(r, rows, job->phase, BCGS2_TILE);
        const int64_t lead = r ? 0 : job->phase;
        if (job->H)
            DENSE_NAME(tile_block_subtract)(e - r, lead, j, k, job->n, job->V + r0 + r, job->H,
                                            job->W + r0 + r, (DENSE_T *)t);
        if (acc)
            DENSE_NAME(tile_block_dots)(e - r, lead, j, k, job->n, job->V + r0 + r,
                                        job->W + r0 + r, acc);
    }
}

/* H[c * k + q] = the lanes of (c, q)'s accumulators, added in segment
 * order. */
static void DENSE_NAME(bcgs2_sums)(const struct DENSE_NAME(bcgs2_job) *job, DENSE_T *H)
{
    const int64_t jk = job->j * job->k;
    for (int64_t c = 0; c < jk; ++c) {
        DENSE_VEC acc = job->partial[c];
        for (int64_t s = 1; s < job->count; ++s)
            acc += job->partial[s * jk + c];
        H[c] = DENSE_NAME(lane_sum)(acc);
    }
}

/* Both projection passes of block CGS2 on W (n x k, column-major,
 * leading dimension n) against the j >= 1 columns of V (n x j, leading
 * dimension n), in three sweeps over V instead of four, each over the
 * segments in parallel:
 *
 *   1. H1 = V^T W;
 *   2. tile by tile, W -= V H1 on the tile, then H2 += V^T W on it while
 *      the tile is still in cache;
 *   3. W -= V H2.
 *
 * H1 and H2 are j x k, row-major.  The order of every sum depends on n,
 * j and k only, not on addresses, threads or CPUs; it is not BLAS's, so
 * the results agree with the four GEMMs to rounding.  The accumulators
 * take 64 j k bytes of the heap per segment, at most
 * max(128 j k, BCGS2_PARTIALS_BYTES) bytes.  Returns 0, or -1 when the
 * heap had no room and nothing was changed. */
int DENSE_NAME(bcgs2_project)(int64_t n, int64_t j, int64_t k, const DENSE_T *V, DENSE_T *W,
                              DENSE_T *H1, DENSE_T *H2)
{
    const int64_t per_segment = j * k * (int64_t)sizeof(DENSE_VEC);
    const int64_t most = BCGS2_PARTIALS_BYTES / per_segment;
    int64_t length;
    const int64_t count = pool_segments(n, most > 2 ? most : 2, BCGS2_TILE, &length);
    DENSE_VEC *partial = aligned_alloc(sizeof(DENSE_VEC), count * per_segment);
    if (!partial)
        return -1;
    struct DENSE_NAME(bcgs2_job) job = {n, j, k, length, count, DENSE_NAME(phase)(n, V),
                                        V, W, NULL, partial};

    pool_run(count, DENSE_NAME(bcgs2_segment), &job);
    DENSE_NAME(bcgs2_sums)(&job, H1);
    job.H = H1;
    pool_run(count, DENSE_NAME(bcgs2_segment), &job);
    DENSE_NAME(bcgs2_sums)(&job, H2);
    job.H = H2;
    job.partial = NULL;
    pool_run(count, DENSE_NAME(bcgs2_segment), &job);
    free(partial);
    return 0;
}

#undef LANES

#endif /* DENSE_T */
