/* Diagonal-format (DIA) sparse products Y = A X for the NumPy backend.
 *
 * A is stored as n_diags dense diagonals: values[di * n_rows + i] is
 * A[i, i + offsets[di]], offsets ascending, zero where the diagonal
 * leaves the matrix.  X (n_cols x k) and Y (n_rows x k) are
 * column-major (Fortran-ordered), so column c of X starts at
 * x + c * n_cols.
 *
 * The summation order is that of the NumPy sweep in numpy_backend.py,
 * so the two agree bit for bit (built with -ffp-contract=off, which
 * keeps every product rounded before its sum):
 *
 *   - rows are processed in chunks of `chunk` rows (the sweep's chunk);
 *   - in each chunk the first diagonal whose range meets the chunk
 *     writes x * v into y, and the chunk's rows it does not cover are
 *     zeroed;
 *   - every later diagonal, in offset order, adds x * v to y.
 *
 * dia_spmm splits an operator of at least two segments of rows (pool.c's
 * POOL_SEGMENT, 8192) into n_rows / POOL_SEGMENT segments, which the
 * caller and the pool's helpers run in parallel (pool_run).  A segment
 * runs its rows chunk by chunk, each with its whole chunk's first
 * diagonal, so every element gets the sum the serial sweep gives it,
 * whatever the CPU count; a shorter operator is one segment, the serial
 * sweep itself.
 *
 * Within a chunk the rows go in blocks small enough that a block of
 * every diagonal stays in L1 cache while the k columns stream past it,
 * so the matrix is read from memory once for all k right-hand sides.
 * For stencils of up to DIA_MAX_UNROLLED diagonals, the rows every
 * diagonal covers (all but the band's edges) keep their sum in a
 * register across the diagonals, which adds in the same order.
 *
 * poly_chain runs the GMRES-polynomial preconditioner's whole factor
 * chain (preconditioners/polynomial.py) in one call: one sweep over the
 * rows per factor, each row block doing the factor's product and its
 * axpys while the block is in cache.  Every element sees the operations
 * of KernelBackend.poly_chain's recurrence in the same order: each
 * product row sums as dia_spmm does with the same chunk, and each axpy
 * rounds (T)alpha * x and then the sum, as dense.c's axpy does.
 *
 * The kernel is written once and instantiated for float and double:
 * the file includes itself with DIA_T and DIA_NAME defined.
 */

#ifndef DIA_T

#include <stdint.h>
#include <string.h>

/* The matrix as the Python side caches it on its DIA plan (DiaMatrix). */
struct dia_matrix {
    int64_t n_rows, n_cols, n_diags;
    const int64_t *offsets;
    const void *values;
};

/* A polynomial's factor plan as the Python side packs it (PolyPlan). */
struct poly_plan {
    int64_t n_factors;
    int64_t power;        /* 1: Horner steps, 0: product-form factors */
    const int64_t *steps; /* per factor: number of coefficients, products */
    const double *coeffs; /* 4 per factor, the unused ones zero */
};

/* Bytes of diagonal values one row block keeps in cache. */
#define DIA_BLOCK_BYTES 16384
#define DIA_MIN_BLOCK 64
/* Most diagonals whose covered rows are summed in registers. */
#define DIA_MAX_UNROLLED 9

static inline int64_t dia_min(int64_t a, int64_t b) { return a < b ? a : b; }
static inline int64_t dia_max(int64_t a, int64_t b) { return a > b ? a : b; }

/* Rows [dia_lo, dia_hi) are the ones diagonal d covers. */
static inline int64_t dia_lo(int64_t d) { return d < 0 ? -d : 0; }
static inline int64_t dia_hi(const struct dia_matrix *A, int64_t d)
{
    return dia_min(A->n_rows, A->n_cols - d);
}

/* The first diagonal whose range meets rows [c0, c1), or n_diags. */
static inline int64_t dia_first(const struct dia_matrix *A, int64_t c0, int64_t c1)
{
    for (int64_t di = 0; di < A->n_diags; ++di) {
        int64_t d = A->offsets[di];
        if (dia_min(dia_hi(A, d), c1) > dia_max(dia_lo(d), c0))
            return di;
    }
    return A->n_diags;
}

/* Rows per block: a block of every diagonal fits DIA_BLOCK_BYTES. */
static inline int64_t dia_block(const struct dia_matrix *A, int64_t itemsize)
{
    return dia_max(DIA_BLOCK_BYTES / (dia_max(A->n_diags, 1) * itemsize), DIA_MIN_BLOCK);
}

/* pool.c */
typedef void (*pool_task)(void *arg, int64_t segment);
int64_t pool_segments(int64_t n, int64_t most, int64_t align, int64_t *length);
void pool_run(int64_t count, pool_task task, void *arg);

/* One dia_spmm call, split into `count` segments of `length` rows (the
 * last takes the rest). */
struct dia_job {
    const struct dia_matrix *A;
    int64_t k, chunk, length, count;
    const void *x;
    void *y;
};

/* Where a pass that trails a sweep by `behind` rows ends once the sweep
 * has reached row r1 of n: it catches up when the sweep is done. */
static inline int64_t poly_behind(int64_t r1, int64_t n, int64_t behind)
{
    return r1 == n ? n : dia_max(r1 - behind, 0);
}

#define DIA_T float
#define DIA_NAME(name) name##_f32
#include __FILE__
#undef DIA_T
#undef DIA_NAME

#define DIA_T double
#define DIA_NAME(name) name##_f64
#include __FILE__
#undef DIA_T
#undef DIA_NAME

#else /* DIA_T: the kernel for one value type */

/* Rows [r0, r1) of one column, one diagonal at a time (`first` writes
 * or zero-fills, the later diagonals add). */
static void DIA_NAME(rows_by_diagonal)(const struct dia_matrix *A, int64_t first,
                                       int64_t r0, int64_t r1, const DIA_T *x,
                                       DIA_T *y)
{
    const DIA_T *values = (const DIA_T *)A->values;
    int64_t lo = r1, hi = r1;
    if (first < A->n_diags) {
        int64_t d = A->offsets[first];
        const DIA_T *v = values + first * A->n_rows;
        lo = dia_max(dia_lo(d), r0);
        hi = dia_min(dia_hi(A, d), r1);
        if (hi <= lo)
            lo = hi = r1;
        for (int64_t i = lo; i < hi; ++i)
            y[i] = x[i + d] * v[i];
    }
    for (int64_t i = r0; i < lo; ++i)
        y[i] = 0;
    for (int64_t i = hi; i < r1; ++i)
        y[i] = 0;
    for (int64_t di = first + 1; di < A->n_diags; ++di) {
        int64_t d = A->offsets[di];
        const DIA_T *v = values + di * A->n_rows;
        int64_t dlo = dia_max(dia_lo(d), r0), dhi = dia_min(dia_hi(A, d), r1);
        for (int64_t i = dlo; i < dhi; ++i)
            y[i] = y[i] + x[i + d] * v[i];
    }
}

/* Rows [lo, hi), which all nd diagonals cover, each summed in a register
 * in diagonal order: the sums rows_by_diagonal forms when the first
 * diagonal is diagonal 0.  Inlined with a constant nd, so the diagonal
 * loop unrolls and the row loop vectorizes. */
static inline __attribute__((always_inline)) void
DIA_NAME(covered_rows)(int64_t nd, const struct dia_matrix *A, int64_t lo, int64_t hi,
                       const DIA_T *x, DIA_T *restrict y)
{
    const DIA_T *xs[DIA_MAX_UNROLLED], *vs[DIA_MAX_UNROLLED];
    for (int64_t j = 0; j < nd; ++j) {
        xs[j] = x + A->offsets[j];
        vs[j] = (const DIA_T *)A->values + j * A->n_rows;
    }
    for (int64_t i = lo; i < hi; ++i) {
        DIA_T s = xs[0][i] * vs[0][i];
        for (int64_t j = 1; j < nd; ++j)
            s = s + xs[j][i] * vs[j][i];
        y[i] = s;
    }
}

/* Rows [r0, r1) of one column of a chunk whose first diagonal is `first`
 * (y and x do not overlap): the rows every diagonal covers in registers
 * when the stencil has an odd count of up to DIA_MAX_UNROLLED diagonals,
 * the rest by rows_by_diagonal.  Either way each row gets the same sum. */
static void DIA_NAME(product_block)(const struct dia_matrix *A, int64_t first, int64_t r0,
                                    int64_t r1, const DIA_T *x, DIA_T *y)
{
    const int64_t nd = A->n_diags;
    if (first == 0 && nd % 2 && nd <= DIA_MAX_UNROLLED) {
        const int64_t lo = dia_max(dia_lo(A->offsets[0]), r0);
        const int64_t hi = dia_min(dia_hi(A, A->offsets[nd - 1]), r1);
        if (lo < hi) {
            if (nd == 3)
                DIA_NAME(covered_rows)(3, A, lo, hi, x, y);
            else if (nd == 5)
                DIA_NAME(covered_rows)(5, A, lo, hi, x, y);
            else if (nd == 7)
                DIA_NAME(covered_rows)(7, A, lo, hi, x, y);
            else if (nd == 9)
                DIA_NAME(covered_rows)(9, A, lo, hi, x, y);
            else
                DIA_NAME(covered_rows)(1, A, lo, hi, x, y);
            DIA_NAME(rows_by_diagonal)(A, first, r0, lo, x, y);
            DIA_NAME(rows_by_diagonal)(A, first, hi, r1, x, y);
            return;
        }
    }
    DIA_NAME(rows_by_diagonal)(A, first, r0, r1, x, y);
}

/* Y = A X on the rows of segment s of a dia_spmm call (a pool_task):
 * chunk by chunk, each chunk's rows in the segment run with the chunk's
 * first diagonal, in blocks, every column of a block before the next. */
static void DIA_NAME(spmm_segment)(void *arg, int64_t s)
{
    const struct dia_job *job = arg;
    const struct dia_matrix *A = job->A;
    const int64_t n_rows = A->n_rows, n_cols = A->n_cols, chunk = job->chunk;
    const int64_t block = dia_block(A, sizeof(DIA_T));
    const int64_t r0 = s * job->length, r1 = s + 1 == job->count ? n_rows : r0 + job->length;
    const DIA_T *x = job->x;
    DIA_T *y = job->y;
    for (int64_t c0 = r0 - r0 % chunk; c0 < r1; c0 += chunk) {
        const int64_t c1 = dia_min(c0 + chunk, n_rows), end = dia_min(c1, r1);
        const int64_t first = dia_first(A, c0, c1);
        for (int64_t b0 = dia_max(c0, r0); b0 < end; b0 += block) {
            const int64_t b1 = dia_min(b0 + block, end);
            for (int64_t c = 0; c < job->k; ++c)
                DIA_NAME(product_block)(A, first, b0, b1, x + c * n_cols, y + c * n_rows);
        }
    }
}

void DIA_NAME(dia_spmm)(const struct dia_matrix *A, int64_t k, const DIA_T *x,
                        DIA_T *y, int64_t chunk)
{
    struct dia_job job = {A, k, chunk, 0, 0, x, y};
    job.count = pool_segments(A->n_rows, A->n_rows /* no cap */, 64, &job.length);
    pool_run(job.count, DIA_NAME(spmm_segment), &job);
}

/* y = A x on rows [r0, r1) of one column; the rows of each chunk they
 * span run with that chunk's first diagonal, as in dia_spmm. */
static void DIA_NAME(product_rows)(const struct dia_matrix *A, int64_t chunk, int64_t r0,
                                   int64_t r1, const DIA_T *x, DIA_T *y)
{
    while (r0 < r1) {
        int64_t c0 = r0 - r0 % chunk, c1 = dia_min(c0 + chunk, A->n_rows);
        int64_t end = dia_min(c1, r1);
        DIA_NAME(product_block)(A, dia_first(A, c0, c1), r0, end, x, y);
        r0 = end;
    }
}

/* y[r0:r1] += alpha * x[r0:r1], rounded as dense.c's axpy. */
static void DIA_NAME(axpy_rows)(int64_t r0, int64_t r1, double alpha, const DIA_T *x,
                                DIA_T *y)
{
    const DIA_T a = (DIA_T)alpha;
    for (int64_t i = r0; i < r1; ++i)
        y[i] = y[i] + a * x[i];
}

/* The product form (KernelBackend._poly_roots): prod = x; y = 0; per
 * real root y += a prod; [w = A prod; prod += b w], per conjugate pair
 * w = A prod; y += a prod; y += b w; [t = A w; prod += c w; prod += d t].
 * prod is updated in place, so its update trails the product by `lag`
 * rows (minus the lowest offset), which later product rows still read;
 * t trails w by `lead` rows (the highest offset), which t's rows read
 * ahead. */
static void DIA_NAME(poly_roots)(const struct dia_matrix *A, const struct poly_plan *P,
                                 int64_t k, const DIA_T *x, DIA_T *y, DIA_T *prod,
                                 DIA_T *w, DIA_T *t, int64_t chunk)
{
    const int64_t n = A->n_rows, block = dia_block(A, sizeof(DIA_T));
    const int64_t lag = A->n_diags ? dia_max(-A->offsets[0], 0) : 0;
    const int64_t lead = A->n_diags ? dia_max(A->offsets[A->n_diags - 1], 0) : 0;
    memcpy(prod, x, (size_t)(n * k) * sizeof(DIA_T));
    memset(y, 0, (size_t)(n * k) * sizeof(DIA_T));
    for (int64_t f = 0; f < P->n_factors; ++f) {
        const double *a = P->coeffs + 4 * f;
        const int64_t pair = P->steps[2 * f] == 4, products = P->steps[2 * f + 1];
        int64_t t_done = 0, p_done = 0;
        for (int64_t b0 = 0; b0 < n; b0 += block) {
            const int64_t b1 = dia_min(b0 + block, n);
            const int64_t t_end = poly_behind(b1, n, lead);
            const int64_t p_end = pair ? dia_min(poly_behind(b1, n, lag), t_end)
                                       : poly_behind(b1, n, lag);
            for (int64_t c = 0; c < k; ++c) {
                DIA_T *yc = y + c * n, *pc = prod + c * n, *wc = w + c * n, *tc = t + c * n;
                if (!pair) {
                    DIA_NAME(axpy_rows)(b0, b1, a[0], pc, yc);
                    if (products) {
                        DIA_NAME(product_rows)(A, chunk, b0, b1, pc, wc);
                        DIA_NAME(axpy_rows)(p_done, p_end, a[1], wc, pc);
                    }
                    continue;
                }
                DIA_NAME(product_rows)(A, chunk, b0, b1, pc, wc);
                DIA_NAME(axpy_rows)(b0, b1, a[0], pc, yc);
                DIA_NAME(axpy_rows)(b0, b1, a[1], wc, yc);
                if (products == 2) {
                    DIA_NAME(product_rows)(A, chunk, t_done, t_end, wc, tc);
                    DIA_NAME(axpy_rows)(p_done, p_end, a[2], wc, pc);
                    DIA_NAME(axpy_rows)(p_done, p_end, a[3], tc, pc);
                }
            }
            t_done = t_end;
            p_done = p_end;
        }
    }
}

/* Horner's rule (KernelBackend._poly_power): y = 0; per step
 * [y = A y, ping-ponging between w and t]; y += c x; then out = y. */
static void DIA_NAME(poly_power)(const struct dia_matrix *A, const struct poly_plan *P,
                                 int64_t k, const DIA_T *x, DIA_T *out, DIA_T *w,
                                 DIA_T *t, int64_t chunk)
{
    const int64_t n = A->n_rows, block = dia_block(A, sizeof(DIA_T));
    DIA_T *y = w;
    memset(y, 0, (size_t)(n * k) * sizeof(DIA_T));
    for (int64_t f = 0; f < P->n_factors; ++f) {
        const double a = P->coeffs[4 * f];
        if (!P->steps[2 * f + 1]) {
            for (int64_t c = 0; c < k; ++c)
                DIA_NAME(axpy_rows)(0, n, a, x + c * n, y + c * n);
            continue;
        }
        DIA_T *next = y == w ? t : w;
        for (int64_t b0 = 0; b0 < n; b0 += block) {
            const int64_t b1 = dia_min(b0 + block, n);
            for (int64_t c = 0; c < k; ++c) {
                DIA_NAME(product_rows)(A, chunk, b0, b1, y + c * n, next + c * n);
                DIA_NAME(axpy_rows)(b0, b1, a, x + c * n, next + c * n);
            }
        }
        y = next;
    }
    memcpy(out, y, (size_t)(n * k) * sizeof(DIA_T));
}

/* y = p(A) x for the square DIA matrix A and the plan P; x, y and the
 * scratch prod, w, t are Fortran-ordered (n, k) blocks.  y may be x;
 * prod, w and t overlap nothing. */
void DIA_NAME(poly_chain)(const struct dia_matrix *A, const struct poly_plan *P, int64_t k,
                          const DIA_T *x, DIA_T *y, DIA_T *prod, DIA_T *w, DIA_T *t,
                          int64_t chunk)
{
    if (P->power)
        DIA_NAME(poly_power)(A, P, k, x, y, w, t, chunk);
    else
        DIA_NAME(poly_roots)(A, P, k, x, y, prod, w, t, chunk);
}

#endif /* DIA_T */
