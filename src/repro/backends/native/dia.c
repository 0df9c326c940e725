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
 * Within a chunk the rows go in blocks small enough that a block of
 * every diagonal stays in L1 cache while the k columns stream past it,
 * so the matrix is read from memory once for all k right-hand sides.
 *
 * The kernel is written once and instantiated for float and double:
 * the file includes itself with DIA_T and DIA_NAME defined.
 */

#ifndef DIA_T

#include <stdint.h>

/* The matrix as the Python side caches it on its DIA plan (DiaMatrix). */
struct dia_matrix {
    int64_t n_rows, n_cols, n_diags;
    const int64_t *offsets;
    const void *values;
};

/* Bytes of diagonal values one row block keeps in cache. */
#define DIA_BLOCK_BYTES 16384
#define DIA_MIN_BLOCK 64

static inline int64_t dia_min(int64_t a, int64_t b) { return a < b ? a : b; }
static inline int64_t dia_max(int64_t a, int64_t b) { return a > b ? a : b; }

/* Rows [dia_lo, dia_hi) are the ones diagonal d covers. */
static inline int64_t dia_lo(int64_t d) { return d < 0 ? -d : 0; }
static inline int64_t dia_hi(const struct dia_matrix *A, int64_t d)
{
    return dia_min(A->n_rows, A->n_cols - d);
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

void DIA_NAME(dia_spmm)(const struct dia_matrix *A, int64_t k, const DIA_T *x,
                        DIA_T *y, int64_t chunk)
{
    const int64_t n_rows = A->n_rows, n_cols = A->n_cols, n_diags = A->n_diags;
    int64_t block = DIA_BLOCK_BYTES / (dia_max(n_diags, 1) * (int64_t)sizeof(DIA_T));
    block = dia_max(block, DIA_MIN_BLOCK);
    for (int64_t c0 = 0; c0 < n_rows; c0 += chunk) {
        int64_t c1 = dia_min(c0 + chunk, n_rows);
        int64_t first = n_diags;
        for (int64_t di = 0; di < n_diags; ++di) {
            int64_t d = A->offsets[di];
            if (dia_min(dia_hi(A, d), c1) > dia_max(dia_lo(d), c0)) {
                first = di;
                break;
            }
        }
        for (int64_t b0 = c0; b0 < c1; b0 += block) {
            int64_t b1 = dia_min(b0 + block, c1);
            for (int64_t c = 0; c < k; ++c)
                DIA_NAME(rows_by_diagonal)(A, first, b0, b1, x + c * n_cols,
                                           y + c * n_rows);
        }
    }
}

#endif /* DIA_T */
