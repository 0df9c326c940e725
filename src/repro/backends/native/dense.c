/* Dense kernels the block solvers call once per Krylov step:
 *
 *   - axpy: y += alpha * x over n contiguous entries, the NumPy
 *     backend's axpy in one pass instead of a multiply and an add;
 *   - band_qr_step: the Givens sweep of one block step of the
 *     band-Hessenberg QR (linalg/dense.py, BlockGivensWorkspace).
 *
 * Both do the arithmetic of their Python versions in the same order and
 * precision, so the results agree bit for bit (built with
 * -ffp-contract=off, which keeps every product rounded before its sum):
 * axpy rounds alpha * x[i] and then y[i] + that, as NumPy's multiply
 * then add does, and band_qr_step computes each rotation and applies it
 * to the same entries in the same order as the Python loop.
 *
 * Written once and instantiated for float and double: the file includes
 * itself with DENSE_T and DENSE_NAME defined.
 */

#ifndef DENSE_T

#include <math.h>
#include <stdint.h>

#define DENSE_T float
#define DENSE_NAME(name) name##_f32
#define DENSE_SQRT sqrtf
#define DENSE_ABS fabsf
#include __FILE__
#undef DENSE_T
#undef DENSE_NAME
#undef DENSE_SQRT
#undef DENSE_ABS

#define DENSE_T double
#define DENSE_NAME(name) name##_f64
#define DENSE_SQRT sqrt
#define DENSE_ABS fabs
#include __FILE__
#undef DENSE_T
#undef DENSE_NAME
#undef DENSE_SQRT
#undef DENSE_ABS

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

#endif /* DENSE_T */
