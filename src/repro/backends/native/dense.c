/* Dense kernels the solvers call once per Krylov step:
 *
 *   - axpy: y += alpha * x over n contiguous entries, the NumPy
 *     backend's axpy in one pass instead of a multiply and an add;
 *   - band_qr_step: the Givens sweep of one block step of the
 *     band-Hessenberg QR (linalg/dense.py, BlockGivensWorkspace);
 *   - cgs2_project: both projection passes of CGS2 against a Krylov
 *     basis, in three sweeps over it instead of four.
 *
 * axpy and band_qr_step do the arithmetic of their Python versions in
 * the same order and precision, so the results agree bit for bit (built
 * with -ffp-contract=off, which keeps every product rounded before its
 * sum): axpy rounds alpha * x[i] and then y[i] + that, as NumPy's
 * multiply then add does, and band_qr_step computes each rotation and
 * applies it to the same entries in the same order as the Python loop.
 *
 * cgs2_project does not: its Python version is a sequence of BLAS GEMVs,
 * whose summation order BLAS picks.  It sums over fixed 64-byte lanes
 * instead, so it agrees with the GEMVs to rounding, and the order depends
 * on the basis shape only, so its results are the same on every call, at
 * any address and in any thread.
 *
 * Written once and instantiated for float and double: the file includes
 * itself with DENSE_T and DENSE_NAME defined.
 */

#ifndef DENSE_T

#include <math.h>
#include <stdint.h>
#include <string.h>

/* Rows per tile of cgs2_project: a multiple of every lane count. */
#define CGS2_TILE 1024

/* End of cgs2_project's tile that starts at row r.  Tiles start at load
 * boundaries (see the lane layout below), so the first ends
 * CGS2_TILE - phase rows in. */
static inline int64_t cgs2_tile_end(int64_t r, int64_t n, int64_t phase)
{
    const int64_t end = r ? r + CGS2_TILE : CGS2_TILE - phase;
    return end < n ? end : n;
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

/* Both projection passes of CGS2 on w (n entries) against the j >= 1
 * columns of V (n x j, column-major, leading dimension n), in three
 * sweeps over V instead of four:
 *
 *   1. h1 = V^T w;
 *   2. tile by tile, w -= V h1 on the tile, then h2 += V^T w on it while
 *      the tile is still in cache;
 *   3. w -= V h2.
 *
 * The order of every sum depends on n and j only (see the lane layout
 * above), not on addresses or threads.  It is not BLAS's order, so the
 * results agree with the GEMV sequence to rounding, not bit for bit.
 * The accumulators take 64 j bytes of the stack; the caller bounds j. */
void DENSE_NAME(cgs2_project)(int64_t n, int64_t j, const DENSE_T *V, DENSE_T *w, DENSE_T *h1,
                              DENSE_T *h2)
{
    DENSE_VEC acc[j], t[CGS2_TILE / LANES];
    const DENSE_VEC zero = {0};
    const int64_t phase = DENSE_NAME(phase)(n, V);
    int64_t r, e;

    for (int64_t c = 0; c < j; ++c)
        acc[c] = zero;
    for (r = 0; r < n; r = e) {
        e = cgs2_tile_end(r, n, phase);
        DENSE_NAME(tile_dots)(e - r, r ? 0 : phase, j, n, V + r, w + r, acc);
    }
    for (int64_t c = 0; c < j; ++c) {
        h1[c] = DENSE_NAME(lane_sum)(acc[c]);
        acc[c] = zero;
    }
    for (r = 0; r < n; r = e) {
        e = cgs2_tile_end(r, n, phase);
        DENSE_NAME(tile_subtract)(e - r, r ? 0 : phase, j, n, V + r, h1, w + r, (DENSE_T *)t);
        DENSE_NAME(tile_dots)(e - r, r ? 0 : phase, j, n, V + r, w + r, acc);
    }
    for (int64_t c = 0; c < j; ++c)
        h2[c] = DENSE_NAME(lane_sum)(acc[c]);
    for (r = 0; r < n; r = e) {
        e = cgs2_tile_end(r, n, phase);
        DENSE_NAME(tile_subtract)(e - r, r ? 0 : phase, j, n, V + r, h2, w + r, (DENSE_T *)t);
    }
}

#undef LANES

#endif /* DENSE_T */
