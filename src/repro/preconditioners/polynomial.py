"""GMRES-polynomial preconditioner (Loe/Thornquist/Boman [16]).

The preconditioner is ``M = p(A)`` where ``p`` is the degree-``d`` GMRES
polynomial: the polynomial that minimises ``|| (I - A p(A)) v ||`` over the
Krylov space built from a seed vector ``v``.  Its residual polynomial
``phi(z) = 1 - z p(z)`` has the *harmonic Ritz values* of a ``d``-step
Arnoldi process as its roots, so the preconditioner can be applied in
product form

.. math:: \\phi(z) = \\prod_{i=1}^{d} (1 - z/\\theta_i),

using one SpMV per root (complex-conjugate root pairs are combined into a
quadratic factor so the application stays in real arithmetic).  Roots are
applied in modified-Leja order for numerical stability.

This is the preconditioner of Sections V-C and V-F of the paper: the SpMVs
of the application dominate its cost (and land in the "SpMV" bucket of the
timing figures), which is exactly why it pairs so well with the large fp32
SpMV speedup.  Section V-F's caveat also lives here: applying a *high
degree* polynomial in fp32 accumulates enough rounding error that the
implicit and explicit GMRES residuals diverge ("loss of accuracy").

Construction cost is excluded from solve times (as in the paper) and is
performed with unmetered NumPy operations; it is reported separately via
``setup_seconds``.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from ..linalg import kernels
from ..scratch import scratch
from ..sparse.csr import CsrMatrix
from .base import Preconditioner

__all__ = ["GmresPolynomialPreconditioner", "harmonic_ritz_values", "leja_order"]


def _arnoldi(matrix: CsrMatrix, seed: np.ndarray, degree: int):
    """Plain (unmetered) Arnoldi with CGS2; returns (H, actual_degree).

    The Arnoldi vectors are kept in the matrix's own precision; the small
    Hessenberg matrix is accumulated in float64 for a reliable eigenvalue
    solve (the LAPACK call a production code would make is float64-backed
    either way for such a tiny matrix).
    """
    n = matrix.n_rows
    dtype = matrix.dtype
    V = np.zeros((n, degree + 1), dtype=dtype, order="F")
    H = np.zeros((degree + 1, degree), dtype=np.float64)
    v0 = seed.astype(dtype)
    beta = float(np.linalg.norm(v0))
    if beta == 0.0:
        raise ValueError("polynomial preconditioner seed vector is zero")
    V[:, 0] = v0 / dtype.type(beta)
    actual = degree
    for j in range(degree):
        w = matrix.matvec(V[:, j])
        # CGS2
        h1 = V[:, : j + 1].T @ w
        w = w - V[:, : j + 1] @ h1
        h2 = V[:, : j + 1].T @ w
        w = w - V[:, : j + 1] @ h2
        H[: j + 1, j] = (h1 + h2).astype(np.float64)
        h_next = float(np.linalg.norm(w))
        H[j + 1, j] = h_next
        if h_next <= 1e-14 * max(1.0, abs(H[: j + 1, j]).max()):
            actual = j + 1
            break
        V[:, j + 1] = w / dtype.type(h_next)
    return H[: actual + 1, : actual], actual


def harmonic_ritz_values(H: np.ndarray) -> np.ndarray:
    """Harmonic Ritz values from an Arnoldi Hessenberg matrix.

    ``H`` has shape ``(d+1, d)``.  The harmonic Ritz values are the
    eigenvalues of ``H_d + h_{d+1,d}^2 H_d^{-T} e_d e_d^T`` where ``H_d`` is
    the leading ``d × d`` block; they are the roots of the GMRES residual
    polynomial of the corresponding Krylov space.
    """
    d = H.shape[1]
    if H.shape[0] != d + 1:
        raise ValueError("H must have shape (d+1, d)")
    Hd = H[:d, :d]
    h2 = H[d, d - 1] ** 2
    e_d = np.zeros(d)
    e_d[-1] = 1.0
    f = np.linalg.solve(Hd.T, e_d)
    F = Hd + h2 * np.outer(f, e_d)
    return np.linalg.eigvals(F)


def leja_order(roots: np.ndarray) -> np.ndarray:
    """Order roots by the (modified) Leja ordering, keeping conjugate pairs adjacent.

    The first root is the one of largest magnitude; each subsequent root
    maximises the product of distances to the roots already placed (computed
    in log space to avoid overflow).  Whenever a genuinely complex root is
    placed, its conjugate is placed immediately after so the product-form
    application can combine them into a real quadratic factor.
    """
    roots = np.asarray(roots, dtype=np.complex128)
    d = roots.size
    if d == 0:
        return roots
    remaining = list(range(d))
    ordered: list[int] = []

    def place(idx: int) -> None:
        ordered.append(idx)
        remaining.remove(idx)
        root = roots[idx]
        if abs(root.imag) > 1e-12 * max(1.0, abs(root.real)):
            # Find and place the conjugate partner.
            best, best_dist = None, np.inf
            for j in remaining:
                dist = abs(roots[j] - np.conj(root))
                if dist < best_dist:
                    best, best_dist = j, dist
            if best is not None:
                ordered.append(best)
                remaining.remove(best)

    start = int(np.argmax(np.abs(roots)))
    place(start)
    while remaining:
        placed_vals = roots[ordered]
        scores = []
        for j in remaining:
            with np.errstate(divide="ignore"):
                score = np.sum(np.log(np.abs(roots[j] - placed_vals) + 1e-300))
            scores.append(score)
        place(remaining[int(np.argmax(scores))])
    return roots[np.array(ordered, dtype=np.int64)]


class GmresPolynomialPreconditioner(Preconditioner):
    """``M = p(A)`` with the degree-``d`` GMRES polynomial.

    Parameters
    ----------
    matrix:
        System matrix (converted internally to the preconditioner precision).
    degree:
        Polynomial degree ``d`` (the paper sweeps 10–70; 25 and 40 are the
        headline settings).
    precision:
        Precision in which the polynomial is applied (and in which the copy
        of ``A`` used by its SpMVs is stored).
    seed:
        Seed vector for the Arnoldi run.  Defaults to a deterministic random
        vector: a random seed excites *every* eigencomponent, so the
        harmonic Ritz values sample the whole spectrum.  (Seeding with the
        structured all-ones right-hand side can leave entire symmetry
        classes of eigenvectors unseen on the model problems, producing a
        polynomial that is nearly singular on them.)
    apply_method:
        ``"roots"`` (product form over Leja-ordered harmonic Ritz values —
        the stable choice used by the paper's implementation) or ``"power"``
        (naive Horner on the monomial coefficients, provided for the
        stability ablation).
    """

    def __init__(
        self,
        matrix: CsrMatrix,
        degree: int = 25,
        precision="double",
        *,
        seed: Optional[np.ndarray] = None,
        apply_method: str = "roots",
    ) -> None:
        super().__init__(precision=precision, name=f"gmres_poly[{degree}]")
        if degree < 1:
            raise ValueError("polynomial degree must be at least 1")
        if apply_method not in ("roots", "power"):
            raise ValueError("apply_method must be 'roots' or 'power'")
        start = time.perf_counter()
        self.requested_degree = int(degree)
        self.apply_method = apply_method
        self._matrix = self._matrix_in_precision(matrix, self.precision)
        if seed is None:
            rng = np.random.default_rng(16)  # reference [16]: the GMRES-polynomial paper
            seed = rng.standard_normal(matrix.n_rows)
        H, actual = _arnoldi(self._matrix, np.asarray(seed, dtype=np.float64), degree)
        self.degree = actual
        theta = harmonic_ritz_values(H)
        # Guard against (near-)zero roots, which would blow up 1/theta.
        magnitude_floor = 1e-12 * float(np.max(np.abs(theta)))
        theta = theta[np.abs(theta) > magnitude_floor]
        if theta.size == 0:
            raise ValueError("all harmonic Ritz values vanished; cannot build polynomial")
        self.degree = theta.size
        self.roots = leja_order(theta)
        if apply_method == "power":
            self._coefficients = self._power_coefficients(self.roots)
        self._setup_seconds = time.perf_counter() - start

    # ------------------------------------------------------------------ #
    @staticmethod
    def _power_coefficients(roots: np.ndarray) -> np.ndarray:
        """Monomial coefficients ``c_k`` of ``p(z) = sum c_k z^k``.

        Expand ``phi(z) = prod (1 - z/theta_i)`` and use
        ``p(z) = (1 - phi(z)) / z``.
        """
        phi = np.array([1.0 + 0.0j])
        for theta in roots:
            phi = np.convolve(phi, np.array([1.0, -1.0 / theta]))
        # phi[k] is the coefficient of z^k; p(z) = (1 - phi(z))/z.
        p = -phi[1:]
        return np.real(p)

    # ------------------------------------------------------------------ #
    def spmvs_per_apply(self) -> int:
        """Number of SpMVs one application performs (≈ the polynomial degree)."""
        if self.apply_method == "power":
            return int(self.degree)
        count = 0
        i = 0
        roots = self.roots
        d = roots.size
        while i < d:
            if abs(roots[i].imag) <= 1e-12 * max(1.0, abs(roots[i].real)):
                if i < d - 1:
                    count += 1
                i += 1
            else:
                count += 1
                if i < d - 2:
                    count += 1
                i += 2
        return count

    def apply(self, vector: np.ndarray, out: "np.ndarray | None" = None) -> np.ndarray:
        vector = self._check_precision(vector)
        if self.apply_method == "power":
            return self._apply_power(vector, out=out)
        return self._apply_roots(vector, out=out)

    def apply_block(
        self, block: np.ndarray, out: "np.ndarray | None" = None
    ) -> np.ndarray:
        """Batched application ``p(A) X``: one SpMM per polynomial factor.

        The recurrences of the product-form/Horner application are plain
        SpMV + axpy sequences, so the block version simply runs them on
        ``(n, k)`` blocks with the batched ``spmm`` kernel — the matrix is
        read once per factor for all ``k`` columns, which is exactly the
        amortization the paper's bandwidth argument predicts for the
        SpMV-dominated polynomial preconditioner.
        """
        block = self._check_precision(block)
        if block.ndim != 2:
            raise ValueError("apply_block expects a 2-D block of column vectors")
        if out is None:
            out = np.empty(block.shape, dtype=self.precision.dtype, order="F")
        # The recurrence scratch: the running product, one SpMM output, one
        # second-order SpMM output and the axpy work block.
        prod, w, t, work = (
            scratch(tag, block.dtype, block.shape, order="F")
            for tag in ("poly.block.prod", "poly.block.w", "poly.block.t", "poly.block.work")
        )
        if self.apply_method == "power":
            return self._apply_power_block(block, out, w, t, work)
        return self._apply_roots_block(block, out, prod, w, t, work)

    # -- product form over Leja-ordered roots --------------------------- #
    def _apply_roots(
        self, vector: np.ndarray, out: "np.ndarray | None" = None
    ) -> np.ndarray:
        A = self._matrix
        n, dtype = vector.shape[0], vector.dtype
        prod = kernels.copy(vector, out=scratch("poly.prod", dtype, n))
        w_buf = scratch("poly.w", dtype, n)
        t_buf = scratch("poly.t", dtype, n)
        if out is None:
            y = np.zeros_like(vector)
        else:
            out[:] = 0
            y = out
        roots = self.roots
        d = roots.size
        i = 0
        while i < d:
            theta = roots[i]
            is_real = abs(theta.imag) <= 1e-12 * max(1.0, abs(theta.real))
            last_real = is_real and i == d - 1
            last_pair = (not is_real) and i >= d - 2
            if is_real:
                inv = 1.0 / theta.real
                kernels.axpy(inv, prod, y)
                if not last_real:
                    w = kernels.spmv(A, prod, out=w_buf)
                    kernels.axpy(-inv, w, prod)
                i += 1
            else:
                a = theta.real
                m2 = theta.real * theta.real + theta.imag * theta.imag
                w = kernels.spmv(A, prod, out=w_buf)
                kernels.axpy(2.0 * a / m2, prod, y)
                kernels.axpy(-1.0 / m2, w, y)
                if not last_pair:
                    t = kernels.spmv(A, w, out=t_buf)
                    kernels.axpy(-2.0 * a / m2, w, prod)
                    kernels.axpy(1.0 / m2, t, prod)
                i += 2
        return y

    def _apply_roots_block(
        self,
        block: np.ndarray,
        out: np.ndarray,
        prod: np.ndarray,
        w_buf: np.ndarray,
        t_buf: np.ndarray,
        work: np.ndarray,
    ) -> np.ndarray:
        """Block product-form application (same recurrence as `_apply_roots`)."""
        A = self._matrix
        prod = kernels.copy(block, out=prod)
        out[:] = 0
        y = out
        roots = self.roots
        d = roots.size
        i = 0
        while i < d:
            theta = roots[i]
            is_real = abs(theta.imag) <= 1e-12 * max(1.0, abs(theta.real))
            last_real = is_real and i == d - 1
            last_pair = (not is_real) and i >= d - 2
            if is_real:
                inv = 1.0 / theta.real
                kernels.axpy(inv, prod, y, work=work)
                if not last_real:
                    w = kernels.spmm(A, prod, out=w_buf)
                    kernels.axpy(-inv, w, prod, work=work)
                i += 1
            else:
                a = theta.real
                m2 = theta.real * theta.real + theta.imag * theta.imag
                w = kernels.spmm(A, prod, out=w_buf)
                kernels.axpy(2.0 * a / m2, prod, y, work=work)
                kernels.axpy(-1.0 / m2, w, y, work=work)
                if not last_pair:
                    t = kernels.spmm(A, w, out=t_buf)
                    kernels.axpy(-2.0 * a / m2, w, prod, work=work)
                    kernels.axpy(1.0 / m2, t, prod, work=work)
                i += 2
        return y

    def _apply_power_block(
        self,
        block: np.ndarray,
        out: np.ndarray,
        w_buf: np.ndarray,
        t_buf: np.ndarray,
        work: np.ndarray,
    ) -> np.ndarray:
        """Block Horner application (same recurrence as `_apply_power`)."""
        A = self._matrix
        coeffs = self._coefficients
        y = w_buf
        y[:] = 0
        kernels.axpy(float(coeffs[-1]), block, y, work=work)
        for c in coeffs[-2::-1]:
            y = kernels.spmm(A, y, out=t_buf if y is w_buf else w_buf)
            kernels.axpy(float(c), block, y, work=work)
        out[:] = y
        return out

    # -- naive Horner on monomial coefficients (ablation) ---------------- #
    def _apply_power(
        self, vector: np.ndarray, out: "np.ndarray | None" = None
    ) -> np.ndarray:
        A = self._matrix
        coeffs = self._coefficients
        # Horner: p(A) v = c_0 v + A (c_1 v + A (c_2 v + ...)), ping-ponging
        # between two scratch vectors (spmv forbids out aliasing x).
        n, dtype = vector.shape[0], vector.dtype
        w_buf = scratch("poly.w", dtype, n)
        t_buf = scratch("poly.t", dtype, n)
        y = w_buf
        y[:] = 0
        kernels.axpy(float(coeffs[-1]), vector, y)
        for c in coeffs[-2::-1]:
            y = kernels.spmv(A, y, out=t_buf if y is w_buf else w_buf)
            kernels.axpy(float(c), vector, y)
        if out is None:
            return y.copy()
        out[:] = y
        return out

    @property
    def matrix(self) -> CsrMatrix:
        """The copy of ``A`` (in the preconditioner precision) used by the SpMVs."""
        return self._matrix
