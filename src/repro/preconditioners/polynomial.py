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

The constructor turns the roots into a *factor plan*
(:class:`~repro.backends.base.FactorPlan`): one entry per real root or
conjugate pair, holding the scalar coefficients of its axpys and the
number of matrix products it runs (the last factor skips the products
whose result is never read).  The ``"power"`` form's plan holds the Horner
coefficients instead.  An apply is one :func:`repro.linalg.kernels.poly_chain`
call, which walks the plan for an ``(n,)`` vector with SpMVs and for an
``(n, k)`` block with SpMMs, so ``apply(v)`` and column ``c`` of
``apply_block(V)`` agree bit for bit, and ``spmvs_per_apply`` is the plan's
product count.  The backend runs the chain: its default is the SpMV/SpMM +
axpy recurrence of :meth:`KernelBackend.poly_chain`; on a stencil (DIA)
matrix the NumPy backend runs the whole chain in one compiled call
(``poly_chain`` in ``backends/native/dia.c``), one sweep over the rows per
factor, with the same bits.

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
from typing import Optional, Tuple

import numpy as np

from ..backends.base import FactorPlan, PolyFactor
from ..linalg import kernels
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
            self._plan = FactorPlan(self._horner_plan(self.roots), power=True)
        else:
            self._plan = FactorPlan(self._product_plan(self.roots), power=False)
        self._setup_seconds = time.perf_counter() - start

    # ------------------------------------------------------------------ #
    @staticmethod
    def _product_plan(roots: np.ndarray) -> Tuple[PolyFactor, ...]:
        """The factors of the product form, in Leja order.

        A real root ``theta`` gives ``(1/theta, -1/theta)``; a conjugate
        pair ``a ± ib`` gives ``(2a/m2, -1/m2, -2a/m2, 1/m2)`` with
        ``m2 = |theta|^2``.  The last factor skips the products whose
        result the application would never read.
        """
        plan = []
        d = roots.size
        i = 0
        while i < d:
            a, b = float(roots[i].real), float(roots[i].imag)
            if abs(b) <= 1e-12 * max(1.0, abs(a)):
                inv = 1.0 / a
                plan.append(PolyFactor((inv, -inv), products=int(i < d - 1)))
                i += 1
            else:
                m2 = a * a + b * b
                coeffs = (2.0 * a / m2, -1.0 / m2, -2.0 * a / m2, 1.0 / m2)
                plan.append(PolyFactor(coeffs, products=1 + int(i < d - 2)))
                i += 2
        return tuple(plan)

    @staticmethod
    def _horner_plan(roots: np.ndarray) -> Tuple[PolyFactor, ...]:
        """Horner's rule on the monomial coefficients ``c_k`` of ``p(z) = sum c_k z^k``.

        Expand ``phi(z) = prod (1 - z/theta_i)`` and use
        ``p(z) = (1 - phi(z)) / z``; the plan runs from ``c_{d-1}`` down to
        ``c_0``, one product before every coefficient but the first.
        """
        phi = np.array([1.0 + 0.0j])
        for theta in roots:
            phi = np.convolve(phi, np.array([1.0, -1.0 / theta]))
        # phi[k] is the coefficient of z^k; p(z) = (1 - phi(z))/z.
        coeffs = np.real(-phi[1:])
        return tuple(
            PolyFactor((float(c),), products=int(k > 0)) for k, c in enumerate(coeffs[::-1])
        )

    # ------------------------------------------------------------------ #
    def spmvs_per_apply(self) -> int:
        """Number of SpMVs one application performs (the plan's products)."""
        return sum(factor.products for factor in self._plan.factors)

    def apply(self, vector: np.ndarray, out: "np.ndarray | None" = None) -> np.ndarray:
        return kernels.poly_chain(self._matrix, self._plan, self._check_precision(vector), out)

    def apply_block(
        self, block: np.ndarray, out: "np.ndarray | None" = None
    ) -> np.ndarray:
        """Batched application ``p(A) X``: one SpMM per polynomial factor.

        The recurrences of the product-form/Horner application are plain
        SpMV + axpy sequences, so the block version simply runs them on
        ``(n, k)`` blocks with the batched ``spmm`` kernel (or the compiled
        chain, which sweeps all ``k`` columns per row block) — the matrix
        is read once per factor for all ``k`` columns, which is exactly the
        amortization the paper's bandwidth argument predicts for the
        SpMV-dominated polynomial preconditioner.
        """
        block = self._check_precision(block)
        if block.ndim != 2:
            raise ValueError("apply_block expects a 2-D block of column vectors")
        return kernels.poly_chain(self._matrix, self._plan, block, out)

    @property
    def matrix(self) -> CsrMatrix:
        """The copy of ``A`` (in the preconditioner precision) used by the SpMVs."""
        return self._matrix
