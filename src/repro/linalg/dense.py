"""Small host-side dense operations for the GMRES least-squares problem.

In the Belos implementation these run on the CPU in the solver's scalar
type (the Hessenberg matrix is tiny — ``(m+1) × m`` with ``m ≈ 25…400``) and
the paper files their cost under "Other".  The same split is kept here:

* Givens-rotation based incremental QR of the Hessenberg matrix, which both
  updates the least-squares problem one column at a time and yields the
  *implicit* residual norm GMRES monitors every iteration;
* back substitution for the triangular solve at the end of a cycle;
* a plain dense least-squares fallback used by tests as an oracle.

All routines work in the dtype of their inputs so a single-precision solver
really does its Hessenberg arithmetic in fp32 (this matters for the
loss-of-accuracy behaviour studied in Section V-F).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..backends import native
from .kernels import meter_host_dense

__all__ = [
    "givens_rotation",
    "apply_givens_column",
    "back_substitute",
    "hessenberg_lstsq",
    "GivensWorkspace",
    "BlockGivensWorkspace",
]


def givens_rotation(a: float, b: float, dtype=np.float64) -> Tuple[float, float]:
    """Compute ``(c, s)`` such that ``[c s; -s c]^T [a; b] = [r; 0]``.

    Uses the standard hypot-free formulation that avoids overflow; the
    arithmetic is carried out in ``dtype``.
    """
    scalar = np.dtype(dtype).type
    a = scalar(a)
    b = scalar(b)
    one = scalar(1.0)
    if b == 0:
        return 1.0, 0.0
    if abs(b) > abs(a):
        t = -a / b
        s = one / np.sqrt(one + t * t)
        c = s * t
    else:
        t = -b / a
        c = one / np.sqrt(one + t * t)
        s = c * t
    return float(c), float(s)


class GivensWorkspace:
    """Incremental QR of the GMRES Hessenberg matrix via Givens rotations.

    Maintains, in the working dtype:

    * ``R`` — the upper-triangular factor (capacity ``m × m``),
    * ``g`` — the rotated right-hand side ``Q^T (beta e_1)``, whose trailing
      entry's magnitude is the *implicit* residual norm, and
    * the rotation cosines/sines applied so far.

    This is exactly the piece of GMRES the paper's "Other" bucket times on
    the host.
    """

    def __init__(self, max_size: int, dtype=np.float64) -> None:
        if max_size <= 0:
            raise ValueError("max_size must be positive")
        self.dtype = np.dtype(dtype)
        self.max_size = max_size
        self.R = np.zeros((max_size + 1, max_size), dtype=self.dtype)
        self.g = np.zeros(max_size + 1, dtype=self.dtype)
        self.cosines = np.zeros(max_size, dtype=self.dtype)
        self.sines = np.zeros(max_size, dtype=self.dtype)
        self.size = 0

    def reset(self, beta: float) -> None:
        """Start a new cycle with initial residual norm ``beta``."""
        self.R[:] = 0
        self.g[:] = 0
        self.g[0] = self.dtype.type(beta)
        self.size = 0

    def append_column(self, h: np.ndarray, h_next: float) -> float:
        """Add Hessenberg column ``[h; h_next]`` and return the implicit residual norm.

        Parameters
        ----------
        h:
            The first ``j+1`` entries of column ``j`` (``j = self.size``).
        h_next:
            The subdiagonal entry ``h_{j+1, j}``.
        """
        j = self.size
        if j >= self.max_size:
            raise RuntimeError("GivensWorkspace is full")
        col = self.R[:, j]
        col[: j + 1] = np.asarray(h, dtype=self.dtype)[: j + 1]
        col[j + 1] = self.dtype.type(h_next)

        # Apply all previous rotations to the new column.
        for i in range(j):
            c, s = self.cosines[i], self.sines[i]
            temp = c * col[i] - s * col[i + 1]
            col[i + 1] = s * col[i] + c * col[i + 1]
            col[i] = temp

        # Compute and apply the new rotation annihilating col[j+1].
        c, s = givens_rotation(float(col[j]), float(col[j + 1]), dtype=self.dtype)
        c = self.dtype.type(c)
        s = self.dtype.type(s)
        self.cosines[j], self.sines[j] = c, s
        col[j] = c * col[j] - s * col[j + 1]
        col[j + 1] = 0

        g_j = self.g[j]
        self.g[j] = c * g_j
        self.g[j + 1] = s * g_j
        self.size = j + 1

        meter_host_dense(6 * (j + 1))
        return float(abs(self.g[j + 1]))

    @property
    def implicit_residual_norm(self) -> float:
        """Magnitude of the trailing rotated right-hand-side entry."""
        return float(abs(self.g[self.size]))

    def solve(self, out: "np.ndarray | None" = None) -> np.ndarray:
        """Solve the triangular system for the Krylov coefficients ``y``.

        ``out``, when given, is a caller-owned length-``size`` buffer the
        coefficients are written into (the solver passes its workspace's
        Hessenberg-column buffer so restarts allocate nothing).
        """
        j = self.size
        y = back_substitute(self.R[:j, :j], self.g[:j], out=out)
        meter_host_dense(j * j)
        return y


class BlockGivensWorkspace:
    """Incremental QR of the block-GMRES *band* Hessenberg matrix.

    Block Arnoldi with block size ``k`` produces a Hessenberg matrix whose
    column ``q`` has nonzeros down to row ``q + k`` (a band of ``k``
    subdiagonals).  This workspace maintains, in the working dtype:

    * ``R`` — the upper-triangular factor (capacity ``(m·p + p) × m·p``),
    * ``G`` — the rotated block right-hand side ``Q^T (E₁ S)`` where ``S``
      is the triangular factor of the initial residual block's QR; the
      trailing ``k`` rows of its leading columns carry the per-column
      *implicit* residual norms,
    * ``QT`` — the accumulated orthogonal factor, kept densely so a new
      panel of ``k`` Hessenberg columns is rotated by all previous
      rotations with one small host-side matmul instead of replaying
      ``O(m·p·k)`` scalar rotations per column.

    All buffers are pre-allocated at construction (per-width scratch is
    created once per distinct active block width, i.e. once per deflation
    event), so the per-iteration path allocates nothing — the block
    analogue of :class:`GivensWorkspace`, filed under the same host-side
    "Other" cost bucket.

    The Givens sweep of a block step is ``k²`` rotations.  For fp32/fp64
    it is one call of the compiled ``band_qr_step`` kernel
    (:mod:`repro.backends.native`), which gives the bits of the Python
    loop in :meth:`append_block`; the loop runs for other dtypes and
    when no compiler is available.
    """

    def __init__(self, max_cols: int, band: int, dtype=np.float64) -> None:
        if max_cols <= 0 or band <= 0:
            raise ValueError("max_cols and band must be positive")
        self.dtype = np.dtype(dtype)
        self.max_cols = max_cols
        self.band = band
        rows = max_cols + band
        self._max_rows = rows
        self.R = np.zeros((rows, max_cols), dtype=self.dtype)
        self.G = np.zeros((rows, band), dtype=self.dtype)
        self.QT = np.zeros((rows, rows), dtype=self.dtype)
        self._t0 = np.empty(rows, dtype=self.dtype)
        self._t1 = np.empty(rows, dtype=self.dtype)
        self._panel_scratch = {}  # active width k -> pair of (rows, k) C blocks
        self._solve_scratch = np.empty(band, dtype=self.dtype)
        self.size = 0
        self.active_band = band

    def reset(self, S: np.ndarray) -> None:
        """Start a cycle whose initial residual block QR'ed to ``S`` (k × k)."""
        S = np.asarray(S)
        k = S.shape[0]
        if S.shape != (k, k) or k > self.band:
            raise ValueError("initial coefficient block has wrong shape")
        self.active_band = k
        self.size = 0
        self.R[:] = 0
        self.G[:] = 0
        self.G[:k, :k] = S
        self.QT[:] = 0
        np.fill_diagonal(self.QT, self.dtype.type(1))
        # The staging block must start zero below the written region (rows
        # only ever extend downward within a cycle, so one zero-fill per
        # reset keeps the full-height matmul exact).
        stage, _rotated = self._panel_buffers(k)
        stage[:] = 0

    def _panel_buffers(self, k: int):
        bufs = self._panel_scratch.get(k)
        if bufs is None:
            bufs = self._panel_scratch[k] = (
                np.zeros((self._max_rows, k), dtype=self.dtype),
                np.empty((self._max_rows, k), dtype=self.dtype),
            )
        return bufs

    def _rotate_rows(self, M: np.ndarray, r: int, c, s, width: int) -> None:
        """Apply ``[c -s; s c]``-style rotation to rows ``r-1``/``r`` of ``M``."""
        row0 = M[r - 1, :width]
        row1 = M[r, :width]
        t0 = self._t0[:width]
        t1 = self._t1[:width]
        np.multiply(row0, c, out=t0)
        np.multiply(row1, s, out=t1)
        np.subtract(t0, t1, out=t0)  # new row0 = c·row0 - s·row1
        np.multiply(row0, s, out=t1)
        np.multiply(row1, c, out=row1)
        np.add(row1, t1, out=row1)  # new row1 = s·row0 + c·row1
        row0[:] = t0

    def append_block(self, panel: np.ndarray) -> None:
        """Add one block step's panel of ``k`` Hessenberg columns.

        ``panel`` holds rows ``0 .. q + 2k - 1`` of Hessenberg columns
        ``q .. q + k - 1`` (``q = self.size``): the block-projection
        coefficients on top, the intra-block triangular factor below.
        """
        q = self.size
        k = self.active_band
        if panel.shape != (q + 2 * k, k):
            raise ValueError("Hessenberg panel has wrong shape")
        if q + k > self.max_cols:
            raise RuntimeError("BlockGivensWorkspace is full")
        target = self.R[: q + 2 * k, q : q + k]
        if q > 0:
            # Rotate the new panel by all previous rotations with one
            # contiguous full-height matmul: rows below the written region
            # are zero in the staging block and identity in Q^T, so the
            # product equals the sliced application without the internal
            # copy a strided np.dot slice would make.
            stage, rotated = self._panel_buffers(k)
            stage[: q + 2 * k] = panel
            np.dot(self.QT, stage, out=rotated)
            target[:] = rotated[: q + 2 * k]
        else:
            target[:] = panel
        kernel = native.kernel("band_qr_step", self.dtype)
        if kernel is not None:
            kernel(q, k, *self._native_operands())
        else:
            self._band_qr_step(q, k)
        self.size = q + k
        meter_host_dense(q * q * k + 6 * k * k * (q + 2 * k))

    def _band_qr_step(self, q: int, k: int) -> None:
        """Annihilate the band below the diagonal of panel columns
        ``q .. q + k - 1`` with Givens rotations, applying each one to the
        panel columns to its right, ``G`` and ``Q^T`` (the specification
        of the compiled ``band_qr_step``)."""
        width = q + 2 * k
        for i in range(k):
            col_index = q + i
            col = self.R[:, col_index]
            for r in range(q + k + i, col_index, -1):
                if col[r] == 0:
                    continue
                c, s = givens_rotation(float(col[r - 1]), float(col[r]), dtype=self.dtype)
                c = self.dtype.type(c)
                s = self.dtype.type(s)
                head = col[r - 1]
                col[r - 1] = c * head - s * col[r]
                col[r] = 0
                # The same rotation hits the panel columns to the right,
                # the rotated right-hand side and the accumulated Q^T.
                for cc in range(col_index + 1, q + k):
                    other = self.R[:, cc]
                    head_o = other[r - 1]
                    other[r - 1] = c * head_o - s * other[r]
                    other[r] = s * head_o + c * other[r]
                self._rotate_rows(self.G, r, c, s, k)
                self._rotate_rows(self.QT, r, c, s, width)

    def _native_operands(self) -> tuple:
        """``R``, ``G``, ``QT`` as the compiled kernel takes them: each a
        pointer and a row stride in elements."""
        operands = []
        for M in (self.R, self.G, self.QT):
            operands += [native.address(M), M.shape[1]]
        return tuple(operands)

    def residual_norms(self, out: "np.ndarray | None" = None) -> np.ndarray:
        """Per-column implicit residual norms ``‖G[q:q+k, c]‖₂`` (length k)."""
        q = self.size
        k = self.active_band
        tail = self.G[q : q + k, :k]
        if out is None:
            out = np.empty(k, dtype=np.float64)
        sq = self._t0[:k]
        for c in range(k):
            col = tail[:, c]
            np.multiply(col, col, out=sq)
            out[c] = float(np.sqrt(sq.sum(dtype=np.float64)))
        return out

    def solve(self, out: np.ndarray) -> np.ndarray:
        """Back-substitute ``R Y = G`` for the block coefficients ``Y``.

        ``out`` is a caller-owned C-contiguous ``(size, k)`` buffer.  A
        (near-)zero diagonal entry zeroes that coefficient row instead of
        raising: it corresponds to a deflated/linearly-dependent Krylov
        direction whose Hessenberg column is entirely zero, for which the
        zero coefficient *is* the minimum-norm least-squares choice.
        """
        q = self.size
        k = self.active_band
        if out.shape != (q, k):
            raise ValueError("solve output buffer has wrong shape")
        tiny = np.finfo(self.dtype).tiny
        row = self._solve_scratch[:k]
        for i in range(q - 1, -1, -1):
            if i + 1 < q:
                np.dot(self.R[i, i + 1 : q], out[i + 1 : q], out=row)
                np.subtract(self.G[i, :k], row, out=out[i])
            else:
                out[i] = self.G[i, :k]
            diag = self.R[i, i]
            if abs(diag) <= tiny:
                out[i] = 0
            else:
                out[i] /= diag
        meter_host_dense(q * q * k)
        return out


def back_substitute(
    R: np.ndarray, b: np.ndarray, out: "np.ndarray | None" = None
) -> np.ndarray:
    """Solve ``R y = b`` for upper-triangular ``R`` in the dtype of ``R``.

    ``out``, when given, receives the solution (length ``n``, dtype of
    ``R``; must not alias ``b``).

    Raises
    ------
    ZeroDivisionError
        If a diagonal entry is exactly zero (happens only on lucky breakdown
        with an exactly-consistent system; callers treat it separately).
    """
    R = np.asarray(R)
    b = np.asarray(b, dtype=R.dtype)
    n = R.shape[0]
    if R.shape != (n, n) or b.shape != (n,):
        raise ValueError("back_substitute expects square R and matching b")
    if out is None:
        y = np.zeros(n, dtype=R.dtype)
    else:
        if out.shape != (n,) or out.dtype != R.dtype:
            raise ValueError("back_substitute output buffer has wrong shape or dtype")
        y = out
    for i in range(n - 1, -1, -1):
        diag = R[i, i]
        if diag == 0:
            raise ZeroDivisionError("singular triangular factor in GMRES projection")
        y[i] = (b[i] - np.dot(R[i, i + 1 :], y[i + 1 :])) / diag
    return y


def hessenberg_lstsq(H: np.ndarray, beta: float) -> Tuple[np.ndarray, float]:
    """Dense least-squares oracle: ``min_y || beta e_1 - H y ||``.

    Used in tests to validate the incremental Givens machinery; returns the
    minimiser and the residual norm.  Computation is done in float64
    regardless of input dtype (it is an oracle, not a modelled kernel).
    """
    H = np.asarray(H, dtype=np.float64)
    rows, cols = H.shape
    rhs = np.zeros(rows)
    rhs[0] = beta
    y, residuals, _rank, _sv = np.linalg.lstsq(H, rhs, rcond=None)
    if residuals.size:
        res_norm = float(np.sqrt(residuals[0]))
    else:
        res_norm = float(np.linalg.norm(rhs - H @ y))
    return y, res_norm
