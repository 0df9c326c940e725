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
    "back_substitute",
    "hessenberg_lstsq",
    "GivensWorkspace",
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

    One workspace serves both widths of the Arnoldi cycle; :meth:`reset`
    takes the width from its seed and :meth:`append` from its operand:

    * a scalar ``beta`` starts a single-vector cycle.  Each Hessenberg
      column ``[h; h_next]`` is rotated by the previous rotations and one
      new rotation annihilates ``h_next``; ``g = Q^T (beta e_1)`` is the
      rotated right-hand side, whose trailing entry's magnitude is the
      *implicit* residual norm;
    * a ``k × k`` triangular ``S`` (the QR of the residual block) starts a
      block cycle, whose Hessenberg matrix has a band of ``k``
      subdiagonals.  ``G = Q^T (E₁ S)`` carries the per-column implicit
      residual norms in its trailing ``k`` rows, and the accumulated
      orthogonal factor ``QT`` is kept densely, so a new panel of ``k``
      columns is rotated by all previous rotations with one small
      host-side matmul instead of ``O(m·p·k)`` scalar rotations.

    ``max_cols`` bounds the Hessenberg columns of a cycle and ``band`` the
    block width (``1`` for a single-vector solver).  The single-vector
    buffers are allocated at construction and the block state by the
    first block reset (its panel scratch once per distinct active width,
    i.e. once per deflation event), so the per-iteration path allocates
    nothing.  This is the piece of GMRES the paper's "Other"
    bucket times on the host, in the working dtype.

    The block Givens sweep is ``k²`` rotations.  For fp32/fp64 it is one
    call of the compiled ``band_qr_step`` kernel
    (:mod:`repro.backends.native`), which gives the bits of the Python
    loop :meth:`_band_qr_step`; the loop runs for other dtypes and when no
    compiler is available.
    """

    def __init__(self, max_cols: int, band: int = 1, dtype=np.float64) -> None:
        if max_cols <= 0 or band <= 0:
            raise ValueError("max_cols and band must be positive")
        self.dtype = np.dtype(dtype)
        self.max_cols = max_cols
        self.band = band
        self._max_rows = max_cols + band
        self.R = np.zeros((self._max_rows, max_cols), dtype=self.dtype)
        # Single-vector state: rotated right-hand side and rotations.
        self.g = np.zeros(max_cols + 1, dtype=self.dtype)
        self.cosines = np.zeros(max_cols, dtype=self.dtype)
        self.sines = np.zeros(max_cols, dtype=self.dtype)
        # Block state, built by the first block reset.
        self.G = None
        self.size = 0
        self.active_band = band
        self.vector = True

    def _allocate_block_state(self) -> None:
        rows = self._max_rows
        self.QT = np.zeros((rows, rows), dtype=self.dtype)
        self._t0 = np.empty(rows, dtype=self.dtype)
        self._t1 = np.empty(rows, dtype=self.dtype)
        self._panel_scratch = {}  # active width k -> pair of (rows, k) C blocks
        self._solve_scratch = np.empty(self.band, dtype=self.dtype)
        self._open = []  # rows whose column claimed no diagonal
        # Last: nbytes(), which a metrics scrape may call from another
        # thread, counts the block state once G is set.
        self.G = np.zeros((rows, self.band), dtype=self.dtype)

    def nbytes(self) -> int:
        """Bytes of the rotation buffers, the block state once allocated,
        and the panel scratch of every active width seen so far."""
        arrays = [self.R, self.g, self.cosines, self.sines]
        if self.G is not None:
            arrays += [self.G, self.QT, self._t0, self._t1, self._solve_scratch]
            arrays += [block for pair in list(self._panel_scratch.values()) for block in pair]
        return sum(a.nbytes for a in arrays)

    def reset(self, seed) -> None:
        """Start a cycle: ``seed`` is the initial residual norm ``beta`` of
        a single-vector cycle, or the ``k × k`` factor ``S`` of a block
        cycle's initial residual block."""
        seed = np.asarray(seed)
        self.size = 0
        self.vector = seed.ndim == 0
        if self.vector:
            # Every entry of R the single-vector QR reads is written first.
            self.active_band = 1
            self.g[:] = 0
            self.g[0] = self.dtype.type(seed)
            return
        k = seed.shape[0]
        if seed.shape != (k, k) or k > self.band:
            raise ValueError("initial coefficient block has wrong shape")
        if self.G is None:
            self._allocate_block_state()
        self.active_band = k
        self.R[:] = 0
        self.G[:] = 0
        self.G[:k, :k] = seed
        self.QT[:] = 0
        np.fill_diagonal(self.QT, self.dtype.type(1))
        self._open.clear()
        # The staging block must start zero below the written region (rows
        # only ever extend downward within a cycle, so one zero-fill per
        # reset keeps the full-height matmul exact).
        stage, _rotated = self._panel_buffers(k)
        stage[:] = 0

    def append(self, H: np.ndarray, h_next: "float | None" = None) -> None:
        """Add one Arnoldi step to the QR.

        A vector ``H`` is the first ``j+1`` entries of Hessenberg column
        ``j`` (``j = self.size``) of a single-vector cycle, with
        ``h_next = h_{j+1, j}``.  A 2-D ``H`` is the panel of ``k`` columns
        ``q .. q + k - 1`` (``q = self.size``) of a block step: rows
        ``0 .. q + 2k - 1``, the block-projection coefficients on top and
        the intra-block triangular factor below (``h_next`` is unused).
        """
        if H.ndim == 1:
            self._append_column(H, h_next)
        else:
            self._append_panel(H)

    def _append_column(self, h: np.ndarray, h_next: float) -> None:
        j = self.size
        if not self.vector:
            raise ValueError("a Hessenberg column needs a single-vector cycle")
        if j >= self.max_cols:
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

        # Compute and apply the new rotation annihilating col[j+1].  A
        # column that is zero from the diagonal down (a lucky breakdown on
        # a direction the matrix maps to zero) gets a swap instead: its
        # coefficient is zeroed, and g[j] moves down to stay in the
        # implicit residual, which no step has reduced.
        if col[j] == 0 and col[j + 1] == 0:
            c, s = self.dtype.type(0), self.dtype.type(1)
        else:
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

    def _panel_buffers(self, k: int):
        bufs = self._panel_scratch.get(k)
        if bufs is None:
            bufs = self._panel_scratch[k] = (
                np.zeros((self._max_rows, k), dtype=self.dtype),
                np.empty((self._max_rows, k), dtype=self.dtype),
            )
        return bufs

    def _rotate_rows(self, M: np.ndarray, head: int, other: int, c, s, width: int) -> None:
        """Apply ``[c -s; s c]``-style rotation to rows ``head``/``other`` of ``M``."""
        row0 = M[head, :width]
        row1 = M[other, :width]
        t0 = self._t0[:width]
        t1 = self._t1[:width]
        np.multiply(row0, c, out=t0)
        np.multiply(row1, s, out=t1)
        np.subtract(t0, t1, out=t0)  # new row0 = c·row0 - s·row1
        np.multiply(row0, s, out=t1)
        np.multiply(row1, c, out=row1)
        np.add(row1, t1, out=row1)  # new row1 = s·row0 + c·row1
        row0[:] = t0

    def _append_panel(self, panel: np.ndarray) -> None:
        q = self.size
        k = self.active_band
        if self.vector or panel.shape != (q + 2 * k, k):
            raise ValueError("Hessenberg panel has wrong shape")
        if q + k > self.max_cols:
            raise RuntimeError("GivensWorkspace is full")
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
        if self._open or not target[q:].diagonal().all():
            self._reduce_open_rows(q, k)
        self.size = q + k
        meter_host_dense(q * q * k + 6 * k * k * (q + 2 * k))

    def _reduce_open_rows(self, q: int, k: int) -> None:
        """Keep the QR exact when a column is zero from its diagonal down.

        Such a column (a direction the matrix maps to zero, or a collapsed
        basis vector the orthogonalization zeroed) depends on the columns
        before it and claims no row: its diagonal row stays *open*, each
        later column rotates its entry in every open row into its own
        diagonal, and the open rows' share of ``G`` stays in the implicit
        residual norms.  :meth:`solve` gives the column a zero coefficient.
        """
        width = q + 2 * k
        for col in range(q, q + k):
            R = self.R[:, col : q + k]
            for row in self._open:
                if R[row, 0] != 0:
                    c, s = givens_rotation(float(R[col, 0]), float(R[row, 0]), dtype=self.dtype)
                    c = self.dtype.type(c)
                    s = self.dtype.type(s)
                    self._rotate_rows(R, col, row, c, s, q + k - col)
                    R[row, 0] = 0
                    self._rotate_rows(self.G, col, row, c, s, k)
                    self._rotate_rows(self.QT, col, row, c, s, width)
            if R[col, 0] == 0:
                self._open.append(col)

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
                self._rotate_rows(self.G, r - 1, r, c, s, k)
                self._rotate_rows(self.QT, r - 1, r, c, s, width)

    def _native_operands(self) -> tuple:
        """``R``, ``G``, ``QT`` as the compiled kernel takes them: each a
        pointer and a row stride in elements."""
        operands = []
        for M in (self.R, self.G, self.QT):
            operands += [native.address(M), M.shape[1]]
        return tuple(operands)

    def residual_norms(self, out: "np.ndarray | None" = None) -> np.ndarray:
        """Implicit residual norms of the active columns (length ``k``):
        ``|g[size]|`` for a single vector, ``‖G[q:q+k, c]‖₂`` per block
        column (plus the open rows of columns that claimed no diagonal)."""
        q = self.size
        k = self.active_band
        if out is None:
            out = np.empty(k, dtype=np.float64)
        if self.vector:
            out[0] = abs(self.g[q])
            return out
        tail = self.G[q : q + k, :k]
        sq = self._t0[:k]
        for c in range(k):
            col = tail[:, c]
            np.multiply(col, col, out=sq)
            square = sq.sum(dtype=np.float64)
            for row in self._open:
                square += np.float64(self.G[row, c]) ** 2
            out[c] = float(np.sqrt(square))
        return out

    def solve(self, out: "np.ndarray | None" = None) -> np.ndarray:
        """Solve the triangular system for the Krylov coefficients.

        A single-vector cycle back-substitutes ``R y = g`` into ``out``
        (length ``size``; allocated when not given).  A block cycle
        back-substitutes ``R Y = G`` into the caller-owned C-contiguous
        ``(size, k)`` buffer ``out``; there a (near-)zero diagonal entry
        zeroes that coefficient row instead of raising: it corresponds to
        a deflated/linearly-dependent Krylov direction whose Hessenberg
        column is entirely zero, for which the zero coefficient *is* the
        minimum-norm least-squares choice.
        """
        if self.vector:
            j = self.size
            y = back_substitute(self.R[:j, :j], self.g[:j], out=out)
            meter_host_dense(j * j)
            return y
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
    ``R``; must not alias ``b``).  An exactly zero diagonal entry zeroes
    its coefficient: in GMRES it is a Krylov direction the matrix maps to
    zero (a lucky breakdown on ``A v = 0``), whose Hessenberg column is
    entirely zero, and zero is the minimum-norm least-squares choice.
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
        y[i] = 0 if diag == 0 else (b[i] - np.dot(R[i, i + 1 :], y[i + 1 :])) / diag
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
