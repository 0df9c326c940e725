"""Per-kernel analytic cost model.

Every linear-algebra kernel used by the solvers (CSR SpMV, tall-skinny GEMV
with and without transpose, dot products, norms, vector updates, precision
casts, host↔device transfers, small host-side dense operations) gets a
closed-form time estimate:

``time = bytes_moved / (efficiency * memory_bandwidth) + fixed overheads``

All of these kernels are memory-bound on a V100 at GMRES-relevant sizes, so
byte traffic over achieved bandwidth is the right first-order model — this
is precisely the argument the paper itself makes in Section V-D.  Two
refinements are layered on top:

* **SpMV cache model** — the right-hand-side-vector reuse fraction comes
  from :mod:`repro.perfmodel.cache`, which reproduces the paper's
  "perfect caching in fp32 / thrashing in fp64" observation and hence the
  ≈2.5× SpMV speedup.
* **Per-kernel achieved-bandwidth efficiencies** — dense tall-skinny GEMV
  and reduction kernels do not reach streaming bandwidth, and they reach a
  *smaller fraction* of it in fp32 than in fp64 (per-thread work shrinks
  while latency and launch overheads stay constant).  The default
  efficiency table is calibrated against the per-kernel speedups the paper
  reports in Table I (GEMV-T 1.28×, norm 1.15×, GEMV-N 1.57×), and is a
  documented, overridable parameter of the model.

Memoization: :meth:`KernelCostModel.estimate` prices a distinct ``(kernel,
size-args)`` once and returns the same :class:`CostEstimate` afterwards.
The memo is per model instance (models with different devices or
efficiencies never share entries; treat a model's parameters as fixed once
it has priced a call), is cleared past :data:`MEMO_LIMIT` entries so a
long-lived context serving many shapes stays bounded, and needs no lock:
dict reads and writes are atomic under the GIL, and a lost insert only
recomputes an identical value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from .cache import CacheConfig, estimate_x_reuse
from .device import DeviceSpec, get_device
from .spmv_model import INDEX_BYTES, spmv_traffic

__all__ = ["CostEstimate", "KernelCostModel", "DEFAULT_EFFICIENCY"]


@dataclass(frozen=True, slots=True)
class CostEstimate:
    """Outcome of one kernel-cost evaluation."""

    seconds: float
    bytes: float
    flops: float

    def __add__(self, other: "CostEstimate") -> "CostEstimate":
        return CostEstimate(
            seconds=self.seconds + other.seconds,
            bytes=self.bytes + other.bytes,
            flops=self.flops + other.flops,
        )


#: Achieved-bandwidth fraction per (kernel class, value bytes).  Calibrated
#: so that at the paper's problem sizes the modelled per-kernel fp64→fp32
#: speedups match Table I of the paper:
#:
#: ==============  ==========  ================  ================
#: kernel class    fp64 eff    fp32 eff          implied speedup
#: ==============  ==========  ================  ================
#: spmv            0.86        0.97              cache model (≈2.3–2.5×)
#: gemv_t          0.92        0.59              ≈1.28×
#: gemv_n          0.92        0.72              ≈1.57×
#: dot / norm      0.90        0.55              ≈1.15–1.2× (plus fixed costs)
#: axpy / scal     0.92        0.80              ≈1.7×
#: copy / cast     0.92        0.85              —
#: ==============  ==========  ================  ================
#:
#: The fp64/fp32 asymmetry of the ``spmv`` entry models the L1 effect the
#: paper mentions when its observed SpMV speedups come out *above* the
#: 5w/(2w+1) L2 model ("probably due to additional improvements in L1 cache
#: use"): the fp32 right-hand-side vector also survives longer in L1, so the
#: fp32 kernel runs closer to streaming bandwidth than the fp64 one.
DEFAULT_EFFICIENCY: Dict[str, Dict[int, float]] = {
    "spmv": {8: 0.86, 4: 0.97, 2: 0.97},
    "gemv_t": {8: 0.92, 4: 0.59, 2: 0.50},
    "gemv_n": {8: 0.92, 4: 0.72, 2: 0.60},
    # BLAS-3 block orthogonalization: one launch amortized over k vectors
    # and register-blocked reuse of the basis panel keep the block kernels
    # closer to streaming bandwidth than their k-fold GEMV equivalents.
    "gemm_t": {8: 0.95, 4: 0.80, 2: 0.65},
    "gemm_n": {8: 0.95, 4: 0.85, 2: 0.70},
    "dot": {8: 0.90, 4: 0.55, 2: 0.45},
    "norm": {8: 0.90, 4: 0.55, 2: 0.45},
    "axpy": {8: 0.92, 4: 0.80, 2: 0.70},
    "scal": {8: 0.92, 4: 0.80, 2: 0.70},
    "copy": {8: 0.92, 4: 0.85, 2: 0.80},
    "cast": {8: 0.92, 4: 0.85, 2: 0.80},
}


#: Distinct ``(kernel, size-args)`` estimates one model keeps; past this
#: the memo is cleared and refills with the shapes still in use.
MEMO_LIMIT = 4096


class KernelCostModel:
    """Analytic kernel timing for a modelled device.

    Parameters
    ----------
    device:
        :class:`DeviceSpec` or device name (default from the library config).
    cache_config:
        Calibration of the SpMV L2 reuse model.
    efficiency:
        Achieved-bandwidth fractions; partial overrides are merged over
        :data:`DEFAULT_EFFICIENCY`.
    """

    def __init__(
        self,
        device: DeviceSpec | str = "v100",
        cache_config: Optional[CacheConfig] = None,
        efficiency: Optional[Mapping[str, Mapping[int, float]]] = None,
    ) -> None:
        if isinstance(device, str):
            device = get_device(device)
        self.device = device
        self.cache_config = cache_config or CacheConfig()
        eff: Dict[str, Dict[int, float]] = {
            k: dict(v) for k, v in DEFAULT_EFFICIENCY.items()
        }
        if efficiency:
            for kernel, table in efficiency.items():
                eff.setdefault(kernel, {}).update(table)
        self.efficiency = eff
        self._memo: Dict[tuple, CostEstimate] = {}

    def estimate(self, key: tuple) -> CostEstimate:
        """Memoized ``getattr(self, key[0])(*key[1:])``, the metered kernels' entry.

        ``key`` is a cost method's name followed by its positional
        arguments, e.g. ``("gemv", n_rows, n_cols, value_bytes, trans)``.
        """
        memo = self._memo
        estimate = memo.get(key)
        if estimate is None:
            if len(memo) >= MEMO_LIMIT:
                memo.clear()
            estimate = memo[key] = getattr(self, key[0])(*key[1:])
        return estimate

    # ------------------------------------------------------------------ #
    # helpers                                                            #
    # ------------------------------------------------------------------ #
    def _eff(self, kernel: str, value_bytes: int) -> float:
        table = self.efficiency.get(kernel, {})
        if value_bytes in table:
            return table[value_bytes]
        if table:
            # Fall back to the nearest known width.
            key = min(table, key=lambda k: abs(k - value_bytes))
            return table[key]
        return 0.9

    def _stream_time(self, kernel: str, nbytes: float, value_bytes: int) -> float:
        bandwidth = self.efficiency_bandwidth(kernel, value_bytes)
        return nbytes / bandwidth

    def efficiency_bandwidth(self, kernel: str, value_bytes: int) -> float:
        """Achieved bandwidth (bytes/s) of a kernel class at a value width."""
        return self._eff(kernel, value_bytes) * self.device.memory_bandwidth

    # ------------------------------------------------------------------ #
    # kernels                                                            #
    # ------------------------------------------------------------------ #
    def spmv(
        self,
        n_rows: int,
        n_cols: int,
        nnz: int,
        value_bytes: int,
        matrix_bandwidth: Optional[int] = None,
    ) -> CostEstimate:
        """CSR sparse matrix–vector product ``y = A x``."""
        reuse = estimate_x_reuse(
            self.device, n_cols, value_bytes, matrix_bandwidth, self.cache_config
        )
        traffic = spmv_traffic(
            n_rows,
            nnz,
            value_bytes,
            reuse,
            index_bytes=INDEX_BYTES,
            include_rowptr_and_y=True,
            n_cols=n_cols,
        )
        seconds = (
            self._stream_time("spmv", traffic.total, value_bytes)
            + self.device.launch_latency
        )
        return CostEstimate(seconds=seconds, bytes=traffic.total, flops=2.0 * nnz)

    def spmm(
        self,
        n_rows: int,
        n_cols: int,
        nnz: int,
        k: int,
        value_bytes: int,
        matrix_bandwidth: Optional[int] = None,
    ) -> CostEstimate:
        """Batched multi-RHS CSR product ``Y = A X`` with ``k`` columns.

        The point of batching is that the matrix (values + indices + row
        pointers) streams through memory once for all ``k`` right-hand
        sides; only the ``x``-gather and ``y``-write traffic scales with
        ``k``.  Modelled accordingly: the single-RHS SpMV cost plus
        ``k - 1`` extra vector streams at SpMV efficiency.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        single = self.spmv(n_rows, n_cols, nnz, value_bytes, matrix_bandwidth)
        extra_bytes = (k - 1) * float(n_rows + n_cols) * value_bytes
        seconds = single.seconds + self._stream_time("spmv", extra_bytes, value_bytes)
        return CostEstimate(
            seconds=seconds,
            bytes=single.bytes + extra_bytes,
            flops=2.0 * nnz * k,
        )

    def gemv(
        self, n_rows: int, n_cols: int, value_bytes: int, trans: bool
    ) -> CostEstimate:
        """Tall-skinny dense GEMV.

        ``trans=True`` is the inner-product pass of classical Gram-Schmidt
        (``H = V^T w``, reading the basis block and one vector, producing a
        small host-bound result); ``trans=False`` is the update pass
        (``w -= V H``).
        """
        block_bytes = float(n_rows) * n_cols * value_bytes
        vector_bytes = float(n_rows) * value_bytes
        if trans:
            nbytes = block_bytes + vector_bytes + n_cols * value_bytes
            kernel = "gemv_t"
            # Result (length n_cols) is copied to the host: the Belos
            # SerialDenseMatrix round trip the paper calls out in Section IV.
            host = (
                self.device.host_transfer_latency
                + n_cols * 8 / self.device.host_transfer_bandwidth
            )
        else:
            nbytes = block_bytes + 2.0 * vector_bytes + n_cols * value_bytes
            kernel = "gemv_n"
            host = self.device.host_transfer_latency
        seconds = (
            self._stream_time(kernel, nbytes, value_bytes)
            + self.device.launch_latency
            + host
        )
        return CostEstimate(
            seconds=seconds, bytes=nbytes, flops=2.0 * n_rows * n_cols
        )

    def gemm(
        self, n_rows: int, n_cols: int, k: int, value_bytes: int, trans: bool
    ) -> CostEstimate:
        """Tall-skinny dense GEMM against a ``k``-column block of vectors.

        The BLAS-3 analogue of :meth:`gemv`: the basis panel (n × j)
        streams through memory *once* for all ``k`` vectors instead of
        ``k`` times, which is the whole point of block orthogonalization
        (``trans=True`` is the block inner-product pass ``H = V^T W``,
        ``trans=False`` the block update ``W -= V H``).  Only the vector
        block and coefficient traffic scale with ``k``.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        block_bytes = float(n_rows) * n_cols * value_bytes
        panel_bytes = float(n_rows) * k * value_bytes
        coeff_bytes = float(n_cols) * k * value_bytes
        if trans:
            nbytes = block_bytes + panel_bytes + coeff_bytes
            kernel = "gemm_t"
            # The (j × k) coefficient block rides back to the host, as in
            # the GEMV case (Belos SerialDenseMatrix round trip).
            host = (
                self.device.host_transfer_latency
                + n_cols * k * 8 / self.device.host_transfer_bandwidth
            )
        else:
            nbytes = block_bytes + 2.0 * panel_bytes + coeff_bytes
            kernel = "gemm_n"
            host = self.device.host_transfer_latency
        seconds = (
            self._stream_time(kernel, nbytes, value_bytes)
            + self.device.launch_latency
            + host
        )
        return CostEstimate(
            seconds=seconds, bytes=nbytes, flops=2.0 * n_rows * n_cols * k
        )

    def dot(self, n: int, value_bytes: int) -> CostEstimate:
        """Device dot product with the result returned to the host."""
        nbytes = 2.0 * n * value_bytes
        seconds = (
            self._stream_time("dot", nbytes, value_bytes)
            + 2 * self.device.launch_latency  # partial + final reduction
            + self.device.host_transfer_latency
        )
        return CostEstimate(seconds=seconds, bytes=nbytes, flops=2.0 * n)

    def norm2(self, n: int, value_bytes: int) -> CostEstimate:
        """Euclidean norm (reduction + host-side square root)."""
        nbytes = float(n) * value_bytes
        seconds = (
            self._stream_time("norm", nbytes, value_bytes)
            + 2 * self.device.launch_latency
            + self.device.host_transfer_latency
            + self.device.host_op_latency
        )
        return CostEstimate(seconds=seconds, bytes=nbytes, flops=2.0 * n)

    def axpy(self, n: int, value_bytes: int) -> CostEstimate:
        """``y += alpha * x`` (read x, read+write y)."""
        nbytes = 3.0 * n * value_bytes
        seconds = (
            self._stream_time("axpy", nbytes, value_bytes) + self.device.launch_latency
        )
        return CostEstimate(seconds=seconds, bytes=nbytes, flops=2.0 * n)

    def scal(self, n: int, value_bytes: int) -> CostEstimate:
        """``x *= alpha`` (read+write x)."""
        nbytes = 2.0 * n * value_bytes
        seconds = (
            self._stream_time("scal", nbytes, value_bytes) + self.device.launch_latency
        )
        return CostEstimate(seconds=seconds, bytes=nbytes, flops=float(n))

    def copy(self, n: int, value_bytes: int) -> CostEstimate:
        """Device-to-device vector copy."""
        nbytes = 2.0 * n * value_bytes
        seconds = (
            self._stream_time("copy", nbytes, value_bytes) + self.device.launch_latency
        )
        return CostEstimate(seconds=seconds, bytes=nbytes, flops=0.0)

    def cast(self, n: int, from_bytes: int, to_bytes: int) -> CostEstimate:
        """Precision-conversion kernel (read at one width, write at another)."""
        nbytes = float(n) * (from_bytes + to_bytes)
        seconds = (
            self._stream_time("cast", nbytes, max(from_bytes, to_bytes))
            + self.device.launch_latency
        )
        return CostEstimate(seconds=seconds, bytes=nbytes, flops=0.0)

    # ------------------------------------------------------------------ #
    # composite estimates (batching policy)                              #
    # ------------------------------------------------------------------ #
    def block_iteration_speedup(
        self,
        n_rows: int,
        n_cols: int,
        nnz: int,
        k: int,
        value_bytes: int,
        *,
        basis_columns: int = 25,
        spmvs_per_iteration: int = 1,
        matrix_bandwidth: Optional[int] = None,
    ) -> float:
        """Modelled per-RHS speedup of advancing ``k`` right-hand sides one
        Krylov step as a block instead of sequentially.

        The quantity the serve-layer batching policy consults: how much
        cheaper is one *column-step* (one Krylov dimension added to one
        right-hand side) in the blocked iteration.  Compared at equal
        per-column basis size ``basis_columns`` (the block basis is then
        ``k×`` wider, which the blocked GEMM terms account for):

        * sequential column-step — ``spmvs_per_iteration`` SpMVs (the
          operator plus any polynomial-preconditioner factors), two CGS2
          passes of GEMV-T/GEMV-N against the basis, a norm and a scale;
        * block step (``k`` column-steps at once) — the same operator
          count as batched SpMMs, two block-CGS2 passes of GEMM-T/GEMM-N
          against the ``k×`` wider basis, and the intra-block panel
          orthogonalization (``k`` CGS2 columns against a ``k``-wide
          panel).

        Values above 1 mean blocking wins on the modelled device.  The
        matrix traversal is the only term that shrinks with ``k``, so the
        speedup grows with ``spmvs_per_iteration`` — precisely the paper's
        observation that batching pays when iterations are SpMM-dominated.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        if k == 1:
            return 1.0
        j = max(1, int(basis_columns))
        spmv = self.spmv(n_rows, n_cols, nnz, value_bytes, matrix_bandwidth).seconds
        gemv_pass = (
            self.gemv(n_rows, j, value_bytes, trans=True).seconds
            + self.gemv(n_rows, j, value_bytes, trans=False).seconds
        )
        norm = self.norm2(n_rows, value_bytes).seconds
        scal = self.scal(n_rows, value_bytes).seconds
        sequential = spmvs_per_iteration * spmv + 2.0 * gemv_pass + norm + scal

        spmm = self.spmm(
            n_rows, n_cols, nnz, k, value_bytes, matrix_bandwidth
        ).seconds
        gemm_pass = (
            self.gemm(n_rows, j * k, k, value_bytes, trans=True).seconds
            + self.gemm(n_rows, j * k, k, value_bytes, trans=False).seconds
        )
        panel_pass = (
            self.gemv(n_rows, k, value_bytes, trans=True).seconds
            + self.gemv(n_rows, k, value_bytes, trans=False).seconds
        )
        intra_block = k * (2.0 * panel_pass + norm + scal)
        block = spmvs_per_iteration * spmm + 2.0 * gemm_pass + intra_block
        return sequential / (block / k)

    def host_transfer(self, nbytes: float) -> CostEstimate:
        """Host↔device copy of ``nbytes`` bytes."""
        seconds = (
            self.device.host_transfer_latency
            + nbytes / self.device.host_transfer_bandwidth
        )
        return CostEstimate(seconds=seconds, bytes=float(nbytes), flops=0.0)

    def host_dense_op(self, work_elements: int) -> CostEstimate:
        """Small host-side dense operation (Givens sweep, triangular solve).

        ``work_elements`` is the number of scalar multiply-adds; these run on
        the host at a modest rate and carry a fixed per-call latency.  They
        populate the "Other" bucket of the paper's timing figures.
        """
        host = get_device("host")
        seconds = self.device.host_op_latency + work_elements / (host.flops_fp64 / 50.0)
        return CostEstimate(
            seconds=seconds, bytes=16.0 * work_elements, flops=float(work_elements)
        )
