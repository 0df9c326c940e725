"""The compiled polynomial chain (``poly_chain`` in ``backends/native/dia.c``).

One call runs a GMRES-polynomial preconditioner's whole factor chain of
DIA products and axpys.  It must give the bits of the recurrence it
replaces, ``KernelBackend.poly_chain`` on the backend's own SpMV/SpMM and
axpy, so a solve is the same with or without a C compiler.  Pinned here:

* ``apply``/``apply_block`` bytes equal those with the compiled kernels off
  for fp32, fp64 and fp32-in-fp64 (wrapped) × roots/power × degree 5/12,
  on a stencil (DIA) matrix, a random permutation of it (gather) and all
  ten SuiteSparse proxies, on the NumPy and SciPy backends;
* random plans (every kind of factor, both forms) on banded matrices of
  every band shape, from 5 to 20000 rows, give the default's bits;
* the stencil matrix's applies on the NumPy backend run the kernel (no
  backend product or axpy), C-ordered blocks, fp16 and gather matrices
  the recurrence;
* ``out`` may be the input; a NaN input gives NaN in the same positions;
  threads sharing one preconditioner get the same bits;
* metering: one apply books the copy, products and axpys of the
  recurrence, with the call's wall split among them;
* a fault-injecting backend sees every product of the recurrence, so a
  NaN SpMM inside the apply ends a block solve in BREAKDOWN.
"""

from __future__ import annotations

import itertools
import threading
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from repro.backends import get_backend, native
from repro.backends.base import FactorPlan, KernelBackend, PolyFactor
from repro.backends.numpy_backend import _SPMV_PLAN_KEY, NumpyBackend
from repro.config import rng
from repro.linalg import kernels
from repro.linalg.context import use_backend
from repro.matrices import laplace3d
from repro.matrices.suitesparse_proxies import build_proxy, list_proxies
from repro.perfmodel.timer import KernelTimer, use_timer
from repro.preconditioners.mixed import PrecisionWrappedPreconditioner
from repro.preconditioners.polynomial import GmresPolynomialPreconditioner
from repro.solvers import block_gmres
from repro.solvers.status import SolverStatus
from repro.sparse import CsrMatrix
from repro.sparse.ordering import permute_symmetric
from repro.testing.faults import FaultInjectingBackend

NUMPY = NumpyBackend()
BACKENDS = ["numpy", "scipy"]
OPERATORS = ["stencil", "permuted", *list_proxies()]
FLOATS = [np.float32, np.float64]
FLOAT_IDS = ["fp32", "fp64"]
PRECISIONS = {np.float32: "single", np.float64: "double"}


@pytest.fixture(autouse=True)
def compiled():
    if native.kernel("poly_chain", np.dtype(np.float64)) is None:
        pytest.skip("no C compiler: the compiled kernels are unavailable")


def operator(name: str):
    stencil = laplace3d(10)
    if name == "stencil":
        return stencil
    if name == "permuted":
        return permute_symmetric(stencil, rng(4).permutation(stencil.n_rows))
    return build_proxy(name)


def preconditioners(matrix):
    """fp32, fp64 and fp32 wrapped for fp64 × roots/power × degree 5/12."""
    for method in ("roots", "power"):
        for degree in (5, 12):
            for precision in ("single", "double", "wrapped"):
                inner = "double" if precision == "double" else "single"
                poly = GmresPolynomialPreconditioner(
                    matrix, degree=degree, precision=inner, apply_method=method
                )
                if precision == "wrapped":
                    poly = PrecisionWrappedPreconditioner(poly, outer_precision="double")
                yield f"{precision}-{method}-{degree}", poly


def applies(precond, V):
    """``apply_block`` with and without ``out`` and every column's ``apply``."""
    outputs = [precond.apply_block(V), precond.apply_block(V, out=np.empty_like(V, order="F"))]
    for c in range(V.shape[1]):
        column = np.ascontiguousarray(V[:, c])
        outputs += [precond.apply(column), precond.apply(column, out=np.empty_like(column))]
    return [np.asarray(a).tobytes(order="F") for a in outputs]


def both_ways(monkeypatch, run):
    """``run()`` with the compiled kernels, then with the Python versions."""
    fast = run()
    with monkeypatch.context() as m:
        m.setattr(native, "_kernels", {})
        slow = run()
    return fast, slow


class CountingBackend(NumpyBackend):
    """The NumPy backend, counting the calls its recurrence makes."""

    def __init__(self):
        self.calls = 0

    def spmv(self, matrix, x, out=None):
        self.calls += 1
        return super().spmv(matrix, x, out)

    def spmm(self, matrix, X, out=None):
        self.calls += 1
        return super().spmm(matrix, X, out)

    def axpy(self, alpha, x, y, work=None):
        self.calls += 1
        return super().axpy(alpha, x, y, work)


def recurrence_calls(poly, x, out=None) -> int:
    backend = CountingBackend()
    with use_backend(backend):
        kernels.poly_chain(poly.matrix, poly._plan, x, out)
    return backend.calls


@pytest.mark.parametrize("name", OPERATORS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_applies_match_the_recurrence(monkeypatch, backend, name):
    matrix = operator(name)
    with use_backend(get_backend(backend)):
        for label, precond in preconditioners(matrix):
            dtype = precond.precision.dtype
            V = np.asfortranarray(rng(7).standard_normal((matrix.n_rows, 4)).astype(dtype))
            fast, slow = both_ways(monkeypatch, lambda: applies(precond, V))
            assert fast == slow, label
            # Column c of the block apply is the vector apply of column c.
            block = np.frombuffer(fast[0], dtype=dtype).reshape(V.shape, order="F")
            for c in range(4):
                assert np.ascontiguousarray(block[:, c]).tobytes() == fast[2 + 2 * c], label


def random_plan(gen, power: bool, n_factors: int) -> FactorPlan:
    """A plan of random coefficients: Horner steps, or real-root and
    conjugate-pair factors in random order with the last one's products
    dropped as the preconditioner does."""
    if power:
        return FactorPlan(
            [PolyFactor((float(gen.standard_normal()),), int(i > 0)) for i in range(n_factors)],
            power=True,
        )
    factors = []
    for i in range(n_factors):
        last = i == n_factors - 1
        if gen.random() < 0.5:
            factors.append(PolyFactor(tuple(0.3 * gen.standard_normal(2)), int(not last)))
        else:
            factors.append(PolyFactor(tuple(0.3 * gen.standard_normal(4)), 1 + int(not last)))
    return FactorPlan(factors, power=False)


@pytest.mark.parametrize(
    "n,offsets",
    [
        (5, (-2, 0, 1)),  # a band wider than the matrix's row blocks
        (63, (-7, 0, 3)),
        (700, (0,)),
        (700, (3, 9)),  # no lag: nothing below the diagonal
        (700, (-5, -2)),  # no lead: nothing above it
        (1000, (-300, -1, 0, 1, 5)),
        (3000, tuple(range(-6, 6))),  # too many diagonals for the register sums
        (9000, (-8200, -3, 0, 2, 8190)),
        (20000, (-9000, -1, 0, 1, 9000)),  # several chunks, each its own first diagonal
        (20000, (-130, -1, 0, 1, 130)),
    ],
)
def test_random_plans_on_banded_matrices_match_the_recurrence(monkeypatch, n, offsets):
    """The kernel against the backend default on DIA matrices of every band
    shape: row blocks that straddle chunks, products that trail by more
    rows than the matrix has, and plans mixing every kind of factor."""
    gen = rng(n + len(offsets))
    values = gen.standard_normal((len(offsets), n))
    base = CsrMatrix.from_scipy(sp.diags(list(values), list(offsets), shape=(n, n), format="csr"))
    for dtype in FLOATS:
        A = base.astype(PRECISIONS[dtype])
        for k, power, n_factors in itertools.product((1, 3, 8), (False, True), (1, 2, 5)):
            plan = random_plan(gen, power, n_factors)
            X = np.asfortranarray(gen.standard_normal((n, k)).astype(dtype))
            for x in (X, X[:, 0]) if k == 1 else (X,):
                fast, slow = both_ways(monkeypatch, lambda: NUMPY.poly_chain(A, plan, x))
                assert "native" in A.backend_cache[_SPMV_PLAN_KEY]["dia"]
                assert fast.tobytes() == slow.tobytes(), (k, power, n_factors)
                default = KernelBackend.poly_chain(NUMPY, A, plan, x)
                assert fast.tobytes() == default.tobytes(), (k, power, n_factors)


class TestDispatch:
    """Which operands the NumPy backend hands to the kernel."""

    @pytest.mark.parametrize("method", ["roots", "power"])
    @pytest.mark.parametrize("dtype", FLOATS, ids=FLOAT_IDS)
    def test_stencil_operands_take_the_kernel(self, dtype, method):
        A = laplace3d(8)
        poly = GmresPolynomialPreconditioner(
            A, degree=6, precision=PRECISIONS[dtype], apply_method=method
        )
        V = np.asfortranarray(rng(1).standard_normal((A.n_rows, 3)).astype(dtype))
        assert recurrence_calls(poly, V) == 0
        assert recurrence_calls(poly, np.ascontiguousarray(V[:, 0])) == 0

    def test_c_ordered_blocks_take_the_recurrence(self):
        A = laplace3d(8)
        poly = GmresPolynomialPreconditioner(A, degree=6)
        V = np.ascontiguousarray(rng(1).standard_normal((A.n_rows, 3)))
        assert recurrence_calls(poly, V) > 0
        F = np.asfortranarray(V)
        assert recurrence_calls(poly, F, out=np.empty_like(V, order="C")) > 0
        # The same bits either way.
        np.testing.assert_array_equal(poly.apply_block(V), poly.apply_block(F))

    def test_fp16_and_gather_take_the_recurrence(self):
        A = laplace3d(8)
        half = GmresPolynomialPreconditioner(A, degree=4, precision="half")
        assert recurrence_calls(half, np.ones(A.n_rows, dtype=np.float16)) > 0
        permuted = permute_symmetric(A, rng(4).permutation(A.n_rows))
        gather = GmresPolynomialPreconditioner(permuted, degree=4)
        assert recurrence_calls(gather, np.ones(A.n_rows)) > 0

    def test_no_kernel(self, monkeypatch):
        A = laplace3d(8)
        poly = GmresPolynomialPreconditioner(A, degree=6)
        monkeypatch.setattr(native, "_kernels", {})
        assert recurrence_calls(poly, np.ones(A.n_rows)) > 0


class TestOperands:
    @pytest.mark.parametrize("method", ["roots", "power"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_out_may_be_the_input(self, backend, method):
        A = laplace3d(8)
        V = np.asfortranarray(rng(2).standard_normal((A.n_rows, 3)))
        with use_backend(get_backend(backend)):
            poly = GmresPolynomialPreconditioner(A, degree=7, apply_method=method)
            want = poly.apply_block(V)
            block = V.copy(order="F")
            assert poly.apply_block(block, out=block) is block
            np.testing.assert_array_equal(block, want)
            vector = np.ascontiguousarray(V[:, 1])
            assert poly.apply(vector, out=vector) is vector
            np.testing.assert_array_equal(vector, want[:, 1])

    def test_out_of_another_precision_raises(self):
        A = laplace3d(6)
        poly = GmresPolynomialPreconditioner(A, degree=4)
        with pytest.raises(kernels.PrecisionMismatchError):
            poly.apply(np.ones(A.n_rows), out=np.empty(A.n_rows, dtype=np.float32))

    @pytest.mark.parametrize("method", ["roots", "power"])
    @pytest.mark.parametrize("dtype", FLOATS, ids=FLOAT_IDS)
    def test_nan_lands_where_the_recurrence_puts_it(self, monkeypatch, dtype, method):
        A = laplace3d(10)
        poly = GmresPolynomialPreconditioner(
            A, degree=5, precision=PRECISIONS[dtype], apply_method=method
        )
        V = np.asfortranarray(rng(3).standard_normal((A.n_rows, 2)).astype(dtype))
        V[517, 0] = np.nan
        fast, slow = both_ways(monkeypatch, lambda: poly.apply_block(V))
        nan = np.isnan(fast)
        assert nan[:, 0].any() and not nan[:, 1].any()
        np.testing.assert_array_equal(nan, np.isnan(slow))
        np.testing.assert_array_equal(fast[~nan], slow[~nan])

    @pytest.mark.parametrize("dtype", FLOATS, ids=FLOAT_IDS)
    def test_threads_sharing_a_preconditioner_get_the_same_bits(self, dtype):
        A = laplace3d(12)
        poly = GmresPolynomialPreconditioner(A, degree=10, precision=PRECISIONS[dtype])
        blocks = [
            np.asfortranarray(rng(seed).standard_normal((A.n_rows, 1 + seed % 4)).astype(dtype))
            for seed in range(4)
        ]
        want = [poly.apply_block(V).tobytes(order="F") for V in blocks]
        mismatches = []

        def worker(i):
            for _ in range(20):
                V = blocks[i]
                if poly.apply_block(V).tobytes(order="F") != want[i]:
                    mismatches.append(i)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert not mismatches


class TestMetering:
    @pytest.mark.parametrize("method", ["roots", "power"])
    @pytest.mark.parametrize("width", [None, 3])
    def test_one_apply_books_the_recurrence_calls(self, monkeypatch, width, method):
        A = laplace3d(8)
        poly = GmresPolynomialPreconditioner(A, degree=7, apply_method=method)
        shape = (A.n_rows,) if width is None else (A.n_rows, width)
        x = np.asfortranarray(rng(5).standard_normal(shape))
        clock = iter(range(0, 1000, 2))  # every call takes 2 "seconds"
        monkeypatch.setattr(kernels, "time", SimpleNamespace(perf_counter=lambda: float(next(clock))))
        with use_timer(KernelTimer("apply")) as timer:
            if width is None:
                poly.apply(x)
            else:
                poly.apply_block(x)
        products = poly.spmvs_per_apply()
        product = "SpMV" if width is None else "SpMM"
        assert timer.calls_by_label() == {
            product: products,
            "Other": len(poly._plan.calls) - products,
        }
        assert sum(r.wall_seconds for r in timer.records) == pytest.approx(2.0)
        by_label = {r.label: r for r in timer.records}
        # Split by the modelled seconds of the calls.
        assert by_label[product].wall_seconds / by_label["Other"].wall_seconds == pytest.approx(
            by_label[product].model_seconds / by_label["Other"].model_seconds
        )

    def test_ledger_is_that_of_the_separate_kernels(self):
        """Counts, bytes, FLOPs and modelled seconds, bit for bit, of the
        metered copy/SpMM/axpy calls the recurrence stands for."""
        A = laplace3d(8)
        poly = GmresPolynomialPreconditioner(A, degree=7)
        V = np.asfortranarray(rng(6).standard_normal((A.n_rows, 3)))
        with use_timer(KernelTimer("chain")) as chain:
            poly.apply_block(V)
        with use_timer(KernelTimer("separate")) as separate:
            prod, w, t, y = (np.empty_like(V, order="F") for _ in range(4))
            kernels.copy(V, out=prod)
            y[:] = 0
            for factor in poly._plan.factors:
                if len(factor.coeffs) == 2:
                    kernels.axpy(factor.coeffs[0], prod, y)
                    if factor.products:
                        kernels.spmm(poly.matrix, prod, out=w)
                        kernels.axpy(factor.coeffs[1], w, prod)
                else:
                    kernels.spmm(poly.matrix, prod, out=w)
                    kernels.axpy(factor.coeffs[0], prod, y)
                    kernels.axpy(factor.coeffs[1], w, y)
                    if factor.products == 2:
                        kernels.spmm(poly.matrix, w, out=t)
                        kernels.axpy(factor.coeffs[2], w, prod)
                        kernels.axpy(factor.coeffs[3], t, prod)
        np.testing.assert_array_equal(y, poly.apply_block(V))

        def ledger(timer):
            return {
                (r.label, r.precision): (r.calls, r.model_seconds.hex(), r.bytes, r.flops)
                for r in timer.records
            }

        assert ledger(chain) == ledger(separate)


def test_nan_spmm_inside_the_apply_ends_a_block_solve_in_breakdown():
    """The recurrence of the backend default routes every product of the
    apply through a wrapping backend: a NaN injected into the polynomial's
    own SpMMs reaches the solver."""
    A = laplace3d(6)
    poly = GmresPolynomialPreconditioner(A, degree=5, precision="single")

    class PolySpmmFaults(FaultInjectingBackend):
        def spmm(self, matrix, X, out=None):
            if matrix is poly.matrix:
                return super().spmm(matrix, X, out)
            return self.inner.spmm(matrix, X, out)

    faulty = PolySpmmFaults(NumpyBackend(), nan_rate=1.0, kernels={"spmm"})
    B = rng(8).standard_normal((A.n_rows, 3))
    with use_backend(faulty):
        result = block_gmres(A, B, restart=10, tol=1e-8, preconditioner=poly)
    assert faulty.stats()["injected"]["nan"] > 0
    assert all(status is SolverStatus.BREAKDOWN for status in result.statuses)
