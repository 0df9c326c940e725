"""The compiled dense kernels (``backends/native/dense.c``) against their
Python versions.

Each kernel must give the bits of the code it replaces, so a solve is the
same with or without a C compiler.  Pinned here:

* ``axpy``: ``NumpyBackend.axpy`` with the kernel equals the NumPy
  multiply-then-add, for fp32/fp64 vectors and C/Fortran blocks, with
  and without ``work=``, for ``x is y``, and with signed zeros and
  inf/NaN; strided, mixed-layout and overlapping operands and fp16 keep
  the NumPy path;
* ``band_qr_step``: block-cycle ``GivensWorkspace`` states (``R``, ``G``,
  ``Q^T``, residual norms, the solved coefficients) equal those of the
  Python rotation loop over several block steps, block widths 1–8 and a
  deflated band, in fp32 and fp64;
* a preconditioned block GMRES solve and a block GMRES-IR solve return
  the same bits and iteration counts either way when only the CGS2 and
  block CGS2 projections, which agree with their Python versions to
  rounding, keep their Python versions; with those compiled too, the
  same iteration counts and solutions that agree to rounding.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import native
from repro.backends.numpy_backend import NumpyBackend
from repro.config import rng
from repro.linalg import get_context
from repro.linalg.dense import GivensWorkspace
from repro.matrices import laplace3d, uniflow2d
from repro.preconditioners.polynomial import GmresPolynomialPreconditioner
from repro.solvers.block_gmres import block_gmres, block_gmres_ir

NUMPY = NumpyBackend()
FLOATS = [np.float32, np.float64]
FLOAT_IDS = ["fp32", "fp64"]


@pytest.fixture(autouse=True)
def compiled():
    if native.kernel("axpy", np.dtype(np.float64)) is None:
        pytest.skip("no C compiler: the compiled kernels are unavailable")


def both_ways(monkeypatch, run):
    """``run()`` with the compiled kernels, then with the Python versions."""
    fast = run()
    with monkeypatch.context() as m:
        m.setattr(native, "_kernels", {})
        slow = run()
    return fast, slow


def bits(a) -> np.ndarray:
    a = np.asarray(a)
    return np.ascontiguousarray(a).view(np.dtype(f"u{a.dtype.itemsize}"))


def assert_same_bits(fast, slow):
    for f, s in zip(fast, slow):
        np.testing.assert_array_equal(bits(f), bits(s))


class TestAxpy:
    @pytest.mark.parametrize("alpha", [1.0, -1.0, 0.3, -2.5e-3, 1e30])
    @pytest.mark.parametrize("shape,order", [((1000,), "C"), ((500, 3), "F"), ((500, 3), "C")])
    @pytest.mark.parametrize("dtype", FLOATS, ids=FLOAT_IDS)
    def test_matches_multiply_then_add(self, monkeypatch, dtype, shape, order, alpha):
        gen = rng(4)
        x0 = np.asarray(gen.standard_normal(shape), dtype=dtype, order=order)
        y0 = np.asarray(gen.standard_normal(shape), dtype=dtype, order=order)
        work = np.empty_like(x0)

        def run(with_work):
            y = y0.copy(order="K")
            out = NUMPY.axpy(alpha, x0, y, work=work if with_work else None)
            assert out is y
            return (y,)

        for with_work in (False, True):
            assert_same_bits(*both_ways(monkeypatch, lambda: run(with_work)))

    @pytest.mark.parametrize("dtype", FLOATS, ids=FLOAT_IDS)
    def test_special_values(self, monkeypatch, dtype):
        x0 = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -0.0, 3.0], dtype=dtype)
        y0 = np.array([-0.0, -0.0, 1.0, np.inf, 2.0, np.nan, 0.0, -np.inf], dtype=dtype)

        def run(alpha):
            y = y0.copy()
            with np.errstate(invalid="ignore"):
                NUMPY.axpy(alpha, x0, y)
            return (y,)

        for alpha in (1.0, -1.0, 0.0, -0.0):
            assert_same_bits(*both_ways(monkeypatch, lambda: run(alpha)))

    @pytest.mark.parametrize("dtype", FLOATS, ids=FLOAT_IDS)
    def test_x_is_y(self, monkeypatch, dtype):
        y0 = rng(5).standard_normal((300, 2)).astype(dtype, order="F")

        def run():
            y = y0.copy(order="F")
            NUMPY.axpy(0.7, y, y)
            return (y,)

        assert_same_bits(*both_ways(monkeypatch, run))

    @pytest.mark.parametrize(
        "case", ["strided", "mixed-layout", "overlap", "fp16", "read-only-x"]
    )
    def test_other_operands(self, monkeypatch, case):
        gen = rng(6)
        base = gen.standard_normal((400, 4))
        x, y = np.asfortranarray(base[:, :2]), np.asfortranarray(base[:, 2:])
        if case == "strided":
            x, y = base[::2, :2], np.asfortranarray(base[::2, 2:])
        elif case == "mixed-layout":
            y = np.ascontiguousarray(y)
        elif case == "overlap":
            flat = gen.standard_normal(801)
            x, y = flat[:800], flat[1:]
        elif case == "fp16":
            x, y = x.astype(np.float16), y.astype(np.float16)
        else:
            x = x.copy(order="F")
            x.flags.writeable = False
        x0, y0 = x.copy(order="K"), y.copy(order="K")

        def run():
            xx = x0.copy(order="K")
            yy = y0.copy(order="K")
            if case == "overlap":
                flat = np.concatenate([x0[:1], y0])
                xx, yy = flat[:800], flat[1:]
            NUMPY.axpy(-1.5, xx, yy)
            return (yy,)

        assert_same_bits(*both_ways(monkeypatch, run))


def random_panels(steps: int, k: int, dtype, seed: int):
    """Hessenberg panels of ``steps`` block steps of width ``k``."""
    gen = rng(seed)
    cols = steps * k
    H = np.zeros((cols + k, cols))
    for q in range(cols):
        H[: q + k + 1, q] = gen.standard_normal(q + k + 1)
    H[k, 0] = 0.0  # a band entry that is already zero: the sweep skips it
    H = H.astype(dtype)
    return [H[: j * k + 2 * k, j * k : j * k + k] for j in range(steps)]


class TestBandQrStep:
    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    @pytest.mark.parametrize("dtype", FLOATS, ids=FLOAT_IDS)
    def test_workspace_states_match_the_loop(self, monkeypatch, dtype, k):
        steps = 5
        panels = random_panels(steps, k, dtype, seed=10 + k)
        S = (np.triu(rng(k).standard_normal((k, k))) + 2 * np.eye(k)).astype(dtype)

        def run():
            ws = GivensWorkspace(max_cols=steps * k, band=k, dtype=dtype)
            ws.reset(S)
            norms = []
            for panel in panels:
                ws.append(panel)
                norms.append(ws.residual_norms())
            Y = ws.solve(out=np.empty((steps * k, k), dtype=dtype))
            return (ws.R, ws.G, ws.QT, np.array(norms), Y)

        assert_same_bits(*both_ways(monkeypatch, run))

    @pytest.mark.parametrize("dtype", FLOATS, ids=FLOAT_IDS)
    def test_deflated_band(self, monkeypatch, dtype):
        """Built for width 4, run at width 2 after a reset."""
        k, steps = 2, 4
        panels = random_panels(steps, k, dtype, seed=3)
        S = (np.triu(rng(9).standard_normal((k, k))) + 2 * np.eye(k)).astype(dtype)

        def run():
            ws = GivensWorkspace(max_cols=12, band=4, dtype=dtype)
            ws.reset(np.eye(4, dtype=dtype))
            ws.append(random_panels(1, 4, dtype, seed=4)[0])
            ws.reset(S)
            for panel in panels:
                ws.append(panel)
            Y = ws.solve(out=np.empty((steps * k, k), dtype=dtype))
            return (ws.R, ws.G, ws.QT, Y)

        assert_same_bits(*both_ways(monkeypatch, run))


#: The compiled kernel that agrees with its Python versions to rounding
#: only: the block CGS2 projection, which a block solve runs for its
#: inter-block passes and, at block width 1, for each column's CGS2.
ROUNDING_ONLY = ("bcgs2_project",)


def block_solves(width):
    A = laplace3d(10)
    P = GmresPolynomialPreconditioner(A, degree=8)
    B = rng(7).standard_normal((A.n_rows, width))
    U = uniflow2d(16)
    BU = rng(8).standard_normal((U.n_rows, width))

    def run():
        a = block_gmres(A, B, restart=10, tol=1e-10, preconditioner=P)
        b = block_gmres_ir(U, BU, restart=10, tol=1e-10)
        return (a.X, np.asarray(a.iterations), b.X, np.asarray(b.iterations), a, b)

    return run


@pytest.mark.parametrize("width", [3, 8])
def test_block_solves_are_unchanged(monkeypatch, width):
    """Every bit-identical kernel compiled, the projections in Python."""
    exact = {key: fn for key, fn in native._load().items() if key[0] not in ROUNDING_ONLY}
    monkeypatch.setattr(native, "_kernels", exact)
    fast = block_solves(width)()[:4]
    monkeypatch.setattr(native, "_kernels", {})
    assert_same_bits(fast, block_solves(width)()[:4])


#: Iterations per column of the compiled block GMRES-IR solve minus those
#: of the Python one, by backend and width.  Rounding moves these columns
#: of the width-8 fp32-inner solve across their tolerance one inner cycle
#: (10 iterations) sooner; on the SciPy backend, which keeps the GEMMs for
#: the inter-block passes, different columns move.
IR_ITERATION_DRIFT = {
    ("numpy", 3): [0, 0, 0],
    ("numpy", 8): [0, 0, 0, 0, 0, -10, 0, 0],
    ("scipy", 3): [0, 0, 0],
    ("scipy", 8): [-10, 0, 0, 0, -10, 0, -10, 0],
}


@pytest.mark.parametrize("width", [3, 8])
def test_block_solves_with_the_compiled_projections_agree_to_rounding(monkeypatch, width):
    """The same iterations but for the recorded columns of the fp32-inner
    GMRES-IR solve; every column converges, to the same solution."""
    fast, slow = both_ways(monkeypatch, block_solves(width))
    np.testing.assert_array_equal(fast[1], slow[1])
    backend = get_context().backend.name
    np.testing.assert_array_equal(fast[3] - slow[3], IR_ITERATION_DRIFT[backend, width])
    for f, s in ((fast[4], slow[4]), (fast[5], slow[5])):
        assert f.converged and s.converged
        np.testing.assert_allclose(f.X, s.X, rtol=1e-7, atol=1e-8 * np.abs(s.X).max())
