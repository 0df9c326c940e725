"""Ablation benchmarks for the library's own design choices.

Not part of the paper's tables/figures; these quantify the library's own
choices so downstream users can see what each one buys:

* CGS2 (the paper's orthogonalization) vs single-pass CGS vs MGS —
  robustness vs kernel-launch count.
* Polynomial application via Leja-ordered harmonic-Ritz roots (product form)
  vs the naive power-basis Horner form — fp32 stability.
* GMRES-IR refinement frequency (every cycle vs every other cycle).
* Raw kernel wall time of the vectorised CSR SpMV (the one genuinely
  micro-benchmark-style entry, with several rounds).
"""

import numpy as np
import pytest

from repro import ones_rhs
from repro.linalg import use_device
from repro.matrices import bentpipe2d, stretched2d
from repro.perfmodel import get_device
from repro.preconditioners import GmresPolynomialPreconditioner
from repro.solvers import gmres, gmres_ir


@pytest.fixture(scope="module")
def bentpipe():
    return bentpipe2d(64)


class TestOrthogonalizationAblation:
    @pytest.mark.parametrize("ortho", ["cgs", "cgs2", "mgs"])
    def test_ortho_variant(self, benchmark, bentpipe, ortho):
        b = ones_rhs(bentpipe)

        def solve():
            return gmres(bentpipe, b, restart=25, tol=1e-8, ortho=ortho, max_restarts=300)

        result = benchmark.pedantic(solve, rounds=1, iterations=1)
        assert result.converged
        # CGS2 must not need substantially more iterations than MGS, while
        # using far fewer kernel launches per iteration than MGS.
        if ortho == "cgs2":
            assert result.timer.total_calls() / result.iterations < 12


class TestPolynomialApplicationAblation:
    @pytest.mark.parametrize("method", ["roots", "power"])
    def test_apply_method_fp32_stability(self, benchmark, method):
        matrix = stretched2d(96, stretch=8)
        b = ones_rhs(matrix)
        M = GmresPolynomialPreconditioner(matrix, degree=10, precision="single",
                                          apply_method=method)

        def solve():
            return gmres(matrix, b, restart=25, tol=1e-8, preconditioner=M, max_restarts=100)

        result = benchmark.pedantic(solve, rounds=1, iterations=1)
        if method == "roots":
            # The product form over Leja-ordered roots is the stable one.
            assert result.relative_residual_fp64 < 1e-6


class TestRefinementFrequencyAblation:
    @pytest.mark.parametrize("refine_every", [1, 2])
    def test_refinement_frequency(self, benchmark, bentpipe, refine_every):
        b = ones_rhs(bentpipe)
        device = get_device("v100").scaled(bentpipe.n_rows / 1500 ** 2)

        def solve():
            with use_device(device):
                return gmres_ir(bentpipe, b, restart=25, tol=1e-8,
                                refine_every=refine_every, max_restarts=300)

        result = benchmark.pedantic(solve, rounds=1, iterations=1)
        assert result.converged
        assert result.relative_residual_fp64 < 1e-8


class TestKernelWallTime:
    def test_spmv_wall_time(self, benchmark, bentpipe):
        """Actual CPU wall time of the vectorised CSR SpMV (not modelled time)."""
        x = np.ones(bentpipe.n_cols)
        out = np.zeros(bentpipe.n_rows)
        benchmark(bentpipe.matvec, x, out)
        np.testing.assert_allclose(out, bentpipe.to_scipy() @ x, atol=1e-12)

    def test_spmv_fp32_wall_time(self, benchmark, bentpipe):
        A32 = bentpipe.astype("single")
        x = np.ones(A32.n_cols, dtype=np.float32)
        benchmark(A32.matvec, x)
