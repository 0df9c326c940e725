"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ReproConfig, rng as make_rng, set_config
from repro.linalg.context import ExecutionContext, set_context
from repro.matrices import bentpipe2d, laplace2d, laplace3d, stretched2d, uniflow2d
from repro.sparse import CsrMatrix, from_scipy


@pytest.fixture(autouse=True)
def _reset_global_state():
    """Reset the library-wide config and execution context around every test.

    Both are process-global (mirroring the single-device setup of the paper),
    so tests that switch devices or disable metering must not leak into each
    other.
    """
    set_config(ReproConfig())
    set_context(ExecutionContext())
    yield
    set_config(ReproConfig())
    set_context(ExecutionContext())


@pytest.fixture
def rng():
    """Shared deterministic generator (see :func:`repro.config.rng`)."""
    return make_rng(1234)


@pytest.fixture
def laplace_small() -> CsrMatrix:
    """10x10-grid 2D Laplacian (n=100), SPD and well conditioned."""
    return laplace2d(10)


@pytest.fixture
def laplace_medium() -> CsrMatrix:
    """24x24-grid 2D Laplacian (n=576)."""
    return laplace2d(24)


@pytest.fixture
def bentpipe_small() -> CsrMatrix:
    """Small convection-dominated (nonsymmetric) problem (n=256)."""
    return bentpipe2d(16)


@pytest.fixture
def uniflow_small() -> CsrMatrix:
    """Small mildly nonsymmetric convection-diffusion problem (n=256)."""
    return uniflow2d(16)


@pytest.fixture
def stretched_small() -> CsrMatrix:
    """Small stretched-grid Laplacian (n=576)."""
    return stretched2d(24, stretch=8)


@pytest.fixture
def laplace3d_small() -> CsrMatrix:
    """Small 3D Laplacian (n=512)."""
    return laplace3d(8)


@pytest.fixture
def random_sparse(rng) -> CsrMatrix:
    """Random diagonally dominant sparse matrix (n=80), nonsymmetric."""
    import scipy.sparse as sp

    n = 80
    density = 0.05
    a = sp.random(n, n, density=density, random_state=make_rng(7), format="csr")
    a = a + sp.identity(n, format="csr") * (abs(a).sum(axis=1).max() + 1.0)
    return from_scipy(a.tocsr(), name="random80")


def dense(matrix: CsrMatrix) -> np.ndarray:
    """Dense copy of a CsrMatrix (test helper)."""
    return matrix.to_scipy().toarray()


def overflowing_laplace3d(big: float) -> CsrMatrix:
    """Laplace3D 6³ with one huge but finite entry: the first Arnoldi norm
    of an fp64 solve overflows to inf."""
    A = laplace3d(6)
    A.data[7] = big
    return A
