"""The one restart loop behind GMRES, GMRES-IR, three-precision IR and the
block drivers (:func:`repro.solvers.driver.restart_loop`).

Properties that hold because every width runs the same loop:

* a :class:`~repro.solvers.StagnationTest` passed to a solve is a template:
  every solve, and every column of a block, runs its own copy, so reusing
  one template across solves changes nothing;
* the boundary probe reports the worst relative residual with a
  NaN-propagating maximum, so it does not depend on which column is NaN;
* an initial guess must have the shape of the right-hand sides.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.matrices import laplace2d
from repro.solvers import StagnationTest, block_gmres, gmres


def test_shared_stagnation_template_is_not_consumed():
    A = laplace2d(32)
    b = np.ones(A.n_rows)
    shared = StagnationTest(patience=2)
    reused = [gmres(A, b, restart=5, stagnation=shared) for _ in range(2)]
    fresh = [gmres(A, b, restart=5, stagnation=StagnationTest(patience=2)) for _ in range(2)]
    assert [(r.status, r.iterations) for r in reused] == [
        (r.status, r.iterations) for r in fresh
    ]


def test_probe_worst_residual_does_not_depend_on_column_order():
    A = laplace2d(16)
    B = np.random.default_rng(0).standard_normal((A.n_rows, 2))
    B[3, 1] = np.nan

    def residuals(block):
        events = []
        block_gmres(A, block, restart=10, tol=1e-8, probe=events.append)
        return np.array([event.residual for event in events])

    as_given = residuals(B)
    swapped = residuals(B[:, ::-1].copy())
    assert np.isnan(as_given[0])
    np.testing.assert_array_equal(as_given, swapped)


@pytest.mark.parametrize("x0_length_offset", [-1, 1])
def test_single_vector_initial_guess_must_match(x0_length_offset):
    A = laplace2d(8)
    b = np.ones(A.n_rows)
    with pytest.raises(ValueError, match="initial guess"):
        gmres(A, b, np.zeros(A.n_rows + x0_length_offset))
