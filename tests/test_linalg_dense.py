"""Tests for the host-side dense machinery (Givens QR, back substitution)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg.dense import (
    GivensWorkspace,
    back_substitute,
    givens_rotation,
    hessenberg_lstsq,
)


class TestGivensRotation:
    def test_annihilates_second_entry(self):
        c, s = givens_rotation(3.0, 4.0)
        rotated = np.array([[c, -s], [s, c]]) @ np.array([3.0, 4.0])
        assert rotated[1] == pytest.approx(0.0, abs=1e-14)
        assert abs(rotated[0]) == pytest.approx(5.0)

    def test_unit_norm(self):
        c, s = givens_rotation(-2.0, 7.0)
        assert c * c + s * s == pytest.approx(1.0)

    def test_zero_b(self):
        assert givens_rotation(5.0, 0.0) == (1.0, 0.0)

    def test_fp32_dtype_arithmetic(self):
        c, s = givens_rotation(1.0, 1e-3, dtype=np.float32)
        assert c * c + s * s == pytest.approx(1.0, rel=1e-6)

    @given(a=st.floats(-1e6, 1e6), b=st.floats(-1e6, 1e6))
    @settings(max_examples=100)
    def test_property_rotation(self, a, b):
        if a == 0 and b == 0:
            return
        c, s = givens_rotation(a, b)
        assert c * c + s * s == pytest.approx(1.0, rel=1e-9)
        assert s * a + c * b == pytest.approx(0.0, abs=1e-6 * (abs(a) + abs(b)))


class TestBackSubstitute:
    def test_matches_solve(self, rng):
        R = np.triu(rng.standard_normal((6, 6))) + 6 * np.eye(6)
        b = rng.standard_normal(6)
        np.testing.assert_allclose(back_substitute(R, b), np.linalg.solve(R, b), rtol=1e-10)

    def test_zero_diagonal_zeroes_its_coefficient(self):
        R = np.array([[1.0, 2.0], [0.0, 0.0]])
        np.testing.assert_array_equal(back_substitute(R, np.ones(2)), [1.0, 0.0])

    def test_shape_check(self):
        with pytest.raises(ValueError):
            back_substitute(np.ones((2, 3)), np.ones(2))

    def test_preserves_fp32(self, rng):
        R = (np.triu(rng.standard_normal((4, 4))) + 4 * np.eye(4)).astype(np.float32)
        y = back_substitute(R, np.ones(4, dtype=np.float32))
        assert y.dtype == np.float32


class TestHessenbergLstsq:
    def test_consistent_system_zero_residual(self, rng):
        H = np.zeros((4, 3))
        H[:3, :3] = np.triu(rng.standard_normal((3, 3))) + 3 * np.eye(3)
        beta = 2.0
        y, res = hessenberg_lstsq(H, beta)
        assert res == pytest.approx(0.0, abs=1e-10)

    def test_residual_matches_direct_computation(self, rng):
        H = rng.standard_normal((5, 4))
        beta = 1.5
        y, res = hessenberg_lstsq(H, beta)
        rhs = np.zeros(5)
        rhs[0] = beta
        assert res == pytest.approx(np.linalg.norm(rhs - H @ y), rel=1e-10)


class TestGivensWorkspace:
    def _random_hessenberg(self, rng, m):
        H = np.zeros((m + 1, m))
        for j in range(m):
            H[: j + 2, j] = rng.standard_normal(j + 2)
            H[j + 1, j] = abs(H[j + 1, j]) + 0.5
        return H

    def test_incremental_qr_matches_lstsq(self, rng):
        m = 8
        H = self._random_hessenberg(rng, m)
        beta = 3.7
        ws = GivensWorkspace(m)
        ws.reset(beta)
        for j in range(m):
            ws.append(H[: j + 1, j], H[j + 1, j])
        (implicit,) = ws.residual_norms()
        y_ref, res_ref = hessenberg_lstsq(H, beta)
        y = ws.solve()
        np.testing.assert_allclose(y, y_ref, rtol=1e-8)
        assert implicit == pytest.approx(res_ref, rel=1e-8)

    def test_implicit_residual_monotonically_nonincreasing(self, rng):
        m = 10
        H = self._random_hessenberg(rng, m)
        ws = GivensWorkspace(m)
        ws.reset(1.0)
        norms = []
        for j in range(m):
            ws.append(H[: j + 1, j], H[j + 1, j])
            norms.append(ws.residual_norms()[0])
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))

    def test_partial_solve_mid_cycle(self, rng):
        m = 6
        H = self._random_hessenberg(rng, m)
        beta = 1.0
        ws = GivensWorkspace(m)
        ws.reset(beta)
        for j in range(3):
            ws.append(H[: j + 1, j], H[j + 1, j])
        y = ws.solve()
        y_ref, _ = hessenberg_lstsq(H[:4, :3], beta)
        np.testing.assert_allclose(y, y_ref, rtol=1e-8)

    def test_reset_clears_state(self, rng):
        ws = GivensWorkspace(4)
        ws.reset(2.0)
        ws.append(np.array([1.0]), 0.5)
        ws.reset(1.0)
        assert ws.size == 0
        assert ws.residual_norms()[0] == pytest.approx(1.0)

    def test_zero_column_keeps_the_residual(self, rng):
        """A lucky breakdown on a direction the matrix maps to zero reduces
        nothing: the implicit norm stays at its value before the step, the
        least-squares residual, and the coefficient is zero."""
        ws = GivensWorkspace(4)
        ws.reset(2.0)
        ws.append(np.array([0.0]), 0.0)
        assert ws.residual_norms()[0] == 2.0
        np.testing.assert_array_equal(ws.solve(), [0.0])
        assert ws.G is None  # no block state for a single-vector cycle

    def test_overflow_raises(self):
        ws = GivensWorkspace(1)
        ws.reset(1.0)
        ws.append(np.array([1.0]), 0.1)
        with pytest.raises(RuntimeError):
            ws.append(np.array([1.0, 2.0]), 0.1)

    def test_invalid_max_size(self):
        with pytest.raises(ValueError):
            GivensWorkspace(0)

    def test_fp32_workspace_stays_fp32(self, rng):
        ws = GivensWorkspace(3, dtype=np.float32)
        ws.reset(1.0)
        ws.append(np.array([1.0], dtype=np.float32), 0.5)
        assert ws.R.dtype == np.float32
        assert ws.solve().dtype == np.float32

    @given(m=st.integers(min_value=1, max_value=12), seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_property_matches_lstsq_oracle(self, m, seed):
        rng = np.random.default_rng(seed)
        H = self._random_hessenberg(rng, m)
        beta = float(abs(rng.standard_normal()) + 0.1)
        ws = GivensWorkspace(m)
        ws.reset(beta)
        for j in range(m):
            ws.append(H[: j + 1, j], H[j + 1, j])
        y_ref, res_ref = hessenberg_lstsq(H, beta)
        np.testing.assert_allclose(ws.solve(), y_ref, rtol=1e-6, atol=1e-9)
        assert ws.residual_norms()[0] == pytest.approx(res_ref, rel=1e-6, abs=1e-10)
