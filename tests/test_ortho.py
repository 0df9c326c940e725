"""Tests for the orthogonalization managers (CGS, CGS2, MGS)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg import MultiVector
from repro.ortho import (
    ClassicalGramSchmidt,
    ClassicalGramSchmidt2,
    ModifiedGramSchmidt,
    make_ortho_manager,
)
from repro.perfmodel.timer import use_timer

ALL_MANAGERS = [ClassicalGramSchmidt(), ClassicalGramSchmidt2(), ModifiedGramSchmidt()]


def build_basis(rng, n, k, dtype=np.float64):
    """Orthonormal basis of k random vectors stored in a MultiVector."""
    V = MultiVector(n, k + 1, "double" if dtype == np.float64 else "single")
    Q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    for j in range(k):
        V.append(Q[:, j].astype(dtype))
    return V, Q.astype(dtype)


class TestFactory:
    @pytest.mark.parametrize("name,cls", [
        ("cgs", ClassicalGramSchmidt),
        ("cgs1", ClassicalGramSchmidt),
        ("cgs2", ClassicalGramSchmidt2),
        ("CGS2", ClassicalGramSchmidt2),
        ("mgs", ModifiedGramSchmidt),
    ])
    def test_known_names(self, name, cls):
        assert isinstance(make_ortho_manager(name), cls)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_ortho_manager("householder")


@pytest.mark.parametrize("manager", ALL_MANAGERS, ids=lambda m: m.name)
class TestOrthogonalization:
    def test_remainder_orthogonal_to_basis(self, manager, rng):
        V, Q = build_basis(rng, 60, 5)
        w = rng.standard_normal(60)
        h, h_next = manager.orthogonalize(V, w)
        assert np.max(np.abs(Q.T @ w)) < 1e-10
        assert h.shape == (5,)
        assert h_next == pytest.approx(np.linalg.norm(w), rel=1e-12)

    def test_coefficients_reconstruct_projection(self, manager, rng):
        V, Q = build_basis(rng, 60, 4)
        w = rng.standard_normal(60)
        original = w.copy()
        h, _ = manager.orthogonalize(V, w)
        np.testing.assert_allclose(original, Q @ h + w, rtol=1e-10)

    def test_empty_basis_returns_norm_only(self, manager, rng):
        V = MultiVector(30, 3)
        w = rng.standard_normal(30)
        h, h_next = manager.orthogonalize(V, w)
        assert h.size == 0
        assert h_next == pytest.approx(np.linalg.norm(w))

    def test_vector_in_span_gives_small_remainder(self, manager, rng):
        V, Q = build_basis(rng, 40, 3)
        w = Q @ np.array([1.0, -2.0, 0.5])
        h, h_next = manager.orthogonalize(V, w)
        assert h_next < 1e-10
        np.testing.assert_allclose(h, [1.0, -2.0, 0.5], atol=1e-10)

    def test_fp32_orthogonalization(self, manager, rng):
        V, Q = build_basis(rng, 50, 4, dtype=np.float32)
        w = rng.standard_normal(50).astype(np.float32)
        h, h_next = manager.orthogonalize(V, w)
        assert h.dtype == np.float32
        assert np.max(np.abs(Q.T @ w)) < 1e-3


class TestKernelMix:
    def test_cgs2_uses_four_gemvs_and_one_norm(self, rng):
        V, _ = build_basis(rng, 40, 3)
        w = rng.standard_normal(40)
        with use_timer(name="t") as timer:
            ClassicalGramSchmidt2().orthogonalize(V, w)
        calls = timer.calls_by_label()
        assert calls["GEMV (Trans)"] == 2
        assert calls["GEMV (No Trans)"] == 2
        assert calls["Norm"] == 1

    def test_cgs_uses_two_gemvs(self, rng):
        V, _ = build_basis(rng, 40, 3)
        w = rng.standard_normal(40)
        with use_timer(name="t") as timer:
            ClassicalGramSchmidt().orthogonalize(V, w)
        calls = timer.calls_by_label()
        assert calls["GEMV (Trans)"] == 1
        assert calls["GEMV (No Trans)"] == 1

    def test_mgs_launches_scale_with_basis_size(self, rng):
        V, _ = build_basis(rng, 40, 6)
        w = rng.standard_normal(40)
        with use_timer(name="t") as timer:
            ModifiedGramSchmidt().orthogonalize(V, w)
        # 6 dots + 6 axpys + 1 norm
        assert timer.total_calls() == 13

    def test_cgs2_stability_beats_cgs_on_illconditioned_set(self, rng):
        """CGS2 keeps the basis orthogonal where single-pass CGS degrades."""
        n, k = 80, 12
        # Nearly linearly dependent vectors.
        base = rng.standard_normal(n)
        vectors = [base + 1e-6 * rng.standard_normal(n) for _ in range(k)]

        def run(manager):
            V = MultiVector(n, k + 1)
            first = vectors[0] / np.linalg.norm(vectors[0])
            V.append(first)
            for vec in vectors[1:]:
                w = vec.copy()
                _, h_next = manager.orthogonalize(V, w)
                if h_next == 0:
                    break
                w /= h_next
                V.append(w)
            Q = V.block()
            return np.max(np.abs(Q.T @ Q - np.eye(Q.shape[1])))

        err_cgs2 = run(ClassicalGramSchmidt2())
        err_cgs = run(ClassicalGramSchmidt())
        assert err_cgs2 < 1e-10
        assert err_cgs2 <= err_cgs


class TestPropertyBased:
    @given(
        n=st.integers(min_value=5, max_value=60),
        k=st.integers(min_value=1, max_value=8),
        seed=st.integers(0, 1000),
        name=st.sampled_from(["cgs", "cgs2", "mgs"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_arnoldi_invariant(self, n, k, seed, name):
        """After orthogonalization, w ⟂ span(V) and ||w|| = h_next."""
        if k >= n:
            return
        rng = np.random.default_rng(seed)
        V, Q = build_basis(rng, n, k)
        w = rng.standard_normal(n)
        manager = make_ortho_manager(name)
        h, h_next = manager.orthogonalize(V, w)
        assert np.max(np.abs(Q.T @ w)) < 1e-8 * max(1.0, np.linalg.norm(w))
        assert h_next == pytest.approx(np.linalg.norm(w), rel=1e-9)


# ---------------------------------------------------------------------- #
# block orthogonalization managers (Block-GMRES)                         #
# ---------------------------------------------------------------------- #
class TestBlockOrthogonalization:
    def _basis_with_block(self, rng, n, start, k, dtype=np.float64):
        """MultiVector holding `start` orthonormal columns + k raw columns."""
        prec = "double" if dtype == np.float64 else "single"
        V = MultiVector(n, start + k, prec)
        if start:
            Q, _ = np.linalg.qr(rng.standard_normal((n, start)))
            for j in range(start):
                V.append(Q[:, j].astype(dtype))
        W = rng.standard_normal((n, k)).astype(dtype)
        V.column_block(start, k)[:] = W
        return V, W.copy()

    @pytest.mark.parametrize("name", ["bcgs", "bcgs2"])
    def test_factory(self, name):
        mgr = make_ortho_manager(name)
        assert mgr.name == name
        assert mgr.ndim == 2
        with pytest.raises(ValueError):
            make_ortho_manager("nope")

    def test_block_is_orthonormalized(self, rng):
        n, start, k = 300, 12, 4
        V, _ = self._basis_with_block(rng, n, start, k)
        mgr = make_ortho_manager("bcgs2")
        panel, subdiagonal = mgr.orthogonalize_block(V, start, k)
        assert np.all(subdiagonal > 0)
        assert panel.shape == (start + k, k)
        full = V._block[:, : start + k]
        gram = full.T @ full
        np.testing.assert_allclose(gram, np.eye(start + k), atol=1e-10)

    def test_panel_reconstructs_original_block(self, rng):
        """[V_old  V_new] @ panel must reproduce the pre-ortho block."""
        n, start, k = 200, 8, 3
        V, W_orig = self._basis_with_block(rng, n, start, k)
        mgr = make_ortho_manager("bcgs2")
        panel, _ = mgr.orthogonalize_block(V, start, k)
        reconstructed = V._block[:, : start + k] @ panel
        np.testing.assert_allclose(reconstructed, W_orig, rtol=1e-9, atol=1e-10)

    def test_initial_block_qr(self, rng):
        """start=0 performs the QR of the residual block: V0 S = R."""
        n, k = 150, 4
        V = MultiVector(n, 2 * k, "double")
        R = rng.standard_normal((n, k))
        V.column_block(0, k)[:] = R
        mgr = make_ortho_manager("bcgs2")
        panel, subdiagonal = mgr.orthogonalize_block(V, 0, k)
        assert np.all(subdiagonal > 0)
        S = panel[:k, :k]
        assert np.allclose(S, np.triu(S))  # upper triangular
        np.testing.assert_allclose(V._block[:, :k] @ S, R, rtol=1e-10, atol=1e-10)

    def test_exact_zero_column_flags_breakdown(self, rng):
        n, k = 100, 3
        V = MultiVector(n, k, "double")
        R = rng.standard_normal((n, k))
        R[:, 1] = 0.0
        V.column_block(0, k)[:] = R
        mgr = make_ortho_manager("bcgs2")
        panel, subdiagonal = mgr.orthogonalize_block(V, 0, k)
        assert subdiagonal[1] == 0.0
        assert panel[1, 1] == 0.0
        np.testing.assert_array_equal(V.column(1), 0)
