"""Synthetic stand-ins for the SuiteSparse matrices of Table III.

The paper validates its analysis on ten matrices from the SuiteSparse
collection.  This environment has no network access to the collection, so
each matrix is replaced by a *structural proxy*: a synthetic operator that
matches the original's

* symmetry class (nonsymmetric / symmetric / SPD),
* rough nonzeros-per-row profile (narrow stencil vs. denser FEM rows),
* relative difficulty for restarted GMRES (needs "a few hundred" vs. "many
  thousands" of iterations, which is the property Table III's conclusion
  hinges on), and
* the preconditioner the paper pairs it with (none, block Jacobi after RCM,
  or a degree-25 GMRES polynomial).

Each :class:`ProxySpec` records the original matrix's UF id and statistics
alongside the proxy recipe, so reports can show exactly what was
substituted.  Dimensions are scaled down (thousands instead of hundreds of
thousands of rows); the ``dim`` argument of :func:`build_proxy` controls
the scaling.

The proxies are *not* numerically equal to the originals and absolute
iteration counts will differ; what the reproduction compares is the
Table III conclusion (GMRES-IR pays off when the double-precision solver
needs many iterations, and not when it converges in a handful).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..sparse.csr import CsrMatrix
from ..sparse.convert import from_scipy
from .galeri import convection_diffusion_2d, laplace3d

__all__ = ["ProxySpec", "PROXY_SPECS", "build_proxy", "list_proxies"]


# ---------------------------------------------------------------------- #
# proxy archetypes                                                       #
# ---------------------------------------------------------------------- #
def _grid_side_2d(dim: int) -> int:
    return max(8, int(round(np.sqrt(dim))))


def _grid_side_3d(dim: int) -> int:
    return max(5, int(round(dim ** (1.0 / 3.0))))


def _spd_5pt(dim: int, *, anisotropy: float = 1.0, name: str) -> CsrMatrix:
    """SPD 2D Laplacian, optionally anisotropic (higher anisotropy → harder)."""
    import scipy.sparse as sp

    n = _grid_side_2d(dim)
    main = 2.0 * np.ones(n)
    off = -1.0 * np.ones(n - 1)
    t = sp.diags([off, main, off], [-1, 0, 1], format="csr")
    eye = sp.identity(n, format="csr")
    a = sp.kron(eye, t, format="csr") + anisotropy * sp.kron(t, eye, format="csr")
    return from_scipy(a, name=name)


def _spd_9pt(dim: int, *, name: str) -> CsrMatrix:
    """SPD 2D operator with a denser (9-point) stencil — FEM-like rows."""
    import scipy.sparse as sp

    n = _grid_side_2d(dim)
    main = 2.0 * np.ones(n)
    off = -1.0 * np.ones(n - 1)
    t = sp.diags([off, main, off], [-1, 0, 1], format="csr")
    eye = sp.identity(n, format="csr")
    a = (
        sp.kron(eye, t, format="csr")
        + sp.kron(t, eye, format="csr")
        + 0.5 * sp.kron(t, t, format="csr")
    )
    return from_scipy(a, name=name)


def _spd_aniso_hard(dim: int, *, anisotropy: float, name: str) -> CsrMatrix:
    """Strongly anisotropic SPD operator: very slow GMRES(50) convergence.

    Stands in for matrices like ``SiO2`` whose double-precision GMRES needs
    many thousands of iterations.
    """
    return _spd_5pt(dim, anisotropy=anisotropy, name=name)


def _spd_biharmonic(dim: int, *, name: str) -> CsrMatrix:
    """Squared 2D Laplacian (13-point biharmonic-like stencil).

    Its condition number is the *square* of the Laplacian's, which is the
    property needed to emulate ``parabolic_fem``: the problem is so
    ill-conditioned that the fp32 inner solver of GMRES-IR makes markedly
    less progress per cycle than the fp64 solver, so GMRES-IR needs
    disproportionately more iterations (the paper reports a 0.92× "speedup",
    i.e. a slowdown, on this matrix).
    """
    import scipy.sparse as sp

    n = _grid_side_2d(dim)
    main = 2.0 * np.ones(n)
    off = -1.0 * np.ones(n - 1)
    t = sp.diags([off, main, off], [-1, 0, 1], format="csr")
    eye = sp.identity(n, format="csr")
    lap = sp.kron(eye, t, format="csr") + sp.kron(t, eye, format="csr")
    return from_scipy((lap @ lap).tocsr(), name=name)


def _line_block_spd(dim: int, *, line: int, anisotropy: float, name: str) -> CsrMatrix:
    """SPD operator whose natural blocks are grid lines of length ``line``.

    A 2D Laplacian on an ``line × (dim/line)`` grid with the strong coupling
    along the line direction: contiguous blocks of ``line`` rows are exactly
    the grid lines, so block Jacobi with that block size (the paper's
    ``J 42`` for ``hood``) captures the strong couplings, while convergence
    is still governed by the many weakly coupled lines.
    """
    import scipy.sparse as sp

    n_lines = max(4, dim // line)
    main_x = 2.0 * np.ones(line)
    off_x = -1.0 * np.ones(line - 1)
    tx = sp.diags([off_x, main_x, off_x], [-1, 0, 1], format="csr")
    main_y = 2.0 * np.ones(n_lines)
    off_y = -1.0 * np.ones(n_lines - 1)
    ty = sp.diags([off_y, main_y, off_y], [-1, 0, 1], format="csr")
    eye_x = sp.identity(line, format="csr")
    eye_y = sp.identity(n_lines, format="csr")
    # Row-major numbering with the line index fastest → contiguous line blocks.
    a = anisotropy * sp.kron(eye_y, tx, format="csr") + sp.kron(ty, eye_x, format="csr")
    return from_scipy(a, name=name)


def _nonsym_convdiff(dim: int, *, peclet_velocity: float, name: str) -> CsrMatrix:
    """Nonsymmetric convection–diffusion proxy with tunable difficulty."""
    n = _grid_side_2d(dim)
    return convection_diffusion_2d(
        n,
        n,
        epsilon=1.0,
        velocity=(peclet_velocity, 0.3 * peclet_velocity),
        scheme="central",
        name=name,
    )


def _nonsym_3d(dim: int, *, drift: float, name: str) -> CsrMatrix:
    """Mildly nonsymmetric 3D operator (7-point Laplacian plus directional drift)."""
    base = laplace3d(_grid_side_3d(dim), name=name)
    # Introduce nonsymmetry by shifting the east/west couplings.
    rows = base.row_index_of_nonzeros()
    cols = base.indices.astype(np.int64)
    data = base.data.copy()
    east = cols == rows + 1
    west = cols == rows - 1
    data[east] += drift
    data[west] -= drift
    return CsrMatrix(data, base.indices, base.indptr, base.shape, name=name, check=False)


def _block_structured_spd(dim: int, *, block: int, coupling: float, name: str) -> CsrMatrix:
    """SPD operator with strong couplings inside contiguous blocks.

    Emulates the multi-dof-per-node structure of structural-mechanics
    matrices such as ``hood``: block Jacobi with the matching block size
    captures most of the matrix, Jacobi with block size 1 does not.
    """
    import scipy.sparse as sp

    n_blocks = max(2, dim // block)
    n = n_blocks * block
    rng = np.random.default_rng(1266)  # UF id of hood, for reproducibility
    # Dense-ish SPD blocks on the diagonal.
    diag_blocks = []
    for _ in range(n_blocks):
        m = rng.standard_normal((block, block)) * 0.3
        b = m @ m.T + block * np.eye(block)
        diag_blocks.append(sp.csr_matrix(b))
    a = sp.block_diag(diag_blocks, format="lil")
    # Weak coupling between neighbouring blocks (first dof of each block).
    idx = np.arange(0, n - block, block)
    a[idx, idx + block] = -coupling
    a[idx + block, idx] = -coupling
    return from_scipy(sp.csr_matrix(a), name=name)


# ---------------------------------------------------------------------- #
# the Table III roster                                                   #
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ProxySpec:
    """One Table III matrix: original statistics plus the proxy recipe.

    Attributes mirror the columns of Table III; ``paper_*`` fields hold the
    values the paper reports for GMRES double and GMRES-IR so experiment
    reports can show paper-vs-measured side by side.
    """

    name: str
    uf_id: Optional[int]
    original_n: int
    original_nnz: int
    symmetry: str                       # "n", "y" or "spd" as in the table
    preconditioner: Optional[Tuple[str, int]]  # ("jacobi", 1) / ("block_jacobi", 42) / ("poly", 25)
    paper_double_time: float
    paper_double_iters: int
    paper_ir_time: float
    paper_ir_iters: int
    paper_speedup: float
    builder: Callable[[int], CsrMatrix]
    default_dim: int
    scaled_prec_param: Optional[int] = None
    notes: str = ""

    def build(self, dim: Optional[int] = None) -> CsrMatrix:
        """Construct the proxy matrix with roughly ``dim`` unknowns."""
        return self.builder(dim or self.default_dim)

    def preconditioner_at_scale(self) -> Optional[Tuple[str, int]]:
        """The preconditioner assignment with its parameter scaled to the proxy.

        Polynomial degrees that are tuned to the original matrix's difficulty
        would over-precondition the (much easier) scaled proxy and collapse
        the iteration count into a single restart cycle; ``scaled_prec_param``
        holds the degree/block size appropriate at proxy scale.  Block sizes
        and point-Jacobi are structural and are never rescaled.
        """
        if self.preconditioner is None:
            return None
        kind, param = self.preconditioner
        if self.scaled_prec_param is not None:
            param = self.scaled_prec_param
        return kind, param


def _spec_builders() -> List[ProxySpec]:
    return [
        ProxySpec(
            name="atmosmodj",
            uf_id=2266,
            original_n=1_270_432,
            original_nnz=8_814_880,
            symmetry="n",
            preconditioner=None,
            paper_double_time=5.12,
            paper_double_iters=1740,
            paper_ir_time=3.78,
            paper_ir_iters=1750,
            paper_speedup=1.35,
            builder=lambda dim: _nonsym_3d(dim, drift=0.55, name="atmosmodj-proxy"),
            default_dim=17576,
            notes="3D atmospheric model: mildly nonsymmetric 7-point operator.",
        ),
        ProxySpec(
            name="Dubcova3",
            uf_id=1849,
            original_n=146_698,
            original_nnz=3_636_643,
            symmetry="spd",
            preconditioner=None,
            paper_double_time=1.15,
            paper_double_iters=1131,
            paper_ir_time=1.05,
            paper_ir_iters=1150,
            paper_speedup=1.10,
            builder=lambda dim: _spd_9pt(dim, name="Dubcova3-proxy"),
            default_dim=4900,
            notes="FEM Laplacian with denser rows: 9-point SPD proxy.",
        ),
        ProxySpec(
            name="stomach",
            uf_id=895,
            original_n=213_360,
            original_nnz=3_021_648,
            symmetry="n",
            preconditioner=None,
            paper_double_time=0.51,
            paper_double_iters=359,
            paper_ir_time=0.52,
            paper_ir_iters=400,
            paper_speedup=0.98,
            builder=lambda dim: _nonsym_convdiff(dim, peclet_velocity=3.0, name="stomach-proxy"),
            default_dim=1600,
            notes="Easy nonsymmetric problem: converges in a few hundred iterations.",
        ),
        ProxySpec(
            name="SiO2",
            uf_id=1367,
            original_n=155_331,
            original_nnz=11_283_503,
            symmetry="y",
            preconditioner=None,
            paper_double_time=18.23,
            paper_double_iters=17385,
            paper_ir_time=16.86,
            paper_ir_iters=17600,
            paper_speedup=1.08,
            builder=lambda dim: _spd_aniso_hard(dim, anisotropy=220.0, name="SiO2-proxy"),
            default_dim=10000,
            notes="Hard symmetric problem needing many thousands of iterations.",
        ),
        ProxySpec(
            name="parabolic_fem",
            uf_id=1853,
            original_n=525_825,
            original_nnz=3_674_625,
            symmetry="spd",
            preconditioner=None,
            paper_double_time=41.77,
            paper_double_iters=27493,
            paper_ir_time=45.34,
            paper_ir_iters=36600,
            paper_speedup=0.92,
            builder=lambda dim: _spd_aniso_hard(dim, anisotropy=600.0, name="parabolic_fem-proxy"),
            default_dim=10000,
            notes=(
                "Hardest SPD problem in the proxy set (thousands of iterations). "
                "Known mismatch: the paper's 0.92x slowdown (GMRES-IR diverging "
                "from GMRES double, flagged by the authors for further "
                "investigation) arises in a 27k-iteration regime with ~0.3% "
                "residual reduction per cycle, which is unreachable at proxy "
                "scale; the proxy lands in the same difficulty bucket but shows "
                "a normal IR speedup.  See EXPERIMENTS.md."
            ),
        ),
        ProxySpec(
            name="lung2",
            uf_id=894,
            original_n=109_460,
            original_nnz=492_564,
            symmetry="n",
            preconditioner=("jacobi", 1),
            paper_double_time=0.46,
            paper_double_iters=206,
            paper_ir_time=0.49,
            paper_ir_iters=250,
            paper_speedup=0.94,
            builder=lambda dim: _nonsym_convdiff(dim, peclet_velocity=2.0, name="lung2-proxy"),
            default_dim=1296,
            notes="Easy nonsymmetric problem, point-Jacobi preconditioned (J 1).",
        ),
        ProxySpec(
            name="hood",
            uf_id=1266,
            original_n=220_542,
            original_nnz=9_895_422,
            symmetry="spd",
            preconditioner=("block_jacobi", 42),
            paper_double_time=13.98,
            paper_double_iters=5762,
            paper_ir_time=9.04,
            paper_ir_iters=5000,
            paper_speedup=1.55,
            builder=lambda dim: _line_block_spd(
                dim, line=42, anisotropy=50.0, name="hood-proxy"
            ),
            default_dim=8400,
            notes="Structural-mechanics proxy with 42-wide diagonal blocks (J 42 after RCM).",
        ),
        ProxySpec(
            name="cfd2",
            uf_id=805,
            original_n=123_440,
            original_nnz=3_085_406,
            symmetry="spd",
            preconditioner=("poly", 25),
            paper_double_time=6.05,
            paper_double_iters=1092,
            paper_ir_time=4.55,
            paper_ir_iters=1100,
            paper_speedup=1.33,
            builder=lambda dim: _spd_5pt(dim, anisotropy=25.0, name="cfd2-proxy"),
            default_dim=10000,
            scaled_prec_param=8,
            notes="Moderately hard SPD problem, degree-25 polynomial preconditioner.",
        ),
        ProxySpec(
            name="Transport",
            uf_id=2649,
            original_n=1_602_111,
            original_nnz=23_487_281,
            symmetry="n",
            preconditioner=("poly", 25),
            paper_double_time=8.35,
            paper_double_iters=339,
            paper_ir_time=8.73,
            paper_ir_iters=450,
            paper_speedup=0.96,
            builder=lambda dim: _nonsym_convdiff(dim, peclet_velocity=400.0, name="Transport-proxy"),
            default_dim=6400,
            scaled_prec_param=8,
            notes="Easy-with-preconditioning nonsymmetric transport problem (p 25).",
        ),
        ProxySpec(
            name="filter3D",
            uf_id=1431,
            original_n=106_437,
            original_nnz=2_707_179,
            symmetry="y",
            preconditioner=("poly", 25),
            paper_double_time=25.24,
            paper_double_iters=4449,
            paper_ir_time=18.12,
            paper_ir_iters=4450,
            paper_speedup=1.39,
            builder=lambda dim: _spd_aniso_hard(dim, anisotropy=1000.0, name="filter3D-proxy"),
            default_dim=10000,
            scaled_prec_param=4,
            notes="Hard symmetric problem, degree-25 polynomial preconditioner.",
        ),
    ]


PROXY_SPECS: Dict[str, ProxySpec] = {spec.name: spec for spec in _spec_builders()}


def list_proxies() -> List[str]:
    """Names of all Table III proxies, in the table's order."""
    return list(PROXY_SPECS)


def build_proxy(name: str, dim: Optional[int] = None) -> CsrMatrix:
    """Build the proxy matrix for the named Table III entry."""
    if name not in PROXY_SPECS:
        raise KeyError(f"unknown proxy {name!r}; known: {list(PROXY_SPECS)}")
    return PROXY_SPECS[name].build(dim)
