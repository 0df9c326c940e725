"""repro — multiprecision GMRES strategies on a modelled GPU.

A from-scratch Python reproduction of

    J. Loe, C. Glusa, I. Yamazaki, E. Boman, S. Rajamanickam,
    "Experimental Evaluation of Multiprecision Strategies for GMRES on
    GPUs", IPDPS Workshops 2021 (arXiv:2105.07544).

The package provides:

* restarted GMRES(m) and its multiprecision variants GMRES-IR and GMRES-FD
  (plus CG and a half/single/double IR extension),
* GPU-friendly preconditioners: GMRES-polynomial, block Jacobi and point
  Jacobi,
* the finite-difference PDE problems and SuiteSparse-proxy matrices of the
  paper's evaluation,
* an instrumented linear-algebra layer whose kernels are metered through an
  analytic V100 performance model (the paper's own Section V-D byte-traffic
  model), so solver runs report a modelled GPU kernel-time breakdown, and
* experiment drivers that regenerate every table and figure of the paper's
  evaluation section (see :mod:`repro.experiments` and ``benchmarks/``).

Quickstart::

    import repro

    A = repro.matrices.bentpipe2d(64)
    b = repro.ones_rhs(A)
    double = repro.gmres(A, b, precision="double", restart=50, tol=1e-8)
    mixed = repro.gmres_ir(A, b, restart=50, tol=1e-8)
    print(double.summary())
    print(mixed.summary())
    print("modelled speedup:", double.model_seconds / mixed.model_seconds)
"""

from __future__ import annotations

import numpy as np

from . import config, precision, perfmodel, backends, sparse, linalg, matrices, ortho
from . import preconditioners, solvers, analysis, experiments, obs, serve, testing
from .backends import KernelBackend, available_backends, get_backend, register_backend
from .config import ObsConfig, ReproConfig, get_config, set_config
from .precision import HALF, SINGLE, DOUBLE, Precision, as_precision
from .sparse import CsrMatrix
from .linalg import MultiVector, use_context, use_device, use_backend
from .perfmodel import KernelTimer, use_timer, DeviceSpec, get_device
from .solvers import (
    SolveResult,
    MultiSolveResult,
    SolverStatus,
    ConvergenceHistory,
    ResultLike,
    gmres,
    gmres_ir,
    gmres_fd,
    cg,
    gmres_ir_three_precision,
    block_gmres,
    block_gmres_ir,
    solve_many,
    SolveControl,
)
from .preconditioners import (
    JacobiPreconditioner,
    BlockJacobiPreconditioner,
    GmresPolynomialPreconditioner,
    make_preconditioner,
)
__version__ = "1.0.0"

__all__ = [
    "__version__",
    # submodules
    "config",
    "precision",
    "perfmodel",
    "backends",
    "sparse",
    "linalg",
    "matrices",
    "ortho",
    "preconditioners",
    "solvers",
    "analysis",
    "experiments",
    "obs",
    "serve",
    "testing",
    # configuration / precision
    "ReproConfig",
    "ObsConfig",
    "get_config",
    "set_config",
    # backends
    "KernelBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "use_backend",
    "Precision",
    "as_precision",
    "HALF",
    "SINGLE",
    "DOUBLE",
    # core types
    "CsrMatrix",
    "MultiVector",
    "KernelTimer",
    "use_timer",
    "use_context",
    "use_device",
    "DeviceSpec",
    "get_device",
    # solvers
    "SolveResult",
    "MultiSolveResult",
    "SolverStatus",
    "ConvergenceHistory",
    "ResultLike",
    "gmres",
    "gmres_ir",
    "gmres_fd",
    "cg",
    "gmres_ir_three_precision",
    "block_gmres",
    "block_gmres_ir",
    "solve_many",
    "SolveControl",
    # preconditioners
    "JacobiPreconditioner",
    "BlockJacobiPreconditioner",
    "GmresPolynomialPreconditioner",
    "make_preconditioner",
    # serving facade (classes live in repro.serve)
    "session",
    "farm",
    # helpers
    "ones_rhs",
]


def session(matrix: CsrMatrix, **kwargs) -> "serve.OperatorSession":
    """Open a serving session for one operator (the serving facade).

    ``repro.session(A, **cfg)`` is :class:`repro.serve.OperatorSession`
    with the matrix first and everything else keyword-configured —
    register the operator once, then ``submit()`` (or ``await
    asubmit()``) many right-hand sides against its warmed plans and
    pooled workspaces::

        with repro.session(A, preconditioner=M, restart=15) as s:
            x = s.submit(b).result().x

    Pass ``obs=`` (a :class:`repro.obs.Observability` or a bare
    :class:`repro.obs.Tracer`) to trace requests and publish metrics; by
    default the session follows ``ReproConfig.obs``.  For many operators
    behind one service, see :func:`farm`.
    """
    return serve.OperatorSession(matrix, **kwargs)


def farm(**kwargs) -> "serve.SolverFarm":
    """Open a multi-operator solver farm (the multi-tenant facade).

    ``repro.farm(**cfg)`` is :class:`repro.serve.SolverFarm`: register
    operators by key (cheap; sessions warm on first traffic and live in
    an LRU cache under a memory budget), then submit right-hand sides
    per key through a shared, fairness-scheduled worker pool::

        with repro.farm(workers=2, max_sessions=4) as f:
            f.register("poisson", A, preconditioner=M)
            x = f.submit("poisson", b).result().x

    Knobs default from ``ReproConfig.serve``
    (:class:`repro.config.ServeConfig`); ``obs=`` works as in
    :func:`session` (see :mod:`repro.obs`).
    """
    return serve.SolverFarm(**kwargs)


def ones_rhs(matrix: CsrMatrix, precision="double") -> np.ndarray:
    """The paper's right-hand side: a vector of all ones.

    Section V: "For each problem, we use a right-hand side vector b of all
    ones and a starting vector x0 of all zeros."
    """
    return np.ones(matrix.n_rows, dtype=as_precision(precision).dtype)
