"""Preconditioners.

The paper deliberately avoids LU-type preconditioners (fill, poor GPU
parallelism) and studies two highly parallel classical choices:

* the **GMRES polynomial preconditioner** of Loe/Thornquist/Boman [16],
  built from harmonic Ritz values of a short Arnoldi run and applied as a
  sequence of SpMVs (Sections V-C and V-F), and
* **block Jacobi** (with point Jacobi as the block-size-1 special case),
  applied after an RCM reordering in Table III.

Every preconditioner carries an explicit precision; GMRES-IR computes and
applies the preconditioner entirely in fp32, while "fp32 preconditioning of
fp64 GMRES" wraps it in :class:`PrecisionWrappedPreconditioner`, which casts
the vector on every application (the cost the paper attributes to the
"Other" bucket in Figure 7).
"""

from .base import Preconditioner, IdentityPreconditioner
from .jacobi import JacobiPreconditioner
from .block_jacobi import BlockJacobiPreconditioner
from .polynomial import GmresPolynomialPreconditioner
from .mixed import PrecisionWrappedPreconditioner, wrap_for_precision

__all__ = [
    "Preconditioner",
    "IdentityPreconditioner",
    "JacobiPreconditioner",
    "BlockJacobiPreconditioner",
    "GmresPolynomialPreconditioner",
    "PrecisionWrappedPreconditioner",
    "wrap_for_precision",
    "make_preconditioner",
]


def make_preconditioner(name, matrix, precision="double", **kwargs):
    """Build a preconditioner by short name.

    Parameters
    ----------
    name:
        ``None``/"identity", "jacobi", "block_jacobi" or "poly"/"polynomial".
    matrix:
        The system matrix (in any precision; it is converted to the
        preconditioner's precision internally).
    precision:
        Precision in which the preconditioner is computed and applied.
    kwargs:
        Forwarded to the specific preconditioner (``degree``, ``block_size``, ...).
    """
    if name is None:
        return IdentityPreconditioner(precision=precision)
    key = str(name).lower()
    if key in ("identity", "none"):
        return IdentityPreconditioner(precision=precision)
    if key == "jacobi":
        return JacobiPreconditioner(matrix, precision=precision, **kwargs)
    if key in ("block_jacobi", "blockjacobi", "bj"):
        return BlockJacobiPreconditioner(matrix, precision=precision, **kwargs)
    if key in ("poly", "polynomial", "gmres_poly"):
        return GmresPolynomialPreconditioner(matrix, precision=precision, **kwargs)
    raise ValueError(f"unknown preconditioner {name!r}")
