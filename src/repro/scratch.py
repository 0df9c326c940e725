"""Per-thread scratch arena for the temporaries of operator kernels.

Matrices and preconditioners are read-only after setup, so any number of
solvers may apply one operator at once, like the const ``apply`` of the
paper's Trilinos/Belos stack.  The temporaries their kernels need (SpMV
staging blocks, polynomial recurrence vectors, padded block-Jacobi
operands) come from :func:`scratch`, which hands out memory private to
the calling thread.

The pool keeps one grow-only flat buffer per ``(tag, dtype)``.  Every call
site uses its own tag, so nested kernels (a preconditioner calling an
SpMV) never receive overlapping memory.  A view stays valid until the
same tag is requested again on the same thread, so kernels never return
one to their caller.

The module sits at package top level because ``repro.backends`` and
``repro.linalg`` import each other.
"""

from __future__ import annotations

import math
import threading

import numpy as np

__all__ = ["scratch"]

_local = threading.local()


def scratch(tag: str, dtype, shape: int | tuple, order: str = "C") -> np.ndarray:
    """An uninitialised ``shape`` buffer of ``dtype`` owned by this thread.

    ``order="F"`` gives a Fortran-contiguous view.  Once a thread has asked
    for a tag's largest size, that tag allocates nothing more.
    """
    try:
        pool = _local.pool
    except AttributeError:
        pool = _local.pool = {}
    if not isinstance(shape, tuple):
        shape = (shape,)
    dtype = np.dtype(dtype)
    size = math.prod(shape)
    flat = pool.get((tag, dtype))
    if flat is None or flat.size < size:
        flat = pool[tag, dtype] = np.empty(size, dtype=dtype)
    return flat[:size].reshape(shape, order=order)
