"""Pluggable kernel backends.

The solvers, preconditioners and metered kernels never execute sparse or
dense arithmetic directly: they call the *active* :class:`KernelBackend`
held by the :class:`~repro.linalg.context.ExecutionContext`.  Two backends
ship with the library:

``numpy``
    The pure-NumPy backend: a cached diagonal-format SpMV/SpMM for
    stencil-like matrices, the ``np.add.reduceat`` reference for the
    rest.  Its module-level kernels are the numerical ground truth: they
    accumulate strictly in the working precision, including fp16, which
    the paper's half-precision experiments depend on.
``scipy``
    A fast path that routes SpMV/SpMM/SpMV^T through the compiled
    :mod:`scipy.sparse` CSR kernels (several times faster on the paper's
    matrices; fp16 falls back to the reference).

Selection (first match wins):

1. an explicit ``ExecutionContext(backend=...)`` /
   :func:`repro.linalg.context.use_backend`;
2. ``ReproConfig.backend`` (i.e. :func:`repro.config.set_config`), whose
   default is read from the ``REPRO_BACKEND`` environment variable;
3. the built-in default, ``numpy``.

Third-party backends register a factory under a new name with
:func:`register_backend` and become selectable through all of the above.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Union

from .base import KernelBackend
from .numpy_backend import NumpyBackend
from .scipy_backend import ScipyBackend

__all__ = [
    "KernelBackend",
    "NumpyBackend",
    "ScipyBackend",
    "register_backend",
    "available_backends",
    "get_backend",
    "active_backend",
]

_FACTORIES: Dict[str, Callable[[], KernelBackend]] = {}
_INSTANCES: Dict[str, KernelBackend] = {}
#: Bumped by every :func:`register_backend`, so a resolution cached by an
#: execution context can tell that a name may now map to another backend.
_generation = 0


def register_backend(
    name: str, factory: Callable[[], KernelBackend], *, replace: bool = False
) -> None:
    """Register a backend factory under ``name`` (lowercased).

    The factory is called lazily, once, on first :func:`get_backend` lookup.
    Registering an already-known name raises unless ``replace=True``.
    """
    global _generation
    key = name.lower()
    if key in _FACTORIES and not replace:
        raise ValueError(f"backend {name!r} is already registered")
    _FACTORIES[key] = factory
    _INSTANCES.pop(key, None)
    _generation += 1


def available_backends() -> List[str]:
    """Sorted names of all registered backends."""
    return sorted(_FACTORIES)


def get_backend(backend: Union[str, KernelBackend, None] = None) -> KernelBackend:
    """Resolve ``backend`` to a :class:`KernelBackend` instance.

    Accepts an instance (returned as-is), a registered name, or ``None``,
    which selects the library-config backend
    (:attr:`repro.config.ReproConfig.backend`, seeded from the
    ``REPRO_BACKEND`` environment variable).
    """
    if isinstance(backend, KernelBackend):
        return backend
    if backend is None:
        from ..config import get_config

        backend = get_config().backend
    key = backend.lower()
    instance = _INSTANCES.get(key)
    if instance is None:
        factory = _FACTORIES.get(key)
        if factory is None:
            raise ValueError(
                f"unknown backend {backend!r}; available: {available_backends()}"
            )
        instance = factory()
        _INSTANCES[key] = instance
    return instance


def active_backend() -> KernelBackend:
    """The backend of the active execution context.

    This is what :class:`~repro.sparse.csr.CsrMatrix` and the metered
    kernels actually dispatch to.
    """
    from ..linalg.context import get_context

    return get_context().backend


register_backend("numpy", NumpyBackend)
register_backend("scipy", ScipyBackend)
