"""Execution context: which modelled device the kernels charge their cost to.

The paper runs everything on one Tesla V100; correspondingly the library
keeps a single active :class:`ExecutionContext` holding the
:class:`~repro.perfmodel.costs.KernelCostModel` for the chosen device and a
flag to disable metering entirely (pure-numerics tests don't need it).

Experiments that run scaled-down problems install a *scaled* device (see
:meth:`repro.perfmodel.device.DeviceSpec.scaled`) so that the modelled
time breakdown of the small problem matches the breakdown the full-size
problem would have on the real device.

Threading model (the contract :mod:`repro.serve` builds on): the context
installed with :func:`set_context` is *process-global* — every thread that
has not installed its own override sees it.  The scoped managers
(:func:`use_context`, :func:`use_device`, :func:`use_backend`) install a
**thread-local** override: they affect only the calling thread, nest, and
unwind on exceptions, so a service dispatcher can pin its session's
context without perturbing clients running solves on other threads.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, Optional, Union

from .. import backends as _registry
from ..backends import KernelBackend, get_backend
from ..config import get_config
from ..perfmodel.cache import CacheConfig
from ..perfmodel.costs import KernelCostModel
from ..perfmodel.device import DeviceSpec, get_device

__all__ = [
    "ExecutionContext",
    "get_context",
    "set_context",
    "use_context",
    "use_device",
    "use_backend",
]


class ExecutionContext:
    """Holds the backend, cost model and metering switch used by the kernels.

    Parameters
    ----------
    device:
        :class:`DeviceSpec` or device name (defaults to the library config,
        i.e. the V100 of the paper's testbed).
    meter:
        If False, kernels skip all performance accounting.
    cache_config:
        Calibration of the SpMV L2 reuse model.
    backend:
        :class:`~repro.backends.KernelBackend` instance or registered name.
        When omitted, the backend is resolved *lazily* from the library
        config (``ReproConfig.backend``, seeded from the ``REPRO_BACKEND``
        environment variable), so a later ``set_config(backend=...)`` or
        ``register_backend(..., replace=True)`` takes effect on the next
        kernel call without rebuilding the context.  Passing an explicit
        backend pins it for this context's lifetime (this is what
        :func:`use_backend` does).
    """

    def __init__(
        self,
        device: Union[str, DeviceSpec, None] = None,
        *,
        meter: Optional[bool] = None,
        cache_config: Optional[CacheConfig] = None,
        backend: Union[str, KernelBackend, None] = None,
        cost_model: Optional[KernelCostModel] = None,
    ) -> None:
        cfg = get_config()
        if device is None:
            device = cfg.device_name
        if isinstance(device, str):
            device = get_device(device)
        self.device = device
        self.meter = cfg.meter_kernels if meter is None else bool(meter)
        self.cost_model = (
            cost_model
            if cost_model is not None
            else KernelCostModel(device, cache_config=cache_config)
        )
        self._backend = None if backend is None else get_backend(backend)
        # (config, registry generation, backend) of the last lazy lookup,
        # replaced as one tuple so concurrent readers never see a mix.
        self._resolved: tuple = (None, -1, None)

    @property
    def backend(self) -> KernelBackend:
        """The kernel backend this context dispatches to.

        Pinned if one was passed to the constructor, otherwise looked up
        from the active library config, again only when the config object
        (immutable, so replaced by every ``set_config``) or the backend
        registry has changed since the last lookup.
        """
        if self._backend is not None:
            return self._backend
        cfg = get_config()
        config, generation, backend = self._resolved
        if config is not cfg or generation != _registry._generation:
            generation = _registry._generation
            backend = get_backend(cfg.backend)
            self._resolved = (cfg, generation, backend)
        return backend

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ExecutionContext device={self.device.name!r} "
            f"backend={self.backend.name!r} meter={self.meter}>"
        )


#: Process-global default context, shared by every thread without an override.
_GLOBAL_CONTEXT: Optional[ExecutionContext] = None


class _Override(threading.local):
    #: Per-thread override slot; the class default spares every lookup on
    #: a thread without an override the cost of a failed attribute probe.
    context: Optional[ExecutionContext] = None


_TLS = _Override()


def get_context() -> ExecutionContext:
    """Return the active execution context.

    The calling thread's scoped override (installed by :func:`use_context`,
    :func:`use_device` or :func:`use_backend`) wins; otherwise the
    process-global context is returned, created lazily from the config.
    """
    override = _TLS.context
    if override is not None:
        return override
    global _GLOBAL_CONTEXT
    if _GLOBAL_CONTEXT is None:
        _GLOBAL_CONTEXT = ExecutionContext()
    return _GLOBAL_CONTEXT


def set_context(context: Optional[ExecutionContext] = None, **kwargs) -> ExecutionContext:
    """Install a new *process-global* execution context.

    Either pass a context or keyword arguments to build one.  Threads that
    are inside a scoped override (:func:`use_context` and friends) keep
    their override until it unwinds.
    """
    global _GLOBAL_CONTEXT
    _GLOBAL_CONTEXT = context if context is not None else ExecutionContext(**kwargs)
    return _GLOBAL_CONTEXT


@contextmanager
def use_context(context: ExecutionContext) -> Iterator[ExecutionContext]:
    """Install ``context`` as this thread's scoped override.

    The building block of the scoped switches (and of
    :class:`repro.serve.OperatorSession`, whose dispatcher pins the
    session's context for the duration of each batch without touching what
    other threads see).  Nests; restores the previous override on exit.
    """
    previous = _TLS.context
    _TLS.context = context
    try:
        yield context
    finally:
        _TLS.context = previous


@contextmanager
def use_device(
    device: Union[str, DeviceSpec],
    *,
    meter: Optional[bool] = None,
    cache_config: Optional[CacheConfig] = None,
) -> Iterator[ExecutionContext]:
    """Temporarily switch the modelled device (thread-scoped context manager).

    The kernel backend of the enclosing context is preserved, including
    its pinned-vs-config-lazy state.
    """
    enclosing = _TLS.context or _GLOBAL_CONTEXT
    context = ExecutionContext(
        device,
        meter=meter,
        cache_config=cache_config,
        backend=enclosing._backend if enclosing is not None else None,
    )
    with use_context(context):
        yield context


@contextmanager
def use_backend(
    backend: Union[str, KernelBackend],
) -> Iterator[ExecutionContext]:
    """Temporarily switch the kernel backend (thread-scoped context manager).

    Device, metering flag and cost model of the enclosing context are kept;
    only the dispatch target changes.  Only the calling thread is affected,
    and nested switches unwind in LIFO order.
    """
    previous = get_context()
    context = ExecutionContext(
        previous.device,
        meter=previous.meter,
        backend=backend,
        cost_model=previous.cost_model,
    )
    with use_context(context):
        yield context
