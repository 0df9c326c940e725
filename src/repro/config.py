"""Global configuration for the reproduction library.

Keeps the handful of knobs that experiments, benchmarks and tests share:
the default (modelled) device, default convergence tolerance, default
restart length and the random seed used by synthetic matrix generators.

The paper's experimental setup (Section V) is encoded here as defaults:

* relative residual tolerance ``1e-10``
* restart length ``m = 50``
* right-hand side of all ones, zero initial guess
* a single Tesla V100 (16 GB) as the execution device
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

__all__ = [
    "ReproConfig",
    "get_config",
    "set_config",
    "default_config",
    "rng",
]


def _default_backend() -> str:
    """Backend name from the ``REPRO_BACKEND`` environment variable."""
    return os.environ.get("REPRO_BACKEND", "numpy").strip().lower() or "numpy"


@dataclass(frozen=True)
class ReproConfig:
    """Immutable bundle of library-wide defaults.

    Attributes
    ----------
    rtol:
        Default relative residual convergence tolerance (paper: ``1e-10``).
    restart:
        Default GMRES restart length ``m`` (paper: 50).
    max_restarts:
        Default cap on the number of restart cycles.
    device_name:
        Name of the modelled device used by :mod:`repro.perfmodel`
        (``"v100"`` reproduces the paper's testbed).
    seed:
        Seed for synthetic matrix generators and right-hand sides that need
        randomness (the paper uses deterministic all-ones right-hand sides;
        randomness only enters through proxy matrix generation).
    meter_kernels:
        If False, kernels skip performance-model accounting entirely
        (useful for the pure-numerics tests, which run slightly faster).
    backend:
        Name of the kernel backend the execution context dispatches to
        (see :mod:`repro.backends`).  Defaults to the ``REPRO_BACKEND``
        environment variable, falling back to the NumPy reference.
    """

    rtol: float = 1e-10
    restart: int = 50
    max_restarts: int = 400
    device_name: str = "v100"
    seed: int = 20210516  # arXiv submission date of the paper
    meter_kernels: bool = True
    backend: str = field(default_factory=_default_backend)


_DEFAULT = ReproConfig()
_CURRENT: ReproConfig = _DEFAULT


def default_config() -> ReproConfig:
    """The library's built-in defaults (paper Section V settings)."""
    return _DEFAULT


def get_config() -> ReproConfig:
    """Return the currently active configuration."""
    return _CURRENT


def set_config(config: Optional[ReproConfig] = None, **overrides) -> ReproConfig:
    """Replace the active configuration.

    Either pass a full :class:`ReproConfig` or keyword overrides applied on
    top of the current one.  Returns the new active configuration.
    """
    global _CURRENT
    base = config if config is not None else _CURRENT
    _CURRENT = replace(base, **overrides) if overrides else base
    return _CURRENT


def rng(seed: Optional[int] = None) -> np.random.Generator:
    """Deterministic random generator for tests, benchmarks and generators.

    Seeded from the active configuration (:attr:`ReproConfig.seed`) unless
    an explicit seed is given — every stochastic input in the repo routes
    through here so CI runs are reproducible bit-for-bit.
    """
    cfg = get_config()
    return np.random.default_rng(cfg.seed if seed is None else int(seed))
