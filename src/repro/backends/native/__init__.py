"""Compiled kernels (C through ctypes) for the NumPy backend and the block solvers.

Two C files ship with the package: ``dia.c`` (the DIA SpMV/SpMM and
``poly_chain``, a GMRES-polynomial preconditioner's whole factor chain
of DIA products and axpys) and ``dense.c`` (the backend's axpy, the
Givens sweep of one block step of the band-Hessenberg QR, and both
projection passes of CGS2).  Each kernel but the last has a Python
version that gives the same bits: the NumPy DIA sweep, the recurrence
of ``KernelBackend.poly_chain``, the two-ufunc axpy and the Python loop
of ``GivensWorkspace._band_qr_step``.  Those run when no kernel loaded,
for fp16, and as the specification the tests compare against.

``cgs2_project`` is the exception.  Its Python version is the GEMV
sequence of ``KernelBackend.cgs2_project``, whose sums BLAS orders as it
likes; the kernel sums over fixed 64-byte lanes, so the two agree to
rounding, not bit for bit.  The kernel is deterministic: the order of
every sum depends only on the basis shape, so it gives the same bits on
every call, at any address and in any thread.

Both files are compiled on first use, into one library, with the
system C compiler (``cc``, ``gcc`` or ``clang`` on ``PATH``) into
``$XDG_CACHE_HOME/repro`` (default ``~/.cache/repro``).  The library's
file name starts with a hash of the sources, the compiler flags, the
compiler's version line and the CPU's feature flags, so a new compiler,
CPU or kernel gets its own build, and ends with a hash of the library's
own bytes.  A build is written to a temporary file and moved into place
with ``os.replace``, so another process never sees a partial library; a
cached file whose bytes do not match its name (truncated, say) is
deleted and rebuilt before anything loads it — the dynamic loader can
crash the process on a truncated library.  When the cache directory is
not writable the library is built in a per-process temporary directory
instead.

With no compiler, or a failed build, :func:`kernel` returns ``None``
and the callers keep their Python versions; one
``native_kernels_unavailable`` event goes to the ``repro.backends.native``
logger and nothing is printed.

The DIA products, the polynomial chain and the CGS2 projection are
called through :class:`ctypes.CDLL`, which releases the GIL for the
duration of the call, so threads run them in parallel.  axpy and the Givens step are
called through :class:`ctypes.PyDLL` and keep the GIL (see
``_SIGNATURES``).
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import importlib.resources
import logging
import os
import platform
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Optional

import numpy as np

from ...obs.log import get_logger, log_event

__all__ = ["KERNEL_DTYPES", "DiaMatrix", "PolyPlan", "address", "cache_dir", "kernel"]

#: ``-ffp-contract=off`` keeps each product rounded before its sum (no
#: FMA contraction), which the bit-identity with the Python versions needs.
FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-shared", "-fPIC")
LIBS = ("-lm",)
SOURCES = ("dia.c", "dense.c")
_SUFFIXES = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}
#: Value dtypes with compiled kernels.
KERNEL_DTYPES = frozenset(_SUFFIXES)
_i64, _ptr = ctypes.c_int64, ctypes.c_void_p
#: Kernel name -> (argument types, whether the call releases the GIL).
#: Few arguments, because each one costs ctypes a conversion on every
#: call.  The products, the polynomial chain and the CGS2 projection
#: release the GIL, so threads run them in parallel; axpy and the Givens
#: step take microseconds and keep it, because with threads waiting a
#: release and re-acquire costs a thread switch, which is longer than the
#: call.
_SIGNATURES = {
    # &DiaMatrix, k, x, y, chunk
    "dia_spmm": ([_ptr, _i64, _ptr, _ptr, _i64], True),
    # &DiaMatrix, &PolyPlan, k, x, y, prod, w, t, chunk
    "poly_chain": ([_ptr, _ptr, _i64, _ptr, _ptr, _ptr, _ptr, _ptr, _i64], True),
    # n, alpha, x, y
    "axpy": ([_i64, ctypes.c_double, _ptr, _ptr], False),
    # q, k, R, ldr, G, ldg, QT, ldq
    "band_qr_step": ([_i64, _i64, _ptr, _i64, _ptr, _i64, _ptr, _i64], False),
    # n, j, V, w, h1, h2
    "cgs2_project": ([_i64, _i64, _ptr, _ptr, _ptr, _ptr], True),
}

_LOGGER = get_logger("backends.native")
_lock = threading.Lock()
#: (name, dtype) -> ctypes function once loaded; ``{}`` when unavailable.
_kernels: Optional[dict] = None


class DiaMatrix(ctypes.Structure):
    """A DIA matrix as the kernels read it (``struct dia_matrix`` in dia.c).

    Holds raw pointers: whoever keeps the descriptor keeps the
    ``offsets`` (int64) and ``values`` (``(n_diags, n_rows)``, C order)
    arrays alive with it.
    """

    _fields_ = [
        ("n_rows", ctypes.c_int64),
        ("n_cols", ctypes.c_int64),
        ("n_diags", ctypes.c_int64),
        ("offsets", ctypes.c_void_p),
        ("values", ctypes.c_void_p),
    ]


class PolyPlan(ctypes.Structure):
    """A polynomial's factor plan as ``poly_chain`` reads it (``struct
    poly_plan`` in dia.c).

    ``steps`` points at an int64 ``(n_factors, 2)`` array (each factor's
    coefficient count and products), ``coeffs`` at a float64
    ``(n_factors, 4)`` array (its coefficients, zero-padded); whoever
    keeps the descriptor keeps both alive with it.
    """

    _fields_ = [
        ("n_factors", ctypes.c_int64),
        ("power", ctypes.c_int64),
        ("steps", ctypes.c_void_p),
        ("coeffs", ctypes.c_void_p),
    ]


def address(array: np.ndarray) -> int:
    """Data pointer of a non-empty C-contiguous array.

    The buffer-protocol route, which also rejects a non-contiguous array
    (``TypeError``), takes about a third of the time of
    ``array.ctypes.data``; read-only arrays export no writable buffer and
    take the slow route.
    """
    if array.flags.writeable:
        return ctypes.addressof(ctypes.c_char.from_buffer(array))
    if not array.flags.c_contiguous:
        raise TypeError("array is not C contiguous")
    return array.ctypes.data


def kernel(name: str, dtype: np.dtype):
    """The compiled kernel ``name`` for ``dtype``, or ``None``.

    Loads (and on first use builds) the library once per process; later
    calls are a dict lookup.  Only :data:`KERNEL_DTYPES` have kernels.
    Arguments, with pointers to arrays of ``dtype``:

    * ``"dia_spmm"`` — ``Y = A X``: ``(addressof(DiaMatrix), k, x, y,
      chunk)``, ``x``/``y`` Fortran-ordered ``(n_cols, k)`` and
      ``(n_rows, k)`` blocks;
    * ``"poly_chain"`` — ``Y = p(A) X``: ``(addressof(DiaMatrix),
      addressof(PolyPlan), k, x, y, prod, w, t, chunk)``, a square ``A``,
      ``x``/``y`` Fortran-ordered ``(n, k)`` blocks (``y`` may be ``x``)
      and ``prod``/``w``/``t`` scratch blocks of that shape, ``chunk`` the
      DIA product's;
    * ``"axpy"`` — ``y += alpha * x``: ``(n, alpha, x, y)`` over ``n``
      contiguous entries;
    * ``"band_qr_step"`` — :meth:`GivensWorkspace._band_qr_step`'s
      rotations: ``(q, k, R, ldr, G, ldg, QT, ldq)``, C-ordered arrays
      with their row strides in elements;
    * ``"cgs2_project"`` — ``h1 = V^T w; w -= V h1; h2 = V^T w;
      w -= V h2``: ``(n, j, V, w, h1, h2)``, ``V`` an ``(n, j)``
      Fortran-ordered basis (``1 <= j``), ``w`` ``n`` contiguous entries,
      ``h1``/``h2`` ``j`` each.
    """
    kernels = _kernels
    if kernels is None:
        kernels = _load()
    return kernels.get((name, dtype))


def cache_dir() -> Path:
    """``$XDG_CACHE_HOME/repro``, or ``~/.cache/repro``."""
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(root) / "repro"


def _load() -> dict:
    global _kernels
    with _lock:
        if _kernels is None:
            try:
                library = _open_library()
            except (OSError, subprocess.SubprocessError) as exc:
                log_event(
                    _LOGGER,
                    "native_kernels_unavailable",
                    level=logging.WARNING,
                    reason=str(exc) or type(exc).__name__,
                )
                _kernels = {}
            else:
                # The same loaded library, called without releasing the GIL.
                holding = ctypes.PyDLL(library._name, handle=library._handle)
                _kernels = {
                    (name, dtype): _bind(
                        library if releases else holding, f"{name}_{suffix}", argtypes
                    )
                    for name, (argtypes, releases) in _SIGNATURES.items()
                    for dtype, suffix in _SUFFIXES.items()
                }
        return _kernels


def _bind(library: ctypes.CDLL, symbol: str, argtypes: list):
    fn = getattr(library, symbol)
    fn.argtypes = argtypes
    fn.restype = None
    return fn


def _find_compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _cpu_flags() -> str:
    """The CPU feature line ``-march=native`` compiles for."""
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith(("flags", "Features")):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _build_key(sources: list, compiler: str) -> str:
    version = subprocess.run(
        [compiler, "--version"], capture_output=True, text=True, timeout=60, check=True
    ).stdout.splitlines()
    parts = (*(source.read_bytes() for source in sources), " ".join(FLAGS + LIBS).encode(),
             (version or [""])[0].encode(), _cpu_flags().encode())
    return "kernels-" + _digest(b"\0".join(parts))


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _compile(compiler: str, sources: list, target: Path) -> None:
    """Build ``sources`` into the shared library ``target``."""
    subprocess.run(
        [compiler, *FLAGS, "-o", str(target), *map(str, sources), *LIBS],
        capture_output=True,
        timeout=300,
        check=True,
    )


def _open_library() -> ctypes.CDLL:
    compiler = _find_compiler()
    if compiler is None:
        raise OSError("no C compiler (cc, gcc or clang) on PATH")
    package = importlib.resources.files(__name__)
    with contextlib.ExitStack() as stack:
        sources = [
            stack.enter_context(importlib.resources.as_file(package.joinpath(name)))
            for name in SOURCES
        ]
        key = _build_key(sources, compiler)
        try:
            directory = cache_dir()
            directory.mkdir(parents=True, exist_ok=True)
            return _open_cached(compiler, sources, directory, key)
        except OSError:
            # Unwritable cache: build in a directory of this process only.
            # The loaded library stays mapped after the file is removed.
            with tempfile.TemporaryDirectory(prefix="repro-native-") as tmp:
                target = Path(tmp) / f"{key}.so"
                _compile(compiler, sources, target)
                return ctypes.CDLL(str(target))


def _open_cached(compiler: str, sources: list, directory: Path, key: str) -> ctypes.CDLL:
    """Load the verified build ``<key>-<digest>.so``, building it if needed."""
    for path in directory.glob(f"{key}-*.so"):
        if path.stem == f"{key}-{_digest(path.read_bytes())}":
            return ctypes.CDLL(str(path))
        path.unlink(missing_ok=True)  # truncated or corrupted: rebuild
    fd, partial = tempfile.mkstemp(dir=directory, prefix=key, suffix=".tmp")
    os.close(fd)
    try:
        _compile(compiler, sources, Path(partial))
        target = directory / f"{key}-{_digest(Path(partial).read_bytes())}.so"
        os.replace(partial, target)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)
    return ctypes.CDLL(str(target))
