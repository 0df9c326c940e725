"""The loader of the compiled DIA kernels (``repro.backends.native``).

Each test points ``XDG_CACHE_HOME`` at its own directory and forgets the
process's loaded library, so it sees the loader's first use; the
original library comes back when the test ends.  Pinned here:

* no compiler: products run the NumPy sweep, and the loader logs one
  ``repro`` event and prints nothing;
* an unwritable cache directory: the library is built in a per-process
  temporary directory and still loads;
* four threads using the kernels for the first time at once: one build;
* a truncated cached library: rebuilt before anything loads it (the
  dynamic loader can crash the process on one);
* the C source ships as package data, found through
  ``importlib.resources``.
"""

from __future__ import annotations

import importlib.resources
import logging
import sys
import threading

import numpy as np
import pytest

from repro.backends import native
from repro.backends.numpy_backend import NumpyBackend
from repro.config import rng
from repro.matrices import uniflow2d

NUMPY = NumpyBackend()
FP64 = np.dtype(np.float64)


@pytest.fixture
def fresh_cache(monkeypatch, tmp_path):
    """An empty cache directory and no library loaded in this process."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.setattr(native, "_kernels", None)
    return tmp_path / "xdg" / "repro"


@pytest.fixture
def builds(monkeypatch):
    """Counts the loader's compiler runs."""
    calls = []
    real = native._compile

    def counting(*args):
        calls.append(args)
        real(*args)

    monkeypatch.setattr(native, "_compile", counting)
    return calls


def need_compiler():
    if native._find_compiler() is None:
        pytest.skip("no C compiler on PATH")


def sweep_product(A, x):
    saved = native._kernels
    native._kernels = {}
    try:
        return NUMPY.spmv(A, x)
    finally:
        native._kernels = saved


def test_sources_ship_as_package_data():
    package = importlib.resources.files("repro.backends.native")
    text = {name: package.joinpath(name).read_text() for name in native.SOURCES}
    assert "struct dia_matrix" in text["dia.c"] and "DIA_NAME(dia_spmm)" in text["dia.c"]
    assert "DENSE_NAME(axpy)" in text["dense.c"]
    assert "DENSE_NAME(band_qr_step)" in text["dense.c"]
    assert "pool_run" in text["pool.c"]


def test_no_compiler_falls_back_to_sweep_with_one_log_event(
    monkeypatch, fresh_cache, caplog, capfd
):
    monkeypatch.setattr(native, "_find_compiler", lambda: None)
    A = uniflow2d(16)
    x = rng(1).standard_normal(A.n_cols)
    with caplog.at_level(logging.INFO, logger="repro"):
        y = NUMPY.spmv(A, x)
        y2 = NUMPY.spmm(A, np.asfortranarray(np.stack([x, x], axis=1)))
    assert native._kernels == {}
    assert native.kernel("dia_spmm", FP64) is None
    np.testing.assert_array_equal(y, sweep_product(A, x))
    np.testing.assert_array_equal(y2[:, 1], y)
    events = [r for r in caplog.records if r.name.startswith("repro")]
    assert len(events) == 1, [r.getMessage() for r in events]
    assert events[0].getMessage().startswith("native_kernels_unavailable")
    assert events[0].levelno == logging.WARNING
    assert capfd.readouterr() == ("", "")
    assert not fresh_cache.exists()


def test_unwritable_cache_builds_in_a_temp_dir(monkeypatch, tmp_path, builds):
    need_compiler()
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("a file where the cache directory should go")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    monkeypatch.setattr(native, "_kernels", None)
    kernel = native.kernel("dia_spmm", FP64)
    assert kernel is not None
    assert len(builds) == 1
    assert "repro-native-" in str(builds[0][2])  # built in the temp dir
    assert not builds[0][2].exists()  # which is gone again
    A = uniflow2d(16)
    x = rng(2).standard_normal(A.n_cols)
    np.testing.assert_array_equal(NUMPY.spmv(A, x), sweep_product(A, x))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["not-a-dir"]


def test_concurrent_first_use_builds_once(fresh_cache, builds):
    need_compiler()
    n_threads = 4
    barrier = threading.Barrier(n_threads)
    got, errors = [], []

    def first_use():
        try:
            barrier.wait(timeout=60)
            got.append(native.kernel("dia_spmm", FP64))
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=first_use) for _ in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(builds) == 1
    assert len(got) == n_threads and got[0] is not None
    assert all(kernel is got[0] for kernel in got)
    libraries = list(fresh_cache.iterdir())
    assert [p.suffix for p in libraries] == [".so"]  # no partial file left


def test_truncated_cached_library_is_rebuilt(monkeypatch, tmp_path, builds):
    need_compiler()
    # A complete library in one cache, then half of it under the same
    # name in a second cache (a crash mid-copy, a full disk).
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "first"))
    monkeypatch.setattr(native, "_kernels", None)
    assert native.kernel("dia_spmm", FP64) is not None
    (library,) = (tmp_path / "first" / "repro").iterdir()
    whole = library.read_bytes()
    broken = tmp_path / "second" / "repro" / library.name
    broken.parent.mkdir(parents=True)
    broken.write_bytes(whole[: len(whole) // 2])

    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "second"))
    monkeypatch.setattr(native, "_kernels", None)
    assert native.kernel("dia_spmm", FP64) is not None
    assert len(builds) == 2
    (rebuilt,) = broken.parent.iterdir()
    assert rebuilt.stem.rsplit("-", 1)[1] == native._digest(rebuilt.read_bytes())
    A = uniflow2d(16)
    x = rng(3).standard_normal(A.n_cols)
    np.testing.assert_array_equal(NUMPY.spmv(A, x), sweep_product(A, x))
