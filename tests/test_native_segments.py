"""Kernels split into row segments over the helper pool (``native/pool.c``).

``cgs2_project`` (``dense.c``) and ``dia_spmm`` (``dia.c``) split an
operand of at least two segments (``POOL_SEGMENT`` rows) into segments
that the calling thread and the pool's helper threads sweep in parallel.
Pinned here:

* ``cgs2_project`` gives the same bits with one CPU and with two
  (subprocesses that set their own CPU affinity before the pool starts),
  at 1, 2 and 3 segments, each with and without a partial tile, and the
  bits of a NumPy model of its documented order: lane sums over each
  segment, added in segment order;
* below two segments, the bits of the kernel before the split
  (digests recorded from it);
* the split DIA SpMV/SpMM gives the bits of the serial NumPy sweep;
* NaN and inf reach ``h`` and ``w`` from every segment;
* a child made by ``os.fork()`` after the pool started gets the same
  bits and does not hang;
* four threads calling at once, sharing the pool, get the bits of serial
  calls.

Run as a script (``python tests/test_native_segments.py [CPU]``), the
module prints the digests of every case as JSON, pinned to ``CPU`` first
when one is given; the affinity test runs it so.
"""

from __future__ import annotations

import hashlib
import importlib.resources
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro.backends import native
from repro.backends.numpy_backend import NumpyBackend
from repro.config import rng
from repro.sparse import CsrMatrix

NUMPY = NumpyBackend()
FLOATS = [np.float32, np.float64]
FLOAT_IDS = ["fp32", "fp64"]


def _define(source: str, name: str) -> int:
    """The value of ``#define name N`` or ``#define name (N * M)`` in a source."""
    text = importlib.resources.files(native).joinpath(source).read_text()
    match = re.search(rf"#define {name} \(?(\d+)(?: \* (\d+))?\)?", text)
    return int(match.group(1)) * int(match.group(2) or 1)


#: Rows per segment, rows per tile and the stack budget of the per-segment
#: accumulators, read from the sources.
SEGMENT = _define("pool.c", "POOL_SEGMENT")
TILE = _define("dense.c", "CGS2_TILE")
PARTIALS_BYTES = _define("dense.c", "CGS2_PARTIALS_BYTES")
#: Rows past a whole number of tiles: a partial tile.
PART = TILE // 2 + 3
#: Basis lengths at 1, 2 and 3 segments, minus and plus a partial tile.
LENGTHS = [s * SEGMENT + d for s in (1, 2, 3) for d in (-PART, 0, PART)]
WIDTHS = [1, 4, 50]
#: sha256 of the (w, h1, h2) bytes of every case below two segments, as
#: the kernel gave them before it split rows (fp32 cases, then fp64).
BEFORE_SPLIT = {
    "fp32": "348a40eb0b7d56d3865f7f5361168dc8f35d3dfeb4d054f95f1820a04c41c421",
    "fp64": "5fdb371a7ab4fdda2a0056624da795eace2ff6a711c0647a0e22c0d150be26fc",
}


def bits(a) -> np.ndarray:
    a = np.ascontiguousarray(a)
    return a.view(np.dtype(f"u{a.dtype.itemsize}"))


def problem(n: int, j: int, dtype):
    """An ``(n, j)`` Fortran basis of norm-1 columns and a vector ``w``."""
    gen = rng(n + j)
    V = np.asfortranarray(gen.standard_normal((n, j)) / np.sqrt(n), dtype=dtype)
    return V, gen.standard_normal(n).astype(dtype)


def project(V, w):
    """The compiled kernel on a copy of ``w``: ``(w, h1, h2)``."""
    j = V.shape[1]
    w = w.copy()
    h1, h2 = np.empty(j, V.dtype), np.empty(j, V.dtype)
    assert NUMPY.cgs2_project(V, w, h1, h2) == (h1, h2)
    return w, h1, h2


def digest(arrays) -> str:
    sha = hashlib.sha256()
    for a in arrays:
        sha.update(bits(a).tobytes())
    return sha.hexdigest()


def segments(n: int, j: int):
    """``cgs2_project``'s segments of ``n`` rows: ``(start, end)`` pairs."""
    count = min(n // SEGMENT, max(2, PARTIALS_BYTES // (64 * j)))
    if count < 2:
        return [(0, n)]
    length = n // count // TILE * TILE
    starts = [s * length for s in range(count)]
    return list(zip(starts, starts[1:] + [n]))


def lane_dots(V, w, bounds):
    """``V^T w`` in the kernel's order: row ``i`` in lane ``i mod L`` (64
    bytes of lanes), each lane summing its rows in row order from +0 over
    each segment, the segments' lanes added in segment order, then the
    lanes of each column summed as a tree (lane ``l + L/2`` into ``l``,
    then ``l + L/4``, ...)."""
    dtype, (n, j) = V.dtype, V.shape
    lanes = 64 // dtype.itemsize
    products = V * w[:, None]
    total = None
    for r0, r1 in bounds:
        part = products[r0:r1]
        pad = np.zeros((-len(part) % lanes, j), dtype)  # +0 changes no lane sum
        rows = np.concatenate([part, pad]).reshape(-1, lanes, j)
        rows = np.concatenate([np.zeros((1, lanes, j), dtype), rows])
        acc = np.add.accumulate(rows, axis=0)[-1]  # sequential, from +0
        total = acc if total is None else total + acc
    width = lanes // 2
    while width:
        total[:width] = total[:width] + total[width : 2 * width]
        width //= 2
    return total[0]


def subtract(V, h, w):
    """``w -= V h``, each row's product summed in column order first."""
    t = V[:, 0] * h[0]
    for c in range(1, V.shape[1]):
        t = t + V[:, c] * h[c]
    return w - t


def modelled(V, w):
    """``(w, h1, h2)`` of the kernel's documented order, in NumPy."""
    bounds = segments(*V.shape)
    h1 = lane_dots(V, w, bounds)
    w = subtract(V, h1, w)
    h2 = lane_dots(V, w, bounds)
    return subtract(V, h2, w), h1, h2


def banded(shape, offsets, dtype, seed=0) -> CsrMatrix:
    values = rng(seed).standard_normal((len(offsets), max(shape)))
    return CsrMatrix.from_scipy(
        sp.diags(list(values), list(offsets), shape=shape, format="csr")
    ).astype(np.dtype(dtype).name)


#: DIA operators of 2 to 4 segments of rows: a 7-point stencil, far
#: diagonals (each row chunk has its own first diagonal) and rectangles.
OPERATORS = {
    "7-point": ((4 * SEGMENT, 4 * SEGMENT), (-1024, -32, -1, 0, 1, 32, 1024)),
    "far": ((3 * SEGMENT + PART, 3 * SEGMENT + PART), (-9000, -1, 0, 1, 9000)),
    "wide": ((2 * SEGMENT + 5, 3 * SEGMENT), (-3, 0, 2, 5, 700)),
    "tall": ((3 * SEGMENT, 2 * SEGMENT + 5), (-900, -3, 0, 2)),
}


def product(A, X):
    return NUMPY.spmm(A, X).copy() if X.ndim == 2 else NUMPY.spmv(A, X).copy()


def dia_operand(A, k, dtype, seed):
    X = np.asfortranarray(rng(seed).uniform(-1, 1, (A.n_cols, k)).astype(dtype))
    X[[0, A.n_cols // 2, A.n_cols - 1], 0] = [-0.0, np.inf, np.nan]
    return X[:, 0].copy() if k == 1 else X


def all_digests() -> dict:
    """Digests of every cgs2 case and of the DIA products, by name."""
    out = {}
    for dtype, name in zip(FLOATS, FLOAT_IDS):
        for n in LENGTHS:
            for j in WIDTHS:
                out[f"cgs2-{name}-{n}-{j}"] = digest(project(*problem(n, j, dtype)))
        for key, (shape, offsets) in OPERATORS.items():
            A = banded(shape, offsets, dtype)
            for k in (1, 3):
                out[f"dia-{name}-{key}-{k}"] = digest([product(A, dia_operand(A, k, dtype, k))])
    return out


@pytest.fixture(autouse=True)
def compiled():
    if native.kernel("cgs2_project", np.dtype(np.float64)) is None:
        pytest.skip("no C compiler: the compiled kernels are unavailable")


def test_the_cases_span_one_to_three_segments():
    assert [len(segments(n, 50)) for n in LENGTHS] == [1, 1, 1, 1, 2, 2, 2, 3, 3]


class TestOrder:
    @pytest.mark.parametrize("j", WIDTHS)
    @pytest.mark.parametrize("n", LENGTHS)
    @pytest.mark.parametrize("dtype", FLOATS, ids=FLOAT_IDS)
    def test_bits_of_the_documented_order(self, dtype, n, j):
        V, w = problem(n, j, dtype)
        for got, want in zip(project(V, w), modelled(V, w)):
            np.testing.assert_array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("dtype", FLOATS, ids=FLOAT_IDS)
    def test_below_two_segments_the_bits_are_those_before_the_split(self, dtype):
        name = np.dtype(dtype).name.replace("float", "fp")
        runs = [
            project(*problem(n, j, dtype))
            for n in LENGTHS
            if len(segments(n, 1)) == 1
            for j in WIDTHS
        ]
        assert digest(a for run in runs for a in run) == BEFORE_SPLIT[name]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_one_cpu_and_two_give_the_same_bits():
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        pytest.skip("needs two CPUs")
    src = Path(native.__file__).parents[3]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))

    def child(*args):
        done = subprocess.run(
            [sys.executable, __file__, *args], capture_output=True, text=True, env=env,
            timeout=600, check=True,
        )
        return json.loads(done.stdout)

    pinned, free = child(str(cpus[0])), child()
    assert pinned.pop("helpers") == 0 and free.pop("helpers") >= 1
    assert pinned == free
    assert len(pinned) == len(LENGTHS) * len(WIDTHS) * 2 + len(OPERATORS) * 4


@pytest.mark.parametrize("signed_zeros", [False, True], ids=["uniform", "negative-zeros"])
@pytest.mark.parametrize("k", [1, 3, 8])
@pytest.mark.parametrize("key", sorted(OPERATORS))
@pytest.mark.parametrize("dtype", FLOATS, ids=FLOAT_IDS)
def test_split_dia_products_match_the_serial_sweep(monkeypatch, dtype, key, k, signed_zeros):
    """An all ``-0.0`` operand tells a row the serial sweep zero-fills and
    then adds to (``+0``) from one whose first covering diagonal writes it
    (``-0``): each segment must take its whole chunk's first diagonal."""
    shape, offsets = OPERATORS[key]
    A = banded(shape, offsets, dtype, seed=k)
    X = dia_operand(A, k, dtype, seed=k)
    if signed_zeros:
        X[...] = -0.0
    fast = product(A, X)
    with monkeypatch.context() as m:
        m.setattr(native, "_kernels", {})
        slow = product(A, X)
    np.testing.assert_array_equal(bits(fast), bits(slow))


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("dtype", FLOATS, ids=FLOAT_IDS)
def test_non_finite_reaches_h_and_w_from_every_segment(dtype, value):
    n, j = 3 * SEGMENT + PART, 6
    V, w = problem(n, j, dtype)
    for r0, r1 in segments(n, j):
        row = (r0 + r1) // 2
        for poisoned in ("w", "V"):
            Vp, wp = V.copy(order="F"), w.copy()
            if poisoned == "w":
                wp[row] = value
            else:
                Vp[row, 2] = value
            w_out, h1, h2 = project(Vp, wp)
            assert not np.isfinite(h1).all(), (row, poisoned)
            assert not np.isfinite(h2).all(), (row, poisoned)
            assert not np.isfinite(w_out).all(), (row, poisoned)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_gets_the_same_bits_and_does_not_hang():
    V, w = problem(3 * SEGMENT + PART, 50, np.float64)
    A = banded(*OPERATORS["7-point"], np.float64)
    x = dia_operand(A, 1, np.float64, seed=1)
    want = digest([*project(V, w), product(A, x)])  # the pool is running
    read, write = os.pipe()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads
        pid = os.fork()
    if pid == 0:  # the child: report three calls' digests, then leave
        try:
            got = [digest([*project(V, w), product(A, x)]) for _ in range(3)]
            os.write(write, json.dumps(got).encode())
        finally:
            os._exit(0)
    os.close(write)
    deadline = time.monotonic() + 120
    while os.waitpid(pid, os.WNOHANG) == (0, 0):
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung")
        time.sleep(0.01)
    with os.fdopen(read, "rb") as pipe:
        assert json.loads(pipe.read()) == [want] * 3


def test_threads_sharing_the_pool_get_the_bits_of_serial_calls():
    cases = [problem(2 * SEGMENT + PART, 40, np.float64), problem(3 * SEGMENT, 25, np.float32)]
    A = banded(*OPERATORS["far"], np.float64)
    X = dia_operand(A, 3, np.float64, seed=3)
    want = [digest(project(V, w)) for V, w in cases] + [digest([product(A, X)])]
    mismatches = []

    def worker():
        for _ in range(15):
            got = [digest(project(V, w)) for V, w in cases] + [digest([product(A, X)])]
            if got != want:
                mismatches.append(got)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not mismatches


if __name__ == "__main__":
    if len(sys.argv) > 1:
        os.sched_setaffinity(0, {int(sys.argv[1])})
    threads = len(os.listdir("/proc/self/task"))
    result = all_digests()
    result["helpers"] = len(os.listdir("/proc/self/task")) - threads
    print(json.dumps(result))
