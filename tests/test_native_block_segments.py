"""The compiled block CGS2 projection split into row segments over the pool.

``bcgs2_project`` (``native/dense.c``) runs both passes of block CGS2,
``H1 = V^T W; W -= V H1; H2 = V^T W; W -= V H2``, in three sweeps over
``pool.c``'s row segments.  Pinned here:

* the bits of a NumPy model of its documented order (lane sums over each
  segment, added in segment order), including a basis too wide for more
  than two segments' accumulators;
* agreement with the four GEMMs to rounding;
* the same bits with one CPU and with two (subprocesses that set their
  own CPU affinity before the pool starts) for ``k`` in {1, 2, 3, 8},
  basis widths from 1 to ``(restart + 1) k`` and 1, 2 and 3 segments
  minus and plus a partial tile;
* NaN and inf reach ``H`` and ``W`` from every segment;
* operands it may not take run the four GEMMs;
* a child made by ``os.fork()`` after the pool started gets the same bits;
* four threads sharing the pool get the bits of serial calls;
* block orthogonalization, which runs the inter-block passes as one
  ``bcgs2_project`` and each column's intra-block passes as one
  ``cgs2_project``, books the same ``calls_by_label()`` and modelled
  seconds as the GEMM and GEMV sequence.

Run as a script (``python tests/test_native_block_segments.py [CPU]``),
the module prints the digests of every case as JSON, pinned to ``CPU``
first when one is given; the affinity test runs it so.
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

from repro.backends import native
from repro.backends.base import KernelBackend
from repro.backends.numpy_backend import NumpyBackend
from repro.config import rng
from repro.linalg import kernels
from repro.linalg.multivector import MultiVector
from repro.ortho import BlockClassicalGramSchmidt2
from repro.perfmodel.timer import KernelTimer, use_timer

NUMPY = NumpyBackend()
FLOATS = [np.float32, np.float64]
FLOAT_IDS = ["fp32", "fp64"]


def _define(source: str, name: str) -> int:
    """The value of ``#define name N`` or ``#define name (N * M)`` in a source."""
    text = importlib.resources.files(native).joinpath(source).read_text()
    match = re.search(rf"#define {name} \(?(\d+)(?: \* (\d+))?\)?", text)
    return int(match.group(1)) * int(match.group(2) or 1)


#: Rows per segment, rows per tile and the budget of the per-segment
#: accumulators past two segments, read from the sources.
SEGMENT = _define("pool.c", "POOL_SEGMENT")
TILE = _define("dense.c", "BCGS2_TILE")
PARTIALS_BYTES = _define("dense.c", "BCGS2_PARTIALS_BYTES")
#: Rows past a whole number of tiles: a partial tile.
PART = TILE // 2 + 3
#: Lengths at 1, 2 and 3 segments, minus and plus a partial tile.
LENGTHS = [s * SEGMENT + d for s in (1, 2, 3) for d in (-PART, 0, PART)]
#: The block widths and, per width, basis widths from 1 to (15 + 1) k.
RESTART = 15
WIDTHS = {k: sorted({1, 2, 3, 5, k, 4 * k + 1, (RESTART + 1) * k}) for k in (1, 2, 3, 8)}


def bits(a) -> np.ndarray:
    a = np.ascontiguousarray(a)
    return a.view(np.dtype(f"u{a.dtype.itemsize}"))


def digest(arrays) -> str:
    sha = hashlib.sha256()
    for a in arrays:
        sha.update(bits(a).tobytes())
    return sha.hexdigest()


# ---------------------------------------------------------------------- #
# bcgs2_project                                                          #
# ---------------------------------------------------------------------- #
def basis(n: int, j: int, k: int, dtype):
    """An ``(n, j)`` Fortran basis of norm-1 columns and an ``(n, k)`` block."""
    gen = rng(n + 7 * j + k)
    V = np.asfortranarray(gen.standard_normal((n, j)) / np.sqrt(n), dtype=dtype)
    return V, np.asfortranarray(gen.standard_normal((n, k)), dtype=dtype)


def project(V, W):
    """The compiled kernel on a copy of ``W``: ``(W, H1, H2)``."""
    (j, k), W = (V.shape[1], W.shape[1]), W.copy(order="F")
    H1, H2 = np.empty((j, k), V.dtype), np.empty((j, k), V.dtype)
    assert NUMPY.bcgs2_project(V, W, H1, H2) == (H1, H2)
    return W, H1, H2


def segments(n: int, j: int, k: int):
    """``bcgs2_project``'s segments of ``n`` rows: ``(start, end)`` pairs."""
    count = min(n // SEGMENT, max(2, PARTIALS_BYTES // (64 * j * k)))
    if count < 2:
        return [(0, n)]
    length = n // count // TILE * TILE
    starts = [s * length for s in range(count)]
    return list(zip(starts, starts[1:] + [n]))


def lane_dots(V, w, bounds):
    """``V^T w`` in the kernel's order: row ``i`` in lane ``i mod L`` (64
    bytes of lanes), each lane summing its rows in row order from +0 over
    each segment, the segments' lanes added in segment order, then the
    lanes of each column summed as a tree."""
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


def modelled(V, W):
    """``(W, H1, H2)`` of the kernel's documented order, in NumPy."""
    bounds = segments(V.shape[0], V.shape[1], W.shape[1])
    W = W.copy()
    Hs = []
    for _ in range(2):
        H = np.stack([lane_dots(V, W[:, q], bounds) for q in range(W.shape[1])], axis=1)
        for q in range(W.shape[1]):
            t = V[:, 0] * H[0, q]
            for c in range(1, V.shape[1]):
                t = t + V[:, c] * H[c, q]
            W[:, q] = W[:, q] - t
        Hs.append(H)
    return (W, *Hs)


def bcgs2_cases(dtype):
    """``(name, V, W)`` of every affinity case: one basis per length, its
    leading columns for each width."""
    name = np.dtype(dtype).name.replace("float", "fp")
    for n in LENGTHS:
        V, W = basis(n, max(max(w) for w in WIDTHS.values()), 8, dtype)
        for k, widths in WIDTHS.items():
            for j in widths:
                yield f"bcgs2-{name}-{n}-{k}-{j}", V[:, :j], W[:, :k]


def all_digests() -> dict:
    """Digests of every bcgs2_project case, by name."""
    return {name: digest(project(V, W)) for dtype in FLOATS for name, V, W in bcgs2_cases(dtype)}


@pytest.fixture(autouse=True)
def compiled():
    if native.kernel("bcgs2_project", np.dtype(np.float64)) is None:
        pytest.skip("no C compiler: the compiled kernels are unavailable")


def test_the_cases_span_one_to_three_segments():
    assert [len(segments(n, 40, 8)) for n in LENGTHS] == [1, 1, 1, 1, 2, 2, 2, 3, 3]
    # Wider bases take fewer segments, so their accumulators fit the budget.
    assert [len(segments(n, 128, 8)) for n in LENGTHS] == [1, 1, 1, 1, 2, 2, 2, 2, 2]


class TestBcgs2:
    @pytest.mark.parametrize("k", [1, 3, 8])
    @pytest.mark.parametrize("dtype", FLOATS, ids=FLOAT_IDS)
    def test_bits_of_the_documented_order(self, dtype, k):
        for n in LENGTHS:
            for j in (1, 5, 3 * k + 1):
                V, W = basis(n, j, k, dtype)
                for got, want in zip(project(V, W), modelled(V, W)):
                    np.testing.assert_array_equal(bits(got), bits(want), err_msg=f"{n} {j}")

    @pytest.mark.parametrize("dtype", FLOATS, ids=FLOAT_IDS)
    def test_agrees_with_the_four_gemms_to_rounding(self, dtype):
        """On an orthonormal basis, where the projected block is small."""
        tol = 50 * np.finfo(dtype).eps
        for n in LENGTHS:
            V, W = basis(n, max(max(w) for w in WIDTHS.values()), 8, np.float64)
            Q = np.asfortranarray(np.linalg.qr(V)[0], dtype=dtype)
            W = W.astype(dtype, order="F")
            for k, widths in WIDTHS.items():
                for j in widths:
                    got = project(Q[:, :j], W[:, :k])
                    W_ref = W[:, :k].copy(order="F")
                    H_ref = KernelBackend.bcgs2_project(NUMPY, Q[:, :j], W_ref)
                    for g, r in zip(got, (W_ref, *H_ref)):
                        np.testing.assert_allclose(g, r, rtol=0, atol=tol, err_msg=f"{n} {k} {j}")

    def test_a_basis_past_the_budget_keeps_two_segments(self):
        """64 j k bytes per segment past the budget: same order."""
        n, k = 2 * SEGMENT + PART, 8
        j = PARTIALS_BYTES // (64 * k) + 3
        V, W = basis(n, j, k, np.float64)
        assert len(segments(n, j, k)) == 2
        got, want = project(V, W), modelled(V, W)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(bits(g), bits(w))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("dtype", FLOATS, ids=FLOAT_IDS)
    def test_non_finite_reaches_h_and_w_from_every_segment(self, dtype, value):
        n, j, k = 3 * SEGMENT + PART, 6, 3
        V, W = basis(n, j, k, dtype)
        for r0, r1 in segments(n, j, k):
            row = (r0 + r1) // 2
            for poisoned in ("W", "V"):
                Vp, Wp = V.copy(order="F"), W.copy(order="F")
                if poisoned == "W":
                    Wp[row, 1] = value
                else:
                    Vp[row, 2] = value
                W_out, H1, H2 = project(Vp, Wp)
                assert not np.isfinite(H1).all(), (row, poisoned)
                assert not np.isfinite(H2).all(), (row, poisoned)
                assert not np.isfinite(W_out).all(), (row, poisoned)

    def test_operands_it_may_not_take_run_the_gemms(self):
        """fp16, a C-ordered block, a block that overlaps the basis and a
        read-only basis run the backend default's four GEMMs."""
        n, j, k = 2 * SEGMENT, 5, 3
        V, W = basis(n, j, k, np.float64)

        def overlapping():
            whole = np.asfortranarray(np.concatenate([V, W], axis=1))
            return whole[:, : j + 1], whole[:, j:]

        def read_only():
            frozen = V.copy(order="F")
            frozen.flags.writeable = False
            return frozen, W.copy(order="F")

        cases = [
            lambda: (V.astype(np.float16, order="F"), W.astype(np.float16, order="F")),
            lambda: (V, np.ascontiguousarray(W)),
            overlapping,
            read_only,
        ]
        for case in cases:
            Vc, got = case()
            H = NUMPY.bcgs2_project(Vc, got)
            Vr, want = case()
            ref = KernelBackend.bcgs2_project(NUMPY, Vr, want)
            for g, r in zip((got, *H), (want, *ref)):
                np.testing.assert_array_equal(bits(g), bits(r))


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
    cases = sum(len(widths) for widths in WIDTHS.values())
    assert len(pinned) == len(LENGTHS) * cases * len(FLOATS)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_gets_the_same_bits_and_does_not_hang():
    V, W = basis(3 * SEGMENT + PART, 40, 8, np.float64)
    want = digest(project(V, W))  # the pool is running
    read, write = os.pipe()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads
        pid = os.fork()
    if pid == 0:  # the child: report three calls' digests, then leave
        try:
            got = [digest(project(V, W)) for _ in range(3)]
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
    cases = [basis(2 * SEGMENT + PART, 40, 8, np.float64), basis(3 * SEGMENT, 25, 3, np.float32)]

    def run():
        return [digest(project(V, W)) for V, W in cases]

    want = run()
    mismatches = []

    def worker():
        for _ in range(10):
            got = run()
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


@pytest.mark.parametrize("k", [1, 3, 8])
def test_block_orthogonalization_books_the_gemm_and_gemv_sequence(k):
    """One block step after two stored blocks: two GEMM (Trans), two GEMM
    (No Trans), and per column i > 0 two GEMV (Trans) and two GEMV (No
    Trans) against its i predecessors, then its norm and scaling; the same
    calls and modelled seconds as the separate kernels."""
    n = 2 * SEGMENT
    gen = rng(k)
    Q = np.linalg.qr(gen.standard_normal((n, 2 * k)))[0]
    W0 = gen.standard_normal((n, k))

    def fill():
        mv = MultiVector(n, 3 * k, "double")
        mv.column_block(0, 2 * k)[:] = Q
        mv.set_count(2 * k)
        mv.column_block(2 * k, k)[:] = W0
        return mv

    fused = KernelTimer()
    with use_timer(fused):
        BlockClassicalGramSchmidt2().orthogonalize_block(fill(), 2 * k, k)

    separate = KernelTimer()
    with use_timer(separate):
        mv = fill()
        W = mv.column_block(2 * k, k)
        for _ in range(2):
            H = mv.project(W, j=2 * k)
            mv.subtract_projection(W, H, j=2 * k, work=np.empty((n, k), order="F"))
        for i in range(k):
            w = W[:, i]
            for _ in range(2 if i else 0):
                h = kernels.gemv_transpose(W[:, :i], w)
                kernels.gemv_notrans(W[:, :i], h, w)
            kernels.scal(1.0 / kernels.norm2(w), w)

    assert fused.calls_by_label() == separate.calls_by_label()
    assert fused.calls_by_label()["GEMM (Trans)"] == 2
    assert fused.calls_by_label().get("GEMV (Trans)", 0) == 2 * (k - 1)
    modelled_fused, modelled_separate = (
        t.model_seconds_by_label() for t in (fused, separate)
    )
    assert modelled_fused.keys() == modelled_separate.keys()
    for label, seconds in modelled_separate.items():
        assert modelled_fused[label] == pytest.approx(seconds, rel=1e-12), label


if __name__ == "__main__":
    if len(sys.argv) > 1:
        os.sched_setaffinity(0, {int(sys.argv[1])})
    threads = len(os.listdir("/proc/self/task"))
    result = all_digests()
    result["helpers"] = len(os.listdir("/proc/self/task")) - threads
    print(json.dumps(result))
