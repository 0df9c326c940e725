"""Outside-in tracing of the library's layers for the traced benchmark run.

Nothing here edits the library.  :class:`Tracing` wraps the public entry
points of each layer from the outside and records one span per call:

* ``backends``: a :class:`TimingBackend` proxy installed through
  ``ExecutionContext(backend=...)`` (via ``use_backend``), the same pattern
  as ``repro.testing.faults.FaultInjectingBackend``;
* ``kernels``: the functions of ``repro.linalg.kernels`` (callers reach
  them through the module, so replacing the module attributes is enough);
* ``ortho``: ``orthogonalize`` / ``orthogonalize_block`` of the managers;
* ``precond``: ``apply`` / ``apply_block`` / construction of the GMRES
  polynomial preconditioner;
* ``solvers``: the solver entry points, wrapped by the benchmark for
  direct calls and through the serve session's references for served calls;
* ``serve``: ``run_batch`` (the dispatch core of session and farm),
  ``submit`` and the farm session factory;
* ``obs``: the Prometheus scrape.

Spans live in memory as ``(id, parent, name, tag, nbytes, thread, start,
end)`` tuples and are written out when the run ends.  A span's parent is
the innermost open span of the same thread.
"""

from __future__ import annotations

import gzip
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List

import repro.linalg.kernels as kernels_module
import repro.serve.farm as farm_module
import repro.serve.scheduler as scheduler_module
import repro.serve.session as session_module
from repro.backends.base import KernelBackend
from repro.ortho import (
    BlockClassicalGramSchmidt,
    BlockClassicalGramSchmidt2,
    ClassicalGramSchmidt,
    ClassicalGramSchmidt2,
    ModifiedGramSchmidt,
)
from repro.preconditioners.polynomial import GmresPolynomialPreconditioner

#: Backend method -> metric group of ``backends.<group>.<fp32|fp64>.{s,calls}``.
BACKEND_GROUPS = {
    "spmv": "spmv",
    "spmv_transpose": "spmv",
    "spmm": "spmm",
    "gemv_transpose": "gemv_t",
    "gemv_notrans": "gemv_n",
    "gemm_transpose": "gemm_t",
    "gemm_notrans": "gemm_n",
    "dot": "reduce",
    "norm2": "reduce",
    "axpy": "vector",
    "scal": "vector",
    "copy": "vector",
    "diag_scale": "vector",
    "block_diag_solve": "vector",
}
GROUPS = ("spmv", "spmm", "gemv_t", "gemv_n", "gemm_t", "gemm_n", "reduce", "vector")
PRECISIONS = ("fp32", "fp64")

KERNEL_FUNCTIONS = (
    "spmv",
    "spmm",
    "gemv_transpose",
    "gemv_notrans",
    "gemm_transpose",
    "gemm_notrans",
    "dot",
    "norm2",
    "axpy",
    "scal",
    "copy",
    "cast",
    "diag_scale",
    "block_diag_solve",
)

#: Solver entry points as the serve session refers to them.
SESSION_SOLVERS = ("gmres", "gmres_ir", "block_gmres", "block_gmres_ir")


def _tag(array) -> str:
    return "fp32" if array.dtype.itemsize == 4 else "fp64"


def _matrix_bytes(matrix) -> int:
    return matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes


class SpanLog:
    """Thread-aware in-memory span recorder."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args=(), kwargs=None, tag: str = "", nbytes=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``nbytes``, when given, is a callable of the result returning the
        computed bytes the call moved (evaluated outside the timed part).
        """
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            stack.pop()
        moved = nbytes(result) if nbytes is not None else 0
        self.spans.append(
            (span_id, parent, name, tag, moved, threading.get_ident(), start, end)
        )
        return result

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span named ``name``."""
        log = self

        def wrapper(*args, **kwargs):
            return log.call(name, fn, args, kwargs)

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def write(self, path: str, header: Dict[str, object]) -> None:
        """Write the header and every span, one JSON list per line, gzipped."""
        fields = ["id", "parent", "name", "tag", "bytes", "thread", "start", "end"]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(dict(header, span_fields=fields)) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class TimingBackend(KernelBackend):
    """A :class:`KernelBackend` proxy that records one span per kernel call."""

    def __init__(self, inner: KernelBackend, log: SpanLog) -> None:
        self.inner = inner
        self.log = log
        self.name = f"timed({inner.name})"

    def _span(self, method, tag, call, nbytes=None):
        return self.log.call(
            f"backends.{BACKEND_GROUPS[method]}", call, tag=tag, nbytes=nbytes
        )

    def spmv(self, matrix, x, out=None):
        return self._span(
            "spmv", _tag(x), lambda: self.inner.spmv(matrix, x, out),
            lambda y: _matrix_bytes(matrix) + x.nbytes + y.nbytes,
        )

    def spmv_transpose(self, matrix, x, out=None):
        return self._span(
            "spmv_transpose", _tag(x),
            lambda: self.inner.spmv_transpose(matrix, x, out),
            lambda y: _matrix_bytes(matrix) + x.nbytes + y.nbytes,
        )

    def spmm(self, matrix, X, out=None):
        return self._span(
            "spmm", _tag(X), lambda: self.inner.spmm(matrix, X, out),
            lambda Y: _matrix_bytes(matrix) + X.nbytes + Y.nbytes,
        )

    def gemv_transpose(self, V, w, out=None):
        return self._span(
            "gemv_transpose", _tag(w),
            lambda: self.inner.gemv_transpose(V, w, out),
            lambda h: V.nbytes + w.nbytes + h.nbytes,
        )

    def gemv_notrans(self, V, h, w, *, alpha=-1.0, work=None):
        return self._span(
            "gemv_notrans", _tag(w),
            lambda: self.inner.gemv_notrans(V, h, w, alpha=alpha, work=work),
            lambda r: V.nbytes + h.nbytes + 2 * r.nbytes,
        )

    def gemm_transpose(self, V, W, out=None):
        return self._span(
            "gemm_transpose", _tag(W), lambda: self.inner.gemm_transpose(V, W, out)
        )

    def gemm_notrans(self, V, H, W, *, alpha=-1.0, work=None):
        return self._span(
            "gemm_notrans", _tag(W),
            lambda: self.inner.gemm_notrans(V, H, W, alpha=alpha, work=work),
        )

    def dot(self, x, y):
        return self._span("dot", _tag(x), lambda: self.inner.dot(x, y))

    def norm2(self, x):
        return self._span("norm2", _tag(x), lambda: self.inner.norm2(x))

    def axpy(self, alpha, x, y, work=None):
        return self._span("axpy", _tag(y), lambda: self.inner.axpy(alpha, x, y, work))

    def scal(self, alpha, x):
        return self._span("scal", _tag(x), lambda: self.inner.scal(alpha, x))

    def copy(self, x, out=None):
        return self._span("copy", _tag(x), lambda: self.inner.copy(x, out))

    def diag_scale(self, scale, x, out=None):
        return self._span(
            "diag_scale", _tag(x), lambda: self.inner.diag_scale(scale, x, out)
        )

    def block_diag_solve(self, inv_blocks, x, out=None):
        return self._span(
            "block_diag_solve", _tag(x),
            lambda: self.inner.block_diag_solve(inv_blocks, x, out),
        )


class Tracing:
    """Installs the span wrappers for the duration of a ``with`` block."""

    def __init__(self, backend: KernelBackend) -> None:
        self.log = SpanLog()
        self.backend = TimingBackend(backend, self.log)

    @contextmanager
    def installed(self):
        log = self.log
        patches = [
            (kernels_module, name, log.wrap(f"kernels.{name}", getattr(kernels_module, name)))
            for name in KERNEL_FUNCTIONS
        ]
        for cls in (ClassicalGramSchmidt, ClassicalGramSchmidt2, ModifiedGramSchmidt):
            patches.append((cls, "orthogonalize", log.wrap("ortho.vector", cls.orthogonalize)))
        for cls in (BlockClassicalGramSchmidt, BlockClassicalGramSchmidt2):
            patches.append(
                (cls, "orthogonalize_block", log.wrap("ortho.block", cls.orthogonalize_block))
            )
        poly = GmresPolynomialPreconditioner
        patches += [
            (poly, "apply", log.wrap("precond.apply", poly.apply)),
            (poly, "apply_block", log.wrap("precond.apply", poly.apply_block)),
            (poly, "__init__", log.wrap("precond.setup", poly.__init__)),
        ]
        patches += [
            (session_module, name, log.wrap(f"solvers.{name}", getattr(session_module, name)))
            for name in SESSION_SOLVERS
        ]
        patches += [
            (module, "run_batch", log.wrap("serve.batch", module.run_batch))
            for module in (scheduler_module, farm_module)
        ]
        saved = []
        try:
            for owner, name, wrapper in patches:
                # None marks a method the class inherits: restoring it
                # means deleting the wrapper again.
                saved.append((owner, name, owner.__dict__.get(name)))
                setattr(owner, name, wrapper)
            yield self
        finally:
            for owner, name, original in reversed(saved):
                if original is None:
                    delattr(owner, name)
                else:
                    setattr(owner, name, original)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans: List[tuple], n_requests: int) -> Dict[str, float]:
    """Per-layer metrics (per request) from the spans of one traced window.

    Times named ``.s`` are busy time including the layer's own kernel
    calls; ``kernels.dispatch_s`` and ``solvers.self_s`` are self time
    (span minus child spans).  ``self_total_s`` is every span's self time
    summed, which the coverage check compares with request wall time.
    """
    duration = {}
    names = {}
    child_time = defaultdict(float)
    for span_id, parent, name, _tag_, _bytes, _thread, start, end in spans:
        duration[span_id] = end - start
        names[span_id] = name
    for span_id, parent, *_ in spans:
        if parent in duration:
            child_time[parent] += duration[span_id]

    per = 1.0 / max(1, n_requests)
    out: Dict[str, float] = {}
    for group in GROUPS:
        for prec in PRECISIONS:
            out[f"backends.{group}.{prec}.s"] = 0.0
            out[f"backends.{group}.{prec}.calls"] = 0.0
    moved = defaultdict(float)
    busy = defaultdict(float)
    totals = defaultdict(float)
    self_total = 0.0
    for span_id, parent, name, tag, nbytes, _thread, start, end in spans:
        dur = end - start
        self_time = dur - child_time[span_id]
        self_total += self_time
        layer = layer_of(name)
        # Busy time of a layer counts only its outermost spans, so a
        # layer calling into itself is not counted twice.
        outermost = layer_of(names.get(parent, "")) != layer
        if layer == "backends":
            group = name.split(".", 1)[1]
            out[f"backends.{group}.{tag}.s"] += dur * per
            out[f"backends.{group}.{tag}.calls"] += per
            family = "gemv" if group.startswith("gemv") else group
            moved[family] += nbytes
            busy[family] += dur
        elif layer == "kernels":
            totals["kernels.calls"] += 1
            if name == "kernels.cast":
                totals["kernels.cast.s"] += dur
            else:
                totals["kernels.dispatch_s"] += self_time
        elif layer == "ortho" and outermost:
            totals["ortho.s"] += dur
            totals["ortho.calls"] += 1
        elif name == "precond.apply" and outermost:
            totals["precond.apply.s"] += dur
            totals["precond.apply.calls"] += 1
        elif layer == "solvers":
            totals["solvers.self_s"] += self_time
    for key in (
        "kernels.dispatch_s", "kernels.calls", "kernels.cast.s", "ortho.s",
        "ortho.calls", "precond.apply.s", "precond.apply.calls", "solvers.self_s",
    ):
        out[key] = totals[key] * per
    for family in ("spmv", "spmm", "gemv"):
        out[f"backends.{family}.gbs"] = (
            moved[family] / busy[family] / 1e9 if busy[family] > 0 else 0.0
        )
    out["self_total_s"] = self_total
    return out
