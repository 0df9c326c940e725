"""The solver contract, checked once across every solver entry point.

Every driver — ``gmres``, ``gmres_ir``, ``gmres_fd``, the three-precision
IR, ``cg``, ``block_gmres``, ``block_gmres_ir`` and a chunked
``solve_many`` — promises the same things:

* a zero right-hand side converges to zero, and the probe sees exactly
  one event, the terminal one;
* a non-finite right-hand side ends with ``BREAKDOWN`` before any step;
* a control cancelled before the solve ends it with ``CANCELLED`` and no
  iterations;
* a right-hand side of the wrong length raises ``ValueError``, and so does
  a block driver's initial guess given transposed;
* the probe sees exactly one terminal event, last, agreeing with the
  result, and probing does not change the solution;
* the solution agrees with a dense ``np.linalg.solve`` oracle;
* an Arnoldi norm that overflows ends every column in ``BREAKDOWN`` with
  a finite solution: the overflowed step never reaches the update.

The non-finite and pre-cancelled checks run on two systems: a small dense
random nonsymmetric one (SPD for CG) and the 2D Laplacian the single-driver
control tests used.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict

import numpy as np
import pytest

from repro.matrices import laplace2d
from repro.sparse import CsrMatrix
from tests.conftest import overflowing_laplace3d
from repro.solvers import (
    MultiSolveResult,
    SolveControl,
    SolverStatus,
    block_gmres,
    block_gmres_ir,
    cg,
    gmres,
    gmres_fd,
    gmres_ir,
    gmres_ir_three_precision,
    solve_many,
)

N = 40


@dataclass(frozen=True)
class Driver:
    """One solver entry point, with the options the contract runs it at."""

    run: Callable
    oracle_tol: float  # forward-error bound ||x_true - x|| / ||x|| for the oracle check
    options: Dict[str, object] = field(default_factory=dict)
    columns: int = 0  # 0: a vector; k > 0: a block of k right-hand sides
    spd: bool = False

    def rhs(self, b: np.ndarray) -> np.ndarray:
        """The right-hand side this driver takes, built from the vector ``b``."""
        if not self.columns:
            return b
        return np.column_stack([np.roll(b, shift) for shift in range(self.columns)])

    def solve(self, A, b, **kwargs):
        return self.run(A, self.rhs(b), **{**self.options, **kwargs})


DRIVERS = {
    "gmres": Driver(gmres, 1e-8, {"restart": 20, "tol": 1e-10}),
    "gmres-fp32": Driver(
        gmres, 1e-4, {"restart": 20, "tol": 1e-5, "precision": "single"}
    ),
    "gmres_ir": Driver(gmres_ir, 1e-8, {"restart": 20, "tol": 1e-10}),
    "gmres_fd": Driver(
        gmres_fd, 1e-8, {"restart": 20, "tol": 1e-10, "switch_iteration": 10}
    ),
    "gmres_ir3": Driver(gmres_ir_three_precision, 1e-8, {"restart": 20, "tol": 1e-10}),
    "cg": Driver(cg, 1e-8, {"tol": 1e-10}, spd=True),
    "block_gmres": Driver(block_gmres, 1e-8, {"restart": 20, "tol": 1e-10}, columns=2),
    "block_gmres_ir": Driver(
        block_gmres_ir, 1e-8, {"restart": 20, "tol": 1e-10}, columns=2
    ),
    "solve_many": Driver(
        solve_many, 1e-8, {"restart": 20, "tol": 1e-10, "block_size": 2}, columns=4
    ),
}


def _dense_system(spd: bool):
    """Small well-conditioned random system (nonsymmetric, or SPD for CG)."""
    rng = np.random.default_rng(2024)
    G = rng.standard_normal((N, N)) / np.sqrt(N)
    dense = G @ G.T + np.eye(N) if spd else 4.0 * np.eye(N) + G
    rows, cols = np.nonzero(dense)
    A = CsrMatrix.from_coo(rows, cols, dense[rows, cols], (N, N))
    return dense, A, rng.standard_normal(N)


def _laplace_system(spd: bool):
    A = laplace2d(12)  # n = 144, SPD
    return None, A, np.random.default_rng(42).standard_normal(A.n_rows)


SYSTEMS = {"random": _dense_system, "laplace2d": _laplace_system}


def _columns(result):
    """``(x, status, iterations)`` of every right-hand side in a result."""
    if isinstance(result, MultiSolveResult):
        return [
            (result.X[:, c], result.statuses[c], int(result.iterations[c]))
            for c in range(result.n_rhs)
        ]
    return [(result.x, result.status, result.iterations)]


def _probed(driver: Driver, A, b, **kwargs):
    events = []
    result = driver.solve(A, b, probe=events.append, **kwargs)
    return result, events


driver_names = pytest.mark.parametrize("name", sorted(DRIVERS))
system_names = pytest.mark.parametrize("system", sorted(SYSTEMS))


@driver_names
def test_zero_rhs_converges_with_only_a_terminal_event(name):
    driver = DRIVERS[name]
    _, A, b = _dense_system(driver.spd)
    result, events = _probed(driver, A, np.zeros_like(b))
    for x, status, iterations in _columns(result):
        assert status == SolverStatus.CONVERGED
        assert iterations == 0
        assert not np.any(x)
    assert [event.kind for event in events] == ["terminal"]


@driver_names
@system_names
def test_nan_rhs_is_breakdown(name, system):
    driver = DRIVERS[name]
    _, A, b = SYSTEMS[system](driver.spd)
    poisoned = b.copy()
    poisoned[0] = np.nan
    result = driver.solve(A, poisoned)
    for _, status, iterations in _columns(result):
        assert status == SolverStatus.BREAKDOWN
        assert iterations == 0


@driver_names
@system_names
def test_precancelled_control_stops_before_any_iteration(name, system):
    driver = DRIVERS[name]
    _, A, b = SYSTEMS[system](driver.spd)
    control = SolveControl()
    control.cancel()
    result = driver.solve(A, b, control=control)
    for _, status, iterations in _columns(result):
        assert status == SolverStatus.CANCELLED
        assert iterations == 0


@driver_names
def test_wrong_length_rhs_raises(name):
    driver = DRIVERS[name]
    _, A, b = _dense_system(driver.spd)
    with pytest.raises(ValueError):
        driver.solve(A, np.append(b, 1.0))


@pytest.mark.parametrize("name", sorted(n for n, d in DRIVERS.items() if d.columns))
def test_transposed_initial_guess_raises(name):
    # A (k, n) initial guess holds as many entries as the (n, k) one it
    # should be; it must be refused, not reshaped into a scrambled start.
    driver = DRIVERS[name]
    _, A, b = _dense_system(driver.spd)
    B = driver.rhs(b)
    with pytest.raises(ValueError):
        driver.run(A, B, B.T.copy(), **driver.options)


@driver_names
def test_one_terminal_event_last_and_matching(name):
    driver = DRIVERS[name]
    _, A, b = _dense_system(driver.spd)
    result, events = _probed(driver, A, b)
    kinds = [event.kind for event in events]
    assert kinds.count("terminal") == 1
    assert kinds[-1] == "terminal"
    terminal = events[-1]
    if isinstance(result, MultiSolveResult):
        counts: Dict[str, int] = {}
        for status in result.statuses:
            counts[status.name] = counts.get(status.name, 0) + 1
        assert terminal.extra["statuses"] == counts
        assert terminal.iteration == result.block_iterations
    else:
        assert terminal.status == result.status
        assert terminal.iteration == result.iterations
    assert terminal.restarts == result.restarts
    # Boundary events never run backwards, even across composed parts.
    iterations = [event.iteration for event in events]
    assert iterations == sorted(iterations)


@driver_names
def test_probing_does_not_change_the_solution(name):
    driver = DRIVERS[name]
    _, A, b = _dense_system(driver.spd)
    plain = driver.solve(A, b)
    probed, _ = _probed(driver, A, b)
    for (x_plain, _, _), (x_probed, _, _) in zip(_columns(plain), _columns(probed)):
        assert x_plain.tobytes() == x_probed.tobytes()


@driver_names
def test_agrees_with_dense_oracle(name):
    driver = DRIVERS[name]
    dense, A, b = _dense_system(driver.spd)
    result = driver.solve(A, b)
    B = driver.rhs(b).reshape(N, -1)
    for c, (x, status, _) in enumerate(_columns(result)):
        assert status == SolverStatus.CONVERGED
        true = np.linalg.solve(dense, B[:, c])
        x = np.asarray(x, dtype=np.float64)
        assert np.linalg.norm(true - x) / np.linalg.norm(x) < driver.oracle_tol


@pytest.mark.parametrize("big", [1e200, 1e300, 1e308])
@pytest.mark.parametrize("name", sorted(n for n, d in DRIVERS.items() if not d.spd))
def test_overflowed_arnoldi_norm_is_breakdown_with_finite_solution(name, big):
    # The fp64 Arnoldi norm overflows; the fp32/fp16 matrix copies of the
    # mixed-precision drivers hold inf outright.
    driver = DRIVERS[name]
    A = overflowing_laplace3d(big)
    b = np.random.default_rng(5).standard_normal(A.n_rows)
    with np.errstate(over="ignore", invalid="ignore"):
        result = driver.solve(A, b)
    for x, status, iterations in _columns(result):
        assert status == SolverStatus.BREAKDOWN
        assert np.all(np.isfinite(x))
        if name == "block_gmres_ir":
            # The inner cycle stops at the overflowed step instead of
            # running all ``restart`` steps of a poisoned cycle.
            assert iterations < driver.options["restart"]


@pytest.mark.parametrize("name", sorted(n for n, d in DRIVERS.items() if not d.spd))
def test_orthogonalization_of_the_other_width_is_refused(name):
    # A zero right-hand side never reaches a cycle, so only a check made
    # before the solve refuses it.
    driver = DRIVERS[name]
    other = "cgs2" if driver.columns else "bcgs2"
    with pytest.raises(ValueError, match="orthogonalization does not serve"):
        driver.solve(laplace2d(12), np.zeros(144), ortho=other)


class TestComposedSolves:
    """GMRES-FD, three-precision IR and ``solve_many`` report as one solve."""

    def test_ir3_nan_rhs_breaks_down_without_spending_the_budget(self):
        A = laplace2d(12)
        b = np.ones(A.n_rows)
        b[3] = np.nan
        result = gmres_ir_three_precision(A, b, restart=10, max_restarts=20)
        assert result.status == SolverStatus.BREAKDOWN
        assert result.iterations == 0

    def test_ir3_wrong_length_rhs_message(self):
        A = laplace2d(12)
        with pytest.raises(ValueError, match="right-hand side must have length 144"):
            gmres_ir_three_precision(A, np.ones(A.n_rows - 1))

    def test_gmres_fd_budget_spans_both_phases(self):
        A = laplace2d(12)
        b = np.random.default_rng(42).standard_normal(A.n_rows)
        result = gmres_fd(
            A,
            b,
            switch_iteration=20,
            restart=10,
            tol=1e-14,
            max_iterations=25,
            max_restarts=2,
        )
        assert result.status == SolverStatus.MAX_ITERATIONS
        assert result.restarts == 2
        assert result.iterations == 20

    def test_gmres_fd_probe_continues_across_the_switch(self):
        A = laplace2d(12)
        b = np.random.default_rng(42).standard_normal(A.n_rows)
        events = []
        result = gmres_fd(
            A, b, switch_iteration=20, restart=10, tol=1e-10, probe=events.append
        )
        restarts = [event.restarts for event in events[:-1]]
        # Each phase opens with a boundary at its own restart 0; shifted,
        # the high-precision phase's first boundary repeats the last one
        # of the low-precision phase and the count then keeps rising.
        assert restarts == sorted(restarts)
        assert restarts[-1] == result.restarts
        assert events[-1].solver == "gmres-fd"

    def test_solve_many_chunks_emit_one_merged_terminal_event(self):
        A = laplace2d(12)
        B = np.random.default_rng(7).standard_normal((A.n_rows, 4))
        events = []
        result = solve_many(
            A, B, block_size=2, restart=10, tol=1e-10, probe=events.append
        )
        terminals = [event for event in events if event.kind == "terminal"]
        assert len(terminals) == 1 and events[-1] is terminals[0]
        assert terminals[0].extra["statuses"] == {"CONVERGED": 4}
        assert terminals[0].iteration == result.block_iterations
        assert terminals[0].restarts == result.restarts
        iterations = [event.iteration for event in events]
        assert iterations == sorted(iterations)
        assert max(event.restarts for event in events[:-1]) == result.restarts
