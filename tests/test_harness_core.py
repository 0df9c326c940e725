"""The benchmark harness's measurement core and the records of every mode.

``benchmarks/_harness.py`` times every gated mode through one core: a
client-fleet driver, an interleaved-repeats timer and a gate reporter.
These tests pin what each part promises, then run every mode at a tiny
size and pin the shape of the JSON it writes: the key set of every kind
of entry and the summary keys, which CI and
``benchmarks/check_solve_regression.py`` read.  A gate may miss at a
tiny size; its JSON is written before the gate is checked.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import threading

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "_harness.py"
_SPEC = importlib.util.spec_from_file_location("bench_harness", _PATH)
harness = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(harness)


# ---------------------------------------------------------------------- #
# client-fleet driver                                                    #
# ---------------------------------------------------------------------- #
def test_driver_names_threads_and_returns_the_wall():
    seen = []
    lock = threading.Lock()

    def work(c):
        with lock:
            seen.append((c, threading.current_thread().name))

    wall = harness.drive_clients(work, range(3), "client", tag="[t]")
    assert wall >= 0.0
    assert sorted(seen) == [(0, "client-0"), (1, "client-1"), (2, "client-2")]
    seen.clear()
    harness.drive_clients(work, ["op1", "op2"], "tenant", tag="[t]")
    assert sorted(name for _, name in seen) == ["tenant-op1", "tenant-op2"]


def test_driver_reraises_client_errors_after_every_client_ran():
    done = []

    def work(c):
        if c == 1:
            raise AssertionError("request 1 ended breakdown")
        done.append(c)

    with pytest.raises(SystemExit) as info:
        harness.drive_clients(work, range(3), "client", tag="[serve] numpy/batched")
    message = str(info.value.code)
    assert message.startswith("[serve] numpy/batched: client errors:")
    assert "request 1 ended breakdown" in message
    assert sorted(done) == [0, 2]


# ---------------------------------------------------------------------- #
# interleaved-repeats timer                                              #
# ---------------------------------------------------------------------- #
def test_timer_keeps_leg_order_and_repeat_count():
    calls = []

    def leg(name, wall):
        def run():
            calls.append(name)
            return wall, f"{name}{len(calls)}"

        return run

    runs = harness.interleave({"b": leg("b", 2.0), "a": leg("a", 1.0)}, 3)
    assert calls == ["b", "a"] * 3
    assert list(runs) == ["b", "a"]
    assert runs["b"] == [(2.0, "b1"), (2.0, "b3"), (2.0, "b5")]
    assert harness.walls(runs["a"]) == [1.0, 1.0, 1.0]
    # The best run is the fastest one, the earliest on a tie.
    assert harness.best(runs["a"]) == (1.0, "a2")
    assert harness.best([(3.0, "x"), (1.0, "y"), (2.0, "z")]) == (1.0, "y")


def test_timer_runs_at_least_once_and_times_whole_calls():
    runs = harness.interleave({"only": lambda: harness.timed(lambda: "done")}, 0)
    assert len(runs["only"]) == 1
    wall, result = harness.best_of(lambda: "done", 4)
    assert result == "done" and wall >= 0.0


# ---------------------------------------------------------------------- #
# gate reporter                                                          #
# ---------------------------------------------------------------------- #
def test_reporter_exits_1_and_lists_every_failure(capsys):
    with pytest.raises(SystemExit) as info:
        harness.report_gate("farm", "numpy", ["speedup 1.2x < 1.5x", "no evictions"], "ok")
    assert info.value.code == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "[farm] FAIL gate (numpy): speedup 1.2x < 1.5x",
        "[farm] FAIL gate (numpy): no evictions",
    ]
    assert "gate holds" not in captured.out


def test_reporter_prints_the_holds_line(capsys):
    harness.report_gate("obs", "numpy", [], "tracing off +0.5%")
    captured = capsys.readouterr()
    assert captured.out == "[obs] gate holds on numpy: tracing off +0.5%\n"
    assert captured.err == ""


# ---------------------------------------------------------------------- #
# every mode at a tiny size: the JSON shape is pinned                    #
# ---------------------------------------------------------------------- #
_SERVE_LATENCY = [
    "latency_p50_ms", "latency_p95_ms", "matrix", "requests", "rhs_per_second",
    "tolerance", "wall_seconds",
]
_OBS = sorted(
    _SERVE_LATENCY + [
        "backend", "benchmark", "clients", "config", "dtype", "max_block",
        "throughput_cost_vs_baseline", "variant",
    ]
)
_FARM = [
    "backend", "benchmark", "config", "dtype", "matrix", "max_sessions", "mode",
    "operators", "requests", "tolerance", "workers",
]

#: Entry key sets and summary keys of every mode's JSON.
PINNED = {
    "smoke": (
        [[
            "backend", "benchmark", "bytes", "calls", "dtype", "flops", "kernel",
            "matrix", "model_seconds", "total_wall_seconds", "wall_seconds",
        ]],
        [],
    ),
    "backends": (
        [[
            "backend", "benchmark", "calls", "dtype", "kernel", "matrix", "n_rhs",
            "n_rows", "nnz", "wall_seconds",
        ]],
        [
            "grid", "n_rhs",
            "spmv_speedup_numpy_over_reference_double",
            "spmv_speedup_numpy_over_reference_single",
            "spmv_speedup_scipy_over_numpy_double",
            "spmv_speedup_scipy_over_numpy_single",
            "spmv_speedup_scipy_over_reference_double",
            "spmv_speedup_scipy_over_reference_single",
        ],
    ),
    "solve": (
        [[
            "backend", "benchmark", "dtype", "iterations", "matrix", "mode", "solver",
            "status", "wall_per_iteration_us", "wall_seconds",
        ]],
        [
            "dtype", "gate", "pre_pr_baseline_us", "repeats", "solver", "tolerance",
            "unmetered_speedup_vs_pre_pr",
        ],
    ),
    "block": (
        [
            [
                "backend", "benchmark", "block_iterations", "block_size", "config",
                "dtype", "iterations", "matrix", "max_solution_diff_vs_sequential",
                "mode", "per_rhs_wall_seconds", "run_wall_seconds", "solver",
                "tolerance", "wall_seconds",
            ],
            [
                "backend", "benchmark", "block_size", "config", "dtype", "iterations",
                "matrix", "mode", "per_rhs_wall_seconds", "run_wall_seconds", "solver",
                "tolerance", "wall_seconds",
            ],
        ],
        [
            "block_size", "gate", "grid", "max_solution_diff_vs_sequential",
            "per_rhs_speedup_block_over_sequential",
            "per_run_speedup_block_over_sequential", "repeats", "tolerance",
        ],
    ),
    "serve": (
        [sorted(_SERVE_LATENCY + [
            "backend", "batch_occupancy", "benchmark", "block_iterations", "clients",
            "config", "dtype", "max_block", "max_wait_ms", "mean_batch_occupancy",
            "mode", "queue_wait_p50_ms", "queue_wait_p95_ms", "restart",
            "run_wall_seconds", "solve_p50_ms", "solve_p95_ms",
        ])],
        [
            "clients", "gate", "grid", "per_run_speedup_batched_over_unbatched",
            "repeats", "requests_per_client",
            "throughput_speedup_batched_over_unbatched", "tolerance",
        ],
    ),
    "obs": (
        [
            _OBS,
            sorted(_OBS + ["dropped_spans", "finished_spans"]),
            sorted(_OBS + ["finished_spans", "head_rate", "sampled_out_traces"]),
        ],
        [
            "chrome_trace", "clients", "gate", "grid", "requests_per_client",
            "throughput_cost_vs_baseline", "tolerance",
        ],
    ),
    "farm": (
        [
            sorted(_FARM + [
                "breaker_trips", "evictions", "fleet_speedup_vs_naive",
                "latency_p50_ms", "latency_p95_ms", "requests_cancelled",
                "requests_timed_out", "rhs_per_second", "sessions_created",
                "sessions_live", "wall_seconds", "worst_cold_p95_degradation",
            ]),
            sorted(_FARM + [
                "evictions", "expected_share", "fairness_share",
                "hot_free_latency_p95_ms", "latency_p50_ms", "latency_p95_ms",
                "queue_wait_p95_ms", "role", "tenant",
            ]),
            sorted(_FARM + ["rhs_per_second", "session_rebuilds", "wall_seconds"]),
        ],
        [
            "cold_requests", "evictions", "fleet_speedup_farm_over_naive", "gate",
            "grid", "hot_requests", "max_sessions", "operators", "repeats",
            "tolerance", "workers", "worst_cold_p95_degradation",
        ],
    ),
}


def _tiny_runs(tmp_path):
    return {
        "smoke": lambda out: harness.main(["--smoke", "--out", str(out)]),
        "backends": lambda out: harness.run_backend_comparison(8, n_rhs=2, out=out),
        "solve": lambda out: harness.run_solve(out=out, repeats=1),
        "block": lambda out: harness.run_solve_block(
            out=out, repeats=2, grid=8, block_size=2
        ),
        "serve": lambda out: harness.run_serve(
            out=out, grid=8, clients=2, requests_per_client=2, repeats=2
        ),
        "obs": lambda out: harness.run_obs(
            out=out, grid=8, clients=2, requests_per_client=2, repeats=1,
            trace_out=tmp_path / "TRACE_obs.json",
        ),
        "farm": lambda out: harness.run_farm(
            out=out, grid=8, operators=3, max_sessions=2, workers=1,
            hot_requests=2, cold_requests=1, repeats=2,
        ),
    }


@pytest.mark.parametrize("mode", sorted(PINNED))
def test_every_mode_writes_the_pinned_json_shape(mode, tmp_path):
    out = tmp_path / f"BENCH_{mode}.json"
    try:
        _tiny_runs(tmp_path)[mode](out)
    except SystemExit as exc:
        assert exc.code == 1, exc.code  # a gate missed at this tiny size
    payload = json.loads(out.read_text())
    assert payload["schema"] == "repro-bench/1"
    entry_keys = {frozenset(entry) for entry in payload["entries"]}
    expected_entries, expected_summary = PINNED[mode]
    assert entry_keys == {frozenset(keys) for keys in expected_entries}
    assert sorted(payload.get("summary", {})) == expected_summary
    if mode == "obs":
        trace = json.loads((tmp_path / "TRACE_obs.json").read_text())
        threads = {
            e["args"]["name"] for e in trace["traceEvents"] if e["name"] == "thread_name"
        }
        assert {"client-0", "client-1"} <= threads


def test_cli_dispatches_from_the_mode_table():
    assert list(harness.MODES) == [
        "smoke", "backends", "solve", "solve-block", "serve", "farm", "obs",
    ]
    with pytest.raises(SystemExit) as info:
        harness.main([])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        harness.main(["--smoke", "--solve", "--out", "x.json"])
    assert info.value.code == 2
