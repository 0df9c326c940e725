"""Tests for the experiment drivers (run in quick mode on small problems).

These are integration-style tests: each driver must run end-to-end and its
report must show the paper's qualitative shape.  The benchmark harness runs
the full-size versions; here everything is kept small enough for the unit
test suite.
"""

import pytest

from repro.experiments import (
    ALL_EXPERIMENTS,
    ExperimentConfig,
    ExperimentReport,
    fig1_fd_laplace3d,
    fig3_convergence_bentpipe,
    fig4_table1_kernel_breakdown,
    fig6_fig7_poly_prec,
    fig8_restart_laplace3d,
    scaled_device,
    sec5d_spmv_model,
    sec5f_poly_degree,
    table2_restart_bentpipe,
    table3_suitesparse,
)

QUICK = ExperimentConfig(quick=True)


class TestCommonInfrastructure:
    def test_scaled_device_factor(self):
        dev = scaled_device(9216, 2_250_000)
        assert dev.l2_bytes == pytest.approx(6 * 1024 * 1024 * 9216 / 2_250_000, rel=0.01)

    def test_experiment_config_pick(self):
        assert ExperimentConfig(quick=True).pick("full", "quick") == "quick"
        assert ExperimentConfig(quick=False).pick("full", "quick") == "full"

    def test_all_experiments_registry_complete(self):
        assert len(ALL_EXPERIMENTS) == 11
        for module in ALL_EXPERIMENTS.values():
            assert hasattr(module, "run")

    def test_report_format_and_columns(self):
        report = ExperimentReport(
            experiment="X", title="t",
            rows=[{"a": 1, "b": 2.0}], columns=["a", "b"],
            parameters={"p": 1}, paper_reference={"r": "v"}, notes=["n"],
        )
        text = report.format()
        assert "X" in text and "paper reference" in text and "note: n" in text
        assert report.row_values("a") == [1]


@pytest.mark.slow
class TestFdSweeps:
    def test_figure1_ir_competitive_with_best_fd(self):
        report = fig1_fd_laplace3d.run(QUICK, grid=12)
        assert len(report.rows) >= 3
        ir_time = report.parameters["gmres-ir time [model s]"]
        double_time = report.parameters["gmres-double time [model s]"]
        best_fd = report.parameters["best FD time [model s]"]
        assert ir_time < double_time
        assert ir_time <= 1.3 * best_fd


class TestFigure3:
    def test_fp32_stagnates_fp64_and_ir_converge(self):
        report = fig3_convergence_bentpipe.run(QUICK, grid=32, max_restarts=150)
        by_solver = {row["solver"]: row for row in report.rows}
        assert by_solver["GMRES fp32"]["status"] != "converged"
        assert by_solver["GMRES fp32"]["final relative residual"] > 1e-9
        assert by_solver["GMRES fp64"]["status"] == "converged"
        assert by_solver["GMRES-IR"]["status"] == "converged"
        # IR follows double closely (within one restart cycle plus a 10% margin;
        # the paper notes rounding occasionally lets IR finish a little earlier).
        fp64_iters = by_solver["GMRES fp64"]["iterations"]
        ir_iters = by_solver["GMRES-IR"]["iterations"]
        assert ir_iters <= fp64_iters + QUICK.restart + 1
        assert abs(ir_iters - fp64_iters) <= 0.1 * fp64_iters + QUICK.restart + 1


class TestFigure4TableI:
    def test_speedups_have_paper_shape(self):
        report = fig4_table1_kernel_breakdown.run(QUICK, grid=48)
        speedups = {row["kernel"]: row["speedup"] for row in report.rows}
        assert speedups["SpMV"] > speedups["GEMV (Trans)"]
        assert speedups["SpMV"] > 1.8
        assert speedups["Total Time"] > 1.0
        assert 1.0 < speedups["Total Orthogonalization"] < 2.0
        # Host wall seconds of the metered kernels ride next to the model.
        rows = {row["kernel"]: row for row in report.rows}
        for side in ("double", "IR"):
            host = {label: row[f"{side} [host s]"] for label, row in rows.items()}
            assert all(seconds > 0.0 for seconds in host.values())
            assert host["Total Time"] >= host["Total Orthogonalization"] + host["SpMV"]


class TestFigures6and7:
    def test_ir_with_fp32_poly_is_fastest(self):
        report = fig6_fig7_poly_prec.run(QUICK, grid=96)
        rows = {row["configuration"]: row for row in report.rows}
        base = rows["fp64 GMRES + fp64 poly"]
        ir = rows["GMRES-IR + fp32 poly"]
        assert ir["solve time [model s]"] < base["solve time [model s]"]
        assert ir["relative residual (fp64)"] < 1e-9
        # Polynomial preconditioning shifts the cost toward the SpMV.
        assert base["SpMV share"] > 0.3


class TestSection5D:
    def test_model_columns_consistent(self):
        report = sec5d_spmv_model.run(QUICK, run_cache_simulation=False, measure_solves=False)
        for row in report.rows:
            assert row["paper 5w/(2w+1)"] == pytest.approx(
                5 * row["nnz/row"] / (2 * row["nnz/row"] + 1), rel=1e-6
            )
            assert row["x reuse fp32"] >= row["x reuse fp64"]


@pytest.mark.slow
class TestRestartSweeps:
    def test_table2_small_restart_fastest(self):
        report = table2_restart_bentpipe.run(QUICK, grid=48, restart_sizes=(10, 25, 50))
        times = report.row_values("double time [model s]")
        assert times[0] < times[-1]  # orthogonalization growth with restart size
        speedups = report.row_values("speedup")
        assert all(s > 1.0 for s in speedups)

    def test_figure8_large_restart_hurts_ir(self):
        report = fig8_restart_laplace3d.run(QUICK, grid=16, restart_sizes=(10, 100))
        small, large = report.rows[0], report.rows[-1]
        assert small["speedup"] > large["speedup"]
        assert large["IR/double iteration ratio"] > 1.5


class TestSection5F:
    def test_loss_of_accuracy_appears_at_high_degree(self):
        report = sec5f_poly_degree.run(QUICK, grid=96, degrees=[5, 40], include_ir=False)
        low, high = report.rows[0], report.rows[-1]
        assert low["fp32 poly status"] == "converged"
        assert high["fp32 poly status"] == "loss_of_accuracy"
        assert high["fp64 poly status"] == "converged"
        # The false-positive signature: implicit far below the true residual.
        assert high["fp32 poly implicit residual"] < 1e-9 < high["fp32 poly true residual"]


@pytest.mark.slow
class TestTableIII:
    def test_quick_subset_runs_and_reports_speedups(self):
        report = table3_suitesparse.run(QUICK)
        assert len(report.rows) >= 3
        for row in report.rows:
            assert row["speedup"] > 0
            assert row["paper speedup"] > 0
        # The easy problem (Transport proxy) must not show a large IR win.
        transport = next(r for r in report.rows if r["matrix"] == "Transport")
        hood = next(r for r in report.rows if r["matrix"] == "hood")
        assert hood["double iters"] > transport["double iters"]
