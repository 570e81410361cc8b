import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import asrti

from asrti.benchmark import (
    BenchmarkOptions,
    PendulumParams,
    ScenarioConfig,
    build_pendulum_ocp,
    dare_terminal_cost,
    draw_scenario,
    pendulum_model,
    run_scenario,
    run_traces,
    write_pareto_csv,
    write_results_csv,
    write_traces_csv,
)
from asrti.benchmark.cli import main as cli_main
from asrti.benchmark.runner import AlgorithmRow, BenchmarkResult, _run_one_scenario
from asrti.controller import ControllerConfig
from asrti.integrators import radau3_step
from asrti.nlp import transcribe


def dare_residual(P, A, B, Q, R):
    """Infinity norm of the discrete algebraic Riccati equation residual."""
    BtP = B.T @ P
    step = Q + A.T @ P @ A - A.T @ P @ B @ np.linalg.solve(R + BtP @ B, BtP @ A)
    return float(np.max(np.abs(step - P)))


class TestPendulumModel:
    def test_upright_origin_is_equilibrium(self):
        model = pendulum_model()
        assert np.allclose(model.rhs(np.zeros(4), np.zeros(1)), 0.0)

    def test_kinematic_rows(self):
        model = pendulum_model()
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(size=4)
            u = rng.normal(size=1) * 30
            xdot = model.rhs(x, u)
            assert xdot[0] == x[2]
            assert xdot[1] == x[3]

    def test_jacobians_match_finite_differences(self):
        model = pendulum_model()
        rng = np.random.default_rng(1)
        eps = 1e-6
        for _ in range(100):
            x = rng.uniform(-2, 2, size=4)
            u = rng.uniform(-50, 50, size=1)
            Jx = model.jac_x(x, u)
            Ju = model.jac_u(x, u)
            for j in range(4):
                dx = np.zeros(4)
                dx[j] = eps
                fd = (model.rhs(x + dx, u) - model.rhs(x - dx, u)) / (2 * eps)
                assert np.allclose(Jx[:, j], fd, rtol=1e-6, atol=1e-6)
            fd = (model.rhs(x, u + eps) - model.rhs(x, u - eps)) / (2 * eps)
            assert np.allclose(Ju[:, 0], fd, rtol=1e-6, atol=1e-6)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            pendulum_model(PendulumParams(cart_mass=-1.0))


class TestDare:
    def test_zero_dynamics_gives_q(self):
        Q = np.diag([2.0, 3.0])
        P = dare_terminal_cost(np.zeros((2, 2)), np.ones((2, 1)), Q, np.eye(1))
        assert np.allclose(P, Q, atol=1e-12)

    def test_scalar_golden_ratio(self):
        P = dare_terminal_cost(np.eye(1), np.eye(1), np.eye(1), np.eye(1))
        assert P[0, 0] == pytest.approx((1 + np.sqrt(5)) / 2, abs=1e-9)

    def test_pendulum_linearization_residual(self):
        model = pendulum_model()
        lin = radau3_step(model, np.zeros(4), np.zeros(1), 0.05)
        Q = 0.05 * np.diag([100.0, 1e3, 0.01, 0.01])
        R = 0.05 * np.array([[0.2]])
        P = dare_terminal_cost(lin.S_x, lin.S_u, Q, R)
        assert dare_residual(P, lin.S_x, lin.S_u, Q, R) <= 1e-8
        assert np.allclose(P, P.T)
        assert np.all(np.linalg.eigvalsh(P) > 0)


class TestOcpConstruction:
    def test_grid_sums_to_horizon(self):
        spec = build_pendulum_ocp()
        assert spec.dt_grid.sum() == pytest.approx(4.0, abs=1e-12)
        assert spec.dt_grid[0] == 0.05
        assert spec.dt_grid[1] == pytest.approx(3.95 / 19, abs=1e-12)

    def test_bound_row_count(self):
        nlp = transcribe(build_pendulum_ocp())
        assert nlp.n_h == 2 * 20

    def test_uniform_reference_grid(self):
        spec = build_pendulum_ocp(n_intervals=80, uniform_grid=True)
        assert np.allclose(spec.dt_grid, 0.05)


class TestScenarios:
    def test_disturbance_times_map_to_cycles(self):
        cfg = ScenarioConfig()
        assert cfg.disturbance_cycles() == [0, 40]
        assert cfg.n_cycles == 80

    def test_off_grid_disturbance_rejected(self):
        cfg = ScenarioConfig(disturbance_times=(0.013,))
        with pytest.raises(ValueError):
            cfg.disturbance_cycles()

    def test_draws_are_reproducible_and_within_ranges(self):
        cfg = ScenarioConfig(seed=42)
        a = draw_scenario(cfg, 3)
        b = draw_scenario(cfg, 3)
        assert np.array_equal(a.x0, b.x0)
        assert all(np.array_equal(a.disturbances[k], b.disturbances[k]) for k in a.disturbances)
        assert -0.5 <= a.x0[0] <= 0.5
        assert np.all(a.x0[1:] == 0.0)
        for v in a.disturbances.values():
            assert -100.0 <= v[0] <= 100.0

    def test_distinct_indices_give_distinct_draws(self):
        cfg = ScenarioConfig(seed=42)
        assert draw_scenario(cfg, 0).x0[0] != draw_scenario(cfg, 1).x0[0]


def tiny_cfg(**kwargs):
    return ScenarioConfig(sim_time=0.5, n_scenarios=1, disturbance_times=(0.0,), **kwargs)


class TestRunScenario:
    def test_equilibrium_start_without_disturbance_is_free(self):
        spec = build_pendulum_ocp()
        plant = pendulum_model()
        cfg = ScenarioConfig(sim_time=0.5, n_scenarios=1, disturbance_times=())
        from asrti.benchmark.scenarios import ScenarioRealization

        real = ScenarioRealization(0, np.zeros(4), {})
        for name in ("rti", "as-rti-a", "sqp-2"):
            metrics, log = run_scenario(spec, plant, ControllerConfig.from_name(name), real, cfg)
            assert metrics.closed_loop_cost <= 1e-8
            assert not metrics.failed

    def test_same_seed_same_metrics(self):
        spec = build_pendulum_ocp()
        plant = pendulum_model()
        cfg = tiny_cfg(seed=7)
        real = draw_scenario(cfg, 0)
        runs = [
            run_scenario(spec, plant, ControllerConfig.from_name("rti"), real, cfg)[0]
            for _ in range(2)
        ]
        assert runs[0].closed_loop_cost == runs[1].closed_loop_cost
        assert runs[0].mean_g_norm == runs[1].mean_g_norm

    def test_applied_controls_respect_bounds_off_disturbance(self):
        spec = build_pendulum_ocp()
        plant = pendulum_model()
        cfg = ScenarioConfig(sim_time=1.5, n_scenarios=1)
        real = draw_scenario(ScenarioConfig(seed=5), 0)
        real.disturbances = {0: np.array([90.0])}
        metrics, log = run_scenario(spec, plant, ControllerConfig.from_name("rti"), real, cfg)
        commanded = log.commanded_controls[:, 0]
        assert np.all(np.abs(commanded) <= 40.0 + 1e-9)

    def test_reference_cost_matches_relative_suboptimality_zero(self):
        spec = build_pendulum_ocp(n_intervals=10, uniform_grid=True)
        plant = pendulum_model()
        cfg = tiny_cfg(seed=3)
        real = draw_scenario(cfg, 0)
        c = ControllerConfig(name="reference", mode="sqp", inner_iterations=50)
        m1, _ = run_scenario(spec, plant, c, real, cfg)
        m2, _ = run_scenario(spec, plant, c, real, cfg)
        assert 100.0 * (m1.closed_loop_cost - m2.closed_loop_cost) / m2.closed_loop_cost == 0.0


class TestBenchmarkPlumbing:
    def test_run_one_scenario_shares_realization(self):
        options = BenchmarkOptions(scenario=tiny_cfg(seed=11))
        index, ref, results = _run_one_scenario((options, ["rti", "as-rti-a"], 0))
        assert index == 0
        assert set(results) == {"rti", "as-rti-a"}
        assert not ref.failed

    def test_csv_round_trip(self, tmp_path):
        rows = [
            AlgorithmRow("rti", 1.0, 0.1, 3.5, 14.0, 8.2, 0),
            AlgorithmRow("as-rti-a", 1.2, 0.1, 0.5, 12.4, 6.6, 0),
        ]
        result = BenchmarkResult(rows, {}, [], BenchmarkOptions())
        out = tmp_path / "results.csv"
        write_results_csv(result, out)
        with open(out) as fh:
            read = list(csv.DictReader(fh))
        assert read[0]["algorithm"] == "rti"
        assert float(read[0]["rel_subopt_pct"]) == 3.5
        pareto = tmp_path / "pareto.csv"
        write_pareto_csv(out, pareto)
        with open(pareto) as fh:
            prow = list(csv.DictReader(fh))[0]
        assert float(prow["max_total_ms"]) == pytest.approx(1.1)

    def test_traces_rows_structure(self):
        options = BenchmarkOptions(scenario=tiny_cfg(seed=2))
        rows = run_traces("as-rti-b-2", 0, options=options)
        cycles = {r[0] for r in rows}
        assert cycles == set(range(10))
        for cycle in cycles:
            inner = [r for r in rows if r[0] == cycle and r[1] >= 0]
            fb = [r for r in rows if r[0] == cycle and r[1] == -1]
            assert len(inner) == 2  # two level-B iterations logged
            assert len(fb) == 1
            assert all(np.isfinite(r[2]) and np.isfinite(r[3]) for r in inner + fb)

    def test_traces_csv(self, tmp_path):
        out = tmp_path / "traces.csv"
        write_traces_csv([(0, 0, 1e-3, 2e-2), (0, -1, 1e-5, 3e-4)], out)
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[1]["inner_iter"] == "-1"

    def test_options_override_from_json(self, tmp_path):
        cfg = {
            "pendulum": {"pole_mass": 0.2},
            "scenario": {"n_scenarios": 3, "seed": 9, "p0_range": [-0.1, 0.1]},
            "ocp": {"control_limit": 30.0},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        options = BenchmarkOptions.from_json(path)
        assert options.pendulum.pole_mass == 0.2
        assert options.scenario.n_scenarios == 3
        assert options.scenario.p0_range == (-0.1, 0.1)
        assert options.ocp.control_limit == 30.0

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError):
            BenchmarkOptions().override({"nonsense": 1})
        with pytest.raises(ValueError):
            BenchmarkOptions().override({"scenario": {"bogus_key": 1}})


class TestCli:
    def test_run_subcommand(self, tmp_path):
        cfg = {"scenario": {"sim_time": 0.5, "n_scenarios": 1, "disturbance_times": [0.0]}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "results.csv"
        rc = cli_main(
            [
                "run",
                "--algorithms",
                "rti,as-rti-a",
                "--seed",
                "42",
                "--out",
                str(out),
                "--config",
                str(cfg_path),
            ]
        )
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["algorithm"] for r in rows] == ["rti", "as-rti-a"]
        assert all(r["failed_scenarios"] == "0" for r in rows)

    def test_traces_and_pareto_subcommands(self, tmp_path):
        cfg = {"scenario": {"sim_time": 0.5, "n_scenarios": 1, "disturbance_times": [0.0]}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        results = tmp_path / "results.csv"
        cli_main(["run", "--algorithms", "rti", "--out", str(results), "--config", str(cfg_path)])
        traces = tmp_path / "traces.csv"
        rc = cli_main(
            ["traces", "--algorithm", "as-rti-b-1", "--scenario", "0", "--out", str(traces), "--config", str(cfg_path)]
        )
        assert rc == 0 and traces.exists()
        pareto = tmp_path / "pareto.csv"
        rc = cli_main(["pareto", "--in", str(results), "--out", str(pareto)])
        assert rc == 0 and pareto.exists()

    def test_console_entry_point_help(self):
        # the child interpreter imports the same asrti package as this one
        root = os.path.dirname(os.path.dirname(asrti.__file__))
        path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-m", "asrti.benchmark.cli", "--help"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert out.returncode == 0
        assert "run" in out.stdout and "traces" in out.stdout and "pareto" in out.stdout
