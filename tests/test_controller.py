import numpy as np
import pytest
from scipy.linalg import expm

from asrti.benchmark import (
    ScenarioConfig,
    build_pendulum_ocp,
    draw_scenario,
    pendulum_model,
    run_scenario,
)
from asrti.controller import AsRtiController, ControllerConfig, predict_state
from asrti.integrators import IntegrationError, OdeModel, radau3_step, simulate_plant
from asrti.mli import sqp_solve
from asrti.nlp import Iterate, eval_kkt, transcribe
from asrti.qp import QpInfeasibleError


@pytest.fixture()
def pendulum_nlp():
    return transcribe(build_pendulum_ocp())


def run_cycles(nlp, config, x0, n_cycles, plant=None, disturbances=None, substeps=1):
    """Minimal closed loop used by the controller tests."""
    plant = plant or pendulum_model()
    disturbances = disturbances or {}
    controller = AsRtiController(nlp, config)
    x = np.asarray(x0, dtype=float)
    xs, us = [x.copy()], []
    controller.prepare(x)
    for k in range(n_cycles):
        u, _ = controller.feedback(x)
        u_applied = disturbances.get(k, u)
        us.append(np.asarray(u_applied, dtype=float).copy())
        if k < n_cycles - 1:
            controller.prepare(x)
        x = simulate_plant(plant, x, u_applied, 0.05, substeps)
        xs.append(x.copy())
    return np.array(xs), np.array(us), controller


class TestConfigParsing:
    @pytest.mark.parametrize(
        "name,mode,level,n",
        [
            ("rti", "rti", None, 1),
            ("as-rti-a", "as-rti", "A", 1),
            ("as-rti-b-2", "as-rti", "B", 2),
            ("as-rti-d-1", "as-rti", "D", 1),
            ("sqp-100", "sqp", None, 100),
        ],
    )
    def test_from_name(self, name, mode, level, n):
        cfg = ControllerConfig.from_name(name)
        assert cfg.mode == mode
        if mode == "as-rti":
            assert cfg.mli.level == level
            assert cfg.mli.inner_iterations == n
        if mode == "sqp":
            assert cfg.inner_iterations == n

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            ControllerConfig.from_name("mystery")


class TestStateMachine:
    def test_feedback_before_prepare_rejected(self, pendulum_nlp):
        controller = AsRtiController(pendulum_nlp, ControllerConfig.from_name("rti"))
        with pytest.raises(RuntimeError):
            controller.feedback(np.zeros(4))

    def test_double_prepare_rejected(self, pendulum_nlp):
        controller = AsRtiController(pendulum_nlp, ControllerConfig.from_name("rti"))
        controller.prepare(np.zeros(4))
        with pytest.raises(RuntimeError):
            controller.prepare(np.zeros(4))

    def test_alternating_calls_work(self, pendulum_nlp):
        controller = AsRtiController(pendulum_nlp, ControllerConfig.from_name("rti"))
        x = np.array([0.1, 0.0, 0.0, 0.0])
        controller.prepare(x)
        for _ in range(3):
            u, timings = controller.feedback(x)
            assert timings.feedback_s >= 0.0
            controller.prepare(x)


class TestFeedbackPurity:
    @pytest.mark.parametrize("name", ["rti", "as-rti-a", "as-rti-b-2", "as-rti-c-1", "as-rti-d-1"])
    def test_zero_model_evaluations_in_feedback(self, pendulum_nlp, name):
        _, _, controller = run_cycles(
            pendulum_nlp, ControllerConfig.from_name(name), [0.3, 0.0, 0.0, 0.0], 6,
            disturbances={0: np.array([-60.0])},
        )
        assert all(c.feedback_evals == 0 for c in controller.cycle_logs)

    def test_sqp_mode_does_evaluate_in_feedback(self, pendulum_nlp):
        _, _, controller = run_cycles(
            pendulum_nlp, ControllerConfig.from_name("sqp-2"), [0.3, 0.0, 0.0, 0.0], 3
        )
        assert all(c.feedback_evals > 0 for c in controller.cycle_logs)
        assert all(c.preparation_s < 1e-3 for c in controller.cycle_logs)


class TestDeterminism:
    @pytest.mark.parametrize("name", ["rti", "as-rti-b-2", "as-rti-d-1"])
    def test_identical_runs_produce_identical_trajectories(self, name):
        spec = build_pendulum_ocp()
        runs = []
        for _ in range(2):
            nlp = transcribe(spec)
            xs, us, _ = run_cycles(
                nlp, ControllerConfig.from_name(name), [0.25, 0.0, 0.0, 0.0], 10,
                disturbances={0: np.array([70.0])},
            )
            runs.append((xs, us))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1], runs[1][1])


class TestPrediction:
    def test_zero_dynamics_predicts_current_state(self):
        from asrti.nlp import OcpSpec, QuadraticStageCost, QuadraticTerminalCost

        model = OdeModel(
            n_x=2,
            n_u=1,
            rhs=lambda x, u: np.zeros_like(x),
            jac_x=lambda x, u: np.zeros(x.shape[:-1] + (2, 2)),
            jac_u=lambda x, u: np.zeros(x.shape[:-1] + (2, 1)),
        )
        spec = OcpSpec(
            n_x=2,
            n_u=1,
            dt_grid=np.full(3, 0.1),
            stage_costs=[QuadraticStageCost(np.eye(2), np.eye(1))] * 3,
            terminal_cost=QuadraticTerminalCost(np.eye(2)),
            model=model,
        )
        nlp = transcribe(spec)
        z = nlp.cold_start(np.array([0.5, -0.2]))
        x_pred = predict_state(nlp, np.array([0.5, -0.2]), z)
        assert np.allclose(x_pred, [0.5, -0.2])

    def test_linear_dynamics_match_matrix_exponential(self):
        from asrti.nlp import OcpSpec, QuadraticStageCost, QuadraticTerminalCost

        A = np.array([[0.0, 1.0], [-2.0, -0.4]])
        B = np.array([[0.0], [1.0]])
        model = OdeModel(
            n_x=2,
            n_u=1,
            rhs=lambda x, u: x @ A.T + u @ B.T,
            jac_x=lambda x, u: np.broadcast_to(A, x.shape[:-1] + (2, 2)).copy(),
            jac_u=lambda x, u: np.broadcast_to(B, x.shape[:-1] + (2, 1)).copy(),
        )
        dt = 0.05
        spec = OcpSpec(
            n_x=2,
            n_u=1,
            dt_grid=np.full(3, dt),
            stage_costs=[QuadraticStageCost(np.eye(2), np.eye(1))] * 3,
            terminal_cost=QuadraticTerminalCost(np.eye(2)),
            model=model,
        )
        nlp = transcribe(spec)
        x = np.array([0.3, -0.1])
        u0 = np.array([0.7])
        states = np.tile(x, (4, 1))
        controls = np.tile(u0, (3, 1))
        z = Iterate(nlp.pack(states, controls), np.zeros(nlp.n_g), np.zeros(nlp.n_h))
        x_pred = predict_state(nlp, x, z)
        # closed form via the augmented matrix exponential
        M = np.zeros((3, 3))
        M[:2, :2] = A
        M[:2, 2:] = B * u0
        x_exact = (expm(M * dt) @ np.array([x[0], x[1], 1.0]))[:2]
        assert np.max(np.abs(x_pred - x_exact)) < 1e-6


class TestPerfectPrediction:
    def test_feedback_kkt_improves_with_inner_iterations(self):
        # plant stepped by exactly the first-interval map: prediction is
        # perfect away from disturbances, so more level-D inner iterations
        # must tighten the feedback output
        spec = build_pendulum_ocp()
        residuals = {}
        for n in (1, 2, 3):
            nlp = transcribe(spec)
            config = ControllerConfig.from_name(f"as-rti-d-{n}")
            controller = AsRtiController(nlp, config)
            x = np.array([0.35, 0.0, 0.0, 0.0])
            model = pendulum_model()
            controller.prepare(x)
            worst = 0.0
            for k in range(15):
                u, _ = controller.feedback(x)
                if k >= 2:
                    kkt = eval_kkt(nlp, controller.iterate, x)
                    worst = max(worst, kkt.max())
                if k < 14:
                    controller.prepare(x)
                x = radau3_step(model, x, u, 0.05, sensitivities=False).x_next
            residuals[n] = worst
        assert residuals[2] < residuals[1]
        assert residuals[3] < residuals[2]

    def test_large_inner_count_approaches_exact_solution(self):
        spec = build_pendulum_ocp()
        nlp = transcribe(spec)
        controller = AsRtiController(nlp, ControllerConfig.from_name("as-rti-d-6"))
        model = pendulum_model()
        x = np.array([0.3, 0.0, 0.0, 0.0])
        controller.prepare(x)
        for k in range(6):
            u, _ = controller.feedback(x)
            if k == 5:
                z_ref = sqp_solve(nlp, x, controller.iterate, tol=1e-12, max_iter=50).iterate
                err = np.linalg.norm(controller.iterate.stacked() - z_ref.stacked())
                assert err < 1e-6
            if k < 5:
                controller.prepare(x)
            x = radau3_step(model, x, u, 0.05, sensitivities=False).x_next


class TestFallback:
    @pytest.mark.parametrize("error", [QpInfeasibleError, IntegrationError])
    def test_inner_failure_falls_back_to_previous_output(self, pendulum_nlp, error):
        controller = AsRtiController(pendulum_nlp, ControllerConfig.from_name("as-rti-d-2"))
        x = np.array([0.2, 0.0, 0.0, 0.0])
        controller.prepare(x)
        controller.feedback(x)

        def broken(*args, **kwargs):
            raise error("forced")

        import asrti.controller as ctrl_mod

        original = ctrl_mod.level_d
        ctrl_mod.level_d = broken
        try:
            controller.prepare(x)
        finally:
            ctrl_mod.level_d = original
        assert controller.fallbacks == 1
        u, _ = controller.feedback(x)  # feedback still served from fallback prep
        assert np.all(np.isfinite(u))


class TestPrepareFailure:
    @pytest.mark.parametrize("name", ["as-rti-a", "as-rti-b-2", "as-rti-c-2", "as-rti-d-2"])
    def test_failed_first_prepare_leaves_no_state(self, pendulum_nlp, monkeypatch, name):
        import asrti.controller as ctrl_mod

        x = np.array([0.0, 0.2, 0.0, 0.0])
        fresh = AsRtiController(pendulum_nlp, ControllerConfig.from_name(name))
        fresh.prepare(x)
        u_ref, _ = fresh.feedback(x)

        original = ctrl_mod.prepare_linearization
        calls = []

        def fails_once(*args, **kwargs):
            calls.append(None)
            if len(calls) == 1:
                raise IntegrationError("forced")
            return original(*args, **kwargs)

        monkeypatch.setattr(ctrl_mod, "prepare_linearization", fails_once)
        controller = AsRtiController(pendulum_nlp, ControllerConfig.from_name(name))
        with pytest.raises(IntegrationError):
            controller.prepare(x)
        assert controller.iterate is None
        controller.prepare(x)  # the retry starts from scratch
        u, _ = controller.feedback(x)
        assert np.array_equal(u, u_ref)


class TestWarmStartedQp:
    @staticmethod
    def worst_stage_control(monkeypatch, name, index, N=20):
        """Largest stage control of any feedback iterate over one study scenario."""
        worst = []
        feedback = AsRtiController.feedback

        def checked(self, x):
            out = feedback(self, x)
            worst.append(np.max(np.abs(self.nlp.unpack(self.iterate.w)[1])))
            return out

        monkeypatch.setattr(AsRtiController, "feedback", checked)
        cfg = ScenarioConfig()
        metrics, _ = run_scenario(
            build_pendulum_ocp(n_intervals=N), pendulum_model(), ControllerConfig.from_name(name),
            draw_scenario(cfg, index), cfg, collect_kkt_metrics=False,
        )
        assert not metrics.failed and len(worst) == cfg.n_cycles
        return max(worst)

    # Without the cold re-solve in condense_rhs_and_solve, the warm-started
    # feedback QP of these study scenarios stopped at a non-optimal active set
    # and the refinement pass moved stage controls to 41.2-43.3 N.
    @pytest.mark.parametrize(
        "name,index", [("as-rti-a", 5), ("as-rti-b-2", 5), ("as-rti-c-2", 4), ("as-rti-d-2", 4)]
    )
    def test_stage_controls_stay_within_bounds(self, monkeypatch, name, index):
        assert self.worst_stage_control(monkeypatch, name, index) <= 40.0 + 1e-6

    # With full condensing these feedbacks returned steps that breached a
    # bound: 40.27 N at cycle 41 (N=20) and 40.006 N at cycle 42 (N=80).
    @pytest.mark.parametrize("name,index,N", [("as-rti-b-2", 17, 20), ("as-rti-b-1", 4, 80)])
    def test_stage_controls_stay_within_bounds_on_both_grids(self, monkeypatch, name, index, N):
        assert self.worst_stage_control(monkeypatch, name, index, N) <= 40.0 + 1e-6

    # A primal active-set loop took 37-41 iterations on one QP of each of
    # these controllers in study scenario 2, walking a clipped start back
    # one bound at a time.
    @pytest.mark.parametrize("name", ["as-rti-a", "as-rti-b-2", "as-rti-c-2", "as-rti-d-2"])
    def test_no_qp_of_study_scenario_2_takes_more_than_8_iterations(self, monkeypatch, name):
        import asrti.controller as ctrl_mod
        import asrti.mli as mli_mod

        iterations = []

        def counting(solve):
            def counted(*args, **kwargs):
                sol = solve(*args, **kwargs)
                iterations.append(sol.iterations)
                return sol

            return counted

        for module in (ctrl_mod, mli_mod):
            monkeypatch.setattr(module, "condense_rhs_and_solve", counting(module.condense_rhs_and_solve))
        cfg = ScenarioConfig()
        metrics, _ = run_scenario(
            build_pendulum_ocp(), pendulum_model(), ControllerConfig.from_name(name),
            draw_scenario(cfg, 2), cfg, collect_kkt_metrics=False,
        )
        assert not metrics.failed and len(iterations) >= cfg.n_cycles
        assert max(iterations) <= 8


class TestSqpShift:
    """``sqp`` mode shifts its carried iterate by one interval on a uniform grid."""

    @staticmethod
    def closed_loop(nlp, config, monkeypatch, n_cycles=10):
        import asrti.controller as ctrl_mod

        iterations = []

        def counted(*args, **kwargs):
            res = sqp_solve(*args, **kwargs)
            iterations.append(res.iterations)
            return res

        monkeypatch.setattr(ctrl_mod, "sqp_solve", counted)
        iterates = []
        feedback = AsRtiController.feedback

        def recorded(self, x):
            out = feedback(self, x)
            iterates.append(self.iterate.copy())
            return out

        monkeypatch.setattr(AsRtiController, "feedback", recorded)
        xs, _, _ = run_cycles(nlp, config, [0.3, 0.0, 0.0, 0.0], n_cycles)
        return xs, iterates, sum(iterations)

    @staticmethod
    def unshifted(nlp, config, xs):
        """The same cycles, each started from the previous output unshifted."""
        z = nlp.cold_start(xs[0])
        iterates, total = [], 0
        for x in xs[:-1]:
            res = sqp_solve(nlp, x, z, tol=config.sqp_tol, max_iter=config.inner_iterations)
            z = res.iterate
            iterates.append(z)
            total += res.iterations
        return iterates, total

    def test_uniform_grid_reaches_the_same_iterates_in_no_more_iterations(self, monkeypatch):
        nlp = transcribe(build_pendulum_ocp(n_intervals=20, horizon=1.0, uniform_grid=True))
        config = ControllerConfig(name="converged", mode="sqp", inner_iterations=100)
        xs, shifted, n_shifted = self.closed_loop(nlp, config, monkeypatch)
        plain, n_plain = self.unshifted(nlp, config, xs)
        for a, b in zip(shifted, plain):
            assert np.max(np.abs(a.w - b.w)) <= config.sqp_tol
        assert n_shifted < n_plain  # 24 against 46 when written

    def test_non_uniform_grid_iterates_are_unchanged(self, pendulum_nlp, monkeypatch):
        config = ControllerConfig.from_name("sqp-2")
        xs, shifted, _ = self.closed_loop(pendulum_nlp, config, monkeypatch)
        plain, _ = self.unshifted(pendulum_nlp, config, xs)
        for a, b in zip(shifted, plain):
            assert np.array_equal(a.stacked(), b.stacked())


class TestTimings:
    def test_feedback_cheaper_than_preparation(self, pendulum_nlp):
        _, _, controller = run_cycles(
            pendulum_nlp, ControllerConfig.from_name("as-rti-b-2"), [0.3, 0.0, 0.0, 0.0], 8
        )
        prep = max(c.preparation_s for c in controller.cycle_logs)
        fb = max(c.feedback_s for c in controller.cycle_logs)
        assert fb < prep


class TestFeedbackQp:
    @pytest.mark.parametrize("name", ["rti", "as-rti-a", "as-rti-b-2", "as-rti-c-2", "as-rti-d-2"])
    def test_each_feedback_calls_condense_rhs_and_solve_once(self, pendulum_nlp, monkeypatch, name):
        import asrti.controller as ctrl_mod

        calls = []
        solve = ctrl_mod.condense_rhs_and_solve

        def counted(*args, **kwargs):
            sol = solve(*args, **kwargs)
            calls.append(sol.iterations)
            return sol

        monkeypatch.setattr(ctrl_mod, "condense_rhs_and_solve", counted)
        per_feedback = []
        feedback = AsRtiController.feedback

        def counting(self, x):
            before = len(calls)
            out = feedback(self, x)
            per_feedback.append(len(calls) - before)
            return out

        monkeypatch.setattr(AsRtiController, "feedback", counting)
        _, _, controller = run_cycles(
            pendulum_nlp, ControllerConfig.from_name(name), [0.3, 0.0, 0.0, 0.0], 8,
            disturbances={2: np.array([60.0])},
        )
        assert per_feedback == [1] * 8
        iterations = [c.qp_iterations for c in controller.cycle_logs]
        assert iterations == calls
        assert 0 in iterations and max(iterations) > 0  # map hits, and a miss after the kick

    def test_feedback_returns_the_cycle_log_it_appends(self, pendulum_nlp):
        for name in ("rti", "sqp-2"):
            controller = AsRtiController(pendulum_nlp, ControllerConfig.from_name(name))
            controller.prepare(np.array([0.1, 0.0, 0.0, 0.0]))
            _, log = controller.feedback(np.array([0.1, 0.0, 0.0, 0.0]))
            assert log is controller.cycle_logs[-1]
            if name == "sqp-2":
                assert log.qp_iterations is None
            else:
                assert log.qp_iterations >= 0
