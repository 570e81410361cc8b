import numpy as np
import pytest

from asrti.benchmark import build_pendulum_ocp, pendulum_model
from asrti.integrators import OdeModel, radau3_step
from asrti.mli import (
    MliConfig,
    beta_vector,
    estimate_contraction,
    level_a,
    level_b,
    level_c,
    level_d,
    prepare_linearization,
    sqp_solve,
)
from asrti.nlp import (
    Iterate,
    OcpSpec,
    QuadraticStageCost,
    QuadraticTerminalCost,
    control_bounds,
    eval_kkt,
    transcribe,
)
from asrti.qp import build_qp_data


@pytest.fixture(scope="module")
def pendulum_nlp():
    return transcribe(build_pendulum_ocp())


@pytest.fixture(scope="module")
def advanced_problem(pendulum_nlp):
    """Reference solution at x_hat plus a predicted next parameter.

    Mimics one preparation phase: the reference point solves the problem
    at the current state, the advanced parameter is the state predicted
    under the first-stage control.
    """
    nlp = pendulum_nlp
    x_hat = np.array([0.15, 0.1, 0.0, 0.2])
    z_hat = sqp_solve(nlp, x_hat, nlp.cold_start(x_hat), tol=1e-12, max_iter=50).iterate
    u0 = nlp.first_control(z_hat.w)
    x_pred = radau3_step(pendulum_model(), x_hat, u0, 0.05, sensitivities=False).x_next
    prep = prepare_linearization(nlp, z_hat)
    return nlp, x_hat, z_hat, x_pred, prep


def double_integrator():
    """``xdot = (v, u)``: over 0.1 s Radau IIA gives ``A = [[1, .1], [0, 1]]``,
    ``B = [[.005], [.1]]`` exactly."""
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    return OdeModel(
        n_x=2,
        n_u=1,
        rhs=lambda x, u: x @ A.T + u @ B.T,
        jac_x=lambda x, u: np.broadcast_to(A, x.shape[:-1] + (2, 2)).copy(),
        jac_u=lambda x, u: np.broadcast_to(B, x.shape[:-1] + (2, 1)).copy(),
    )


def lq_problem(with_bounds=False):
    """A strictly convex linear-quadratic OCP: SQP is exact on it."""
    N = 5
    bounds = [control_bounds(2, -1.0, 1.0)] * N if with_bounds else None
    spec = OcpSpec(
        n_x=2,
        n_u=1,
        dt_grid=np.full(N, 0.1),
        stage_costs=[QuadraticStageCost(np.eye(2), np.eye(1))] * N,
        terminal_cost=QuadraticTerminalCost(2 * np.eye(2)),
        model=double_integrator(),
        stage_constraints=bounds,
    )
    return transcribe(spec)


def stacked_error(z, z_ref):
    return float(np.linalg.norm(z.stacked() - z_ref.stacked()))


class TestSqpSolve:
    def test_double_integrator_step_is_exact(self):
        nlp = lq_problem()
        data = build_qp_data(nlp, np.zeros(nlp.n_w))
        assert np.allclose(data.phi_x, [[1.0, 0.1], [0.0, 1.0]], rtol=0.0, atol=1e-15)
        assert np.allclose(data.phi_u, [[0.005], [0.1]], rtol=0.0, atol=1e-15)

    def test_one_iteration_on_a_qp(self):
        nlp = lq_problem()
        rng = np.random.default_rng(1)
        x = rng.normal(size=2)
        z0 = Iterate(rng.normal(size=nlp.n_w), rng.normal(size=nlp.n_g), np.zeros(nlp.n_h))
        res = sqp_solve(nlp, x, z0, tol=1e-10)
        assert res.converged
        assert res.iterations == 1

    def test_steady_state_is_free(self, pendulum_nlp):
        nlp = pendulum_nlp
        res = sqp_solve(nlp, np.zeros(4), nlp.cold_start(np.zeros(4)), tol=1e-12)
        assert res.converged
        assert np.max(np.abs(res.iterate.w)) < 1e-12
        assert nlp.f(res.iterate.w) == pytest.approx(0.0, abs=1e-15)

    def test_perturbed_pendulum_converges_within_twenty_iterations(self, pendulum_nlp):
        nlp = pendulum_nlp
        x = np.array([0.1, 0.15, 0.0, 0.3])
        res = sqp_solve(nlp, x, nlp.cold_start(x), tol=1e-8, max_iter=20)
        assert res.converged
        assert res.iterations <= 20
        kkt = eval_kkt(nlp, res.iterate, x)
        assert kkt.max() <= 1e-8

    def test_iteration_log_records_progress(self, pendulum_nlp):
        nlp = pendulum_nlp
        x = np.array([0.05, 0.05, 0.0, 0.0])
        res = sqp_solve(nlp, x, nlp.cold_start(x), tol=1e-10)
        assert len(res.log) == res.iterations
        assert res.log[0].step_norm > res.log[-1].step_norm


class TestLevelD:
    def test_fixed_point_stays(self, advanced_problem):
        nlp, x_hat, z_hat, _, _ = advanced_problem
        z1 = level_d(nlp, x_hat, z_hat, 1)
        assert stacked_error(z1, z_hat) < 1e-8

    def test_monotone_error_decrease_near_solution(self, advanced_problem):
        nlp, _, z_hat, x_pred, _ = advanced_problem
        z_star = sqp_solve(nlp, x_pred, z_hat, tol=1e-12, max_iter=50).iterate
        errs = [stacked_error(z_hat, z_star)]
        z = z_hat
        for _ in range(4):
            z = level_d(nlp, x_pred, z, 1)
            errs.append(stacked_error(z, z_star))
        assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))

    def test_more_iterations_never_hurt_final_residual(self, advanced_problem):
        nlp, _, z_hat, x_pred, _ = advanced_problem
        k2 = eval_kkt(nlp, level_d(nlp, x_pred, z_hat, 2), x_pred).max()
        k4 = eval_kkt(nlp, level_d(nlp, x_pred, z_hat, 4), x_pred).max()
        assert k4 <= k2 * (1 + 1e-9)


class TestLevelC:
    def test_identical_to_level_d_on_lq_problem(self):
        nlp = lq_problem()
        rng = np.random.default_rng(3)
        x = rng.normal(size=2)
        x_pred = x + 0.05 * rng.normal(size=2)
        z0 = Iterate(0.1 * rng.normal(size=nlp.n_w), np.zeros(nlp.n_g), np.zeros(nlp.n_h))
        prep = prepare_linearization(nlp, z0)
        zc = level_c(prep, nlp, x_pred, z0, 3)
        zd = level_d(nlp, x_pred, z0, 3)
        assert np.allclose(zc.w, zd.w, atol=1e-9)
        assert np.allclose(zc.lam, zd.lam, atol=1e-9)

    def test_zero_step_at_exact_solution(self, advanced_problem):
        nlp, x_hat, z_hat, _, prep = advanced_problem
        z1 = level_c(prep, nlp, x_hat, z_hat, 1)
        assert np.max(np.abs(z1.w - z_hat.w)) < 1e-10

    def test_linear_convergence_ratio_below_one(self, advanced_problem):
        nlp, _, z_hat, x_pred, prep = advanced_problem
        z_star = sqp_solve(nlp, x_pred, z_hat, tol=1e-12, max_iter=50).iterate
        errs = [stacked_error(z_hat, z_star)]
        z = z_hat
        for _ in range(6):
            z = level_c(prep, nlp, x_pred, z, 1)
            errs.append(stacked_error(z, z_star))
        ratios = np.array(errs[1:]) / np.array(errs[:-1])
        assert np.all(ratios < 1.0)
        # terminal ratios settle near a constant linear rate
        assert abs(ratios[-1] - ratios[-2]) < 0.2


class TestLevelB:
    def test_exact_on_lq_problem_with_zero_beta(self):
        nlp = lq_problem()
        rng = np.random.default_rng(4)
        x = rng.normal(size=2) * 0.3
        z0 = Iterate(np.zeros(nlp.n_w), np.zeros(nlp.n_g), np.zeros(nlp.n_h))
        prep = prepare_linearization(nlp, z0)
        z_star = sqp_solve(nlp, x, z0, tol=1e-12).iterate
        zb = level_b(prep, nlp, x, z0, 30)
        assert stacked_error(zb, z_star) < 1e-9
        beta = beta_vector(prep, zb, nlp)
        assert np.max(np.abs(beta)) < 1e-9

    def test_zero_iterations_return_start(self, advanced_problem):
        nlp, _, z_hat, x_pred, prep = advanced_problem
        z = level_b(prep, nlp, x_pred, z_hat, 0)
        assert np.array_equal(z.w, z_hat.w)

    def test_fixed_point_is_feasible_but_not_stationary(self, advanced_problem):
        nlp, _, z_hat, x_pred, prep = advanced_problem
        zb = level_b(prep, nlp, x_pred, z_hat, 60)
        kkt = eval_kkt(nlp, zb, x_pred)
        assert kkt.eq <= 1e-8
        assert kkt.stat > 1e-6  # suboptimality persists
        beta = beta_vector(prep, zb, nlp)
        assert np.max(np.abs(beta)) > 1e-6

    def test_beta_identity_at_fixed_point(self, advanced_problem):
        nlp, _, z_hat, x_pred, prep = advanced_problem
        zb = level_b(prep, nlp, x_pred, z_hat, 80)
        kkt = eval_kkt(nlp, zb, x_pred)
        beta = beta_vector(prep, zb, nlp)
        assert kkt.stat == pytest.approx(np.max(np.abs(beta)), abs=1e-6)


class TestLevelA:
    def test_same_parameter_reproduces_reference_step(self, advanced_problem):
        nlp, x_hat, z_hat, _, prep = advanced_problem
        za = level_a(prep, x_hat)
        # prep was built at the solution for x_hat: nothing to correct
        assert np.max(np.abs(za.w - z_hat.w)) < 1e-8

    def test_zero_step_from_exact_solution(self, advanced_problem):
        nlp, x_hat, z_hat, _, prep = advanced_problem
        za = level_a(prep, x_hat)
        assert np.max(np.abs(za.w - z_hat.w)) < 1e-8

    def test_exact_parametric_solution_on_lq_problem(self):
        nlp = lq_problem()
        rng = np.random.default_rng(5)
        x = rng.normal(size=2) * 0.2
        z_star = sqp_solve(nlp, x, Iterate(np.zeros(nlp.n_w), np.zeros(nlp.n_g), np.zeros(nlp.n_h)), tol=1e-12).iterate
        prep = prepare_linearization(nlp, z_star)
        for _ in range(5):
            x_new = x + 0.3 * rng.normal(size=2)
            za = level_a(prep, x_new)
            z_ref = sqp_solve(nlp, x_new, z_star, tol=1e-12).iterate
            assert stacked_error(za, z_ref) < 1e-8


class TestLevelOrdering:
    def test_final_error_ordering_at_equal_iteration_count(self, advanced_problem):
        nlp, _, z_hat, x_pred, prep = advanced_problem
        z_star = sqp_solve(nlp, x_pred, z_hat, tol=1e-12, max_iter=50).iterate
        n = 3
        zb = level_b(prep, nlp, x_pred, z_hat, n)
        zc = level_c(prep, nlp, x_pred, z_hat, n)
        zd = level_d(nlp, x_pred, z_hat, n)
        eb = stacked_error(zb, z_star)
        ec = stacked_error(zc, z_star)
        ed = stacked_error(zd, z_star)
        assert ed <= ec * (1 + 1e-9)
        assert ec <= eb * (1 + 1e-9)


class TestContractionDiagnostics:
    def test_geometric_sequence(self):
        errs = [1.0 * 0.5**j for j in range(8)]
        diag = estimate_contraction(errs)
        assert np.allclose(diag.ratios, 0.5)
        assert diag.kappa == pytest.approx(0.5, abs=1e-12)
        assert diag.omega == pytest.approx(0.0, abs=1e-10)
        assert diag.contractive

    def test_increasing_sequence_flags_non_contractive(self):
        diag = estimate_contraction([1.0, 2.0, 4.0, 8.0])
        assert not diag.contractive
        assert diag.radius_z == 0.0

    def test_needs_three_values(self):
        with pytest.raises(ValueError):
            estimate_contraction([1.0, 0.5])

    def test_quadratic_like_sequence_yields_positive_omega(self):
        errs = [0.5]
        for _ in range(6):
            errs.append(0.8 * errs[-1] ** 2)
        diag = estimate_contraction(errs)
        assert diag.contractive
        assert diag.omega > 0.0
        assert diag.radius_z < np.inf

    def test_level_d_terminal_ratio_not_worse_than_level_c(self, advanced_problem):
        nlp, _, z_hat, x_pred, prep = advanced_problem
        z_star = sqp_solve(nlp, x_pred, z_hat, tol=1e-12, max_iter=50).iterate

        def error_sequence(step):
            errs = [stacked_error(z_hat, z_star)]
            z = z_hat
            for _ in range(5):
                z = step(z)
                e = stacked_error(z, z_star)
                if e < 1e-12:
                    break
                errs.append(e)
            return errs

        errs_c = error_sequence(lambda z: level_c(prep, nlp, x_pred, z, 1))
        errs_d = error_sequence(lambda z: level_d(nlp, x_pred, z, 1))
        diag_c = estimate_contraction(errs_c)
        diag_d = estimate_contraction(errs_d)
        assert diag_c.contractive and diag_d.contractive
        assert diag_d.kappa <= diag_c.kappa


class TestMliConfig:
    def test_level_a_forces_single_iteration(self):
        cfg = MliConfig("a", inner_iterations=5)
        assert cfg.level == "A"
        assert cfg.inner_iterations == 1

    def test_rejects_unknown_level(self):
        with pytest.raises(ValueError):
            MliConfig("e")

    def test_rejects_nonpositive_iterations(self):
        with pytest.raises(ValueError):
            MliConfig("b", inner_iterations=0)


class TestPredictorCorrectorScaling:
    def test_feedback_error_scales_quadratically(self, pendulum_nlp):
        # exact linearization at the origin steady state: the feedback step
        # is a pure predictor-corrector step; with the fixed (empty) active
        # set its error must shrink at least quadratically in the parameter
        # perturbation
        nlp = pendulum_nlp
        x0 = np.zeros(4)
        z0 = Iterate(np.zeros(nlp.n_w), np.zeros(nlp.n_g), np.zeros(nlp.n_h))
        prep = prepare_linearization(nlp, z0)
        rng = np.random.default_rng(6)
        direction = rng.normal(size=4)
        direction /= np.linalg.norm(direction)
        sizes = np.logspace(-3, -1, 7)
        errors = []
        for eps in sizes:
            x_new = x0 + eps * direction
            z_fb = level_a(prep, x_new)
            assert np.all(z_fb.mu == 0.0)  # active set stays empty
            z_ref = sqp_solve(nlp, x_new, z_fb, tol=1e-12, max_iter=50).iterate
            errors.append(stacked_error(z_fb, z_ref))
        errors = np.array(errors)
        slope = np.polyfit(np.log(sizes), np.log(errors), 1)[0]
        assert slope >= 1.9
