from dataclasses import replace

import numpy as np
import pytest

from asrti.benchmark import build_pendulum_ocp
from asrti.integrators import OdeModel, radau3_step
from asrti.nlp import (
    Iterate,
    LinearStageConstraint,
    LinearTerminalConstraint,
    OcpConfigError,
    OcpSpec,
    QuadraticStageCost,
    QuadraticTerminalCost,
    control_bounds,
    eval_kkt,
    kkt_vectors,
    transcribe,
)


def lagrange_gradient(nlp, z, x=None):
    """Gradient of the Lagrangian with respect to the primal variables."""
    return kkt_vectors(nlp, z, np.zeros(nlp.n_x) if x is None else x)[0]


def linear_model(A, B):
    """``xdot = A x + B u`` with callbacks that broadcast over a batch axis."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n_x, n_u = B.shape
    return OdeModel(
        n_x=n_x,
        n_u=n_u,
        rhs=lambda x, u: x @ A.T + u @ B.T,
        jac_x=lambda x, u: np.broadcast_to(A, x.shape[:-1] + A.shape).copy(),
        jac_u=lambda x, u: np.broadcast_to(B, x.shape[:-1] + B.shape).copy(),
    )


def toy_spec(N=2, n_x=4, n_u=1):
    rng = np.random.default_rng(0)
    A = rng.normal(size=(n_x, n_x))
    B = rng.normal(size=(n_x, n_u))
    Q = np.eye(n_x)
    R = np.eye(n_u)
    return OcpSpec(
        n_x=n_x,
        n_u=n_u,
        dt_grid=np.full(N, 0.1),
        stage_costs=[QuadraticStageCost(Q, R)] * N,
        terminal_cost=QuadraticTerminalCost(Q),
        model=linear_model(A, B),
        stage_constraints=[control_bounds(n_x, -2.0, 2.0)] * N,
    )


def dense_jacobians(nlp, w):
    """Residuals and dense Jacobians ``(g, h, G, H)`` assembled from the stage blocks."""
    g, h, phi_x, phi_u = nlp.constraint_blocks(w)
    C, C_T = nlp.qp_structure.ineq_stage, nlp.qp_structure.ineq_term
    N, n_x, m = nlp.N, nlp.n_x, C.shape[1]
    G = np.zeros((nlp.n_g, nlp.n_w))
    H = np.zeros((nlp.n_h, nlp.n_w))
    G[:n_x, :n_x] = np.eye(n_x)
    for k in range(N):
        rows = slice((k + 1) * n_x, (k + 2) * n_x)
        G[rows, nlp.s_slice(k)] = phi_x[k]
        G[rows, nlp.u_slice(k)] = phi_u[k]
        G[rows, nlp.s_slice(k + 1)] = -np.eye(n_x)
        H[k * m : (k + 1) * m, nlp.s_slice(k).start : nlp.u_slice(k).stop] = C[k]
    H[N * m :, nlp.s_slice(N)] = C_T
    return g, h, G, H


class QuarticStageCost:
    """Stage cost ``sum(s**4) + sum(u**4)``: not quadratic."""

    def value(self, s, u):
        return float(np.sum(s**4) + np.sum(u**4))


class NormConstraint:
    """Nonlinear stage constraint ``1 - s's >= 0``."""

    m = 1

    def value(self, s, u):
        return np.array([1.0 - s @ s])

    def jacobians(self, s, u):
        return -2.0 * s[None, :], np.zeros((1, u.shape[0]))


# spec fields (for toy_spec(N=2, n_x=4, n_u=1)) that validate rejects, and
# the message it gives
UNSUPPORTED_SPECS = {
    "non-quadratic cost": ({"stage_costs": [QuarticStageCost()] * 2}, "QuadraticStageCost"),
    "stage weight shape": (
        {"stage_costs": [QuadraticStageCost(np.eye(3), np.eye(1))] * 2}, "Q shape"
    ),
    "different Q": (
        {"stage_costs": [QuadraticStageCost(k * np.eye(4), np.eye(1)) for k in (1, 2)]}, "share one"
    ),
    "non-quadratic terminal cost": ({"terminal_cost": QuarticStageCost()}, "QuadraticTerminalCost"),
    "terminal weight shape": (
        {"terminal_cost": QuadraticTerminalCost(np.eye(3))}, "terminal cost weight"
    ),
    "mix of None and constraint stages": (
        {"stage_constraints": [None, control_bounds(4, -1.0, 1.0)]}, "every interval"
    ),
    "non-linear constraint": ({"stage_constraints": [NormConstraint()] * 2}, "every interval"),
    "different row counts": (
        {
            "stage_constraints": [
                control_bounds(4, -1.0, 1.0),
                LinearStageConstraint(np.zeros((1, 4)), [[1.0]], [1.0]),
            ]
        },
        "same row count",
    ),
    "stage constraint shape": (
        {"stage_constraints": [LinearStageConstraint(np.zeros((1, 3)), [[1.0]], [1.0])] * 2}, "shapes"
    ),
    "non-linear terminal constraint": ({"terminal_constraint": object()}, "LinearTerminalConstraint"),
    "terminal constraint shape": (
        {"terminal_constraint": LinearTerminalConstraint(np.zeros((1, 3)), [1.0])},
        "terminal constraint shape",
    ),
}


class TestTranscription:
    def test_dimension_counts(self):
        nlp = transcribe(toy_spec(N=2, n_x=4, n_u=1))
        assert nlp.n_w == 3 * 4 + 2 * 1 == 14
        assert nlp.n_g == 12
        assert nlp.n_h == 4

    def test_pendulum_dimension_counts(self):
        nlp = transcribe(build_pendulum_ocp())
        assert nlp.n_w == 104
        assert nlp.n_g == 84
        assert nlp.n_h == 2 * 20

    def test_embedding_matrix_has_one_identity_block(self):
        nlp = transcribe(toy_spec())
        assert np.allclose(nlp.M[:4], -np.eye(4))
        assert np.count_nonzero(nlp.M[4:]) == 0

    def test_pack_unpack_roundtrip(self):
        nlp = transcribe(toy_spec(N=3))
        rng = np.random.default_rng(5)
        w = rng.normal(size=nlp.n_w)
        states, controls = nlp.unpack(w)
        assert np.array_equal(nlp.pack(states, controls), w)

    def test_dynamically_feasible_point_has_zero_eq_residual(self):
        spec = toy_spec(N=3)
        nlp = transcribe(spec)
        rng = np.random.default_rng(2)
        x = rng.normal(size=4)
        states = [x]
        controls = rng.normal(size=(3, 1))
        for k in range(3):
            step = radau3_step(spec.model, states[k], controls[k], spec.dt_grid[k], False)
            states.append(step.x_next)
        w = nlp.pack(np.array(states), controls)
        g, _ = nlp.constraint_values(w)
        assert np.max(np.abs(g + nlp.M @ x)) < 1e-12

    def test_shift_moves_every_stage_block_up_and_repeats_the_last(self):
        nlp = transcribe(build_pendulum_ocp(n_intervals=20, horizon=1.0, uniform_grid=True))
        assert nlp.uniform_grid
        N, n_x, m = nlp.N, nlp.n_x, 2
        rng = np.random.default_rng(4)
        z = Iterate(rng.normal(size=nlp.n_w), rng.normal(size=nlp.n_g), rng.normal(size=nlp.n_h))
        counters = dict(nlp.counters)
        shifted = nlp.shift(z)
        assert nlp.counters == counters  # no model evaluations
        states, controls = nlp.unpack(z.w)
        s_new, u_new = nlp.unpack(shifted.w)
        assert np.array_equal(s_new, np.vstack([states[1:], states[-1:]]))
        assert np.array_equal(u_new, np.vstack([controls[1:], controls[-1:]]))
        gaps = z.lam[n_x:].reshape(N, n_x)
        assert np.array_equal(shifted.lam[:n_x], z.lam[:n_x])
        assert np.array_equal(shifted.lam[n_x:].reshape(N, n_x), np.vstack([gaps[1:], gaps[-1:]]))
        rows = z.mu.reshape(N, m)  # the pendulum has no terminal rows
        assert np.array_equal(shifted.mu.reshape(N, m), np.vstack([rows[1:], rows[-1:]]))
        assert not transcribe(build_pendulum_ocp()).uniform_grid

    def test_shift_keeps_terminal_row_multipliers(self):
        spec = replace(
            toy_spec(N=3),
            stage_constraints=[control_bounds(4, [-1.0], [1.0])] * 3,
            terminal_constraint=LinearTerminalConstraint(np.eye(4), np.ones(4)),
        )
        nlp = transcribe(spec)
        mu = np.arange(nlp.n_h, dtype=float)
        shifted = nlp.shift(Iterate(np.zeros(nlp.n_w), np.zeros(nlp.n_g), mu))
        assert np.array_equal(shifted.mu, [2, 3, 4, 5, 4, 5, 6, 7, 8, 9])

    def test_variable_order_is_stage_interleaved(self):
        nlp = transcribe(toy_spec(N=2))
        w = np.arange(nlp.n_w, dtype=float)
        states, controls = nlp.unpack(w)
        assert np.array_equal(states[0], [0, 1, 2, 3])
        assert controls[0, 0] == 4.0
        assert np.array_equal(states[1], [5, 6, 7, 8])

    def test_dimension_mismatch_raises_config_error(self):
        spec = toy_spec()
        spec.model = linear_model(np.eye(3), np.ones((3, 1)))  # wrong state dim
        with pytest.raises(OcpConfigError):
            transcribe(spec)

    def test_control_dimension_mismatch_raises_config_error(self):
        # a two-input model that ignores its input runs on a one-input spec,
        # but its step returns Su of shape (N, 4, 2)
        model = replace(linear_model(-np.eye(4), np.zeros((4, 2))), rhs=lambda x, u: -x)
        with pytest.raises(OcpConfigError, match="shapes"):
            transcribe(replace(toy_spec(), model=model))

    def test_model_without_batch_axis_rejected(self):
        # callbacks written for a single state: the batched step fails on them
        A, B = -np.eye(4), np.ones((4, 1))
        model = OdeModel(4, 1, lambda x, u: A @ x + B @ u, lambda x, u: A, lambda x, u: B)
        radau3_step(model, np.ones(4), np.zeros(1), 0.1)  # a single step works
        with pytest.raises(OcpConfigError, match="batched probe"):
            transcribe(replace(toy_spec(N=3), dt_grid=np.full(3, 0.1), model=model))

    def test_model_reading_only_first_batch_entry_rejected(self):
        # the Jacobian reads the first batch entry's state for every entry;
        # a probe at identical states cannot tell
        model = OdeModel(
            n_x=1,
            n_u=1,
            rhs=lambda x, u: -x**3 + u,
            jac_x=lambda x, u: np.array([[-3.0 * x[0] ** 2]]),
            jac_u=lambda x, u: np.ones(x.shape + (1,)),
        )
        spec = OcpSpec(
            n_x=1,
            n_u=1,
            dt_grid=np.full(20, 0.05),
            stage_costs=[QuadraticStageCost(np.eye(1), np.eye(1))] * 20,
            terminal_cost=QuadraticTerminalCost(np.eye(1)),
            model=model,
        )
        with pytest.raises(OcpConfigError, match="single step"):
            transcribe(spec)
        fixed = replace(model, jac_x=lambda x, u: (-3.0 * x**2)[..., None])
        transcribe(replace(spec, model=fixed))

    def test_nonpositive_interval_rejected(self):
        spec = toy_spec()
        spec.dt_grid = np.array([0.1, 0.0])
        with pytest.raises(OcpConfigError):
            transcribe(spec)

    @pytest.mark.parametrize(
        "fields,message", UNSUPPORTED_SPECS.values(), ids=UNSUPPORTED_SPECS.keys()
    )
    def test_unsupported_spec_rejected(self, fields, message):
        with pytest.raises(OcpConfigError, match=message):
            transcribe(replace(toy_spec(N=2), **fields))


def one_interval_nlp():
    # min s0^2 + u0^2 + s1^2  s.t.  0 = s0 - x,  0 = s0 + u0 - s1: Radau IIA
    # integrates xdot = u over a unit interval exactly
    return transcribe(
        OcpSpec(
            n_x=1,
            n_u=1,
            dt_grid=np.ones(1),
            stage_costs=[QuadraticStageCost(np.eye(1), np.eye(1))],
            terminal_cost=QuadraticTerminalCost(np.eye(1)),
            model=linear_model(0.0, 1.0),
        )
    )


class TestKkt:
    def test_scalar_hand_solution_is_kkt_point(self):
        nlp = one_interval_nlp()
        x = np.array([0.7])
        z = Iterate(np.array([0.7, -0.35, 0.35]), np.array([2.1, -0.7]), np.zeros(0))
        kkt = eval_kkt(nlp, z, x)
        assert kkt.stat < 1e-14
        assert kkt.eq < 1e-14
        assert kkt.ineq == 0.0 and kkt.comp == 0.0

    def test_zero_multipliers_give_objective_gradient(self):
        nlp = transcribe(toy_spec())
        rng = np.random.default_rng(3)
        w = rng.normal(size=nlp.n_w)
        z = Iterate(w, np.zeros(nlp.n_g), np.zeros(nlp.n_h))
        x = rng.normal(size=4)
        kkt = eval_kkt(nlp, z, x)
        grad = nlp.grad_f(w)
        assert kkt.stat == pytest.approx(np.max(np.abs(grad)), rel=1e-12)
        assert np.allclose(lagrange_gradient(nlp, z, x), grad)

    def test_zero_mu_means_zero_complementarity(self):
        nlp = transcribe(toy_spec())
        rng = np.random.default_rng(4)
        z = Iterate(rng.normal(size=nlp.n_w), rng.normal(size=nlp.n_g), np.zeros(nlp.n_h))
        kkt = eval_kkt(nlp, z, rng.normal(size=4))
        assert kkt.comp == 0.0

    def test_stat_is_infinity_norm_of_lagrange_gradient(self):
        nlp = transcribe(build_pendulum_ocp())
        rng = np.random.default_rng(11)
        for _ in range(5):
            z = Iterate(
                rng.normal(size=nlp.n_w),
                rng.normal(size=nlp.n_g),
                np.abs(rng.normal(size=nlp.n_h)),
            )
            x = 0.3 * rng.normal(size=4)
            kkt = eval_kkt(nlp, z, x)
            assert kkt.stat == np.max(np.abs(lagrange_gradient(nlp, z, x)))

    def test_structured_kkt_matches_dense_assembly(self):
        nlp = transcribe(build_pendulum_ocp())
        rng = np.random.default_rng(8)
        z = Iterate(
            rng.normal(size=nlp.n_w),
            rng.normal(size=nlp.n_g),
            np.abs(rng.normal(size=nlp.n_h)),
        )
        x = 0.2 * rng.normal(size=4)
        stat, eq, ineq, comp = kkt_vectors(nlp, z, x)
        g, h, G, H = dense_jacobians(nlp, z.w)
        assert np.allclose(stat, nlp.grad_f(z.w) - G.T @ z.lam - H.T @ z.mu, atol=1e-10)
        assert np.allclose(eq, g + nlp.M @ x, atol=1e-12)
        assert np.allclose(ineq, np.maximum(0.0, -h))
        assert np.allclose(comp, z.mu * h)


class TestDerivativeConsistency:
    def test_gradients_match_finite_differences_on_pendulum(self):
        nlp = transcribe(build_pendulum_ocp())
        rng = np.random.default_rng(6)
        w = 0.3 * rng.normal(size=nlp.n_w)
        grad = nlp.grad_f(w)
        eps = 1e-6
        idx = rng.choice(nlp.n_w, size=15, replace=False)
        for j in idx:
            dw = np.zeros(nlp.n_w)
            dw[j] = eps
            fd = (nlp.f(w + dw) - nlp.f(w - dw)) / (2 * eps)
            assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-7)

    def test_constraint_jacobians_match_finite_differences(self):
        nlp = transcribe(build_pendulum_ocp())
        rng = np.random.default_rng(7)
        w = 0.3 * rng.normal(size=nlp.n_w)
        _, _, G, _ = dense_jacobians(nlp, w)
        eps = 1e-6
        idx = rng.choice(nlp.n_w, size=10, replace=False)
        for j in idx:
            dw = np.zeros(nlp.n_w)
            dw[j] = eps
            fd = (nlp.constraint_values(w + dw)[0] - nlp.constraint_values(w - dw)[0]) / (2 * eps)
            err = np.abs(G[:, j] - fd)
            scale = 1.0 + np.abs(fd)
            assert np.max(err / scale) < 1e-6


class TestBounds:
    def test_control_bounds_rows(self):
        con = control_bounds(4, -40.0, 40.0)
        assert con.m == 2
        assert np.array_equal(con.C_s, np.zeros((2, 4)))
        assert np.array_equal(con.C_u, [[1.0], [-1.0]])  # u - lb, ub - u
        assert np.array_equal(con.offset, [40.0, 40.0])

    def test_linear_constraint_shapes(self):
        con = LinearStageConstraint(np.ones((3, 4)), np.ones((3, 1)), np.zeros(3))
        assert con.m == 3
        assert con.C_s.shape == (3, 4) and con.C_u.shape == (3, 1)
        assert con.offset.shape == (3,)
