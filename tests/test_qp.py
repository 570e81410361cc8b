import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asrti.benchmark import (
    ScenarioConfig,
    build_pendulum_ocp,
    draw_scenario,
    pendulum_model,
    run_scenario,
)
from asrti.controller import AsRtiController, ControllerConfig, predict_state
from asrti.integrators import simulate_plant
from asrti.mli import level_b, level_c, prepare_linearization, sqp_solve
from asrti.nlp import OcpNlp, QuadraticStageCost, transcribe
from asrti.qp import (
    OcpQpData,
    QpInfeasibleError,
    QpSolverError,
    build_qp_data,
    build_qp_structure,
    condense_and_solve,
    condense_lhs,
    condense_rhs_and_solve,
    eq_jac_t_product,
    hess_product,
    ineq_jac_product,
    ineq_jac_t_product,
    prepare_feedback_map,
    solve_dense_qp,
)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def enumerate_qp(H, q, C, d, tol=1e-9):
    """Brute-force oracle: try every active set, verify the KKT conditions.

    Returns (x, mu) of the unique KKT point of the strictly convex QP.
    """
    n = H.shape[0]
    m = C.shape[0]
    for r in range(0, min(n, m) + 1):
        for subset in itertools.combinations(range(m), r):
            S = list(subset)
            K = np.zeros((n + r, n + r))
            K[:n, :n] = H
            if r:
                K[:n, n:] = -C[S].T
                K[n:, :n] = C[S]
            rhs = np.concatenate([-q, d[S]])
            try:
                sol = np.linalg.solve(K, rhs)
            except np.linalg.LinAlgError:
                continue
            x, mu_S = sol[:n], sol[n:]
            if np.any(mu_S < -tol):
                continue
            if np.any(C @ x - d < -tol):
                continue
            mu = np.zeros(m)
            mu[S] = np.maximum(mu_S, 0.0)
            return x, mu
    raise RuntimeError("enumeration found no KKT point (infeasible?)")


def random_dense_qp(rng, n, m):
    """Strictly convex QP with a guaranteed strictly feasible point."""
    A = rng.normal(size=(n, n))
    H = A @ A.T + n * np.eye(n)
    q = rng.normal(size=n)
    C = rng.normal(size=(m, n))
    x_feas = rng.normal(size=n)
    d = C @ x_feas - rng.uniform(0.1, 2.0, size=m)
    return H, q, C, d


def random_ocp_qp(rng, N, n_x, n_u, n_bounds=True):
    """Random OCP-structured QP data with PD stage Hessians."""
    stride = n_x + n_u
    hess_blocks = []
    for _ in range(N):
        A = rng.normal(size=(stride, stride))
        hess_blocks.append(A @ A.T + stride * np.eye(stride))
    At = rng.normal(size=(n_x, n_x))
    hess_blocks.append(At @ At.T + n_x * np.eye(n_x))
    phi_x = rng.normal(size=(N, n_x, n_x)) * 0.7
    phi_u = rng.normal(size=(N, n_x, n_u))
    if n_bounds:
        blk = np.zeros((2 * n_u, stride))
        blk[:n_u, n_x:] = np.eye(n_u)
        blk[n_u:, n_x:] = -np.eye(n_u)
        ineq_blocks = [blk.copy() for _ in range(N)]
        ineq_res = rng.uniform(0.5, 3.0, size=2 * n_u * N)
    else:
        ineq_blocks = [np.zeros((0, stride))] * N
        ineq_res = np.zeros(0)
    n_w = (N + 1) * n_x + N * n_u
    return OcpQpData(
        structure=build_qp_structure(hess_blocks[:N], hess_blocks[N], ineq_blocks, np.zeros((0, n_x))),
        phi_x=phi_x,
        phi_u=phi_u,
        grad=rng.normal(size=n_w),
        eq_res=rng.normal(size=(N + 1) * n_x),
        ineq_res=ineq_res,
    )


def with_rows(data, C, C_T, ineq_res):
    """``data`` with the stage rows ``C``, the terminal rows ``C_T`` and their residuals."""
    s = data.structure
    return replace(data, structure=build_qp_structure(s.hess_stage, s.hess_term, C, C_T), ineq_res=ineq_res)


def dense_eq_jacobian(data):
    N, n_x, n_u = data.N, data.n_x, data.n_u
    stride = n_x + n_u
    G = np.zeros((data.n_g, data.n_w))
    G[:n_x, :n_x] = np.eye(n_x)
    for k in range(N):
        rows = slice((k + 1) * n_x, (k + 2) * n_x)
        G[rows, k * stride : k * stride + n_x] = data.phi_x[k]
        G[rows, k * stride + n_x : (k + 1) * stride] = data.phi_u[k]
        G[rows, (k + 1) * stride : (k + 1) * stride + n_x] = -np.eye(n_x)
    return G


def dense_blocks(data):
    N, n_x, n_u = data.N, data.n_x, data.n_u
    stride = n_x + n_u
    A = np.zeros((data.n_w, data.n_w))
    for k in range(N):
        A[k * stride : (k + 1) * stride, k * stride : (k + 1) * stride] = data.hess_blocks[k]
    A[N * stride :, N * stride :] = data.hess_blocks[N]
    H = np.zeros((data.n_h, data.n_w))
    row = 0
    for k in range(N):
        m = data.ineq_stage_blocks[k].shape[0]
        if m:
            H[row : row + m, k * stride : (k + 1) * stride] = data.ineq_stage_blocks[k]
            row += m
    if data.ineq_term_block.shape[0]:
        H[row:, N * stride :] = data.ineq_term_block
    return A, H


def full_space_kkt_residual(data, x, sol):
    """Residual of the structured QP's KKT system at a candidate solution."""
    A, H = dense_blocks(data)
    G = dense_eq_jacobian(data)
    eq = data.eq_res.copy()
    eq[: data.n_x] -= x
    stat = data.grad + A @ sol.dw - G.T @ sol.lam
    if data.n_h:
        stat -= H.T @ sol.mu
    res = [np.max(np.abs(stat)), np.max(np.abs(eq + G @ sol.dw))]
    if data.n_h:
        hval = data.ineq_res + H @ sol.dw
        res.append(max(0.0, -np.min(hval)))
        res.append(np.max(np.abs(sol.mu * hval)))
        res.append(max(0.0, -np.min(sol.mu)))
    return max(res)


def assert_kkt_point(data, x, sol):
    """The step satisfies every row to 1e-9 with multipliers >= 0, and
    stationarity, the equality rows and complementarity to 1e-8."""
    A, H = dense_blocks(data)
    G = dense_eq_jacobian(data)
    eq = data.eq_res.copy()
    eq[: data.n_x] -= x
    slack = data.ineq_res + H @ sol.dw
    assert np.min(slack, initial=0.0) >= -1e-9
    assert np.min(sol.mu, initial=0.0) >= 0.0
    assert np.max(np.abs(data.grad + A @ sol.dw - G.T @ sol.lam - H.T @ sol.mu)) < 1e-8
    assert np.max(np.abs(eq + G @ sol.dw)) < 1e-8
    assert np.max(np.abs(sol.mu * slack), initial=0.0) < 1e-8


def dense_kkt(data, x, active):
    """Oracle: the full-space KKT matrix and right-hand side with the rows
    ``active`` held, unknowns ordered ``(dw, lam, mu_active)``."""
    A, H = dense_blocks(data)
    G = dense_eq_jacobian(data)
    H_W = H[list(active)]
    n_w, n_g, t = data.n_w, data.n_g, len(active)
    K = np.zeros((n_w + n_g + t, n_w + n_g + t))
    K[:n_w, :n_w] = A
    K[:n_w, n_w : n_w + n_g] = -G.T
    K[:n_w, n_w + n_g :] = -H_W.T
    K[n_w : n_w + n_g, :n_w] = -G
    K[n_w + n_g :, :n_w] = -H_W
    eq = data.eq_res.copy()
    eq[: data.n_x] -= x
    rhs = np.concatenate([-data.grad, eq, data.ineq_res[list(active)]])
    return K, rhs


def solve_dense_kkt(data, x, active):
    """Oracle ``(dw, lam, mu)``: one dense solve of the fixed-active-set KKT system."""
    K, rhs = dense_kkt(data, x, active)
    sol = np.linalg.solve(K, rhs)
    mu = np.zeros(data.n_h)
    mu[list(active)] = sol[data.n_w + data.n_g :]
    return sol[: data.n_w], sol[data.n_w : data.n_w + data.n_g], mu


def band_as_dense(band, layout):
    """A KKT band (every inequality row active) as a dense matrix, unknowns
    ordered ``(dw, lam, mu)``."""
    n, bw = layout.n, layout.bw
    K = np.zeros((n, n))
    for j in range(n):
        for i in range(max(0, j - bw), min(n, j + bw + 1)):
            K[i, j] = band[j, 2 * bw + i - j]
    order = np.concatenate([layout.w_pos, layout.g_pos, layout.h_pos])
    return K[np.ix_(order, order)]


def relative_error(sol, ref):
    """Largest error of ``(dw, lam, mu)`` against the oracle's, each relative
    to the oracle's largest entry of that vector."""
    return max(
        np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300) if b.size else 0.0
        for a, b in zip(sol, ref)
    )


# ---------------------------------------------------------------------------
# Dense active-set solver
# ---------------------------------------------------------------------------


class TestDenseQp:
    def test_hand_solved_bound_example(self):
        # min 1/2 x^2  s.t.  x >= 1
        res = solve_dense_qp(np.array([[1.0]]), np.zeros(1), np.array([[1.0]]), np.array([1.0]))
        assert res.x[0] == pytest.approx(1.0, abs=1e-12)
        assert res.mu[0] == pytest.approx(1.0, abs=1e-12)
        assert res.active_set == (0,)

    def test_unconstrained_minimizer(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(5, 5))
        H = A @ A.T + 5 * np.eye(5)
        q = rng.normal(size=5)
        res = solve_dense_qp(H, q)
        assert np.allclose(res.x, -np.linalg.solve(H, q), atol=1e-12)
        assert res.active_set == ()

    def test_matches_enumeration_oracle_on_random_qps(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            n = rng.integers(2, 7)
            m = rng.integers(1, 7)
            H, q, C, d = random_dense_qp(rng, n, m)
            res = solve_dense_qp(H, q, C, d)
            x_ref, mu_ref = enumerate_qp(H, q, C, d)
            assert np.max(np.abs(res.x - x_ref)) < 1e-8
            assert np.max(np.abs(res.mu - mu_ref)) < 1e-8

    def test_warm_started_resolve_makes_no_changes(self):
        rng = np.random.default_rng(3)
        H, q, C, d = random_dense_qp(rng, 6, 6)
        first = solve_dense_qp(H, q, C, d)
        again = solve_dense_qp(H, q, C, d, warm_active=first.active_set)
        assert again.active_set_changes == 0
        assert again.active_set == first.active_set
        assert np.allclose(again.x, first.x, atol=1e-10)

    def test_inactive_constraints_have_zero_multiplier(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            H, q, C, d = random_dense_qp(rng, 4, 5)
            res = solve_dense_qp(H, q, C, d)
            assert np.all(res.mu >= 0.0)
            inactive = [i for i in range(5) if i not in res.active_set]
            assert np.all(res.mu[inactive] == 0.0)

    def test_contradictory_bounds_are_reported_infeasible(self):
        H = np.eye(1)
        q = np.zeros(1)
        C = np.array([[1.0], [-1.0]])  # x >= 1 and -x >= 1
        d = np.array([1.0, 1.0])
        with pytest.raises(QpInfeasibleError) as exc:
            solve_dense_qp(H, q, C, d)
        assert len(exc.value.violated) > 0

    def test_infeasible_general_rows_raise(self):
        H = np.eye(2)
        q = np.zeros(2)
        C = np.array([[1.0, 1.0], [-1.0, -1.0]])
        d = np.array([1.0, 1.0])
        with pytest.raises(QpInfeasibleError):
            solve_dense_qp(H, q, C, d)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 5),
        m=st.integers(1, 5),
        extra=st.integers(1, 4),
    )
    def test_duplicated_and_dependent_rows_match_enumeration(self, seed, n, m, extra):
        # copies, scaled copies and nonnegative combinations of the rows add
        # no new constraint, so the optimum is the original QP's; they make
        # the active rows dependent, which leaves the multipliers free
        rng = np.random.default_rng(seed)
        H, q, C, d = random_dense_qp(rng, n, m)
        q = 3.0 * q  # push the unconstrained minimizer out of the feasible set
        weights = rng.uniform(0.0, 2.0, size=(extra, m)) * (rng.random((extra, m)) < 0.5)
        weights[np.arange(extra), rng.integers(0, m, size=extra)] += 1.0
        C_aug = np.vstack([C, weights @ C])
        d_aug = np.concatenate([d, weights @ d])
        order = rng.permutation(m + extra)
        C_aug, d_aug = C_aug[order], d_aug[order]
        x_ref, _ = enumerate_qp(H, q, C, d)
        res = solve_dense_qp(H, q, C_aug, d_aug)
        slack = C_aug @ res.x - d_aug
        assert np.max(np.abs(res.x - x_ref)) < 1e-8
        assert np.min(slack) >= -1e-9 and np.min(res.mu) >= 0.0
        assert np.max(np.abs(H @ res.x + q - C_aug.T @ res.mu)) < 1e-8
        assert np.max(np.abs(res.mu * slack)) < 1e-8

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 6),
        m=st.integers(1, 8),
        share=st.floats(0.0, 1.0),
    )
    def test_random_warm_set_matches_the_cold_solve(self, seed, n, m, share):
        rng = np.random.default_rng(seed)
        H, q, C, d = random_dense_qp(rng, n, m)
        q = 3.0 * q
        cold = solve_dense_qp(H, q, C, d)
        warm = tuple(np.flatnonzero(rng.random(m) < share).tolist())
        res = solve_dense_qp(H, q, C, d, warm_active=warm)
        assert np.max(np.abs(res.x - cold.x)) < 1e-8
        assert np.max(np.abs(res.mu - cold.mu)) < 1e-8
        assert res.active_set == cold.active_set

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vectors_raise_solver_error(self, bad):
        H = np.eye(2)
        C = np.array([[1.0, 0.0]])
        with pytest.raises(QpSolverError):
            solve_dense_qp(H, np.array([bad, 0.0]), C, np.zeros(1))
        with pytest.raises(QpSolverError):
            solve_dense_qp(H, np.zeros(2), C, np.array([bad]))
        with pytest.raises(QpSolverError):
            solve_dense_qp(H, np.array([bad, 0.0]))


# ---------------------------------------------------------------------------
# Condensing
# ---------------------------------------------------------------------------


class TestCondensing:
    def test_hand_condensed_hessian_single_stage(self):
        # N=1, scalar, dynamics s1 = u0, identity cost blocks and gradient 1
        # on u0: min u0^2 + u0 over u0 = s1 gives u0 = s1 = -1/2, and
        # stationarity gives lam1 = -s1 and lam0 = s0 = x.
        data = OcpQpData(
            structure=build_qp_structure([np.eye(2)], np.eye(1), [np.zeros((0, 2))], np.zeros((0, 1))),
            phi_x=np.zeros((1, 1, 1)),
            phi_u=np.ones((1, 1, 1)),
            grad=np.array([0.0, 1.0, 0.0]),
            eq_res=np.zeros(2),
            ineq_res=np.zeros(0),
        )
        lhs = condense_lhs(data)
        # unknowns (s0, u0, s1, lam0, lam1): [[A, -G'], [-G, 0]]
        hand = np.array([
            [1.0, 0.0, 0.0, -1.0, 0.0],
            [0.0, 1.0, 0.0, 0.0, -1.0],
            [0.0, 0.0, 1.0, 0.0, 1.0],
            [-1.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, -1.0, 1.0, 0.0, 0.0],
        ])
        assert lhs.structure.layout.bw == 2
        assert np.array_equal(band_as_dense(lhs.band, lhs.structure.layout), hand)
        sol = condense_rhs_and_solve(lhs, data, np.array([0.3]))
        assert np.max(np.abs(sol.dw - [0.3, -0.5, -0.5])) < 1e-15
        assert np.max(np.abs(sol.lam - [0.3, 0.5])) < 1e-15

    def test_empty_inequalities_give_zero_rows(self):
        rng = np.random.default_rng(1)
        data = random_ocp_qp(rng, 3, 2, 1, n_bounds=False)
        layout = data.structure.layout
        assert layout.h_pos.shape == (0,)
        assert layout.n == data.n_w + data.n_g
        assert data.structure.bounds is None

    def test_condensed_hessian_equals_schur_complement_oracle(self):
        # the band holds the dense full-space KKT matrix entry for entry,
        # and its refined solve matches a dense solve of that matrix
        rng = np.random.default_rng(2)
        for _ in range(10):
            N = int(rng.integers(1, 5))
            data = random_ocp_qp(rng, N, 3, 2)
            lhs = condense_lhs(data)
            K, _ = dense_kkt(data, np.zeros(3), range(data.n_h))
            assert lhs.structure.layout.bw == 2 * 3 + 2 + 4 - 1
            assert np.array_equal(band_as_dense(lhs.band, lhs.structure.layout), K)
            x = rng.normal(size=3)
            sol = condense_rhs_and_solve(lhs, data, x)
            ref = solve_dense_kkt(data, x, sol.active_set)
            assert relative_error((sol.dw, sol.lam, sol.mu), ref) < 1e-12

    def test_zero_vectors_and_matching_parameter_give_zero_step(self):
        rng = np.random.default_rng(4)
        data = random_ocp_qp(rng, 3, 2, 1)
        data.grad = np.zeros(data.n_w)
        data.eq_res = np.zeros(data.n_g)
        data.ineq_res = np.abs(data.ineq_res) + 0.1
        sol = condense_and_solve(data, np.zeros(2))
        assert np.max(np.abs(sol.dw)) < 1e-12
        # stationarity reproduced by the recovered multipliers
        assert full_space_kkt_residual(data, np.zeros(2), sol) < 1e-10

    def test_equality_only_matches_full_kkt_factorization(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            N = int(rng.integers(1, 6))
            n_x = int(rng.integers(1, 4))
            n_u = int(rng.integers(1, 3))
            data = random_ocp_qp(rng, N, n_x, n_u, n_bounds=False)
            x = rng.normal(size=n_x)
            sol = condense_and_solve(data, x)
            dw_ref, lam_ref, _ = solve_dense_kkt(data, x, ())
            assert np.max(np.abs(sol.dw - dw_ref)) < 1e-8
            assert np.max(np.abs(sol.lam - lam_ref)) < 1e-8

    def test_two_phase_equals_monolithic_bitwise(self):
        rng = np.random.default_rng(9)
        data = random_ocp_qp(rng, 4, 3, 2)
        x = rng.normal(size=3)
        lhs = condense_lhs(data)
        a = condense_rhs_and_solve(lhs, data, x)
        b = condense_and_solve(data, x)
        assert np.array_equal(a.dw, b.dw)
        assert np.array_equal(a.lam, b.lam)
        assert np.array_equal(a.mu, b.mu)
        # the cached matrix phase serves fresh vectors identically
        data2 = replace(
            random_ocp_qp(rng, 4, 3, 2), structure=data.structure, phi_x=data.phi_x, phi_u=data.phi_u
        )
        c = condense_rhs_and_solve(lhs, data2, x)
        d = condense_and_solve(data2, x)
        assert np.array_equal(c.dw, d.dw)

    def test_full_space_kkt_residual_on_random_structured_qps(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            N = int(rng.integers(1, 6))
            data = random_ocp_qp(rng, N, 3, 1)
            x = rng.normal(size=3)
            sol = condense_and_solve(data, x)
            assert full_space_kkt_residual(data, x, sol) < 1e-8

    def test_pendulum_qp_with_active_bound_satisfies_complementarity(self):
        spec = build_pendulum_ocp()
        nlp = transcribe(spec)
        x = np.array([0.0, 0.3, 4.0, -3.0])  # excited enough to saturate u
        z = nlp.cold_start(x)
        data = build_qp_data(nlp, z.w)
        sol = condense_and_solve(data, x)
        assert len(sol.active_set) > 0
        hval = data.ineq_res + ineq_jac_product(data.structure, sol.dw)
        for i in sol.active_set:
            assert abs(hval[i]) < 1e-8
            assert abs(sol.mu[i] * hval[i]) < 1e-10

    def test_structured_products_match_dense(self):
        rng = np.random.default_rng(13)
        data = random_ocp_qp(rng, 4, 3, 2)
        A, H = dense_blocks(data)
        G = dense_eq_jacobian(data)
        v = rng.normal(size=data.n_w)
        lam = rng.normal(size=data.n_g)
        mu = rng.normal(size=data.n_h)
        assert np.allclose(eq_jac_t_product(data.phi_x, data.phi_u, lam), G.T @ lam)
        assert np.allclose(ineq_jac_t_product(data.structure, mu), H.T @ mu)
        assert np.allclose(ineq_jac_product(data.structure, v), H @ v)
        assert np.allclose(hess_product(data.structure, v), A @ v)

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        N=st.integers(1, 5),
        n_x=st.integers(1, 4),
        n_u=st.integers(1, 3),
        m=st.integers(0, 3),
        m_T=st.integers(0, 3),
    )
    @example(seed=0, N=3, n_x=2, n_u=1, m=0, m_T=2)
    def test_structured_products_match_dense_oracle(self, seed, N, n_x, n_u, m, m_T):
        rng = np.random.default_rng(seed)
        data = with_rows(
            random_ocp_qp(rng, N, n_x, n_u, n_bounds=False),
            list(rng.normal(size=(N, m, n_x + n_u))),
            rng.normal(size=(m_T, n_x)),
            rng.normal(size=N * m + m_T),
        )
        lhs = condense_lhs(data)
        A, H = dense_blocks(data)
        G = dense_eq_jacobian(data)
        # vectors, and the same products column by column
        for cols in ((), (2,)):
            v = rng.normal(size=(data.n_w,) + cols)
            lam = rng.normal(size=(data.n_g,) + cols)
            mu = rng.normal(size=(data.n_h,) + cols)
            assert np.allclose(eq_jac_t_product(data.phi_x, data.phi_u, lam), G.T @ lam)
            assert np.allclose(ineq_jac_product(data.structure, v), H @ v)
            assert np.allclose(ineq_jac_t_product(data.structure, mu), H.T @ mu)
            assert np.allclose(hess_product(data.structure, v), A @ v)
        # stage rows touching states and terminal rows sit in the band too,
        # and the structure's band is the same matrix without [phi_x phi_u]
        K, _ = dense_kkt(data, np.zeros(n_x), range(data.n_h))
        assert np.array_equal(band_as_dense(lhs.band, data.structure.layout), K)
        no_phi = replace(data, phi_x=np.zeros_like(data.phi_x), phi_u=np.zeros_like(data.phi_u))
        K, _ = dense_kkt(no_phi, np.zeros(n_x), range(data.n_h))
        assert np.array_equal(band_as_dense(data.structure.band, data.structure.layout), K)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        N=st.integers(1, 5),
        n_x=st.integers(1, 3),
        n_u=st.integers(1, 2),
        tight=st.floats(0.02, 1.0),
    )
    def test_every_step_satisfies_its_rows_cold_and_warm(self, seed, N, n_x, n_u, tight):
        # criterion-2-style QPs with control bounds, scaled toward activity
        rng = np.random.default_rng(seed)
        data = random_ocp_qp(rng, N, n_x, n_u)
        data.ineq_res = tight * data.ineq_res
        x = rng.normal(size=n_x)
        lhs = condense_lhs(data)
        warm = tuple(np.flatnonzero(rng.random(data.n_h) < 0.3).tolist())
        for start in (None, warm):
            assert_kkt_point(data, x, condense_rhs_and_solve(lhs, data, x, warm_active=start))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        N=st.integers(1, 4),
        n_x=st.integers(1, 3),
        m=st.integers(1, 3),
        m_T=st.integers(0, 2),
        margin=st.floats(0.0, 1.0),
    )
    def test_rows_on_states_and_terminal_rows_are_solved(self, seed, N, n_x, m, m_T, margin):
        # general stage rows that read states, and terminal rows, around a
        # known feasible point; cold solves start from the minimizer with no
        # row held, warm ones from the cold solve's set
        rng = np.random.default_rng(seed)
        data = random_ocp_qp(rng, N, n_x, 1, n_bounds=False)
        data = with_rows(data, rng.normal(size=(N, m, n_x + 1)), rng.normal(size=(m_T, n_x)), None)
        x = rng.normal(size=n_x)
        shifted = data.eq_res.copy()
        shifted[:n_x] -= x
        G = dense_eq_jacobian(data)
        feasible = np.linalg.lstsq(G, -shifted, rcond=None)[0]
        margins = margin * rng.uniform(0.0, 1.0, size=N * m + m_T)
        data.ineq_res = margins - ineq_jac_product(data.structure, feasible)
        cold = condense_and_solve(data, x)
        assert_kkt_point(data, x, cold)
        assert_kkt_point(data, x, condense_and_solve(data, x, warm_active=cold.active_set))

    @pytest.mark.parametrize("warm", [None, (2,), (3,), (2, 3), (0, 3, 5)])
    def test_contradictory_rows_on_states_raise_infeasible(self, warm):
        # stage 1 asks for s_1[0] >= 1 and -s_1[0] >= 1 (rows 2 and 3); the
        # other stages' rows are zero and always met
        rng = np.random.default_rng(17)
        C = np.zeros((3, 2, 3))
        C[1, 0, 0] = 1.0
        C[1, 1, 0] = -1.0
        data = with_rows(
            random_ocp_qp(rng, 3, 2, 1, n_bounds=False), C, np.zeros((0, 2)),
            np.array([1.0, 1.0, -1.0, -1.0, 1.0, 1.0]),
        )
        with pytest.raises(QpInfeasibleError) as exc:
            condense_and_solve(data, rng.normal(size=2), warm_active=warm)
        assert exc.value.violated and set(exc.value.violated) <= {2, 3}

    @pytest.mark.parametrize("N", [20, 80])
    def test_converged_sqp_steps_meet_the_dynamics_to_their_own_scale(self, monkeypatch, N):
        # near an SQP solution both the shooting gaps and G dw are tiny, so the
        # equality residual must be small against them, not only against the
        # multipliers; an unrefined banded solve reads about 1 here
        import asrti.mli as mli_mod

        nlp = transcribe(build_pendulum_ocp(n_intervals=N))
        x = np.array([0.1, 0.15, 0.0, 0.3])
        z = sqp_solve(nlp, x, nlp.cold_start(x), tol=1e-8, max_iter=20).iterate
        qps = []
        solve = mli_mod.condense_rhs_and_solve

        def captured(lhs, data, x_qp, **kwargs):
            sol = solve(lhs, data, x_qp, **kwargs)
            qps.append((data, x_qp, sol))
            return sol

        monkeypatch.setattr(mli_mod, "condense_rhs_and_solve", captured)
        assert sqp_solve(nlp, x + 1e-3, z, tol=1e-10, max_iter=20).converged
        for data, x_qp, sol in qps:
            eq = data.eq_res.copy()
            eq[: data.n_x] -= x_qp
            G_dw = dense_eq_jacobian(data) @ sol.dw
            scale = max(np.max(np.abs(eq)), np.max(np.abs(G_dw)))
            assert np.max(np.abs(eq + G_dw)) <= 1e-6 * scale


# ---------------------------------------------------------------------------
# The constant structure
# ---------------------------------------------------------------------------


class TestQpStructure:
    @pytest.mark.parametrize("defect", ["asymmetric", "indefinite", "zero_control_block"])
    def test_bad_hessian_blocks_rejected(self, defect):
        rng = np.random.default_rng(15)
        s = random_ocp_qp(rng, 2, 2, 1).structure
        hess = s.hess_stage.copy()
        if defect == "asymmetric":
            hess[0] += np.triu(np.ones((3, 3)), 1)
            message = "block 0 is not symmetric"
        elif defect == "indefinite":
            hess[1, 0, 0] = -1.0
            message = "block 1 is not positive semidefinite"
        else:  # a positive semidefinite block that leaves the control free
            hess[1] = np.diag([1.0, 1.0, 0.0])
            message = "block 1 has a control part"
        with pytest.raises(QpSolverError, match=message):
            build_qp_structure(hess, s.hess_term, s.ineq_stage, s.ineq_term)

    @pytest.mark.parametrize("defect", ["indefinite_Q", "zero_R", "zero_scale"])
    def test_ocp_nlp_rejects_weights_without_a_convex_qp(self, defect):
        spec = build_pendulum_ocp()
        cost = spec.stage_costs[0]
        if defect == "indefinite_Q":
            Q = cost.Q.copy()
            Q[2, 2] = -1.0
            spec.stage_costs = [QuadraticStageCost(Q, c.R, c.scale) for c in spec.stage_costs]
        elif defect == "zero_R":
            spec.stage_costs = [QuadraticStageCost(c.Q, 0.0 * c.R, c.scale) for c in spec.stage_costs]
        else:
            spec.stage_costs = list(spec.stage_costs)
            spec.stage_costs[3] = QuadraticStageCost(cost.Q, cost.R, 0.0)
        with pytest.raises(QpSolverError):
            OcpNlp(spec)
        with pytest.raises(QpSolverError):
            transcribe(spec)

    @pytest.mark.parametrize("N", [20, 80])
    def test_state_weights_with_zeros_give_a_nonsingular_qp(self, N):
        # Q = diag(100, 1e3, 0, 0) makes every stage block singular; the
        # initial rows and the dynamics still pin the states down
        nlp = transcribe(build_pendulum_ocp(n_intervals=N, state_weights=(100.0, 1e3, 0.0, 0.0)))
        x = np.array([0.0, 0.3, 4.0, -3.0])
        data = build_qp_data(nlp, nlp.cold_start(x).w)
        sol = condense_and_solve(data, x)
        assert len(sol.active_set) > 0
        ref = solve_dense_kkt(data, x, sol.active_set)
        assert relative_error((sol.dw, sol.lam, sol.mu), ref) < 1e-8

    def test_linearizations_share_one_read_only_structure(self):
        nlp = transcribe(build_pendulum_ocp())
        x = np.array([0.1, 0.2, 0.0, 0.0])
        z = nlp.cold_start(x)
        first, second = build_qp_data(nlp, z.w), build_qp_data(nlp, z.w + 0.1)
        structure = first.structure
        assert second.structure is structure is nlp.qp_structure
        arrays = (structure.hess_stage, structure.hess_term, structure.ineq_stage, structure.ineq_term)
        for array in arrays + (structure.band,):
            assert not array.flags.writeable
        band = structure.band.copy()
        lhs = condense_lhs(second)
        condense_rhs_and_solve(lhs, second, x)
        assert np.array_equal(structure.band, band)
        assert lhs.band is not structure.band and not np.array_equal(lhs.band, band)


# ---------------------------------------------------------------------------
# Feedback map
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module", params=[20, 80])
def loop_qp(request):
    """A pendulum linearization at a closed-loop RTI iterate.

    Returns the NLP, the iterate, its prepared linearization, the state it
    was predicted for, the state the plant reached instead and the state a
    60 N kick would have reached.
    """
    nlp = transcribe(build_pendulum_ocp(n_intervals=request.param))
    controller = AsRtiController(nlp, ControllerConfig.from_name("rti"))
    plant = pendulum_model()
    x = np.array([0.3, 0.0, 0.0, 0.0])
    controller.prepare(x)
    for _ in range(8):
        u, _ = controller.feedback(x)
        controller.prepare(x)
        x_prev, x = x, simulate_plant(plant, x, u, 0.05)
    z = controller.iterate
    x_kick = simulate_plant(plant, x_prev, np.array([60.0]), 0.05)
    return nlp, z, prepare_linearization(nlp, z), predict_state(nlp, x_prev, z), x, x_kick


class TestFeedbackMap:
    @pytest.mark.parametrize("N", [20, 80])
    def test_hits_are_no_less_accurate_than_the_vector_phase(self, monkeypatch, N):
        # every map hit of a closed loop against the map-free vector phase
        # on the same QP and state: both reach the full-space KKT conditions
        # to roundoff
        import asrti.controller as ctrl_mod

        pairs = []
        solve = ctrl_mod.condense_rhs_and_solve

        def compared(lhs, data, x, warm_active=None):
            sol = solve(lhs, data, x, warm_active=warm_active)
            if sol.iterations == 0:
                fmap, lhs.feedback_map = lhs.feedback_map, None
                plain = condense_rhs_and_solve(lhs, data, x, warm_active=warm_active)
                lhs.feedback_map = fmap
                assert sol.active_set == plain.active_set
                pairs.append([full_space_kkt_residual(data, x, s) for s in (sol, plain)])
            return sol

        monkeypatch.setattr(ctrl_mod, "condense_rhs_and_solve", compared)
        cfg = ScenarioConfig()
        run_scenario(
            build_pendulum_ocp(n_intervals=N), pendulum_model(), ControllerConfig.from_name("rti"),
            draw_scenario(cfg, 0), cfg, collect_kkt_metrics=False,
        )
        hit, plain = np.array(pairs).T
        assert len(pairs) > 70
        assert max(hit.max(), plain.max()) < 1e-11

    def test_vector_phase_and_map_match_the_dense_kkt_oracle(self, loop_qp):
        # a closed-loop linearization, once with no bound active and once
        # after a 60 N kick with one active; the map is built at a nearby state
        _, _, prep, x_pred, x, x_kick = loop_qp
        lhs, data = prep.lhs, prep.data
        sets = []
        for at, x_eval in ((x_pred, x), (x_kick, 0.9 * x_kick + 0.1 * x)):
            lhs.feedback_map = None
            sol = condense_rhs_and_solve(lhs, data, x_eval)
            prepare_feedback_map(lhs, data, at, warm_active=sol.active_set)
            hit = condense_rhs_and_solve(lhs, data, x_eval)
            lhs.feedback_map = None
            assert (hit.iterations, hit.active_set) == (0, sol.active_set)
            ref = solve_dense_kkt(data, x_eval, sol.active_set)
            for s in (sol, hit):
                assert relative_error((s.dw, s.lam, s.mu), ref) < 1e-10
            sets.append(sol.active_set)
        assert sets[0] == () and len(sets[1]) == 1

    def test_miss_after_a_kick_returns_the_vector_phase(self, loop_qp):
        _, _, prep, x_pred, _, x_kick = loop_qp
        prepare_feedback_map(prep.lhs, prep.data, x_pred)
        at_pred = condense_rhs_and_solve(prep.lhs, prep.data, x_pred)
        assert at_pred.iterations == 0
        miss = condense_rhs_and_solve(prep.lhs, prep.data, x_kick)
        prep.lhs.feedback_map = None
        plain = condense_rhs_and_solve(prep.lhs, prep.data, x_kick, warm_active=at_pred.active_set)
        assert miss.iterations > 0
        for field in ("dw", "lam", "mu"):
            assert np.array_equal(getattr(miss, field), getattr(plain, field))
        assert (miss.active_set, miss.iterations) == (plain.active_set, plain.iterations)

    @pytest.mark.parametrize("level", [level_b, level_c])
    def test_levels_b_and_c_are_unchanged_by_a_map(self, loop_qp, level):
        nlp, z, prep, x_pred, _, _ = loop_qp
        prep.lhs.feedback_map = None
        plain = level(prep, nlp, x_pred, z, 2)
        prepare_feedback_map(prep.lhs, prep.data, x_pred)
        mapped = level(prep, nlp, x_pred, z, 2)
        assert np.array_equal(plain.stacked(), mapped.stacked())

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        N=st.integers(1, 5),
        n_x=st.integers(1, 3),
        n_u=st.integers(1, 2),
        scale=st.floats(0.0, 2.0),
    )
    def test_map_point_solves_the_qp_while_its_check_passes(self, seed, N, n_x, n_u, scale):
        # criterion-2-style QPs; the map holds the cold solve's set at x_pred
        rng = np.random.default_rng(seed)
        data = random_ocp_qp(rng, N, n_x, n_u)
        x_pred = rng.normal(size=n_x)
        lhs = condense_lhs(data)
        prepare_feedback_map(lhs, data, x_pred, condense_and_solve(data, x_pred).active_set)
        map_set = condense_rhs_and_solve(lhs, data, x_pred).active_set
        x = x_pred + scale * rng.normal(size=n_x)
        sol = condense_rhs_and_solve(lhs, data, x)
        if sol.iterations == 0:
            assert full_space_kkt_residual(data, x, sol) < 1e-8
        if condense_and_solve(data, x).active_set != map_set:
            assert sol.iterations > 0
