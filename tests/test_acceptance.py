"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  The closed-loop benchmark (criteria 6 and 7) runs once
per session and takes a few minutes on a single core.
"""

import itertools
import time

import numpy as np
import pytest

from asrti.benchmark import (
    DEFAULT_ALGORITHMS,
    BenchmarkOptions,
    build_pendulum_ocp,
    pendulum_model,
    run_benchmark,
)
from asrti.integrators import radau3_step
from asrti.mli import (
    beta_vector,
    estimate_contraction,
    level_a,
    level_b,
    level_c,
    level_d,
    prepare_linearization,
    sqp_solve,
)
from asrti.nlp import Iterate, eval_kkt, transcribe
from asrti.qp import OcpQpData, build_qp_structure, condense_and_solve, solve_dense_qp


def verdict(name, ok, detail):
    print(f"[{name}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. dense QP solver vs exhaustive active-set enumeration
# ---------------------------------------------------------------------------


def enumerate_qp(H, q, C, d, tol=1e-9):
    n, m = H.shape[0], C.shape[0]
    for r in range(0, min(n, m) + 1):
        for subset in itertools.combinations(range(m), r):
            S = list(subset)
            K = np.zeros((n + r, n + r))
            K[:n, :n] = H
            if r:
                K[:n, n:] = -C[S].T
                K[n:, :n] = C[S]
            try:
                sol = np.linalg.solve(K, np.concatenate([-q, d[S]]))
            except np.linalg.LinAlgError:
                continue
            x, mu_S = sol[:n], sol[n:]
            if np.any(mu_S < -tol) or np.any(C @ x - d < -tol):
                continue
            mu = np.zeros(m)
            mu[S] = np.maximum(mu_S, 0.0)
            return x, mu
    raise RuntimeError("enumeration found no KKT point")


def test_criterion_1_qp_oracle_equivalence():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 7))
        A = rng.normal(size=(n, n))
        H = A @ A.T + n * np.eye(n)
        q = rng.normal(size=n)
        C = rng.normal(size=(m, n))
        d = C @ rng.normal(size=n) - rng.uniform(0.1, 2.0, size=m)
        res = solve_dense_qp(H, q, C, d)
        x_ref, mu_ref = enumerate_qp(H, q, C, d)
        worst = max(worst, np.max(np.abs(res.x - x_ref)), np.max(np.abs(res.mu - mu_ref)))
    elapsed = time.perf_counter() - t0
    verdict(
        "criterion 1: QP oracle equivalence",
        worst < 1e-8 and elapsed < 10.0,
        f"200 QPs, worst primal/dual deviation {worst:.2e}, {elapsed:.1f} s",
    )


# ---------------------------------------------------------------------------
# 2. two-phase condensing vs dense full-KKT factorization
# ---------------------------------------------------------------------------


def random_ocp_qp(rng, N, n_x, n_u, with_bounds):
    stride = n_x + n_u
    hess_blocks = []
    for _ in range(N):
        A = rng.normal(size=(stride, stride))
        hess_blocks.append(A @ A.T + stride * np.eye(stride))
    At = rng.normal(size=(n_x, n_x))
    hess_blocks.append(At @ At.T + n_x * np.eye(n_x))
    if with_bounds:
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
        phi_x=rng.normal(size=(N, n_x, n_x)) * 0.7,
        phi_u=rng.normal(size=(N, n_x, n_u)),
        grad=rng.normal(size=n_w),
        eq_res=rng.normal(size=(N + 1) * n_x),
        ineq_res=ineq_res,
    )


def dense_pieces(data):
    N, n_x, n_u = data.N, data.n_x, data.n_u
    stride = n_x + n_u
    A = np.zeros((data.n_w, data.n_w))
    for k in range(N):
        A[k * stride : (k + 1) * stride, k * stride : (k + 1) * stride] = data.hess_blocks[k]
    A[N * stride :, N * stride :] = data.hess_blocks[N]
    G = np.zeros((data.n_g, data.n_w))
    G[:n_x, :n_x] = np.eye(n_x)
    for k in range(N):
        rows = slice((k + 1) * n_x, (k + 2) * n_x)
        G[rows, k * stride : k * stride + n_x] = data.phi_x[k]
        G[rows, k * stride + n_x : (k + 1) * stride] = data.phi_u[k]
        G[rows, (k + 1) * stride : (k + 1) * stride + n_x] = -np.eye(n_x)
    H = np.zeros((data.n_h, data.n_w))
    row = 0
    for k in range(N):
        m = data.ineq_stage_blocks[k].shape[0]
        if m:
            H[row : row + m, k * stride : (k + 1) * stride] = data.ineq_stage_blocks[k]
            row += m
    return A, G, H


def test_criterion_2_condensing_equivalence():
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    worst_kkt = 0.0
    worst_oracle = 0.0
    for i in range(100):
        N = int(rng.integers(1, 6))
        n_x = int(rng.integers(1, 4))
        n_u = int(rng.integers(1, 3))
        with_bounds = bool(i % 2)
        data = random_ocp_qp(rng, N, n_x, n_u, with_bounds)
        x = rng.normal(size=n_x)
        sol = condense_and_solve(data, x)
        A, G, H = dense_pieces(data)
        eq = data.eq_res.copy()
        eq[:n_x] -= x
        stat = data.grad + A @ sol.dw - G.T @ sol.lam
        if data.n_h:
            stat -= H.T @ sol.mu
        kkt = max(np.max(np.abs(stat)), np.max(np.abs(eq + G @ sol.dw)))
        if data.n_h:
            hval = data.ineq_res + H @ sol.dw
            kkt = max(kkt, -min(0.0, np.min(hval)), np.max(np.abs(sol.mu * hval)))
        worst_kkt = max(worst_kkt, kkt)
        if not with_bounds:
            n_w, n_g = data.n_w, data.n_g
            K = np.zeros((n_w + n_g, n_w + n_g))
            K[:n_w, :n_w] = A
            K[:n_w, n_w:] = -G.T
            K[n_w:, :n_w] = G
            ref = np.linalg.solve(K, np.concatenate([-data.grad, -eq]))
            worst_oracle = max(
                worst_oracle,
                np.max(np.abs(sol.dw - ref[:n_w])),
                np.max(np.abs(sol.lam - ref[n_w:])),
            )
    elapsed = time.perf_counter() - t0
    verdict(
        "criterion 2: condensing equivalence",
        worst_kkt < 1e-8 and worst_oracle < 1e-8 and elapsed < 10.0,
        f"100 structured QPs, worst full-space KKT {worst_kkt:.2e}, "
        f"worst vs dense-KKT oracle {worst_oracle:.2e}, {elapsed:.1f} s",
    )


# ---------------------------------------------------------------------------
# 3. integrator order and sensitivity accuracy
# ---------------------------------------------------------------------------


def test_criterion_3_integrator_order():
    from asrti.integrators import OdeModel

    model = OdeModel(
        n_x=1,
        n_u=1,
        rhs=lambda x, u: -x**3 + u,
        jac_x=lambda x, u: np.array([[-3.0 * x[0] ** 2]]),
        jac_u=lambda x, u: np.ones((1, 1)),
    )
    exact = 1.0 / np.sqrt(3.0)
    hs = np.array([1e-2, 10**-2.5, 1e-3, 10**-3.5, 1e-4])
    errs = []
    for h in hs:
        steps = int(round(1.0 / h))
        x = np.array([1.0])
        for _ in range(steps):
            x = radau3_step(model, x, np.zeros(1), 1.0 / steps, sensitivities=False).x_next
        errs.append(abs(x[0] - exact))
    errs = np.array(errs)
    keep = errs > 1e-12
    slope = np.polyfit(np.log(hs[keep]), np.log(errs[keep]), 1)[0]

    pend = pendulum_model()
    rng = np.random.default_rng(5)
    worst_rel = 0.0
    for _ in range(20):
        x = rng.uniform(-1, 1, size=4)
        u = rng.uniform(-30, 30, size=1)
        res = radau3_step(pend, x, u, 0.05)
        eps = 1e-6
        for j in range(4):
            dx = np.zeros(4)
            dx[j] = eps
            fd = (radau3_step(pend, x + dx, u, 0.05).x_next - radau3_step(pend, x - dx, u, 0.05).x_next) / (2 * eps)
            worst_rel = max(worst_rel, np.max(np.abs(res.S_x[:, j] - fd) / (1.0 + np.abs(fd))))
        fd = (radau3_step(pend, x, u + eps, 0.05).x_next - radau3_step(pend, x, u - eps, 0.05).x_next) / (2 * eps)
        worst_rel = max(worst_rel, np.max(np.abs(res.S_u[:, 0] - fd) / (1.0 + np.abs(fd))))
    verdict(
        "criterion 3: integrator order",
        abs(slope - 3.0) <= 0.3 and worst_rel < 1e-5,
        f"log-log slope {slope:.3f}, worst sensitivity deviation {worst_rel:.2e}",
    )


# ---------------------------------------------------------------------------
# 4 & 5. level-B fixed point identity, contraction ordering
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def advanced_problem():
    nlp = transcribe(build_pendulum_ocp())
    x_hat = np.array([0.15, 0.1, 0.0, 0.2])
    z_hat = sqp_solve(nlp, x_hat, nlp.cold_start(x_hat), tol=1e-12, max_iter=50).iterate
    u0 = nlp.first_control(z_hat.w)
    x_pred = radau3_step(pendulum_model(), x_hat, u0, 0.05, sensitivities=False).x_next
    prep = prepare_linearization(nlp, z_hat)
    return nlp, z_hat, x_pred, prep


def test_criterion_4_level_b_fixed_point_identity(advanced_problem):
    nlp, z_hat, x_pred, prep = advanced_problem
    z_b = level_b(prep, nlp, x_pred, z_hat, 80)
    kkt = eval_kkt(nlp, z_b, x_pred)
    beta = beta_vector(prep, z_b, nlp)
    gap = abs(kkt.stat - np.max(np.abs(beta)))
    verdict(
        "criterion 4: level-B fixed point identity",
        kkt.eq <= 1e-8 and gap <= 1e-6,
        f"equality residual {kkt.eq:.2e}, |stat - ||beta||_inf| = {gap:.2e} "
        f"(stat {kkt.stat:.3e})",
    )


def test_criterion_5_contraction_ordering(advanced_problem):
    nlp, z_hat, x_pred, prep = advanced_problem
    z_star = sqp_solve(nlp, x_pred, z_hat, tol=1e-12, max_iter=50).iterate

    def error_sequence(step):
        errs = [float(np.linalg.norm(z_hat.stacked() - z_star.stacked()))]
        z = z_hat
        for _ in range(5):
            z = step(z)
            e = float(np.linalg.norm(z.stacked() - z_star.stacked()))
            if e < 1e-12:
                break
            errs.append(e)
        return np.array(errs)

    errs_c = error_sequence(lambda z: level_c(prep, nlp, x_pred, z, 1))
    errs_d = error_sequence(lambda z: level_d(nlp, x_pred, z, 1))
    mono_c = bool(np.all(np.diff(errs_c) < 0))
    mono_d = bool(np.all(np.diff(errs_d) < 0))
    diag_c = estimate_contraction(errs_c)
    diag_d = estimate_contraction(errs_d)
    verdict(
        "criterion 5: contraction ordering",
        mono_c and mono_d and diag_d.kappa <= diag_c.kappa,
        f"monotone C={mono_c} D={mono_d}, terminal ratios "
        f"kappa_D={diag_d.kappa:.3f} <= kappa_C={diag_c.kappa:.3f}",
    )


# ---------------------------------------------------------------------------
# 6 & 7. closed-loop benchmark orderings and timing split
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def benchmark_run():
    t0 = time.perf_counter()
    result = run_benchmark(DEFAULT_ALGORITHMS, options=BenchmarkOptions(), jobs=1)
    elapsed = time.perf_counter() - t0
    return result, elapsed


def test_criterion_6_benchmark_orderings(benchmark_run):
    result, elapsed = benchmark_run
    rows = {r.algorithm: r for r in result.rows}
    rti = rows["rti"]
    others = [r for name, r in rows.items() if name != "rti" and name.startswith("as-rti")]

    # Every level iterates on the controller's own 20-interval OCP, whose
    # converged solution (sqp-100) is the limit the inner iterations can
    # reach.  Its gap to the fine-grid reference is a discretization
    # floor, so (b) and (c) measure each level's excess over it.
    floor = rows["sqp-100"].rel_subopt_pct

    def excess(name):
        return rows[name].rel_subopt_pct - floor

    ok_a = rti.rel_subopt_pct >= 1.0 and all(
        r.rel_subopt_pct < rti.rel_subopt_pct for r in others
    )
    ok_b = excess("as-rti-a") <= excess("rti") / 3.0
    ok_c = excess("as-rti-d-2") <= 0.2 and excess("as-rti-c-2") <= 0.2
    ok_d = all(
        rows[f"as-rti-b-{n}"].mean_g_norm_x1e3 < rti.mean_g_norm_x1e3
        and rows[f"as-rti-b-{n}"].rel_subopt_pct > rows[f"as-rti-c-{n}"].rel_subopt_pct
        for n in (1, 2)
    )
    ok_fail = all(r.failed_scenarios == 0 for r in result.rows)
    ok_time = elapsed < 300.0
    table = ", ".join(f"{r.algorithm}={r.rel_subopt_pct:.3f}%" for r in result.rows)
    excesses = ", ".join(f"{r.algorithm}={excess(r.algorithm):+.3f}" for r in [rti, *others])
    verdict(
        "criterion 6: benchmark orderings",
        ok_a and ok_b and ok_c and ok_d and ok_fail and ok_time,
        f"(a)RTI worst&>=1%:{ok_a} (b)A-S<=(RTI-S)/3:{ok_b} (c)C2-S,D2-S<=0.2%:{ok_c} "
        f"(d)B signature:{ok_d} failures=0:{ok_fail} runtime {elapsed:.0f}s<300s:{ok_time} | "
        f"{table} | S=sqp-100={floor:.3f}%, excess over S: {excesses}",
    )


def test_criterion_7_timing_split(benchmark_run):
    result, _ = benchmark_run
    rows = {r.algorithm: r for r in result.rows}
    as_rti = {n: r for n, r in rows.items() if n.startswith("as-rti")}
    ok_split = all(r.max_feedback_ms < r.max_prep_ms for r in as_rti.values())
    pure = all(
        max(m.max_feedback_evals for m in result.per_scenario[name]) == 0
        for name in list(as_rti) + ["rti"]
    )
    ok_sqp = all(rows[n].max_prep_ms <= 0.5 for n in ("sqp-2", "sqp-100"))
    detail = ", ".join(
        f"{n}: prep {r.max_prep_ms:.2f} / fb {r.max_feedback_ms:.2f} ms" for n, r in rows.items()
    )
    verdict(
        "criterion 7: timing split",
        ok_split and pure and ok_sqp,
        f"fb<prep:{ok_split} zero feedback evals:{pure} sqp prep~0:{ok_sqp} | {detail}",
    )


# ---------------------------------------------------------------------------
# 8. predictor-corrector scaling
# ---------------------------------------------------------------------------


def test_criterion_8_predictor_corrector_scaling():
    nlp = transcribe(build_pendulum_ocp())
    x0 = np.zeros(4)
    z0 = Iterate(np.zeros(nlp.n_w), np.zeros(nlp.n_g), np.zeros(nlp.n_h))
    prep = prepare_linearization(nlp, z0)
    rng = np.random.default_rng(6)
    direction = rng.normal(size=4)
    direction /= np.linalg.norm(direction)
    sizes = np.logspace(-3, -1, 7)  # two decades
    errors = []
    fixed_active = True
    for eps in sizes:
        z_fb = level_a(prep, x0 + eps * direction)
        fixed_active &= bool(np.all(z_fb.mu == 0.0))
        z_ref = sqp_solve(nlp, x0 + eps * direction, z_fb, tol=1e-12, max_iter=50).iterate
        errors.append(float(np.linalg.norm(z_fb.stacked() - z_ref.stacked())))
    slope = np.polyfit(np.log(sizes), np.log(np.array(errors)), 1)[0]
    verdict(
        "criterion 8: predictor-corrector scaling",
        slope >= 1.9 and fixed_active,
        f"log-log slope {slope:.3f} over two decades, active set fixed: {fixed_active}",
    )
