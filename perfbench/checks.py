"""Independent checks of the closed loop's outputs.

Nothing here calls into ``asrti``: the plant is re-integrated from
cart-pole equations of motion written out below and solved by scipy's
DOP853, and the KKT conditions of a feedback QP are assembled with plain
numpy from the fields of the ``OcpQpData`` the controller solved.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

__all__ = ["PLANT_TOL", "KKT_TOL", "cart_pole_rhs", "plant_gap", "qp_kkt_residual"]

# The plant simulator takes ten 2-stage Radau IIA steps (order 3) per
# 0.05 s interval.  Its worst gap to DOP853 at rtol = atol = 1e-12 over
# 200 random states (|p| <= 1, |theta| <= 0.8, |v| <= 2, |omega| <= 3) and
# forces (|F| <= 100 N) is 9.2e-6; 1e-4 leaves room for that truncation
# error and still catches a step perturbed by 1e-3.
PLANT_TOL = 1e-4
# Largest KKT residual of a feedback QP, each condition taken relative to
# the largest term that enters it.  Full condensing leaves correctly solved
# QPs at up to 5.5e-4 on the 80-interval grids (condensed Hessian condition
# numbers near 1e14); the non-optimal stops of the dense solver read 3e-2
# and more.
KKT_TOL = 5e-3


def cart_pole_rhs(params):
    """Cart-pole ODE from its Lagrangian, with the pole angle 0 upright.

    The pole mass sits at ``(p - l sin(theta), l cos(theta))``.  The mass
    matrix ``[[M + m, -m l c], [-m l c, m l^2]]`` times ``(v', omega')``
    equals ``(F - m l s omega^2, m g l s)``.
    """
    M, m, l, g = params.cart_mass, params.pole_mass, params.length, params.gravity

    def rhs(_, x, force):
        _, th, v, om = x
        s, c = np.sin(th), np.cos(th)
        mass = np.array([[M + m, -m * l * c], [-m * l * c, m * l * l]])
        gen = np.array([force - m * l * s * om * om, m * g * l * s])
        vdot, omdot = np.linalg.solve(mass, gen)
        return [v, om, vdot, omdot]

    return rhs


def plant_gap(rhs, x, u, dt, x_next):
    """Infinity-norm gap between ``x_next`` and a DOP853 solve from ``x``."""
    sol = solve_ivp(
        rhs, (0.0, dt), np.asarray(x, dtype=float), method="DOP853",
        rtol=1e-12, atol=1e-12, args=(float(u[0]),),
    )
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return float(np.max(np.abs(sol.y[:, -1] - x_next)))


def _stage_products(data, dw, lam, mu):
    """``A dw``, ``G dw``, ``G' lam``, ``H dw`` and ``H' mu``, stage by stage.

    ``A`` is block diagonal; the rows of ``G`` read ``s_0`` and then
    ``phi_x[k] s_k + phi_u[k] u_k - s_{k+1}``; each stage's inequality rows
    touch only that stage's ``(s_k, u_k)`` and the terminal rows ``s_N``.
    Every stage must have the same number of inequality rows.
    """
    N, n_x = data.N, data.n_x
    stride = n_x + data.n_u
    split = N * stride
    W, s_N = dw[:split].reshape(N, stride), dw[split:]
    S, U = W[:, :n_x], W[:, n_x:]
    Adw = np.concatenate([
        np.einsum("kij,kj->ki", np.asarray(data.hess_blocks[:N]), W).ravel(),
        data.hess_blocks[N] @ s_N,
    ])
    S_next = np.vstack([S[1:], s_N])
    Gdw = np.concatenate([
        S[0],
        (np.einsum("kij,kj->ki", data.phi_x, S) + np.einsum("kij,kj->ki", data.phi_u, U) - S_next).ravel(),
    ])
    L = lam[n_x:].reshape(N, n_x)
    GtL = np.zeros((N + 1, stride))
    GtL[:N, :n_x] = np.einsum("kji,kj->ki", data.phi_x, L)
    GtL[:N, n_x:] = np.einsum("kji,kj->ki", data.phi_u, L)
    GtL[0, :n_x] += lam[:n_x]
    GtL[1:, :n_x] -= L
    Glam = np.concatenate([GtL[:N].ravel(), GtL[N, :n_x]])
    # the study's stage constraints are the same two bound rows at every stage
    C = np.stack(data.ineq_stage_blocks)
    m = C.shape[1]
    mu_stage, mu_term = mu[: N * m].reshape(N, m), mu[N * m :]
    Hdw = np.concatenate([np.einsum("kij,kj->ki", C, W).ravel(), data.ineq_term_block @ s_N])
    Hmu = np.concatenate([
        np.einsum("kji,kj->ki", C, mu_stage).ravel(), data.ineq_term_block.T @ mu_term,
    ])
    return Adw, Gdw, Glam, Hdw, Hmu


def qp_kkt_residual(data, x, dw, lam, mu):
    """Largest relative KKT residual of ``(dw, lam, mu)`` for the QP in ``data``.

    The QP is ``min grad'dw + dw'A dw / 2`` subject to
    ``eq_res - [x; 0] + G dw = 0`` and ``ineq_res + H dw >= 0``, with the
    Lagrangian ``f - lam'(...) - mu'(...)``.  Each condition is divided by
    the largest infinity norm among the terms that enter it.
    """
    Adw, Gdw, Glam, Hdw, Hmu = _stage_products(data, dw, lam, mu)

    def norm(v):
        return float(np.max(np.abs(v))) if np.size(v) else 0.0

    def rel(resid, *terms):
        return norm(resid) / max(max(norm(t) for t in terms), 1e-300)

    shifted = data.eq_res.copy()
    shifted[: data.n_x] -= np.asarray(x, dtype=float)
    slack = data.ineq_res + Hdw
    return max(
        rel(data.grad + Adw - Glam - Hmu, data.grad, Adw, Glam, Hmu),
        rel(shifted + Gdw, shifted, Gdw),
        rel(np.minimum(slack, 0.0), data.ineq_res, Hdw),
        rel(np.minimum(mu, 0.0), mu),
        norm(mu * slack) / max(norm(mu) * max(norm(data.ineq_res), norm(Hdw)), 1e-300),
    )
