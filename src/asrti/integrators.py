"""Implicit Radau IIA integration with exact step sensitivities.

The discrete-time dynamics used throughout the optimal control layer are
produced by a single 2-stage Radau IIA step (order 3) per shooting
interval.  The stage equations are solved by a full Newton iteration and
the sensitivities of the step map are recovered from the implicit
function theorem on the converged stage system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "OdeModel",
    "IntegrationResult",
    "IntegrationError",
    "radau3_step",
    "radau3_step_batch",
    "simulate_plant",
]

# 2-stage Radau IIA tableau, c = (1/3, 1).  The quadrature weights equal
# the last row of the stage matrix, so the step lands on the second stage.
RADAU_A = np.array([[5.0 / 12.0, -1.0 / 12.0], [3.0 / 4.0, 1.0 / 4.0]])
RADAU_C = np.array([1.0 / 3.0, 1.0])
RADAU_B = RADAU_A[1].copy()

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 20


class IntegrationError(RuntimeError):
    """Newton iteration on the stage equations failed to converge."""


@dataclass
class OdeModel:
    """Continuous-time model ``xdot = rhs(x, u)`` with analytic Jacobians.

    ``rhs`` maps ``(x, u) -> xdot``; ``jac_x`` and ``jac_u`` return
    ``d xdot / dx`` (n_x, n_x) and ``d xdot / du`` (n_x, n_u).  All three
    callbacks must broadcast over one leading batch axis: given states
    ``(N, n_x)`` and controls ``(N, n_u)`` they return ``(N, n_x)``,
    ``(N, n_x, n_x)`` and ``(N, n_x, n_u)``.  The transcription layer
    integrates all shooting intervals in one batched step.
    """

    n_x: int
    n_u: int
    rhs: Callable[[np.ndarray, np.ndarray], np.ndarray]
    jac_x: Callable[[np.ndarray, np.ndarray], np.ndarray]
    jac_u: Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass
class IntegrationResult:
    """One integration step together with its first-order sensitivities."""

    x_next: np.ndarray
    S_x: Optional[np.ndarray]  # d x_next / d x, (n_x, n_x)
    S_u: Optional[np.ndarray]  # d x_next / d u, (n_x, n_u)
    newton_iters: int = 0


def _radau(model: OdeModel, x, u, h, sensitivities):
    """Radau IIA Newton loop on one state ``(n_x,)`` or a batch ``(N, n_x)``.

    ``h`` broadcasts against ``x``: a scalar for one state, ``(N, 1)`` for
    a batch.  All batch entries share the Newton sweep, which stops once
    every entry satisfies the stage tolerance.  Returns ``(x_next, S_x,
    S_u, iters)``; the sensitivity arrays are None when not requested.
    """
    n = model.n_x
    hb = h[..., None] if np.ndim(h) else h  # broadcasts against (n, n) blocks
    JR = np.empty(x.shape[:-1] + (2 * n, 2 * n))
    eye2n = np.eye(2 * n)

    def stage_jacobian(X1, X2):
        # stage-residual Jacobian at (X1, X2), filled into JR
        J1 = model.jac_x(X1, u)
        J2 = model.jac_x(X2, u)
        JR[..., :n, :n] = -hb * RADAU_A[0, 0] * J1
        JR[..., :n, n:] = -hb * RADAU_A[0, 1] * J1
        JR[..., n:, :n] = -hb * RADAU_A[1, 0] * J2
        JR[..., n:, n:] = -hb * RADAU_A[1, 1] * J2
        JR[...] += eye2n
        return J1, J2

    f0 = model.rhs(x, u)
    K = np.concatenate([f0, f0], axis=-1)  # warm guess: slope at x
    for it in range(1, NEWTON_MAX_ITER + 1):
        X1 = x + h * (RADAU_A[0, 0] * K[..., :n] + RADAU_A[0, 1] * K[..., n:])
        X2 = x + h * (RADAU_A[1, 0] * K[..., :n] + RADAU_A[1, 1] * K[..., n:])
        res = np.concatenate([K[..., :n] - model.rhs(X1, u), K[..., n:] - model.rhs(X2, u)], axis=-1)
        if not np.all(np.isfinite(res)):
            raise IntegrationError("stage residual became non-finite")
        if np.max(np.abs(res)) <= NEWTON_TOL:
            break
        stage_jacobian(X1, X2)
        K = K - np.linalg.solve(JR, res[..., None])[..., 0]
    else:
        raise IntegrationError(
            f"stage Newton did not reach {NEWTON_TOL:g} within {NEWTON_MAX_ITER} "
            f"iterations (residual {np.max(np.abs(res)):.2e})"
        )

    x_next = x + h * (RADAU_B[0] * K[..., :n] + RADAU_B[1] * K[..., n:])
    if not sensitivities:
        return x_next, None, None, it

    # Implicit function theorem on the converged stage system, solved for
    # [J_x | J_u] at once.
    J1, J2 = stage_jacobian(X1, X2)
    rhs = np.empty(x.shape[:-1] + (2 * n, n + model.n_u))
    rhs[..., :n, :n] = J1
    rhs[..., n:, :n] = J2
    rhs[..., :n, n:] = model.jac_u(X1, u)
    rhs[..., n:, n:] = model.jac_u(X2, u)
    dK = np.linalg.solve(JR, rhs)
    S = hb * (RADAU_B[0] * dK[..., :n, :] + RADAU_B[1] * dK[..., n:, :])
    return x_next, S[..., :n] + np.eye(n), S[..., n:], it


def radau3_step(model: OdeModel, x, u, h, sensitivities=True) -> IntegrationResult:
    """Advance ``x`` by one 2-stage Radau IIA step of length ``h``.

    The stage slopes K solve ``K_i = rhs(x + h * sum_j a_ij K_j, u)``.
    A full Newton iteration with refactorization in every sweep drives
    the stage residual below ``NEWTON_TOL`` in infinity norm.  The
    sensitivities reuse one more factorization, taken at the converged
    stages; it is skipped when they are not requested.
    """
    if h <= 0.0:
        raise ValueError(f"step length must be positive, got {h}")
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    return IntegrationResult(*_radau(model, x, u, h, sensitivities))


def radau3_step_batch(model: OdeModel, xs, us, hs, sensitivities=True):
    """Solve a batch of independent Radau IIA steps in lockstep.

    ``xs`` is (N, n_x), ``us`` (N, n_u) and ``hs`` (N,); the model's
    callbacks must broadcast over the leading batch axis.  Returns
    ``(x_next, S_x, S_u, iters)`` with batched shapes; the sensitivity
    arrays are None when not requested.  All systems share the Newton
    sweep and the iteration stops once every batch entry satisfies the
    stage tolerance.
    """
    xs = np.asarray(xs, dtype=float)
    us = np.asarray(us, dtype=float)
    hs = np.asarray(hs, dtype=float)
    if np.any(hs <= 0.0):
        raise ValueError("all step lengths must be positive")
    return _radau(model, xs, us, hs[:, None], sensitivities)


def simulate_plant(model: OdeModel, x, u, dt, substeps=10) -> np.ndarray:
    """Propagate the plant over one sampling interval with constant input.

    Applies ``radau3_step`` ``substeps`` times with step ``dt / substeps``;
    no sensitivities are computed.
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    h = dt / substeps
    x = np.asarray(x, dtype=float)
    for _ in range(substeps):
        x = radau3_step(model, x, u, h, sensitivities=False).x_next
    return x
