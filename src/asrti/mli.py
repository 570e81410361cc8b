"""SQP iterations at the four inexactness levels A, B, C and D.

All levels solve the same structured QP; they differ in which QP data is
re-evaluated at the current iterate and which is frozen at a reference
point:

* level D: full SQP, everything re-evaluated;
* level C: matrices frozen, residuals exact, gradient corrected so the
  QP stationarity uses the exact Lagrange gradient;
* level B: matrices frozen, only constraint residuals evaluated, gradient
  approximated from the frozen Hessian (zero-order iterations);
* level A: nothing re-evaluated, a single re-solve of the prepared QP
  with a new parameter.

Primal variables are updated with the full QP step, multipliers are taken
absolutely from each QP solution.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List

import numpy as np

from .nlp import Iterate, KktResidual, OcpNlp, _kkt_vectors_from_data, eval_kkt
from .qp import (
    CondensedLhs,
    OcpQpData,
    QpSolution,
    build_qp_data,
    condense_lhs,
    condense_rhs_and_solve,
    eq_jac_t_product,
    hess_product,
)

__all__ = [
    "PreparedLinearization",
    "MliConfig",
    "ContractionDiagnostics",
    "IterationRecord",
    "SqpResult",
    "prepare_linearization",
    "sqp_solve",
    "level_a",
    "level_b",
    "level_c",
    "level_d",
    "beta_vector",
    "estimate_contraction",
]


@dataclass
class PreparedLinearization:
    """Frozen QP data at a reference point, ready for cheap re-solves.

    Holds the reference iterate, the full QP data evaluated there (with
    the plain objective gradient) and the QP's matrix phase.
    """

    ref: Iterate
    data: OcpQpData
    lhs: CondensedLhs


@dataclass
class MliConfig:
    """Inner-iteration level and count for the preparation phase."""

    level: str
    inner_iterations: int = 1

    def __post_init__(self):
        self.level = self.level.upper()
        if self.level not in ("A", "B", "C", "D"):
            raise ValueError(f"unknown MLI level {self.level!r}")
        if self.level == "A":
            self.inner_iterations = 1
        if self.inner_iterations < 1:
            raise ValueError("inner_iterations must be >= 1")


@dataclass
class IterationRecord:
    """One SQP/MLI iteration: residuals before the step and its size."""

    index: int
    stat: float
    eq: float
    step_norm: float


@dataclass
class SqpResult:
    iterate: Iterate
    kkt: KktResidual
    converged: bool
    iterations: int
    log: List[IterationRecord]


def prepare_linearization(nlp: OcpNlp, z: Iterate) -> PreparedLinearization:
    """Evaluate full QP data at ``z`` and run the QP's matrix phase."""
    data = build_qp_data(nlp, z.w)
    return PreparedLinearization(z.copy(), data, condense_lhs(data))


def _apply_step(z: Iterate, sol: QpSolution) -> Iterate:
    """Full step: primal delta update, multipliers taken absolutely."""
    return Iterate(z.w + sol.dw, sol.lam.copy(), sol.mu.copy())


def _trace_point(nlp, z, x, trace):
    if trace is not None:
        kkt = eval_kkt(nlp, z, x)
        trace.append((max(kkt.eq, kkt.ineq), kkt.stat))


# ---------------------------------------------------------------------------
# Full SQP (level D machinery)
# ---------------------------------------------------------------------------


def sqp_solve(nlp: OcpNlp, x, z0: Iterate, tol=1e-8, max_iter=100) -> SqpResult:
    """Full SQP with fresh QP data per iterate, run to a KKT tolerance.

    Stops once all four residuals drop below ``tol`` or the iteration cap
    is reached; the final iterate is returned either way together with a
    convergence flag and per-iteration records.
    """
    x = np.asarray(x, dtype=float)
    z = z0.copy()
    log: List[IterationRecord] = []
    warm = None
    for it in range(max_iter):
        data = build_qp_data(nlp, z.w)
        kkt = KktResidual.from_vectors(*_kkt_vectors_from_data(data, z, x))
        if kkt.satisfied(tol):
            return SqpResult(z, kkt, True, it, log)
        sol = condense_rhs_and_solve(condense_lhs(data), data, x, warm_active=warm)
        warm = sol.active_set
        log.append(IterationRecord(it, kkt.stat, kkt.eq, float(np.max(np.abs(sol.dw)))))
        z = _apply_step(z, sol)
    data = build_qp_data(nlp, z.w)
    kkt = KktResidual.from_vectors(*_kkt_vectors_from_data(data, z, x))
    return SqpResult(z, kkt, kkt.satisfied(tol), max_iter, log)


def _inner_iterations(nlp: OcpNlp, x_pred, z_start: Iterate, n_iters, warm, trace, qp_at) -> Iterate:
    """Exactly ``n_iters`` full-step iterations on the QP ``qp_at`` forms.

    ``qp_at(z)`` returns the matrix phase and the QP vectors at ``z``; the
    levels B-D differ only in what it re-evaluates there.
    """
    x_pred = np.asarray(x_pred, dtype=float)
    z = z_start.copy()
    for _ in range(n_iters):
        lhs, vectors = qp_at(z)
        sol = condense_rhs_and_solve(lhs, vectors, x_pred, warm_active=warm)
        warm = sol.active_set
        z = _apply_step(z, sol)
        _trace_point(nlp, z, x_pred, trace)
    return z


def level_d(nlp: OcpNlp, x_pred, z_start: Iterate, n_iters, warm_active=None, trace=None) -> Iterate:
    """Exactly ``n_iters`` full SQP iterations at a fixed parameter."""

    def qp_at(z):
        data = build_qp_data(nlp, z.w)
        return condense_lhs(data), data

    return _inner_iterations(nlp, x_pred, z_start, n_iters, warm_active, trace, qp_at)


def level_c(
    prep: PreparedLinearization,
    nlp: OcpNlp,
    x_pred,
    z_start: Iterate,
    n_iters,
    warm_active=None,
    trace=None,
) -> Iterate:
    """Frozen-matrix iterations with exact residuals and gradient correction.

    The QP keeps the matrices (and the matrix phase) from the
    reference point while the constraint residuals are re-evaluated at
    every iterate.  The gradient vector is corrected so that the QP
    stationarity uses the exact Lagrange gradient with the frozen
    constraint Jacobians; with exact frozen Jacobians it reduces to the
    plain objective gradient and level C coincides with level D.
    """
    ref = prep.data

    def qp_at(z):
        data = build_qp_data(nlp, z.w)
        # the inequality rows are constant in OcpNlp, so only G' lam differs
        a = (
            data.grad
            + eq_jac_t_product(ref.phi_x, ref.phi_u, z.lam)
            - eq_jac_t_product(data.phi_x, data.phi_u, z.lam)
        )
        return prep.lhs, replace(ref, grad=a, eq_res=data.eq_res, ineq_res=data.ineq_res)

    return _inner_iterations(nlp, x_pred, z_start, n_iters, warm_active, trace, qp_at)


def level_b(
    prep: PreparedLinearization,
    nlp: OcpNlp,
    x_pred,
    z_start: Iterate,
    n_iters,
    warm_active=None,
    trace=None,
) -> Iterate:
    """Zero-order iterations: constraint residuals only, frozen matrices.

    The objective gradient is approximated around the reference primal
    point by ``grad f(w_ref) + A_ref (w - w_ref)``; no derivative
    evaluations take place.
    """

    def qp_at(z):
        g, h = nlp.constraint_values(z.w)
        a = prep.data.grad + hess_product(prep.lhs, z.w - prep.ref.w)
        return prep.lhs, replace(prep.data, grad=a, eq_res=g, ineq_res=h)

    return _inner_iterations(nlp, x_pred, z_start, n_iters, warm_active, trace, qp_at)


def level_a(prep: PreparedLinearization, x_pred, warm_active=None, trace_nlp=None, trace=None) -> Iterate:
    """Single re-solve of the prepared QP for a new parameter.

    Neither functions nor derivatives are evaluated: the right-hand side
    is updated for ``x_pred`` only and one vector-phase solve produces the
    update from the reference point.
    """
    x_pred = np.asarray(x_pred, dtype=float)
    sol = condense_rhs_and_solve(prep.lhs, prep.data, x_pred, warm_active=warm_active)
    z = Iterate(prep.ref.w + sol.dw, sol.lam.copy(), sol.mu.copy())
    if trace is not None and trace_nlp is not None:
        _trace_point(trace_nlp, z, x_pred, trace)
    return z


def beta_vector(prep: PreparedLinearization, z_b: Iterate, nlp: OcpNlp):
    """Gradient perturbation that makes a level-B fixed point stationary.

    At a level-B limit point the iterate is a KKT point of the original
    problem with the objective shifted by ``w' beta``; equivalently
    ``beta`` equals minus the true Lagrange gradient there.
    """
    data_b = build_qp_data(nlp, z_b.w)
    # the inequality rows are constant in OcpNlp, so only G' lam differs
    return (
        prep.data.grad
        + hess_product(prep.lhs, z_b.w - prep.ref.w)
        - data_b.grad
        + eq_jac_t_product(data_b.phi_x, data_b.phi_u, z_b.lam)
        - eq_jac_t_product(prep.data.phi_x, prep.data.phi_u, z_b.lam)
    )


# ---------------------------------------------------------------------------
# Contraction diagnostics
# ---------------------------------------------------------------------------


@dataclass
class ContractionDiagnostics:
    """Empirical Newton-type contraction estimates from an error sequence.

    ``ratios`` are the per-iteration error quotients, ``kappa`` the
    terminal ratio (asymptotic linear rate), ``omega`` twice the fitted
    slope of ratio versus error, and ``radius_z`` the resulting
    contraction-radius estimate ``2 (1 - kappa) / omega``.
    """

    ratios: np.ndarray
    kappa: float
    omega: float
    contractive: bool
    radius_z: float


def estimate_contraction(errors) -> ContractionDiagnostics:
    """Fit contraction constants to a sequence of distances to a limit.

    Requires at least three error values.  The fit uses the last
    ``max(3, n - 2)`` ratios (the bound is asymptotic, early iterates
    would pollute it); a non-decreasing sequence is flagged as
    non-contractive.
    """
    errors = np.asarray(errors, dtype=float)
    if errors.ndim != 1 or errors.shape[0] < 3:
        raise ValueError("need at least three error values")
    if np.any(errors < 0.0):
        raise ValueError("errors must be nonnegative")
    # truncate at exact zeros: the sequence has landed on the limit
    nz = np.flatnonzero(errors == 0.0)
    if nz.size:
        errors = errors[: max(int(nz[0]), 2)]
    ratios = errors[1:] / errors[:-1]
    kappa = float(ratios[-1])
    tail = min(len(ratios), max(3, len(ratios) - 2))
    e_tail = errors[:-1][-tail:]
    r_tail = ratios[-tail:]
    if tail >= 2 and np.ptp(e_tail) > 0.0:
        slope = np.polyfit(e_tail, r_tail, 1)[0]
    else:
        slope = 0.0
    omega = float(max(2.0 * slope, 0.0))
    contractive = kappa < 1.0 and errors[-1] < errors[0]
    if kappa >= 1.0:
        radius_z = 0.0
    elif omega > 0.0:
        radius_z = 2.0 * (1.0 - kappa) / omega
    else:
        radius_z = np.inf
    return ContractionDiagnostics(ratios, kappa, omega, contractive, radius_z)
