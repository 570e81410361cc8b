"""Structured OCP quadratic programs: condensing and active-set solution.

The stage-structured QP

    min_dw   a'dw + 1/2 dw' A dw
    s.t.     g + M x + G dw = 0,    h + H dw >= 0

is reduced to a dense QP in the stacked controls by eliminating all state
variables through the dynamics linearization and the initial-state
constraint.  The reduction is split into a matrix phase
(:func:`condense_lhs`, everything that does not depend on the residual
vectors or the parameter) and a vector phase
(:func:`condense_rhs_and_solve`) so that a prepared left-hand side can be
re-solved cheaply for new right-hand sides.

For a fixed active set the solution is affine in ``x``;
:func:`prepare_feedback_map` caches that map on the matrix phase, and the
vector phase evaluates it while its active set stays optimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.linalg import cho_factor, cho_solve, null_space

__all__ = [
    "QpInfeasibleError",
    "QpSolverError",
    "OcpQpData",
    "CondensedLhs",
    "QpSolution",
    "DenseQpResult",
    "build_qp_data",
    "condense_lhs",
    "condense_rhs_and_solve",
    "condense_and_solve",
    "prepare_feedback_map",
    "solve_dense_qp",
    "eq_jac_product",
    "eq_jac_t_product",
    "ineq_jac_product",
    "ineq_jac_t_product",
    "hess_product",
]

HESSIAN_REG = 1e-8
DEFAULT_QP_MAX_ITER = 200

# The vector phase runs once per feedback: solve_dense_qp checks its
# vectors once, so the many small Cholesky calls skip scipy's finiteness
# scan of every operand.
_cho_factor = partial(cho_factor, check_finite=False)
_cho_solve = partial(cho_solve, check_finite=False)


class QpSolverError(RuntimeError):
    """The QP could not be solved (conditioning or iteration cap)."""


class QpInfeasibleError(RuntimeError):
    """No feasible point exists; carries the violated constraint rows."""

    def __init__(self, message, violated=()):
        super().__init__(message)
        self.violated = tuple(int(i) for i in violated)


# ---------------------------------------------------------------------------
# Data containers
# ---------------------------------------------------------------------------


@dataclass
class OcpQpData:
    """One linearization of the OCP NLP, split into matrices and vectors.

    Matrices: Hessian blocks (a list of N stage blocks of size n_x+n_u
    plus the terminal n_x block), dynamics Jacobians ``phi_x`` /
    ``phi_u``, the stage inequality rows ``(N, m, n_x+n_u)`` (a list of
    equally sized blocks is stacked at construction) and the terminal rows.
    Vectors: objective gradient ``grad``, equality residuals ``eq_res``
    (initial-state value followed by the shooting gaps) and inequality
    residuals ``ineq_res``.
    """

    N: int
    n_x: int
    n_u: int
    hess_blocks: list
    phi_x: np.ndarray
    phi_u: np.ndarray
    ineq_stage_blocks: np.ndarray
    ineq_term_block: np.ndarray
    grad: np.ndarray
    eq_res: np.ndarray
    ineq_res: np.ndarray

    def __post_init__(self):
        self.ineq_stage_blocks = np.asarray(self.ineq_stage_blocks, dtype=float)

    @property
    def n_w(self):
        return (self.N + 1) * self.n_x + self.N * self.n_u

    @property
    def n_g(self):
        return (self.N + 1) * self.n_x

    @property
    def n_h(self):
        return int(self.ineq_res.shape[0])


def build_qp_data(nlp, w, grad=None) -> OcpQpData:
    """Evaluate all QP data of the NLP linearized at ``w``.

    ``grad`` overrides the objective gradient (used by the inexact
    iteration levels that approximate it instead of evaluating it).
    """
    g, h, phi_x, phi_u, hs_blocks, ht_block = nlp.constraint_blocks(w)
    if grad is None:
        grad = nlp.grad_f(w)
    return OcpQpData(
        N=nlp.N,
        n_x=nlp.n_x,
        n_u=nlp.n_u,
        hess_blocks=nlp.hess_blocks(w),
        phi_x=phi_x,
        phi_u=phi_u,
        ineq_stage_blocks=hs_blocks,
        ineq_term_block=ht_block,
        grad=np.asarray(grad, dtype=float),
        eq_res=g,
        ineq_res=h,
    )


@dataclass
class CondensedLhs:
    """Matrix-phase output of full condensing with s_0 eliminated.

    ``hess`` and ``ineq`` are the dense Hessian and inequality matrix over
    the stacked controls.  ``T``, ``TA``, the dynamics Jacobians and the
    retained stage blocks are the propagation operators that map the
    parameter and the residual vectors to the condensed gradient and
    bounds in the vector phase (and back to the full space afterwards).
    """

    N: int
    n_x: int
    n_u: int
    hess: np.ndarray
    ineq: np.ndarray
    T: np.ndarray
    TA: np.ndarray
    hess_stage: np.ndarray  # (N, n_x+n_u, n_x+n_u)
    hess_term: np.ndarray
    ineq_stage_blocks: np.ndarray  # (N, m, n_x+n_u)
    ineq_term_block: np.ndarray
    phi_x: np.ndarray
    phi_u: np.ndarray
    chol: tuple = None  # cached Cholesky factor of hess
    regularization: float = 0.0
    feedback_map: tuple = None  # cached by prepare_feedback_map

    @property
    def n_w(self):
        return (self.N + 1) * self.n_x + self.N * self.n_u


@dataclass
class QpSolution:
    """Full-space primal-dual solution of the structured QP.

    ``iterations`` sums the dense solver's iterations over every solve the
    vector phase ran; ``resolves`` counts the breach guard's re-solves.
    """

    dw: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    active_set: tuple
    iterations: int
    resolves: int = 0


# ---------------------------------------------------------------------------
# Condensing
# ---------------------------------------------------------------------------


def hess_product(lhs: CondensedLhs, v):
    """``A v`` for the block-diagonal stacked Hessian."""
    stride = lhs.n_x + lhs.n_u
    split = lhs.N * stride
    out = np.empty_like(v)
    stage = np.matmul(lhs.hess_stage, v[:split].reshape(lhs.N, stride, -1))
    out[:split] = stage.reshape(out[:split].shape)
    out[split:] = lhs.hess_term @ v[split:]
    return out


def ineq_jac_product(data_like, dw):
    """``H dw`` from the stage and terminal inequality rows (QP data or lhs)."""
    stride = data_like.n_x + data_like.n_u
    split = data_like.N * stride
    stage = np.matmul(data_like.ineq_stage_blocks, dw[:split].reshape(data_like.N, stride, -1))
    term = data_like.ineq_term_block @ dw[split:]
    return np.concatenate([stage.reshape((-1,) + dw.shape[1:]), term])


def condense_lhs(data: OcpQpData) -> CondensedLhs:
    """Matrix phase: eliminate states and the initial state variable.

    Only the matrix quantities of ``data`` are read.  The condensed
    Hessian is regularized with ``HESSIAN_REG * I`` if its Cholesky
    factorization fails; a second failure is an error.
    """
    N, n_x, n_u = data.N, data.n_x, data.n_u
    stride = n_x + n_u
    n_w = data.n_w
    nu_tot = N * n_u
    Ab = np.stack(data.hess_blocks[:N])
    At = np.array(data.hess_blocks[N], dtype=float, copy=True)
    asym = np.append(
        np.max(np.abs(Ab - Ab.transpose(0, 2, 1)), axis=(1, 2)), np.max(np.abs(At - At.T))
    )
    if np.any(asym > 1e-9):
        k = int(np.argmax(asym > 1e-9))
        raise QpSolverError(f"Hessian block {k} is not symmetric")

    # T maps stacked control steps to the full primal step with the
    # homogeneous dynamics recursion ds_{k+1} = phi_x ds_k + phi_u du_k
    # and ds_0 = 0 (the initial state is pinned by the parameter).
    T = np.zeros((n_w, nu_tot))
    phi_x = np.ascontiguousarray(data.phi_x)
    phi_u = np.ascontiguousarray(data.phi_u)
    S = np.zeros((n_x, nu_tot))
    for k in range(N):
        base = k * stride
        T[base : base + n_x] = S
        T[base + n_x : base + stride, k * n_u : (k + 1) * n_u] = np.eye(n_u)
        S = phi_x[k] @ S
        S[:, k * n_u : (k + 1) * n_u] += phi_u[k]
    T[N * stride :] = S

    # T' A stage by stage: A is block diagonal
    TA = np.empty((nu_tot, n_w))
    Ts = T[: N * stride].reshape(N, stride, nu_tot)
    blocks = np.matmul(Ts.transpose(0, 2, 1), Ab)  # (N, nu_tot, stride)
    TA[:, : N * stride] = blocks.transpose(1, 0, 2).reshape(nu_tot, N * stride)
    TA[:, N * stride :] = T[N * stride :].T @ At
    hess = TA @ T
    hess = 0.5 * (hess + hess.T)
    reg = 0.0
    try:
        chol = cho_factor(hess)
    except np.linalg.LinAlgError:
        reg = HESSIAN_REG
        hess = hess + reg * np.eye(nu_tot)
        try:
            chol = cho_factor(hess)
        except np.linalg.LinAlgError:
            raise QpSolverError("condensed Hessian not positive definite after regularization")

    # condensed inequality rows: each stage's rows read that stage's T rows
    ineq = np.concatenate([
        np.matmul(data.ineq_stage_blocks, Ts).reshape(-1, nu_tot),
        data.ineq_term_block @ T[N * stride :],
    ])

    return CondensedLhs(
        N=N,
        n_x=n_x,
        n_u=n_u,
        hess=hess,
        ineq=ineq,
        T=T,
        TA=TA,
        hess_stage=Ab,
        hess_term=At,
        ineq_stage_blocks=np.array(data.ineq_stage_blocks, copy=True),
        ineq_term_block=np.array(data.ineq_term_block, dtype=float, copy=True),
        phi_x=np.array(phi_x, copy=True),
        phi_u=np.array(phi_u, copy=True),
        chol=chol,
        regularization=reg,
    )


def _particular_step(lhs: CondensedLhs, eq_res, x):
    """Primal response to the residuals at zero control step.

    The initial-state rows read ``s0_value - x = 0`` inside the QP, so
    ``ds_0 = x - s0_value``; the remaining states follow the inhomogeneous
    dynamics recursion driven by the shooting-gap residuals.
    """
    N, n_x, phi_x = lhs.N, lhs.n_x, lhs.phi_x
    stride = n_x + lhs.n_u
    cols = x.shape[1:]
    gaps = eq_res[n_x:].reshape((N, n_x) + cols)
    t = np.zeros((N + 1, stride) + cols)
    ds = t[0, :n_x] = x - eq_res[:n_x]
    for k in range(N):
        ds = t[k + 1, :n_x] = np.dot(phi_x[k], ds) + gaps[k]
    return t.reshape(((N + 1) * stride,) + cols)[: lhs.n_w]


def eq_jac_t_product(phi_x, phi_u, lam):
    """``G' lam`` from the stage structure of the equality Jacobian."""
    N, n_x = phi_x.shape[0], phi_x.shape[1]
    n_u = phi_u.shape[2]
    stride = n_x + n_u
    cols = lam.shape[1:]
    gaps = lam[n_x:].reshape((N, n_x) + cols)
    out = np.zeros(((N + 1) * n_x + N * n_u,) + cols)
    sm = out[: N * stride].reshape((N, stride) + cols)
    g3 = gaps.reshape(N, n_x, -1)
    sm[:, :n_x] = np.matmul(phi_x.transpose(0, 2, 1), g3).reshape(sm[:, :n_x].shape)
    sm[:, n_x:] = np.matmul(phi_u.transpose(0, 2, 1), g3).reshape(sm[:, n_x:].shape)
    sm[0, :n_x] += lam[:n_x]
    sm[1:, :n_x] -= gaps[:-1]
    out[N * stride :] = -gaps[-1]
    return out


def ineq_jac_t_product(data, mu):
    """``H' mu`` from the stage and terminal inequality rows (QP data or lhs)."""
    C = data.ineq_stage_blocks
    N, m = C.shape[0], C.shape[1]
    split = N * C.shape[2]
    out = np.empty((data.n_w,) + mu.shape[1:])
    mu3 = mu[: N * m].reshape(N, m, mu.shape[1] if mu.ndim > 1 else 1)
    out[:split] = np.matmul(C.transpose(0, 2, 1), mu3).reshape(out[:split].shape)
    out[split:] = data.ineq_term_block.T @ mu[N * m :]
    return out


def eq_jac_product(phi_x, phi_u, dw):
    """``G dw`` from the stage structure of the equality Jacobian."""
    N, n_x = phi_x.shape[0], phi_x.shape[1]
    n_u = phi_u.shape[2]
    stride = n_x + n_u
    cols = dw.shape[1:]
    sm = dw[: N * stride].reshape((N, stride) + cols)
    out = np.empty(((N + 1) * n_x,) + cols)
    out[:n_x] = dw[:n_x]
    prop = (
        np.matmul(phi_x, sm[:, :n_x].reshape(N, n_x, -1))
        + np.matmul(phi_u, sm[:, n_x:].reshape(N, n_u, -1))
    ).reshape((N, n_x) + cols)
    prop[:-1] -= sm[1:, :n_x]
    prop[-1] -= dw[N * stride :]
    out[n_x:] = prop.reshape((N * n_x,) + cols)
    return out


def _recover_eq_multipliers(lhs: CondensedLhs, r):
    """Back-substitute the eliminated stationarity rows for ``lam``.

    ``r = a + A dw - H' mu``; the recursion annihilates the state rows of
    the full-space stationarity from the terminal stage backwards.
    """
    N, n_x = lhs.N, lhs.n_x
    stride = n_x + lhs.n_u
    cols = r.shape[1:]
    phi_t = lhs.phi_x.transpose(0, 2, 1)
    r_states = r[: N * stride].reshape((N, stride) + cols)[:, :n_x]
    lam = np.empty((N + 1, n_x) + cols)
    lam_next = lam[N] = -r[N * stride : N * stride + n_x]
    for k in range(N - 1, 0, -1):
        lam_next = lam[k] = np.dot(phi_t[k], lam_next) - r_states[k]
    lam[0] = r[:n_x] - np.dot(phi_t[0], lam_next)
    return lam.reshape(((N + 1) * n_x,) + cols)


def _solve_vectors(lhs: CondensedLhs, grad, eq_res, ineq_res, x, warm_active, max_iter):
    """One condensed solve for a given set of vectors; returns the dense result too."""
    t = _particular_step(lhs, eq_res, x)
    q = lhs.TA @ t + lhs.T.T @ grad
    n_h = ineq_res.shape[0]
    d = -(ineq_res + ineq_jac_product(lhs, t)) if n_h else np.zeros(0)
    dense = solve_dense_qp(
        lhs.hess, q, lhs.ineq, d, warm_active=warm_active, max_iter=max_iter, chol=lhs.chol
    )
    dw = lhs.T @ dense.x + t
    r = grad + hess_product(lhs, dw)
    if n_h:
        r = r - ineq_jac_t_product(lhs, dense.mu)
    lam = _recover_eq_multipliers(lhs, r)
    return dw, lam, dense


def _refine_fixed_active(lhs: CondensedLhs, grad, eq_res, ineq_res, x, dw, lam, mu, active):
    """One full-space iterative-refinement pass with the active set pinned.

    Condensing over long unstable horizons loses absolute accuracy by
    cancellation; re-solving the same KKT system for the small full-space
    residuals restores it.  Active inequality rows are corrected as
    equalities, so the combinatorial solution is untouched.  From zero it is
    a fixed-active-set solve.  Inputs may carry a trailing column axis, and
    the multipliers come back unclipped.
    """
    rho_stat = grad + hess_product(lhs, dw) - eq_jac_t_product(lhs.phi_x, lhs.phi_u, lam)
    n_h = ineq_res.shape[0]
    if n_h:
        rho_stat -= ineq_jac_t_product(lhs, mu)
    rho_eq = eq_res.copy()
    rho_eq[: lhs.n_x] -= x
    rho_eq += eq_jac_product(lhs.phi_x, lhs.phi_u, dw)

    t2 = _particular_step(lhs, rho_eq, np.zeros_like(x))
    q2 = lhs.TA @ t2 + lhs.T.T @ rho_stat
    act = list(active)
    if act:
        C_act = lhs.ineq[act]
        b_act = -(
            (ineq_res + ineq_jac_product(lhs, dw))[act] + ineq_jac_product(lhs, t2)[act]
        )
        du2 = _eq_constrained_min(lhs.hess, q2, C_act, b_act)
        dmu_act, *_ = np.linalg.lstsq(C_act.T, lhs.hess @ du2 + q2, rcond=None)
    else:
        du2 = -_cho_solve(lhs.chol, q2)
        dmu_act = np.zeros(0)
    dw2 = lhs.T @ du2 + t2
    mu_new = mu.copy()
    if act:
        mu_new[act] = mu_new[act] + dmu_act
    r2 = rho_stat + hess_product(lhs, dw2)
    if n_h:
        r2 = r2 - ineq_jac_t_product(lhs, mu_new - mu)
    lam2 = _recover_eq_multipliers(lhs, r2)
    return dw + dw2, lam + lam2, mu_new


def _fixed_active_map(lhs: CondensedLhs, data: OcpQpData, x_pred, active):
    """``(data, x_pred, active, mask, offset, slope)``: the fixed-set solution is
    ``offset + slope (x - x_pred)``, stacking ``(dw, lam, mu, slack)``.  Column 0
    solves the QP at ``x_pred``, column ``j`` the response to ``x = e_j``, each
    by a fixed-active-set solve and one refinement pass."""
    n_x = lhs.n_x
    first = np.eye(1, n_x + 1)[0]
    vectors = [np.outer(v, first) for v in (data.grad, data.eq_res, data.ineq_res)]
    vectors.append(np.hstack([x_pred[:, None], np.eye(n_x)]))
    z = [np.zeros((n, n_x + 1)) for n in (lhs.n_w, data.n_g, data.n_h)]
    for _ in range(2):
        z = _refine_fixed_active(lhs, *vectors, *z, active)
    slack = vectors[2] + ineq_jac_product(lhs, z[0])
    stacked = np.concatenate([*z, slack])
    mask = np.zeros(data.n_h, dtype=bool)
    mask[list(active)] = True
    return data, x_pred, active, mask, stacked[:, 0], stacked[:, 1:]


def _evaluate_map(feedback_map, x):
    """The map's ``(dw, lam, mu)`` at ``x``, or None unless every inactive row's
    slack and every active multiplier is at least ``-1e-9`` (the dense solver's
    feasibility and multiplier tolerances)."""
    data, x_pred, _, mask, offset, slope = feedback_map
    point = offset + slope @ (x - x_pred)
    dw, lam, mu, slack = np.split(point, np.cumsum([data.n_w, data.n_g, data.n_h]))
    if np.all(np.where(mask, mu, slack) >= -1e-9):
        return dw, lam, np.maximum(mu, 0.0)


def prepare_feedback_map(lhs: CondensedLhs, data: OcpQpData, x_pred, warm_active=None):
    """Cache on ``lhs`` the solution of ``data``'s QP as an affine map of ``x``.

    The map fixes the active set ``warm_active``, or, if that set is not
    optimal at ``x_pred``, the set one vector phase there ends with.  No
    map is cached where the QP has no solution at ``x_pred``.
    """
    x_pred = np.asarray(x_pred, dtype=float)
    active = tuple(warm_active or ())
    lhs.feedback_map = None
    try:
        fmap = _fixed_active_map(lhs, data, x_pred, active)
        if _evaluate_map(fmap, x_pred) is None:
            active = condense_rhs_and_solve(lhs, data, x_pred, warm_active=active).active_set
            fmap = _fixed_active_map(lhs, data, x_pred, active)
    except (QpInfeasibleError, QpSolverError, np.linalg.LinAlgError):
        return
    lhs.feedback_map = fmap


def condense_rhs_and_solve(
    lhs: CondensedLhs,
    data: OcpQpData,
    x,
    warm_active=None,
    max_iter=DEFAULT_QP_MAX_ITER,
) -> QpSolution:
    """Vector phase: condense the right-hand side, solve, and expand.

    Reads only the vector quantities of ``data`` (which must correspond to
    the matrices ``lhs`` was built from), forms the condensed gradient and
    bounds for parameter ``x``, solves the dense QP and expands the result
    to the full primal-dual space.  Equality multipliers are recovered by
    back-substitution through the eliminated stationarity rows; one
    fixed-active-set refinement pass polishes the full-space KKT residual.

    If ``lhs`` holds a map for this very ``data`` object, it is evaluated
    first: where its active set stays optimal that point is returned with
    zero ``iterations``, otherwise the vector phase runs from the map's set.

    The dense solve can stop at a non-optimal active set, warm-started or
    cold; the refinement then pins that set and its step can breach the
    inactive rows.  Whenever the refined step breaches rows by more than
    ``1e-6``, the QP is solved again with the cached factor, warm-started
    from the dense active set plus the breached rows (the dense solver
    still drops any pinned row whose multiplier comes out negative).  This
    repeats while it changes the warm set, at most ``n_h`` times.
    """
    x = np.asarray(x, dtype=float)
    warm = warm_active
    fmap = lhs.feedback_map
    if fmap is not None and fmap[0] is data:
        point = _evaluate_map(fmap, x)
        if point is not None:
            return QpSolution(*point, fmap[2], 0)
        warm = fmap[2]
    iterations = 0
    for resolves in range(data.n_h + 1):
        dw, lam, dense = _solve_vectors(
            lhs, data.grad, data.eq_res, data.ineq_res, x, warm, max_iter
        )
        iterations += dense.iterations
        dw, lam, mu = _refine_fixed_active(
            lhs, data.grad, data.eq_res, data.ineq_res, x, dw, lam, dense.mu, dense.active_set
        )
        mu = np.maximum(mu, 0.0)
        breached = np.flatnonzero(data.ineq_res + ineq_jac_product(lhs, dw) < -1e-6)
        resolved = tuple(sorted(set(breached.tolist()).union(dense.active_set)))
        if resolved in (dense.active_set, warm):
            break
        warm = resolved
    return QpSolution(dw, lam, mu, dense.active_set, iterations, resolves)


def condense_and_solve(data: OcpQpData, x, warm_active=None, max_iter=DEFAULT_QP_MAX_ITER):
    """Monolithic condense-and-solve (both phases on fresh data)."""
    return condense_rhs_and_solve(
        condense_lhs(data), data, x, warm_active=warm_active, max_iter=max_iter
    )


# ---------------------------------------------------------------------------
# Dense primal active-set solver
# ---------------------------------------------------------------------------


@dataclass
class DenseQpResult:
    """Solution of a dense strictly convex inequality-constrained QP."""

    x: np.ndarray
    mu: np.ndarray
    active_set: tuple
    iterations: int
    active_set_changes: int


def _bound_structure(C):
    """Per-row (column, coefficient) when every row touches one variable."""
    m, n = C.shape
    if m == 0:
        return None
    nz = C != 0.0
    if not np.all(nz.sum(axis=1) == 1):
        return None
    cols = np.argmax(nz, axis=1)
    coefs = C[np.arange(m), cols]
    return cols, coefs


def _eq_constrained_min(H, q, C_W, d_W):
    """Minimize the QP objective subject to ``C_W x = d_W``.

    Rows touching a single variable pin it directly and the remaining
    variables are solved by a reduced Cholesky; general rows fall back to
    the full saddle-point solve.
    """
    t = C_W.shape[0]
    if t == 0:
        return -_cho_solve(_cho_factor(H), q)
    n = H.shape[0]
    bounds = _bound_structure(C_W)
    if bounds is not None and len(set(bounds[0])) == t:
        cols, coefs = bounds
        x = np.zeros((n,) + q.shape[1:])
        x[cols] = (d_W.T / coefs).T
        free = np.ones(n, dtype=bool)
        free[cols] = False
        if free.any():
            rhs = -(q[free] + H[np.ix_(free, ~free)] @ x[~free])
            x[free] = _cho_solve(_cho_factor(H[np.ix_(free, free)]), rhs)
        return x
    K = np.zeros((n + t, n + t))
    K[:n, :n] = H
    K[:n, n:] = C_W.T
    K[n:, :n] = C_W
    rhs = np.concatenate([-q, d_W])
    sol = np.linalg.solve(K, rhs)
    return sol[:n]


def _feasible_start(H, q, C, d, feas_tol, chol=None):
    """Cheap phase 1: clip single-variable rows, then pin violated rows.

    Starts from the unconstrained minimizer.  Rows touching a single
    variable are treated as bounds and enforced by clipping; remaining
    violations are handled by repeatedly adding the most violated row as
    an equality and re-minimizing.
    """
    n = H.shape[0]
    m = C.shape[0]
    x = -_cho_solve(chol if chol is not None else _cho_factor(H), q)
    viol = d - C @ x
    if np.max(viol) <= feas_tol:
        return x

    nonzeros = np.count_nonzero(C, axis=1)
    if np.all(nonzeros == 1):
        lb = np.full(n, -np.inf)
        ub = np.full(n, np.inf)
        for i in range(m):
            j = int(np.flatnonzero(C[i])[0])
            a = C[i, j]
            if a > 0:
                lb[j] = max(lb[j], d[i] / a)
            else:
                ub[j] = min(ub[j], d[i] / a)
        if np.any(lb > ub + feas_tol):
            bad = np.flatnonzero(d - C @ np.clip(x, np.minimum(lb, ub), np.maximum(lb, ub)) > feas_tol)
            raise QpInfeasibleError("contradictory bounds", violated=bad)
        return np.clip(x, lb, ub)

    W = []
    for _ in range(n + m):
        viol = d - C @ x
        worst = int(np.argmax(viol))
        if viol[worst] <= feas_tol:
            return x
        if worst in W or len(W) >= n or np.linalg.matrix_rank(C[W + [worst]]) < len(W) + 1:
            break
        W = W + [worst]
        x = _eq_constrained_min(H, q, C[W], d[W])
    # greedy pinning stalled on general rows: solve a phase-1 LP instead
    return _phase1_lp(C, d, feas_tol)


def _phase1_lp(C, d, feas_tol):
    """Minimal-violation LP: min s subject to Cx + s >= d, s >= 0."""
    from scipy.optimize import linprog

    m, n = C.shape
    cost = np.zeros(n + 1)
    cost[-1] = 1.0
    A_ub = np.hstack([-C, -np.ones((m, 1))])
    bounds = [(None, None)] * n + [(0.0, None)]
    res = linprog(cost, A_ub=A_ub, b_ub=-d, bounds=bounds, method="highs")
    if not res.success or res.x[-1] > feas_tol:
        viol = d - C @ res.x[:n] if res.success else np.arange(m)
        raise QpInfeasibleError(
            "no feasible point exists",
            violated=np.flatnonzero(viol > feas_tol) if res.success else range(m),
        )
    return res.x[:n]


def solve_dense_qp(
    H,
    q,
    C=None,
    d=None,
    warm_active=None,
    max_iter=DEFAULT_QP_MAX_ITER,
    feas_tol=1e-9,
    chol=None,
) -> DenseQpResult:
    """Primal active-set method for ``min 1/2 x'Hx + q'x s.t. Cx >= d``.

    ``H`` must be symmetric positive definite (``chol`` may pass a cached
    Cholesky factor of it).  Constraint rows touching a single variable
    are handled as bounds with reduced solves; general working sets use a
    null-space basis.  Ties in the blocking and removal choices are broken
    by smallest row index (Bland style) to guard against cycling.
    ``warm_active`` seeds the working set, which lets an identical
    re-solve terminate without active-set changes.
    """
    H = np.asarray(H, dtype=float)
    q = np.asarray(q, dtype=float)
    n = H.shape[0]
    if chol is None:
        chol = cho_factor(H)
    if not np.all(np.isfinite(q)):
        raise QpSolverError("QP gradient is not finite")
    if C is None or C.shape[0] == 0:
        x = -_cho_solve(chol, q)
        return DenseQpResult(x, np.zeros(0), (), 1, 0)
    C = np.asarray(C, dtype=float)
    d = np.asarray(d, dtype=float)
    if not np.all(np.isfinite(d)):
        raise QpSolverError("QP constraint bounds are not finite")
    m = C.shape[0]

    bounds = _bound_structure(C)
    W = []
    in_W = np.zeros(m, dtype=bool)
    x = None
    if warm_active is not None:
        cand = sorted(int(i) for i in warm_active)
        ok = bool(cand) and len(cand) <= n
        if ok:
            if bounds is not None:
                ok = len(set(bounds[0][cand])) == len(cand)
            else:
                ok = np.linalg.matrix_rank(C[cand]) == len(cand)
        if ok:
            try:
                x_try = _eq_constrained_min(H, q, C[cand], d[cand])
            except np.linalg.LinAlgError:
                x_try = None
            if x_try is not None and np.max(d - C @ x_try) <= feas_tol:
                x = x_try
                W = cand
                in_W[W] = True
        elif not cand:
            x_try = -_cho_solve(chol, q)
            if np.max(d - C @ x_try) <= feas_tol:
                x = x_try
    if x is None:
        x = _feasible_start(H, q, C, d, feas_tol, chol=chol)
        W = []
        in_W[:] = False

    changes = 0
    for it in range(1, max_iter + 1):
        grad = H @ x + q
        # attainable gradient accuracy: roundoff of H@x + q sets the floor
        # below which predicted progress is numerical noise
        grad_noise = 1e-14 * (np.abs(H) @ np.abs(x) + np.abs(q) + 1.0)
        if not W:
            p = -_cho_solve(chol, grad)
        elif bounds is not None:
            pinned = bounds[0][W]
            free = np.ones(n, dtype=bool)
            free[pinned] = False
            p = np.zeros(n)
            if free.any():
                p[free] = -_cho_solve(_cho_factor(H[np.ix_(free, free)]), grad[free])
        else:
            Z = null_space(C[W])
            if Z.shape[1] == 0:
                p = np.zeros(n)
            else:
                red = Z.T @ H @ Z
                p = Z @ np.linalg.solve(red, -(Z.T @ grad))

        pred_decrease = -(grad @ p + 0.5 * p @ (H @ p))
        if pred_decrease <= np.abs(p) @ grad_noise:
            if not W:
                return DenseQpResult(x, np.zeros(m), (), it, changes)
            if bounds is not None:
                mu_W = grad[bounds[0][W]] / bounds[1][W]
            else:
                mu_W, *_ = np.linalg.lstsq(C[W].T, grad, rcond=None)
            # negative multipliers below the attainable accuracy are noise;
            # anything clearly beyond that scale must be dropped
            mu_tol = 1e-9 + 100.0 * np.finfo(float).eps * np.max(np.abs(grad))
            if np.min(mu_W) >= -mu_tol:
                mu = np.zeros(m)
                mu[W] = np.maximum(mu_W, 0.0)
                return DenseQpResult(x, mu, tuple(sorted(W)), it, changes)
            # drop the most negative multiplier, smallest row index on ties
            worst = np.min(mu_W)
            drop = min(W[i] for i in range(len(W)) if mu_W[i] <= worst + 1e-12)
            W.remove(drop)
            in_W[drop] = False
            changes += 1
            continue

        # ratio test over rows that the step drives toward their bound
        Cp = C @ p
        mask = (~in_W) & (Cp < -1e-12)
        alpha = 1.0
        blocker = -1
        if mask.any():
            slack = np.maximum(C[mask] @ x - d[mask], 0.0)
            ratios = slack / (-Cp[mask])
            amin = ratios.min()
            if amin < 1.0:
                alpha = max(amin, 0.0)
                rows = np.flatnonzero(mask)
                blocker = int(rows[ratios <= amin + 1e-12].min())
        x = x + alpha * p
        if blocker >= 0:
            W.append(blocker)
            in_W[blocker] = True
            changes += 1
    raise QpSolverError(f"active-set iteration cap ({max_iter}) exceeded")
