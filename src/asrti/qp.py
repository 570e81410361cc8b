"""Structured OCP quadratic programs: a banded KKT factorization per active set.

The stage-structured QP

    min_dw   a'dw + 1/2 dw' A dw
    s.t.     g + M x + G dw = 0,    h + H dw >= 0

is solved in the full space.  With a working set W of inequality rows held
as equalities, its KKT system

    [  A    -G'  -H_W' ] [ dw  ]   [ -a      ]
    [ -G     0    0    ] [ lam ] = [ g + M x ]
    [ -H_W   0    0    ] [ mu  ]   [ h_W     ]

is symmetric, and with the unknowns ordered stage by stage as
``(lam_k, s_k, u_k, mu_k)`` and the terminal stage as ``(lam_N, s_N, mu_T)``
it is banded, with half-bandwidth ``2 n_x + n_u + m - 1`` for ``m`` rows per
stage.  An inactive row stays in place as the identity row ``mu_i = 0``, so
the band's pattern never changes.  The matrix phase (:func:`condense_lhs`)
fills LAPACK band storage from the stage blocks; the vector phase
(:func:`condense_rhs_and_solve`) runs a dual active-set loop (Goldfarb &
Idnani, *Math. Programming* 27, 1983): it starts at the minimizer with the
warm working set held, which need not be feasible, and adds violated rows
until none is left.  Every working set is one banded LU (``dgbtrf``, the
last one cached); the minimizer and each row's step direction are
``dgbtrs`` solves on it, refined once with the same factors.  The
refinement brings every KKT row to the roundoff of its own terms, so a
returned step meets the dynamics, the held rows and stationarity each to
its own scale.

For a fixed active set the solution is affine in ``x``;
:func:`prepare_feedback_map` caches that map on the matrix phase, and the
vector phase evaluates it while its active set stays optimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg.blas import dgbmv
from scipy.linalg.lapack import dgbtrf, dgbtrs

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
    "eq_jac_t_product",
    "ineq_jac_product",
    "ineq_jac_t_product",
    "hess_product",
]

HESSIAN_REG = 1e-8
QP_MAX_ITER = 200
FEAS_TOL = 1e-9


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


@dataclass(frozen=True)
class BandLayout:
    """Where the entries of the stage-ordered KKT matrix sit in band storage.

    The band is held transposed, ``(n, 3 bw + 1)`` in C order: LAPACK's
    ``(2 kl + ku + 1, n)`` Fortran array for ``kl = ku = bw``.  ``w_pos``,
    ``g_pos`` and ``h_pos`` place ``dw``, ``lam`` and ``mu`` in the KKT
    order.  Row 0 of ``fill`` holds the flat band index of each entry of the
    stage Hessians, the terminal Hessian, ``[phi_x phi_u]``, the identities
    of ``G``, the stage rows and the terminal rows, in that order; row 1
    holds its mirror image.  The inequality entries start at ``split``, and
    ``row_of`` names the row of each.
    """

    n: int
    bw: int
    w_pos: np.ndarray
    g_pos: np.ndarray
    h_pos: np.ndarray
    fill: np.ndarray
    split: int
    row_of: np.ndarray


@lru_cache(maxsize=8)
def _band_layout(N, n_x, n_u, m, m_T) -> BandLayout:
    size = 2 * n_x + n_u + m  # one stage: lam_k, s_k, u_k, mu_k
    stage = np.arange(N)[:, None] * size
    w = stage + n_x + np.arange(n_x + n_u)  # (s_k, u_k)
    s_N = N * size + n_x + np.arange(n_x)
    g_pos = (np.arange(N + 1)[:, None] * size + np.arange(n_x)).ravel()
    h_stage = stage + 2 * n_x + n_u + np.arange(m)
    h_pos = np.concatenate([h_stage.ravel(), s_N[-1] + 1 + np.arange(m_T)])
    groups = [
        (w[:, :, None], w[:, None, :]),
        (s_N[:, None], s_N),
        (g_pos[n_x:].reshape(N, n_x, 1), w[:, None, :]),
        (g_pos, np.concatenate([w[:, :n_x].ravel(), s_N])),
        (h_stage[:, :, None], w[:, None, :]),
        (h_pos[N * m :, None], s_N),
    ]
    pairs = [np.broadcast_arrays(*group) for group in groups]
    r = np.concatenate([rows.ravel() for rows, _ in pairs])
    c = np.concatenate([cols.ravel() for _, cols in pairs])
    bw = int(np.max(np.abs(r - c)))
    fill = np.stack([c, r]) * (3 * bw + 1) + 2 * bw + np.stack([r - c, c - r])
    n_hess = pairs[0][0].size + pairs[1][0].size
    fill[1, :n_hess] = fill[0, :n_hess]  # the Hessian blocks hold both triangles
    split = sum(rows.size for rows, _ in pairs[:4])
    row_of = np.searchsorted(h_pos, r[split:])
    w_pos = np.concatenate([w.ravel(), s_N])
    for array in (w_pos, g_pos, h_pos, fill, row_of):
        array.setflags(write=False)  # shared by every lhs of this shape
    return BandLayout(N * size + 2 * n_x + m_T, bw, w_pos, g_pos, h_pos, fill, split, row_of)


@dataclass
class CondensedLhs:
    """Matrix phase: the QP's KKT matrix in LAPACK band storage.

    ``band`` holds every entry of the stage-ordered KKT matrix with all
    inequality rows active (see the module docstring and
    :class:`BandLayout`); ``factors`` caches ``(working set, LU, pivots,
    inactive multiplier positions)`` of the last working set factored.  The
    stage blocks serve the structured products, and ``bounds`` gives, when
    every inequality row bounds a single control, each row's position in
    ``dw`` and its coefficient (a warm set of such rows is independent iff
    no two share a position).  ``regularization`` is the shift
    added to the Hessian blocks' diagonals (0 unless a block is not
    positive definite); the blocks held here include it.
    """

    N: int
    n_x: int
    n_u: int
    band: np.ndarray
    layout: BandLayout
    hess_stage: np.ndarray  # (N, n_x+n_u, n_x+n_u)
    hess_term: np.ndarray
    ineq_stage_blocks: np.ndarray  # (N, m, n_x+n_u)
    ineq_term_block: np.ndarray
    bounds: tuple = None
    regularization: float = 0.0
    factors: tuple = None
    feedback_map: tuple = None  # cached by prepare_feedback_map

    @property
    def n_w(self):
        return (self.N + 1) * self.n_x + self.N * self.n_u


@dataclass
class QpSolution:
    """Full-space primal-dual solution of the structured QP.

    ``iterations`` counts the active-set loop's KKT solves; 0 means the
    feedback map served the solve.
    """

    dw: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    active_set: tuple
    iterations: int


# ---------------------------------------------------------------------------
# Structured products
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


# ---------------------------------------------------------------------------
# Matrix phase: the banded KKT matrix
# ---------------------------------------------------------------------------


def condense_lhs(data: OcpQpData) -> CondensedLhs:
    """Matrix phase: fill the banded KKT matrix from the stage blocks.

    Only the matrix quantities of ``data`` are read.  The Hessian blocks
    must be symmetric.  If one is not positive definite, every block's
    diagonal is shifted by ``HESSIAN_REG``; a block that is still not
    positive definite is an error.  No factorization happens here: the
    vector phase factors the band for each working set it visits.
    """
    N, n_x, n_u = data.N, data.n_x, data.n_u
    Ab = np.stack(data.hess_blocks[:N])
    At = np.array(data.hess_blocks[N], dtype=float, copy=True)
    asym = np.append(
        np.max(np.abs(Ab - Ab.transpose(0, 2, 1)), axis=(1, 2)), np.max(np.abs(At - At.T))
    )
    if np.any(asym > 1e-9):
        k = int(np.argmax(asym > 1e-9))
        raise QpSolverError(f"Hessian block {k} is not symmetric")
    lowest = min(np.linalg.eigvalsh(Ab).min(), np.linalg.eigvalsh(At).min())
    reg = HESSIAN_REG if lowest <= 0.0 else 0.0
    if lowest + reg <= 0.0:
        raise QpSolverError("Hessian blocks not positive definite after regularization")
    Ab, At = Ab + reg * np.eye(n_x + n_u), At + reg * np.eye(n_x)

    C = np.array(data.ineq_stage_blocks, copy=True)
    C_T = np.array(data.ineq_term_block, dtype=float, copy=True)
    phi = np.concatenate([data.phi_x, data.phi_u], axis=2)
    layout = _band_layout(N, n_x, n_u, C.shape[1], C_T.shape[0])
    band = np.zeros((layout.n, 3 * layout.bw + 1))
    band.reshape(-1)[layout.fill] = np.concatenate([
        Ab.ravel(), At.ravel(), -phi.ravel(), np.repeat([-1.0, 1.0], [n_x, N * n_x]),
        -C.ravel(), -C_T.ravel(),
    ])

    # rows that bound one control each: a warm set of them is checked by position
    bounds = _bound_structure(C.reshape(-1, n_x + n_u)) if not C_T.shape[0] else None
    if bounds is not None and np.all(bounds[0] >= n_x):
        m = C.shape[1]
        bounds = (bounds[0] + (n_x + n_u) * (np.arange(N * m) // m), bounds[1])
    else:
        bounds = None
    return CondensedLhs(
        N=N,
        n_x=n_x,
        n_u=n_u,
        band=band,
        layout=layout,
        hess_stage=Ab,
        hess_term=At,
        ineq_stage_blocks=C,
        ineq_term_block=C_T,
        bounds=bounds,
        regularization=reg,
    )


def _factor(lhs: CondensedLhs, active):
    """Banded LU of the KKT matrix with the rows ``active`` held, and the KKT
    positions of the inactive rows' multipliers; the last one is cached."""
    key = tuple(sorted(active))
    if lhs.factors is None or lhs.factors[0] != key:
        layout = lhs.layout
        off = np.ones(layout.h_pos.shape[0], dtype=bool)
        off[list(key)] = False
        band = lhs.band.copy()
        entries = band.reshape(-1)
        entries[layout.fill[:, layout.split :][:, off[layout.row_of]]] = 0.0
        entries[layout.h_pos[off] * (3 * layout.bw + 1) + 2 * layout.bw] = 1.0
        lu, piv, info = dgbtrf(band.T, layout.bw, layout.bw, overwrite_ab=1)
        if info > 0:
            raise QpSolverError(f"KKT matrix singular for active set {key}")
        lhs.factors = (key, lu, piv, layout.h_pos[off])
    return lhs.factors[1:]


def _kkt_rhs(lhs: CondensedLhs, grad, eq, ineq_res):
    """The KKT right-hand side in the stage order; inputs may carry columns."""
    layout = lhs.layout
    rhs = np.empty((layout.n,) + eq.shape[1:])
    rhs[layout.w_pos] = -grad
    rhs[layout.g_pos] = eq
    rhs[layout.h_pos] = ineq_res
    return rhs


def _kkt_solve(lhs: CondensedLhs, rhs, active):
    """``(dw, lam, mu)`` of the KKT system with the rows ``active`` held.

    One banded solve and one step of iterative refinement on the same
    factors, which brings each row's residual to the roundoff of its own
    terms; inactive rows get ``mu = 0``.  ``rhs`` may carry columns.
    """
    layout = lhs.layout
    lu, piv, off = _factor(lhs, active)
    sol, _ = dgbtrs(lu, layout.bw, layout.bw, rhs, piv)
    sol[off] = 0.0
    res = rhs - _band_product(lhs, sol)
    res[off] = 0.0
    sol += dgbtrs(lu, layout.bw, layout.bw, res, piv)[0]
    return sol[layout.w_pos], sol[layout.g_pos], sol[layout.h_pos]


def _band_product(lhs: CondensedLhs, z):
    """``K z`` for the band with every inequality row active; ``z`` may carry columns."""
    n, bw = lhs.layout.n, lhs.layout.bw
    # The band reads as a general band with bw sub- and 2 bw superdiagonals
    # (the top bw are zero).  BLAS takes at least 3 bw + 1 rows; the rows
    # past n read band entries outside the matrix, which are zero.
    rows = max(n, 3 * bw + 1)
    cols = [dgbmv(rows, n, bw, 2 * bw, 1.0, lhs.band.T, c)[:n] for c in z.reshape(n, -1).T]
    return np.stack(cols, axis=1).reshape(z.shape)


class _FullSpace:
    """The structured QP for :func:`_active_set`, in the full space."""

    def __init__(self, lhs: CondensedLhs, data: OcpQpData, x):
        eq = data.eq_res.copy()
        eq[: lhs.n_x] -= x
        self.rhs = _kkt_rhs(lhs, data.grad, eq, data.ineq_res)
        if not np.all(np.isfinite(self.rhs)):
            raise QpSolverError("QP vectors are not finite")
        self.lhs, self.a, self.d = lhs, data.grad, -data.ineq_res
        self.bounds = lhs.bounds

    def solve(self, W, p=None):
        if p is None:
            rhs = self.rhs
        else:  # row p's normal in the stationarity rows
            rhs = np.zeros(self.lhs.layout.n)
            rhs[self.lhs.layout.w_pos] = self.normal(p)
        dw, lam, mu = _kkt_solve(self.lhs, rhs, W)
        return dw, mu[W], lam

    def normal(self, p):
        unit = np.zeros(self.d.shape[0])
        unit[p] = 1.0
        return ineq_jac_t_product(self.lhs, unit)

    def rows(self, dw):
        return ineq_jac_product(self.lhs, dw)

    def grad(self, dw):
        return self.a + hess_product(self.lhs, dw)

    def dense_rows(self):
        layout = self.lhs.layout
        K = _band_product(self.lhs, np.eye(layout.n))  # holds -G and -H
        return tuple(-K[np.ix_(pos, layout.w_pos)] for pos in (layout.g_pos, layout.h_pos))


# ---------------------------------------------------------------------------
# Vector phase and feedback map
# ---------------------------------------------------------------------------


def _fixed_active_map(lhs: CondensedLhs, data: OcpQpData, x_pred, active):
    """``(data, x_pred, active, mask, offset, slope)``: the fixed-set solution is
    ``offset + slope (x - x_pred)``, stacking ``(dw, lam, mu, slack)``.  Column 0
    solves the QP at ``x_pred``, column ``j`` the response to ``x = e_j``; all
    columns come from one banded solve."""
    n_x = lhs.n_x
    first = np.eye(1, n_x + 1)[0]
    eq = np.outer(data.eq_res, first)
    eq[:n_x] -= np.hstack([x_pred[:, None], np.eye(n_x)])
    ineq_res = np.outer(data.ineq_res, first)
    rhs = _kkt_rhs(lhs, np.outer(data.grad, first), eq, ineq_res)
    dw, lam, mu = _kkt_solve(lhs, rhs, list(active))
    stacked = np.concatenate([dw, lam, mu, ineq_res + ineq_jac_product(lhs, dw)])
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
    optimal at ``x_pred``, the set one vector phase there ends with.  It
    is one refined banded solve on ``n_x + 1`` right-hand sides with that
    set held.  No map is cached where the QP has no solution at
    ``x_pred``.
    """
    x_pred = np.asarray(x_pred, dtype=float)
    active = tuple(warm_active or ())
    lhs.feedback_map = None
    try:
        fmap = _fixed_active_map(lhs, data, x_pred, active)
        if _evaluate_map(fmap, x_pred) is None:
            active = condense_rhs_and_solve(lhs, data, x_pred, warm_active=active).active_set
            fmap = _fixed_active_map(lhs, data, x_pred, active)
    except (QpInfeasibleError, QpSolverError):
        return
    lhs.feedback_map = fmap


def condense_rhs_and_solve(lhs: CondensedLhs, data: OcpQpData, x, warm_active=None) -> QpSolution:
    """Vector phase: solve the QP for parameter ``x`` on the banded factorization.

    Reads only the vector quantities of ``data`` (which must correspond to
    the matrices ``lhs`` was built from).  A dual active-set loop
    (:func:`_active_set`, the policy :func:`solve_dense_qp` shares) starts
    at the minimizer with ``warm_active`` held and adds violated rows until
    the returned step satisfies every row to ``1e-9``.  Each working set is
    one banded LU; the minimizer and each added row's direction are refined
    solves on it (:func:`_kkt_solve`), which give the step and its
    multipliers together.

    If ``lhs`` holds a map for this very ``data`` object, it is evaluated
    first: where its active set stays optimal that point is returned with
    zero ``iterations``, otherwise the loop starts from the map's set.
    """
    x = np.asarray(x, dtype=float)
    warm = warm_active
    fmap = lhs.feedback_map
    if fmap is not None and fmap[0] is data:
        point = _evaluate_map(fmap, x)
        if point is not None:
            return QpSolution(*point, fmap[2], 0)
        warm = fmap[2]
    dw, mu, active, lam, iterations, _ = _active_set(_FullSpace(lhs, data, x), warm)
    return QpSolution(dw, lam, mu, active, iterations)


def condense_and_solve(data: OcpQpData, x, warm_active=None):
    """Monolithic solve: both phases on fresh data."""
    return condense_rhs_and_solve(condense_lhs(data), data, x, warm_active=warm_active)


# ---------------------------------------------------------------------------
# Dual active-set method
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


class _DenseSpace:
    """``min 1/2 x'Hx + q'x s.t. Cx >= d`` for :func:`_active_set`."""

    lam = np.zeros(0)  # no equality rows

    def __init__(self, H, q, C, d):
        self.H, self.q, self.C, self.d = H, q, C, d
        self.bounds = _bound_structure(C)

    def solve(self, W, p=None):
        """Minimizer with the rows ``W`` as equalities, their multipliers, and
        the (empty) equality multipliers; with ``p``, the response of these
        to a unit multiplier on row ``p``."""
        n, t = self.H.shape[0], len(W)
        K = np.zeros((n + t, n + t))
        K[:n, :n] = self.H
        K[:n, n:] = -self.C[W].T
        K[n:, :n] = self.C[W]
        if p is None:
            rhs = np.concatenate([-self.q, self.d[W]])
        else:
            rhs = np.concatenate([self.C[p], np.zeros(t)])
        sol = np.linalg.solve(K, rhs)
        return sol[:n], sol[n:], self.lam

    def normal(self, p):
        return self.C[p]

    def rows(self, x):
        return self.C @ x

    def grad(self, x):
        return self.H @ x + self.q

    def dense_rows(self):
        return np.zeros((0, self.H.shape[0])), self.C


def _independent(space, W):
    """Whether the rows ``W``, with the space's equality rows, are linearly independent."""
    if space.bounds is not None:
        return len(set(space.bounds[0][W].tolist())) == len(W)
    E, C = space.dense_rows()
    rows = np.vstack([E, C[W]])
    return np.linalg.matrix_rank(rows) == rows.shape[0]


def _active_set(space, warm_active):
    """Dual active-set method (Goldfarb & Idnani) on ``space``; the one copy of
    the QP policy.

    ``space.solve(W)`` returns the minimizer with the rows ``W`` held as
    equalities, the rows' multipliers and the equality multipliers;
    ``space.solve(W, p)`` returns the response of all three to a unit
    multiplier on row ``p`` (the full space reuses the factorization of
    ``W``).  The loop starts at the minimizer of ``warm_active`` if its rows
    are independent, else of the empty set, and drops the most negative
    multiplier below ``-(1e-9 + 100 eps |grad|)`` until none is left.  That
    point need not satisfy the other rows.  While one of them is violated by more than ``FEAS_TOL``, the
    multiplier of the most violated one grows: if a held multiplier reaches
    zero first, that row leaves the set, otherwise the row joins it once
    tight.  A row whose normal depends on the set moves only the
    multipliers, and if none of them decreases the QP is infeasible.  Ties
    go to the smallest row index.  A point reached by such steps is solved
    once more with the final set held.

    Returns ``(x, mu, active_set, lam, solves, changes)``: ``solves``
    counts the KKT solves (at most ``QP_MAX_ITER``), ``changes``
    the working-set changes.
    """
    d = space.d
    m = d.shape[0]
    W = sorted({int(i) for i in warm_active or ()})  # kept sorted: argmin takes the smallest row
    if W and not (m and _independent(space, W)):
        W = []
    solves = 0

    def solve(*args):
        nonlocal solves
        solves += 1
        if solves > QP_MAX_ITER:
            raise QpSolverError(f"active-set iteration cap ({QP_MAX_ITER}) exceeded")
        return space.solve(*args)

    try:
        x, mu_W, lam = solve(W)
    except (np.linalg.LinAlgError, QpSolverError):
        W = []
        x, mu_W, lam = solve(W)
    changes = 0
    # negative multipliers below the attainable accuracy are noise;
    # anything clearly beyond that scale must be dropped
    while W and np.min(mu_W) < -(1e-9 + 100.0 * np.finfo(float).eps * np.max(np.abs(space.grad(x)))):
        W.pop(int(np.argmin(mu_W)))
        changes += 1
        x, mu_W, lam = solve(W)
    mu = np.zeros(m)
    mu[W] = mu_W
    stepped = False
    while m:
        viol = d - space.rows(x)
        viol[W] = -np.inf
        if np.max(viol) <= FEAS_TOL:
            break
        p = int(np.argmax(viol))
        while p not in W:
            dx, dmu, _ = solve(W, p)
            normal = space.normal(p)
            slope = float(normal @ dx)
            full = np.inf  # the step that makes row p tight
            # a normal in the span of the held rows leaves only roundoff in dx
            if slope > 1e-10 * np.linalg.norm(normal) * np.linalg.norm(dx):
                full = max(d[p] - float(normal @ x), 0.0) / slope
            falling = np.flatnonzero(dmu < -1e-12 * np.max(np.abs(dmu), initial=0.0))
            ratios = np.maximum(mu[W][falling], 0.0) / -dmu[falling]
            partial = np.min(ratios, initial=np.inf)  # the step that zeroes a held multiplier
            if full == partial == np.inf:
                raise QpInfeasibleError("no feasible point exists", violated=[p])
            step = min(full, partial)
            x = x + step * dx
            mu[W] += step * dmu
            mu[p] += step
            changes += 1
            stepped = True
            if full <= partial:
                W = sorted(W + [p])
            else:
                mu[W.pop(int(falling[np.argmin(ratios)]))] = 0.0
    if stepped:
        # the steps carry the roundoff of every point they passed through;
        # the final set's own solve brings the point (and lam, which the
        # steps leave alone) back to its scale
        x, mu_W, lam = solve(W)
        mu = np.zeros(m)
        mu[W] = mu_W
    return x, np.maximum(mu, 0.0), tuple(W), lam, solves, changes


def solve_dense_qp(H, q, C=None, d=None, warm_active=None) -> DenseQpResult:
    """Dual active-set method for ``min 1/2 x'Hx + q'x s.t. Cx >= d``.

    ``H`` must be symmetric positive definite.  Each working set is solved
    through its saddle-point system.  ``warm_active`` seeds the working
    set, which lets an identical re-solve terminate without active-set
    changes.  The loop is :func:`_active_set`, shared with the structured
    QP's vector phase.
    """
    H = np.asarray(H, dtype=float)
    q = np.asarray(q, dtype=float)
    n = H.shape[0]
    np.linalg.cholesky(H)  # raises LinAlgError unless H is positive definite
    if not np.all(np.isfinite(q)):
        raise QpSolverError("QP gradient is not finite")
    C = np.zeros((0, n)) if C is None else np.asarray(C, dtype=float)
    d = np.zeros(0) if d is None else np.asarray(d, dtype=float)
    if not np.all(np.isfinite(d)):
        raise QpSolverError("QP constraint bounds are not finite")
    x, mu, active, _, it, changes = _active_set(_DenseSpace(H, q, C, d), warm_active)
    return DenseQpResult(x, mu, active, it, changes)
