"""Optimal control problems and their compact parametric NLP form.

An :class:`OcpSpec` describes a horizon of ``N`` stages with stage costs,
discrete dynamics, path constraints and a terminal cost.  ``transcribe``
turns it into an :class:`OcpNlp`:

    min_w  f(w)   s.t.  0 = g(w) + M x,   0 <= h(w)

with the stacked variable order ``w = (s_0, u_0, s_1, u_1, ..., s_N)``.
The equality rows are the initial-state residual ``s_0 - x`` followed by
the shooting gaps ``phi_k(s_k, u_k) - s_{k+1}``; the parameter ``x``
enters only through the embedding matrix ``M`` (a minus-identity block on
the initial-state rows).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .integrators import OdeModel, radau3_step, radau3_step_batch
from .qp import build_qp_data, eq_jac_t_product, ineq_jac_t_product

__all__ = [
    "OcpConfigError",
    "QuadraticStageCost",
    "QuadraticTerminalCost",
    "RadauDynamics",
    "LinearStageConstraint",
    "LinearTerminalConstraint",
    "control_bounds",
    "OcpSpec",
    "ParametricNlp",
    "OcpNlp",
    "Iterate",
    "KktResidual",
    "transcribe",
    "eval_kkt",
    "kkt_vectors",
    "lagrange_gradient",
]


class OcpConfigError(ValueError):
    """A callback or dimension in an OCP description is inconsistent."""


# ---------------------------------------------------------------------------
# Stage ingredients
# ---------------------------------------------------------------------------


class QuadraticStageCost:
    """Stage cost ``scale * (s'Q s + u'R u)`` with exact derivatives."""

    def __init__(self, Q, R, scale=1.0):
        self.Q = np.asarray(Q, dtype=float)
        self.R = np.atleast_2d(np.asarray(R, dtype=float))
        self.scale = float(scale)

    def value(self, s, u):
        return self.scale * (s @ self.Q @ s + u @ self.R @ u)

    def gradient(self, s, u):
        return np.concatenate([2.0 * self.scale * (self.Q @ s), 2.0 * self.scale * (self.R @ u)])

    def hessian(self, s, u):
        n, m = self.Q.shape[0], self.R.shape[0]
        H = np.zeros((n + m, n + m))
        H[:n, :n] = 2.0 * self.scale * self.Q
        H[n:, n:] = 2.0 * self.scale * self.R
        return H


class QuadraticTerminalCost:
    """Terminal cost ``s'P s``."""

    def __init__(self, P):
        self.P = np.asarray(P, dtype=float)

    def value(self, s):
        return s @ self.P @ s

    def gradient(self, s):
        return 2.0 * (self.P @ s)

    def hessian(self, s):
        return 2.0 * self.P.copy()


class RadauDynamics:
    """Discrete dynamics: one Radau IIA step of the model over ``dt``."""

    def __init__(self, model: OdeModel, dt: float):
        if dt <= 0.0:
            raise OcpConfigError(f"interval length must be positive, got {dt}")
        self.model = model
        self.dt = float(dt)

    def propagate(self, s, u, sensitivities=True):
        res = radau3_step(self.model, s, u, self.dt, sensitivities=sensitivities)
        return res.x_next, res.S_x, res.S_u


class LinearStageConstraint:
    """Affine stage constraint ``C_s s + C_u u + offset >= 0``."""

    def __init__(self, C_s, C_u, offset):
        self.C_s = np.atleast_2d(np.asarray(C_s, dtype=float))
        self.C_u = np.atleast_2d(np.asarray(C_u, dtype=float))
        self.offset = np.atleast_1d(np.asarray(offset, dtype=float))
        self.m = self.offset.shape[0]

    def value(self, s, u):
        return self.C_s @ s + self.C_u @ u + self.offset

    def jacobians(self, s, u):
        return self.C_s, self.C_u


class LinearTerminalConstraint:
    """Affine terminal constraint ``C_s s + offset >= 0``."""

    def __init__(self, C_s, offset):
        self.C_s = np.atleast_2d(np.asarray(C_s, dtype=float))
        self.offset = np.atleast_1d(np.asarray(offset, dtype=float))
        self.m = self.offset.shape[0]

    def value(self, s):
        return self.C_s @ s + self.offset

    def jacobians(self, s):
        return self.C_s


def control_bounds(n_x, lower, upper):
    """Box bounds on the control as a linear stage constraint.

    Rows are ``u - lower >= 0`` stacked over ``upper - u >= 0``.
    """
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    n_u = lower.shape[0]
    eye = np.eye(n_u)
    C_u = np.vstack([eye, -eye])
    C_s = np.zeros((2 * n_u, n_x))
    offset = np.concatenate([-lower, upper])
    return LinearStageConstraint(C_s, C_u, offset)


# ---------------------------------------------------------------------------
# OCP description
# ---------------------------------------------------------------------------


@dataclass
class OcpSpec:
    """Multi-stage OCP: costs, dynamics and constraints over a time grid.

    ``stage_costs``, ``dynamics`` and ``stage_constraints`` have one entry
    per interval (constraints may be None); ``terminal_constraint`` may be
    None.  The interval lengths in ``dt_grid`` need not be uniform.
    """

    n_x: int
    n_u: int
    dt_grid: np.ndarray
    stage_costs: Sequence
    terminal_cost: object
    dynamics: Sequence
    stage_constraints: Sequence = None
    terminal_constraint: object = None

    @property
    def N(self):
        return len(self.dt_grid)

    def validate(self):
        N = self.N
        if N < 1:
            raise OcpConfigError("horizon must contain at least one interval")
        dt = np.asarray(self.dt_grid, dtype=float)
        if np.any(dt <= 0.0):
            raise OcpConfigError("all interval lengths must be positive")
        if len(self.stage_costs) != N or len(self.dynamics) != N:
            raise OcpConfigError("stage_costs and dynamics must have one entry per interval")
        if self.stage_constraints is not None and len(self.stage_constraints) != N:
            raise OcpConfigError("stage_constraints must have one entry per interval (or be None)")
        s0 = np.zeros(self.n_x)
        u0 = np.zeros(self.n_u)
        for k in range(N):
            try:
                grad = np.asarray(self.stage_costs[k].gradient(s0, u0))
                hess = np.asarray(self.stage_costs[k].hessian(s0, u0))
                nxt, Sx, Su = self.dynamics[k].propagate(s0, u0, sensitivities=True)
            except (ValueError, IndexError) as exc:
                raise OcpConfigError(f"stage {k} callback rejected probe inputs: {exc}") from exc
            if grad.shape != (self.n_x + self.n_u,):
                raise OcpConfigError(f"stage cost {k}: gradient shape {grad.shape}")
            if hess.shape != (self.n_x + self.n_u, self.n_x + self.n_u):
                raise OcpConfigError(f"stage cost {k}: hessian shape {hess.shape}")
            if np.asarray(nxt).shape != (self.n_x,):
                raise OcpConfigError(f"dynamics {k}: state shape {np.asarray(nxt).shape}")
            if np.asarray(Sx).shape != (self.n_x, self.n_x) or np.asarray(Su).shape != (
                self.n_x,
                self.n_u,
            ):
                raise OcpConfigError(f"dynamics {k}: Jacobian shapes inconsistent")
            con = self.stage_constraints[k] if self.stage_constraints is not None else None
            if con is not None:
                try:
                    v = np.asarray(con.value(s0, u0))
                    Cs, Cu = con.jacobians(s0, u0)
                except (ValueError, IndexError) as exc:
                    raise OcpConfigError(f"stage constraint {k} rejected probe inputs: {exc}") from exc
                if v.shape != (con.m,) or Cs.shape != (con.m, self.n_x) or Cu.shape != (con.m, self.n_u):
                    raise OcpConfigError(f"stage constraint {k}: shapes inconsistent")
        try:
            gT = np.asarray(self.terminal_cost.gradient(s0))
        except (ValueError, IndexError) as exc:
            raise OcpConfigError(f"terminal cost rejected probe inputs: {exc}") from exc
        if gT.shape != (self.n_x,):
            raise OcpConfigError(f"terminal cost gradient shape {gT.shape}")
        if self.terminal_constraint is not None:
            v = np.asarray(self.terminal_constraint.value(s0))
            if v.shape != (self.terminal_constraint.m,):
                raise OcpConfigError("terminal constraint shape inconsistent")


# ---------------------------------------------------------------------------
# Iterates and KKT quantities
# ---------------------------------------------------------------------------


@dataclass
class Iterate:
    """Primal-dual point ``z = (w, lam, mu)``."""

    w: np.ndarray
    lam: np.ndarray
    mu: np.ndarray

    def copy(self):
        return Iterate(self.w.copy(), self.lam.copy(), self.mu.copy())

    def stacked(self):
        return np.concatenate([self.w, self.lam, self.mu])


@dataclass
class KktResidual:
    """Infinity norms of the four KKT residual blocks."""

    stat: float
    eq: float
    ineq: float
    comp: float

    def max(self):
        return max(self.stat, self.eq, self.ineq, self.comp)

    def satisfied(self, tol):
        return self.max() <= tol

    @classmethod
    def from_vectors(cls, stat, eq, ineq, comp):
        """Infinity norms of the four residual vectors (0 for an empty one)."""

        def _norm(v):
            return float(np.max(np.abs(v))) if np.size(v) else 0.0

        return cls(_norm(stat), _norm(eq), _norm(ineq), _norm(comp))


# ---------------------------------------------------------------------------
# Compact parametric NLP
# ---------------------------------------------------------------------------


class ParametricNlp:
    """Generic parametric NLP ``min f(w) s.t. 0 = g(w) + Mx, 0 <= h(w)``.

    Evaluation callbacks are supplied directly; ``jac_g`` / ``jac_h``
    return dense Jacobians (n_g, n_w) and (n_h, n_w).  Instances are
    immutable after construction and safe for concurrent evaluation.
    """

    def __init__(self, n_w, n_g, n_h, M, f, grad_f, g, jac_g, h=None, jac_h=None, hess_blocks=None):
        self.n_w = n_w
        self.n_g = n_g
        self.n_h = n_h
        self.M = np.asarray(M, dtype=float)
        self._f = f
        self._grad_f = grad_f
        self._g = g
        self._jac_g = jac_g
        self._h = h
        self._jac_h = jac_h
        self._hess_blocks = hess_blocks

    def f(self, w):
        return float(self._f(w))

    def grad_f(self, w):
        return np.asarray(self._grad_f(w), dtype=float)

    def g(self, w):
        return np.asarray(self._g(w), dtype=float)

    def jac_g(self, w):
        return np.asarray(self._jac_g(w), dtype=float)

    def h(self, w):
        if self._h is None:
            return np.zeros(0)
        return np.asarray(self._h(w), dtype=float)

    def jac_h(self, w):
        if self._jac_h is None:
            return np.zeros((0, self.n_w))
        return np.asarray(self._jac_h(w), dtype=float)


class OcpNlp(ParametricNlp):
    """Parametric NLP produced by multiple-shooting transcription.

    Beyond the generic interface it exposes the stage structure needed by
    the condensing layer (per-stage dynamics Jacobians, Hessian blocks,
    constraint blocks) plus pack/unpack helpers and evaluation counters
    used to audit which phases touch model callbacks.
    """

    def __init__(self, spec: OcpSpec):
        self.spec = spec
        N, n_x, n_u = spec.N, spec.n_x, spec.n_u
        self.N = N
        self.n_x = n_x
        self.n_u = n_u
        self._stride = n_x + n_u
        n_w = (N + 1) * n_x + N * n_u
        n_g = (N + 1) * n_x
        self._stage_m = [
            (spec.stage_constraints[k].m if spec.stage_constraints is not None and spec.stage_constraints[k] is not None else 0)
            for k in range(N)
        ]
        self._term_m = spec.terminal_constraint.m if spec.terminal_constraint is not None else 0
        n_h = int(sum(self._stage_m)) + self._term_m
        M = np.zeros((n_g, n_x))
        M[:n_x, :n_x] = -np.eye(n_x)
        super().__init__(n_w, n_g, n_h, M, None, None, None, None)
        self.counters = {"dynamics": 0, "dynamics_sens": 0, "cost": 0, "constraint": 0}
        # batched dynamics fast path: every interval one Radau step of a
        # shared vectorized model
        self._batched = (
            all(isinstance(d, RadauDynamics) for d in spec.dynamics)
            and len({id(d.model) for d in spec.dynamics}) == 1
            and spec.dynamics[0].model.vectorized
        )
        if self._batched:
            self._batch_model = spec.dynamics[0].model
            self._batch_dts = np.array([d.dt for d in spec.dynamics], dtype=float)
        # quadratic stage costs sharing one weight pair evaluate vectorized
        self._quad_cost = all(
            isinstance(c, QuadraticStageCost) for c in spec.stage_costs
        ) and isinstance(spec.terminal_cost, QuadraticTerminalCost)
        if self._quad_cost:
            Q0 = spec.stage_costs[0].Q
            R0 = spec.stage_costs[0].R
            self._quad_cost = all(
                c.Q is Q0 or np.array_equal(c.Q, Q0) for c in spec.stage_costs
            ) and all(c.R is R0 or np.array_equal(c.R, R0) for c in spec.stage_costs)
            if self._quad_cost:
                self._cost_Q = np.asarray(Q0, dtype=float)
                self._cost_R = np.atleast_2d(np.asarray(R0, dtype=float))
                self._cost_scales = np.array([c.scale for c in spec.stage_costs])
                self._hess_cache = None
        # constant inequality Jacobian blocks are prebuilt once
        self._linear_ineq = (
            spec.stage_constraints is None
            or all(c is None or isinstance(c, LinearStageConstraint) for c in spec.stage_constraints)
        ) and (spec.terminal_constraint is None or isinstance(spec.terminal_constraint, LinearTerminalConstraint))
        if self._linear_ineq:
            self._hs_blocks_cache = [
                (
                    np.hstack([c.C_s, c.C_u])
                    if (c := (spec.stage_constraints[k] if spec.stage_constraints is not None else None))
                    is not None and c.m > 0
                    else np.zeros((0, self._stride))
                )
                for k in range(N)
            ]
            self._ht_block_cache = (
                np.atleast_2d(spec.terminal_constraint.C_s)
                if spec.terminal_constraint is not None
                else np.zeros((0, n_x))
            )

    # -- layout -----------------------------------------------------------

    def s_slice(self, k):
        return slice(k * self._stride, k * self._stride + self.n_x)

    def u_slice(self, k):
        return slice(k * self._stride + self.n_x, (k + 1) * self._stride)

    def pack(self, states, controls):
        """Stack (N+1, n_x) states and (N, n_u) controls into w."""
        states = np.asarray(states, dtype=float)
        controls = np.asarray(controls, dtype=float)
        w = np.empty(self.n_w)
        sm = w[: self.N * self._stride].reshape(self.N, self._stride)
        sm[:, : self.n_x] = states[: self.N]
        sm[:, self.n_x :] = controls
        w[self.N * self._stride :] = states[self.N]
        return w

    def unpack(self, w):
        """Split w into ((N+1, n_x) states, (N, n_u) controls)."""
        sm = w[: self.N * self._stride].reshape(self.N, self._stride)
        states = np.empty((self.N + 1, self.n_x))
        states[: self.N] = sm[:, : self.n_x]
        states[self.N] = w[self.N * self._stride :]
        return states, sm[:, self.n_x :].copy()

    def first_control(self, w):
        return np.array(w[self.u_slice(0)])

    def cold_start(self, x):
        """Initial iterate: states interpolate from x to the origin."""
        x = np.asarray(x, dtype=float)
        states = np.array([(1.0 - k / self.N) * x for k in range(self.N + 1)])
        controls = np.zeros((self.N, self.n_u))
        return Iterate(self.pack(states, controls), np.zeros(self.n_g), np.zeros(self.n_h))

    # -- objective --------------------------------------------------------

    def f(self, w):
        states, controls = self.unpack(w)
        self.counters["cost"] += self.N + 1
        if self._quad_cost:
            stage = np.einsum("ki,ij,kj->k", states[: self.N], self._cost_Q, states[: self.N])
            stage += np.einsum("ki,ij,kj->k", controls, self._cost_R, controls)
            return float(self._cost_scales @ stage + self.spec.terminal_cost.value(states[self.N]))
        val = sum(
            self.spec.stage_costs[k].value(states[k], controls[k]) for k in range(self.N)
        )
        return float(val + self.spec.terminal_cost.value(states[self.N]))

    def grad_f(self, w):
        states, controls = self.unpack(w)
        self.counters["cost"] += self.N + 1
        grad = np.empty(self.n_w)
        if self._quad_cost:
            sm = grad[: self.N * self._stride].reshape(self.N, self._stride)
            scale = 2.0 * self._cost_scales[:, None]
            sm[:, : self.n_x] = scale * (states[: self.N] @ self._cost_Q.T)
            sm[:, self.n_x :] = scale * (controls @ self._cost_R.T)
        else:
            for k in range(self.N):
                gk = self.spec.stage_costs[k].gradient(states[k], controls[k])
                grad[k * self._stride : (k + 1) * self._stride] = gk
        grad[self.s_slice(self.N)] = self.spec.terminal_cost.gradient(states[self.N])
        return grad

    def hess_blocks(self, w):
        """Gauss-Newton Lagrangian Hessian: stage cost blocks only."""
        if self._quad_cost:
            if self._hess_cache is None:
                states, controls = self.unpack(w)
                self._hess_cache = [
                    self.spec.stage_costs[k].hessian(states[k], controls[k])
                    for k in range(self.N)
                ] + [self.spec.terminal_cost.hessian(states[self.N])]
            return self._hess_cache
        states, controls = self.unpack(w)
        blocks = [
            self.spec.stage_costs[k].hessian(states[k], controls[k]) for k in range(self.N)
        ]
        blocks.append(self.spec.terminal_cost.hessian(states[self.N]))
        return blocks

    # -- constraints ------------------------------------------------------

    def _propagate_all(self, states, controls, sensitivities):
        key = "dynamics_sens" if sensitivities else "dynamics"
        self.counters[key] += self.N
        if self._batched:
            nxt, Sx, Su, _ = radau3_step_batch(
                self._batch_model, states[: self.N], controls, self._batch_dts, sensitivities
            )
            return nxt, Sx, Su
        nxt = np.empty((self.N, self.n_x))
        Sx = np.empty((self.N, self.n_x, self.n_x)) if sensitivities else None
        Su = np.empty((self.N, self.n_x, self.n_u)) if sensitivities else None
        for k in range(self.N):
            xk, sx, su = self.spec.dynamics[k].propagate(states[k], controls[k], sensitivities)
            nxt[k] = xk
            if sensitivities:
                Sx[k] = sx
                Su[k] = su
        return nxt, Sx, Su

    def _eq_residual(self, states, nxt):
        g = np.empty(self.n_g)
        g[: self.n_x] = states[0]
        g[self.n_x :] = (nxt - states[1:]).reshape(self.N * self.n_x)
        return g

    def constraint_values(self, w):
        """Equality and inequality residual vectors (no derivatives)."""
        states, controls = self.unpack(w)
        nxt, _, _ = self._propagate_all(states, controls, sensitivities=False)
        return self._eq_residual(states, nxt), self._ineq_values(states, controls)

    def constraint_blocks(self, w):
        """Residuals plus the stage-structured Jacobian blocks.

        Returns ``(g, h, phi_x, phi_u, hs_blocks, ht_block)`` where
        ``phi_x``/``phi_u`` are the dynamics Jacobians per interval and the
        inequality blocks are per-stage ``(m_k, n_x + n_u)`` arrays.
        """
        states, controls = self.unpack(w)
        nxt, Sx, Su = self._propagate_all(states, controls, sensitivities=True)
        g = self._eq_residual(states, nxt)
        h = self._ineq_values(states, controls)
        if self._linear_ineq:
            return g, h, Sx, Su, self._hs_blocks_cache, self._ht_block_cache
        hs_blocks = []
        if self.spec.stage_constraints is not None:
            self.counters["constraint"] += self.N
            for k in range(self.N):
                con = self.spec.stage_constraints[k]
                if con is None or con.m == 0:
                    hs_blocks.append(np.zeros((0, self._stride)))
                    continue
                Cs, Cu = con.jacobians(states[k], controls[k])
                hs_blocks.append(np.hstack([Cs, Cu]))
        else:
            hs_blocks = [np.zeros((0, self._stride))] * self.N
        if self.spec.terminal_constraint is not None:
            ht_block = np.atleast_2d(self.spec.terminal_constraint.jacobians(states[self.N]))
        else:
            ht_block = np.zeros((0, self.n_x))
        return g, h, Sx, Su, hs_blocks, ht_block

    def _ineq_values(self, states, controls):
        if self.n_h == 0:
            return np.zeros(0)
        self.counters["constraint"] += self.N + (1 if self._term_m else 0)
        cons = self.spec.stage_constraints
        if (
            self._linear_ineq
            and cons is not None
            and all(c is cons[0] for c in cons)
            and cons[0] is not None
        ):
            con = cons[0]
            stage = states[: self.N] @ con.C_s.T + controls @ con.C_u.T + con.offset
            parts = [stage.reshape(self.N * con.m)]
        else:
            parts = []
            if cons is not None:
                for k in range(self.N):
                    con = cons[k]
                    if con is not None and con.m > 0:
                        parts.append(con.value(states[k], controls[k]))
        if self._term_m:
            parts.append(self.spec.terminal_constraint.value(states[self.N]))
        return np.concatenate(parts) if parts else np.zeros(0)

    def g(self, w):
        return self.constraint_values(w)[0]

    def h(self, w):
        return self.constraint_values(w)[1]

    def jac_g(self, w):
        _, _, Sx, Su, _, _ = self.constraint_blocks(w)
        return self.assemble_eq_jacobian(Sx, Su)

    def jac_h(self, w):
        _, _, _, _, hs_blocks, ht_block = self.constraint_blocks(w)
        return self.assemble_ineq_jacobian(hs_blocks, ht_block)

    def assemble_eq_jacobian(self, phi_x, phi_u):
        """Dense equality Jacobian from the dynamics blocks."""
        G = np.zeros((self.n_g, self.n_w))
        G[: self.n_x, : self.n_x] = np.eye(self.n_x)
        for k in range(self.N):
            rows = slice((k + 1) * self.n_x, (k + 2) * self.n_x)
            G[rows, self.s_slice(k)] = phi_x[k]
            G[rows, self.u_slice(k)] = phi_u[k]
            G[rows, self.s_slice(k + 1)] = -np.eye(self.n_x)
        return G

    def assemble_ineq_jacobian(self, hs_blocks, ht_block):
        H = np.zeros((self.n_h, self.n_w))
        row = 0
        for k in range(self.N):
            m = hs_blocks[k].shape[0]
            if m:
                H[row : row + m, k * self._stride : (k + 1) * self._stride] = hs_blocks[k]
                row += m
        if ht_block.shape[0]:
            H[row:, self.s_slice(self.N)] = ht_block
        return H


def transcribe(spec: OcpSpec) -> OcpNlp:
    """Validate an OCP and build its compact parametric NLP."""
    spec.validate()
    return OcpNlp(spec)


# ---------------------------------------------------------------------------
# KKT evaluation
# ---------------------------------------------------------------------------


def _kkt_vectors_from_data(data, z: Iterate, x):
    """KKT residual vectors of ``z`` from QP data evaluated at ``z.w``."""
    stat = data.grad - eq_jac_t_product(data.phi_x, data.phi_u, z.lam)
    if data.n_h:
        stat = stat - ineq_jac_t_product(data, z.mu)
    eq = data.eq_res.copy()
    eq[: data.n_x] -= x
    return stat, eq, np.maximum(0.0, -data.ineq_res), z.mu * data.ineq_res


def kkt_vectors(nlp, z: Iterate, x):
    """Raw KKT residual vectors (stationarity, equality, ineq violation, comp).

    The Lagrangian convention is ``L = f - lam'(g + Mx) - mu'h``, so the
    stationarity vector is ``grad f - G'lam - H'mu``.  Transcribed NLPs
    evaluate their QP data at ``z.w`` and use its stage structure instead
    of assembling dense Jacobians.
    """
    x = np.asarray(x, dtype=float)
    if isinstance(nlp, OcpNlp):
        return _kkt_vectors_from_data(build_qp_data(nlp, z.w), z, x)
    G = nlp.jac_g(z.w)
    H = nlp.jac_h(z.w)
    stat = nlp.grad_f(z.w) - G.T @ z.lam - (H.T @ z.mu if nlp.n_h else 0.0)
    eq = nlp.g(z.w) + nlp.M @ x
    hval = nlp.h(z.w)
    ineq = np.maximum(0.0, -hval)
    comp = z.mu * hval
    return stat, eq, ineq, comp


def lagrange_gradient(nlp, z: Iterate, x=None):
    """Gradient of the Lagrangian with respect to the primal variables."""
    return kkt_vectors(nlp, z, np.zeros(nlp.M.shape[1]) if x is None else x)[0]


def eval_kkt(nlp, z: Iterate, x) -> KktResidual:
    """Infinity-norm KKT residuals of ``z`` at parameter ``x``."""
    return KktResidual.from_vectors(*kkt_vectors(nlp, z, x))
