"""Optimal control problems and their compact parametric NLP form.

An :class:`OcpSpec` describes a horizon of ``N`` stages with stage costs,
one continuous-time model, path constraints and a terminal cost; the
discrete dynamics of interval ``k`` are one Radau IIA step of the model
over ``dt_grid[k]``.  ``transcribe`` turns it into an :class:`OcpNlp`:

    min_w  f(w)   s.t.  0 = g(w) + M x,   0 <= h(w)

with the stacked variable order ``w = (s_0, u_0, s_1, u_1, ..., s_N)``.
The equality rows are the initial-state residual ``s_0 - x`` followed by
the shooting gaps ``phi_k(s_k, u_k) - s_{k+1}``; the parameter ``x``
enters only through the embedding matrix ``M`` (a minus-identity block on
the initial-state rows).  Costs and inequality rows are quadratic and
affine with constant data, so only the dynamics depend on ``w`` beyond a
matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .integrators import IntegrationError, OdeModel, radau3_step, radau3_step_batch
from .qp import build_qp_data, eq_jac_t_product, ineq_jac_t_product

__all__ = [
    "OcpConfigError",
    "QuadraticStageCost",
    "QuadraticTerminalCost",
    "LinearStageConstraint",
    "LinearTerminalConstraint",
    "control_bounds",
    "OcpSpec",
    "OcpNlp",
    "Iterate",
    "KktResidual",
    "transcribe",
    "eval_kkt",
    "kkt_vectors",
]


class OcpConfigError(ValueError):
    """A callback or dimension in an OCP description is inconsistent."""


# ---------------------------------------------------------------------------
# Stage ingredients
# ---------------------------------------------------------------------------


class QuadraticStageCost:
    """Stage cost ``scale * (s'Q s + u'R u)``."""

    def __init__(self, Q, R, scale=1.0):
        self.Q = np.asarray(Q, dtype=float)
        self.R = np.atleast_2d(np.asarray(R, dtype=float))
        self.scale = float(scale)


class QuadraticTerminalCost:
    """Terminal cost ``s'P s``."""

    def __init__(self, P):
        self.P = np.asarray(P, dtype=float)


class LinearStageConstraint:
    """Affine stage constraint ``C_s s + C_u u + offset >= 0``."""

    def __init__(self, C_s, C_u, offset):
        self.C_s = np.atleast_2d(np.asarray(C_s, dtype=float))
        self.C_u = np.atleast_2d(np.asarray(C_u, dtype=float))
        self.offset = np.atleast_1d(np.asarray(offset, dtype=float))
        self.m = self.offset.shape[0]


class LinearTerminalConstraint:
    """Affine terminal constraint ``C_s s + offset >= 0``."""

    def __init__(self, C_s, offset):
        self.C_s = np.atleast_2d(np.asarray(C_s, dtype=float))
        self.offset = np.atleast_1d(np.asarray(offset, dtype=float))
        self.m = self.offset.shape[0]


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
    """Multi-stage OCP: costs, one model and constraints over a time grid.

    Interval ``k`` integrates ``model`` by one Radau IIA step over
    ``dt_grid[k]``; the interval lengths need not be uniform, and the
    model's callbacks must broadcast over a leading batch axis (see
    :class:`~asrti.integrators.OdeModel`).  ``stage_costs`` has one
    :class:`QuadraticStageCost` per interval, all sharing one ``(Q, R)``
    pair (only ``scale`` may vary per stage), and the terminal cost is a
    :class:`QuadraticTerminalCost`.  ``stage_constraints`` is
    None or a :class:`LinearStageConstraint` on every interval, all with
    the same row count; ``terminal_constraint`` is None or a
    :class:`LinearTerminalConstraint`.  ``validate`` rejects anything
    else.
    """

    n_x: int
    n_u: int
    dt_grid: np.ndarray
    stage_costs: Sequence
    terminal_cost: object
    model: OdeModel
    stage_constraints: Sequence = None
    terminal_constraint: object = None

    @property
    def N(self):
        return len(self.dt_grid)

    def validate(self):
        N, n_x, n_u = self.N, self.n_x, self.n_u
        if N < 1:
            raise OcpConfigError("horizon must contain at least one interval")
        dt = np.asarray(self.dt_grid, dtype=float)
        if np.any(dt <= 0.0):
            raise OcpConfigError("all interval lengths must be positive")
        if len(self.stage_costs) != N:
            raise OcpConfigError("stage_costs must have one entry per interval")
        costs = self.stage_costs
        if not all(isinstance(c, QuadraticStageCost) for c in costs):
            raise OcpConfigError("stage costs must be QuadraticStageCost objects")
        Q, R = costs[0].Q, costs[0].R
        if Q.shape != (n_x, n_x) or R.shape != (n_u, n_u):
            raise OcpConfigError(f"stage cost weights: Q shape {Q.shape}, R shape {R.shape}")
        if not all(np.array_equal(c.Q, Q) and np.array_equal(c.R, R) for c in costs):
            raise OcpConfigError("stage costs must share one (Q, R) pair; only scale may vary")
        if not isinstance(self.terminal_cost, QuadraticTerminalCost):
            raise OcpConfigError("terminal cost must be a QuadraticTerminalCost")
        if self.terminal_cost.P.shape != (n_x, n_x):
            raise OcpConfigError(f"terminal cost weight shape {self.terminal_cost.P.shape}")
        cons = self.stage_constraints
        if cons is not None:
            if len(cons) != N or not all(isinstance(c, LinearStageConstraint) for c in cons):
                raise OcpConfigError(
                    "stage_constraints must be None or a LinearStageConstraint on every interval"
                )
            if len({c.m for c in cons}) != 1:
                raise OcpConfigError(
                    "stage constraints must have the same row count on every interval"
                )
            for k, c in enumerate(cons):
                if c.C_s.shape != (c.m, n_x) or c.C_u.shape != (c.m, n_u):
                    raise OcpConfigError(f"stage constraint {k}: shapes inconsistent")
        term = self.terminal_constraint
        if term is not None:
            if not isinstance(term, LinearTerminalConstraint):
                raise OcpConfigError(
                    "terminal constraint must be None or a LinearTerminalConstraint"
                )
            if term.C_s.shape != (term.m, n_x):
                raise OcpConfigError("terminal constraint shape inconsistent")
        # Distinct probe states and controls: a callback that reads only the
        # first batch entry passes a probe at identical points.  The last
        # entry is stepped once more on its own and must agree.
        frac = np.arange(N) / N
        xs = 0.1 * frac[:, None] * np.ones(n_x)
        us = 0.1 * frac[:, None] * np.ones(n_u)
        try:
            nxt, Sx, Su, _ = radau3_step_batch(self.model, xs, us, dt)
            single = radau3_step(self.model, xs[-1], us[-1], dt[-1])
        except (ValueError, IndexError, IntegrationError) as exc:
            raise OcpConfigError(f"model rejected a batched probe step: {exc}") from exc
        shapes = (np.shape(nxt), np.shape(Sx), np.shape(Su))
        if shapes != ((N, n_x), (N, n_x, n_x), (N, n_x, n_u)):
            raise OcpConfigError(f"model step shapes {shapes} inconsistent with n_x, n_u")
        for name, batched, one in (
            ("x_next", nxt, single.x_next), ("S_x", Sx, single.S_x), ("S_u", Su, single.S_u)
        ):
            if not np.allclose(batched[-1], one, rtol=1e-6, atol=1e-9):
                gap = float(np.max(np.abs(batched[-1] - one)))
                raise OcpConfigError(
                    f"batched {name} of the last interval is {gap:.2e} off a single step; "
                    "the callbacks must broadcast over the batch axis"
                )


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


class OcpNlp:
    """Parametric NLP produced by multiple-shooting transcription.

    The spec's constant stage data is built once: the weight pair
    ``(Q, R)`` with per-stage scales, the N+1 Hessian blocks, the stage
    inequality rows ``(N, m, n_x+n_u)`` with offsets ``(N, m)`` and the
    terminal rows ``(m_T, n_x)`` with their offset.  All N intervals are
    integrated in one batched Radau step.  The QP layer reads the
    stage structure together with the per-interval dynamics Jacobians.
    Pack/unpack helpers, the one-interval ``shift`` of an iterate
    (``uniform_grid`` tells whether every interval equals the first, the
    grids on which that shift is time-consistent) and evaluation counters,
    which audit which phases touch model callbacks, complete the interface.
    """

    def __init__(self, spec: OcpSpec):
        self.spec = spec
        N, n_x, n_u = spec.N, spec.n_x, spec.n_u
        self.N = N
        self.n_x = n_x
        self.n_u = n_u
        self._stride = n_x + n_u
        self.n_w = (N + 1) * n_x + N * n_u
        self.n_g = (N + 1) * n_x
        self.M = np.zeros((self.n_g, n_x))
        self.M[:n_x, :n_x] = -np.eye(n_x)
        self.counters = {"dynamics": 0, "dynamics_sens": 0, "cost": 0, "constraint": 0}
        self._dt = np.asarray(spec.dt_grid, dtype=float)
        self.uniform_grid = bool(np.all(self._dt == self._dt[0]))
        self._cost_Q = spec.stage_costs[0].Q
        self._cost_R = spec.stage_costs[0].R
        self._cost_scales = np.array([c.scale for c in spec.stage_costs])
        self._cost_P = spec.terminal_cost.P
        stage_hess = np.zeros((N, self._stride, self._stride))
        scale = 2.0 * self._cost_scales[:, None, None]
        stage_hess[:, :n_x, :n_x] = scale * self._cost_Q
        stage_hess[:, n_x:, n_x:] = scale * self._cost_R
        self._hess = list(stage_hess) + [2.0 * self._cost_P]
        cons = spec.stage_constraints
        if cons is None:
            cons = [LinearStageConstraint(np.zeros((0, n_x)), np.zeros((0, n_u)), np.zeros(0))] * N
        self._ineq_C = np.array([np.hstack([c.C_s, c.C_u]) for c in cons])
        self._ineq_offset = np.array([c.offset for c in cons])
        term = spec.terminal_constraint
        if term is None:
            term = LinearTerminalConstraint(np.zeros((0, n_x)), np.zeros(0))
        self._ineq_C_T, self._ineq_offset_T = term.C_s, term.offset
        self.n_h = self._ineq_offset.size + self._ineq_offset_T.size

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

    def shift(self, z: Iterate) -> Iterate:
        """Shift ``z`` by one interval: stage k+1 becomes stage k.

        States, controls, shooting-gap multipliers and stage-row
        multipliers move up one stage and the last stage is repeated; the
        initial-value multipliers and the terminal-row multipliers are
        kept.  No model is evaluated.
        """

        def up(a):
            return np.concatenate([a[1:], a[-1:]])

        states, controls = self.unpack(z.w)
        lam = z.lam.copy()
        lam[self.n_x :] = up(z.lam[self.n_x :].reshape(self.N, self.n_x)).reshape(-1)
        mu = z.mu.copy()
        n_stage = self._ineq_offset.size
        mu[:n_stage] = up(z.mu[:n_stage].reshape(self._ineq_offset.shape)).reshape(-1)
        return Iterate(self.pack(up(states), up(controls)), lam, mu)

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
        stage = np.einsum("ki,ij,kj->k", states[: self.N], self._cost_Q, states[: self.N])
        stage += np.einsum("ki,ij,kj->k", controls, self._cost_R, controls)
        s_N = states[self.N]
        return float(self._cost_scales @ stage + s_N @ self._cost_P @ s_N)

    def grad_f(self, w):
        states, controls = self.unpack(w)
        self.counters["cost"] += self.N + 1
        grad = np.empty(self.n_w)
        sm = grad[: self.N * self._stride].reshape(self.N, self._stride)
        scale = 2.0 * self._cost_scales[:, None]
        sm[:, : self.n_x] = scale * (states[: self.N] @ self._cost_Q.T)
        sm[:, self.n_x :] = scale * (controls @ self._cost_R.T)
        grad[self.s_slice(self.N)] = 2.0 * (self._cost_P @ states[self.N])
        return grad

    def hess_blocks(self, w):
        """Gauss-Newton Lagrangian Hessian: the constant stage cost blocks."""
        return self._hess

    # -- constraints ------------------------------------------------------

    def _step_all(self, states, controls, sensitivities):
        key = "dynamics_sens" if sensitivities else "dynamics"
        self.counters[key] += self.N
        nxt, Sx, Su, _ = radau3_step_batch(
            self.spec.model, states[: self.N], controls, self._dt, sensitivities
        )
        return nxt, Sx, Su

    def simulate_first_interval(self, x, u):
        """State at the end of the first interval from ``x`` under control ``u``."""
        self.counters["dynamics"] += 1
        return radau3_step(self.spec.model, x, u, self._dt[0], sensitivities=False).x_next

    def _eq_residual(self, states, nxt):
        g = np.empty(self.n_g)
        g[: self.n_x] = states[0]
        g[self.n_x :] = (nxt - states[1:]).reshape(self.N * self.n_x)
        return g

    def _ineq_values(self, w):
        if self.n_h:
            self.counters["constraint"] += self.N + (1 if self._ineq_offset_T.size else 0)
        split = self.N * self._stride
        stage = np.matmul(self._ineq_C, w[:split].reshape(self.N, self._stride, 1))[:, :, 0]
        return np.concatenate([
            (stage + self._ineq_offset).reshape(-1),
            self._ineq_C_T @ w[split:] + self._ineq_offset_T,
        ])

    def constraint_values(self, w):
        """Equality and inequality residual vectors (no derivatives)."""
        states, controls = self.unpack(w)
        nxt, _, _ = self._step_all(states, controls, sensitivities=False)
        return self._eq_residual(states, nxt), self._ineq_values(w)

    def constraint_blocks(self, w):
        """Residuals plus the stage-structured Jacobian blocks.

        Returns ``(g, h, phi_x, phi_u, hs_blocks, ht_block)`` where
        ``phi_x``/``phi_u`` are the dynamics Jacobians per interval,
        ``hs_blocks`` the constant ``(N, m, n_x + n_u)`` stage inequality
        rows and ``ht_block`` the ``(m_T, n_x)`` terminal rows.
        """
        states, controls = self.unpack(w)
        nxt, Sx, Su = self._step_all(states, controls, sensitivities=True)
        g = self._eq_residual(states, nxt)
        return g, self._ineq_values(w), Sx, Su, self._ineq_C, self._ineq_C_T


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


def kkt_vectors(nlp: OcpNlp, z: Iterate, x):
    """Raw KKT residual vectors (stationarity, equality, ineq violation, comp).

    The Lagrangian convention is ``L = f - lam'(g + Mx) - mu'h``, so the
    stationarity vector is ``grad f - G'lam - H'mu``.  The QP data at
    ``z.w`` supplies the stage structure of ``G`` and ``H``.
    """
    return _kkt_vectors_from_data(build_qp_data(nlp, z.w), z, np.asarray(x, dtype=float))


def eval_kkt(nlp: OcpNlp, z: Iterate, x) -> KktResidual:
    """Infinity-norm KKT residuals of ``z`` at parameter ``x``."""
    return KktResidual.from_vectors(*kkt_vectors(nlp, z, x))
