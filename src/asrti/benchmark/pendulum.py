"""Inverted pendulum on a cart: model, terminal cost and OCP assembly.

State ``x = [p, theta, v, omega]`` (cart position, pole angle with 0 at
the upright position, cart velocity, angular velocity); the control is a
horizontal force on the cart.  The regulation OCP drives all states to
zero, i.e. stabilizes the pole upright at the origin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_discrete_are

from ..integrators import OdeModel, radau3_step
from ..nlp import OcpSpec, QuadraticStageCost, QuadraticTerminalCost, control_bounds

__all__ = [
    "PendulumParams",
    "pendulum_model",
    "dare_terminal_cost",
    "build_pendulum_ocp",
    "DEFAULT_STATE_WEIGHTS",
    "DEFAULT_CONTROL_WEIGHT",
]

DEFAULT_STATE_WEIGHTS = (100.0, 1e3, 0.01, 0.01)
DEFAULT_CONTROL_WEIGHT = 0.2


@dataclass
class PendulumParams:
    """Physical parameters of the cart-pole system."""

    cart_mass: float = 1.0
    pole_mass: float = 0.1
    length: float = 0.8
    gravity: float = 9.81

    def validate(self):
        if self.cart_mass <= 0 or self.pole_mass <= 0 or self.length <= 0:
            raise ValueError("masses and length must be positive")


def pendulum_model(params: PendulumParams = None) -> OdeModel:
    """Cart-pole ODE with analytic Jacobians that broadcast over a batch axis."""
    params = params or PendulumParams()
    params.validate()
    M, m, l, g = params.cart_mass, params.pole_mass, params.length, params.gravity

    def rhs(x, u):
        th = x[..., 1]
        v = x[..., 2]
        om = x[..., 3]
        F = u[..., 0]
        s = np.sin(th)
        c = np.cos(th)
        den = M + m * s * s
        vdot = (-m * l * s * om * om + m * g * c * s + F) / den
        omdot = (-m * l * c * s * om * om + F * c + (M + m) * g * s) / (l * den)
        xdot = np.empty(x.shape)
        xdot[..., 0] = v
        xdot[..., 1] = om
        xdot[..., 2] = vdot
        xdot[..., 3] = omdot
        return xdot

    def jac_x(x, u):
        th = x[..., 1]
        om = x[..., 3]
        F = u[..., 0]
        s = np.sin(th)
        c = np.cos(th)
        den = M + m * s * s
        dden = 2.0 * m * s * c
        num_v = -m * l * s * om * om + m * g * c * s + F
        dnum_v = -m * l * c * om * om + m * g * (c * c - s * s)
        num_w = -m * l * c * s * om * om + F * c + (M + m) * g * s
        dnum_w = -m * l * (c * c - s * s) * om * om - F * s + (M + m) * g * c
        J = np.zeros(x.shape[:-1] + (4, 4))
        J[..., 0, 2] = 1.0
        J[..., 1, 3] = 1.0
        J[..., 2, 1] = (dnum_v * den - num_v * dden) / (den * den)
        J[..., 2, 3] = -2.0 * m * l * s * om / den
        J[..., 3, 1] = (dnum_w * den - num_w * dden) / (l * den * den)
        J[..., 3, 3] = -2.0 * m * c * s * om / den
        return J

    def jac_u(x, u):
        th = x[..., 1]
        s = np.sin(th)
        c = np.cos(th)
        den = M + m * s * s
        J = np.zeros(x.shape[:-1] + (4, 1))
        J[..., 2, 0] = 1.0 / den
        J[..., 3, 0] = c / (l * den)
        return J

    return OdeModel(n_x=4, n_u=1, rhs=rhs, jac_x=jac_x, jac_u=jac_u)


def dare_terminal_cost(A, B, Q, R):
    """The stabilizing solution ``P`` of the DARE
    ``P = Q + A'PA - A'PB (R + B'PB)^-1 B'PA``, symmetrized."""
    P = solve_discrete_are(A, B, Q, np.atleast_2d(R))
    return 0.5 * (P + P.T)


def build_pendulum_ocp(
    params: PendulumParams = None,
    n_intervals=20,
    horizon=4.0,
    sampling_time=0.05,
    state_weights=DEFAULT_STATE_WEIGHTS,
    control_weight=DEFAULT_CONTROL_WEIGHT,
    control_limit=40.0,
    uniform_grid=False,
) -> OcpSpec:
    """Regulation OCP for the pendulum with a Riccati terminal cost.

    The default grid has a first interval of one sampling time and splits
    the remaining horizon uniformly over the other intervals; with
    ``uniform_grid`` all intervals get ``horizon / n_intervals``.  Stage
    costs are the quadratic penalty scaled by the interval length so that
    grids of different resolution approximate the same continuous-time
    objective; the terminal weight solves the DARE for the dynamics
    linearized at the upright steady state over one sampling time.
    """
    params = params or PendulumParams()
    model = pendulum_model(params)
    if uniform_grid:
        dt_grid = np.full(n_intervals, horizon / n_intervals)
    else:
        dt_grid = np.full(n_intervals, (horizon - sampling_time) / (n_intervals - 1))
        dt_grid[0] = sampling_time

    Q = np.diag(state_weights)
    R = np.array([[control_weight]])
    lin = radau3_step(model, np.zeros(4), np.zeros(1), sampling_time)
    P = dare_terminal_cost(lin.S_x, lin.S_u, sampling_time * Q, sampling_time * R)

    bounds = control_bounds(4, -control_limit, control_limit)
    return OcpSpec(
        n_x=4,
        n_u=1,
        dt_grid=dt_grid,
        stage_costs=[QuadraticStageCost(Q, R, scale=dt) for dt in dt_grid],
        terminal_cost=QuadraticTerminalCost(P),
        model=model,
        stage_constraints=[bounds] * n_intervals,
        terminal_constraint=None,
    )
