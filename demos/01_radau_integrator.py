"""Radau IIA integration: order, stiffness, and step sensitivities.

Walks through the implicit integrator on its own: third-order convergence
on a nonlinear ODE with a known solution, stability on a stiff decay, and
the exactness of the step sensitivities against finite differences.
"""

import numpy as np

from asrti import OdeModel, radau3_step, simulate_plant
from asrti.benchmark import pendulum_model

# --- a scalar nonlinear ODE with closed-form solution --------------------
# xdot = -x^3  =>  x(t) = x0 / sqrt(1 + 2 x0^2 t)
model = OdeModel(
    n_x=1,
    n_u=1,
    rhs=lambda x, u: -x**3 + u,
    jac_x=lambda x, u: (-3.0 * x**2)[..., None],
    jac_u=lambda x, u: np.ones(x.shape + (1,)),
)

exact = 1.0 / np.sqrt(3.0)
print("global error on x' = -x^3 over [0, 1]:")
prev = None
for steps in (10, 20, 40, 80, 160):
    x = np.array([1.0])
    for _ in range(steps):
        x = radau3_step(model, x, np.zeros(1), 1.0 / steps, sensitivities=False).x_next
    err = abs(x[0] - exact)
    ratio = "" if prev is None else f"   error ratio vs previous: {prev / err:5.2f} (order 3 -> ~8)"
    print(f"  {steps:4d} steps: error {err:.3e}{ratio}")
    prev = err

# --- A-stability on a very stiff decay ------------------------------------
stiff = OdeModel(
    n_x=1,
    n_u=1,
    rhs=lambda x, u: -1e6 * x,
    jac_x=lambda x, u: np.full(x.shape + (1,), -1e6),
    jac_u=lambda x, u: np.zeros(x.shape + (1,)),
)
res = radau3_step(stiff, np.array([1.0]), np.zeros(1), 0.05)
print(f"\nstiff decay x' = -1e6 x, h = 0.05: |x_next| = {abs(res.x_next[0]):.2e} (< 1, A-stable)")

# --- sensitivities on the cart-pole ---------------------------------------
pend = pendulum_model()
x = np.array([0.1, 0.2, -0.3, 0.5])
u = np.array([8.0])
step = radau3_step(pend, x, u, 0.05)
eps = 1e-6
fd = np.column_stack(
    [
        (radau3_step(pend, x + e, u, 0.05).x_next - radau3_step(pend, x - e, u, 0.05).x_next) / (2 * eps)
        for e in eps * np.eye(4)
    ]
)
print(f"\ncart-pole step sensitivity vs finite differences: max dev {np.max(np.abs(step.S_x - fd)):.2e}")
print(f"plant roll-out 0.05 s with 10 substeps: {simulate_plant(pend, x, u, 0.05, 10).round(6)}")
