"""The four inner-iteration levels on one advanced problem.

Starting from the solution for the current state, each level iterates
toward the solution at a predicted next state with different amounts of
frozen data.  Level D converges fastest, level C linearly, level B to a
feasible but shifted point (its stationarity gap equals the norm of the
perturbation vector beta), and level A is a single prepared re-solve.
"""

import numpy as np

from asrti import (
    beta_vector,
    estimate_contraction,
    eval_kkt,
    level_a,
    level_b,
    level_c,
    level_d,
    prepare_linearization,
    sqp_solve,
    transcribe,
)
from asrti.benchmark import build_pendulum_ocp, pendulum_model
from asrti.integrators import radau3_step

nlp = transcribe(build_pendulum_ocp())
x_hat = np.array([0.15, 0.1, 0.0, 0.2])
z_hat = sqp_solve(nlp, x_hat, nlp.cold_start(x_hat), tol=1e-12, max_iter=50).iterate
u0 = nlp.first_control(z_hat.w)
x_pred = radau3_step(pendulum_model(), x_hat, u0, 0.05, sensitivities=False).x_next
prep = prepare_linearization(nlp, z_hat)
z_star = sqp_solve(nlp, x_pred, z_hat, tol=1e-12, max_iter=50).iterate
print(f"advanced problem: |x_pred - x_hat| = {np.linalg.norm(x_pred - x_hat):.4f}")
print(f"initial distance to solution: {np.linalg.norm(z_hat.stacked() - z_star.stacked()):.3e}\n")

for label, step in [
    ("level D", lambda z: level_d(nlp, x_pred, z, 1)),
    ("level C", lambda z: level_c(prep, nlp, x_pred, z, 1)),
]:
    z = z_hat
    errs = [np.linalg.norm(z_hat.stacked() - z_star.stacked())]
    for _ in range(6):
        z = step(z)
        errs.append(np.linalg.norm(z.stacked() - z_star.stacked()))
    print(f"{label}: errors", "  ".join(f"{e:.2e}" for e in errs))
    diag = estimate_contraction(np.array([e for e in errs if e > 0]))
    print(f"         terminal ratio {diag.kappa:.3f}, contractive: {diag.contractive}")

# level B measured against z_star plateaus at the suboptimality offset of
# its own (shifted) limit point
z = z_hat
errs = [np.linalg.norm(z_hat.stacked() - z_star.stacked())]
for _ in range(6):
    z = level_b(prep, nlp, x_pred, z, 1)
    errs.append(np.linalg.norm(z.stacked() - z_star.stacked()))
print("level B: errors", "  ".join(f"{e:.2e}" for e in errs))
print("         (plateau = distance between the shifted level-B limit and the true solution)")

za = level_a(prep, x_pred)
print(f"level A: single prepared re-solve, error {np.linalg.norm(za.stacked() - z_star.stacked()):.2e}")

# level B converges to a feasible but suboptimal point; the stationarity
# gap equals the norm of the gradient perturbation beta
zb = level_b(prep, nlp, x_pred, z_hat, 80)
kkt = eval_kkt(nlp, zb, x_pred)
beta = beta_vector(prep, zb, nlp)
print("\nlevel-B limit point:")
print(f"  equality residual  {kkt.eq:.2e}  (feasible)")
print(f"  stationarity       {kkt.stat:.6e}")
print(f"  ||beta||_inf       {np.max(np.abs(beta)):.6e}  (matches stationarity)")
