"""The matrix/vector split of the QP layer: prepare once, re-solve cheaply.

The matrix phase fills the QP's stage-ordered KKT matrix into band storage
once; the vector phase then serves many right-hand sides -- new residual
vectors or new parameters -- with banded solves, which is exactly what the
real-time feedback phase exploits.
"""

import time

import numpy as np

from asrti import transcribe
from asrti.benchmark import build_pendulum_ocp
from asrti.qp import build_qp_data, condense_lhs, condense_rhs_and_solve

nlp = transcribe(build_pendulum_ocp())
x = np.array([0.1, 0.1, 0.0, 0.0])
z = nlp.cold_start(x)
data = build_qp_data(nlp, z.w)

condense_lhs(data)  # warm-up (the band layout is built on first use)
t0 = time.perf_counter()
lhs = condense_lhs(data)
t_lhs = time.perf_counter() - t0
band = lhs.layout
print(f"matrix phase: KKT band of size {band.n} with half-bandwidth {band.bw}, {1e3*t_lhs:.2f} ms")

t0 = time.perf_counter()
sol = condense_rhs_and_solve(lhs, data, x)
t_rhs = time.perf_counter() - t0
print(f"vector phase (cold): {1e3*t_rhs:.2f} ms, active bounds {sol.active_set}")

# re-solve the same prepared matrices for a batch of new parameters: this
# is the feedback-phase workload
rng = np.random.default_rng(0)
t0 = time.perf_counter()
warm = sol.active_set
for _ in range(50):
    x_new = x + 0.02 * rng.normal(size=4)
    sol = condense_rhs_and_solve(lhs, data, x_new, warm_active=warm)
    warm = sol.active_set
t_batch = (time.perf_counter() - t0) / 50
print(f"vector phase (warm, new parameters): {1e3*t_batch:.2f} ms per solve")
print(f"\nmatrix phase amortizes over re-solves: {t_lhs / t_batch:.1f}x a vector phase")

du = sol.dw[nlp.u_slice(0)]
print(f"feedback control step for the last parameter: {du}")
