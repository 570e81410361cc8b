"""Real-time NMPC controllers: RTI, AS-RTI (levels A-D) and plain SQP.

One controller instance is a strict prepare -> feedback state machine.
For RTI and AS-RTI the preparation phase predicts the next state, runs
the configured inner iterations on the advanced problem, evaluates the QP
data at the resulting linearization point, fills the QP's banded KKT
matrix (the matrix phase) and maps the QP's solution affinely in the
state around the predicted one with one banded factorization and solve
(:func:`~asrti.qp.prepare_feedback_map`).  The feedback phase is one
vector-phase call for the measured state: it evaluates that map while its
active set stays optimal, otherwise it runs the active-set loop from the
map's set on the cached factorization.  It touches no model callbacks
(audited through the NLP evaluation counters).  In SQP mode the feedback
runs the SQP iterations from the carried iterate; on a uniform grid,
where every interval equals the first, the preparation shifts that
iterate by one interval beforehand.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .integrators import IntegrationError
from .mli import (
    MliConfig,
    PreparedLinearization,
    level_a,
    level_b,
    level_c,
    level_d,
    prepare_linearization,
    sqp_solve,
)
from .nlp import Iterate, OcpNlp, eval_kkt
from .qp import QpInfeasibleError, QpSolverError, condense_rhs_and_solve, prepare_feedback_map

__all__ = [
    "ControllerConfig",
    "CycleLog",
    "AsRtiController",
    "predict_state",
]


@dataclass
class ControllerConfig:
    """Algorithm selection for one closed-loop controller.

    ``mode`` is one of ``"rti"``, ``"as-rti"`` (with an :class:`MliConfig`
    describing the inner iterations) or ``"sqp"`` (up to
    ``inner_iterations`` SQP steps to ``sqp_tol`` in the feedback phase).
    The only preparation in ``"sqp"`` mode is a one-interval shift of the
    carried iterate (:meth:`~asrti.nlp.OcpNlp.shift`), made when every
    ``dt_grid`` entry equals the first; on any other grid the SQP starts
    from the previous output unshifted.
    """

    name: str
    mode: str
    mli: Optional[MliConfig] = None
    inner_iterations: int = 1
    sqp_tol: float = 1e-8

    def __post_init__(self):
        if self.mode not in ("rti", "as-rti", "sqp"):
            raise ValueError(f"unknown controller mode {self.mode!r}")
        if self.mode == "as-rti" and self.mli is None:
            raise ValueError("as-rti mode requires an MliConfig")
        if self.inner_iterations < 1:
            raise ValueError("inner_iterations must be >= 1")

    @classmethod
    def from_name(cls, name: str, **kwargs) -> "ControllerConfig":
        """Parse labels like ``rti``, ``as-rti-b-2``, ``sqp-100``."""
        label = name.strip().lower()
        if label == "rti":
            return cls(name=label, mode="rti", **kwargs)
        if label.startswith("as-rti-"):
            rest = label[len("as-rti-") :]
            parts = rest.split("-")
            level = parts[0]
            n = int(parts[1]) if len(parts) > 1 else 1
            return cls(name=label, mode="as-rti", mli=MliConfig(level, n), **kwargs)
        if label.startswith("sqp"):
            n = int(label.split("-")[1]) if "-" in label else 1
            return cls(name=label, mode="sqp", inner_iterations=n, **kwargs)
        raise ValueError(f"cannot parse controller name {name!r}")


@dataclass
class CycleLog:
    """Plain per-cycle record for the benchmark harness."""

    cycle: int
    preparation_s: float
    feedback_s: float
    fallback: bool
    feedback_evals: int
    inner_trace: Optional[list] = None
    feedback_residuals: Optional[tuple] = None
    # the feedback QpSolution's iterations (0: the map served it); None in sqp mode
    qp_iterations: Optional[int] = None


def predict_state(nlp: OcpNlp, x, z: Iterate):
    """Predict the state one sampling interval ahead.

    Simulates the first-interval discrete dynamics at the iterate's
    first-stage control.
    """
    return nlp.simulate_first_interval(np.asarray(x, dtype=float), nlp.first_control(z.w))


class AsRtiController:
    """Closed-loop controller executing the prepare/feedback cycle.

    On the first ``prepare`` call the iterate is cold-started (states
    interpolated from the measured state to the origin, zero controls and
    multipliers) and one extra linearization is prepared so that the
    inexact levels have a frozen reference available; the first cycle
    predicts with the measured state itself.
    """

    def __init__(self, nlp: OcpNlp, config: ControllerConfig, collect_traces=False):
        self.nlp = nlp
        self.config = config
        self.collect_traces = collect_traces
        self.fallbacks = 0
        self.cycle_logs: List[CycleLog] = []
        self._z: Optional[Iterate] = None
        self._prep: Optional[PreparedLinearization] = None
        self._phase = "prepare"
        self._warm = None
        self._cycle = 0
        self._pending_prep_s = 0.0
        self._pending_trace = None
        self._pending_fallback = False

    @property
    def iterate(self) -> Iterate:
        """Most recent output iterate."""
        return self._z

    def prepare(self, x) -> float:
        """Run the preparation phase for the current measured state."""
        if self._phase != "prepare":
            raise RuntimeError("prepare called twice without an intervening feedback")
        x = np.asarray(x, dtype=float)
        trace = [] if self.collect_traces else None
        fallback = False
        t0 = time.perf_counter()
        if self.config.mode == "sqp":
            if self._z is None:
                self._z = self.nlp.cold_start(x)
            elif self.nlp.uniform_grid:
                self._z = self.nlp.shift(self._z)
            elapsed = time.perf_counter() - t0
        else:
            # the iterate and the prepared linearization are committed
            # together once every step has succeeded
            z, prep = self._z, self._prep
            if z is None:
                z = self.nlp.cold_start(x)
                prep = prepare_linearization(self.nlp, z)
                x_pred = x.copy()
            else:
                x_pred = predict_state(self.nlp, x, z)
            z_lin = z
            mli = self.config.mli
            try:
                if self.config.mode == "rti":
                    pass
                elif mli.level == "A":
                    z_lin = level_a(
                        prep, x_pred, warm_active=self._warm, trace_nlp=self.nlp, trace=trace
                    )
                elif mli.level == "B":
                    z_lin = level_b(
                        prep, self.nlp, x_pred, z, mli.inner_iterations,
                        warm_active=self._warm, trace=trace,
                    )
                elif mli.level == "C":
                    z_lin = level_c(
                        prep, self.nlp, x_pred, z, mli.inner_iterations,
                        warm_active=self._warm, trace=trace,
                    )
                else:
                    z_lin = level_d(
                        self.nlp, x_pred, z, mli.inner_iterations,
                        warm_active=self._warm, trace=trace,
                    )
            except (QpInfeasibleError, QpSolverError, IntegrationError):
                z_lin = z
                fallback = True
            prep = prepare_linearization(self.nlp, z_lin)
            prepare_feedback_map(prep.lhs, prep.data, x_pred, warm_active=self._warm)
            self._prep, self._z = prep, z
            self.fallbacks += int(fallback)
            elapsed = time.perf_counter() - t0
        self._phase = "feedback"
        self._pending_prep_s = elapsed
        self._pending_trace = trace
        self._pending_fallback = fallback
        return elapsed

    def feedback(self, x_next) -> Tuple[np.ndarray, CycleLog]:
        """Compute the control for the newly measured state.

        For RTI/AS-RTI this is one vector-phase call on the prepared QP,
        served by its map while the active set holds; infeasibility is
        escalated to the caller.  In SQP mode up to the configured number
        of full SQP iterations run here instead, from the iterate the
        preparation phase carried (and shifted, on a uniform grid).
        Returns the control and the :class:`CycleLog` appended to
        ``cycle_logs``.
        """
        if self._phase != "feedback":
            raise RuntimeError("feedback called without a completed prepare")
        x_next = np.asarray(x_next, dtype=float)
        counters0 = sum(self.nlp.counters.values())
        t0 = time.perf_counter()
        sol = None
        if self.config.mode == "sqp":
            res = sqp_solve(
                self.nlp, x_next, self._z,
                tol=self.config.sqp_tol, max_iter=self.config.inner_iterations,
            )
            z_new = res.iterate
        else:
            sol = condense_rhs_and_solve(
                self._prep.lhs, self._prep.data, x_next, warm_active=self._warm
            )
            self._warm = sol.active_set
            z_new = Iterate(self._prep.ref.w + sol.dw, sol.lam.copy(), sol.mu.copy())
        elapsed = time.perf_counter() - t0
        evals = sum(self.nlp.counters.values()) - counters0

        fb_res = None
        if self.collect_traces:
            kkt = eval_kkt(self.nlp, z_new, x_next)
            fb_res = (max(kkt.eq, kkt.ineq), kkt.stat)
        self._z = z_new
        self._phase = "prepare"
        log = CycleLog(
            cycle=self._cycle,
            preparation_s=self._pending_prep_s,
            feedback_s=elapsed,
            fallback=self._pending_fallback,
            feedback_evals=evals,
            inner_trace=self._pending_trace,
            feedback_residuals=fb_res,
            qp_iterations=getattr(sol, "iterations", None),
        )
        self.cycle_logs.append(log)
        self._cycle += 1
        return self.nlp.first_control(z_new.w), log
