"""Closed-loop scenario simulation and per-run metrics.

Each scenario starts the pendulum at a random cart position and disturbs
it twice by overwriting the applied control with a random force for one
sampling interval.  All controllers see identical realizations (common
random numbers): the draws are generated once per scenario index from a
seeded stream, in the fixed order initial position first, then the
disturbances in chronological order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..controller import AsRtiController, ControllerConfig
from ..integrators import IntegrationError, OdeModel, simulate_plant
from ..nlp import OcpNlp, OcpSpec, kkt_vectors
from ..qp import QpInfeasibleError, QpSolverError

__all__ = [
    "ScenarioConfig",
    "ScenarioRealization",
    "RunMetrics",
    "ScenarioLog",
    "draw_scenario",
    "run_scenario",
]


@dataclass
class ScenarioConfig:
    """Closed-loop simulation setup shared by all controllers."""

    sim_time: float = 4.0
    sampling_time: float = 0.05
    n_scenarios: int = 20
    p0_range: tuple = (-0.5, 0.5)
    disturbance_times: tuple = (0.0, 2.0)
    disturbance_range: tuple = (-100.0, 100.0)
    seed: int = 42
    plant_substeps: int = 10

    @property
    def n_cycles(self):
        return int(round(self.sim_time / self.sampling_time))

    def disturbance_cycles(self):
        cycles = []
        for t in self.disturbance_times:
            k = t / self.sampling_time
            if abs(k - round(k)) > 1e-9:
                raise ValueError(f"disturbance time {t} is not on the sampling grid")
            cycles.append(int(round(k)))
        return cycles


@dataclass
class ScenarioRealization:
    """One drawn scenario: initial state and disturbance forces."""

    index: int
    x0: np.ndarray
    disturbances: Dict[int, np.ndarray]


def draw_scenario(cfg: ScenarioConfig, index: int) -> ScenarioRealization:
    """Draw scenario ``index`` from the stream seeded by (seed, index)."""
    rng = np.random.default_rng([cfg.seed, index])
    p0 = rng.uniform(*cfg.p0_range)
    x0 = np.array([p0, 0.0, 0.0, 0.0])
    disturbances = {
        k: rng.uniform(cfg.disturbance_range[0], cfg.disturbance_range[1], size=1)
        for k in cfg.disturbance_cycles()
    }
    return ScenarioRealization(index, x0, disturbances)


@dataclass
class RunMetrics:
    """Closed-loop quality and timing summary of one scenario run."""

    algorithm: str
    closed_loop_cost: float
    mean_g_norm: float
    mean_lagrange_grad: float
    max_preparation_s: float
    max_feedback_s: float
    fallbacks: int
    max_feedback_evals: int
    failed: bool = False
    rel_subopt_pct: Optional[float] = None


@dataclass
class ScenarioLog:
    """Trajectories and optional residual traces of one run."""

    states: np.ndarray
    applied_controls: np.ndarray
    commanded_controls: np.ndarray
    inner_traces: list = field(default_factory=list)
    feedback_traces: list = field(default_factory=list)


def run_scenario(
    spec: OcpSpec,
    plant: OdeModel,
    config: ControllerConfig,
    realization: ScenarioRealization,
    scenario_cfg: ScenarioConfig,
    collect_traces=False,
    collect_kkt_metrics=True,
):
    """Simulate one closed-loop scenario and collect Table metrics.

    The plant is stepped with the substepped integrator; at disturbance
    cycles the applied control is overwritten by the drawn force, which
    the controller does not see.  The closed-loop cost accumulates
    ``dt * (x'Qx + u'Ru)`` over the applied inputs.  Controller aborts
    (infeasible feedback QP, failed integration) mark the run as failed
    instead of raising.
    """
    nlp = OcpNlp(spec)
    controller = AsRtiController(nlp, config, collect_traces=collect_traces)
    dt = scenario_cfg.sampling_time
    n_cycles = scenario_cfg.n_cycles
    Q, R = spec.stage_costs[0].Q, spec.stage_costs[0].R

    x = realization.x0.copy()
    states = np.empty((n_cycles + 1, plant.n_x))
    states[0] = x
    applied = np.empty((n_cycles, plant.n_u))
    commanded = np.empty((n_cycles, plant.n_u))
    cost = 0.0
    g_norms = []
    stat_norms = []
    failed = False

    try:
        controller.prepare(x)
        for k in range(n_cycles):
            u, _ = controller.feedback(x)
            commanded[k] = u
            u_applied = realization.disturbances.get(k, u)
            applied[k] = u_applied
            cost += dt * float(x @ Q @ x + u_applied @ R @ u_applied)
            if collect_kkt_metrics:
                stat, eq, _, _ = kkt_vectors(nlp, controller.iterate, x)
                g_norms.append(float(np.linalg.norm(eq)))
                stat_norms.append(float(np.linalg.norm(stat)))
            if k < n_cycles - 1:
                # preparation runs during the sampling interval: it sees the
                # state measured at t_k, never the upcoming one
                controller.prepare(x)
            x = simulate_plant(plant, x, u_applied, dt, scenario_cfg.plant_substeps)
            states[k + 1] = x
    except (QpInfeasibleError, QpSolverError, IntegrationError):
        failed = True

    logs = controller.cycle_logs
    metrics = RunMetrics(
        algorithm=config.name,
        closed_loop_cost=cost,
        mean_g_norm=float(np.mean(g_norms)) if g_norms else np.nan,
        mean_lagrange_grad=float(np.mean(stat_norms)) if stat_norms else np.nan,
        max_preparation_s=max((c.preparation_s for c in logs), default=0.0),
        max_feedback_s=max((c.feedback_s for c in logs), default=0.0),
        fallbacks=controller.fallbacks,
        max_feedback_evals=max((c.feedback_evals for c in logs), default=0),
        failed=failed,
    )
    log = ScenarioLog(
        states=states,
        applied_controls=applied,
        commanded_controls=commanded,
        inner_traces=[c.inner_trace for c in logs] if collect_traces else [],
        feedback_traces=[c.feedback_residuals for c in logs] if collect_traces else [],
    )
    return metrics, log
