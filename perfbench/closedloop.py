"""Closed-loop workloads of the pendulum study, timed from outside.

Each workload runs a fixed set of scenarios with a fixed set of
controllers through ``asrti.benchmark.run_scenario``, the function that
``benchmark run --jobs 1`` drives.  One operation is one controller on
one scenario; one round is every operation once.  A run repeats whole
rounds, so the failed operations are the same share of the attempted
ones whatever the run length.  ``AsRtiController.prepare`` and
``AsRtiController.feedback`` are wrapped to time every call.

The scenarios are ``draw_scenario`` indices ``0 .. n_scenarios - 1`` at
the study's seed 42; the benchmark's own seed orders the controllers
within each scenario and picks the cycles whose plant step is checked
against an independent integration.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

import asrti.benchmark.scenarios as scenarios_mod
import asrti.controller as controller_mod
import asrti.integrators as integrators_mod
import asrti.mli as mli_mod
import asrti.nlp as nlp_mod
import asrti.qp as qp_mod
from asrti import AsRtiController, OcpNlp
from asrti.benchmark import draw_scenario, pendulum_model

from checks import KKT_TOL, PLANT_TOL, cart_pole_rhs, plant_gap, qp_kkt_residual
from spans import Tracer, patched
from workloads import Workload, build_spec, controller_config

__all__ = ["RunResult", "run_workload"]

# Plant steps per operation compared with the DOP853 solution.
PLANT_SAMPLES = 2


class Recorder:
    """What the wrappers around the controller see during one operation."""

    def __init__(self):
        self.prepare_s = []
        self.feedback_s = []
        self.feedback_start = []
        self.prepare_evals = []
        self.feedback_evals = []
        self.qps = []
        self.in_feedback = False
        self.sqp_calls = 0
        self.sqp_unconverged = 0

    def reset(self):
        self.prepare_s, self.feedback_s, self.feedback_start = [], [], []
        self.prepare_evals, self.feedback_evals = [], []
        self.qps = []

    def wrappers(self):
        """Timing and audit wrappers, as ``(owner, attribute, wrap)``."""
        rec = self
        clock = time.perf_counter

        def timing_prepare(prepare):
            def timed_prepare(self, x):
                c0 = sum(self.nlp.counters.values())
                t0 = clock()
                out = prepare(self, x)
                t1 = clock()
                rec.prepare_s.append(t1 - t0)
                rec.prepare_evals.append(sum(self.nlp.counters.values()) - c0)
                return out

            return timed_prepare

        def timing_feedback(feedback):
            def timed_feedback(self, x):
                c0 = sum(self.nlp.counters.values())
                rec.in_feedback = True
                t0 = clock()
                try:
                    out = feedback(self, x)
                finally:
                    t1 = clock()
                    rec.in_feedback = False
                rec.feedback_start.append(t0)
                rec.feedback_s.append(t1 - t0)
                rec.feedback_evals.append(sum(self.nlp.counters.values()) - c0)
                return out

            return timed_feedback

        def capturing(solve):
            def capture_feedback_qp(lhs, data, x, *args, **kwargs):
                sol = solve(lhs, data, x, *args, **kwargs)
                if rec.in_feedback:
                    rec.qps.append((data, np.array(x, dtype=float), sol))
                return sol

            return capture_feedback_qp

        def auditing(sqp_solve):
            def audited_sqp(nlp, x, z0, *args, **kwargs):
                res = sqp_solve(nlp, x, z0, *args, **kwargs)
                rec.sqp_calls += 1
                rec.sqp_unconverged += not res.converged
                return res

            return audited_sqp

        return [
            (AsRtiController, "prepare", timing_prepare),
            (AsRtiController, "feedback", timing_feedback),
            (controller_mod, "condense_rhs_and_solve", capturing),
            (mli_mod, "condense_rhs_and_solve", capturing),
            (controller_mod, "sqp_solve", auditing),
        ]


def _dense_counts(res):
    return {"iterations": res.iterations, "active_set_changes": res.active_set_changes}


# Layer name, module and attribute the caller looks the function up in,
# and the per-call counts read from its result.  Functions imported by
# name are wrapped in each namespace that calls them.
TRACED_FUNCTIONS = [
    ("integrators.radau3_step_batch", nlp_mod, "radau3_step_batch", lambda r: {"newton_iters": r[3]}),
    ("integrators.radau3_step", integrators_mod, "radau3_step", lambda r: {"newton_iters": r.newton_iters}),
    ("integrators.radau3_step", nlp_mod, "radau3_step", lambda r: {"newton_iters": r.newton_iters}),
    ("integrators.simulate_plant", scenarios_mod, "simulate_plant", None),
    ("nlp.constraint_blocks", OcpNlp, "constraint_blocks", None),
    ("nlp.constraint_values", OcpNlp, "constraint_values", None),
    ("nlp.kkt_vectors", scenarios_mod, "kkt_vectors", None),
    ("nlp.kkt_vectors", nlp_mod, "kkt_vectors", None),
    ("qp.build_qp_data", mli_mod, "build_qp_data", None),
    ("qp.condense_lhs", mli_mod, "condense_lhs", lambda r: {"regularized": r.regularization > 0.0}),
    ("qp.condense_rhs_and_solve", mli_mod, "condense_rhs_and_solve", None),
    ("qp.condense_rhs_and_solve", controller_mod, "condense_rhs_and_solve", None),
    ("qp.solve_dense_qp", qp_mod, "solve_dense_qp", _dense_counts),
    ("mli.level_a", controller_mod, "level_a", None),
    ("mli.level_b", controller_mod, "level_b", None),
    ("mli.level_c", controller_mod, "level_c", None),
    ("mli.level_d", controller_mod, "level_d", None),
    ("mli.prepare_linearization", controller_mod, "prepare_linearization", None),
    ("mli.sqp_solve", controller_mod, "sqp_solve", lambda r: {"iterations": r.iterations}),
    ("controller.predict_state", controller_mod, "predict_state", None),
    ("controller.prepare", AsRtiController, "prepare", None),
    ("controller.feedback", AsRtiController, "feedback", None),
]


def tracer_wrappers(tracer):
    return [
        (owner, attr, functools.partial(tracer.wrap, name, count=count))
        for name, owner, attr, count in TRACED_FUNCTIONS
    ]


@dataclass
class RunResult:
    """Everything one run measured and found."""

    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    cycles: int = 0
    problems: list = field(default_factory=list)
    feedback_s: dict = field(default_factory=lambda: defaultdict(list))
    cycle_s: dict = field(default_factory=lambda: defaultdict(list))
    loop_cycle_s: dict = field(default_factory=lambda: defaultdict(list))
    prepare_evals: list = field(default_factory=list)
    tracer: Tracer = None
    failed_ops: list = field(default_factory=list)
    checked_qps: int = 0
    checked_plant_steps: int = 0


def _failure(rec, metrics, log, limit):
    """Why an operation failed, or None.

    An operation fails when the controller raised, when a commanded
    control leaves its bound, or when a feedback QP's returned step misses
    the QP's KKT conditions.  The last two are the known QP fault: after a
    disturbance the warm-started dense solve can stop at a non-optimal
    point, and refinement moves a control past its bound.
    """
    if metrics.failed:
        return "the controller raised"
    over = float(np.max(np.abs(log.commanded_controls)))
    if over > limit + 1e-9:
        return f"commanded {over:.2f} N"
    worst = max(
        (qp_kkt_residual(data, x, sol.dw, sol.lam, sol.mu) for data, x, sol in rec.qps),
        default=0.0,
    )
    if worst > KKT_TOL:
        return f"feedback QP KKT residual {worst:.1e}"
    return None


def _audit_operation(result, rec, tag, metrics, log, reference, sample_plant, rhs, dt, rng):
    """Checks that must hold on every operation, failed or not."""
    if not reference and any(rec.feedback_evals):
        result.problems.append(f"{tag}: a feedback made {max(rec.feedback_evals)} model evaluations")
    if metrics.failed:
        # the trajectories stop where the controller raised
        return
    theta = float(np.max(np.abs(log.states[:, 1])))
    if theta >= np.pi / 2:
        result.problems.append(f"{tag}: pole angle reached {theta:.3f} rad")
    if not sample_plant:
        return
    for k in rng.choice(len(log.applied_controls), PLANT_SAMPLES, replace=False):
        gap = plant_gap(rhs, log.states[k], log.applied_controls[k], dt, log.states[k + 1])
        result.checked_plant_steps += 1
        if gap > PLANT_TOL:
            result.problems.append(f"{tag}: plant step {k} is {gap:.2e} off the DOP853 solution")


def _check_costs(result, workload, costs):
    """Every AS-RTI level's mean closed-loop cost is no higher than RTI's."""
    if workload.reference:
        return
    for name in workload.controllers[1:]:
        pairs = [
            (costs["rti"][i], costs[name][i])
            for i in range(workload.n_scenarios)
            if costs["rti"][i] is not None and costs[name][i] is not None
        ]
        if not pairs:
            continue
        rti_mean, level_mean = np.mean(pairs, axis=0)
        if level_mean > rti_mean:
            result.problems.append(
                f"{name}: mean closed-loop cost {level_mean:.4f} above rti's {rti_mean:.4f}"
            )


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> RunResult:
    """Run whole rounds of the workload for about ``seconds`` and audit them.

    A further round starts only if the last round's duration still fits
    in ``seconds``; the first round always runs.
    """
    options = workload.options()
    scenario_cfg = options.scenario
    spec = build_spec(options, workload.reference)
    plant = pendulum_model(options.pendulum)
    limit = options.ocp.control_limit
    realizations = [draw_scenario(scenario_cfg, i) for i in range(workload.n_scenarios)]
    configs = {name: controller_config(name, options) for name in workload.controllers}
    rng = np.random.default_rng(seed)
    orders = [rng.permutation(len(workload.controllers)) for _ in realizations]
    rhs = cart_pole_rhs(options.pendulum)
    costs = {name: [None] * workload.n_scenarios for name in workload.controllers}

    result = RunResult()
    rec = Recorder()
    wrappers = rec.wrappers()
    if trace:
        result.tracer = Tracer()
        # spans innermost, so the recorder's own work stays out of them
        wrappers = tracer_wrappers(result.tracer) + wrappers
        run_scenario = result.tracer.wrap("benchmark.run_scenario", scenarios_mod.run_scenario)
    else:
        run_scenario = scenarios_mod.run_scenario

    clock = time.perf_counter
    with patched(wrappers):
        start = clock()
        while True:
            round_start = clock()
            first = result.rounds == 0
            for index, order in enumerate(orders):
                for j in order:
                    name = workload.controllers[j]
                    rec.reset()
                    metrics, log = run_scenario(
                        spec, plant, configs[name], realizations[index], scenario_cfg
                    )
                    result.cycles += len(rec.feedback_s)
                    result.feedback_s[name].extend(rec.feedback_s)
                    # one sampling interval: a feedback and the prepare after it
                    result.cycle_s[name].extend(
                        f + p for f, p in zip(rec.feedback_s, rec.prepare_s[1:])
                    )
                    # one closed-loop cycle, feedback start to feedback start
                    result.loop_cycle_s[name].extend(np.diff(rec.feedback_start).tolist())
                    result.prepare_evals.extend(rec.prepare_evals)
                    result.checked_qps += len(rec.qps)
                    result.attempted += 1
                    tag = f"{name}@{index}"
                    _audit_operation(result, rec, tag, metrics, log, workload.reference,
                                     first, rhs, scenario_cfg.sampling_time, rng)
                    why = _failure(rec, metrics, log, limit)
                    if why:
                        result.failed += 1
                        if first:
                            result.failed_ops.append(f"{tag}: {why}")
                    if first:
                        costs[name][index] = None if why else metrics.closed_loop_cost
            result.rounds += 1
            now = clock()
            if now - start + (now - round_start) > seconds:
                break
    if rec.sqp_unconverged:
        result.problems.append(f"{rec.sqp_unconverged} of {rec.sqp_calls} sqp_solve calls did not converge")
    _check_costs(result, workload, costs)
    return result
