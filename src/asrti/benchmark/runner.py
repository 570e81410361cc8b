"""Benchmark orchestration: run controller variants over shared scenarios.

Every algorithm sees the same scenario realizations.  Relative
suboptimality compares closed-loop costs against a reference controller
(finer uniform grid, SQP converged to tolerance) that is run once per
scenario.  Results are emitted as CSV tables for external plotting.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..controller import ControllerConfig
from .pendulum import (
    DEFAULT_CONTROL_WEIGHT,
    DEFAULT_STATE_WEIGHTS,
    PendulumParams,
    build_pendulum_ocp,
    pendulum_model,
)
from .scenarios import (
    RunMetrics,
    ScenarioConfig,
    draw_scenario,
    run_scenario,
)

__all__ = [
    "DEFAULT_ALGORITHMS",
    "OcpOptions",
    "ReferenceOptions",
    "BenchmarkOptions",
    "AlgorithmRow",
    "BenchmarkResult",
    "run_benchmark",
    "run_traces",
    "write_results_csv",
    "write_traces_csv",
    "write_pareto_csv",
]

DEFAULT_ALGORITHMS = (
    "rti",
    "as-rti-a",
    "as-rti-b-1",
    "as-rti-b-2",
    "as-rti-c-1",
    "as-rti-c-2",
    "as-rti-d-1",
    "as-rti-d-2",
    "sqp-2",
    "sqp-100",
)

RESULTS_COLUMNS = (
    "algorithm",
    "max_prep_ms",
    "max_feedback_ms",
    "rel_subopt_pct",
    "mean_g_norm_x1e3",
    "mean_lagrange_grad",
    "failed_scenarios",
)


@dataclass
class OcpOptions:
    """Grid and cost options for the controller OCP."""

    n_intervals: int = 20
    horizon: float = 4.0
    state_weights: tuple = DEFAULT_STATE_WEIGHTS
    control_weight: float = DEFAULT_CONTROL_WEIGHT
    control_limit: float = 40.0


@dataclass
class ReferenceOptions:
    """Reference controller: uniform fine grid, fully converged SQP."""

    n_intervals: int = 80
    sqp_tol: float = 1e-8
    max_iterations: int = 100


@dataclass
class BenchmarkOptions:
    """Everything a benchmark run depends on, overridable from JSON."""

    pendulum: PendulumParams = field(default_factory=PendulumParams)
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    ocp: OcpOptions = field(default_factory=OcpOptions)
    reference: ReferenceOptions = field(default_factory=ReferenceOptions)
    sqp_tol: float = 1e-8

    @classmethod
    def from_json(cls, path) -> "BenchmarkOptions":
        with open(path) as fh:
            raw = json.load(fh)
        return cls().override(raw)

    def override(self, raw: dict) -> "BenchmarkOptions":
        out = self
        for key, value in raw.items():
            if not hasattr(out, key):
                raise ValueError(f"unknown benchmark option {key!r}")
            current = getattr(out, key)
            if dataclasses.is_dataclass(current) and isinstance(value, dict):
                bad = set(value) - {f.name for f in dataclasses.fields(current)}
                if bad:
                    raise ValueError(f"unknown keys {sorted(bad)} in option group {key!r}")
                sub = {
                    k: tuple(v) if isinstance(getattr(current, k), tuple) else v
                    for k, v in value.items()
                }
                out = replace(out, **{key: replace(current, **sub)})
            else:
                out = replace(out, **{key: value})
        return out


@dataclass
class AlgorithmRow:
    """Aggregated Table row for one controller variant."""

    algorithm: str
    max_prep_ms: float
    max_feedback_ms: float
    rel_subopt_pct: float
    mean_g_norm_x1e3: float
    mean_lagrange_grad: float
    failed_scenarios: int


@dataclass
class BenchmarkResult:
    rows: List[AlgorithmRow]
    per_scenario: Dict[str, List[RunMetrics]]
    reference_costs: List[float]
    options: BenchmarkOptions

    def row(self, algorithm) -> AlgorithmRow:
        for r in self.rows:
            if r.algorithm == algorithm:
                return r
        raise KeyError(algorithm)


def _controller_config(name: str, options: BenchmarkOptions) -> ControllerConfig:
    if name == "reference":
        return ControllerConfig(
            name="reference",
            mode="sqp",
            inner_iterations=options.reference.max_iterations,
            sqp_tol=options.reference.sqp_tol,
        )
    return ControllerConfig.from_name(name, sqp_tol=options.sqp_tol)


def _build_spec(options: BenchmarkOptions, reference: bool):
    ocp = options.ocp
    return build_pendulum_ocp(
        params=options.pendulum,
        n_intervals=options.reference.n_intervals if reference else ocp.n_intervals,
        horizon=ocp.horizon,
        sampling_time=options.scenario.sampling_time,
        state_weights=ocp.state_weights,
        control_weight=ocp.control_weight,
        control_limit=ocp.control_limit,
        uniform_grid=reference,
    )


def _run_one_scenario(args):
    """Run the reference plus all requested algorithms on one scenario."""
    options, algorithms, index = args
    spec = _build_spec(options, reference=False)
    ref_spec = _build_spec(options, reference=True)
    plant = pendulum_model(options.pendulum)
    realization = draw_scenario(options.scenario, index)

    ref_cfg = _controller_config("reference", options)
    ref_metrics, _ = run_scenario(
        ref_spec, plant, ref_cfg, realization, options.scenario,
        collect_kkt_metrics="reference" in algorithms,
    )
    results = {}
    for name in algorithms:
        if name == "reference":
            results[name] = ref_metrics
            continue
        cfg = _controller_config(name, options)
        metrics, _ = run_scenario(spec, plant, cfg, realization, options.scenario)
        results[name] = metrics
    return index, ref_metrics, results


def run_benchmark(
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    options: Optional[BenchmarkOptions] = None,
    jobs: int = 1,
) -> BenchmarkResult:
    """Run all algorithms over the shared scenario set and aggregate.

    Scenarios are independent and can run in parallel worker processes
    (``jobs > 1``); each scenario derives its own random stream from the
    seed and its index, so results do not depend on ``jobs``.  Failed
    scenario runs are counted per algorithm and excluded from the means,
    never silently dropped.
    """
    options = options or BenchmarkOptions()
    algorithms = list(algorithms)
    n = options.scenario.n_scenarios
    tasks = [(options, algorithms, i) for i in range(n)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_run_one_scenario, tasks))
    else:
        outcomes = [_run_one_scenario(t) for t in tasks]
    outcomes.sort(key=lambda o: o[0])

    ref_costs = [o[1].closed_loop_cost for o in outcomes]
    ref_failed = [o[1].failed for o in outcomes]
    per_scenario: Dict[str, List[RunMetrics]] = {name: [] for name in algorithms}
    for _, _, results in outcomes:
        for name in algorithms:
            per_scenario[name].append(results[name])

    rows = []
    for name in algorithms:
        runs = per_scenario[name]
        subopt = []
        for i, m in enumerate(runs):
            if m.failed or ref_failed[i]:
                m.rel_subopt_pct = None
                continue
            m.rel_subopt_pct = 100.0 * (m.closed_loop_cost - ref_costs[i]) / ref_costs[i]
            subopt.append(m.rel_subopt_pct)
        ok = [m for m in runs if not m.failed]
        rows.append(
            AlgorithmRow(
                algorithm=name,
                max_prep_ms=1e3 * max((m.max_preparation_s for m in ok), default=np.nan),
                max_feedback_ms=1e3 * max((m.max_feedback_s for m in ok), default=np.nan),
                rel_subopt_pct=float(np.mean(subopt)) if subopt else np.nan,
                mean_g_norm_x1e3=1e3 * float(np.mean([m.mean_g_norm for m in ok])) if ok else np.nan,
                mean_lagrange_grad=float(np.mean([m.mean_lagrange_grad for m in ok])) if ok else np.nan,
                failed_scenarios=sum(m.failed for m in runs),
            )
        )
    return BenchmarkResult(rows, per_scenario, ref_costs, options)


def run_traces(algorithm: str, scenario_index: int, options: Optional[BenchmarkOptions] = None):
    """Run one scenario with residual tracing enabled.

    Returns rows ``(cycle, inner_iter, primal, dual)`` where inner
    iterations are numbered from 0 and the applied feedback step is
    marked with inner_iter = -1.
    """
    options = options or BenchmarkOptions()
    spec = _build_spec(options, reference=(algorithm == "reference"))
    plant = pendulum_model(options.pendulum)
    realization = draw_scenario(options.scenario, scenario_index)
    cfg = _controller_config(algorithm, options)
    _, log = run_scenario(
        spec, plant, cfg, realization, options.scenario, collect_traces=True
    )
    rows = []
    for cycle, (inner, fb) in enumerate(zip(log.inner_traces, log.feedback_traces)):
        for j, (primal, dual) in enumerate(inner or []):
            rows.append((cycle, j, primal, dual))
        if fb is not None:
            rows.append((cycle, -1, fb[0], fb[1]))
    return rows


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


def write_results_csv(result: BenchmarkResult, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_COLUMNS)
        for r in result.rows:
            writer.writerow(
                [
                    r.algorithm,
                    f"{r.max_prep_ms:.4f}",
                    f"{r.max_feedback_ms:.4f}",
                    f"{r.rel_subopt_pct:.4f}",
                    f"{r.mean_g_norm_x1e3:.4f}",
                    f"{r.mean_lagrange_grad:.4f}",
                    r.failed_scenarios,
                ]
            )


def write_traces_csv(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cycle", "inner_iter", "primal_residual", "dual_residual"])
        for cycle, j, primal, dual in rows:
            writer.writerow([cycle, j, f"{primal:.6e}", f"{dual:.6e}"])


def write_pareto_csv(results_path, pareto_path):
    """Derive Pareto data (max total timing vs suboptimality) from results."""
    with open(results_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(pareto_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "max_total_ms", "rel_subopt_pct"])
        for row in rows:
            total = float(row["max_prep_ms"]) + float(row["max_feedback_ms"])
            writer.writerow([row["algorithm"], f"{total:.4f}", row["rel_subopt_pct"]])
