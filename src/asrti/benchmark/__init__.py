"""Inverted-pendulum closed-loop benchmark for the controller variants."""

from .pendulum import (
    PendulumParams,
    build_pendulum_ocp,
    dare_terminal_cost,
    pendulum_model,
)
from .runner import (
    DEFAULT_ALGORITHMS,
    AlgorithmRow,
    BenchmarkOptions,
    BenchmarkResult,
    OcpOptions,
    ReferenceOptions,
    run_benchmark,
    run_traces,
    write_pareto_csv,
    write_results_csv,
    write_traces_csv,
)
from .scenarios import (
    RunMetrics,
    ScenarioConfig,
    ScenarioLog,
    ScenarioRealization,
    draw_scenario,
    run_scenario,
)

__all__ = [
    "PendulumParams",
    "pendulum_model",
    "build_pendulum_ocp",
    "dare_terminal_cost",
    "ScenarioConfig",
    "ScenarioRealization",
    "ScenarioLog",
    "RunMetrics",
    "draw_scenario",
    "run_scenario",
    "BenchmarkOptions",
    "OcpOptions",
    "ReferenceOptions",
    "BenchmarkResult",
    "AlgorithmRow",
    "DEFAULT_ALGORITHMS",
    "run_benchmark",
    "run_traces",
    "write_results_csv",
    "write_traces_csv",
    "write_pareto_csv",
]
