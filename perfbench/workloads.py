"""The three workloads and how their OCPs and controllers are built.

This module imports only ``asrti``, so that the set-up probe can time
the package import on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from asrti import ControllerConfig
from asrti.benchmark import BenchmarkOptions, build_pendulum_ocp

__all__ = ["AS_RTI_CONTROLLERS", "WORKLOADS", "Workload", "build_spec", "controller_config"]

AS_RTI_CONTROLLERS = ("rti", "as-rti-a", "as-rti-b-2", "as-rti-c-2", "as-rti-d-2")


@dataclass(frozen=True)
class Workload:
    """Controllers, scenario count and option overrides of one workload."""

    name: str
    controllers: tuple
    n_scenarios: int
    overrides: dict = field(default_factory=dict)

    @property
    def reference(self):
        return self.controllers == ("reference",)

    def options(self) -> BenchmarkOptions:
        return BenchmarkOptions().override(self.overrides)


# Scenario counts make one round last about 25 s on an idle 2-core box.
# They keep scenario 5 at N=20 and scenarios 2-3 at N=80, where the known
# QP fault drives controls past their bounds.
WORKLOADS = {
    "as-rti-n20": Workload("as-rti-n20", AS_RTI_CONTROLLERS, 7),
    "as-rti-n80": Workload("as-rti-n80", AS_RTI_CONTROLLERS, 4, {"ocp": {"n_intervals": 80}}),
    "reference-n80": Workload("reference-n80", ("reference",), 7),
}


# The two functions below follow ``benchmark run`` through the public API
# only, so that the benchmark keeps running while the runner's private
# helpers change.
def build_spec(options: BenchmarkOptions, reference: bool):
    """The controller OCP, or the reference controller's uniform grid."""
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


def controller_config(name: str, options: BenchmarkOptions) -> ControllerConfig:
    if name == "reference":
        ref = options.reference
        return ControllerConfig(
            name="reference", mode="sqp", inner_iterations=ref.max_iterations, sqp_tol=ref.sqp_tol
        )
    return ControllerConfig.from_name(name, sqp_tol=options.sqp_tol)
