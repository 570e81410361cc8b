"""Time one set-up of a workload in a fresh interpreter.

Usage: ``python3 setup_probe.py <src dir> <workload>``.  Prints the
seconds from before ``import asrti`` until the workload's first
controller has run its first ``prepare``: importing the package, building
the OCP (DARE terminal cost), transcribing it (stage probes), and
constructing the controller.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402


def main(src, workload_name):
    sys.path.insert(0, src)
    import asrti
    from asrti.benchmark import draw_scenario

    from workloads import WORKLOADS, build_spec, controller_config

    workload = WORKLOADS[workload_name]
    options = workload.options()
    spec = build_spec(options, workload.reference)
    x0 = draw_scenario(options.scenario, 0).x0
    config = controller_config(workload.controllers[0], options)
    asrti.AsRtiController(asrti.transcribe(spec), config).prepare(x0)
    print(repr(time.perf_counter() - T0))


if __name__ == "__main__":
    main(*sys.argv[1:3])
