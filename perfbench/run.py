"""Closed-loop benchmark of the AS-RTI controllers on the pendulum study.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload as-rti-n20 --seed 1 --seconds 25 --trace 0

Prints the environment, a one-line summary and, as the last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
rounds with every layer wrapped in spans and reports the per-layer
metrics instead.  Each run also writes its result, and a traced run its
spans, under ``perfbench/runs/``.  Given no BLAS thread setting, it runs
OpenBLAS on one thread.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
GIVEN_BLAS_THREADS = {var: os.environ.get(var, "unset") for var in BLAS_THREAD_VARS}
if __name__ == "__main__" and set(GIVEN_BLAS_THREADS.values()) == {"unset"}:
    # One BLAS thread unless the caller chose otherwise (see README.md,
    # "Environment"); OpenBLAS reads this when numpy loads it.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402
import scipy  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"
# Set-ups per run; setup_s is their median.
SETUP_PROBES = 5


def environment():
    """Core count, BLAS library, its thread settings as given and as used, versions, numba."""
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas_name = "unknown"
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": blas_name,
        "blas_threads_given": GIVEN_BLAS_THREADS,
        "blas_threads": {var: os.environ.get(var, "unset") for var in BLAS_THREAD_VARS},
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "numba": importlib.util.find_spec("numba") is not None,
    }


def setup_seconds(workload_name):
    """Median set-up time over ``SETUP_PROBES`` fresh interpreters, one after another."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), workload_name],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _per_controller(samples, q):
    """Mean over controllers of each controller's own ``q`` quantile, in ms."""
    return 1e3 * float(np.mean([np.percentile(v, q) for v in samples.values()]))


def loop_rate(result):
    """Closed-loop cycles per second, from each controller's median loop cycle."""
    return 1e3 / _per_controller(result.loop_cycle_s, 50)


def end_to_end_metrics(result, setup_s):
    return {
        "feedback_ms": (_per_controller(result.feedback_s, 50), "ms"),
        "feedback_p90_ms": (_per_controller(result.feedback_s, 90), "ms"),
        "cycle_ms": (_per_controller(result.cycle_s, 50), "ms"),
        "cycle_p90_ms": (_per_controller(result.cycle_s, 90), "ms"),
        "loop_cycles_per_s": (loop_rate(result), "1/s"),
        "setup_s": (setup_s, "s"),
    }


# Layers reported as self time per closed-loop cycle.
SELF_MS_LAYERS = (
    "integrators.radau3_step_batch",
    "integrators.simulate_plant",
    "nlp.constraint_blocks",
    "nlp.constraint_values",
    "nlp.kkt_vectors",
    "qp.build_qp_data",
    "qp.condense_lhs",
    "qp.condense_rhs_and_solve",
    "qp.solve_dense_qp",
    "mli.level_a",
    "mli.level_b",
    "mli.level_c",
    "mli.level_d",
    "mli.prepare_linearization",
    "mli.sqp_solve",
    "controller.predict_state",
    "controller.prepare",
    "controller.feedback",
    "benchmark.run_scenario",
)
CALLS_PER_CYCLE = ("integrators.radau3_step_batch", "qp.condense_lhs", "qp.condense_rhs_and_solve")
COUNTS_PER_CALL = (
    "integrators.radau3_step_batch.newton_iters",
    "integrators.radau3_step.newton_iters",
    "qp.solve_dense_qp.iterations",
    "qp.solve_dense_qp.active_set_changes",
    "mli.sqp_solve.iterations",
)


def per_layer_metrics(result):
    """Per-layer figures from the spans; a layer the workload never calls reads 0."""
    spans = result.tracer.summary()
    counts = result.tracer.counts
    cycles = result.cycles
    metrics = {}
    for layer in SELF_MS_LAYERS:
        metrics[f"{layer}.self_ms"] = (1e3 * spans.get(layer, (0, 0.0))[1] / cycles, "ms")
    calls, self_s = spans.get("integrators.radau3_step", (0, 0.0))
    metrics["integrators.radau3_step.self_us"] = (1e6 * self_s / calls if calls else 0.0, "us")
    for layer in CALLS_PER_CYCLE:
        metrics[f"{layer}.calls"] = (spans.get(layer, (0, 0.0))[0] / cycles, "count")
    for key in COUNTS_PER_CALL:
        calls = spans.get(key.rsplit(".", 1)[0], (0, 0.0))[0]
        metrics[key] = (counts[key] / calls if calls else 0.0, "count")
    metrics["qp.condense_lhs.regularized"] = (counts["qp.condense_lhs.regularized"] / result.rounds, "count")
    evals = result.prepare_evals
    metrics["nlp.evals_per_prepare"] = (sum(evals) / len(evals) if evals else 0.0, "count")
    return metrics


def write_spans(tracer, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["span", "name", "start_s", "end_s", "parent"])
        for i, (name, start, end, parent) in enumerate(tracer.spans):
            writer.writerow([i, name, repr(start), repr(end), parent])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "asrti" / "__init__.py").is_file():
        print(f"no asrti package under {SRC}: run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from closedloop import run_workload
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    env = environment()
    print("# env " + json.dumps(env), flush=True)

    setup_s = None if args.trace else setup_seconds(args.workload)
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    rate = loop_rate(result)
    if args.trace:
        metrics = per_layer_metrics(result)
    else:
        metrics = end_to_end_metrics(result, setup_s)
    print(
        f"# {args.workload} seed={args.seed} trace={args.trace}: {result.rounds} round(s), "
        f"{result.attempted} operations, {result.failed} failed {result.failed_ops}, "
        f"{result.cycles} cycles at {rate:.2f} cycles/s, checked {result.checked_qps} QPs "
        f"and {result.checked_plant_steps} plant steps",
        flush=True,
    )
    for problem in result.problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    out = {
        "correct": not result.problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    RUNS.mkdir(exist_ok=True)
    stem = str(RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = dict(out, environment=env, loop_cycles_per_s=rate, rounds=result.rounds,
                  failed_operations=result.failed_ops, problems=result.problems)
    Path(stem + ".json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        write_spans(result.tracer, stem + ".spans.csv")
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
