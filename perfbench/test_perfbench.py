"""Tests of the closed-loop benchmark: its output format and its checks.

Each test runs a shortened workload: one scenario and, where the check
needs no full trajectory, one second of simulated time.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import asrti.benchmark.scenarios as scenarios_mod  # noqa: E402
import run  # noqa: E402
from asrti import AsRtiController  # noqa: E402
from closedloop import run_workload  # noqa: E402
from spans import Tracer, patched  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def short(name, seconds_simulated=1.0, controllers=None):
    workload = WORKLOADS[name]
    overrides = dict(workload.overrides, scenario={"sim_time": seconds_simulated})
    return replace(
        workload,
        n_scenarios=1,
        overrides=overrides,
        controllers=controllers or workload.controllers,
    )


def result_line(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_printed_with_its_unit(name, trace, monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(WORKLOADS, name, short(name))
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "RUNS", tmp_path)
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]) == 0
    out = result_line(capsys)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["attempted"] == len(WORKLOADS[name].controllers)
    assert isinstance(out["correct"], bool) and isinstance(out["failed"], int)
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in named} == {
        k: v["unit"] for k, v in out["metrics"].items()
    }
    assert all(np.isfinite(v["value"]) for v in out["metrics"].values())


CLEAN = dict(seconds_simulated=4.0, controllers=("rti", "as-rti-a"))


def test_clean_short_run_passes_every_check():
    result = run_workload(short("as-rti-n20", **CLEAN), seed=1, seconds=0, trace=False)
    assert result.problems == []
    assert (result.attempted, result.failed) == (2, 0)
    assert result.checked_qps == 160 and result.checked_plant_steps == 4


def test_control_beyond_its_bound_fails_the_operation(monkeypatch):
    feedback = AsRtiController.feedback

    def planted(self, x):
        u, timings = feedback(self, x)
        return (np.array([40.5]) if self._cycle == 4 else u), timings

    monkeypatch.setattr(AsRtiController, "feedback", planted)
    result = run_workload(short("as-rti-n20", **CLEAN), seed=1, seconds=0, trace=False)
    assert (result.attempted, result.failed) == (2, 2)
    assert all("commanded 40.50 N" in op for op in result.failed_ops)


def test_feedback_with_a_model_evaluation_is_caught(monkeypatch):
    feedback = AsRtiController.feedback

    def planted(self, x):
        out = feedback(self, x)
        if self._cycle == 4:
            self.nlp.counters["dynamics"] += 1
        return out

    monkeypatch.setattr(AsRtiController, "feedback", planted)
    result = run_workload(short("as-rti-n20", **CLEAN), seed=1, seconds=0, trace=False)
    assert len(result.problems) == 2
    assert all("made 1 model evaluations" in p for p in result.problems)


def test_perturbed_plant_step_is_caught(monkeypatch):
    simulate = scenarios_mod.simulate_plant
    monkeypatch.setattr(
        scenarios_mod, "simulate_plant", lambda *args, **kwargs: simulate(*args, **kwargs) + 1e-3
    )
    result = run_workload(short("as-rti-n20", **CLEAN), seed=1, seconds=0, trace=False)
    assert len(result.problems) == 4
    assert all("off the DOP853 solution" in p for p in result.problems)


def test_self_time_excludes_child_spans():
    tracer = Tracer()

    class Box:
        @staticmethod
        def inner():
            return 1

        @staticmethod
        def outer():
            return Box.inner() + Box.inner()

    wrap = [
        (Box, "inner", lambda f: staticmethod(tracer.wrap("inner", f.__func__))),
        (Box, "outer", lambda f: staticmethod(tracer.wrap("outer", f.__func__))),
    ]
    with patched(wrap):
        assert Box.outer() == 2
    summary = tracer.summary()
    (name, start, end, parent), = [s for s in tracer.spans if s[0] == "outer"]
    assert summary["inner"][0] == 2 and summary["outer"][0] == 1
    total = sum(s[2] - s[1] for s in tracer.spans if s[0] == "inner") + summary["outer"][1]
    assert total == pytest.approx(end - start)
    assert all(s[3] == 0 for s in tracer.spans if s[0] == "inner")


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("runs", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "as-rti-n20", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
