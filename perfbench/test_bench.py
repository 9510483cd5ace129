"""Tests of the benchmark itself: its checks can fail, its inputs and counts repeat.

    python3 -m pytest perfbench/test_bench.py -q
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

import run

run.use_checkout_happer()

import numpy as np  # noqa: E402

import happer.cli  # noqa: E402
import happer.model  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def task_named(workload: str, name: str, seed: int = 0) -> workloads.Task:
    return next(t for t in workloads.make_tasks(workload, seed) if t.name == name)


def with_edit(task: workloads.Task, column: str, row: int, delta: float) -> workloads.Task:
    """The same task, with one value of its output table shifted before the checks read it."""
    def run_and_edit(tmp: Path) -> workloads.CliRun:
        (tmp / "edited").mkdir(exist_ok=True)
        res = task.run(tmp / "edited")
        lines = res.out.read_text().splitlines()
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        columns = lines[header].split(",")
        cells = lines[header + 1 + row].split(",")
        k = columns.index(column)
        cells[k] = repr(float(cells[k]) + delta)
        lines[header + 1 + row] = ",".join(cells)
        res.out.write_text("\n".join(lines) + "\n")
        return res
    return dataclasses.replace(task, name=task.name + "_edited", run=run_and_edit)


def theta0_of(task: workloads.Task) -> float:
    return float(task.args[task.args.index("--theta0") + 1])


def test_off_by_one_chern_integer_fails(tmp_path):
    task = task_named("sphere", "chern_L1")
    edited = with_edit(task, "ch_fourpi", 4, 1.0)
    result = run.run_pass([task, edited], tmp_path)
    assert result.failed == 1
    assert all(e.startswith("chern_L1_edited") for e in result.errors)
    assert result.failed / 2 > 0


@pytest.mark.parametrize("name, row", [("phase_L1", 4), ("phase_cluster_L1", 0)])
def test_loop_phase_shifted_by_twice_its_tolerance_fails(tmp_path, name, row):
    task = task_named("sphere", name)
    shift = 2 * workloads.phase_tolerance(theta0_of(task))
    result = run.run_pass([task, with_edit(task, "gamma", row, shift)], tmp_path)
    assert result.failed == 1
    assert all(e.startswith(f"{name}_edited") for e in result.errors)


def test_inputs_follow_the_seed():
    for workload in workloads.WORKLOADS:
        first = [t.args for t in workloads.make_tasks(workload, 5)]
        assert first == [t.args for t in workloads.make_tasks(workload, 5)]
        assert first != [t.args for t in workloads.make_tasks(workload, 6)]


def test_inputs_near_a_crossing_are_refused():
    inputs = workloads.Inputs(0)
    with pytest.raises(ValueError):
        inputs.x(0.65, 0.68, 2)


def test_trace_counts_repeat_and_wrappers_come_off(tmp_path):
    originals = (np.linalg.eigh, happer.cli.build_hamiltonian, happer.model.hamiltonian_batch)
    tasks = workloads.make_tasks("sweep", 3)
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        result = run.run_pass(tasks, tmp_path, tracer)
        assert result.failed == 0
        assert result.layers["spectrum.find_degeneracies.calls"] > 0
        counts.append({n: result.layers.get(n, 0.0) for n in tracing.COUNT_METRICS})
    assert counts[0] == counts[1]
    assert (np.linalg.eigh, happer.cli.build_hamiltonian,
            happer.model.hamiltonian_batch) == originals


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        tracing.metric_names()
