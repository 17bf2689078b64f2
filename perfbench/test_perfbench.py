"""Self-tests of the benchmark: ``python -m pytest perfbench``."""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import time

import pytest

from perfbench import harness, spans
from perfbench.workloads import WORKLOADS
from repro.explore.uxs import UXSProvider
from repro.runner import trial
from repro.runner.backends import serial
from repro.sim.scheduler import Simulation

ROOT = pathlib.Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_tiny(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0.2",
         "--trace", str(trace), "--preset", "tiny"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_preset_prints_every_metric_with_its_unit(workload, trace):
    result = _run_tiny(workload, trace)
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    if trace:
        # The printed layer self times and the unattributed rest add
        # up to the traced sweep's wall time.
        layers = sum(values[name] for name in harness.SWEEP_LAYERS)
        assert layers + values["runner.unattributed_s"] == pytest.approx(
            values["runner.sweep_s"], rel=1e-9
        )


@pytest.mark.parametrize("path", (
    ("metrics", "rounds"), ("metrics", "leader"), ("graph_seed",),
))
def test_digest_check_rejects_a_record_with_one_changed_field(path):
    workload = WORKLOADS["known_walk"]
    results = harness.run_chunk(workload, 0, tiny=True)
    checker = harness.Checker(workload, tiny=True)
    checker.executed(0, results)
    assert checker.correct and checker.failed == 0

    *parents, leaf = path
    record = results[1].records[0]
    for key in parents:
        record = record[key]
    record[leaf] += 1
    checker.executed(0, results)
    assert not checker.correct
    assert checker.failed == sum(len(r.records) for r in results)


def test_nested_span_self_time_excludes_children():
    rec = spans.SpanRecorder()
    inner = rec.wrap("inner", lambda: time.sleep(0.01))
    outer = rec.wrap("outer", lambda: (inner(), inner()))
    outer()
    times = spans.self_times(rec.spans)
    assert times["outer"][1] == 1 and times["inner"][1] == 2
    assert [span[3] for span in rec.spans] == [-1, 0, 0]
    assert times["inner"][0] >= 0.02
    total = rec.spans[0][2] - rec.spans[0][1]
    assert times["outer"][0] + times["inner"][0] == pytest.approx(total)


def test_span_self_times_and_unattributed_sum_to_sweep_wall_time():
    workload = WORKLOADS["known_walk"]
    checker = harness.Checker(workload, tiny=True)
    originals = (serial.execute_trial, Simulation.run,
                 UXSProvider.verify_for_graph, dict(trial.FAMILIES))
    worker = harness.traced_serial_pass(workload, [0, 1], checker, tiny=True)
    assert checker.correct
    layers = spans.self_times(worker["spans"])
    assert {"runner.trial", "runner.scenario", "graphs.build", "core.run",
            "explore.preflight", "sim.run"} <= set(layers)
    assert all(seconds >= 0 for seconds, _calls in layers.values())
    unattributed = worker["seconds"] - spans.root_seconds(worker["spans"])
    assert unattributed >= 0
    assert sum(s for s, _calls in layers.values()) + unattributed == (
        pytest.approx(worker["seconds"], abs=1e-9)
    )
    # The wrappers are gone once the pass ends: untraced runs execute
    # the program untouched.
    assert (serial.execute_trial, Simulation.run,
            UXSProvider.verify_for_graph, dict(trial.FAMILIES)) == originals
