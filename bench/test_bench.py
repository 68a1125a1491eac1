"""Tests of the benchmark itself, on tiny instances of every workload.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import sys

import pytest

import run
import tracing
import worker
from workloads import DEFAULT_SEED, WORKLOADS

sys.path.insert(0, str(run.ROOT / "src"))

import neubm.harness  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", str(DEFAULT_SEED), "--seconds", "1",
            "--trace", str(trace), "--tiny"]
    assert run.main(argv) == 0
    details, result = map(json.loads, capsys.readouterr().out.splitlines()[-2:])

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] == (
        run.MIN_ITERATIONS * WORKLOADS[workload].expected_records(tiny=True))
    declared = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    assert details["machine"]["nproc"] >= 1
    assert details["machine"]["numpy"] and details["machine"]["blas"]
    assert [it["traced"] for it in details["iterations"]] == (
        [True, False, True] if trace else [False] * 3)


def test_removed_hook_target_fails_the_traced_run(monkeypatch, tmp_path):
    original_train = neubm.harness.train
    monkeypatch.delattr(neubm.harness, "mmd_rbf")
    config = worker.write_config("ablate-gcn-2k", DEFAULT_SEED, tmp_path, tiny=True)
    with pytest.raises(tracing.HookError, match=r"neubm\.harness\.mmd_rbf"):
        worker.run_iteration("ablate-gcn-2k", config, traced=True, run_id="t")
    assert neubm.harness.train is original_train  # hooks already set are undone


def test_layer_never_called_fails_the_traced_run(monkeypatch, tmp_path):
    monkeypatch.setattr(neubm.harness, "_mmd_diagnostic", lambda *args: {})
    config = worker.write_config("experiment-gat-2k", DEFAULT_SEED, tmp_path, tiny=True)
    with pytest.raises(tracing.HookError, match=r"metrics\.mmd_rbf"):
        worker.run_iteration("experiment-gat-2k", config, traced=True, run_id="t")


def test_tampered_aggregate_fails_the_determinism_gate(tmp_path):
    name = "experiment-gat-2k"
    iterations = [run.spawn(name, DEFAULT_SEED, i, False, True, tmp_path, 120.0)
                  for i in range(2)]
    assert not any(it.failed for it in iterations)
    reports = tmp_path / "iter-1" / "reports"
    aggregate = reports / "aggregate.json"
    aggregate.write_text(aggregate.read_text().replace('"mean": 0.', '"mean": 1.', 1))
    iterations[1].check = run.check_reports(name, DEFAULT_SEED, reports,
                                            iterations[1].expected_records)

    result, details = run.summarize(name, DEFAULT_SEED, False, True, iterations)
    assert result["correct"] is False
    assert result["failed"] == iterations[1].expected_records
    assert any("not deterministic" in p for p in details["problems"])
