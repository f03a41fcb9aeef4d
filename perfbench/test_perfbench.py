"""The benchmark's own tests, at a tiny size.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import types
from pathlib import Path
from typing import Tuple

import pytest

from repro.ct.merkle import MerkleTree

from perfbench import audit_read, checks, inputs, metrics
from perfbench.checks import CheckFailed

ROOT = Path(__file__).resolve().parent.parent
TINY = ["--seconds", "1", "--scale", "0.02"]


def _run(workload: str, trace: int, seed: int = 7) -> Tuple[dict, str]:
    """The run's result object and everything it printed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), *TINY],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.fixture(scope="module")
def runs():
    """Per workload: one untraced run and two traced runs, same seed."""
    return {
        w: (_run(w, 0), _run(w, 1), _run(w, 1)) for w in metrics.WORKLOADS
    }


def test_benchmark_json_matches_the_registry():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(metrics.WORKLOADS)
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ]
    assert doc["per_layer"] == [
        {"name": l.name, "unit": l.unit, "better": l.better} for l in metrics.PER_LAYER
    ]
    for metric in metrics.END_TO_END:
        assert set(metrics.MEANINGS[metric.name]) == set(metrics.WORKLOADS)


def test_every_named_metric_is_emitted_with_its_unit(runs):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, trace in (("end_to_end", 0), ("per_layer", 1)):
        units = {m["name"]: m["unit"] for m in doc[key]}
        for workload, results in runs.items():
            result = results[trace][0]
            assert result["correct"] and result["failed"] == 0, workload
            assert result["attempted"] >= 1
            assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for workload, results in runs.items():
        for name, metric in results[0][0]["metrics"].items():
            assert metric["value"] > 0, (workload, name)


def test_exact_counts_repeat_across_two_runs(runs):
    for workload, (_, (first, _), (second, _)) in runs.items():
        for layer in metrics.PER_LAYER:
            if metrics.label(layer.name, workload) == "exact":
                assert (
                    first["metrics"][layer.name] == second["metrics"][layer.name]
                ), (workload, layer.name)


def _printed_names(stdout: str, workload: str) -> set:
    """Metric names a run printed in the workload's own terms."""
    names = set()
    for line in stdout.splitlines():
        if line.startswith(f"{workload} info "):
            names.add(line.split()[2])
        elif line.startswith(f"{workload} ") and "  [" in line:
            names.add(line.split("  [", 1)[1].split(":", 1)[0])
    return names


def test_every_metric_a_layer_should_move_is_printed(runs):
    for targets in metrics.MOVES.values():
        for name, workload in targets:
            assert name in _printed_names(runs[workload][1][1], workload), (name, workload)


def test_a_traced_run_checks_and_prints_the_untraced_pass(monkeypatch, capsys, tmp_path):
    from perfbench import report, run

    def measurement(ops_per_s: float, violations: list) -> report.Measurement:
        return report.Measurement(
            e2e={m.name: ops_per_s for m in metrics.END_TO_END},
            info={},
            attempted=10,
            failed=1,
            violations=violations,
            loadgen={},
            server_stats={},
            wire={},
        )

    stub = types.ModuleType("perfbench.stub")
    stub.MIN_NPROC = 1
    stub.prepare = lambda seed, seconds, scale: None
    stub.measure = lambda inp, trace_path=None: (
        measurement(2.0, ["late"]) if trace_path is None else measurement(1.0, [])
    )
    monkeypatch.setitem(sys.modules, "perfbench.stub", stub)
    for metric in metrics.END_TO_END:
        monkeypatch.setitem(metrics.MEANINGS[metric.name], "stub", (metric.name, "stub"))
    monkeypatch.setattr(
        report,
        "layer_metrics",
        lambda traced, overhead: {layer.name: overhead for layer in metrics.PER_LAYER},
    )
    monkeypatch.setattr(run, "OUT", tmp_path)

    result = run._run("stub", 1, 2.0, 1.0, True)
    out = capsys.readouterr().out
    assert not result["correct"]
    assert out.count("INVALID RUN") == 1
    assert "stub: INVALID RUN: untraced pass: late" in out
    assert (result["attempted"], result["failed"]) == (20, 2)
    assert "stub ops_per_s = 2.0000" in out
    assert result["metrics"]["trace_overhead_frac"]["value"] == 1.0


def test_same_seed_generates_identical_inputs():
    assert inputs.audit_read(3, 2, 0.02, 2) == inputs.audit_read(3, 2, 0.02, 2)
    assert inputs.audit_read(3, 2, 0.02, 2) != inputs.audit_read(4, 2, 0.02, 2)
    assert inputs.ingest_monitor(3, 2) == inputs.ingest_monitor(3, 2)
    assert inputs.harvest_analyze(3, 0.02).logs == inputs.harvest_analyze(3, 0.02).logs


def test_reference_merkle_code_agrees_with_the_program():
    leaves = [b"leaf-%d" % i for i in range(37)]
    tree = MerkleTree()
    tree.append_many(leaves)
    for size in (1, 2, 5, 16, 37):
        root = tree.root(size)
        assert checks.merkle_root(leaves[:size]) == root
        for index in range(size):
            path = tree.inclusion_proof(index, size)
            assert checks.inclusion_ok(leaves[index], index, size, path, root)


@pytest.fixture()
def audit_proof():
    inp = inputs.audit_read(5, 1, 0.02, 2)
    leaves = [row[0] for row in inp.log.rows]
    tree = MerkleTree()
    tree.append_many(leaves)
    op = inputs.Op(0.0, "get-proof-by-hash", 3)
    path = tree.inclusion_proof(3, len(leaves))
    return inp, leaves, op, path


def test_a_correct_proof_passes_the_check(audit_proof):
    inp, leaves, op, path = audit_proof
    audit_read._check((op, (3, path), True), inp, leaves)


def test_a_tampered_proof_fails_the_check(audit_proof):
    inp, leaves, op, path = audit_proof
    tampered = list(path)
    tampered[0] = bytes(32)
    with pytest.raises(CheckFailed):
        audit_read._check((op, (3, tampered), True), inp, leaves)


def test_a_wrong_expected_root_fails_the_check(audit_proof):
    inp, leaves, op, path = audit_proof
    wrong = inputs.AuditInputs(inp.log, bytes(32), inp.page, inp.segments)
    with pytest.raises(CheckFailed):
        audit_read._check((op, (3, path), True), wrong, leaves)


def test_a_proof_the_program_rejected_fails_the_check(audit_proof):
    inp, leaves, op, path = audit_proof
    with pytest.raises(CheckFailed):
        audit_read._check((op, (3, path), False), inp, leaves)


def test_without_the_program_source_the_run_fails(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for source in (ROOT / "perfbench").glob("*.py"):
        (bench / source.name).write_text(source.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit_read",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
