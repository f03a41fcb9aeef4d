"""One seeded end-to-end benchmark of the CT log stack.

Usage (from the repository root)::

    python3 perfbench/run.py --workload audit_read --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Workloads: ``audit_read``, ``ingest_monitor``, ``harvest_analyze``
(see their modules).  Each run builds its inputs from ``--seed``,
starts the log server in its own process, measures for about
``--seconds``, checks every output, and prints every metric by name
and unit.  The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of an untraced pass.
``--trace 1`` runs an untraced pass, then a traced pass (each half
of ``--seconds``) with the layer wrappers of :mod:`perfbench.tracing`
installed in both processes, and reports the per-layer metrics of the
traced pass plus ``trace_overhead_frac`` (untraced over traced
``ops_per_s``, minus 1).  The end-to-end lines it prints are the
untraced pass's, and both passes are checked.  Spans are written to
``.perfbench_out/``.

A wrong output or a broken generator limit prints the reason, a
result with ``"correct": false``, and exits 1.  Without the program's
source under ``src/`` the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


def _run(name: str, seed: int, seconds: float, scale: float, trace: bool):
    import importlib

    from perfbench import metrics
    from perfbench.checks import CheckFailed
    from perfbench.harness import NPROC
    from perfbench.report import layer_metrics
    from perfbench.tracing import Tracer, install_client

    workload = importlib.import_module(f"perfbench.{name}")
    if NPROC < workload.MIN_NPROC:
        print(f"{name}: INVALID RUN: needs nproc >= {workload.MIN_NPROC}, have {NPROC}")
        return {"correct": False, "attempted": 1, "failed": 0, "metrics": {}}
    # A traced run measures two passes, each half as long.
    inp = workload.prepare(seed, seconds / 2 if trace else seconds, scale)
    # The inputs live for the whole run: keep the collector off them.
    gc.collect()
    gc.freeze()
    try:
        # End-to-end numbers always come from a pass with every wrapper off.
        untraced = workload.measure(inp)
        passes = [("untraced pass: " if trace else "", untraced)]
        if trace:
            tracer = Tracer()
            install_client(tracer)
            try:
                traced = workload.measure(inp, OUT / f"{name}-{seed}-server.jsonl")
            finally:
                tracer.restore()
            tracer.write(OUT / f"{name}-{seed}-generator.jsonl")
            traced.client_trace = tracer.summary()
            passes.append(("traced pass: ", traced))
    except CheckFailed as exc:
        print(f"{name}: WRONG OUTPUT: {exc}")
        return {"correct": False, "attempted": 1, "failed": 0, "metrics": {}}
    problems = [prefix + v for prefix, measured in passes for v in measured.violations]
    for problem in problems:
        print(f"{name}: INVALID RUN: {problem}")

    for metric in metrics.END_TO_END:
        own, meaning = metrics.MEANINGS[metric.name][name]
        value = untraced.e2e[metric.name]
        print(f"{name} {metric.name} = {value:.4f} {metric.unit}  [{own}: {meaning}]")
    for key, value in untraced.info.items():
        print(f"{name} info {key} = {value:.4f}")
    print(f"{name} failed_frac = {untraced.failed_frac:.4f}")
    if trace:
        overhead = untraced.e2e["ops_per_s"] / traced.e2e["ops_per_s"] - 1.0
        values = layer_metrics(traced, overhead)
        units = {layer.name: layer.unit for layer in metrics.PER_LAYER}
        for layer in metrics.PER_LAYER:
            label = metrics.label(layer.name, name)
            moves = " ".join(f"{m}@{w}" for m, w in metrics.moves_for(layer.name))
            print(
                f"{name} layer {layer.name} = {values[layer.name]:.4f} {layer.unit}"
                f" [{label}]" + (f" -> {moves}" if moves else "")
            )
    else:
        values = untraced.e2e
        units = {m.name: m.unit for m in metrics.END_TO_END}
    return {
        "correct": not problems,
        "attempted": sum(measured.attempted for _, measured in passes),
        "failed": sum(measured.failed for _, measured in passes),
        "metrics": {key: {"value": values[key], "unit": units[key]} for key in units},
    }


def main(argv=None) -> int:
    from perfbench.metrics import WORKLOADS

    parser = argparse.ArgumentParser(description="CT log stack benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="input size factor (tests use a tiny one)"
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "ct" / "server.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        # One process per workload, so each reports its own peak memory.
        codes = [
            subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--scale", str(args.scale)],
                check=False,
            ).returncode
            for name in WORKLOADS
        ]
        return max(codes)
    result = _run(args.workload, args.seed, args.seconds, args.scale, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    # Import the benchmark as a package and the program from its source.
    sys.path[:1] = [str(ROOT), str(ROOT / "src")]
    sys.exit(main())
