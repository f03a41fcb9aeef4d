"""``audit_read``: browsers and monitors reading a static sequenced log.

Open loop at fixed rates — about 70% ``get-proof-by-hash``, 20%
``get-sth`` and 10% ``get-entries`` pages — then a closed-loop
saturation phase with ``nproc`` back-to-back clients.  The log holds
more distinct proofs than the server memo, so both the memo-hit path
and the Merkle-proof path run.  The sequencer, RSA signing and dataset
layers do no work here.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional

from repro.ct import merkle
from repro.ct.server import LogClient

from perfbench import checks, inputs
from perfbench.harness import (
    LATENCY_LIMIT_MS,
    NPROC,
    Guard,
    Session,
    generator_rss_kb,
    host_factor,
    median,
    percentile,
    probe_both_ms,
    run_closed_loop,
    run_open_loop,
    tail_percentile,
)
from perfbench.report import Measurement

#: CPUs the workload needs (it sizes its threads to ``nproc``).
MIN_NPROC = 1


def prepare(seed: int, seconds: float, scale: float) -> inputs.AuditInputs:
    return inputs.audit_read(seed, seconds, scale, NPROC)


def _read(client: LogClient, op: inputs.Op, inp: inputs.AuditInputs, leaves: List[bytes]):
    """One read, verified client-side by the program as a browser would."""
    size = len(leaves)
    if op.kind == "get-sth":
        sth = client.get_signed_tree_head()
        return (op, sth, sth.verify(inp.log.key))
    if op.kind == "get-proof-by-hash":
        leaf = leaves[op.index]
        index, path = client.get_proof_by_hash(checks.leaf_hash(leaf), size)
        ok = merkle.verify_inclusion_proof(leaf, index, size, path, inp.root)
        return (op, (index, path), ok)
    entries = client.get_entries(op.index, op.index + inp.page - 1)
    return (op, [(e.index, e.leaf_input) for e in entries], None)


def _check(result, inp: inputs.AuditInputs, leaves: List[bytes]) -> None:
    op, answer, program_ok = result
    size = len(leaves)
    if op.kind == "get-sth":
        checks.require(program_ok, "program rejected a served STH")
        checks.require(checks.sth_ok(inp.log.key, answer), "STH signature invalid")
        checks.require(
            answer.tree_size == size and answer.root_hash == inp.root,
            f"STH ({answer.tree_size}) is not the seeded tree head",
        )
    elif op.kind == "get-proof-by-hash":
        index, path = answer
        checks.require(program_ok, f"program rejected the proof of leaf {op.index}")
        checks.require(index == op.index, f"proof for leaf {op.index} names {index}")
        checks.require(
            checks.inclusion_ok(leaves[op.index], index, size, path, inp.root),
            f"proof of leaf {op.index} does not verify against the seeded root",
        )
    else:
        expected = [(op.index + k, leaves[op.index + k]) for k in range(inp.page)]
        checks.require(answer == expected, f"get-entries page at {op.index} is wrong")


def measure(inp: inputs.AuditInputs, trace_path: Optional[Path] = None) -> Measurement:
    """Alternate open-loop and saturation segments; report segment medians.

    Each second of the run contributes one open-loop p50 and tail, and
    one saturation p50 and rate, each scaled to the nominal host speed by
    the probes of both processes taken around it
    (:func:`~perfbench.harness.probe_both_ms`);
    the run reports the median of each over the segments.
    """
    leaves = [row[0] for row in inp.log.rows]
    session = Session({"logs": (inp.log,), "sequenced": True}, lambda url: LogClient(url).get_sth())
    server = session.start(trace_path)
    guard = Guard()
    opened, saturated = [], []
    probes = [probe_both_ms(server)]
    try:
        clients = [LogClient(server.url, client_id=f"reader-{w}") for w in range(NPROC)]
        for segment in inp.segments:
            schedule = segment.schedule
            opened.append(
                run_open_loop(
                    [op.due for op in schedule],
                    lambda w, i: _read(clients[w], schedule[i], inp, leaves),
                    guard,
                )
            )
            probes.append(probe_both_ms(server))
            saturated.append(
                run_closed_loop(
                    segment.saturation,
                    lambda w, op: _read(clients[w], op, inp, leaves),
                    guard,
                )
            )
            probes.append(probe_both_ms(server))
        stats = server.stop()
    finally:
        server.close()
    for result in [r for part in opened + saturated for r in part.results]:
        if result is not None:
            _check(result, inp, leaves)

    # Probes bracket each open-loop phase and each saturation phase.
    open_factors = [host_factor(a, b) for a, b in zip(probes[0::2], probes[1::2])]
    sat_factors = [host_factor(a, b) for a, b in zip(probes[1::2], probes[2::2])]
    read = [value for part in opened for value in part.latency_ms]
    tail = tail_percentile(len(opened[0].latency_ms))
    e2e = {
        "setup_s": median(session.setup_s),
        "peak_rss_mb": (stats["rss_kb"] + generator_rss_kb()) / 1024.0,
        "p50_ms": median([median(p.latency_ms) * f for p, f in zip(opened, open_factors)]),
        "outcome_p50_ms": median(
            [median(p.latency_ms) * f for p, f in zip(saturated, sat_factors)]
        ),
        "ops_per_s": median(
            [
                sum(1 for v in p.latency_ms if v <= LATENCY_LIMIT_MS) / p.seconds / f
                for p, f in zip(saturated, sat_factors)
            ]
        ),
    }
    late = percentile([v for part in opened for v in part.late_ms], 99.0)
    backlog = max(part.backlog_max for part in opened)
    saturated_reads = sum(len(part.latency_ms) for part in saturated)
    return Measurement(
        e2e=e2e,
        info={
            "read_p50_ms": e2e["p50_ms"],
            "read_tail_ms": median(
                [percentile(p.latency_ms, tail) * f for p, f in zip(opened, open_factors)]
            ),
            "read_tail_pct": tail,
            "saturated_read_p50_ms": e2e["outcome_p50_ms"],
            "read_max_rps": e2e["ops_per_s"],
            "open_loop_reads": len(read),
            "open_loop_rate_per_s": inputs.AUDIT_RATE,
            "saturation_reads": saturated_reads,
            "host_factor": median(open_factors + sat_factors),
        },
        attempted=len(read) + saturated_reads,
        failed=sum(part.failed for part in opened + saturated),
        violations=guard.violations(late, backlog),
        loadgen={
            "late_p99_ms": late,
            "backlog_max": backlog,
            "threads_max": guard.threads_max,
            "conns_max": guard.conns_max,
        },
        server_stats=stats,
        wire={
            "requests": sum(c.requests for c in clients),
            "bytes": sum(c.bytes_received for c in clients),
        },
    )
