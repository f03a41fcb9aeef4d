"""Every metric the benchmark reports: name, unit, meaning, and labels.

``BENCHMARK.json`` at the repository root lists the same names; the
benchmark's tests hold the two in step.

CPU-bound timings are scaled to the nominal host speed by probes taken
around each measured round (:func:`perfbench.harness.host_factor`).

End-to-end metrics carry one name across the three workloads, because
every run reports every one of them.  What each measures on each
workload is spelled out in :data:`MEANINGS`, together with the name the
metric goes by in the workload's own terms (``read_p50_ms`` on
``audit_read``, ``sct_p50_ms`` on ``ingest_monitor``, ...).

Per-layer metrics come from the traced run.  Each count is labelled
*exact* on the workloads where it repeats identically for the same
seed and *timing-dependent* elsewhere; :data:`MOVES` records which
end-to-end metric a layer metric should move, and on which workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

WORKLOADS = ("audit_read", "ingest_monitor", "harvest_analyze")

#: RFC 6962 endpoints the workloads call (plus the non-RFC digest).
ENDPOINTS = (
    "get-sth",
    "get-entries",
    "get-proof-by-hash",
    "get-sth-consistency",
    "get-batch-digest",
    "add-pre-chain",
)


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float


END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.1),
    EndToEnd("p50_ms", "ms", "lower", 0.25),
    EndToEnd("outcome_p50_ms", "ms", "lower", 0.25),
    EndToEnd("ops_per_s", "1/s", "higher", 0.25),
)

#: End-to-end metrics measured but not gated, with the spread (IQR over
#: median) that ruled them out.  Their values print on the info lines.
DROPPED = {
    "tail_ms": (
        "spreads over two sets of 10 seeds of 20 s runs: read_tail_ms 0.281 "
        "and 0.152, sct_tail_ms 0.382 and 0.494, page_tail_ms 0.096 and 0.082"
    ),
}

#: metric -> workload -> (name in the workload's terms, what it measures).
MEANINGS: Dict[str, Dict[str, Tuple[str, str]]] = {
    "setup_s": {
        w: (
            "setup_s",
            "median of 5 server starts (spawn, load the seeded logs, "
            "bind, first get-sth answered), each at nominal host speed",
        )
        for w in WORKLOADS
    },
    "peak_rss_mb": {
        w: (
            "peak_rss_mb",
            "peak resident memory of the server process plus the "
            "generator process",
        )
        for w in WORKLOADS
    },
    "p50_ms": {
        "audit_read": (
            "read_p50_ms",
            "median over one-second segments of the open-loop read p50, "
            "timed from each read's due time, at nominal host speed",
        ),
        "ingest_monitor": (
            "sct_p50_ms",
            "median from submission due time to a verified SCT, open loop, "
            "at nominal host speed",
        ),
        "harvest_analyze": (
            "page_p50_ms",
            "median over harvest rounds of the get-entries page p50, "
            "at nominal host speed",
        ),
    },
    "outcome_p50_ms": {
        "audit_read": (
            "saturated_read_p50_ms",
            "median over segments of the read p50 with nproc "
            "back-to-back clients, at nominal host speed",
        ),
        "ingest_monitor": (
            "detect_p50_ms",
            "median from submission due time to the first subscribed "
            "monitor's verified match (the paper's Table 4 quantity), "
            "host-probe pauses left out",
        ),
        "harvest_analyze": (
            "analysis_round_ms",
            "median time of CertCorpus.from_logs plus "
            "analyze_corpus(sections_graph()) over the harvested replicas, "
            "at nominal host speed",
        ),
    },
    "ops_per_s": {
        "audit_read": (
            "read_max_rps",
            "median over segments of the reads/s that nproc back-to-back "
            "clients complete within 100 ms, at nominal host speed",
        ),
        "ingest_monitor": (
            "monitor_polls_per_s",
            "median over swarm rounds (each monitor polls once) "
            "of the LightweightMonitor polls completed per second, "
            "at nominal host speed",
        ),
        "harvest_analyze": (
            "harvest_entries_per_s",
            "median over rounds of the Merkle-verified harvest "
            "throughput over every log, at nominal host speed",
        ),
    },
}


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    #: Workloads on which this count repeats exactly for one seed.
    exact_on: Tuple[str, ...] = ()
    better: str = "lower"


def _endpoint_layers() -> Tuple[Layer, ...]:
    return tuple(
        Layer(f"ct.server.{kind}.{endpoint}", "ms")
        for kind in ("client_ms", "handle_ms", "wire_gap_ms")
        for endpoint in ENDPOINTS
    )


_READ_ONLY = ("audit_read", "harvest_analyze")

PER_LAYER = _endpoint_layers() + (
    Layer("ct.server.requests", "count", _READ_ONLY),
    Layer("ct.server.connects", "count", _READ_ONLY),
    Layer("ct.server.entry_to_wire_ms", "ms"),
    Layer("ct.server.entry_from_wire_ms", "ms"),
    Layer("ct.server.resp_bytes", "bytes", _READ_ONLY),
    Layer("ct.server.memo_hit_ratio", "ratio", ("harvest_analyze",), "higher"),
    Layer("ct.merkle.inclusion_proof_ms", "ms"),
    Layer("ct.merkle.consistency_proof_ms", "ms"),
    Layer("ct.merkle.append_many_ms", "ms"),
    Layer("ct.merkle.node_hashes", "count", ("harvest_analyze",)),
    Layer("ct.merkle.verify_ms", "ms"),
    Layer("ct.sequencer.submit_ms", "ms"),
    Layer("ct.sequencer.merge_ms", "ms"),
    Layer("ct.sequencer.batch_size", "count"),
    Layer("ct.sequencer.merges", "count", _READ_ONLY),
    Layer("ct.log.sign_sct_ms", "ms"),
    Layer("ct.log.batch_digest_ms", "ms"),
    Layer("x509.crypto.sign_count", "count", _READ_ONLY),
    Layer("x509.crypto.sign_ms", "ms"),
    Layer("x509.crypto.verify_count", "count", _READ_ONLY),
    Layer("x509.crypto.verify_ms", "ms"),
    Layer("ct.monitor.poll_ms", "ms"),
    Layer("ct.monitor.requests_per_poll", "count"),
    Layer("ct.monitor.bytes_per_poll", "bytes"),
    Layer("ct.monitor.matches_per_body", "ratio", (), "higher"),
    Layer("ct.monitor.findings", "count", WORKLOADS),
    Layer("dataset.corpus_build_ms", "ms"),
    Layer("dataset.analyze_ms", "ms"),
    Layer("loadgen.late_p99_ms", "ms"),
    Layer("loadgen.backlog_max", "count"),
    Layer("loadgen.failed_frac", "ratio", WORKLOADS),
    Layer("loadgen.threads_max", "count"),
    Layer("loadgen.conns_max", "count"),
    Layer("trace_overhead_frac", "ratio"),
)

#: Which end-to-end metric (in the workload's own terms) each layer
#: metric should move, and on which workload.  Endpoint-level server
#: metrics are keyed by their prefix.
MOVES: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "ct.server": (
        ("read_p50_ms", "audit_read"),
        ("read_tail_ms", "audit_read"),
        ("read_max_rps", "audit_read"),
        ("monitor_polls_per_s", "ingest_monitor"),
        ("harvest_entries_per_s", "harvest_analyze"),
    ),
    "ct.merkle": (
        ("read_p50_ms", "audit_read"),
        ("inclusion_p50_ms", "ingest_monitor"),
    ),
    "ct.sequencer.submit_ms": (
        ("sct_p50_ms", "ingest_monitor"),
        ("sct_tail_ms", "ingest_monitor"),
    ),
    "ct.sequencer": (
        ("inclusion_p50_ms", "ingest_monitor"),
        ("detect_p50_ms", "ingest_monitor"),
    ),
    "ct.log": (
        ("sct_p50_ms", "ingest_monitor"),
        ("detect_p50_ms", "ingest_monitor"),
    ),
    "x509.crypto": (
        ("sct_p50_ms", "ingest_monitor"),
        ("monitor_polls_per_s", "ingest_monitor"),
    ),
    "ct.monitor": (
        ("detect_p50_ms", "ingest_monitor"),
        ("monitor_polls_per_s", "ingest_monitor"),
    ),
    "dataset": (
        ("analysis_records_per_s", "harvest_analyze"),
        ("harvest_entries_per_s", "harvest_analyze"),
    ),
    "ct.server.entry_from_wire_ms": (
        ("analysis_records_per_s", "harvest_analyze"),
        ("harvest_entries_per_s", "harvest_analyze"),
    ),
}


def moves_for(name: str) -> Tuple[Tuple[str, str], ...]:
    """The longest :data:`MOVES` key that prefixes ``name``."""
    best = ""
    for key in MOVES:
        if (name == key or name.startswith(key + ".")) and len(key) > len(best):
            best = key
    return MOVES.get(best, ())


def label(name: str, workload: str) -> str:
    """``exact`` or ``timing`` for counts; ``timing`` for everything else."""
    for layer in PER_LAYER:
        if layer.name == name:
            return "exact" if workload in layer.exact_on else "timing"
    raise KeyError(name)
