"""What one measured pass returns, and the per-layer metrics built from it."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from perfbench.metrics import ENDPOINTS, PER_LAYER
from perfbench.tracing import merge_summaries


@dataclass
class Measurement:
    """One pass of a workload against one server process."""

    #: End-to-end metrics by their ``BENCHMARK.json`` names.
    e2e: Dict[str, float]
    #: The same numbers and a few more, in the workload's own terms.
    info: Dict[str, float]
    attempted: int
    failed: int
    violations: List[str]
    loadgen: Dict[str, float]
    server_stats: Dict[str, object]
    #: Client wire ledger: requests and response bytes.
    wire: Dict[str, int]
    monitor: Dict[str, float] = field(default_factory=dict)
    client_trace: Optional[Dict[str, List[float]]] = None

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted


def _mean_ms(summary: Dict[str, List[float]], name: str) -> float:
    calls, total = summary.get(name, (0, 0.0))
    return total / calls if calls else 0.0


def _calls(summary: Dict[str, List[float]], name: str) -> int:
    return int(summary.get(name, (0, 0.0))[0])


def layer_metrics(traced: Measurement, overhead: float) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric from a traced pass (0 where a layer idles)."""
    server_trace = traced.server_stats["trace"]
    both = merge_summaries(traced.client_trace, server_trace)
    out: Dict[str, float] = {}
    for endpoint in ENDPOINTS:
        client = _mean_ms(both, f"ct.server.client.{endpoint}")
        handle = _mean_ms(both, f"ct.server.handle.{endpoint}")
        out[f"ct.server.client_ms.{endpoint}"] = client
        out[f"ct.server.handle_ms.{endpoint}"] = handle
        out[f"ct.server.wire_gap_ms.{endpoint}"] = client - handle if client else 0.0
    memo = traced.server_stats["memo"].values()
    lookups = sum(m["lookups"] for m in memo)
    sequencer = list(traced.server_stats["sequencer"].values())
    merges = sum(s["merges"] for s in sequencer)
    requests = traced.wire["requests"]
    monitor = traced.monitor
    polls = monitor.get("polls", 0)
    out.update(
        {
            "ct.server.requests": requests,
            "ct.server.connects": _calls(both, "ct.server.connects"),
            "ct.server.entry_to_wire_ms": _mean_ms(both, "ct.server.entry_to_wire"),
            "ct.server.entry_from_wire_ms": _mean_ms(both, "ct.server.entry_from_wire"),
            "ct.server.resp_bytes": traced.wire["bytes"] / requests if requests else 0.0,
            "ct.server.memo_hit_ratio": (
                sum(m["hits"] for m in memo) / lookups if lookups else 0.0
            ),
            "ct.merkle.inclusion_proof_ms": _mean_ms(both, "ct.merkle.inclusion_proof"),
            "ct.merkle.consistency_proof_ms": _mean_ms(both, "ct.merkle.consistency_proof"),
            "ct.merkle.append_many_ms": _mean_ms(both, "ct.merkle.append_many"),
            "ct.merkle.node_hashes": _calls(both, "ct.merkle.node_hashes"),
            "ct.merkle.verify_ms": _mean_ms(both, "ct.merkle.verify"),
            "ct.sequencer.submit_ms": _mean_ms(both, "ct.sequencer.submit"),
            "ct.sequencer.merge_ms": _mean_ms(both, "ct.sequencer.merge"),
            "ct.sequencer.batch_size": (
                sum(s["entries_merged"] for s in sequencer) / merges if merges else 0.0
            ),
            "ct.sequencer.merges": merges,
            "ct.log.sign_sct_ms": _mean_ms(both, "ct.log.sign_sct"),
            "ct.log.batch_digest_ms": _mean_ms(both, "ct.log.batch_digest"),
            "x509.crypto.sign_count": _calls(both, "x509.crypto.sign"),
            "x509.crypto.sign_ms": _mean_ms(both, "x509.crypto.sign"),
            "x509.crypto.verify_count": _calls(both, "x509.crypto.verify"),
            "x509.crypto.verify_ms": _mean_ms(both, "x509.crypto.verify"),
            "ct.monitor.poll_ms": _mean_ms(both, "ct.monitor.poll"),
            "ct.monitor.requests_per_poll": (
                monitor["requests"] / polls if polls else 0.0
            ),
            "ct.monitor.bytes_per_poll": monitor["bytes"] / polls if polls else 0.0,
            "ct.monitor.matches_per_body": (
                monitor["matched"] / monitor["bodies"] if monitor.get("bodies") else 0.0
            ),
            "ct.monitor.findings": monitor.get("findings", 0),
            "dataset.corpus_build_ms": _mean_ms(both, "dataset.corpus_build"),
            "dataset.analyze_ms": _mean_ms(both, "dataset.analyze"),
            "loadgen.late_p99_ms": traced.loadgen["late_p99_ms"],
            "loadgen.backlog_max": traced.loadgen["backlog_max"],
            "loadgen.failed_frac": traced.failed_frac,
            "loadgen.threads_max": traced.loadgen["threads_max"],
            "loadgen.conns_max": traced.loadgen["conns_max"],
            "trace_overhead_frac": overhead,
        }
    )
    missing = {layer.name for layer in PER_LAYER} - set(out)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return out
