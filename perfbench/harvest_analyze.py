"""``harvest_analyze``: the paper's §2/§4 pipeline, harvest then analysis.

First ``harvest_log`` rebuilds a Merkle-verified replica of every log of
the multi-log Fig 1 simulation over HTTP (``nproc`` closed-loop
harvesters pulling logs, largest first).  Then ``CertCorpus.from_logs``
builds the corpus from the replicas and
``analyze_corpus(corpus, sections_graph())`` runs the fused growth,
rates, matrix and leakage passes.  The run repeats cycles of one
harvest round and a few analysis rounds, so both phases sample the
whole run while the machine's speed drifts; the first cycle warms the
caches and is not timed, and the run reports the median of the
per-round values over the rest, each scaled to the nominal host speed.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import repro.dataset
from repro.ct.server import LogClient, harvest_log, log_slug
from repro.dataset import CertCorpus, sections_graph
from repro.util.stats import Counter2D

from perfbench import checks, inputs
from perfbench.harness import (
    FAILURES,
    NPROC,
    Guard,
    Session,
    generator_rss_kb,
    host_factor,
    median,
    percentile,
    probe_both_ms,
    probe_ms,
    run_threads,
    tail_percentile,
)
from perfbench.report import Measurement

#: Timed cycles per run second, after one untimed warm-up cycle.
CYCLES_PER_S = 0.4
#: Analysis rounds per cycle (one harvest round each).
ANALYSES_PER_CYCLE = 2
#: CPUs the workload needs (it sizes its threads to ``nproc``).
MIN_NPROC = 1


class Prepared:
    def __init__(self, inp: inputs.HarvestInputs, seconds: float) -> None:
        self.inp = inp
        self.cycles = 1 + max(2, round(seconds * CYCLES_PER_S))
        #: The same graph run over the simulated source logs.
        self.reference = canonical(
            repro.dataset.analyze_corpus(CertCorpus.from_logs(inp.source), sections_graph())
        )

def prepare(seed: int, seconds: float, scale: float) -> Prepared:
    return Prepared(inputs.harvest_analyze(seed, scale), seconds)


def canonical(result: Dict[str, object]) -> Dict[str, object]:
    """Analysis results in a comparable form (``Counter2D`` has no ``==``)."""
    out = dict(result)
    for name, value in result.items():
        if isinstance(value, Counter2D):
            rows, cols = value.rows(), value.cols()
            out[name] = (rows, cols, [[value.get(r, c) for c in cols] for r in rows])
    return out


class _PageTimer(LogClient):
    """A client that times each ``get-entries`` page it fetches."""

    def __init__(self, base_url: str, pages_ms: List[float]) -> None:
        super().__init__(base_url)
        self.pages_ms = pages_ms

    def get_entries(self, start: int, end: int):
        began = time.perf_counter()
        entries = super().get_entries(start, end)
        self.pages_ms.append((time.perf_counter() - began) * 1e3)
        return entries


def _harvest_round(
    url: str, specs: Tuple[inputs.LogSpec, ...], guard: Guard
) -> Tuple[float, List[object], List[float], List[object], Tuple[int, int]]:
    """Harvest every log once.

    Returns (seconds, replicas, page ms, STHs, (requests, response bytes)).
    """
    order = sorted(range(len(specs)), key=lambda i: -len(specs[i].rows))
    pending = iter(order)
    lock = threading.Lock()
    replicas: List[object] = [None] * len(specs)
    sths: List[object] = [None] * len(specs)
    pages: List[List[float]] = [[] for _ in range(NPROC)]
    wire = [[0, 0] for _ in range(NPROC)]

    def work(worker: int) -> None:
        while True:
            with lock:
                i = next(pending, None)
            if i is None:
                return
            spec = specs[i]
            guard.sample()
            client = _PageTimer(f"{url}/{log_slug(spec.name)}", pages[worker])
            sth = client.get_signed_tree_head()
            replicas[i] = harvest_log(client, name=spec.name, operator=spec.operator)
            sths[i] = (sth, sth.verify(spec.key))
            wire[worker][0] += client.requests
            wire[worker][1] += client.bytes_received

    began = time.perf_counter()
    run_threads(work, NPROC)
    seconds = time.perf_counter() - began
    sent = (sum(w[0] for w in wire), sum(w[1] for w in wire))
    return seconds, replicas, [v for chunk in pages for v in chunk], sths, sent


def _check_harvest(specs, replicas, sths) -> None:
    for spec, replica, (sth, program_ok) in zip(specs, replicas, sths):
        checks.require(program_ok and checks.sth_ok(spec.key, sth), f"{spec.name}: bad STH")
        leaves = [row[0] for row in spec.rows]
        checks.require(
            [entry.leaf_input for entry in replica.entries] == leaves,
            f"{spec.name}: harvested entries differ from the source log",
        )
        checks.require(
            sth.tree_size == len(leaves) and sth.root_hash == checks.merkle_root(leaves),
            f"{spec.name}: served tree head is not the source log's",
        )


def _analyze(prepared: Prepared, replicas: List[object]) -> Tuple[float, int]:
    """One analysis round over the replicas; returns (ms, records)."""
    logs = {spec.name: replica for spec, replica in zip(prepared.inp.logs, replicas)}
    began = time.perf_counter()
    corpus = CertCorpus.from_logs(logs)
    result = repro.dataset.analyze_corpus(corpus, sections_graph())
    elapsed = (time.perf_counter() - began) * 1e3
    checks.require(
        canonical(result) == prepared.reference,
        "analysis of the harvested corpus differs from the source logs'",
    )
    return elapsed, len(corpus)


def measure(prepared: Prepared, trace_path: Optional[Path] = None) -> Measurement:
    """Cycles of a harvest round and analysis rounds, each timed between probes.

    Every round's time is scaled to the nominal host speed by probes
    taken just before and after it (in both processes around a harvest
    round, :func:`~perfbench.harness.probe_both_ms`; in the generator
    around an analysis round, :func:`~perfbench.harness.probe_ms`), and
    the run reports the median over the timed rounds.
    """
    specs = prepared.inp.logs
    first = f"/{log_slug(specs[0].name)}"
    session = Session({"logs": specs}, lambda url: LogClient(url + first).get_sth())
    server = session.start(trace_path)
    guard = Guard()
    rates, round_pages, analysis_ms, factors = [], [], [], []
    requests = received = failed = records = 0
    entries = sum(len(spec.rows) for spec in specs)
    try:
        for n in range(prepared.cycles):
            before = probe_both_ms(server)
            try:
                seconds, replicas, pages, sths, sent = _harvest_round(server.url, specs, guard)
            except FAILURES:
                failed += 1
                continue
            after = probe_both_ms(server)
            requests += sent[0]
            received += sent[1]
            _check_harvest(specs, replicas, sths)
            if n:
                factor = host_factor(before, after)
                factors.append(factor)
                rates.append(entries / (seconds * factor))
                round_pages.append([page * factor for page in pages])
            for _ in range(ANALYSES_PER_CYCLE):
                # Only the generator works here, so only its core is probed.
                before = probe_ms()
                elapsed, records = _analyze(prepared, replicas)
                after = probe_ms()
                if n:
                    factors.append(host_factor(before, after))
                    analysis_ms.append(elapsed * factors[-1])
        stats = server.stop()
    finally:
        server.close()
    if not rates:
        raise checks.CheckFailed("no harvest round completed")

    pages = [v for chunk in round_pages for v in chunk]
    tail = tail_percentile(len(pages))
    e2e = {
        "setup_s": median(session.setup_s),
        "peak_rss_mb": (stats["rss_kb"] + generator_rss_kb()) / 1024.0,
        "p50_ms": median([median(chunk) for chunk in round_pages]),
        "outcome_p50_ms": median(analysis_ms),
        "ops_per_s": median(rates),
    }
    violations = guard.violations(0.0, 0)
    if failed:
        violations.append(f"{failed} harvest rounds failed")
    return Measurement(
        e2e=e2e,
        info={
            "page_p50_ms": e2e["p50_ms"],
            "page_tail_ms": percentile(pages, tail),
            "page_tail_pct": tail,
            "harvest_entries_per_s": e2e["ops_per_s"],
            "analysis_round_ms": e2e["outcome_p50_ms"],
            "analysis_records_per_s": records / (e2e["outcome_p50_ms"] / 1e3),
            "records": records,
            "logs": len(specs),
            "pages": len(pages),
            "host_factor": median(factors),
        },
        attempted=requests + failed + prepared.cycles * ANALYSES_PER_CYCLE,
        failed=failed,
        violations=violations,
        loadgen={
            "late_p99_ms": 0.0,
            "backlog_max": 0,
            "threads_max": guard.threads_max,
            "conns_max": guard.conns_max,
        },
        server_stats=stats,
        wire={"requests": requests, "bytes": received},
    )
