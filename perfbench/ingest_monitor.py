"""``ingest_monitor``: the paper's §6 submit → SCT → merge → inclusion → detection.

One thread is the CAs: it submits precertificates open loop at a fixed
rate to an MMD-batched :class:`~repro.ct.sequencer.LogSequencer` log
(library-default 512-bit key) and, between submissions, polls for the
inclusion of every leaf it got an SCT for.  The other thread is a
closed-loop swarm of :class:`~repro.ct.monitor.LightweightMonitor`\\ s
polling through :class:`~repro.ct.monitor.HttpTransport`, each
subscribed to two of the zones the submissions fall in.  Reads and
writes share the log's tree lock.

The run is cut into segments of about 2 s.  Between two segments the
CAs' thread stops the swarm at a round boundary and probes the host's
speed in both processes (:func:`~perfbench.harness.probe_both_ms`), while
neither the CAs nor the monitors send anything, so the probes hold up
no request.  Each SCT latency and each swarm round's rate is scaled to
the nominal host speed by the probes around its segment, and the
detection and inclusion latencies leave out the pauses.
"""

from __future__ import annotations

import bisect
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from repro.ct import merkle
from repro.ct.monitor import HttpTransport, LightweightMonitor
from repro.ct.server import LogClient

from perfbench import checks, inputs
from perfbench.harness import (
    FAILURES,
    MISSED,
    Guard,
    ServerProcess,
    Session,
    generator_rss_kb,
    host_factor,
    median,
    percentile,
    probe_both_ms,
    run_threads,
    tail_percentile,
)
from perfbench.report import Measurement

#: How often the submitter asks whether its leaves were merged.
INCLUSION_POLL_S = 0.05
#: Time allowed after the schedule for merges and detections to finish.
SETTLE_S = 20.0
#: Longest wait for the swarm to reach a round boundary and stop.
PAUSE_TIMEOUT_S = 10.0

#: The CAs and the monitor swarm each need a thread of their own.
MIN_NPROC = 2


def prepare(seed: int, seconds: float, scale: float) -> inputs.IngestInputs:
    return inputs.ingest_monitor(seed, seconds)


class _Pauses:
    """Stops the swarm at a round boundary while the host is probed.

    ``paused_s`` is the total time spent paused so far; the swarm reads
    it only while it runs, after the pause that changed it.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._want = True  # the swarm starts paused
        self._held = False
        self._alive = True
        #: The segment running now (``None`` outside every segment).
        self.segment: Optional[int] = None
        self.paused_s = 0.0

    def stop(self) -> None:
        """Ask the swarm to stop and wait until it has."""
        with self._cond:
            self._want = True
            self._cond.notify_all()
            if not self._cond.wait_for(lambda: self._held or not self._alive, PAUSE_TIMEOUT_S):
                raise RuntimeError("the monitor swarm did not pause")

    def resume(self, segment: Optional[int], paused_s: float) -> None:
        with self._cond:
            self.segment = segment
            self.paused_s += paused_s
            self._want = False
            self._cond.notify_all()

    def checkpoint(self) -> Optional[int]:
        """Called by the swarm between rounds: wait out a pause, if any.

        Returns the segment the next round belongs to.
        """
        with self._cond:
            if self._want:
                self._held = True
                self._cond.notify_all()
                self._cond.wait_for(lambda: not self._want)
                self._held = False
            return self.segment

    def swarm_exited(self) -> None:
        with self._cond:
            self._alive = False
            self._cond.notify_all()


class _Submitter:
    """Open-loop submissions plus inclusion polling, on one thread.

    It also runs the pauses: before each segment and after the last it
    stops the swarm, probes the host, and lets the swarm go on.
    """

    def __init__(
        self, inp: inputs.IngestInputs, server: ServerProcess, guard: Guard, pauses: _Pauses
    ) -> None:
        self.inp = inp
        self.server = server
        self.client = LogClient(server.url, client_id="ca")
        self.guard = guard
        self.pauses = pauses
        count = len(inp.submissions)
        #: When each submission was due (``perf_counter``), set as its
        #: segment starts.
        self.due_at = [0.0] * count
        #: Pause time before each submission's segment started.
        self.paused_before = [0.0] * count
        #: Host probes: one before each segment, one after the last.
        self.probes: List[float] = []
        self.sct_ms = [MISSED] * count
        self.included_ms = [MISSED] * count
        self.scts: List[object] = [None] * count
        #: (submission, leaf index, STH, audit path, program verdict).
        self.proofs: List[Tuple[int, int, object, List[bytes], bool]] = []
        self.sths: List[Tuple[object, bool]] = []
        self.late_ms: List[float] = []
        self.backlog_max = 0
        self.failed = 0
        self.attempted = 0
        self.accepted: List[int] = []  # submissions in SCT order
        self._merged = 0  # of those, how many are proven included

    def _poll_inclusion(self) -> None:
        self.attempted += 1
        try:
            sth = self.client.get_signed_tree_head()
        except FAILURES:
            self.failed += 1
            return
        self.sths.append((sth, sth.verify(self.inp.log.key)))
        # One submitting thread: the sequencer merges in SCT order.
        merged = sth.tree_size - len(self.inp.log.rows)
        while self._merged < min(merged, len(self.accepted)):
            n = self.accepted[self._merged]
            _, _, leaf = self.inp.submissions[n]
            self.attempted += 1
            try:
                index, path = self.client.get_proof_by_hash(
                    checks.leaf_hash(leaf), sth.tree_size
                )
            except FAILURES:
                self.failed += 1
                return
            ok = merkle.verify_inclusion_proof(leaf, index, sth.tree_size, path, sth.root_hash)
            self.included_ms[n] = self.since_due(n)
            self.proofs.append((n, index, sth, path, ok))
            self._merged += 1

    def since_due(self, n: int) -> float:
        """Milliseconds since submission ``n`` was due, pauses left out."""
        paused = self.pauses.paused_s - self.paused_before[n]
        return (time.perf_counter() - self.due_at[n] - paused) * 1e3

    def _probe(self, segment: Optional[int]) -> float:
        """Pause the swarm, probe the host, let the swarm go on; returns now."""
        began = time.perf_counter()
        self.pauses.stop()
        self.probes.append(probe_both_ms(self.server))
        now = time.perf_counter()
        self.pauses.resume(segment, now - began)
        return now

    def _wait(self, until: float, next_poll: float) -> float:
        """Poll for inclusion until ``until``; returns the next poll time."""
        while True:
            now = time.perf_counter()
            if now >= until:
                return next_poll
            pending = self._merged < len(self.accepted)
            if pending and now >= next_poll:
                self._poll_inclusion()
                next_poll = time.perf_counter() + INCLUSION_POLL_S
                continue
            time.sleep((min(until, next_poll) if pending else until) - now)

    def run(self) -> None:
        per = self.inp.per_segment
        step = 1.0 / inputs.INGEST_RATE
        dues = [due for due, _, _ in self.inp.submissions[:per]]
        next_poll = 0.0
        for first in range(0, len(self.inp.submissions), per):
            start = self._probe(first // per) + 0.005
            for n in range(first, first + per):
                self.due_at[n] = start + self.inp.submissions[n][0]
                self.paused_before[n] = self.pauses.paused_s
            for n in range(first, first + per):
                _, cert, leaf = self.inp.submissions[n]
                due = self.due_at[n]
                next_poll = self._wait(due, next_poll)
                began = time.perf_counter()
                self.late_ms.append((began - due) * 1e3)
                due_now = first + bisect.bisect_right(dues, began - start)
                self.backlog_max = max(self.backlog_max, due_now - n)
                self.guard.sample()
                self.attempted += 1
                try:
                    sct = self.client.add_pre_chain(cert, self.inp.issuer_key_hash)
                except FAILURES:
                    self.failed += 1
                    continue
                self.scts[n] = (sct, sct.verify(self.inp.log.key, leaf))
                self.sct_ms[n] = (time.perf_counter() - due) * 1e3
                self.accepted.append(n)
            # The segment lasts until the next submission would be due.
            next_poll = self._wait(start + per * step, next_poll)
        deadline = self._probe(None) + SETTLE_S
        while self._merged < len(self.accepted) and time.perf_counter() < deadline:
            self._poll_inclusion()
            time.sleep(INCLUSION_POLL_S)

    def factors(self) -> List[float]:
        """Host-speed scale of each segment, from the probes around it."""
        return [host_factor(a, b) for a, b in zip(self.probes, self.probes[1:])]

    def check(self) -> None:
        key = self.inp.log.key
        seed_size = len(self.inp.log.rows)
        for n, pair in enumerate(self.scts):
            if pair is None:
                continue
            sct, program_ok = pair
            leaf = self.inp.submissions[n][2]
            checks.require(program_ok, f"program rejected the SCT of submission {n}")
            checks.require(checks.sct_ok(key, sct, leaf), f"SCT of submission {n} invalid")
        for sth, program_ok in self.sths:
            checks.require(program_ok and checks.sth_ok(key, sth), "STH signature invalid")
        for order, (n, index, sth, path, program_ok) in enumerate(self.proofs):
            leaf = self.inp.submissions[n][2]
            checks.require(program_ok, f"program rejected the inclusion of submission {n}")
            checks.require(index == seed_size + order, f"submission {n} merged at {index}")
            checks.require(
                checks.inclusion_ok(leaf, index, sth.tree_size, path, sth.root_hash),
                f"inclusion proof of submission {n} does not verify",
            )
        missing = [n for n in self.accepted if self.included_ms[n] == MISSED]
        checks.require(not missing, f"{len(missing)} SCTs never proven included")


class _Swarm:
    """Closed-loop light-weight monitors, round robin on one thread."""

    def __init__(
        self, inp: inputs.IngestInputs, url: str, guard: Guard, submitter: _Submitter
    ) -> None:
        self.inp = inp
        self.guard = guard
        self.submitter = submitter
        self.members = [
            (
                LightweightMonitor(name, domains, key=inp.log.key),
                HttpTransport(url, inp.log.name, client_id=name),
            )
            for name, domains in inp.monitors
        ]
        #: Which monitors must see each submission.
        self.expected: Dict[int, Set[str]] = {}
        self.by_name: Dict[str, int] = {}
        for n, (_, cert, _) in enumerate(inp.submissions):
            names = cert.dns_names()
            for name in names:
                self.by_name[name] = n
            self.expected[n] = {
                monitor.name for monitor, _ in self.members if monitor.matches(names)
            }
        self.seen: Dict[int, Set[str]] = {n: set() for n in self.expected}
        self.detect_ms = [MISSED] * len(inp.submissions)
        #: (segment, polls per second) of each round (every monitor
        #: polls once) run inside a segment.
        self.round_rates: List[Tuple[int, float]] = []
        self.polls = 0

    def run(self, pauses: _Pauses, done: threading.Event) -> None:
        settled_by = None
        while settled_by is None or time.perf_counter() < settled_by:
            segment = pauses.checkpoint()
            began = time.perf_counter()
            for monitor, transport in self.members:
                self.guard.sample()
                observations = monitor.poll(transport)
                now = time.perf_counter()
                self.polls += 1
                for observation in observations:
                    n = self.by_name.get(observation.dns_names[0])
                    if n is None:
                        continue
                    self.seen[n].add(monitor.name)
                    if self.detect_ms[n] == MISSED:
                        self.detect_ms[n] = self.submitter.since_due(n)
            if segment is not None:
                self.round_rates.append((segment, len(self.members) / (now - began)))
            if done.is_set():
                if self._complete():
                    return
                settled_by = settled_by or time.perf_counter() + SETTLE_S

    def _complete(self) -> bool:
        return all(self.seen[n] >= want for n, want in self.expected.items())

    def check(self, accepted: Set[int]) -> None:
        findings = [f for monitor, _ in self.members for f in monitor.findings]
        checks.require(not findings, f"monitor findings: {findings[:3]}")
        missed = sum(
            len(want - self.seen[n]) for n, want in self.expected.items() if n in accepted
        )
        checks.require(missed == 0, f"monitors missed {missed} subscribed entries")

    def stats(self) -> Dict[str, float]:
        wire = [monitor.wire_stats() for monitor, _ in self.members]
        return {
            "polls": self.polls,
            "requests": sum(w["requests"] for w in wire),
            "bytes": sum(w["bytes"] for w in wire),
            "bodies": sum(w["entries"] for w in wire),
            "matched": sum(monitor.entries_matched for monitor, _ in self.members),
            "findings": sum(len(monitor.findings) for monitor, _ in self.members),
        }


def measure(inp: inputs.IngestInputs, trace_path: Optional[Path] = None) -> Measurement:
    spec = {
        "logs": (inp.log,),
        "merge_interval": inp.merge_interval,
        "max_batch": inp.max_batch,
    }
    session = Session(spec, lambda url: LogClient(url).get_sth())
    server = session.start(trace_path)
    guard = Guard()
    try:
        pauses = _Pauses()
        submitter = _Submitter(inp, server, guard, pauses)
        swarm = _Swarm(inp, server.url, guard, submitter)
        done = threading.Event()

        def work(role: int) -> None:
            if role == 0:
                try:
                    submitter.run()
                finally:
                    done.set()
                    pauses.resume(None, 0.0)
            else:
                try:
                    swarm.run(pauses, done)
                finally:
                    pauses.swarm_exited()

        run_threads(work, MIN_NPROC)
        stats = server.stop()
    finally:
        server.close()
    submitter.check()
    swarm.check(set(submitter.accepted))

    factors = submitter.factors()
    per = inp.per_segment
    sct = [ms * factors[n // per] for n, ms in enumerate(submitter.sct_ms)]
    tail = tail_percentile(len(sct))
    e2e = {
        "setup_s": median(session.setup_s),
        "peak_rss_mb": (stats["rss_kb"] + generator_rss_kb()) / 1024.0,
        "p50_ms": median(sct),
        "outcome_p50_ms": median(swarm.detect_ms),
        "ops_per_s": median([rate / factors[j] for j, rate in swarm.round_rates]),
    }
    late = percentile(submitter.late_ms, 99.0)
    monitor = swarm.stats()
    return Measurement(
        e2e=e2e,
        info={
            "sct_p50_ms": e2e["p50_ms"],
            "sct_tail_ms": percentile(sct, tail),
            "sct_tail_pct": tail,
            "inclusion_p50_ms": median(submitter.included_ms),
            "detect_p50_ms": e2e["outcome_p50_ms"],
            "monitor_polls_per_s": e2e["ops_per_s"],
            "submissions": len(sct),
            "submit_rate_per_s": inputs.INGEST_RATE,
            "monitors": len(inp.monitors),
            "host_factor": median(factors),
        },
        attempted=submitter.attempted + monitor["polls"],
        failed=submitter.failed,
        violations=guard.violations(late, submitter.backlog_max),
        loadgen={
            "late_p99_ms": late,
            "backlog_max": submitter.backlog_max,
            "threads_max": guard.threads_max,
            "conns_max": guard.conns_max,
        },
        server_stats=stats,
        wire={
            "requests": submitter.client.requests + monitor["requests"],
            "bytes": submitter.client.bytes_received + monitor["bytes"],
        },
        monitor=monitor,
    )
