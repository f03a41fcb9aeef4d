"""Load generation plumbing: the server process, loops, and self-checks.

The generator is one process using at most ``nproc`` threads (the main
thread is one of the workers) and, because every worker holds at most
one request in flight, at most ``nproc`` open connections.  The
:class:`Guard` samples both while the loops run; a run that exceeds
either, or whose open-loop lateness or backlog shows it fell behind its
schedule, is invalid and says which limit it broke.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import os
import pickle
import resource
import select
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.ct.server import LogClientError

ROOT = Path(__file__).resolve().parent.parent
#: What ``nproc`` prints: the CPUs this process may run on.
NPROC = len(os.sched_getaffinity(0))

#: A failed or refused request counts as missing every latency limit.
MISSED = math.inf
#: What a failed or refused request raises.
FAILURES = (OSError, LogClientError)

#: The generator fell behind if its lateness or backlog passes these.
LATE_P99_LIMIT_MS = 100.0
BACKLOG_LIMIT = 64

#: ``read_max_rps`` counts reads answered within this limit.
LATENCY_LIMIT_MS = 100.0

SERVER_TIMEOUT_S = 60.0
#: Server starts per run; set-up time is their median.
SETUP_STARTS = 5
PERCENTILES = (99.9, 99.5, 99.0, 97.5, 95.0, 90.0, 75.0, 50.0)


# -- statistics ---------------------------------------------------------------


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``inf`` entries sort last)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count: int) -> float:
    """The highest listed percentile with at least 10 samples beyond it."""
    for pct in PERCENTILES:
        if count * (1.0 - pct / 100.0) >= 10:
            return pct
    return 50.0


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


# -- host speed ---------------------------------------------------------------

#: What :func:`probe_ms` takes at the nominal host speed: about the
#: fast quartile of a minute of back-to-back probes on 2 vCPUs with
#: Python 3.11 (the median was 31 ms, the minimum 18.6 ms).
PROBE_NOMINAL_MS = 20.0


def probe_ms() -> float:
    """Time a fixed piece of pure-Python work: the host's speed right now.

    On a shared 2-vCPU VM the speed of one core drifts by up to 50% over
    seconds to minutes as neighbours come and go, and a slow spell can
    cover a whole run.  The probe does the kind of work the program
    does — dict and tuple churn, string formatting, SHA-256 of short
    inputs — so its time tracks that drift; the program never runs it.
    """
    began = time.perf_counter()
    table: Dict[int, int] = {}
    digest = b""
    for i in range(50_000):
        key = i % 1021
        table[key] = table.get(key, 0) + len(f"h{i}.example")
        if i % 8 == 0:
            digest = hashlib.sha256(digest + (key, i).__repr__().encode()).digest()
    return (time.perf_counter() - began) * 1e3


def probe_both_ms(server: "ServerProcess") -> float:
    """The mean probe time of the generator and the server process.

    The two probes run at the same time, so that they occupy two vCPUs
    as work that keeps both processes busy does: the vCPUs' speeds
    drift apart, and probes taken one after the other may both land on
    the faster one.
    """
    server.start_probe()
    own = probe_ms()
    return (own + server.probe_result()) / 2.0


def host_factor(before_ms: float, after_ms: float) -> float:
    """Scale for work timed between two probes, to the nominal host speed.

    A time multiplied by this reads as it would at the nominal speed; a
    rate is divided by it.  The host's drift cancels out, while a change
    to the program's own cost passes through unchanged.
    """
    return 2.0 * PROBE_NOMINAL_MS / (before_ms + after_ms)


# -- self-check ---------------------------------------------------------------


def open_sockets() -> int:
    """Sockets this process holds open (Linux ``/proc``)."""
    count = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            if os.readlink(f"/proc/self/fd/{fd}").startswith("socket:"):
                count += 1
        except OSError:
            continue
    return count


class Guard:
    """Samples the generator's threads and open connections."""

    def __init__(self) -> None:
        self.threads_max = 0
        self.conns_max = 0
        self._calls = 0

    def sample(self) -> None:
        self._calls += 1
        self.threads_max = max(self.threads_max, threading.active_count())
        if self._calls % 8 == 1:
            self.conns_max = max(self.conns_max, open_sockets())

    def violations(self, late_p99_ms: float, backlog_max: int) -> List[str]:
        broken = []
        if self.threads_max > NPROC:
            broken.append(f"threads {self.threads_max} > nproc {NPROC}")
        if self.conns_max > NPROC:
            broken.append(f"open connections {self.conns_max} > nproc {NPROC}")
        if late_p99_ms > LATE_P99_LIMIT_MS:
            broken.append(f"late_p99_ms {late_p99_ms:.1f} > {LATE_P99_LIMIT_MS}")
        if backlog_max > BACKLOG_LIMIT:
            broken.append(f"backlog_max {backlog_max} > {BACKLOG_LIMIT}")
        return broken


def run_threads(work: Callable[[int], None], workers: int) -> None:
    """Run ``work(i)`` for ``i < workers``; worker 0 is the calling thread."""
    errors: List[BaseException] = []

    def guarded(i: int) -> None:
        try:
            work(i)
        except BaseException as exc:  # re-raised in the calling thread
            errors.append(exc)

    threads = [
        threading.Thread(target=guarded, args=(i,), name=f"perfbench-{i}")
        for i in range(1, workers)
    ]
    for thread in threads:
        thread.start()
    guarded(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


# -- open and closed loops ----------------------------------------------------


@dataclass
class OpenLoopResult:
    #: Per scheduled op: latency from due time (ms, ``inf`` if failed).
    latency_ms: List[float]
    results: List[object]
    late_ms: List[float]
    backlog_max: int

    @property
    def failed(self) -> int:
        return sum(1 for value in self.latency_ms if value == MISSED)


def run_open_loop(
    dues: Sequence[float],
    execute: Callable[[int, int], object],
    guard: Guard,
) -> OpenLoopResult:
    """Send op ``i`` at ``start + dues[i]``, timing it from that moment.

    ``execute(worker, i)`` performs the op and returns what the checks need;
    an exception in :data:`FAILURES` marks the op failed.  Workers take ops
    in schedule order, so a stalled worker makes later ops late rather
    than dropping them.
    """
    count = len(dues)
    latency = [MISSED] * count
    results: List[object] = [None] * count
    late = [0.0] * count
    backlog = [0]
    cursor = iter(range(count))
    lock = threading.Lock()
    start = time.perf_counter() + 0.01

    def work(worker: int) -> None:
        while True:
            with lock:
                i = next(cursor, None)
                if i is None:
                    return
                now = time.perf_counter()
                due_now = bisect.bisect_right(dues, now - start)
                backlog[0] = max(backlog[0], due_now - i)
            due = start + dues[i]
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            began = time.perf_counter()
            late[i] = (began - due) * 1e3
            guard.sample()
            try:
                results[i] = execute(worker, i)
            except FAILURES:
                continue
            latency[i] = (time.perf_counter() - due) * 1e3

    run_threads(work, NPROC)
    return OpenLoopResult(latency, results, late, backlog[0])


@dataclass
class ClosedLoopResult:
    latency_ms: List[float]
    results: List[object]
    seconds: float
    failed: int = 0


def run_closed_loop(
    lists: Sequence[Sequence[object]],
    execute: Callable[[int, object], object],
    guard: Guard,
) -> ClosedLoopResult:
    """One back-to-back client per list; ``execute(worker, op)`` runs one op."""
    latency: List[List[float]] = [[] for _ in lists]
    results: List[List[object]] = [[] for _ in lists]

    def work(i: int) -> None:
        for op in lists[i]:
            guard.sample()
            began = time.perf_counter()
            try:
                results[i].append(execute(i, op))
            except FAILURES:
                latency[i].append(MISSED)
                continue
            latency[i].append((time.perf_counter() - began) * 1e3)

    began = time.perf_counter()
    run_threads(work, len(lists))
    seconds = time.perf_counter() - began
    flat = [value for chunk in latency for value in chunk]
    return ClosedLoopResult(
        flat,
        [value for chunk in results for value in chunk],
        seconds,
        sum(1 for value in flat if value == MISSED),
    )


# -- the server process -------------------------------------------------------


class ServerProcess:
    """One ``perfbench.server`` process serving a spec's logs."""

    def __init__(self, payload: bytes, trace_path: Optional[Path] = None) -> None:
        self.payload = payload
        self.trace_path = trace_path
        self.proc: Optional[subprocess.Popen] = None
        self.url = ""
        self._buffer = b""

    def start(self) -> str:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT), str(ROOT / "src")])
        command = [sys.executable, "-m", "perfbench.server"]
        if self.trace_path is not None:
            command += ["--trace", str(self.trace_path)]
        self.proc = subprocess.Popen(
            command,
            cwd=ROOT,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            bufsize=0,
        )
        self.proc.stdin.write(len(self.payload).to_bytes(8, "big") + self.payload)
        self.proc.stdin.flush()
        line = self._line()
        if not line.startswith("READY "):
            raise RuntimeError(f"server did not start: {line!r}")
        self.url = line.split(" ", 1)[1]
        return self.url

    def _line(self) -> str:
        deadline = time.monotonic() + SERVER_TIMEOUT_S
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise RuntimeError("server process timed out")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise RuntimeError(f"server process exited ({self.proc.poll()})")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line.decode("utf-8")

    def start_probe(self) -> None:
        """Start :func:`probe_ms` in the server process."""
        self.proc.stdin.write(b"PROBE\n")
        self.proc.stdin.flush()

    def probe_result(self) -> float:
        """Wait for the probe :meth:`start_probe` started; its time in ms."""
        line = self._line()
        if not line.startswith("PROBE "):
            raise RuntimeError(f"server did not probe: {line!r}")
        return float(line.split(" ", 1)[1])

    def stop(self) -> Dict[str, object]:
        """Stop serving; returns the server's ``STATS`` object."""
        self.proc.stdin.write(b"STOP\n")
        self.proc.stdin.flush()
        line = self._line()
        self.proc.wait(timeout=SERVER_TIMEOUT_S)
        if not line.startswith("STATS "):
            raise RuntimeError(f"server did not report stats: {line!r}")
        return json.loads(line.split(" ", 1)[1])

    def close(self) -> None:
        """Kill the process if it is still running, and reap it."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=SERVER_TIMEOUT_S)
        for pipe in (self.proc.stdin, self.proc.stdout):
            pipe.close()


@dataclass
class Session:
    """Server starts for one run, each timed until it answers.

    Each start's time is scaled to the nominal host speed
    (:func:`host_factor`) by probes taken just before and after it.

    ``spec`` is what :mod:`perfbench.server` unpickles; ``ready(url)``
    issues the first request, which ends the timed set-up.
    """

    spec: dict
    ready: Callable[[str], None]
    setup_s: List[float] = field(default_factory=list)

    def start(self, trace_path: Optional[Path] = None) -> ServerProcess:
        """Start :data:`SETUP_STARTS` servers and keep the last one."""
        payload = pickle.dumps(self.spec, protocol=pickle.HIGHEST_PROTOCOL)
        for _ in range(SETUP_STARTS - 1):
            server = self._timed_start(payload, None)
            server.stop()
            server.close()
        return self._timed_start(payload, trace_path)

    def _timed_start(self, payload: bytes, trace_path: Optional[Path]) -> ServerProcess:
        server = ServerProcess(payload, trace_path)
        before = probe_ms()
        began = time.perf_counter()
        try:
            self.ready(server.start())
        except BaseException:
            server.close()
            raise
        elapsed = time.perf_counter() - began
        self.setup_s.append(elapsed * host_factor(before, probe_ms()))
        return server


def generator_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
