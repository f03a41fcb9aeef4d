"""The log server process: mount the seeded logs and serve them.

Run as ``python -m perfbench.server [--trace PATH]`` with the
repository's ``src`` on ``PYTHONPATH``.  Protocol over the pipes:

* stdin: an 8-byte big-endian length, then a pickled ``dict`` with
  ``logs`` (:class:`perfbench.inputs.LogSpec` tuple), ``sequenced``
  (mount each log as a :class:`~repro.ct.sequencer.LogSequencer`), and
  optional ``merge_interval`` / ``max_batch`` for the MMD write path;
* stdout: ``READY <url>`` once :class:`~repro.ct.server.LogServer` is
  accepting connections;
* stdin ``PROBE``: time :func:`perfbench.harness.probe_ms` in this
  process and print ``PROBE <ms>``;
* stdin ``STOP``: stop the server (draining pending merges), then print
  ``STATS <json>`` — memo and sequencer counters, peak RSS, and with
  ``--trace`` the span summary (the spans themselves go to PATH).

The pickle comes from the generator process that spawned this one.
"""

from __future__ import annotations

import argparse
import json
import pickle
import sys
from pathlib import Path

from repro.ct.log import CTLog
from repro.ct.sequencer import LogSequencer
from repro.ct.server import LogServer

from perfbench.harness import probe_ms
from perfbench.tracing import Tracer, install_server


def peak_rss_kb() -> int:
    """This process's peak resident set (VmHWM), in KiB."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def build_server(spec: dict) -> LogServer:
    targets = []
    for log_spec in spec["logs"]:
        log = CTLog(name=log_spec.name, operator=log_spec.operator, key=log_spec.key)
        if log_spec.rows:
            log.append_batch(log_spec.rows)
        targets.append(LogSequencer(log) if spec.get("sequenced") else log)
    options = {}
    if spec.get("merge_interval") is not None:
        options = {
            "merge_interval": spec["merge_interval"],
            "max_batch": spec["max_batch"],
        }
    return LogServer(targets, **options)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=Path, default=None)
    args = parser.parse_args()
    stdin = sys.stdin.buffer
    length = int.from_bytes(stdin.read(8), "big")
    spec = pickle.loads(stdin.read(length))
    server = build_server(spec)
    tracer = None
    if args.trace is not None:
        tracer = Tracer()
        install_server(tracer)
    server.start()
    try:
        print(f"READY {server.url}", flush=True)
        command = stdin.readline().strip()
        while command == b"PROBE":
            print(f"PROBE {probe_ms()!r}", flush=True)
            command = stdin.readline().strip()
    finally:
        server.stop()
    if command != b"STOP":
        return 1
    stats = {
        "memo": server.memo_stats(),
        "sequencer": server.sequencer_stats(),
        "rss_kb": peak_rss_kb(),
        "trace": None,
    }
    if tracer is not None:
        tracer.restore()
        tracer.write(args.trace)
        stats["trace"] = tracer.summary()
    print("STATS " + json.dumps(stats), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
