"""Spans and exact counts around the program's public functions.

The traced run wraps, from this file only, the layer boundaries named
in :mod:`perfbench.metrics` — in the server process
(:func:`install_server`) and in the generator (:func:`install_client`).
Each wrapped call records one span (name, start, end, span id, parent
span id) in memory; hot helpers such as ``node_hash`` record a count
only.  :meth:`Tracer.write` puts the spans on disk when the run ends,
and :meth:`Tracer.summary` folds them into per-name call counts and
total time.  The untraced run installs nothing.
"""

from __future__ import annotations

import functools
import http.client
import inspect
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[str, int, int, int, int]  # name, start ns, end ns, id, parent id


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.counts: Dict[str, int] = {}
        self._patched: List[Tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------

    def _replace(self, owner: object, attr: str, make: Callable) -> None:
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            replacement: object = type(raw)(make(raw.__func__))
        else:
            replacement = make(raw)
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def span(
        self,
        owner: object,
        attr: str,
        name: str,
        rename: Optional[Callable[[object], str]] = None,
    ) -> None:
        """Record a span per call of ``owner.attr``.

        ``rename`` names the span from the call's result (the server's
        endpoint label is only known once the request is routed).
        """
        spans, ids, local = self.spans, self._ids, self._local

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                stack = getattr(local, "stack", None)
                if stack is None:
                    stack = local.stack = []
                span_id = next(ids)
                parent = stack[-1] if stack else 0
                stack.append(span_id)
                start = time.perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    stack.pop()
                    spans.append(
                        (name + ".error", start, time.perf_counter_ns(), span_id, parent)
                    )
                    raise
                end = time.perf_counter_ns()
                stack.pop()
                spans.append(
                    (rename(result) if rename else name, start, end, span_id, parent)
                )
                return result

            return wrapper

        self._replace(owner, attr, make)

    def count(self, owner: object, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` exactly, without a span."""
        counts, lock = self.counts, self._lock
        counts.setdefault(name, 0)

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with lock:
                    counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        self._replace(owner, attr, make)

    def restore(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # -- output --------------------------------------------------------------

    def summary(self) -> Dict[str, List[float]]:
        """``{span name: [calls, total ms]}`` plus ``{count: [calls, 0]}``."""
        out: Dict[str, List[float]] = {}
        for name, start, end, _, _ in self.spans:
            slot = out.setdefault(name, [0, 0.0])
            slot[0] += 1
            slot[1] += (end - start) / 1e6
        for name, value in self.counts.items():
            out[name] = [value, 0.0]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, span_id, parent in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end,
                         "id": span_id, "parent": parent}
                    )
                    + "\n"
                )
            handle.write(json.dumps({"counts": self.counts}) + "\n")


def _install_common(tracer: Tracer) -> None:
    from repro.ct import merkle
    from repro.x509 import crypto

    tracer.count(merkle, "node_hash", "ct.merkle.node_hashes")
    tracer.span(crypto, "sign", "x509.crypto.sign")
    tracer.span(crypto, "verify", "x509.crypto.verify")


def install_server(tracer: Tracer) -> None:
    """Wrap the serving side: HTTP handler, Merkle, sequencer, log, RSA."""
    from repro.ct import log, merkle, sequencer, server

    _install_common(tracer)
    tracer.span(
        server.LogServer,
        "handle_request",
        "ct.server.handle",
        rename=lambda result: f"ct.server.handle.{result[2]}",
    )
    tracer.span(server, "entry_to_wire", "ct.server.entry_to_wire")
    tracer.span(merkle.MerkleTree, "inclusion_proof", "ct.merkle.inclusion_proof")
    tracer.span(merkle.MerkleTree, "consistency_proof", "ct.merkle.consistency_proof")
    tracer.span(merkle.MerkleTree, "append_many", "ct.merkle.append_many")
    tracer.span(sequencer.LogSequencer, "submit_pre_chain", "ct.sequencer.submit")
    tracer.span(sequencer.LogSequencer, "merge", "ct.sequencer.merge")
    tracer.span(log.CTLog, "sign_sct", "ct.log.sign_sct")
    tracer.span(log.CTLog, "batch_digest", "ct.log.batch_digest")


#: LogClient method -> endpoint it calls.
CLIENT_CALLS = {
    "get_sth": "get-sth",
    "get_entries": "get-entries",
    "get_proof_by_hash": "get-proof-by-hash",
    "get_sth_consistency": "get-sth-consistency",
    "get_batch_digest": "get-batch-digest",
    "add_pre_chain": "add-pre-chain",
}


def install_client(tracer: Tracer) -> None:
    """Wrap the generator side: client calls, verifiers, monitor, dataset."""
    import repro.dataset
    from repro.ct import merkle, monitor, server
    from repro.dataset import corpus

    _install_common(tracer)
    for method, endpoint in CLIENT_CALLS.items():
        tracer.span(server.LogClient, method, f"ct.server.client.{endpoint}")
    tracer.count(http.client.HTTPConnection, "connect", "ct.server.connects")
    tracer.span(server, "entry_from_wire", "ct.server.entry_from_wire")
    # The monitor imported the verifiers by name; wrap both bindings.
    for owner in (merkle, monitor):
        tracer.span(owner, "verify_inclusion_proof", "ct.merkle.verify")
        tracer.span(owner, "verify_consistency_proof", "ct.merkle.verify")
    tracer.span(monitor.LightweightMonitor, "poll", "ct.monitor.poll")
    tracer.span(corpus.CertCorpus, "from_logs", "dataset.corpus_build")
    tracer.span(repro.dataset, "analyze_corpus", "dataset.analyze")


def merge_summaries(*summaries: Dict[str, List[float]]) -> Dict[str, List[float]]:
    out: Dict[str, List[float]] = {}
    for summary in summaries:
        for name, (calls, total) in summary.items():
            slot = out.setdefault(name, [0, 0.0])
            slot[0] += calls
            slot[1] += total
    return out
