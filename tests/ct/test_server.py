"""Unit tests for the RFC 6962 HTTP front end.

Most tests drive :meth:`repro.ct.server.LogServer.handle_request`
directly — routing, parameter validation, error mapping, memoization,
and the request-logging middleware — so the boundary behaviour is
pinned without binding a port.  The last section pins the connection
model on real sockets: one keep-alive connection per client thread,
the single retry on a stale connection, strict ``Content-Length``
framing, and ``stop()`` closing live connections.  The rest of the
live-socket behaviour (concurrency, harvest parity) lives in
``tests/integration/test_log_server_live.py``.
"""

import base64
import itertools
import json
import multiprocessing
import socket
import threading
import time
from datetime import timedelta
from http.client import HTTPConnection
from urllib.parse import urlsplit

import pytest

from repro.ct import server as server_mod
from repro.ct.log import CTLog, SignedTreeHead
from repro.ct.merkle import (
    EMPTY_TREE_HASH,
    leaf_hash,
    verify_consistency_proof,
    verify_inclusion_proof,
)
from repro.ct.sequencer import LogSequencer
from repro.ct.server import (
    LogClient,
    LogClientError,
    LogServer,
    entry_from_wire,
    entry_to_wire,
    log_slug,
)
from repro.obs import EventLog, MetricsRegistry
from repro.util.timeutil import utc_datetime
from repro.x509 import crypto
from repro.x509.ca import CertificateAuthority, IssuanceRequest

NOW = utc_datetime(2018, 5, 1, 12, 0)


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def make_log(name="Unit Log", entries=5, **kwargs):
    log = CTLog(
        name=name,
        operator="Unit",
        key=crypto.KeyPair.generate(f"unit:{name}", 256),
        **kwargs,
    )
    ca = CertificateAuthority(f"Unit CA {name}", key_bits=256)
    for i in range(entries):
        ca.issue(
            IssuanceRequest((f"e{i}.{log_slug(name)}.example",)),
            [log],
            NOW + timedelta(seconds=i),
        )
    return log


def make_precerts(count, tag="sub"):
    """Distinct precertificates (issued into a scratch log) + key hash."""
    ca = CertificateAuthority(f"Submit CA {tag}", key_bits=256)
    scratch = CTLog(
        name=f"scratch-{tag}",
        operator="Unit",
        key=crypto.KeyPair.generate(f"scratch:{tag}", 256),
    )
    precerts = []
    for i in range(count):
        pair = ca.issue(
            IssuanceRequest((f"p{i}.{tag}.example",)), [scratch], NOW
        )
        precerts.append(pair.precertificate)
    return precerts, ca.issuer_key_hash


def submit_body(precert, issuer_key_hash):
    from repro.ct.storage import certificate_to_dict

    return json.dumps(
        {
            "chain": [certificate_to_dict(precert)],
            "issuer_key_hash": _b64(issuer_key_hash),
        }
    ).encode()


def get(server, path, query=""):
    return server.handle_request("GET", path, query, b"")


def assert_json_error(result, status):
    got_status, payload, _ = result
    assert got_status == status
    assert payload["code"] == status
    assert isinstance(payload["error"], str) and payload["error"]
    json.dumps(payload)  # always serialisable


# -- slugs and wire format ---------------------------------------------------


def test_log_slug():
    assert log_slug("Google Pilot log") == "google-pilot-log"
    assert log_slug("  DigiCert Log Server 2 ") == "digicert-log-server-2"
    with pytest.raises(ValueError):
        log_slug("!!!")


def test_entry_wire_round_trip():
    log = make_log(entries=3)
    for entry in log.entries:
        back = entry_from_wire(entry_to_wire(entry))
        assert back == entry


# -- mounting ----------------------------------------------------------------


def test_single_log_mounts_bare_and_slugged():
    log = make_log()
    server = LogServer(log, clock=lambda: NOW)
    for path in ("/ct/v1/get-sth", f"/{log_slug(log.name)}/ct/v1/get-sth"):
        status, payload, endpoint = get(server, path)
        assert status == 200
        assert payload["tree_size"] == 5
        assert endpoint == "get-sth"


def test_multi_log_requires_slug_prefix():
    logs = [make_log("Alpha Log", 2), make_log("Beta Log", 3)]
    server = LogServer(logs, clock=lambda: NOW)
    assert server.slugs == ["alpha-log", "beta-log"]
    assert_json_error(get(server, "/ct/v1/get-sth"), 404)
    status, payload, _ = get(server, "/beta-log/ct/v1/get-sth")
    assert status == 200 and payload["tree_size"] == 3


def test_duplicate_slug_rejected():
    with pytest.raises(ValueError, match="duplicate log slug"):
        LogServer([make_log("Same Name"), make_log("same name")])


def test_index_lists_served_logs():
    server = LogServer([make_log("Alpha Log", 2)], clock=lambda: NOW)
    status, payload, endpoint = get(server, "/")
    assert status == 200 and endpoint == "index"
    assert payload == {
        "logs": [
            {
                "slug": "alpha-log",
                "name": "Alpha Log",
                "operator": "Unit",
                "tree_size": 2,
                "disqualified": False,
                "url": "/alpha-log",
            }
        ]
    }


def test_log_url_requires_started_server_and_known_name():
    server = LogServer(make_log())
    with pytest.raises(KeyError):
        server.log_url("No Such Log")


def test_unknown_route_and_endpoint_are_404():
    server = LogServer(make_log(), clock=lambda: NOW)
    assert_json_error(get(server, "/nope"), 404)
    assert_json_error(get(server, "/unit-log/ct/v1/get-nothing"), 404)


def test_wrong_method_is_405():
    server = LogServer(make_log(), clock=lambda: NOW)
    assert_json_error(
        server.handle_request("POST", "/ct/v1/get-sth", "", b""), 405
    )
    assert_json_error(
        server.handle_request("GET", "/ct/v1/add-pre-chain", "", b""), 405
    )
    assert_json_error(server.handle_request("POST", "/", "", b""), 405)


# -- get-sth -----------------------------------------------------------------


def test_get_sth_signature_verifies():
    log = make_log()
    server = LogServer(log, clock=lambda: NOW)
    _, payload, _ = get(server, "/ct/v1/get-sth")
    root = base64.b64decode(payload["sha256_root_hash"])
    assert root == log.tree.root()
    covered = SignedTreeHead.signed_payload(
        payload["tree_size"], payload["timestamp"], root
    )
    assert crypto.verify(
        log.key, covered, base64.b64decode(payload["tree_head_signature"])
    )


def test_get_sth_of_empty_log_is_valid_tree_size_zero():
    server = LogServer(make_log(entries=0), clock=lambda: NOW)
    status, payload, _ = get(server, "/ct/v1/get-sth")
    assert status == 200
    assert payload["tree_size"] == 0
    assert base64.b64decode(payload["sha256_root_hash"]) == EMPTY_TREE_HASH


# -- get-entries boundaries --------------------------------------------------


def test_get_entries_happy_path_round_trips():
    log = make_log()
    server = LogServer(log, clock=lambda: NOW)
    status, payload, _ = get(server, "/ct/v1/get-entries", "start=1&end=3")
    assert status == 200
    entries = [entry_from_wire(el) for el in payload["entries"]]
    assert entries == log.entries[1:4]


def test_get_entries_empty_log_is_400():
    server = LogServer(make_log(entries=0), clock=lambda: NOW)
    assert_json_error(
        get(server, "/ct/v1/get-entries", "start=0&end=0"), 400
    )


def test_get_entries_start_after_end_is_400():
    server = LogServer(make_log(), clock=lambda: NOW)
    assert_json_error(
        get(server, "/ct/v1/get-entries", "start=3&end=1"), 400
    )
    assert_json_error(
        get(server, "/ct/v1/get-entries", "start=-1&end=2"), 400
    )


def test_get_entries_start_beyond_size_is_400():
    server = LogServer(make_log(entries=5), clock=lambda: NOW)
    assert_json_error(
        get(server, "/ct/v1/get-entries", "start=5&end=9"), 400
    )


def test_get_entries_end_beyond_size_is_clamped_not_500():
    server = LogServer(make_log(entries=5), clock=lambda: NOW)
    status, payload, _ = get(
        server, "/ct/v1/get-entries", "start=3&end=100000"
    )
    assert status == 200
    assert len(payload["entries"]) == 2  # entries 3 and 4


def test_get_entries_respects_page_limit():
    server = LogServer(make_log(entries=5), clock=lambda: NOW, page_limit=2)
    status, payload, _ = get(server, "/ct/v1/get-entries", "start=0&end=4")
    assert status == 200
    assert len(payload["entries"]) == 2  # clamped to the serving limit


def test_get_entries_malformed_params_are_400():
    server = LogServer(make_log(), clock=lambda: NOW)
    assert_json_error(get(server, "/ct/v1/get-entries", "start=0"), 400)
    assert_json_error(
        get(server, "/ct/v1/get-entries", "start=zero&end=4"), 400
    )
    assert_json_error(get(server, "/ct/v1/get-entries", ""), 400)


# -- get-proof-by-hash boundaries --------------------------------------------


def test_get_proof_by_hash_verifies():
    log = make_log()
    server = LogServer(log, clock=lambda: NOW)
    leaf = log.entries[2].leaf_input
    status, payload, _ = get(
        server,
        "/ct/v1/get-proof-by-hash",
        f"hash={_b64(leaf_hash(leaf)).replace('+', '%2B').replace('/', '%2F')}"
        "&tree_size=5",
    )
    assert status == 200
    assert payload["leaf_index"] == 2
    path = [base64.b64decode(node) for node in payload["audit_path"]]
    assert verify_inclusion_proof(leaf, 2, 5, path, log.tree.root())


def test_get_proof_by_hash_invalid_base64_is_400():
    server = LogServer(make_log(), clock=lambda: NOW)
    assert_json_error(
        get(server, "/ct/v1/get-proof-by-hash", "hash=%%%&tree_size=5"), 400
    )


def test_get_proof_by_hash_unknown_hash_is_404():
    server = LogServer(make_log(), clock=lambda: NOW)
    missing = _b64(leaf_hash(b"never appended"))
    assert_json_error(
        get(
            server,
            "/ct/v1/get-proof-by-hash",
            f"hash={missing.replace('+', '%2B').replace('/', '%2F')}"
            "&tree_size=5",
        ),
        404,
    )


def test_get_proof_by_hash_bad_tree_size_is_400():
    log = make_log(entries=5)
    server = LogServer(log, clock=lambda: NOW)
    digest = _b64(leaf_hash(log.entries[0].leaf_input))
    quoted = digest.replace("+", "%2B").replace("/", "%2F")
    for tree_size in (0, -1, 6):
        assert_json_error(
            get(
                server,
                "/ct/v1/get-proof-by-hash",
                f"hash={quoted}&tree_size={tree_size}",
            ),
            400,
        )


def test_get_proof_by_hash_leaf_outside_prefix_is_400():
    log = make_log(entries=5)
    server = LogServer(log, clock=lambda: NOW)
    digest = _b64(leaf_hash(log.entries[4].leaf_input))
    quoted = digest.replace("+", "%2B").replace("/", "%2F")
    assert_json_error(
        get(
            server,
            "/ct/v1/get-proof-by-hash",
            f"hash={quoted}&tree_size=3",
        ),
        400,
    )


# -- get-sth-consistency boundaries ------------------------------------------


def test_get_consistency_verifies():
    log = make_log(entries=5)
    server = LogServer(log, clock=lambda: NOW)
    status, payload, _ = get(
        server, "/ct/v1/get-sth-consistency", "first=2&second=5"
    )
    assert status == 200
    proof = [base64.b64decode(node) for node in payload["consistency"]]
    assert verify_consistency_proof(
        2, 5, log.tree.root(2), log.tree.root(5), proof
    )


def test_get_consistency_invalid_ranges_are_400():
    server = LogServer(make_log(entries=5), clock=lambda: NOW)
    for query in ("first=3&second=2", "first=-1&second=2", "first=0&second=6"):
        assert_json_error(
            get(server, "/ct/v1/get-sth-consistency", query), 400
        )


# -- add-pre-chain -----------------------------------------------------------


def test_add_pre_chain_returns_verifiable_sct():
    log = make_log(entries=1)
    server = LogServer(log, clock=lambda: NOW)
    (precert,), issuer_key_hash = make_precerts(1, "ok")
    status, payload, _ = server.handle_request(
        "POST",
        "/ct/v1/add-pre-chain",
        "",
        submit_body(precert, issuer_key_hash),
    )
    assert status == 200
    assert set(payload) == {
        "sct_version", "id", "timestamp", "extensions", "signature"
    }
    assert base64.b64decode(payload["id"]) == log.log_id
    assert log.size == 2  # appended for real


def test_add_pre_chain_malformed_bodies_are_400():
    server = LogServer(make_log(entries=1), clock=lambda: NOW)
    (precert,), ikh = make_precerts(1, "bad")
    from repro.ct.storage import certificate_to_dict

    bodies = [
        b"not json",
        json.dumps([1, 2]).encode(),
        json.dumps({"chain": []}).encode(),
        json.dumps({"chain": [{"bogus": 1}], "issuer_key_hash": "AA=="}).encode(),
        json.dumps(
            {"chain": [certificate_to_dict(precert)]}  # missing key hash
        ).encode(),
        json.dumps(
            {
                "chain": [certificate_to_dict(precert)],
                "issuer_key_hash": "!!!not-base64!!!",
            }
        ).encode(),
    ]
    bodies.append(
        json.dumps(
            {"chain": [certificate_to_dict(precert)], "issuer_key_hash": 12345}
        ).encode()  # wrong type entirely
    )
    for body in bodies:
        assert_json_error(
            server.handle_request("POST", "/ct/v1/add-pre-chain", "", body),
            400,
        )


def test_add_pre_chain_final_certificate_is_400():
    """A non-poisoned (final) certificate is a ValueError -> 400."""
    log = make_log(entries=1)
    server = LogServer(log, clock=lambda: NOW)
    ca = CertificateAuthority("Final CA", key_bits=256)
    pair = ca.issue(IssuanceRequest(("final.example",)), [], NOW)
    assert pair.precertificate is None
    assert_json_error(
        server.handle_request(
            "POST",
            "/ct/v1/add-pre-chain",
            "",
            submit_body(pair.final_certificate, ca.issuer_key_hash),
        ),
        400,
    )


def test_add_pre_chain_overload_is_429():
    log = make_log(entries=0, capacity_per_day=2, strict_capacity=True)
    server = LogServer(log, clock=lambda: NOW)
    precerts, ikh = make_precerts(3, "overload")
    statuses = [
        server.handle_request(
            "POST", "/ct/v1/add-pre-chain", "", submit_body(p, ikh)
        )[0]
        for p in precerts
    ]
    assert statuses == [200, 200, 429]
    assert log.size == 2


def test_disqualified_log_is_410():
    log = make_log(entries=1)
    log.disqualify()
    server = LogServer(log, clock=lambda: NOW)
    (precert,), ikh = make_precerts(1, "gone")
    assert_json_error(
        server.handle_request(
            "POST", "/ct/v1/add-pre-chain", "", submit_body(precert, ikh)
        ),
        410,
    )


# -- memoization -------------------------------------------------------------


def test_sth_memoized_per_tree_size():
    log = make_log(entries=2)
    server = LogServer(log, clock=lambda: NOW)
    slug = log_slug(log.name)
    first = get(server, "/ct/v1/get-sth")[1]
    second = get(server, "/ct/v1/get-sth")[1]
    assert first is second  # same cached body, one signature
    stats = server.memo_stats()[slug]
    assert stats == {"hits": 1, "misses": 1, "lookups": 2, "hit_rate": 0.5}

    (precert,), ikh = make_precerts(1, "grow")
    server.handle_request(
        "POST", "/ct/v1/add-pre-chain", "", submit_body(precert, ikh)
    )
    third = get(server, "/ct/v1/get-sth")[1]
    assert third["tree_size"] == 3  # re-signed after growth
    assert server.memo_stats()[slug]["misses"] == 2


def test_proof_and_entries_pages_are_memoized():
    log = make_log(entries=5)
    server = LogServer(log, clock=lambda: NOW)
    slug = log_slug(log.name)
    for _ in range(3):
        assert get(server, "/ct/v1/get-entries", "start=0&end=4")[0] == 200
        assert (
            get(server, "/ct/v1/get-sth-consistency", "first=2&second=5")[0]
            == 200
        )
    stats = server.memo_stats()[slug]
    assert stats["misses"] == 2  # one per distinct key
    assert stats["hits"] == 4
    assert stats["lookups"] == 6
    assert stats["hit_rate"] == pytest.approx(4 / 6)


def test_memo_stats_before_any_request_has_zero_hit_rate():
    """Scraping a fresh server's stats must not divide by zero."""
    server = LogServer(make_log(entries=3), clock=lambda: NOW)
    stats = server.memo_stats()[log_slug("Unit Log")]
    assert stats == {"hits": 0, "misses": 0, "lookups": 0, "hit_rate": 0.0}


def test_invalid_requests_never_touch_the_memo():
    """Junk ranges can't skew hit rates or evict cached pages."""
    log = make_log(entries=5)
    server = LogServer(log, clock=lambda: NOW)
    slug = log_slug(log.name)
    served = server._served[slug]

    # Warm one legitimate page into the cache.
    assert get(server, "/ct/v1/get-entries", "start=0&end=4")[0] == 200
    warmed = server.memo_stats()[slug]
    assert ("entries", 0, 4) in served.memo

    for query in (
        "start=-1&end=4",        # negative start
        "start=9&end=2",         # start after end
        "start=99&end=104",      # start beyond tree size
        "start=zero&end=4",      # non-integer
        "end=4",                 # missing parameter
    ):
        assert get(server, "/ct/v1/get-entries", query)[0] == 400
    empty = LogServer(make_log(name="Empty", entries=0), clock=lambda: NOW)
    assert get(empty, "/ct/v1/get-entries", "start=0&end=0")[0] == 400

    assert server.memo_stats()[slug] == warmed  # not a single lookup
    assert empty.memo_stats()[log_slug("Empty")]["lookups"] == 0
    assert ("entries", 0, 4) in served.memo  # nothing evicted
    assert len(served.memo) == 1


# -- harvest pinned to the fetched STH ---------------------------------------


class _OveransweringClient:
    """A replica that answers ``get-entries`` past the requested range.

    Duck-types the two :class:`~repro.ct.server.LogClient` methods
    :func:`harvest_log` uses; the STH is pinned at issuance time while
    the backing log keeps growing, so every page call can over-answer
    beyond the verified tree head.
    """

    def __init__(self, log, sth):
        self.log = log
        self.sth = sth

    def get_sth(self):
        return self.sth

    def get_entries(self, start, end):
        # Ignore ``end`` entirely: hand out everything from ``start``.
        return self.log.get_entries(start, self.log.size - 1)


def _pinned_sth(log):
    sth = log.get_sth(NOW)
    return {
        "tree_size": sth.tree_size,
        "sha256_root_hash": _b64(sth.root_hash),
    }


def test_harvest_truncates_pages_beyond_the_pinned_sth():
    from repro.ct.server import harvest_log

    log = make_log(entries=6)
    sth = _pinned_sth(log)  # pin at size 6...
    ca = CertificateAuthority("Unit CA Unit Log", key_bits=256)
    for i in range(4):  # ...then the log grows underneath the harvest
        ca.issue(IssuanceRequest((f"late{i}.example",)), [log], NOW)
    assert log.size == 10

    from repro.dataset import LiveAnalytics

    live = LiveAnalytics()
    replica = harvest_log(
        _OveransweringClient(log, sth), page_size=4, analytics=live
    )
    assert replica.size == 6
    assert [entry.index for entry in replica.entries] == list(range(6))
    # The analytics fold saw only the verified window, nothing more.
    assert live.records_folded == 6


# -- middleware --------------------------------------------------------------


def test_middleware_records_metrics_and_events():
    metrics = MetricsRegistry()
    events = EventLog(clock=lambda: 1525.0)
    server = LogServer(
        make_log(entries=3), clock=lambda: NOW, metrics=metrics, events=events
    )
    get(server, "/ct/v1/get-sth")
    get(server, "/ct/v1/get-entries", "start=9&end=9")  # 400
    get(server, "/nope")  # 404 before routing

    snapshot = metrics.snapshot()
    assert snapshot.counters[
        "log_server.responses{endpoint=get-sth,status=200}"
    ] == 1
    assert snapshot.counters[
        "log_server.responses{endpoint=get-entries,status=400}"
    ] == 1
    assert snapshot.counters[
        "log_server.responses{endpoint=unknown,status=404}"
    ] == 1
    histogram_keys = [
        key
        for key in snapshot.histograms
        if key.startswith("log_server.request_seconds")
    ]
    assert any("endpoint=get-sth" in key for key in histogram_keys)

    kinds = [record["kind"] for record in events.tail(10)]
    assert kinds == ["log_server_request"] * 3
    statuses = [record["status"] for record in events.tail(10)]
    assert statuses == [200, 400, 404]
    assert events.tail(10)[0]["log"] == "unit-log"


# -- connection model (real sockets) -----------------------------------------


@pytest.fixture()
def connects(monkeypatch):
    """Counts ``HTTPConnection.connect`` calls, from a clean thread slot."""
    server_mod._drop_connection()
    count = [0]
    real = HTTPConnection.connect

    def counting(self):
        count[0] += 1
        real(self)

    monkeypatch.setattr(HTTPConnection, "connect", counting)
    yield count
    server_mod._drop_connection()


def open_connections(server):
    """Connections the server has accepted and not yet closed."""
    httpd = server._handle._httpd
    with httpd._conns_lock:
        return len(httpd._conns)


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.01)


def test_client_needs_an_http_url():
    for url in ("https://127.0.0.1:1", "127.0.0.1:1", "http:///path"):
        with pytest.raises(ValueError):
            LogClient(url)


def test_clients_on_one_thread_share_one_connection(connects):
    with LogServer(make_log(entries=3), clock=lambda: NOW) as server:
        clients = [
            LogClient(server.url, client_id=f"monitor-{i}") for i in range(12)
        ]
        for client in clients:
            assert client.get_sth()["tree_size"] == 3
        assert connects[0] == 1
        assert open_connections(server) == 1
        assert [client.requests for client in clients] == [1] * 12


def test_shared_connection_takes_each_clients_timeout(connects):
    with LogServer(make_log(entries=1), clock=lambda: NOW) as server:
        for timeout in (10.0, 2.5, 10.0):
            LogClient(server.url, timeout=timeout).get_sth()
            sock = server_mod._thread_conn.slot.conn.sock
            assert sock.gettimeout() == timeout
        assert connects[0] == 1


def test_calls_on_one_thread_cost_one_connect(connects):
    log = make_log(entries=6)
    with LogServer(log, clock=lambda: NOW) as server:
        client = LogClient(server.url)
        for _ in range(5):
            client.get_sth()
            assert len(client.get_entries(0, 5)) == 6
            client.get_proof_by_hash(leaf_hash(log.entries[2].leaf_input), 6)
            client.get_sth_consistency(2, 6)
        assert client.requests == 20
        assert connects[0] == 1


def _child_call(url, results):
    try:
        LogClient(url).get_sth()
        slot = server_mod._thread_conn.slot
        results.send((slot.pid, slot.conn.sock.getsockname(), None))
    except Exception as exc:  # reported to the parent
        results.send((None, None, repr(exc)))


def test_forked_child_never_reuses_parent_connection(connects):
    fork = multiprocessing.get_context("fork")
    with LogServer(make_log(entries=2), clock=lambda: NOW) as server:
        client = LogClient(server.url)
        client.get_sth()
        parent_conn = server_mod._thread_conn.slot.conn
        parent_addr = parent_conn.sock.getsockname()
        receiver, sender = fork.Pipe(duplex=False)
        child = fork.Process(target=_child_call, args=(server.url, sender))
        child.start()
        assert receiver.poll(10), "child sent no result"
        child_pid, child_addr, error = receiver.recv()
        child.join(10)
        assert not child.is_alive()
        assert error is None
        assert child_pid == child.pid
        assert child_addr != parent_addr
        # The parent's connection is untouched by the child.
        client.get_sth()
        assert server_mod._thread_conn.slot.conn is parent_conn
        assert parent_conn.sock.getsockname() == parent_addr
        assert connects[0] == 1
        wait_until(lambda: open_connections(server) == 1)


def test_idle_connection_closed_by_server_is_replaced(connects, monkeypatch):
    monkeypatch.setattr(server_mod._LogServerHandler, "timeout", 0.2)
    with LogServer(make_log(entries=2), clock=lambda: NOW) as server:
        client = LogClient(server.url)
        client.get_sth()
        wait_until(lambda: open_connections(server) == 0)
        assert client.get_sth()["tree_size"] == 2
        assert client.requests == 2
        assert connects[0] == 2


@pytest.mark.parametrize("sequenced", [False, True])
def test_retried_add_pre_chain_dedups_to_the_same_sct(
    connects, monkeypatch, sequenced
):
    """The server signs, then drops the connection before answering."""
    log = make_log(entries=1)
    mount = LogSequencer(log) if sequenced else log
    signed = []
    real = server_mod._LogServerHandler._dispatch

    def drop_first_post(self, method):
        if method == "POST" and not signed:
            body = self.rfile.read(int(self.headers["Content-Length"]))
            parts = urlsplit(self.path)
            signed.append(
                self.server.owner.handle_request(
                    method, parts.path, parts.query, body
                )
            )
            self.close_connection = True  # vanish without a response
            return
        real(self, method)

    monkeypatch.setattr(
        server_mod._LogServerHandler, "_dispatch", drop_first_post
    )
    (precert,), ikh = make_precerts(1, f"retry-{sequenced}")
    with LogServer(mount, clock=lambda: NOW) as server:
        client = LogClient(server.url)
        client.get_sth()  # the submission rides a reused connection
        sct = client.add_pre_chain(precert, ikh)
        if sequenced:
            mount.drain()
    status, first, _ = signed[0]
    assert status == 200
    assert _b64(sct.signature) == first["signature"]
    assert sct.timestamp_ms == first["timestamp"]
    assert log.size == 2
    assert client.requests == 2
    assert connects[0] == 2


PRECERTS, IKH = make_precerts(2, "keepalive-429")


@pytest.mark.parametrize(
    "call, status",
    [
        (lambda c: c.get_proof_by_hash(b"\0" * 32, 2), 404),
        (lambda c: c.get_entries(9, 2), 400),
        (lambda c: [c.add_pre_chain(p, IKH) for p in PRECERTS], 429),
    ],
    ids=["404", "400", "429"],
)
def test_error_answers_keep_the_connection_usable(connects, call, status):
    log = make_log(entries=2, capacity_per_day=3, strict_capacity=True)
    with LogServer(log, clock=lambda: NOW) as server:
        client = LogClient(server.url)
        client.get_sth()
        with pytest.raises(LogClientError) as excinfo:
            call(client)
        assert excinfo.value.status == status
        assert excinfo.value.body["code"] == status
        assert client.get_sth()["tree_size"] == log.size
        assert connects[0] == 1


def _raw_exchange(server, request):
    """Send raw request bytes; everything the server sends before closing."""
    with socket.create_connection((server.host, server.port), timeout=5) as sock:
        sock.sendall(request)
        raw = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return raw
            raw += chunk


def _raw_post(server, content_length):
    """POST with a raw ``Content-Length``; (status, headers, JSON body)."""
    raw = _raw_exchange(
        server,
        b"POST /ct/v1/add-pre-chain HTTP/1.1\r\nHost: test\r\n"
        b"Content-Length: " + content_length.encode() + b"\r\n\r\n",
    )
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines[1:])
    return int(lines[0].split()[1]), headers, json.loads(body)


@pytest.mark.parametrize(
    "content_length, status",
    [("abc", 400), ("-1", 400), ("99999999999", 413)],
)
def test_bad_content_length_gets_json_and_a_closed_connection(
    content_length, status
):
    with LogServer(make_log(entries=2), clock=lambda: NOW) as server:
        got, headers, body = _raw_post(server, content_length)
        assert got == status
        assert body["code"] == status and body["error"]
        assert headers["Connection"] == "close"
        assert headers["Content-Type"] == "application/json"
        # The server stays live.
        assert LogClient(server.url).get_sth()["tree_size"] == 2


def test_stop_closes_live_connections_and_no_sct_outlives_the_drain(connects):
    log = make_log(entries=1)
    signs = []
    lock = threading.Lock()
    real_sign = log.sign_sct

    def counting_sign(*args, **kwargs):
        with lock:
            signs.append(1)
        return real_sign(*args, **kwargs)

    log.sign_sct = counting_sign
    precerts, ikh = make_precerts(40, "stop-race")
    server = LogServer(log, clock=lambda: NOW, merge_interval=3600.0).start()
    received = []
    failure = []

    def submit():
        # Resubmissions after the first pass dedup to issued SCTs.
        client = LogClient(server.url)
        try:
            for precert in itertools.cycle(precerts):
                received.append(client.add_pre_chain(precert, ikh))
        except OSError as exc:
            failure.append(exc)

    submitter = threading.Thread(target=submit)
    submitter.start()
    wait_until(lambda: len(received) >= 3)
    # stop() must not wait on a client that keeps its connection busy.
    stopper = threading.Thread(target=server.stop)
    stopper.start()
    stopper.join(10)
    assert not stopper.is_alive()
    with lock:
        signed_at_stop = len(signs)
    submitter.join(10)
    assert not submitter.is_alive()
    # The submitter's reused connection got no answer after stop().
    assert failure
    assert len(signs) == signed_at_stop
    # Every SCT the log signed was merged by the drain.
    assert log.size == 1 + signed_at_stop
    assert len({sct.signature for sct in received}) <= signed_at_stop
    with pytest.raises(OSError):
        LogClient(server.url).get_sth()


def test_http09_request_gets_the_bare_json_body():
    with LogServer(make_log(entries=2), clock=lambda: NOW) as server:
        raw = _raw_exchange(server, b"GET /ct/v1/get-sth\r\n\r\n")
    assert json.loads(raw)["tree_size"] == 2
