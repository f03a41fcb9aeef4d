"""Seeded inputs for the three workloads.

Everything here is a pure function of its arguments (the seed, the run
length, and an input size factor the tests shrink): the same arguments
give equal inputs, down to the request schedule.  The program under
test only ever receives what these functions build — log contents
handed to the server process, and the operations the generator sends.

Certificates for the read and write workloads are built directly as
:class:`~repro.x509.certificate.Certificate` values with seeded
signature bytes: a CT log never checks the issuing CA's signature, so
paying for an RSA signature per input certificate would only slow the
benchmark's set-up.  The harvest workload instead runs the paper's
Fig 1 simulation (:class:`~repro.workloads.ca_profiles.CaLoggingWorkload`),
whose issuance pipeline is the thing that fills the logs.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from typing import Dict, List, Tuple

from repro.core.honeypot import DEFAULT_BATCHES as HONEYPOT_BATCHES
from repro.ct.log import LogEntry
from repro.ct.sct import SctEntryType, precert_signing_input
from repro.ct.sequencer import DEFAULT_MAX_BATCH
from repro.ct.server import DEFAULT_MEMO_ENTRIES
from repro.workloads.ca_profiles import (
    DEFAULT_EVOLUTION_SCALE,
    PAPER_CA_PROFILES,
    CaLoggingWorkload,
)
from repro.x509 import crypto
from repro.x509.certificate import (
    POISON_EXTENSION_OID,
    Certificate,
    Extension,
    dns_general_names,
)

from perfbench.checks import merkle_root

#: One appended row, as ``CTLog.append_batch`` takes it.
Row = Tuple[bytes, SctEntryType, Certificate, datetime]

_EPOCH = datetime(2018, 5, 1, tzinfo=timezone.utc)

#: The month of the paper's Fig 1c CA x log matrix (April 2018).
FIG1C_DAY = date(2018, 4, 15)


def busiest_log_rate(day: date = FIG1C_DAY) -> float:
    """Precertificates/s the Fig 1 CAs sent to their busiest log on ``day``.

    Real-world rates from :data:`~repro.workloads.ca_profiles.PAPER_CA_PROFILES`
    (each CA's daily rate, split over its log sets by weight); on
    :data:`FIG1C_DAY` the busiest log is Cloudflare Nimbus2018 at
    1.96M/day, about 22.7/s — the overload of the paper's §2.
    """
    per_log: Dict[str, float] = {}
    for profile in PAPER_CA_PROFILES:
        total = sum(weight for _, weight in profile.log_choices)
        for names, weight in profile.log_choices:
            for name in names:
                share = profile.rate_on(day) * weight / total
                per_log[name] = per_log.get(name, 0.0) + share
    return max(per_log.values()) / 86_400.0


#: ``ingest_monitor`` shape.  Each value's basis:
#: the CAs submit at the busiest log's real rate of Fig 1c's month, 1:1 in time;
INGEST_RATE = busiest_log_rate()
#: one light-weight monitor per domain of the paper's §6 honeypot (11,
#: A-K), each the owner of one zone and subscribed to one more;
INGEST_MONITORS = sum(count for _, count in HONEYPOT_BATCHES)
INGEST_ZONES = INGEST_MONITORS
#: the library's default batch cap;
INGEST_MAX_BATCH = DEFAULT_MAX_BATCH
#: chosen, not derived (real logs merge within a 24 h MMD): at
#: INGEST_RATE a merge folds about 6 submissions, so every merge is a
#: real batch and detection stays far inside the run;
INGEST_MERGE_INTERVAL_S = 0.25
#: chosen: a small non-empty log for the first tree head.
INGEST_SEED_ENTRIES = 64
#: chosen: the run is cut into segments of about 2 s, with a host-speed
#: probe in the pause between two segments (45 submissions each).
INGEST_SEGMENT_S = 2.0

#: ``audit_read`` shape (at scale 1).  Each value's basis:
#: four times the server memo, so most proofs miss it;
AUDIT_ENTRIES = 4 * DEFAULT_MEMO_ENTRIES
#: reads/s that ``nproc`` back-to-back clients complete with the mix
#: below — ``read_max_rps`` measured on 2 vCPUs (Python 3.11, medians
#: of two 10-seed sets of 30 s runs: 942 and 1009);
AUDIT_CAPACITY_RPS = 950.0
#: the open loop offers a fifth of that capacity, so queueing adds
#: little to a read's own service time (190 reads/s);
AUDIT_LOAD_SHARE = 0.2
AUDIT_RATE = AUDIT_LOAD_SHARE * AUDIT_CAPACITY_RPS
#: the open loop takes 0.7 s of each second, and the saturation phase
#: the reads the clients complete at capacity in the other 0.3 s;
AUDIT_OPEN_SHARE = 0.7
AUDIT_SATURATION_READS_PER_S = round((1.0 - AUDIT_OPEN_SHARE) * AUDIT_CAPACITY_RPS)
#: a page is what a monitor tailing the busiest log once a second
#: fetches: INGEST_RATE entries, rounded up to a power of two (32);
AUDIT_PAGE = 1 << math.ceil(math.log2(INGEST_RATE))
#: the workload's read mix: browsers fetch proofs and tree heads, and
#: monitors fetch pages.
AUDIT_MIX = (("get-proof-by-hash", 0.7), ("get-sth", 0.2), ("get-entries", 0.1))

#: ``harvest_analyze`` shape: the Fig 1 simulation at the scale of the
#: repo's own Fig 1 artifacts.
HARVEST_SCALE = DEFAULT_EVOLUTION_SCALE


@dataclass(frozen=True)
class LogSpec:
    """A log the server process mounts: identity, key, and rows."""

    name: str
    operator: str
    key: crypto.KeyPair
    rows: Tuple[Row, ...]


@dataclass(frozen=True)
class Op:
    """One scheduled operation: due offset (s), endpoint, arguments."""

    due: float
    kind: str
    index: int = 0


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"perfbench:{seed}:{stream}")


def _token(rng: random.Random, n: int = 6) -> str:
    return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz0123456789") for _ in range(n))


def make_precert(
    rng: random.Random, serial: int, names: Tuple[str, ...], issuer: str, when: datetime
) -> Certificate:
    """A poisoned precertificate with seeded key id and signature bytes."""
    return Certificate(
        serial=serial,
        issuer_cn=f"{issuer} CA",
        issuer_org=issuer,
        subject_cn=names[0],
        san=dns_general_names(names),
        not_before=when,
        not_after=when + timedelta(days=90),
        public_key_id=rng.randbytes(8),
        extensions=(Extension(POISON_EXTENSION_OID, critical=True),),
        signature=rng.randbytes(64),
    )


def issuer_key_hash(issuer: str) -> bytes:
    return hashlib.sha256(f"perfbench-ca:{issuer}".encode()).digest()


def _precert_rows(
    rng: random.Random, names: List[Tuple[str, ...]], issuer: str, start: datetime
) -> Tuple[Row, ...]:
    ikh = issuer_key_hash(issuer)
    rows = []
    for serial, cert_names in enumerate(names, 1):
        when = start + timedelta(seconds=serial)
        cert = make_precert(rng, serial, cert_names, issuer, when)
        rows.append(
            (precert_signing_input(cert, ikh), SctEntryType.PRECERT_ENTRY, cert, when)
        )
    return tuple(rows)


# -- audit_read ---------------------------------------------------------------


@dataclass(frozen=True)
class AuditSegment:
    """One second of ``audit_read``: an open-loop slice, then saturation."""

    #: Open-loop ops at fixed rates, due offsets from the segment start.
    schedule: Tuple[Op, ...]
    #: One back-to-back op list per closed-loop client.
    saturation: Tuple[Tuple[Op, ...], ...]


@dataclass(frozen=True)
class AuditInputs:
    log: LogSpec
    root: bytes
    page: int
    segments: Tuple[AuditSegment, ...]


def _mixed_op(rng: random.Random, due: float, size: int, page: int) -> Op:
    roll = rng.random()
    for kind, share in AUDIT_MIX:
        if roll < share:
            break
        roll -= share
    if kind == "get-entries":
        return Op(due, kind, rng.randrange(size - page + 1))
    if kind == "get-proof-by-hash":
        return Op(due, kind, rng.randrange(size))
    return Op(due, kind)


def audit_read(seed: int, seconds: float, scale: float, clients: int) -> AuditInputs:
    """A static log larger than the server memo, plus one segment per second."""
    rng = _rng(seed, "audit_read")
    size = max(64, int(AUDIT_ENTRIES * scale))
    zone = f"audit{seed}.example"
    names = [(f"h{i}.{_token(rng)}.{zone}",) for i in range(size)]
    rows = _precert_rows(rng, names, "Audit Issuer", _EPOCH)
    log = LogSpec(
        f"Perfbench Audit {seed}",
        "perfbench",
        crypto.KeyPair.generate(f"perfbench-audit:{seed}"),
        rows,
    )
    page = min(AUDIT_PAGE, size)
    count = int(AUDIT_OPEN_SHARE * AUDIT_RATE)
    step = AUDIT_OPEN_SHARE / count
    per_client = AUDIT_SATURATION_READS_PER_S // clients
    segments = tuple(
        AuditSegment(
            tuple(_mixed_op(rng, i * step, size, page) for i in range(count)),
            tuple(
                tuple(_mixed_op(rng, 0.0, size, page) for _ in range(per_client))
                for _ in range(clients)
            ),
        )
        for _ in range(max(1, round(seconds)))
    )
    return AuditInputs(log, merkle_root([row[0] for row in rows]), page, segments)


# -- ingest_monitor -----------------------------------------------------------


@dataclass(frozen=True)
class IngestInputs:
    log: LogSpec
    issuer_key_hash: bytes
    #: Submissions in due order: (due offset s from the start of its
    #: segment, precert, entry input).
    submissions: Tuple[Tuple[float, Certificate, bytes], ...]
    #: Submissions per segment; submission ``n`` is in segment
    #: ``n // per_segment``.
    per_segment: int
    #: (monitor name, subscribed domains).
    monitors: Tuple[Tuple[str, Tuple[str, ...]], ...]
    merge_interval: float
    max_batch: int


def ingest_monitor(seed: int, seconds: float) -> IngestInputs:
    """A small sequenced log, open-loop precertificates, monitor subscriptions."""
    rng = _rng(seed, "ingest_monitor")
    base = f"ingest{seed}.example"
    seed_names = [(f"seed{i}.{_token(rng)}.{base}",) for i in range(INGEST_SEED_ENTRIES)]
    issuer = "Ingest Issuer"
    rows = _precert_rows(rng, seed_names, issuer, _EPOCH)
    log = LogSpec(
        f"Perfbench Ingest {seed}",
        "perfbench",
        crypto.KeyPair.generate(f"perfbench-ingest:{seed}"),
        rows,
    )
    ikh = issuer_key_hash(issuer)
    step = 1.0 / INGEST_RATE
    full = round(INGEST_SEGMENT_S * INGEST_RATE)
    per_segment = min(full, max(10, int(seconds * INGEST_RATE)))
    count = per_segment * max(1, round(seconds * INGEST_RATE / full))
    submissions = []
    for n in range(count):
        zone = rng.randrange(INGEST_ZONES)
        name = f"c{n}.{_token(rng)}.z{zone}.{base}"
        serial = INGEST_SEED_ENTRIES + 1 + n
        cert = make_precert(
            rng, serial, (name, f"www.{name}"), issuer, _EPOCH + timedelta(days=1, seconds=n)
        )
        due = (n % per_segment) * step
        submissions.append((due, cert, precert_signing_input(cert, ikh)))
    monitors = []
    for m in range(INGEST_MONITORS):
        zones = sorted({m % INGEST_ZONES, (m + rng.randrange(1, INGEST_ZONES)) % INGEST_ZONES})
        monitors.append((f"lw-{m}", tuple(f"z{z}.{base}" for z in zones)))
    return IngestInputs(
        log,
        ikh,
        tuple(submissions),
        per_segment,
        tuple(monitors),
        INGEST_MERGE_INTERVAL_S,
        INGEST_MAX_BATCH,
    )


# -- harvest_analyze ----------------------------------------------------------


@dataclass(frozen=True)
class HarvestInputs:
    logs: Tuple[LogSpec, ...]
    #: The simulated source logs, in the simulation's order.
    source: Dict[str, object]


def harvest_analyze(seed: int, scale: float) -> HarvestInputs:
    """The multi-log Fig 1 simulation, run through the CA issuance pipeline."""
    logs = CaLoggingWorkload(scale=HARVEST_SCALE * scale, seed=seed).run().logs
    specs = tuple(
        LogSpec(log.name, log.operator, log.key, tuple(_rows(log.entries)))
        for log in logs.values()
    )
    return HarvestInputs(specs, dict(logs))


def _rows(entries: List[LogEntry]) -> List[Row]:
    return [
        (entry.leaf_input, entry.entry_type, entry.certificate, entry.submitted_at)
        for entry in entries
    ]
