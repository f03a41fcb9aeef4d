"""Section 4.2: analysis of subdomains leaked through CT.

Parses FQDNs from CT certificates (or from a pre-extracted name
corpus), discards invalid names exactly as the paper does, splits them
against the Public Suffix List, and ranks subdomain labels — Table 2 —
plus the per-suffix signature labels ("git is the most common
subdomain label for the suffix tech; autoconfig for email; …").
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.dnscore.name import is_valid_normalized_fqdn, normalize_name
from repro.dnscore.psl import PublicSuffixList, default_psl
from repro.x509.certificate import Certificate

#: Labels whose presence points at management interfaces — "could be
#: interesting targets for password attacks".
MANAGEMENT_LABELS = ("webdisk", "cpanel", "whm")


@dataclass
class LeakageStats:
    """Outcome of a full subdomain-leakage analysis."""

    total_names_seen: int = 0
    invalid_names: int = 0
    unique_fqdns: int = 0
    fqdns_with_subdomains: int = 0
    label_counts: Counter = field(default_factory=Counter)
    #: suffix -> Counter of labels within that suffix.
    per_suffix_labels: Dict[str, Counter] = field(default_factory=dict)

    def top_labels(self, k: int = 20) -> List[Tuple[str, int]]:
        """Table 2."""
        return self.label_counts.most_common(k)

    def label_share(self, label: str) -> float:
        total = sum(self.label_counts.values())
        if total == 0:
            return 0.0
        return self.label_counts[label] / total

    def top_k_share(self, k: int = 10) -> float:
        total = sum(self.label_counts.values())
        if total == 0:
            return 0.0
        return sum(count for _, count in self.label_counts.most_common(k)) / total

    def top_label_per_suffix(self) -> Dict[str, str]:
        """Section 4.2's per-suffix signature labels."""
        return {
            suffix: counter.most_common(1)[0][0]
            for suffix, counter in self.per_suffix_labels.items()
            if counter
        }

    def management_interface_counts(self) -> Dict[str, int]:
        return {label: self.label_counts[label] for label in MANAGEMENT_LABELS}


def extract_names_from_certificates(
    certificates: Iterable[Certificate],
) -> Iterable[str]:
    """All CN/SAN DNS names, certificate by certificate."""
    for cert in certificates:
        yield from cert.dns_names()


@dataclass
class LeakagePartial:
    """Chunk-local partial of the name pipeline (mergeable).

    ``candidates`` keeps the chunk's *first occurrence* of every valid
    FQDN in stream order, already split against the PSL; the reduce
    step deduplicates across chunks and folds label counts.  Reducing
    a single chunk's partial reproduces :func:`analyze_names` exactly,
    which is what keeps the sharded pipeline bit-identical to the
    serial pass.
    """

    total_names_seen: int = 0
    invalid_names: int = 0
    #: candidate -> (subdomain labels, public suffix), insertion-ordered.
    candidates: Dict[str, Tuple[Tuple[str, ...], Optional[str]]] = field(
        default_factory=dict
    )


class NameFold:
    """Incremental form of :func:`map_name_chunk`: one name at a time.

    Holds the working PSL next to the accumulating
    :class:`LeakagePartial` so record-at-a-time consumers (the fused
    corpus traversal) share the exact dedup/validate/split code path
    with the chunk-at-a-time map step.  Ship only :attr:`partial`
    across process boundaries — the PSL stays local.
    """

    __slots__ = ("psl", "partial")

    def __init__(self, psl: Optional[PublicSuffixList] = None) -> None:
        self.psl = psl or default_psl()
        self.partial = LeakagePartial()

    def add(self, raw: str) -> None:
        """Fold one raw CN/SAN name into the partial."""
        partial = self.partial
        partial.total_names_seen += 1
        name = normalize_name(raw)
        candidate = name[2:] if name.startswith("*.") else name
        # Only valid names enter ``candidates``, so a hit skips the
        # validation (and the PSL walk) with the outcome unchanged.
        if candidate in partial.candidates:
            return
        if not is_valid_normalized_fqdn(candidate):
            partial.invalid_names += 1
            return
        labels, _registrable, suffix = self.psl.split_normalized(candidate.split("."))
        partial.candidates[candidate] = (tuple(labels), suffix)


def map_name_chunk(
    names: Iterable[str],
    psl: Optional[PublicSuffixList] = None,
) -> LeakagePartial:
    """The map step: deduplicate, validate, and PSL-split one chunk."""
    fold = NameFold(psl)
    for raw in names:
        fold.add(raw)
    return fold.partial


def reduce_name_partials(
    partials: Iterable[LeakagePartial],
) -> LeakageStats:
    """The reduce step: global dedup + label ranking, in chunk order.

    Chunks must arrive in stream order: the first chunk containing a
    FQDN determines when its labels enter the counters, matching the
    serial pass's first-occurrence semantics (and therefore its
    tie-breaking in ``most_common``).
    """
    stats = LeakageStats()
    seen: Set[str] = set()
    per_suffix: Dict[str, Counter] = defaultdict(Counter)
    for partial in partials:
        stats.total_names_seen += partial.total_names_seen
        stats.invalid_names += partial.invalid_names
        for candidate, (labels, suffix) in partial.candidates.items():
            if candidate in seen:
                continue
            seen.add(candidate)
            stats.unique_fqdns += 1
            if not labels:
                continue
            stats.fqdns_with_subdomains += 1
            for label in labels:
                stats.label_counts[label] += 1
                if suffix is not None:
                    per_suffix[suffix][label] += 1
    stats.per_suffix_labels = dict(per_suffix)
    return stats


def encode_leakage_partial(partial: LeakagePartial) -> dict:
    """JSON-serializable form of a partial (for shard checkpoints)."""
    return {
        "total": partial.total_names_seen,
        "invalid": partial.invalid_names,
        "candidates": [
            [candidate, list(labels), suffix]
            for candidate, (labels, suffix) in partial.candidates.items()
        ],
    }


def decode_leakage_partial(data: dict) -> LeakagePartial:
    """Inverse of :func:`encode_leakage_partial`."""
    return LeakagePartial(
        total_names_seen=data["total"],
        invalid_names=data["invalid"],
        candidates={
            candidate: (tuple(labels), suffix)
            for candidate, labels, suffix in data["candidates"]
        },
    )


def analyze_names(
    names: Iterable[str],
    psl: Optional[PublicSuffixList] = None,
) -> LeakageStats:
    """Run the Section 4.2 pipeline over a name corpus.

    Every FQDN is counted only once (paper Section 4.1); invalid names
    are dropped; wildcard labels (``*``) are not subdomain labels.
    This is the single-chunk case of the sharded map/reduce pipeline.
    """
    return reduce_name_partials([map_name_chunk(names, psl)])


def analyze_certificates(
    certificates: Iterable[Certificate],
    psl: Optional[PublicSuffixList] = None,
) -> LeakageStats:
    """Convenience wrapper: extract names from certs, then analyze."""
    return analyze_names(extract_names_from_certificates(certificates), psl)


def wordlist_overlap(
    wordlist: Iterable[str], stats: LeakageStats
) -> List[str]:
    """Which wordlist entries occur as CT subdomain labels (Section 4.3's
    subbrute/dnsrecon comparison)."""
    ct_labels = set(stats.label_counts)
    return sorted({word.lower().strip() for word in wordlist} & ct_labels)
