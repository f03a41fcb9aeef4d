"""Tests for the Section 4.2 leakage analysis."""

import pytest

from repro.core import leakage
from repro.dnscore.name import is_valid_fqdn, normalize_name
from repro.dnscore.psl import PublicSuffixList, default_psl
from repro.util.timeutil import utc_datetime
from repro.x509.ca import CertificateAuthority, IssuanceRequest


def test_counts_each_fqdn_once():
    stats = leakage.analyze_names(
        ["www.example.com", "WWW.example.com", "www.example.com."]
    )
    assert stats.unique_fqdns == 1
    assert stats.label_counts["www"] == 1


def test_invalid_names_filtered():
    stats = leakage.analyze_names(
        ["under_score.example.com", "-x.example.com", "localhost", "ab\n.example.com",
         "ok.example.com"]
    )
    assert stats.invalid_names == 4
    assert stats.unique_fqdns == 1
    assert "ab\n" not in stats.label_counts


def test_wildcard_label_not_counted():
    stats = leakage.analyze_names(["*.example.com"])
    assert stats.unique_fqdns == 1
    assert "*" not in stats.label_counts
    assert stats.fqdns_with_subdomains == 0


def test_multi_label_names_count_all_labels():
    stats = leakage.analyze_names(["dev.api.example.co.uk"])
    assert stats.label_counts["dev"] == 1
    assert stats.label_counts["api"] == 1


def test_registrable_domain_contributes_no_labels():
    stats = leakage.analyze_names(["example.com", "example.co.uk"])
    assert stats.fqdns_with_subdomains == 0
    assert len(stats.label_counts) == 0


def test_per_suffix_counters():
    stats = leakage.analyze_names(
        ["git.a.tech", "git.b.tech", "www.a.tech", "www.c.com"]
    )
    assert stats.per_suffix_labels["tech"]["git"] == 2
    assert stats.per_suffix_labels["tech"]["www"] == 1
    assert stats.per_suffix_labels["com"]["www"] == 1
    assert stats.top_label_per_suffix()["tech"] == "git"


def test_shares():
    stats = leakage.analyze_names(
        [f"www.d{i}.com" for i in range(9)] + ["mail.d0.com"]
    )
    assert stats.label_share("www") == pytest.approx(0.9)
    assert stats.top_k_share(1) == pytest.approx(0.9)
    assert stats.top_k_share(10) == pytest.approx(1.0)


def test_shares_on_empty_stats():
    stats = leakage.analyze_names([])
    assert stats.label_share("www") == 0.0
    assert stats.top_k_share(10) == 0.0


def test_management_interface_counts():
    stats = leakage.analyze_names(
        ["cpanel.x.com", "whm.x.com", "webdisk.y.com", "www.z.com"]
    )
    counts = stats.management_interface_counts()
    assert counts == {"webdisk": 1, "cpanel": 1, "whm": 1}


def test_extraction_from_real_certificates(fresh_logs):
    ca = CertificateAuthority("Leak CA", key_bits=256)
    now = utc_datetime(2018, 4, 1)
    log = [fresh_logs["Google Pilot log"]]
    ca.issue(IssuanceRequest(("shop.site-a.com", "www.site-a.com")), log, now)
    ca.issue(IssuanceRequest(("mail.site-b.de",)), log, now)
    certs = [entry.certificate for entry in fresh_logs["Google Pilot log"].entries]
    stats = leakage.analyze_certificates(certs)
    assert stats.label_counts["shop"] == 1
    assert stats.label_counts["www"] == 1
    assert stats.label_counts["mail"] == 1


def test_wordlist_overlap():
    stats = leakage.analyze_names(["www.x.com", "api.x.com"])
    overlap = leakage.wordlist_overlap(["WWW", "api", "nope"], stats)
    assert overlap == ["api", "www"]


def test_map_reduce_chunks_equal_serial():
    names = [
        "www.a.com", "MAIL.a.com", "www.a.com", "*.b.org", "bad_label.c.net",
        "git.d.tech", "www.b.org", "shop.e.co.uk", "localhost", "api.f.io",
    ]
    serial = leakage.analyze_names(names)
    chunked = leakage.reduce_name_partials(
        [leakage.map_name_chunk(names[i : i + 3]) for i in range(0, len(names), 3)]
    )
    assert chunked == serial
    # Ranking tie-breaks depend on insertion order; it must match too.
    assert chunked.top_labels(10) == serial.top_labels(10)


def test_cross_chunk_duplicates_count_once():
    chunked = leakage.reduce_name_partials(
        [
            leakage.map_name_chunk(["www.dup.com", "api.x.com"]),
            leakage.map_name_chunk(["www.dup.com", "www.dup.com"]),
        ]
    )
    assert chunked.unique_fqdns == 2
    assert chunked.label_counts["www"] == 1
    assert chunked.total_names_seen == 4


def test_leakage_partial_codec_round_trip():
    partial = leakage.map_name_chunk(
        ["www.a.com", "*.b.org", "bad_label.c.net", "git.d.tech"]
    )
    decoded = leakage.decode_leakage_partial(
        leakage.encode_leakage_partial(partial)
    )
    assert decoded == partial
    assert list(decoded.candidates) == list(partial.candidates)


@pytest.mark.parametrize("name", ["*. www.x.com", "www.x.com ."])
def test_fold_validates_the_name_it_keys(name):
    # Whitespace left after normalizing once is not re-normalized away:
    # the fold agrees with is_valid_fqdn on the raw name.
    assert not is_valid_fqdn(name, allow_wildcard=True)
    stats = leakage.analyze_names([name])
    assert (stats.invalid_names, stats.unique_fqdns) == (1, 0)


#: Repeats, repeated invalid names, wildcards, mixed case, trailing dots.
PARITY_STREAM = [
    "www.a.com", "WWW.A.COM", "www.a.com.", "*.a.com", "a.com", "*.A.com.",
    "bad_label.c.net", "bad_label.c.net", "-x.c.net", "localhost", "localhost",
    "git.d.tech", "Git.D.Tech.", "*.www.a.com", "shop.e.co.uk", "co.uk",
    "x.y.anything.ck", "www.ck", "a.www.ck", "*.*.a.com", "*.a.com",
    "mail.internal.example.gov.uk", "123.example.org", "example.123",
    "www.a.com", "git.d.tech", "bad_label.c.net",
]


def _validate_then_dedup(names, psl):
    """The fold's previous order: validate every name, then dedup."""
    partial = leakage.LeakagePartial()
    for raw in names:
        partial.total_names_seen += 1
        name = normalize_name(raw)
        candidate = name[2:] if name.startswith("*.") else name
        if not is_valid_fqdn(candidate):
            partial.invalid_names += 1
            continue
        if candidate in partial.candidates:
            continue
        labels, _registrable, suffix = psl.split(candidate)
        partial.candidates[candidate] = (tuple(labels), suffix)
    return partial


def test_name_fold_matches_validate_then_dedup():
    psl = default_psl()
    expected = _validate_then_dedup(PARITY_STREAM, psl)
    folded = leakage.map_name_chunk(PARITY_STREAM, psl)
    assert folded == expected
    assert list(folded.candidates) == list(expected.candidates)
    assert (folded.total_names_seen, folded.invalid_names) == (27, 8)
    serial = leakage.reduce_name_partials([expected])
    assert leakage.reduce_name_partials([folded]) == serial
    shards = [
        leakage.map_name_chunk(PARITY_STREAM[i : i + 9], psl)
        for i in range(0, len(PARITY_STREAM), 9)
    ]
    assert len(shards) == 3
    sharded = leakage.reduce_name_partials(shards)
    assert sharded == serial
    assert sharded.top_labels(20) == serial.top_labels(20)


def test_fold_work_is_one_validation_and_one_psl_walk_per_unique_name(monkeypatch):
    calls = {"validate": 0, "suffix": 0}
    validate = leakage.is_valid_normalized_fqdn
    suffix = PublicSuffixList._suffix

    def counting_validate(name):
        calls["validate"] += 1
        return validate(name)

    def counting_suffix(self, labels):
        calls["suffix"] += 1
        return suffix(self, labels)

    monkeypatch.setattr(leakage, "is_valid_normalized_fqdn", counting_validate)
    monkeypatch.setattr(PublicSuffixList, "_suffix", counting_suffix)
    partial = leakage.map_name_chunk(PARITY_STREAM * 3)
    unique = len(partial.candidates)
    assert unique == 10
    # Each unique candidate is validated and PSL-walked once; only the
    # invalid names, never stored, are validated on every occurrence.
    assert calls["suffix"] == unique
    assert calls["validate"] == unique + partial.invalid_names
