"""Tests for the Public Suffix List engine."""

import pytest

from repro.dnscore.psl import PublicSuffixList, default_psl


@pytest.fixture(scope="module")
def psl():
    return default_psl()


class TestPublicSuffix:
    def test_simple_tld(self, psl):
        assert psl.public_suffix("example.com") == "com"

    def test_multi_label_suffix(self, psl):
        assert psl.public_suffix("example.co.uk") == "co.uk"
        assert psl.public_suffix("www.example.gov.uk") == "gov.uk"

    def test_longest_match_wins(self, psl):
        # co.uk beats uk-as-unknown-TLD fallback.
        assert psl.public_suffix("a.b.co.uk") == "co.uk"

    def test_unknown_tld_falls_back_to_rightmost_label(self, psl):
        assert psl.public_suffix("example.zz") == "zz"

    def test_wildcard_rule(self, psl):
        # "*.ck" makes every direct child of ck a public suffix.
        assert psl.public_suffix("example.anything.ck") == "anything.ck"

    def test_exception_rule_beats_wildcard(self, psl):
        # "!www.ck" exempts www.ck from the wildcard.
        assert psl.public_suffix("www.ck") == "ck"
        assert psl.registrable_domain("www.ck") == "www.ck"


class TestRegistrableDomain:
    def test_simple(self, psl):
        assert psl.registrable_domain("www.example.com") == "example.com"

    def test_deep_subdomain(self, psl):
        assert psl.registrable_domain("a.b.c.example.co.uk") == "example.co.uk"

    def test_bare_suffix_has_no_registrable(self, psl):
        assert psl.registrable_domain("co.uk") is None
        assert psl.registrable_domain("com") is None

    def test_registrable_of_registrable_is_itself(self, psl):
        assert psl.registrable_domain("example.org") == "example.org"


class TestSubdomainLabels:
    def test_no_labels_for_registrable(self, psl):
        assert psl.subdomain_labels("example.com") == []

    def test_single_label(self, psl):
        assert psl.subdomain_labels("www.example.com") == ["www"]

    def test_multiple_labels_in_order(self, psl):
        assert psl.subdomain_labels("dev.api.example.co.uk") == ["dev", "api"]

    def test_labels_for_bare_suffix(self, psl):
        assert psl.subdomain_labels("co.uk") == []


def test_split_returns_consistent_triple(psl):
    labels, registrable, suffix = psl.split("mail.internal.example.gov.uk")
    assert labels == ["mail", "internal"]
    assert registrable == "example.gov.uk"
    assert suffix == "gov.uk"
    assert f"{'.'.join(labels)}.{registrable}" == "mail.internal.example.gov.uk"


def test_split_of_an_empty_leftmost_label(psl):
    assert psl.split(".com") == ([], None, "com")
    assert psl.split(".example.com") == ([], "example.com", "com")
    assert psl.split(".www.example.com") == (["", "www"], "example.com", "com")


def test_is_public_suffix(psl):
    assert psl.is_public_suffix("com")
    assert psl.is_public_suffix("co.uk")
    assert not psl.is_public_suffix("example.com")


def test_custom_rules():
    psl = PublicSuffixList(rules=["example"], extra_rules=["sub.example"])
    assert psl.public_suffix("foo.sub.example") == "sub.example"
    assert psl.registrable_domain("foo.sub.example") == "foo.sub.example"


def test_comment_rules_ignored():
    psl = PublicSuffixList(rules=["com", "// a comment", ""])
    assert psl.public_suffix("x.com") == "com"


def test_default_psl_is_shared():
    assert default_psl() is default_psl()


def test_suffixes_exposes_exact_rules(psl):
    assert "com" in psl.suffixes()
    assert "gov.uk" in psl.suffixes()
