"""Property-based tests for FQDN validation and PSL parsing."""

import re
import string

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.dnscore.name import (
    is_valid_fqdn,
    normalize_name,
    split_labels,
)
from repro.dnscore.psl import DEFAULT_RULES, PublicSuffixList, default_psl

# Strategy for plausible labels (valid by construction).
valid_label = st.from_regex(r"[a-z0-9]([a-z0-9-]{0,10}[a-z0-9])?", fullmatch=True)
valid_tld = st.sampled_from(["com", "org", "de", "co", "uk", "tech", "io"])
valid_fqdn = st.builds(
    lambda labels, tld: ".".join(labels + [tld]),
    labels=st.lists(valid_label, min_size=1, max_size=4),
    tld=valid_tld,
)

arbitrary_text = st.text(
    alphabet=string.ascii_letters + string.digits + ".-_*! ",
    max_size=80,
)


@given(name=valid_fqdn)
@settings(max_examples=80, deadline=None)
def test_constructed_fqdns_are_valid(name):
    assert is_valid_fqdn(name)


@given(name=arbitrary_text)
@settings(max_examples=150, deadline=None)
def test_validator_is_total_and_stable(name):
    """The validator never raises and is idempotent under normalization."""
    result = is_valid_fqdn(name)
    assert result == is_valid_fqdn(normalize_name(name))


@given(name=valid_fqdn)
@settings(max_examples=80, deadline=None)
def test_normalization_idempotent(name):
    assert normalize_name(normalize_name(name)) == normalize_name(name)


@given(name=valid_fqdn)
@settings(max_examples=80, deadline=None)
def test_split_join_roundtrip(name):
    labels = split_labels(name)
    assert ".".join(labels) == normalize_name(name)


@given(name=valid_fqdn)
@settings(max_examples=100, deadline=None)
def test_psl_split_reassembles(name):
    """labels + registrable domain always re-concatenate to the FQDN."""
    psl = default_psl()
    labels, registrable, suffix = psl.split(name)
    normalized = normalize_name(name)
    if registrable is None:
        # The name is itself a public suffix.
        assert psl.is_public_suffix(normalized)
        return
    rebuilt = ".".join(labels + [registrable]) if labels else registrable
    assert rebuilt == normalized
    assert registrable.endswith(suffix)
    # The registrable domain has exactly one label above the suffix.
    owner = registrable[: -(len(suffix) + 1)]
    assert owner and "." not in owner


@given(name=valid_fqdn)
@settings(max_examples=80, deadline=None)
def test_public_suffix_is_suffix(name):
    psl = default_psl()
    suffix = psl.public_suffix(name)
    normalized = normalize_name(name)
    assert normalized == suffix or normalized.endswith("." + suffix)


@given(
    label=valid_label,
    name=valid_fqdn,
)
@settings(max_examples=80, deadline=None)
def test_prepending_label_extends_subdomains(label, name):
    psl = default_psl()
    base_labels, base_reg, _ = psl.split(name)
    assume(base_reg is not None)
    extended_labels, extended_reg, _ = psl.split(f"{label}.{name}")
    assert extended_reg == base_reg
    assert extended_labels == [label] + base_labels


# -- the PSL against a brute-force reference ---------------------------------

#: Deeper rules than the bundled list: a three-label exact rule, a
#: wildcard under a two-label suffix with an exception beneath it, and a
#: wildcard and a longer exception beneath that exception.
CUSTOM_RULES = (
    "com", "uk", "co.uk", "a.b.c", "c", "*.d.e", "!x.d.e", "*.x.d.e", "!w.x.d.e",
    "*.ck", "!www.ck",
)


def reference_suffix_count(labels, rules):
    """Labels in the public suffix, by the publicsuffix.org prose rules.

    Every rule is tried against the name; an exception rule prevails
    (minus its leftmost label), else the matching rule with the most
    labels, else the implicit ``*`` rule (the TLD).
    """
    exceptions, matches = [], [1]
    for rule in rules:
        exception = rule.startswith("!")
        rule_labels = (rule[1:] if exception else rule).split(".")
        if len(rule_labels) > len(labels):
            continue
        tail = labels[len(labels) - len(rule_labels):]
        if all(r in ("*", label) for r, label in zip(rule_labels, tail)):
            (exceptions if exception else matches).append(len(rule_labels))
    return max(exceptions) - 1 if exceptions else max(matches)


def reference_split(labels, rules):
    count = reference_suffix_count(labels, rules)
    suffix = ".".join(labels[-count:])
    if count == len(labels):
        return [], None, suffix
    return labels[: -count - 1], ".".join(labels[-count - 1:]), suffix


def _rule_labels(rules):
    return sorted({
        label for rule in rules for label in rule.lstrip("!").split(".") if label != "*"
    })


def _label_lists(rules):
    return st.lists(
        st.one_of(st.sampled_from(_rule_labels(rules)), valid_label),
        min_size=1, max_size=6,
    )


def _assert_matches_reference(psl, labels, rules):
    name = ".".join(labels)
    expected = reference_split(labels, rules)
    assert psl.split(name) == expected
    assert psl.public_suffix(name) == expected[2]
    assert psl.registrable_domain(name) == expected[1]
    assert psl.subdomain_labels(name) == expected[0]


@given(labels=_label_lists(DEFAULT_RULES))
@settings(max_examples=300, deadline=None)
def test_default_psl_matches_reference(labels):
    _assert_matches_reference(default_psl(), labels, DEFAULT_RULES)


@given(labels=_label_lists(CUSTOM_RULES))
@settings(max_examples=300, deadline=None)
def test_custom_psl_matches_reference(labels):
    _assert_matches_reference(PublicSuffixList(rules=CUSTOM_RULES), labels, CUSTOM_RULES)


@pytest.mark.parametrize("name, expected", [
    ("www.ck", ([], "www.ck", "ck")),
    ("a.www.ck", (["a"], "www.ck", "ck")),
    ("foo.ck", ([], None, "foo.ck")),
    ("a.b.foo.ck", (["a"], "b.foo.ck", "foo.ck")),
    ("co.uk", ([], None, "co.uk")),
    ("ck", ([], None, "ck")),
    ("a.b.c", ([], None, "a.b.c")),
    ("z.x.d.e", (["z"], "x.d.e", "d.e")),
    ("z.y.d.e", ([], "z.y.d.e", "y.d.e")),
    ("y.d.e", ([], None, "y.d.e")),
    ("x.d.e", ([], "x.d.e", "d.e")),
    ("a.w.x.d.e", (["a"], "w.x.d.e", "x.d.e")),
])
def test_psl_edges_match_reference(name, expected):
    psl = PublicSuffixList(rules=CUSTOM_RULES)
    assert psl.split(name) == expected
    assert reference_split(name.split("."), CUSTOM_RULES) == expected


# -- is_valid_fqdn against a per-label reference ------------------------------

_REF_LABEL = re.compile(r"\A(?!-)[a-z0-9-]{1,63}(?<!-)\Z")
_REF_TLD = re.compile(r"\A[a-z][a-z0-9-]*(?<!-)\Z")


def reference_is_valid_fqdn(name, allow_wildcard):
    """The validity rules label by label, anchored with ``\\A``/``\\Z``."""
    normalized = normalize_name(name)
    if not normalized or len(normalized) > 253:
        return False
    labels = normalized.split(".")
    if labels[0] == "*":
        if not allow_wildcard:
            return False
        labels = labels[1:]
    if len(labels) < 2:
        return False
    return all(_REF_LABEL.match(label) for label in labels) and bool(
        _REF_TLD.match(labels[-1])
    )


_ODD_CHARS = "abcz019-*AZ\n"
fqdn_like = st.builds(
    lambda labels, dot: ".".join(labels) + ("." if dot else ""),
    st.lists(
        st.one_of(valid_label, st.text(alphabet=_ODD_CHARS, max_size=4)),
        max_size=5,
    ),
    st.booleans(),
)
fqdn_text = st.text(alphabet=_ODD_CHARS + ".", max_size=24)
#: Names at the 63/64-character label and 253/254-character name edges.
long_label_names = st.builds(
    lambda prefix, n, tld: prefix + "b" * n + "." + tld,
    st.sampled_from(["", "*.", "a."]),
    st.integers(61, 66),
    st.sampled_from(["com", "c" * 63, "c" * 64, "1com", "org\n"]),
)
long_names = st.builds(
    lambda prefix, n: prefix + ("a" * 49 + ".") * 4 + "c" * n,
    st.sampled_from(["", "*.", "x."]),
    st.integers(48, 58),
)


@given(
    name=st.one_of(fqdn_like, fqdn_text, long_label_names, long_names),
    allow_wildcard=st.booleans(),
)
@settings(max_examples=500, deadline=None)
def test_is_valid_fqdn_matches_per_label_reference(name, allow_wildcard):
    assert is_valid_fqdn(name, allow_wildcard=allow_wildcard) == reference_is_valid_fqdn(
        name, allow_wildcard
    )
