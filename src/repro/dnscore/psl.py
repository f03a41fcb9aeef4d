"""Public Suffix List engine.

The paper defines a *base domain* (registrable domain) as "the domain
under a public suffix per Public Suffix List" and extracts *subdomain
labels* as all labels under the base domain.  This module implements
the PSL matching algorithm including wildcard rules (``*.ck``) and
exception rules (``!www.ck``), and bundles a suffix set covering every
suffix the paper's analyses mention (com/net/org, the phishing-heavy
ga/tk/ml/cf/gq, bid/review/live/money, country suffixes, and the
per-suffix examples of Section 4.2: tech, email, cloud, design, gov,
gov.uk, …).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set, Tuple

from repro.dnscore.name import normalize_name, split_labels

#: Suffix rules bundled with the reproduction (a representative subset
#: of the real PSL; extend via PublicSuffixList(extra_rules=...)).
DEFAULT_RULES: Tuple[str, ...] = (
    # generic
    "com", "net", "org", "info", "biz", "name", "mobi", "edu", "gov", "mil", "int",
    # new gTLDs used in the paper's analyses
    "tech", "email", "cloud", "design", "bid", "review", "live", "money",
    "online", "site", "xyz", "top", "shop", "app", "dev", "icu",
    # Freenom suffixes dominating the phishing table
    "ga", "tk", "ml", "cf", "gq",
    # country codes
    "de", "fr", "nl", "it", "es", "se", "no", "fi", "pl", "ru", "cn", "jp",
    "br", "in", "ir", "gr", "ch", "at", "be", "cz", "sk", "hu", "ro", "pt",
    "dk", "eu", "us", "ca", "mx", "ar", "cl", "co", "am", "my", "sg", "hk",
    "tw", "kr", "za", "ng", "ke", "eg", "il", "tr", "ua", "by", "kz", "vn",
    "th", "id", "ph", "nz", "ie", "is", "lt", "lv", "ee", "si", "hr", "rs",
    "bg", "md", "ge", "az", "io", "me", "tv", "cc", "ws", "fm", "ai", "sh",
    # multi-label country suffixes
    "co.uk", "org.uk", "me.uk", "ac.uk", "gov.uk", "nhs.uk", "ltd.uk",
    "com.au", "net.au", "org.au", "gov.au", "edu.au", "id.au",
    "co.nz", "net.nz", "org.nz", "govt.nz",
    "co.jp", "ne.jp", "or.jp", "ac.jp", "go.jp",
    "com.br", "net.br", "org.br", "gov.br",
    "co.in", "net.in", "org.in", "gov.in", "ac.in",
    "com.cn", "net.cn", "org.cn", "gov.cn",
    "co.za", "org.za", "gov.za",
    "com.mx", "com.ar", "com.tr", "com.ua", "com.sg", "com.my",
    "co.kr", "co.il", "co.th", "co.id", "co.am",
    # wildcard + exception examples from the real PSL
    "*.ck", "!www.ck",
    "*.bd", "*.er", "*.fk",
)

Split = Tuple[List[str], Optional[str], Optional[str]]


class PublicSuffixList:
    """PSL matcher implementing the publicsuffix.org algorithm."""

    def __init__(self, rules: Optional[Iterable[str]] = None,
                 extra_rules: Iterable[str] = ()) -> None:
        self._exact: Set[str] = set()
        self._wildcards: Set[str] = set()   # "ck" for "*.ck"
        self._exceptions: Set[str] = set()  # "www.ck" for "!www.ck"
        self._depth = 1  # most labels any rule can match
        for rule in list(rules if rules is not None else DEFAULT_RULES) + list(extra_rules):
            self.add_rule(rule)

    def add_rule(self, rule: str) -> None:
        rule = rule.strip().lower()
        if not rule or rule.startswith("//"):
            return
        depth = rule.count(".") + 1
        if rule.startswith("!"):
            self._exceptions.add(rule[1:])
        elif rule.startswith("*."):
            self._wildcards.add(rule[2:])
        else:
            self._exact.add(rule)
        self._depth = max(self._depth, depth)

    # -- core algorithm ------------------------------------------------------

    def _suffix(self, labels: List[str]) -> Tuple[int, str]:
        """``(label count, text)`` of the public suffix of non-empty normalized ``labels``.

        One right-to-left walk, a label at a time up to the longest rule: the longest exception
        wins (minus its leftmost label), else the longest exact or wildcard match, else the TLD.
        """
        exact, wildcards, exceptions = self._exact, self._wildcards, self._exceptions
        candidate, parent = labels[-1], None
        best, exception = (1, candidate), None
        for count in range(1, min(len(labels), self._depth) + 1):
            if count > 1:
                parent, candidate = candidate, f"{labels[-count]}.{candidate}"
            if candidate in exceptions:
                exception = (count - 1, parent) if parent is not None else (1, candidate)
            elif candidate in exact or parent in wildcards:
                best = (count, candidate)
        return exception or best

    def split_normalized(self, labels: List[str]) -> Split:
        """:meth:`split` for a name already split by ``split_labels``."""
        if not labels:
            return [], None, None
        count, suffix = self._suffix(labels)
        owner = len(labels) - count - 1
        # An empty leftmost label (".com", ".a.com") is no owner and no subdomain label.
        if owner < 0 or (owner == 0 and not labels[0]):
            return [], None, suffix
        subdomain = labels[:owner]
        return (subdomain if subdomain != [""] else []), f"{labels[owner]}.{suffix}", suffix

    def split(self, name: str) -> Split:
        """Return ``(subdomain_labels, registrable_domain, public_suffix)``; lookups project it."""
        return self.split_normalized(split_labels(name))

    def public_suffix(self, name: str) -> Optional[str]:
        """The longest matching public suffix of ``name``.

        Follows the PSL algorithm: exception rules beat wildcard rules;
        if no rule matches, the TLD (rightmost label) is the suffix.
        """
        return self.split(name)[2]

    def registrable_domain(self, name: str) -> Optional[str]:
        """Public suffix plus one label (the paper's *base domain*)."""
        return self.split(name)[1]

    def subdomain_labels(self, name: str) -> List[str]:
        """All labels under the registrable domain, left to right.

        ``www.mail.example.co.uk`` -> ``["www", "mail"]``; an empty list
        when the name *is* a registrable domain or public suffix.
        """
        return self.split(name)[0]

    def is_public_suffix(self, name: str) -> bool:
        normalized = normalize_name(name)
        return self.public_suffix(normalized) == normalized

    def suffixes(self) -> Set[str]:
        """All exact suffix rules (used by workload generators)."""
        return set(self._exact)


_DEFAULT: Optional[PublicSuffixList] = None


def default_psl() -> PublicSuffixList:
    """A process-wide shared PSL with the bundled rules."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = PublicSuffixList()
    return _DEFAULT
