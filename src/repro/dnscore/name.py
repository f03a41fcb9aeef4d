"""FQDN syntax validation and label handling.

Section 4.1: "Some DNS names in these fields are not valid FQDNs as
defined by RFC 1035 (and later updates). We eliminate these using the
Python validators library."  This module is that filter: hostname
syntax per RFC 1035 as relaxed by RFC 1123 (labels may start with a
digit) with the common operational extensions (leading underscore
labels for service records are rejected for host names, wildcard
labels are accepted only as a leading ``*``).
"""

from __future__ import annotations

import re
from typing import List, Optional

MAX_NAME_LENGTH = 253
MAX_LABEL_LENGTH = 63

_LABEL = rf"(?!-)[a-z0-9-]{{1,{MAX_LABEL_LENGTH}}}(?<!-)"
_LABEL_RE = re.compile(_LABEL)
#: Two or more labels, the TLD starting with a letter.  Matched with
#: ``fullmatch``: a ``$`` anchor would accept a label ending in "\n".
_FQDN_RE = re.compile(rf"(?:{_LABEL}\.)+[a-z][a-z0-9-]{{0,{MAX_LABEL_LENGTH - 1}}}(?<!-)")


def normalize_name(name: str) -> str:
    """Lowercase and strip the optional trailing root dot."""
    return name.strip().lower().rstrip(".")


def split_labels(name: str) -> List[str]:
    """Split an FQDN into labels, most-specific first is NOT applied —
    labels are returned left to right as written."""
    normalized = normalize_name(name)
    if not normalized:
        return []
    return normalized.split(".")


def is_valid_label(label: str) -> bool:
    """Check one hostname label (LDH rule, length 1..63)."""
    return _LABEL_RE.fullmatch(label) is not None


def is_valid_normalized_fqdn(name: str) -> bool:
    """:func:`is_valid_fqdn` of a name already normalized, without a wildcard."""
    return len(name) <= MAX_NAME_LENGTH and _FQDN_RE.fullmatch(name) is not None


def is_valid_fqdn(name: str, *, allow_wildcard: bool = False) -> bool:
    """Validate a fully qualified domain name.

    Rules applied (RFC 1035 / RFC 1123 / operational practice):

    * total length <= 253 bytes, at least two labels;
    * each label 1..63 characters of ``[a-z0-9-]``, not starting or
      ending with a hyphen;
    * the rightmost label (TLD) must not be all-numeric and must start
      with a letter;
    * a single leading ``*`` label is accepted when ``allow_wildcard``.
    """
    normalized = normalize_name(name)
    if allow_wildcard and normalized.startswith("*.") and len(normalized) <= MAX_NAME_LENGTH:
        normalized = normalized[2:]
    return is_valid_normalized_fqdn(normalized)


def parent_name(name: str) -> Optional[str]:
    """The name with its leftmost label removed; None at a TLD."""
    labels = split_labels(name)
    if len(labels) <= 1:
        return None
    return ".".join(labels[1:])


def is_subdomain_of(name: str, ancestor: str) -> bool:
    """True when ``name`` is equal to or under ``ancestor``."""
    child = normalize_name(name)
    parent = normalize_name(ancestor)
    return child == parent or child.endswith("." + parent)


def random_control_label(rng, length: int = 16) -> str:
    """A pseudorandom label for the Section 4.3 control queries."""
    return rng.token(length)
