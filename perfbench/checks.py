"""Output checks, written independently of the program's own verifiers.

The workloads call the program's client-side verification as a real
browser or monitor would (and time it).  After the measured window the
benchmark re-checks every recorded answer here, with its own RFC 6962
Merkle code and its own RSA check, so a verifier broken in the program
cannot pass its own output.  Any failure raises :class:`CheckFailed`:
a wrong output fails the run, it is not counted as a failed request.
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def leaf_hash(leaf: bytes) -> bytes:
    return hashlib.sha256(b"\x00" + leaf).digest()


def node_hash(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(b"\x01" + left + right).digest()


def merkle_root(leaves: Sequence[bytes]) -> bytes:
    """RFC 6962 Merkle tree hash of ``leaves``."""
    if not leaves:
        return hashlib.sha256(b"").digest()
    # Fold complete subtrees left to right, as a binary counter does.
    stack: List[tuple] = []  # (height, hash)
    for leaf in leaves:
        height, digest = 0, leaf_hash(leaf)
        while stack and stack[-1][0] == height:
            digest = node_hash(stack.pop()[1], digest)
            height += 1
        stack.append((height, digest))
    digest = stack.pop()[1]
    while stack:
        digest = node_hash(stack.pop()[1], digest)
    return digest


def inclusion_ok(
    leaf: bytes, index: int, size: int, path: Sequence[bytes], root: bytes
) -> bool:
    """RFC 9162 section 2.1.3.2 inclusion verification."""
    if not 0 <= index < size:
        return False
    fn, sn, digest = index, size - 1, leaf_hash(leaf)
    for sibling in path:
        if sn == 0:
            return False
        if fn & 1 or fn == sn:
            digest = node_hash(sibling, digest)
            while not fn & 1 and fn:
                fn >>= 1
                sn >>= 1
        else:
            digest = node_hash(digest, sibling)
        fn >>= 1
        sn >>= 1
    return sn == 0 and digest == root


def rsa_ok(n: int, e: int, message: bytes, signature: bytes) -> bool:
    """The simulated PKI's full-domain-hash RSA signature check."""
    width = (n.bit_length() + 7) // 8
    if len(signature) != width:
        return False
    value = int.from_bytes(signature, "big")
    if value >= n:
        return False
    target = width - 1
    material, block = b"", 0
    while len(material) < target:
        material += hashlib.sha256(bytes([block]) + message).digest()
        block += 1
    return pow(value, e, n) == int.from_bytes(material[:target], "big")


def sth_ok(key, sth) -> bool:
    """A signed tree head's signature under the log key."""
    payload = (
        b"STHv1"
        + sth.tree_size.to_bytes(8, "big")
        + sth.timestamp_ms.to_bytes(8, "big")
        + sth.root_hash
    )
    return rsa_ok(key.n, key.e, payload, sth.signature)


def sct_ok(key, sct, entry_input: bytes) -> bool:
    """An SCT's log id and signature over ``entry_input``."""
    payload = b"".join(
        [
            b"SCTv1",
            sct.log_id,
            sct.timestamp_ms.to_bytes(8, "big"),
            int(sct.entry_type).to_bytes(2, "big"),
            len(sct.extensions).to_bytes(2, "big"),
            sct.extensions,
            entry_input,
        ]
    )
    return sct.log_id == key.key_id and rsa_ok(key.n, key.e, payload, sct.signature)


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)
