"""Domain-separated node/leaf hashing and the empty-subtree digest chain."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, NamedTuple


# Tallest empty subtree a scheme precomputes: heap indices of a tree this deep
# still fit in 64 bits.
MAX_HEIGHT = 63


class InvalidDigestError(ValueError):
    """A digest argument does not have the scheme's digest length."""


class _Sha256x64:
    """hashlib-style SHA-256 whose digest() chains 63 further rounds.

    Deliberately slow backend, used by timing experiments to magnify hash
    cost relative to traversal cost.
    """

    def __init__(self, data: bytes = b"") -> None:
        self._inner = hashlib.sha256(data)

    def copy(self) -> "_Sha256x64":
        other = _Sha256x64.__new__(_Sha256x64)
        other._inner = self._inner.copy()
        return other

    def update(self, data: bytes) -> None:
        self._inner.update(data)

    def digest(self) -> bytes:
        out = self._inner.digest()
        for _ in range(63):
            out = hashlib.sha256(out).digest()
        return out


# scheme_id -> (digest size in bytes, hashlib-style constructor)
_BACKENDS = {
    "sha256": (32, hashlib.sha256),
    "sha256x64": (32, _Sha256x64),
}


class BoundHasher(NamedTuple):
    """A scheme's node and leaf hashes, bound once: no registry lookup and
    no length check per call, so callers pass trusted digests only."""

    digest_size: int
    node: Callable[[bytes, bytes], bytes]
    leaf: Callable[[bytes], bytes]


def _bind(scheme: "HashScheme") -> BoundHasher:
    """The hashing rule: backend(tag || preimage), where each call copies a
    backend state already primed with its domain tag.

    Copying skips the constructor's digest setup: with CPython 3.11 and
    OpenSSL 3.0 on a 2-core Intel Xeon VM it made a node hash ~15% cheaper
    than `hashlib.sha256(tag + left + right).digest()`.
    """
    size, new = _BACKENDS[scheme.scheme_id]
    fresh_node = new(scheme.node_domain_tag).copy
    fresh_leaf = new(scheme.leaf_domain_tag).copy

    def node(left: bytes, right: bytes) -> bytes:
        state = fresh_node()
        state.update(left)
        state.update(right)
        return state.digest()

    def leaf(payload: bytes) -> bytes:
        state = fresh_leaf()
        state.update(payload)
        return state.digest()

    return BoundHasher(size, node, leaf)


@dataclass(frozen=True)
class HashScheme:
    """Names a backend hash plus the single-byte tags that keep leaf digests
    and internal-node digests in disjoint domains.

    `hasher` (not a field) holds the scheme's `BoundHasher`, built once at
    construction for the engines' hot paths. `empty_chain` (not a field)
    holds the digests of all-empty subtrees by height, also built once: entry
    0 is the default leaf digest and entry h + 1 is
    `hasher.node(empty_chain[h], empty_chain[h])`, up to `MAX_HEIGHT`.
    """

    scheme_id: str = "sha256"
    leaf_domain_tag: bytes = b"\x00"
    node_domain_tag: bytes = b"\x01"
    default_payload: bytes = b""

    def __post_init__(self) -> None:
        if self.scheme_id not in _BACKENDS:
            raise ValueError(f"unknown hash scheme {self.scheme_id!r}")
        if len(self.leaf_domain_tag) != 1 or len(self.node_domain_tag) != 1:
            raise ValueError("domain tags must be single bytes")
        if self.leaf_domain_tag == self.node_domain_tag:
            raise ValueError("leaf and node domain tags must differ")
        hasher = _bind(self)
        chain = [hasher.leaf(self.default_payload)]
        for _ in range(MAX_HEIGHT):
            chain.append(hasher.node(chain[-1], chain[-1]))
        object.__setattr__(self, "hasher", hasher)
        object.__setattr__(self, "empty_chain", tuple(chain))

    def __reduce__(self):
        # Rebuild from the fields: the bound closures do not pickle, and the
        # chain follows from them.
        return (HashScheme, (self.scheme_id, self.leaf_domain_tag,
                             self.node_domain_tag, self.default_payload))

    @property
    def digest_size(self) -> int:
        return self.hasher.digest_size


DEFAULT_SCHEME = HashScheme()
SLOW_SCHEME = HashScheme(scheme_id="sha256x64")


def hash_leaf(scheme: HashScheme, payload: bytes) -> bytes:
    """Digest of a leaf value: backend(leaf_tag || payload)."""
    return scheme.hasher.leaf(payload)


def hash_node(scheme: HashScheme, left: bytes, right: bytes) -> bytes:
    """Digest of an internal node: backend(node_tag || left || right)."""
    hasher = scheme.hasher
    size = hasher.digest_size
    if len(left) != size or len(right) != size:
        raise InvalidDigestError(
            f"child digests must be {size} bytes, got {len(left)} and {len(right)}"
        )
    return hasher.node(left, right)


def default_digests(scheme: HashScheme, depth: int) -> tuple[bytes, ...]:
    """Per-level digests of all-empty subtrees for a tree of the given depth.

    Index by level: entry `depth` is the default leaf digest, entry 0 is the
    root of a fully empty tree. Entry L satisfies
    table[L] == hash_node(table[L+1], table[L+1]). Read from the scheme's
    `empty_chain`, so no digest is recomputed.
    """
    if not 1 <= depth <= MAX_HEIGHT:
        raise ValueError(f"depth must be in [1, {MAX_HEIGHT}], got {depth}")
    return scheme.empty_chain[depth::-1]


def format_digest_table(table: list[bytes]) -> str:
    """Fixture encoding of a default-digest table: one lowercase-hex digest
    per line, line i = level i."""
    return "".join(d.hex() + "\n" for d in table)
