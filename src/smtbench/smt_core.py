"""Fixed-depth sparse Merkle tree with pruned storage.

Nodes use heap indexing: the root is index 1, children of j are 2j and 2j+1,
leaf k lives at heap index 2^depth + k. Only non-default nodes are kept in
the cache; an absent node resolves to the digest of an all-empty subtree of
its height, `scheme.empty_chain[height]` (height 0 is a leaf), which is what
makes empty subtrees free to store and non-membership proofs possible.

Leaves change only through the engines in `batch`, which write each leaf
digest first and rehash its ancestors in their hash phase; between the two
the cache invariant is allowed to be stale.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping

from .hasher import (
    DEFAULT_PAYLOAD, DEFAULT_SCHEME, DIGEST_SIZE, MAX_HEIGHT, HashScheme, hash_leaf, hash_node,
)

MAX_DEPTH = MAX_HEIGHT  # heap indices stay within 64-bit unsigned range

# A snapshot's first line; one `L <index> <hex>` line per leaf follows it.
SNAPSHOT_HEADER = "smt-snapshot 2 depth={} scheme={} root={}"
_HEADER_NAMES = [field.partition("=")[0] for field in SNAPSHOT_HEADER.split(" ")]


class SmtError(Exception):
    """Base class for tree usage errors."""


class ConfigError(SmtError):
    pass


class LeafRangeError(SmtError):
    pass


class DuplicateLeafError(SmtError):
    pass


class MissingLeafError(SmtError):
    pass


class SnapshotFormatError(SmtError):
    pass


class DefaultPayloadError(SmtError):
    """A present leaf may not hold the scheme's default payload: its digest
    would be the empty slot's, so the leaf could be proved absent."""


class ConsistencyError(SmtError, AssertionError):
    """The cache invariant does not hold.

    Raised explicitly, so the check survives `python -O`; it is also an
    AssertionError, so callers that caught the old asserts still work.
    """


class OpKind(Enum):
    INSERT = "insert"
    UPDATE = "update"
    REMOVE = "remove"


# Bound once: a module global reads ~10x faster than a member through its class.
OP_INSERT, OP_UPDATE, OP_REMOVE = OpKind.INSERT, OpKind.UPDATE, OpKind.REMOVE


def _is_index(index: object) -> bool:
    """A leaf index is an int; a bool is not one, though Python counts it as an int."""
    return isinstance(index, int) and not isinstance(index, bool)


def _check_index_type(index: object) -> None:
    if not _is_index(index):
        raise TypeError(f"index must be an int, got {type(index).__name__}")


@dataclass(frozen=True, slots=True)
class LeafOperation:
    """One mutation of one indexed leaf; the atomic unit a transaction
    decomposes into.

    A frozen slotted dataclass with its own checking `__init__`: the engines
    read `kind`, `index` and `value` as plain slots. `__init__` sets them
    through the slots' own setters, which skip the frozen write guard and
    build an op faster than `object.__setattr__`.
    """

    kind: OpKind
    index: int
    value: bytes | None

    def __init__(self, kind: OpKind, index: int, value: bytes | None = None) -> None:
        # Checked here so no mistyped op reaches an engine, whose write pass
        # could otherwise fail on it half done. An exact int index, an OpKind
        # and a bytes value, the common case, pass on identity tests alone.
        if index.__class__ is not int:
            _check_index_type(index)
        if kind is OP_REMOVE:
            if value is not None:
                raise ValueError("remove carries no value")
        elif kind is not OP_INSERT and kind is not OP_UPDATE:
            raise TypeError(f"kind must be an OpKind, got {kind!r}")
        elif value.__class__ is not bytes:
            if value is None:
                raise ValueError(f"{kind.value} requires a value")
            if not isinstance(value, bytes):
                raise TypeError(f"{kind.value} value must be bytes, got {type(value).__name__}")
        _set_kind(self, kind)
        _set_index(self, index)
        _set_value(self, value)

    def __reduce__(self):  # unpickling runs `__init__`, so its checks hold
        return self.__class__, (self.kind, self.index, self.value)

    @classmethod
    def insert(cls, index: int, value: bytes) -> "LeafOperation":
        return cls(OP_INSERT, index, value)

    @classmethod
    def update(cls, index: int, value: bytes) -> "LeafOperation":
        return cls(OP_UPDATE, index, value)

    @classmethod
    def remove(cls, index: int) -> "LeafOperation":
        return cls(OP_REMOVE, index)


# The slots' own setters, which bypass the write guard.
_set_kind = LeafOperation.kind.__set__
_set_index = LeafOperation.index.__set__
_set_value = LeafOperation.value.__set__


@dataclass(frozen=True)
class Witness:
    """Membership/non-membership proof: sibling digests ordered leaf to root."""

    leaf_index: int
    siblings: tuple[bytes, ...]


class SparseMerkleTree:
    def __init__(self, depth: int, scheme: HashScheme = DEFAULT_SCHEME) -> None:
        if not _is_index(depth) or not 1 <= depth <= MAX_DEPTH:
            raise ConfigError(f"depth must be in [1, {MAX_DEPTH}], got {depth!r}")
        self.depth = depth
        self.scheme = scheme
        self.cache: dict[int, bytes] = {}
        self.leaf_values: dict[int, bytes] = {}

    @property
    def capacity(self) -> int:
        return 1 << self.depth

    def check_range(self, index: int) -> None:
        if not 0 <= index < self.capacity:
            raise LeafRangeError(
                f"leaf index {index} outside [0, {self.capacity}) at depth {self.depth}"
            )

    def resolve(self, node_index: int) -> bytes:
        """Digest of a node: cached value, or the empty digest of its height
        when pruned. A node that is not an int in the heap [1, 2^(depth+1)) is
        rejected."""
        _check_index_type(node_index)
        if not 1 <= node_index < 2 << self.depth:
            raise LeafRangeError(
                f"node {node_index} outside [1, {2 << self.depth}) at depth {self.depth}"
            )
        digest = self.cache.get(node_index)
        if digest is None:
            return self.scheme.empty_chain[self.depth + 1 - node_index.bit_length()]
        return digest

    def root(self) -> bytes:
        return self.resolve(1)

    # -- whole-tree operations ----------------------------------------------

    def commit(self, entries: Mapping[int, bytes]) -> bytes:
        """Write every entry (insert-or-update) and return the new root."""
        from .batch import batch_update

        ops = []
        for index in sorted(entries):
            self.check_range(index)
            kind = OP_UPDATE if index in self.leaf_values else OP_INSERT
            ops.append(LeafOperation(kind, index, entries[index]))
        return batch_update(self, ops).new_root

    def member_witness_create(self, index: int) -> Witness:
        """Sibling path for a leaf slot, present or absent; pruned siblings
        resolve to the empty digests of their heights."""
        _check_index_type(index)
        self.check_range(index)
        get, node = self.cache.get, self.capacity + index
        siblings = []
        for empty in self.scheme.empty_chain[: self.depth]:  # heights 0 .. depth - 1
            siblings.append(get(node ^ 1, empty))
            node >>= 1
        return Witness(index, tuple(siblings))

    def clone(self) -> "SparseMerkleTree":
        """Independent copy sharing nothing mutable; used for run resets."""
        other = SparseMerkleTree.__new__(SparseMerkleTree)
        other.depth = self.depth
        other.scheme = self.scheme
        other.cache = dict(self.cache)
        other.leaf_values = dict(self.leaf_values)
        return other

    def export_snapshot(self) -> str:
        """`SNAPSHOT_HEADER`, then the leaves by ascending index: the cache follows from them."""
        leaves = [f"L {k} {v.hex()}\n" for k, v in sorted(self.leaf_values.items())]
        header = SNAPSHOT_HEADER.format(self.depth, self.scheme.scheme_id, self.root().hex())
        return header + "\n" + "".join(leaves)


def gen(depth: int, scheme: HashScheme = DEFAULT_SCHEME) -> SparseMerkleTree:
    """Empty tree of the given depth; its root is the all-default digest."""
    return SparseMerkleTree(depth, scheme)


def load_snapshot(text: str) -> SparseMerkleTree:
    """Rebuild a tree from `export_snapshot` output, and accept only the text
    it writes: each line, ending in "\n", must be what re-rendering its parsed
    values gives, and leaf indices must not descend. The header gives an
    empty tree; one `batch_update` inserts every leaf, its rules checking each
    line, and must reach the header's root. Each rejection names its line."""
    from .batch import BatchPreconditionError, batch_update

    header, *lines = text.removesuffix("\n").split("\n")
    fields, lineno, ops = header.split(" "), 1, []
    try:
        if fields[0] != _HEADER_NAMES[0]:
            raise ValueError(f"missing header, expected {SNAPSHOT_HEADER!r}")
        if fields[1:2] != _HEADER_NAMES[1:2]:
            raise ValueError(f"unknown snapshot version {' '.join(fields[1:2])!r}")
        if [field.partition("=")[0] for field in fields] != _HEADER_NAMES:
            raise ValueError(f"header fields differ from {SNAPSHOT_HEADER!r}")
        depth, scheme_id, root_hex = [field.partition("=")[2] for field in fields[2:]]
        tree = SparseMerkleTree(int(depth), HashScheme(scheme_id))
        root = bytes.fromhex(root_hex)
        if len(root) != DIGEST_SIZE:
            raise ValueError(f"root is {len(root)} bytes, expected {DIGEST_SIZE}")
        rendered = SNAPSHOT_HEADER.format(tree.depth, scheme_id, root.hex())
        if header != rendered:
            raise ValueError(f"not canonical, expected {rendered!r}")
        for lineno, line in enumerate(lines, start=2):
            parts = line.split(" ")
            if len(parts) != 3 or parts[0] != "L":
                raise ValueError("expected 'L <index> <hex>'")
            index, value = int(parts[1]), bytes.fromhex(parts[2])
            if line != f"L {index} {value.hex()}":
                raise ValueError(f"not canonical, expected 'L {index} {value.hex()}'")
            if ops and index < ops[-1].index:  # an equal index fails as a duplicate
                raise ValueError(f"leaf {index} follows leaf {ops[-1].index}")
            ops.append(LeafOperation.insert(index, value))
        if not text.endswith("\n"):
            raise ValueError("no newline at the end")
        rebuilt = batch_update(tree, ops).new_root
    except BatchPreconditionError as exc:
        raise SnapshotFormatError(f"snapshot line {exc.op_index + 2}: {exc.cause}") from exc
    except (ValueError, ConfigError) as exc:
        raise SnapshotFormatError(f"snapshot line {lineno}: {exc}") from exc
    if rebuilt != root:
        raise SnapshotFormatError(f"snapshot line 1: the leaves hash to {rebuilt.hex()}, not root")
    return tree


def member_verify(
    root: bytes,
    witness: Witness,
    value: bytes,
    depth: int,
    scheme: HashScheme = DEFAULT_SCHEME,
) -> bool:
    """Fold a leaf value up through the witness siblings and compare to root.

    Pure function of its arguments that never raises: a malformed witness,
    depth or value verifies false. That covers a witness that is not a
    `Witness`, a depth that is not an int (or is a bool) or lies outside
    [1, MAX_DEPTH], a leaf index that is not an int (or is a bool) or lies
    outside [0, 2^depth), siblings that are not a tuple or list of `depth`
    digests of the scheme's size, and a value that is not bytes.

    The default payload's leaf digest is the first entry of the scheme's
    `empty_chain`, and while every sibling so far is the empty digest of its
    height, so is the carried digest: an absence proof hashes only from the
    first non-empty sibling up. Each skip yields exactly the bytes the hash
    would.
    """
    if not isinstance(witness, Witness):
        return False
    index, siblings = witness.leaf_index, witness.siblings
    if (
        not _is_index(depth)
        or not 1 <= depth <= MAX_DEPTH
        or not _is_index(index)
        or not 0 <= index < 1 << depth
        or not isinstance(siblings, (tuple, list))
        or len(siblings) != depth
        or not isinstance(value, bytes)
    ):
        return False
    node_hash, leaf_hash = scheme.hasher
    height = 0
    if value == DEFAULT_PAYLOAD:
        chain = scheme.empty_chain
        for sibling in siblings:
            if not isinstance(sibling, bytes) or sibling != chain[height]:
                break
            height += 1
        digest = chain[height]
        index >>= height
    else:
        digest = leaf_hash(value)
    # Above the chain the carried digest never returns to it: only two empty
    # subtrees hash to an empty subtree's digest.
    for sibling in siblings[height:]:
        if not isinstance(sibling, bytes) or len(sibling) != DIGEST_SIZE:
            return False
        if index & 1:
            digest = node_hash(sibling, digest)
        else:
            digest = node_hash(digest, sibling)
        index >>= 1
    return digest == root


def non_member_verify(
    root: bytes, witness: Witness, depth: int, scheme: HashScheme = DEFAULT_SCHEME
) -> bool:
    """Absence proof: membership of the canonical default payload."""
    return member_verify(root, witness, DEFAULT_PAYLOAD, depth, scheme)


def check_consistency(tree: SparseMerkleTree) -> None:
    """Debug walker checking the cache invariant over the whole tree.

    Valid only at public-operation boundaries (no stale nodes). Raises
    ConsistencyError on the first violation.
    """
    top, chain = 2 << tree.depth, tree.scheme.empty_chain
    for node, digest in tree.cache.items():
        if not 1 <= node < top:
            raise ConsistencyError(f"cache key {node} out of heap range")
        if node > 1 and node >> 1 not in tree.cache:
            # A non-default child makes its parent non-default too.
            raise ConsistencyError(f"node {node} cached under pruned parent {node >> 1}")
        height = tree.depth + 1 - node.bit_length()
        if height:
            # Internal empty digests must be pruned.
            if digest == chain[height]:
                raise ConsistencyError(f"default digest cached at {node}")
            expect = hash_node(tree.scheme, tree.resolve(2 * node), tree.resolve(2 * node + 1))
            if digest != expect:
                raise ConsistencyError(f"stale internal node {node}")
        else:
            leaf = node - tree.capacity
            if leaf not in tree.leaf_values:
                raise ConsistencyError(f"leaf digest cached for absent leaf {leaf}")
    for leaf, value in tree.leaf_values.items():
        if tree.cache.get(tree.capacity + leaf) != hash_leaf(tree.scheme, value):
            raise ConsistencyError(f"leaf {leaf} digest missing or stale")
