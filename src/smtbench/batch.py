"""The two root-hash engines.

`batch_update` is the one-phase engine: write every leaf, charging O(1) per
update or remove and the cost model's O(log n) per insert, whose path the
leaf phase never reads, then sweep the dirty nodes bottom-up level by level
to the root. The sweep carries each level's fresh digests up with its
ascending node list: adjacent siblings 2p and 2p+1 hash from the carried
digests, a lone dirty child reads only its clean sibling from the cache, and
each level's parents come out ascending and duplicate-free. Above the paths'
last merge the one dirty node left climbs alone, one hash per level, and the
sweep returns the root digest it computed. Each affected path is walked once,
in the order `sweep_schedule` gives, which the engine never builds.

`two_phase_update` is the baseline it is measured against: a full root-to-leaf
traversal per operation, then a recursive top-down rehash of the stale
internal nodes, so every affected path is walked twice.

Both engines check and write a batch's leaves through one `_write_leaves`
call, then rehash through the same bound primitives: `get(node,
empty[height])` for a node they do not rehash, where `empty` is the scheme's
`empty_chain` and height 0 is a leaf, `node_hash` for one they do, and one
prune-or-write rule. Only their leaf-phase charge and traversal
differ, so on the same inputs they give bytewise-identical roots, final tree
states and hash counts. Both run on the calling thread.
"""

from __future__ import annotations

import time
from collections.abc import Collection
from dataclasses import dataclass

from .hasher import DEFAULT_PAYLOAD
from .smt_core import (
    OP_INSERT,
    DefaultPayloadError,
    DuplicateLeafError,
    LeafOperation,
    MissingLeafError,
    SmtError,
    SparseMerkleTree,
)

OBU = "obu"
TWO_PHASE = "two-phase"


class BatchPreconditionError(SmtError):
    """An operation's precondition failed; the batch was checked in full
    before any write, so the tree is as it was before the batch."""

    def __init__(self, op_index: int, cause: SmtError) -> None:
        super().__init__(f"operation {op_index} rejected: {cause}")
        self.op_index = op_index
        self.cause = cause

    def __reduce__(self):
        return self.__class__, (self.op_index, self.cause)


@dataclass
class CounterSet:
    """Work counters for one engine run, written only by the engine that
    owns them.

    node_visits follows the library's visit convention: one visit is one
    cache lookup-or-write on a node index performed by the operation's own
    control flow, save that an `obu` insert is charged its path's `depth`
    visits, the cost model's O(log n), though its leaf phase reads no
    ancestor: the sweep hashes and writes that path. hash_invocations counts
    the hasher calls the engine makes: one leaf hash per slot that holds a
    value after the batch (however often it was rewritten) plus one node hash
    per ancestor rehashed. Wall times are nanoseconds, excluded from
    determinism comparisons.
    """

    node_visits: int = 0
    hash_invocations: int = 0
    leaf_phase_visits: int = 0
    leaf_phase_nanos: int = 0
    hash_phase_nanos: int = 0
    levels_processed: int = 0


def sweep_schedule(leaves: Collection[int]) -> list[list[int]]:
    """The nodes a batch writes, per level bottom-up, each level ascending:
    level h is `sorted({leaf >> h})` over the dirty leaves' heap indices, from
    the leaves themselves (h = 0) to the root (h = depth), where `depth` is a
    leaf's `bit_length() - 1`. No leaves give no levels."""
    if not leaves:
        return []
    depth = next(iter(leaves)).bit_length() - 1
    return [sorted({leaf >> height for leaf in leaves}) for height in range(depth + 1)]


@dataclass
class BatchResult:
    new_root: bytes
    counters: CounterSet
    dirty_leaves: Collection[int]  # heap indices of the slots the batch wrote

    @property
    def level_work_lists(self) -> list[list[int]]:
        """`sweep_schedule` of the dirty leaves: the nodes either engine wrote,
        per level bottom-up. No engine records it; each read computes it
        afresh, O(k·depth) for k dirty leaves (milliseconds for a 1,024-leaf
        batch at depth 24), so never read it inside a timed region."""
        return sweep_schedule(self.dirty_leaves)


# -- shared leaf phase -------------------------------------------------------


def _write_leaves(
    tree: SparseMerkleTree, ops: list[LeafOperation]
) -> tuple[dict[int, bytes | None], int, int]:
    """Check every op's preconditions in order, reading the tree through the
    batch's own earlier ops, and write nothing while checking; a failing op
    raises BatchPreconditionError with the tree untouched. Then write each
    dirty slot's final value and hash it once into the cache. Ancestors stay
    stale for the engine's hash phase. Returns the dirty leaf slots, heap
    index -> new leaf digest or None where the slot's last op removed it, the
    number of leaf hashes made and the number of insert ops."""
    values, leaf_base, default = tree.leaf_values, tree.capacity, DEFAULT_PAYLOAD
    # Leaf index -> the slot's value so far in this batch, None when removed.
    # Keyed by the ops' own index objects, which `leaf_values` then shares.
    written: dict[int, bytes | None] = {}
    inserts = 0
    try:
        for op_index, op in enumerate(ops):
            index, value = op.index, op.value
            present = written[index] is not None if index in written else index in values
            if op.kind is OP_INSERT:
                tree.check_range(index)
                if present:
                    raise DuplicateLeafError(f"leaf {index} already present")
                inserts += 1
            elif not present:
                raise MissingLeafError(f"leaf {index} not present")
            if value == default:  # a remove's value is None
                raise DefaultPayloadError(f"leaf {index} would hold the default payload")
            written[index] = value
    except SmtError as exc:
        raise BatchPreconditionError(op_index, exc) from exc
    cache, leaf_hash = tree.cache, tree.scheme.hasher.leaf
    dirty: dict[int, bytes | None] = {}
    removed = 0
    for index, value in written.items():
        heap = leaf_base + index
        if value is None:
            values.pop(index, None)
            cache.pop(heap, None)
            dirty[heap] = None
            removed += 1
        else:
            values[index] = value
            cache[heap] = dirty[heap] = leaf_hash(value)
    return dirty, len(written) - removed, inserts


# -- one-phase batch update ----------------------------------------------------


def batch_update(tree: SparseMerkleTree, ops: list[LeafOperation]) -> BatchResult:
    """One-phase engine: a leaf phase charging one visit per update or
    remove and `depth` per insert, for a path it never reads, then a
    bottom-up level sweep carrying fresh digests and rehashing exactly the
    dirty nodes. The level loop runs while two or more dirty nodes are left;
    from the last one the sweep climbs alone to the root, whose digest it
    returns as `new_root`. A failing op leaves the tree untouched."""
    counters = CounterSet()
    if not ops:
        return BatchResult(tree.root(), counters, ())

    started = time.perf_counter_ns()
    written, hashed_leaves, inserts = _write_leaves(tree, ops)
    depth = tree.depth
    counters.leaf_phase_visits = visits = len(ops) + (depth - 1) * inserts
    counters.leaf_phase_nanos = time.perf_counter_ns() - started

    started = time.perf_counter_ns()
    cache, empty = tree.cache, tree.scheme.empty_chain
    node_hash, get = tree.scheme.hasher.node, cache.get
    # The dirty leaf slots are the schedule's first level; a removed leaf
    # carries the empty digest.
    nodes = sorted(written)
    digests = [written[node] or empty[0] for node in nodes]
    rehashed = 0
    height = 0  # the height `nodes` sit at
    while len(nodes) > 1:
        # Parents of the dirty `nodes` (ascending, distinct), hashed from their
        # fresh `digests`; only a lone child's clean sibling is read from the cache.
        child_empty, own_empty = empty[height], empty[height + 1]
        height += 1
        parents: list[int] = []
        fresh: list[bytes] = []
        i, count = 0, len(nodes)
        while i < count:
            node = nodes[i]
            if node & 1:  # lone right child
                digest = node_hash(get(node - 1, child_empty), digests[i])
                i += 1
            elif i + 1 < count and nodes[i + 1] == node + 1:  # both siblings dirty
                digest = node_hash(digests[i], digests[i + 1])
                i += 2
            else:  # lone left child
                digest = node_hash(digests[i], get(node + 1, child_empty))
                i += 1
            parent = node >> 1
            if digest == own_empty:
                cache.pop(parent, None)  # all-default subtree prunes away
            else:
                cache[parent] = digest
            parents.append(parent)
            fresh.append(digest)
        nodes, digests = parents, fresh
        rehashed += len(nodes)
    # Above the last merge one dirty node is left: climb its path alone.
    node, digest = nodes[0], digests[0]
    rehashed += depth - height
    for height in range(height, depth):
        sibling = get(node ^ 1, empty[height])
        digest = node_hash(sibling, digest) if node & 1 else node_hash(digest, sibling)
        node >>= 1
        if digest == empty[height + 1]:
            cache.pop(node, None)
        else:
            cache[node] = digest
    counters.hash_phase_nanos = time.perf_counter_ns() - started
    counters.node_visits = visits + rehashed
    counters.hash_invocations = hashed_leaves + rehashed
    counters.levels_processed = depth
    return BatchResult(digest, counters, written.keys())


# -- two-phase baseline --------------------------------------------------------


def two_phase_update(tree: SparseMerkleTree, ops: list[LeafOperation]) -> BatchResult:
    """Baseline engine: phase 1 charges a full root-to-leaf traversal for
    every operation (the benchmark system's O(log n) update) and marks its
    `depth` internal ancestors stale; phase 2 rehashes exactly those top-down.
    The recursion counts nothing: its visits and hashes follow from the stale
    set once it returns."""
    counters = CounterSet()
    if not ops:
        return BatchResult(tree.root(), counters, ())

    started = time.perf_counter_ns()
    dirty, hashed_leaves, _ = _write_leaves(tree, ops)
    depth, leaf_base = tree.depth, tree.capacity
    stale: set[int] = set()
    mark = stale.add
    for op in ops:
        node = (leaf_base + op.index) >> 1
        while node:
            mark(node)
            node >>= 1
    counters.leaf_phase_visits = counters.node_visits = depth * len(ops)
    counters.leaf_phase_nanos = time.perf_counter_ns() - started

    started = time.perf_counter_ns()
    cache, empty = tree.cache, tree.scheme.empty_chain
    node_hash, get = tree.scheme.hasher.node, cache.get

    def rehash(node: int, height: int) -> bytes:
        if node not in stale:  # clean, or a leaf written in phase 1
            return get(node, empty[height])
        digest = node_hash(rehash(2 * node, height - 1), rehash(2 * node + 1, height - 1))
        if digest == empty[height]:
            cache.pop(node, None)  # all-default subtree prunes away
        else:
            cache[node] = digest
        return digest

    new_root = rehash(1, depth)
    counters.hash_phase_nanos = time.perf_counter_ns() - started
    # Every stale node's parent is stale, so the recursion entered the root
    # and both children of each stale node, and hashed each stale node once.
    counters.node_visits += 1 + 2 * len(stale)
    counters.hash_invocations = hashed_leaves + len(stale)
    counters.levels_processed = depth
    return BatchResult(new_root, counters, dirty.keys())
