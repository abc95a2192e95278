"""The two root-hash engines.

`batch_update` is the one-phase engine: write every leaf, charging O(1) per
update or remove and O(log n) per insert, then sweep the dirty nodes level
by level bottom-up until the root is rewritten. The sweep carries each
level's fresh digests up with its ascending node list: adjacent siblings 2p
and 2p+1 hash from the carried digests, a lone dirty child reads only its
clean sibling from the cache, and each level's parents come out ascending
and duplicate-free. Each affected path is walked once.

`two_phase_update` is the baseline it is measured against: a full root-to-leaf
traversal per operation to mutate the leaf, then a recursive top-down rehash
of the stale paths, so every affected path is walked twice.

Both engines check and write each leaf through `_write_leaf`; only what they
charge for it and how they rehash differ. Both produce bytewise-identical
roots, final tree states, and hash counts on the same inputs; the difference
the benchmarks measure is traversal work. Both run on the calling thread.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .counters import CounterSet
from .smt_core import (
    DefaultPayloadError,
    DuplicateLeafError,
    LeafOperation,
    MissingLeafError,
    OpKind,
    SmtError,
    SparseMerkleTree,
    level_of,
)

OBU = "obu"
TWO_PHASE = "two-phase"


class BatchPreconditionError(SmtError):
    """An operation's precondition failed mid-batch; the tree was rolled back
    to its pre-batch state."""

    def __init__(self, op_index: int, cause: SmtError) -> None:
        super().__init__(f"operation {op_index} rejected: {cause}")
        self.op_index = op_index
        self.cause = cause

    def __reduce__(self):
        return self.__class__, (self.op_index, self.cause)


@dataclass
class BatchResult:
    new_root: bytes
    counters: CounterSet
    engine: str
    # Ascending heap indices rehashed per level, bottom-up; recorded by the
    # one-phase engine so schedules can be asserted and compared.
    level_work_lists: list[list[int]] | None = None


# -- shared leaf-phase mechanics ---------------------------------------------

# Undo records: (index, old_value, old_digest), both None when the leaf was absent.
_Journal = list[tuple[int, bytes | None, bytes | None]]


def _rollback(tree: SparseMerkleTree, journal: _Journal) -> None:
    for index, value, digest in reversed(journal):
        heap = tree.leaf_heap_index(index)
        if value is None:
            del tree.leaf_values[index]
            del tree.cache[heap]
        else:
            tree.leaf_values[index] = value
            tree.cache[heap] = digest


def _write_leaf(tree: SparseMerkleTree, op: LeafOperation, journal: _Journal) -> None:
    """Check one op's preconditions, record its undo state, then write or
    delete its leaf digest; ancestors stay stale for the engine's hash phase.
    Raises before mutating."""
    index, value = op.index, op.value
    old_value = tree.leaf_values.get(index)
    if op.kind is OpKind.INSERT:
        tree.check_range(index)
        if old_value is not None:
            raise DuplicateLeafError(f"leaf {index} already present")
    elif old_value is None:
        raise MissingLeafError(f"leaf {index} not present")
    if value == tree.scheme.default_payload:  # a remove's value is None
        raise DefaultPayloadError(f"leaf {index} would hold the default payload")
    heap = tree.capacity + index
    journal.append((index, old_value, tree.cache.get(heap)))
    if value is None:
        del tree.leaf_values[index]
        del tree.cache[heap]
    else:
        tree.leaf_values[index] = value
        tree.cache[heap] = tree.scheme.hasher.leaf(value)


# -- one-phase batch update ----------------------------------------------------


def batch_update(tree: SparseMerkleTree, ops: list[LeafOperation]) -> BatchResult:
    """One-phase engine: a leaf phase charging one visit per update or
    remove and `depth` per insert, then a bottom-up level sweep carrying fresh
    digests and rehashing exactly the dirty nodes. Aborting ops roll the tree
    back untouched."""
    counters = CounterSet()
    if not ops:
        return BatchResult(tree.root(), counters, OBU, [])

    started = time.perf_counter_ns()
    touched: set[int] = set()
    hashed_leaves: set[int] = set()
    journal: _Journal = []
    cache, depth, leaf_base = tree.cache, tree.depth, tree.capacity
    visits = 0
    for op_index, op in enumerate(ops):
        try:
            _write_leaf(tree, op, journal)
        except SmtError as exc:
            _rollback(tree, journal)
            raise BatchPreconditionError(op_index, exc) from exc
        node = leaf_base + op.index
        if op.kind is OpKind.INSERT:
            visits += depth
            parent = node >> 1
            while parent > 1:  # read-only probes: an insert stays O(log n) lookups
                parent in cache
                parent >>= 1
        else:
            visits += 1
        if op.kind is not OpKind.REMOVE:
            hashed_leaves.add(op.index)
        touched.add(node)
    counters.leaf_phase_visits = visits
    counters.leaf_phase_nanos = time.perf_counter_ns() - started

    started = time.perf_counter_ns()
    defaults = tree.defaults
    node_hash, get = tree.scheme.hasher.node, cache.get
    # The touched leaf slots are the schedule's first level; each level below
    # appends its parents, bottom-up. A removed leaf carries the default digest.
    nodes = sorted(touched)
    digests = [get(node, defaults[depth]) for node in nodes]
    work_lists: list[list[int]] = [nodes]
    rehashed = 0
    for level in range(depth - 1, -1, -1):
        # Parents of the dirty `nodes` (ascending, distinct), hashed from their
        # fresh `digests`; only a lone child's clean sibling is read from the cache.
        child_default, own_default = defaults[level + 1], defaults[level]
        parents: list[int] = []
        fresh: list[bytes] = []
        i, count = 0, len(nodes)
        while i < count:
            node = nodes[i]
            if node & 1:  # lone right child
                digest = node_hash(get(node - 1, child_default), digests[i])
                i += 1
            elif i + 1 < count and nodes[i + 1] == node + 1:  # both siblings dirty
                digest = node_hash(digests[i], digests[i + 1])
                i += 2
            else:  # lone left child
                digest = node_hash(digests[i], get(node + 1, child_default))
                i += 1
            parent = node >> 1
            if digest == own_default:
                cache.pop(parent, None)  # all-default subtree prunes away
            else:
                cache[parent] = digest
            parents.append(parent)
            fresh.append(digest)
        nodes, digests = parents, fresh
        work_lists.append(nodes)
        rehashed += len(nodes)
    counters.hash_phase_nanos = time.perf_counter_ns() - started
    counters.node_visits = visits + rehashed
    counters.hash_invocations = len(hashed_leaves) + rehashed
    counters.levels_processed = depth
    return BatchResult(tree.root(), counters, OBU, work_lists)


# -- two-phase baseline --------------------------------------------------------


def two_phase_update(tree: SparseMerkleTree, ops: list[LeafOperation]) -> BatchResult:
    """Baseline engine: phase 1 charges a full root-to-leaf traversal for
    every operation (the benchmark system's O(log n) update) and marks the
    path stale; phase 2 recursively rehashes stale paths top-down."""
    counters = CounterSet()
    if not ops:
        return BatchResult(tree.root(), counters, TWO_PHASE)

    started = time.perf_counter_ns()
    stale: set[int] = set()
    hashed_leaves: set[int] = set()
    journal: _Journal = []
    for op_index, op in enumerate(ops):
        try:
            _write_leaf(tree, op, journal)
        except SmtError as exc:
            _rollback(tree, journal)
            raise BatchPreconditionError(op_index, exc) from exc
        counters.node_visits += tree.depth
        if op.kind is not OpKind.REMOVE:
            hashed_leaves.add(op.index)
        node = tree.leaf_heap_index(op.index)
        while node >= 1:
            stale.add(node)
            node >>= 1
    counters.leaf_phase_visits = counters.node_visits
    counters.leaf_phase_nanos = time.perf_counter_ns() - started

    started = time.perf_counter_ns()
    new_root = _rehash_recursive(tree, 1, stale, counters)
    counters.hash_phase_nanos = time.perf_counter_ns() - started
    counters.hash_invocations += len(hashed_leaves)
    counters.levels_processed = tree.depth
    return BatchResult(new_root, counters, TWO_PHASE)


def _rehash_recursive(
    tree: SparseMerkleTree,
    node: int,
    stale: set[int],
    counters: CounterSet,
) -> bytes:
    counters.node_visits += 1  # the recursion entered this node
    if node not in stale:
        return tree.resolve(node)
    level = level_of(node)
    if level == tree.depth:
        # Leaf digest was written (or pruned away) in phase 1.
        return tree.resolve(node)
    left = _rehash_recursive(tree, 2 * node, stale, counters)
    right = _rehash_recursive(tree, 2 * node + 1, stale, counters)
    digest = tree.scheme.hasher.node(left, right)
    if digest == tree.defaults[level]:
        tree.cache.pop(node, None)
    else:
        tree.cache[node] = digest
    counters.hash_invocations += 1
    return digest
