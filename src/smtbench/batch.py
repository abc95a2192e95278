"""The two root-hash engines.

`batch_update` is the one-phase engine: write every leaf, charging O(1) per
update or remove and O(log n) per insert, then sweep the dirty nodes level
by level bottom-up until the root is rewritten. The sweep carries each
level's fresh digests up with its ascending node list: adjacent siblings 2p
and 2p+1 hash from the carried digests, a lone dirty child reads only its
clean sibling from the cache, and each level's parents come out ascending
and duplicate-free. Once one dirty node is left, above the paths' last
merge, the sweep climbs its path alone, one hash per level, and returns the
root digest it computed. Each affected path is walked once.

`two_phase_update` is the baseline it is measured against: a full root-to-leaf
traversal per operation to mutate the leaf, then a recursive top-down rehash
of the stale paths, so every affected path is walked twice.

Both engines check, write and, on a failed precondition, undo a batch's
leaves through one `_write_leaves` call; only what they charge for it and how
they rehash differ. Both produce bytewise-identical roots, final tree states,
and hash counts on the same inputs; the difference the benchmarks measure is
traversal work. Both run on the calling thread.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .counters import CounterSet
from .smt_core import (
    OP_INSERT,
    DefaultPayloadError,
    DuplicateLeafError,
    LeafOperation,
    MissingLeafError,
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


# -- shared leaf phase -------------------------------------------------------


def _write_leaves(tree: SparseMerkleTree, ops: list[LeafOperation]) -> dict[int, bytes | None]:
    """Check each op's preconditions and write or delete its leaf value, in
    order; then, once every op has passed, hash each dirty slot's final value
    once into the cache. Ancestors stay stale for the engine's hash phase.
    Returns the dirty leaf slots: heap index -> new leaf digest, or None where
    the slot's last op removed it. On the first failing op, which has mutated
    nothing, every earlier value write is undone and BatchPreconditionError is
    raised; the cache was never touched."""
    values, leaf_base, default = tree.leaf_values, tree.capacity, tree.scheme.default_payload
    # Undo records: (index, old_value), None when the leaf was absent.
    journal: list[tuple[int, bytes | None]] = []
    written: dict[int, bytes | None] = {}
    try:
        for op in ops:
            index, value = op.index, op.value
            old_value = values.get(index)
            if op.kind is OP_INSERT:
                tree.check_range(index)
                if old_value is not None:
                    raise DuplicateLeafError(f"leaf {index} already present")
            elif old_value is None:
                raise MissingLeafError(f"leaf {index} not present")
            if value == default:  # a remove's value is None
                raise DefaultPayloadError(f"leaf {index} would hold the default payload")
            journal.append((index, old_value))
            if value is None:
                del values[index]
            else:
                values[index] = value
            written[leaf_base + index] = value
    except SmtError as exc:
        for index, value in reversed(journal):
            if value is None:
                del values[index]
            else:
                values[index] = value
        raise BatchPreconditionError(len(journal), exc) from exc
    cache, leaf_hash = tree.cache, tree.scheme.hasher.leaf
    for heap, value in written.items():  # rewrites values in place, never keys
        if value is None:
            cache.pop(heap, None)
        else:
            cache[heap] = written[heap] = leaf_hash(value)
    return written


def _hashed_leaf_count(ops: list[LeafOperation]) -> int:
    """Distinct leaves a batch writes a value to: each counts once, however
    often it was rewritten. A leaf written and then removed in one batch is
    counted, though `_write_leaves` never hashes it."""
    return len({op.index for op in ops if op.value is not None})


# -- one-phase batch update ----------------------------------------------------


def batch_update(tree: SparseMerkleTree, ops: list[LeafOperation]) -> BatchResult:
    """One-phase engine: a leaf phase charging one visit per update or
    remove and `depth` per insert, then a bottom-up level sweep carrying fresh
    digests and rehashing exactly the dirty nodes. The level loop runs while
    two or more dirty nodes are left; from the last one the sweep climbs
    alone to the root, whose digest it returns as `new_root`. Aborting ops
    roll the tree back untouched."""
    counters = CounterSet()
    if not ops:
        return BatchResult(tree.root(), counters, OBU, [])

    started = time.perf_counter_ns()
    written = _write_leaves(tree, ops)
    cache, depth, leaf_base = tree.cache, tree.depth, tree.capacity
    inserts = 0
    for op in ops:
        if op.kind is OP_INSERT:
            inserts += 1
            parent = (leaf_base + op.index) >> 1
            while parent > 1:  # read-only probes: an insert stays O(log n) lookups
                parent in cache
                parent >>= 1
    visits = len(ops) + (depth - 1) * inserts
    hashed_leaves = _hashed_leaf_count(ops)
    counters.leaf_phase_visits = visits
    counters.leaf_phase_nanos = time.perf_counter_ns() - started

    started = time.perf_counter_ns()
    defaults = tree.defaults
    node_hash, get = tree.scheme.hasher.node, cache.get
    # The dirty leaf slots are the schedule's first level; each level below
    # appends its parents, bottom-up. A removed leaf carries the default digest.
    nodes = sorted(written)
    digests = [written[node] or defaults[depth] for node in nodes]
    work_lists: list[list[int]] = [nodes]
    rehashed = 0
    level = depth  # the level `nodes` sit on
    while len(nodes) > 1:
        # Parents of the dirty `nodes` (ascending, distinct), hashed from their
        # fresh `digests`; only a lone child's clean sibling is read from the cache.
        level -= 1
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
    # Above the last merge one dirty node is left: climb its path alone.
    node, digest = nodes[0], digests[0]
    rehashed += level
    for level in range(level - 1, -1, -1):
        sibling = get(node ^ 1, defaults[level + 1])
        digest = node_hash(sibling, digest) if node & 1 else node_hash(digest, sibling)
        node >>= 1
        if digest == defaults[level]:
            cache.pop(node, None)
        else:
            cache[node] = digest
        work_lists.append([node])
    counters.hash_phase_nanos = time.perf_counter_ns() - started
    counters.node_visits = visits + rehashed
    counters.hash_invocations = hashed_leaves + rehashed
    counters.levels_processed = depth
    return BatchResult(digest, counters, OBU, work_lists)


# -- two-phase baseline --------------------------------------------------------


def two_phase_update(tree: SparseMerkleTree, ops: list[LeafOperation]) -> BatchResult:
    """Baseline engine: phase 1 charges a full root-to-leaf traversal for
    every operation (the benchmark system's O(log n) update) and marks the
    path stale; phase 2 recursively rehashes stale paths top-down."""
    counters = CounterSet()
    if not ops:
        return BatchResult(tree.root(), counters, TWO_PHASE)

    started = time.perf_counter_ns()
    _write_leaves(tree, ops)
    leaf_base = tree.capacity
    stale: set[int] = set()
    mark = stale.add
    for op in ops:
        node = leaf_base + op.index
        while node >= 1:
            mark(node)
            node >>= 1
    hashed_leaves = _hashed_leaf_count(ops)
    counters.leaf_phase_visits = counters.node_visits = tree.depth * len(ops)
    counters.leaf_phase_nanos = time.perf_counter_ns() - started

    started = time.perf_counter_ns()
    new_root = _rehash_recursive(tree, 1, stale, counters)
    counters.hash_phase_nanos = time.perf_counter_ns() - started
    counters.hash_invocations += hashed_leaves
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
