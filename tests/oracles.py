"""Independent reference implementations the engine tests check against.

Nothing here touches the tree cache, the default-digest table, or either
engine: roots come from plain recursion over the whole index space, ancestor
sets from per-leaf heap walks. Only the two hash primitives are shared, and
those are pinned against openssl-derived constants in test_hasher. The book
replay shares decomposition with the library but decodes every payload, with
the codec test_account_model pins.
"""

from __future__ import annotations

import random

from smtbench.account_model import decode_account
from smtbench.hasher import DEFAULT_SCHEME, HashScheme, hash_leaf, hash_node
from smtbench.smt_core import LeafOperation, OpKind
from smtbench.workload import tx_to_leaf_ops


def naive_root(depth: int, leaves: dict[int, bytes], scheme: HashScheme = DEFAULT_SCHEME) -> bytes:
    """Root by full recursion; absent leaves hash the default payload."""

    def rec(node: int) -> bytes:
        level = node.bit_length() - 1
        if level == depth:
            value = leaves.get(node - (1 << depth), scheme.default_payload)
            return hash_leaf(scheme, value)
        return hash_node(scheme, rec(2 * node), rec(2 * node + 1))

    return rec(1)


def fold_witness(
    index: int, siblings, value: bytes, scheme: HashScheme = DEFAULT_SCHEME
) -> list[bytes]:
    """Digests a witness folds `value` at leaf `index` through, by height: a
    plain fold with one hash per level and no shortcut for empty subtrees.
    The last entry is the root the witness claims."""
    path = [hash_leaf(scheme, value)]
    for sibling in siblings:
        if index & 1:
            path.append(hash_node(scheme, sibling, path[-1]))
        else:
            path.append(hash_node(scheme, path[-1], sibling))
        index >>= 1
    return path


def empty_digests(depth: int, scheme: HashScheme = DEFAULT_SCHEME) -> list[bytes]:
    """Digest of an all-empty subtree by height, 0 (a default leaf) to depth."""
    out = [hash_leaf(scheme, scheme.default_payload)]
    for _ in range(depth):
        out.append(hash_node(scheme, out[-1], out[-1]))
    return out


def ancestor_union(depth: int, leaf_indices) -> set[int]:
    """Heap indices of every proper ancestor (root inclusive) of the leaves."""
    out: set[int] = set()
    base = 1 << depth
    for leaf in leaf_indices:
        node = (base + leaf) >> 1
        while node >= 1:
            out.add(node)
            node >>= 1
    return out


def final_leaves(initial: dict[int, bytes], ops: list[LeafOperation]) -> dict[int, bytes]:
    """Replay operation semantics on a plain dict."""
    out = dict(initial)
    for op in ops:
        if op.kind is OpKind.REMOVE:
            del out[op.index]
        else:
            out[op.index] = op.value
    return out


def decode_apply(book, ops: list[LeafOperation]) -> None:
    """`apply_leaf_ops` as a plain decode of every payload, ignoring the
    accounts the book recorded while encoding."""
    for op in ops:
        if op.kind is OpKind.REMOVE:
            del book.accounts[op.index]
        else:
            book.accounts[op.index] = decode_account(op.value, op.index)


def decode_replay(blocks, book) -> list[list[LeafOperation]]:
    """Each block's ops, decomposed in order and applied with `decode_apply`."""
    out = []
    for block in blocks:
        block_ops: list[LeafOperation] = []
        for tx in block.txs:
            ops = tx_to_leaf_ops(tx, book)
            decode_apply(book, ops)
            block_ops.extend(ops)
        out.append(block_ops)
    return out


def _payload(rng: random.Random) -> bytes:
    # A present leaf may not hold the default payload b"": the draw that would
    # give it becomes b"\x00", so every seeded stream stays the same.
    return rng.randbytes(rng.randrange(12)) or b"\x00"


def random_case(
    rng: random.Random,
    depth: int,
    max_initial: int = 16,
    max_ops: int = 64,
) -> tuple[dict[int, bytes], list[LeafOperation]]:
    """A pre-populated leaf map plus a mixed op list whose preconditions hold
    when applied left to right."""
    capacity = 1 << depth
    initial: dict[int, bytes] = {}
    for _ in range(rng.randrange(max_initial + 1)):
        initial[rng.randrange(capacity)] = _payload(rng)
    present = set(initial)
    ops: list[LeafOperation] = []
    for _ in range(rng.randrange(max_ops + 1)):
        roll = rng.random()
        can_insert = len(present) < capacity
        if present and (roll < 0.40 or (not can_insert and roll < 0.80)):
            ops.append(LeafOperation.update(rng.choice(sorted(present)), _payload(rng)))
        elif present and (roll < 0.55 or not can_insert):
            index = rng.choice(sorted(present))
            present.discard(index)
            ops.append(LeafOperation.remove(index))
        else:
            index = rng.randrange(capacity)
            while index in present:
                index = rng.randrange(capacity)
            present.add(index)
            ops.append(LeafOperation.insert(index, _payload(rng)))
    return initial, ops
