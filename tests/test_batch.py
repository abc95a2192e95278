import hashlib
import itertools
import pickle
import random
from types import SimpleNamespace

import pytest

from smtbench import batch
from smtbench.batch import (
    OBU,
    TWO_PHASE,
    BatchPreconditionError,
    batch_update,
    two_phase_update,
)
from smtbench.hasher import BoundHasher, HashScheme
from smtbench.smt_core import (
    DefaultPayloadError,
    LeafOperation,
    MissingLeafError,
    OpKind,
    check_consistency,
    gen,
    level_of,
)

from oracles import ancestor_union, final_leaves, naive_root, random_case

ENGINES = (batch_update, two_phase_update)


def populated(depth: int, leaves: dict[int, bytes]):
    tree = gen(depth)
    tree.commit(leaves)
    return tree


def updates(indices, tag=b"u"):
    return [LeafOperation.update(i, tag + bytes([i % 256])) for i in indices]


# -- engine contract ---------------------------------------------------------------


def test_empty_batch_is_noop():
    tree = gen(4)
    root = tree.root()
    for engine in ENGINES:
        result = engine(tree, [])
        assert result.new_root == root
        assert result.counters.node_visits == 0
        assert result.counters.hash_invocations == 0
        assert result.counters.levels_processed == 0
    assert batch_update(tree, []).level_work_lists == []


# -- phase accounting --------------------------------------------------------------


def test_level_monotonicity_of_work_lists():
    rng = random.Random(5)
    initial, ops = random_case(rng, 7, max_initial=16, max_ops=40)
    tree = populated(7, initial)
    result = batch_update(tree, ops)
    if ops:
        for sweep, work in enumerate(result.level_work_lists):
            assert work == sorted(work)
            assert {level_of(i) for i in work} == {7 - sweep}
    assert two_phase_update(tree, []).level_work_lists is None


@pytest.mark.parametrize("engine", ENGINES, ids=[OBU, TWO_PHASE])
def test_phase_timers_each_time_their_own_phase(engine, monkeypatch):
    # A clock that steps by one per read: each phase reads it at its start and
    # at its end, and nowhere else. perfbench's fixed cost is the call time
    # minus these two phases, so each must cover exactly its own.
    monkeypatch.setattr(batch, "time", SimpleNamespace(perf_counter_ns=itertools.count().__next__))
    tree = populated(6, {1: b"a"})
    counters = engine(tree, [LeafOperation.update(1, b"b"), LeafOperation.insert(9, b"c")]).counters
    assert (counters.leaf_phase_nanos, counters.hash_phase_nanos) == (1, 1)


# -- digest-carrying sweep ------------------------------------------------------------


def assert_sweep_matches_oracles(depth, initial, ops, result):
    internal = result.level_work_lists[1:]
    for work in result.level_work_lists:
        assert work == sorted(set(work))  # ascending, no parent repeats
    touched = {op.index for op in ops}
    assert {n for work in internal for n in work} == ancestor_union(depth, touched)
    assert result.new_root == naive_root(depth, final_leaves(initial, ops))


# 65 leaves: lone left children around the pair 64/65, which sits at the
# midpoint of the touched list.
_PAIR_AMID_LONE_LEFTS = list(range(0, 64, 2)) + [64, 65] + list(range(68, 130, 2))


@pytest.mark.parametrize(
    "depth, indices",
    [(4, [4]), (4, [5]), (4, [4, 5]), (4, [0, 3, 4, 5, 6, 15]), (8, _PAIR_AMID_LONE_LEFTS)],
    ids=["left-only", "right-only", "both-dirty", "mixed", "pair-amid-lone-lefts"],
)
def test_sweep_sibling_cases(depth, indices):
    # Every leaf is present, so a lone child's clean sibling is a real digest
    # that the sweep must read from the cache, not a default.
    initial = {i: b"v" + bytes([i % 256]) for i in range(1 << depth)}
    tree = populated(depth, initial)
    ops = updates(indices)
    result = batch_update(tree, ops)
    assert_sweep_matches_oracles(depth, initial, ops, result)
    check_consistency(tree)


@pytest.mark.parametrize("engine", ENGINES, ids=[OBU, TWO_PHASE])
def test_removals_prune_subtree_to_defaults(engine):
    depth = 6
    initial = {i: bytes([i]) for i in range(8, 16)} | {40: b"keep"}
    tree = populated(depth, initial)
    ops = [LeafOperation.remove(i) for i in range(8, 16)] + [LeafOperation.update(40, b"new")]
    result = engine(tree, ops)
    assert tree.cache == populated(depth, {40: b"new"}).cache
    assert result.new_root == naive_root(depth, {40: b"new"})
    if engine is batch_update:
        assert_sweep_matches_oracles(depth, initial, ops, result)


@pytest.mark.parametrize(
    "updated, inserted",
    [(range(700), ()), (range(0, 1800, 2), range(1, 600, 2))],
    ids=["700-adjacent-updates", "900-even-updates-300-odd-inserts"],
)
def test_wide_batches_leave_the_two_phase_tree(updated, inserted):
    # Adjacent updates give long runs of sibling pairs on every level; updates
    # on even leaves with inserts between them mix pairs and lone children. The
    # one-phase sweep must leave the baseline's cache, entry by entry.
    depth = 12
    initial = {i: bytes([i % 256]) for i in updated}
    base = populated(depth, initial)
    ops = updates(updated, tag=b"z") + [LeafOperation.insert(i, b"n") for i in inserted]
    obu_tree, two_tree = base.clone(), base.clone()
    r_obu = batch_update(obu_tree, ops)
    r_two = two_phase_update(two_tree, ops)
    assert r_obu.new_root == r_two.new_root
    assert r_obu.counters.hash_invocations == r_two.counters.hash_invocations
    assert obu_tree.cache == two_tree.cache
    assert obu_tree.leaf_values == two_tree.leaf_values
    assert_sweep_matches_oracles(depth, initial, ops, r_obu)
    check_consistency(obu_tree)


# -- single-path climb --------------------------------------------------------------
# Once one dirty node is left, the sweep climbs its path alone to the root.


def climb_against_two_phase(tree, ops):
    """Run both engines on copies of `tree`; they must agree and the
    one-phase tree must be consistent. Returns the one-phase result."""
    other = tree.clone()
    result = batch_update(tree, ops)
    assert result.new_root == two_phase_update(other, ops).new_root == tree.root()
    assert tree.cache == other.cache
    check_consistency(tree)
    return result


def test_single_update_climbs_alone_from_the_leaf():
    # Two far-apart leaves whose paths part at the root; the updated leaf's
    # path mixes left and right children, and its top sibling is not empty.
    depth, low, high = 24, 0x5A5A5A, 0xA5A5A5
    tree = populated(depth, {low: b"low", high: b"high"})
    result = climb_against_two_phase(tree, [LeafOperation.update(low, b"new")])
    leaf = (1 << depth) + low
    assert result.level_work_lists == [[leaf >> shift] for shift in range(depth + 1)]
    assert result.counters.node_visits == result.counters.hash_invocations == depth + 1


@pytest.mark.parametrize("engine", ENGINES, ids=[OBU, TWO_PHASE])
def test_removing_the_only_leaf_prunes_every_ancestor(engine):
    depth = 24
    tree = populated(depth, {0x5A5A5A: b"only"})
    result = engine(tree, [LeafOperation.remove(0x5A5A5A)])
    assert tree.cache == {}
    assert result.new_root == tree.root() == gen(depth).root()


@pytest.mark.parametrize("merge_level", [0, 1, 5, 9])
def test_two_paths_sweep_together_then_climb_from_their_merge(merge_level):
    depth, first = 10, 0b0110010110
    second = first ^ (1 << (depth - 1 - merge_level))  # paths part below merge_level
    leaves = {i: bytes([i % 256]) for i in range(0, 1 << depth, 7)} | {first: b"a", second: b"b"}
    tree = populated(depth, leaves)
    result = climb_against_two_phase(tree, updates([first, second], tag=b"z"))
    heaps = sorted(((1 << depth) + first, (1 << depth) + second))
    assert result.level_work_lists == [
        sorted({heap >> shift for heap in heaps}) for shift in range(depth + 1)
    ]
    assert [len(work) for work in result.level_work_lists] == (
        [2] * (depth - merge_level) + [1] * (merge_level + 1)
    )


# -- batch composition ----------------------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES, ids=[OBU, TWO_PHASE])
@pytest.mark.parametrize(
    "initial, batches, final",
    [
        ({}, [[LeafOperation.insert(9, b"first"), LeafOperation.update(9, b"second")]],
         {9: b"second"}),
        ({9: b"old"}, [[LeafOperation.remove(9), LeafOperation.insert(9, b"new")]], {9: b"new"}),
        ({}, [[LeafOperation.insert(3, b"v"), LeafOperation.insert(40, b"w")],
              [LeafOperation.remove(3), LeafOperation.remove(40)]], {}),
        ({}, [[LeafOperation.insert(i, bytes([i])) for i in (0, 1, 17, 63)]],
         {i: bytes([i]) for i in (0, 1, 17, 63)}),
    ],
    ids=["insert-then-update", "remove-then-insert", "insert-remove-round-trip", "inserts-on-empty-tree"],
)
def test_batch_composition(engine, initial, batches, final):
    # Batches in turn from `initial` must leave exactly the tree `final` builds.
    depth = 6
    tree = populated(depth, initial)
    for ops in batches:
        result = engine(tree, ops)
    assert result.new_root == naive_root(depth, final)
    assert tree.leaf_values == final
    assert tree.cache == populated(depth, final).cache
    check_consistency(tree)


# -- atomicity ---------------------------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES, ids=[OBU, TWO_PHASE])
def test_failed_batch_rolls_back(engine):
    tree = populated(5, {1: b"a", 2: b"b"})
    cache = dict(tree.cache)
    leaves = dict(tree.leaf_values)
    root = tree.root()
    bad = [
        LeafOperation.update(1, b"x"),
        LeafOperation.insert(9, b"y"),
        LeafOperation.remove(30),  # missing -> abort
    ]
    with pytest.raises(BatchPreconditionError) as err:
        engine(tree, bad)
    assert err.value.op_index == 2
    assert tree.cache == cache
    assert tree.leaf_values == leaves
    assert tree.root() == root
    check_consistency(tree)


@pytest.mark.parametrize("engine", ENGINES, ids=[OBU, TWO_PHASE])
def test_first_op_failure_names_index_zero(engine):
    tree = gen(4)
    with pytest.raises(BatchPreconditionError) as err:
        engine(tree, [LeafOperation.update(0, b"x")])
    assert err.value.op_index == 0
    assert tree.cache == {}


@pytest.mark.parametrize("engine", ENGINES, ids=[OBU, TWO_PHASE])
@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: [LeafOperation.update(1.0, b"x")], "index must be an int"),
        (lambda: [LeafOperation.insert(3, b"a"), LeafOperation.insert(2, "str")],
         "insert value must be bytes"),
        (lambda: [LeafOperation.insert(3, b"a"), LeafOperation.insert("7", b"b")],
         "index must be an int"),
    ],
    ids=["float-index", "str-value", "str-index"],
)
def test_malformed_ops_never_reach_the_tree(engine, build, message):
    # A mistyped op is refused when it is built: inside an engine a str value
    # would pass the checks and fail with a TypeError in the write pass, half
    # written.
    tree = populated(4, {1: b"a"})
    cache, leaves = dict(tree.cache), dict(tree.leaf_values)
    with pytest.raises(TypeError, match=message):
        engine(tree, build())
    assert tree.cache == cache
    assert tree.leaf_values == leaves
    check_consistency(tree)


def test_failed_batch_after_insert_leaves_empty_cache():
    tree = gen(6)
    with pytest.raises(BatchPreconditionError):
        batch_update(tree, [LeafOperation.insert(5, b"v"), LeafOperation.update(9, b"w")])
    assert tree.cache == {}
    assert tree.leaf_values == {}


@pytest.mark.parametrize("kind", [OpKind.INSERT, OpKind.UPDATE])
def test_default_payload_rejected_at_the_same_op_by_both_engines(kind):
    base = populated(8, {3: b"a", 9: b"b"})
    bad = LeafOperation(kind, 5 if kind is OpKind.INSERT else 9, b"")
    ops = [LeafOperation.update(3, b"c"), LeafOperation.insert(40, b"d"), bad,
           LeafOperation.insert(41, b"e")]
    for engine in ENGINES:
        tree = base.clone()
        with pytest.raises(BatchPreconditionError) as err:
            engine(tree, ops)
        assert err.value.op_index == 2
        assert isinstance(err.value.cause, DefaultPayloadError)
        assert tree.cache == base.cache
        assert tree.leaf_values == base.leaf_values


def has_reinsert_chain(ops) -> bool:
    """Whether some index is inserted, removed and inserted again, in order."""
    trails: dict[int, str] = {}
    for op in ops:
        if op.kind is not OpKind.UPDATE:
            trails[op.index] = trails.get(op.index, "") + op.kind.value[0]
    return any("iri" in trail for trail in trails.values())


@pytest.mark.parametrize("engine", ENGINES, ids=[OBU, TWO_PHASE])
def test_failed_random_batches_restore_pre_batch_state(engine):
    # Each random batch gets one failing op appended, after every earlier op
    # has passed its checks against the batch's own writes: none may reach
    # the tree.
    rng = random.Random(0x5B)
    chains = 0
    for case in range(200):
        depth = rng.randrange(2, 9)
        initial, ops = random_case(rng, depth)
        present = final_leaves(initial, ops)
        absent = [i for i in range(1 << depth) if i not in present]
        if absent:
            failing = LeafOperation.update(rng.choice(absent), b"x")
        else:  # full tree
            failing = LeafOperation.insert(rng.choice(sorted(present)), b"x")
        tree = populated(depth, initial)
        cache, leaves, root = dict(tree.cache), dict(tree.leaf_values), tree.root()
        with pytest.raises(BatchPreconditionError) as err:
            engine(tree, ops + [failing])
        assert err.value.op_index == len(ops), f"case {case}"
        assert tree.cache == cache, f"case {case}"
        assert tree.leaf_values == leaves, f"case {case}"
        assert tree.root() == root, f"case {case}"
        chains += has_reinsert_chain(ops)
    assert chains > 0


def test_precondition_error_survives_pickling():
    error = BatchPreconditionError(3, MissingLeafError("leaf 7 not present"))
    copy = pickle.loads(pickle.dumps(error))
    assert copy.op_index == 3
    assert type(copy.cause) is MissingLeafError
    assert str(copy) == str(error) == "operation 3 rejected: leaf 7 not present"


# -- shared leaf writer ------------------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES, ids=[OBU, TWO_PHASE])
def test_rollback_restores_a_non_canonical_leaf_digest(engine):
    # The leaf phase writes only after every op has passed its checks: a
    # failed batch that rewrote the old value would leave hash_leaf(b"a"),
    # not these planted bytes.
    odd = bytes(range(32))
    tree = populated(4, {1: b"a"})
    tree.cache[(1 << 4) + 1] = odd
    cache, leaves = dict(tree.cache), dict(tree.leaf_values)
    with pytest.raises(BatchPreconditionError) as err:
        engine(tree, [LeafOperation.update(1, b"b"), LeafOperation.remove(2)])
    assert err.value.op_index == 1
    assert tree.cache == cache
    assert tree.leaf_values == leaves


def test_sweep_first_level_carries_each_slots_last_write():
    # Leaf 5 is inserted then removed, so its slot carries the default digest
    # and is never hashed; leaf 1 is updated twice, so its slot carries the
    # second digest.
    tree = populated(4, {1: b"a"})
    ops = [
        LeafOperation.insert(5, b"x"),
        LeafOperation.update(1, b"b"),
        LeafOperation.remove(5),
        LeafOperation.update(1, b"c"),
    ]
    result = batch_update(tree, ops)
    assert result.level_work_lists[0] == [(1 << 4) + 1, (1 << 4) + 5]
    assert result.new_root == naive_root(4, {1: b"c"})
    assert tree.cache == populated(4, {1: b"c"}).cache
    assert result.counters.hash_invocations == 1 + len(ancestor_union(4, {1, 5}))


@pytest.mark.parametrize("engine", ENGINES, ids=[OBU, TWO_PHASE])
def test_leaf_phase_hashes_each_dirty_slot_once(engine):
    scheme = HashScheme()
    node, leaf = scheme.hasher
    hashed = []

    def counted_leaf(payload: bytes) -> bytes:
        hashed.append(payload)
        return leaf(payload)

    object.__setattr__(scheme, "hasher", BoundHasher(node, counted_leaf))
    tree = gen(6, scheme)
    engine(tree, [LeafOperation.insert(1, b"a")])
    hashed.clear()
    result = engine(tree, [LeafOperation.update(1, b"b"), LeafOperation.update(1, b"c"),
                           LeafOperation.update(1, b"d")])
    assert hashed == [b"d"]
    assert result.counters.hash_invocations == 1 + 6
    assert result.new_root == naive_root(6, {1: b"d"})
    hashed.clear()
    # Written and removed in one batch: never hashed, so not counted.
    result = engine(tree, [LeafOperation.insert(5, b"x"), LeafOperation.remove(5)])
    assert hashed == []
    assert result.counters.hash_invocations == len(ancestor_union(6, {5}))
    assert result.new_root == naive_root(6, {1: b"d"})
    check_consistency(tree)


def has_write_then_remove(ops) -> bool:
    """Whether some index gets a value and is then removed, in order."""
    valued: set[int] = set()
    for op in ops:
        if op.value is not None:
            valued.add(op.index)
        elif op.index in valued:
            return True
    return False


@pytest.mark.parametrize("engine", ENGINES, ids=[OBU, TWO_PHASE])
def test_hash_invocations_count_the_hasher_calls(engine):
    # The counter is the number of node and leaf hashes the engine made, also
    # for slots written and then removed in one batch, which are never hashed.
    scheme = HashScheme()
    node, leaf = scheme.hasher
    calls = []

    def counted_node(left: bytes, right: bytes) -> bytes:
        calls.append("node")
        return node(left, right)

    def counted_leaf(payload: bytes) -> bytes:
        calls.append("leaf")
        return leaf(payload)

    object.__setattr__(scheme, "hasher", BoundHasher(counted_node, counted_leaf))
    rng = random.Random(0x4C)
    chains = removed_writes = 0
    for case in range(200):
        depth = rng.randrange(2, 9)
        initial, ops = random_case(rng, depth)
        tree = gen(depth, scheme)
        tree.commit(initial)
        calls.clear()
        result = engine(tree, ops)
        assert result.counters.hash_invocations == len(calls), f"case {case}"
        chains += has_reinsert_chain(ops)
        removed_writes += has_write_then_remove(ops)
    assert chains > 0 and removed_writes > 0


@pytest.mark.parametrize("engine", ENGINES, ids=[OBU, TWO_PHASE])
def test_engines_write_leaves_once_per_nonempty_batch(engine, monkeypatch):
    calls = []
    write_leaves = batch._write_leaves

    def counting(tree, ops):
        calls.append(len(ops))
        return write_leaves(tree, ops)

    tree = populated(6, {1: b"a", 2: b"b"})
    monkeypatch.setattr(batch, "_write_leaves", counting)
    engine(tree, [])
    engine(tree, [LeafOperation.update(1, b"c"), LeafOperation.insert(9, b"d"),
                  LeafOperation.remove(2)])
    engine(tree, [LeafOperation.update(9, b"e")])
    assert calls == [3, 1]
    assert not hasattr(batch, "_write_leaf")


class _ProbeCounter(dict):
    probes = 0

    def __contains__(self, key):
        self.probes += 1
        return super().__contains__(key)


def test_obu_probes_ancestors_for_inserts_only():
    depth = 8
    tree = populated(depth, {1: b"a", 2: b"b"})
    tree.cache = _ProbeCounter(tree.cache)
    ops = [LeafOperation.insert(5, b"x"), LeafOperation.update(1, b"c"),
           LeafOperation.insert(200, b"y"), LeafOperation.remove(2)]
    result = batch_update(tree, ops)
    assert tree.cache.probes == 2 * (depth - 1)
    assert result.counters.leaf_phase_visits == len(ops) + 2 * (depth - 1)
    tree.cache.probes = 0
    batch_update(tree, [LeafOperation.update(5, b"z"), LeafOperation.remove(200)])
    assert tree.cache.probes == 0


@pytest.mark.parametrize("engine", ENGINES, ids=lambda e: e.__name__)
def test_engines_take_tree_and_ops_only(engine):
    # The benchmark harness calls engine(tree, ops); there is no third,
    # configuration argument any more.
    tree = populated(4, {0: b"a"})
    root = tree.root()
    with pytest.raises(TypeError):
        engine(tree, updates([0]), object())
    assert tree.root() == root


# -- pinned equivalence ------------------------------------------------------------

# SHA-256 over 600 seeded cases on both engines: roots, every counter but the
# timings, the sweep's work lists, final caches and leaves, and each
# rejection's op index, cause class and message. Any change to what the
# engines compute or reject moves it.
_EQUIVALENCE_DIGEST = "fa2d52cdccfc3bf571734dd75f3578557ad8ffd35c888de9cfdbfc6c0007762a"


def _spliced_case(rng: random.Random):
    """A random case, often with one op spliced in that may fail: an
    out-of-range insert, a duplicate insert, a missing update or remove, or
    a default (empty) payload."""
    depth = rng.randrange(2, 13)
    capacity = 1 << depth
    initial, ops = random_case(rng, depth)
    roll = rng.randrange(6)
    index = rng.randrange(capacity)
    if roll == 0:
        bad = LeafOperation.insert(rng.choice([-1 - index, capacity + index]), b"r")
    elif roll == 1:
        bad = LeafOperation.insert(rng.choice(sorted(initial) or [index]), b"d")
    elif roll == 2:
        bad = LeafOperation.update(index, b"m")
    elif roll == 3:
        bad = LeafOperation.remove(index)
    elif roll == 4:
        bad = LeafOperation(rng.choice([OpKind.INSERT, OpKind.UPDATE]), index, b"")
    else:
        return depth, initial, ops
    ops.insert(rng.randrange(len(ops) + 1), bad)
    return depth, initial, ops


def test_engines_match_pinned_equivalence_digest():
    rng = random.Random(0xE9)
    digest = hashlib.sha256()
    for _ in range(600):
        depth, initial, ops = _spliced_case(rng)
        for engine in ENGINES:
            tree = populated(depth, initial)
            try:
                result = engine(tree, ops)
            except BatchPreconditionError as err:
                outcome = (err.op_index, type(err.cause).__name__, str(err.cause))
            else:
                c = result.counters
                outcome = (
                    result.new_root,
                    c.node_visits,
                    c.hash_invocations,
                    c.leaf_phase_visits,
                    c.levels_processed,
                    result.level_work_lists,
                )
            state = (sorted(tree.cache.items()), sorted(tree.leaf_values.items()))
            digest.update(repr((engine.__name__, outcome, state)).encode())
    assert digest.hexdigest() == _EQUIVALENCE_DIGEST
