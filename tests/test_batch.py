import os
import random
import sys

import pytest

from smtbench.batch import (
    MAX_THREADS,
    OBU,
    TWO_PHASE,
    BatchPreconditionError,
    EngineConfig,
    _pair_cuts,
    batch_update,
    set_parallelism,
    two_phase_update,
)
from smtbench.smt_core import LeafOperation, check_consistency, gen, level_of

from oracles import ancestor_union, final_leaves, naive_root, random_case

ENGINES = (batch_update, two_phase_update)


def populated(depth: int, leaves: dict[int, bytes]):
    tree = gen(depth)
    tree.commit(leaves)
    return tree


def updates(indices, tag=b"u"):
    return [LeafOperation.update(i, tag + bytes([i % 256])) for i in indices]


# -- worked example -----------------------------------------------------------


def test_depth2_schedule_and_hash_work():
    # Updates on leaves 0, 3, 1: the engine must sweep exactly
    # {4,5,7} -> {2,3} -> {1}, six hashes in total (3 leaves + nodes 2,3,1).
    tree = populated(2, {0: b"a", 1: b"b", 3: b"c"})
    ops = updates([0, 3, 1])
    result = batch_update(tree, ops)
    assert result.level_work_lists == [[4, 5, 7], [2, 3], [1]]
    assert result.counters.hash_invocations == 6
    assert result.counters.levels_processed == 2
    assert result.new_root == naive_root(2, final_leaves({0: b"a", 1: b"b", 3: b"c"}, ops))


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


# -- engine equivalence ----------------------------------------------------------


def test_engines_agree_with_oracle_on_random_cases():
    rng = random.Random(11)
    for _ in range(120):
        depth = rng.randrange(2, 9)
        initial, ops = random_case(rng, depth)
        t_obu = populated(depth, initial)
        t_two = t_obu.clone()
        r_obu = batch_update(t_obu, ops)
        r_two = two_phase_update(t_two, ops)
        expect = naive_root(depth, final_leaves(initial, ops))
        assert r_obu.new_root == r_two.new_root == expect
        assert t_obu.cache == t_two.cache
        assert t_obu.leaf_values == t_two.leaf_values
        check_consistency(t_obu)
        if ops:
            assert r_two.counters.node_visits > r_obu.counters.node_visits


def test_hash_work_matches_ancestor_oracle():
    rng = random.Random(23)
    for _ in range(60):
        depth = rng.randrange(2, 9)
        initial, ops = random_case(rng, depth)
        touched = {op.index for op in ops}
        written = {op.index for op in ops if op.kind.value != "remove"}
        expect = len(written) + len(ancestor_union(depth, touched))
        r_obu = batch_update(populated(depth, initial), ops)
        r_two = two_phase_update(populated(depth, initial), ops)
        assert r_obu.counters.hash_invocations == expect
        assert r_two.counters.hash_invocations == expect


# -- phase accounting --------------------------------------------------------------


def test_leaf_phase_visit_counts():
    k, depth = 16, 24
    tree = populated(depth, {i: bytes([i]) for i in range(k)})
    ops = updates(range(k))
    r_obu = batch_update(tree.clone(), ops)
    r_two = two_phase_update(tree.clone(), ops)
    assert r_obu.counters.leaf_phase_visits == k
    assert r_two.counters.leaf_phase_visits == k * depth
    assert r_obu.counters.hash_invocations == r_two.counters.hash_invocations


def test_hot_leaf_dedup():
    depth = 10
    tree = populated(depth, {7: b"seed"})
    for k in (1, 48, 200):
        ops = [LeafOperation.update(7, bytes([i % 256])) for i in range(k)]
        r_obu = batch_update(tree.clone(), ops)
        r_two = two_phase_update(tree.clone(), ops)
        assert r_obu.counters.hash_invocations == 1 + depth
        assert r_two.counters.hash_invocations == 1 + depth
        assert r_obu.counters.leaf_phase_visits == k
        assert r_two.counters.leaf_phase_visits == k * depth


def test_levels_processed_equals_depth():
    tree = populated(6, {0: b"x"})
    result = batch_update(tree, updates([0]))
    assert result.counters.levels_processed == 6


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


# -- digest-carrying sweep ------------------------------------------------------------


def assert_sweep_matches_oracles(depth, initial, ops, result):
    internal = result.level_work_lists[1:]
    for work in result.level_work_lists:
        assert work == sorted(set(work))  # ascending, no parent repeats
    touched = {op.index for op in ops}
    assert {n for work in internal for n in work} == ancestor_union(depth, touched)
    assert result.new_root == naive_root(depth, final_leaves(initial, ops))


@pytest.mark.parametrize(
    "indices",
    [[4], [5], [4, 5], [0, 3, 4, 5, 6, 15]],
    ids=["left-only", "right-only", "both-dirty", "mixed"],
)
def test_sweep_sibling_cases(indices):
    # Every leaf is present, so a lone child's clean sibling is a real digest
    # that the sweep must read from the cache, not a default.
    initial = {i: b"v" + bytes([i]) for i in range(16)}
    tree = populated(4, initial)
    ops = updates(indices)
    result = batch_update(tree, ops)
    assert_sweep_matches_oracles(4, initial, ops, result)
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


def test_threaded_cut_keeps_sibling_pairs_together():
    # 65 touched leaves on two threads: the even cut at position 33 falls
    # between leaves 64 and 65, so the chunk boundary must move past 65.
    depth = 8
    indices = list(range(0, 64, 2)) + [64, 65] + list(range(68, 130, 2))
    initial = {i: bytes([i]) for i in indices}
    ops = updates(indices, tag=b"t")
    leaves = sorted((1 << depth) + i for i in indices)
    assert _pair_cuts(leaves, 2) == [0, 34, 65]
    base = populated(depth, initial)
    reference = batch_update(base.clone(), ops, EngineConfig(threads=1))
    threaded_tree = base.clone()
    threaded = batch_update(threaded_tree, ops, EngineConfig(threads=2))
    assert_sweep_matches_oracles(depth, initial, ops, threaded)
    assert threaded.level_work_lists == reference.level_work_lists
    assert threaded.new_root == reference.new_root
    assert threaded.counters.node_visits == reference.counters.node_visits
    assert threaded.counters.hash_invocations == reference.counters.hash_invocations
    check_consistency(threaded_tree)


def test_threaded_sweep_under_fast_switching():
    # More workers than cores and a tiny switch interval: a lost or torn
    # cache write from any chunk would change the root or the final cache.
    depth, k = 12, 900
    base = populated(depth, {i: bytes([i % 256]) for i in range(0, 2 * k, 2)})
    ops = updates(range(0, 2 * k, 2), tag=b"s")
    ops += [LeafOperation.insert(i, b"n") for i in range(1, 600, 2)]
    reference_tree = base.clone()
    reference = batch_update(reference_tree, ops)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in (3, 8):
            tree = base.clone()
            result = batch_update(tree, ops, EngineConfig(threads=threads))
            assert result.new_root == reference.new_root
            assert tree.cache == reference_tree.cache
    finally:
        sys.setswitchinterval(interval)


# -- batch composition ----------------------------------------------------------------


def test_insert_then_update_same_leaf_in_one_batch():
    for engine in ENGINES:
        tree = gen(5)
        ops = [LeafOperation.insert(9, b"first"), LeafOperation.update(9, b"second")]
        result = engine(tree, ops)
        assert tree.leaf_values[9] == b"second"
        assert result.new_root == naive_root(5, {9: b"second"})
        check_consistency(tree)


def test_remove_then_insert_same_leaf_in_one_batch():
    for engine in ENGINES:
        tree = populated(5, {9: b"old"})
        ops = [LeafOperation.remove(9), LeafOperation.insert(9, b"new")]
        result = engine(tree, ops)
        assert result.new_root == naive_root(5, {9: b"new"})
        check_consistency(tree)


def test_insert_remove_round_trip_restores_pruning():
    for engine in ENGINES:
        tree = gen(6)
        engine(tree, [LeafOperation.insert(3, b"v"), LeafOperation.insert(40, b"w")])
        engine(tree, [LeafOperation.remove(3), LeafOperation.remove(40)])
        assert tree.cache == {}
        assert tree.leaf_values == {}
        assert tree.root() == gen(6).root()


def test_batch_of_inserts_on_empty_tree():
    for engine in ENGINES:
        tree = gen(6)
        ops = [LeafOperation.insert(i, bytes([i])) for i in (0, 1, 17, 63)]
        result = engine(tree, ops)
        assert result.new_root == naive_root(6, {0: b"\x00", 1: b"\x01", 17: b"\x11", 63: b"\x3f"})
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


def test_rollback_covers_materialised_ancestors():
    tree = gen(6)
    with pytest.raises(BatchPreconditionError):
        batch_update(tree, [LeafOperation.insert(5, b"v"), LeafOperation.update(9, b"w")])
    assert tree.cache == {}
    assert tree.leaf_values == {}


# -- parallelism ------------------------------------------------------------------------


def test_set_parallelism():
    config = EngineConfig()
    assert set_parallelism(config, 4).threads == 4
    assert set_parallelism(config, "auto").threads == min(os.cpu_count() or 1, MAX_THREADS)
    assert set_parallelism(config, None).threads == min(os.cpu_count() or 1, MAX_THREADS)
    with pytest.raises(ValueError):
        set_parallelism(config, 0)


def test_thread_count_is_bounded():
    # Validation only: no engine runs, so no thread starts.
    assert MAX_THREADS == 64
    assert EngineConfig(threads=MAX_THREADS).threads == MAX_THREADS
    for bad in (0, MAX_THREADS + 1, 10**6):
        with pytest.raises(ValueError, match="64"):
            EngineConfig(threads=bad)
        with pytest.raises(ValueError, match="64"):
            set_parallelism(EngineConfig(), bad)


def test_parallel_determinism_small_batches():
    rng = random.Random(31)
    for _ in range(20):
        depth = rng.randrange(2, 8)
        initial, ops = random_case(rng, depth)
        base = populated(depth, initial)
        outputs = []
        for threads in (1, 4):
            for engine in ENGINES:
                result = engine(base.clone(), ops, EngineConfig(threads=threads))
                outputs.append(
                    (
                        engine.__name__,
                        result.new_root,
                        result.counters.node_visits,
                        result.counters.hash_invocations,
                        result.counters.levels_processed,
                        result.level_work_lists,
                    )
                )
        assert outputs[:2] == outputs[2:]


def test_parallel_determinism_wide_levels():
    # Wide enough that the one-phase engine actually dispatches to the pool.
    depth, k = 12, 700
    base = gen(depth)
    base.commit({i: bytes([i % 256]) for i in range(k)})
    ops = updates(range(k), tag=b"z")
    reference = batch_update(base.clone(), ops, EngineConfig(threads=1))
    for threads in (2, 4):
        result = batch_update(base.clone(), ops, EngineConfig(threads=threads))
        assert result.new_root == reference.new_root
        assert result.counters.node_visits == reference.counters.node_visits
        assert result.counters.hash_invocations == reference.counters.hash_invocations
        assert result.level_work_lists == reference.level_work_lists
    forked = two_phase_update(base.clone(), ops, EngineConfig(threads=4))
    assert forked.new_root == reference.new_root
    assert forked.counters.hash_invocations == reference.counters.hash_invocations
