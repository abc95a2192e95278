import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from smtbench.batch import OBU, TWO_PHASE, BatchPreconditionError, batch_update, two_phase_update
from smtbench.hasher import DEFAULT_PAYLOAD, DEFAULT_SCHEME, SLOW_SCHEME, BoundHasher, HashScheme, hash_leaf, hash_node
from smtbench.smt_core import (
    MAX_DEPTH,
    ConfigError,
    ConsistencyError,
    DefaultPayloadError,
    DuplicateLeafError,
    LeafOperation,
    LeafRangeError,
    MissingLeafError,
    OpKind,
    SnapshotFormatError,
    SparseMerkleTree,
    Witness,
    check_consistency,
    gen,
    load_snapshot,
    member_verify,
    non_member_verify,
)
from smtbench.workload import TxRecord, TxType

from oracles import empty_digests, fold_witness, naive_root

EMPTY_ROOT_24 = bytes.fromhex("8d6446d4c64ee7ebb1221fed67e95b054036fa2076e31142638b7348e875adc7")
THREE_LEAF_ROOT = bytes.fromhex("f8191d65220004613d2c54587d53209cc93885700054343ace74abaaae72c0c1")
ENGINES = (batch_update, two_phase_update)


def build(depth: int, leaves: dict[int, bytes]) -> SparseMerkleTree:
    tree = gen(depth)
    tree.commit(leaves)
    return tree


# -- gen -------------------------------------------------------------------


def test_gen_empty_roots():
    assert gen(24).root() == EMPTY_ROOT_24
    assert gen(24).capacity == 2**24
    leaf = hash_leaf(DEFAULT_SCHEME, b"")
    half = hash_node(DEFAULT_SCHEME, leaf, leaf)
    assert gen(2).root() == hash_node(DEFAULT_SCHEME, half, half)


@pytest.mark.parametrize("depth", [0, -1, 64, True, 24.0, "24"])
def test_gen_rejects_bad_depth(depth):
    with pytest.raises(ConfigError):
        gen(depth)


# -- leaf preconditions and charges, through both engines ------------------------

PRECONDITIONS = {  # failing op after one good insert: (initial leaves, op, cause)
    "duplicate-insert": ({3: b"a"}, LeafOperation.insert(3, b"b"), DuplicateLeafError),
    "out-of-range-insert": ({}, LeafOperation.insert(16, b"a"), LeafRangeError),
    "missing-update": ({}, LeafOperation.update(0, b"x"), MissingLeafError),
    "missing-remove": ({}, LeafOperation.remove(0), MissingLeafError),
    "default-payload": ({5: b"x"}, LeafOperation.update(5, b""), DefaultPayloadError),
}


@pytest.mark.parametrize("engine", ENGINES, ids=[OBU, TWO_PHASE])
@pytest.mark.parametrize("case", PRECONDITIONS)
def test_leaf_precondition_rejected_by_engine(engine, case):
    initial, bad, cause = PRECONDITIONS[case]
    tree = build(4, initial)
    cache, leaves = dict(tree.cache), dict(tree.leaf_values)
    with pytest.raises(BatchPreconditionError) as err:
        engine(tree, [LeafOperation.insert(9, b"v"), bad])
    assert err.value.op_index == 1
    assert type(err.value.cause) is cause
    assert tree.cache == cache and tree.leaf_values == leaves


@pytest.mark.parametrize(
    "ops, visits",
    [
        ([LeafOperation.insert(0, b"a")], 4),  # `depth`: the charge for the leaf and its path
        ([LeafOperation.update(5, b"y")], 1),
        ([LeafOperation.remove(5)], 1),
        # len(ops) + (depth - 1)·inserts = 6 + 3·2: one per op, rewrites included.
        ([LeafOperation.insert(0, b"a"), LeafOperation.update(5, b"y"), LeafOperation.insert(3, b"b"),
          LeafOperation.update(3, b"c"), LeafOperation.update(0, b"d"), LeafOperation.remove(5)], 12),
    ],
    ids=["insert", "update", "remove", "mixed"],
)
def test_obu_leaf_phase_visits(ops, visits):
    tree = build(4, {5: b"x"})
    assert batch_update(tree, ops).counters.leaf_phase_visits == visits


def test_obu_insert_writes_one_leaf_key_and_its_path():
    # The leaf phase writes only the leaf digest; the sweep adds one
    # ancestor per level and no sibling placeholder.
    tree = gen(4)
    batch_update(tree, [LeafOperation.insert(0, b"a")])
    assert sorted(tree.cache) == [1, 2, 4, 8, 16]


def test_update_identical_value_keeps_root():
    tree = build(4, {5: b"x"})
    root = tree.root()
    digest = tree.cache[tree.capacity + 5]
    batch_update(tree, [LeafOperation.update(5, b"x")])
    assert tree.cache[tree.capacity + 5] == digest
    assert tree.root() == root


def test_insert_then_remove_restores_empty_root():
    tree = gen(5)
    empty = tree.root()
    batch_update(tree, [LeafOperation.insert(7, b"v")])
    assert tree.root() != empty
    batch_update(tree, [LeafOperation.remove(7)])
    assert tree.root() == empty
    assert tree.cache == {}


# -- commit ----------------------------------------------------------------------


def test_commit_empty_is_noop():
    tree = gen(3)
    assert tree.commit({}) == DEFAULT_SCHEME.empty_chain[3]


def test_commit_three_leaf_structure_golden():
    tree = gen(2)
    root = tree.commit({0: b"a", 1: b"b", 3: b"c"})
    assert root == THREE_LEAF_ROOT
    # structural expansion: node(node(h(a), h(b)), node(default_leaf, h(c)))
    expect = hash_node(
        DEFAULT_SCHEME,
        hash_node(DEFAULT_SCHEME, hash_leaf(DEFAULT_SCHEME, b"a"), hash_leaf(DEFAULT_SCHEME, b"b")),
        hash_node(DEFAULT_SCHEME, hash_leaf(DEFAULT_SCHEME, b""), hash_leaf(DEFAULT_SCHEME, b"c")),
    )
    assert root == expect
    assert root == naive_root(2, {0: b"a", 1: b"b", 3: b"c"})


def test_commit_overwrites_existing():
    tree = build(3, {1: b"old"})
    tree.commit({1: b"new", 2: b"fresh"})
    assert tree.leaf_values == {1: b"new", 2: b"fresh"}
    assert tree.root() == naive_root(3, {1: b"new", 2: b"fresh"})


def test_commit_out_of_range_key():
    with pytest.raises(LeafRangeError):
        gen(3).commit({8: b"x"})


# -- witnesses -------------------------------------------------------------------


def test_witness_length_is_depth():
    tree = build(6, {9: b"x"})
    assert len(tree.member_witness_create(9).siblings) == 6
    assert len(tree.member_witness_create(0).siblings) == 6


def test_empty_tree_witness_is_default_chain():
    tree = gen(5)
    witness = tree.member_witness_create(11)
    assert witness.siblings == DEFAULT_SCHEME.empty_chain[:5]
    assert non_member_verify(tree.root(), witness, 5)


def test_witness_out_of_range():
    with pytest.raises(LeafRangeError):
        gen(3).member_witness_create(8)


@pytest.mark.parametrize("node", [0, -1, 32, 1, 31])
def test_resolve_takes_only_heap_nodes(node):
    # A depth-4 heap holds nodes [1, 32): the root at height 4, leaf 15 at
    # height 0. A node outside it has no height to read the empty chain at.
    tree = gen(4)
    if 1 <= node < 32:
        assert tree.resolve(node) == DEFAULT_SCHEME.empty_chain[5 - node.bit_length()]
    else:
        with pytest.raises(LeafRangeError, match=rf"^node {node} outside \[1, 32\) at depth 4$"):
            tree.resolve(node)


@pytest.mark.parametrize("node", [True, 1.5, "1"])
def test_resolve_takes_only_int_nodes(node):
    # The rule member_witness_create applies: a bool is not a node, though
    # Python counts it as an int.
    with pytest.raises(TypeError, match=f"^index must be an int, got {type(node).__name__}$"):
        gen(4).resolve(node)


def test_witness_rejects_a_non_int_index():
    # The rule LeafOperation applies: a bool is not an index, though Python
    # counts it as an int, and a float fails with the same message.
    tree = build(3, {1: b"x"})
    for index in (True, 1.0, "1", None):
        with pytest.raises(TypeError, match=f"index must be an int, got {type(index).__name__}"):
            tree.member_witness_create(index)


def test_pruned_tree_membership_structure():
    # Depth-3 tree with leaves 0,1,4,6,7 set and 2,3,5 empty: leaf 4's proof
    # is its empty sibling slot, the node covering {6,7}, and the node
    # covering {0..3}; the subtree under leaves {2,3} stays pruned.
    leaves = {0: b"v0", 1: b"v1", 4: b"v4", 6: b"v6", 7: b"v7"}
    tree = build(3, leaves)
    assert 5 not in tree.cache  # node over {2,3} pruned away
    witness = tree.member_witness_create(4)
    assert witness.siblings[0] == DEFAULT_SCHEME.empty_chain[0]  # leaf 5 is empty
    assert witness.siblings[1] == tree.resolve(7)  # covers leaves {6,7}
    assert witness.siblings[2] == tree.resolve(2)  # covers leaves {0..3}
    assert member_verify(tree.root(), witness, b"v4", 3)
    # non-membership of the empty leaf 2
    assert non_member_verify(tree.root(), tree.member_witness_create(2), 3)
    # a present leaf is not "absent"
    assert not non_member_verify(tree.root(), tree.member_witness_create(4), 3)


def test_member_verify_rejects_corruption():
    tree = build(4, {3: b"x", 9: b"y"})
    witness = tree.member_witness_create(3)
    assert member_verify(tree.root(), witness, b"x", 4)
    corrupt = list(witness.siblings)
    corrupt[2] = bytes([corrupt[2][0] ^ 1]) + corrupt[2][1:]
    assert not member_verify(tree.root(), Witness(3, tuple(corrupt)), b"x", 4)


def test_member_verify_rejects_wrong_value():
    tree = build(4, {3: b"x"})
    witness = tree.member_witness_create(3)
    assert not member_verify(tree.root(), witness, b"z", 4)


def test_member_verify_rejects_malformed_witness():
    tree = build(4, {3: b"x"})
    witness = tree.member_witness_create(3)
    short = Witness(3, witness.siblings[:-1])
    assert not member_verify(tree.root(), short, b"x", 4)
    bad_digest = Witness(3, (b"tiny",) + witness.siblings[1:])
    assert not member_verify(tree.root(), bad_digest, b"x", 4)


def test_member_verify_rejects_out_of_range_leaf_index():
    # Only the low `depth` bits steer the fold, so without a range check a
    # witness for leaf 3 also verifies as leaf 3 + 256 and as 3 - 256.
    tree = build(8, {3: b"x", 200: b"y"})
    witness = tree.member_witness_create(3)
    assert member_verify(tree.root(), witness, b"x", 8)
    for alias in (259, -253, 1 << 8):
        assert not member_verify(tree.root(), Witness(alias, witness.siblings), b"x", 8)


def test_member_verify_rejects_mistyped_input():
    # Before the verifier checked types, the str sibling, the float index,
    # the None siblings and the bytes-as-siblings raised TypeError, and the
    # bool index verified as leaf 1.
    tree = build(8, {1: b"x", 200: b"y"})
    root, witness = tree.root(), tree.member_witness_create(1)
    siblings = witness.siblings
    assert member_verify(root, witness, b"x", 8)
    malformed = [
        (Witness(1, (siblings[0].hex()[:32],) + siblings[1:]), b"x"),
        (Witness(1.0, siblings), b"x"),
        (Witness(1, None), b"x"),
        (Witness(True, siblings), b"x"),
        (Witness(1, siblings[0][:8]), b"x"),
        (Witness(1, iter(siblings)), b"x"),
        (Witness(1, tuple(bytearray(s) for s in siblings)), b"x"),
        (witness, "x"),
        (witness, None),
        (None, b"x"),
        ((1, siblings), b"x"),  # a Witness's fields, not a Witness
    ]
    for bad, value in malformed:
        assert not member_verify(root, bad, value, 8), (bad, value)
    # The same on the absence path, whose first sibling is the empty leaf's.
    absence = tree.member_witness_create(2)
    assert non_member_verify(root, absence, 8)
    first, rest = absence.siblings[0], absence.siblings[1:]
    for sibling in (first.hex()[:32], bytearray(first), memoryview(first)):
        assert not non_member_verify(root, Witness(2, (sibling,) + rest), 8)


@pytest.mark.parametrize("value", [b"a", DEFAULT_PAYLOAD], ids=["member", "non-member"])
@pytest.mark.parametrize(
    "depth, length",
    [(64, 64), (-1, 0), (0, 0), (True, 1), (24.0, 24), ("3", 3)],
    ids=["64", "minus-1", "0", "True", "24.0", "str-3"],
)
def test_verify_rejects_a_bad_depth(value, depth, length):
    # Each witness folds to its root, so only the depth is wrong. Before the
    # depth was checked, 64 raised IndexError on the absence path and
    # verified a membership, -1 raised ValueError, 24.0 and "3" raised
    # TypeError, and 0 and True verified.
    siblings = DEFAULT_SCHEME.empty_chain[:length]
    root = fold_witness(0, siblings, value)[-1]
    witness = Witness(0, siblings)
    assert not member_verify(root, witness, value, depth)
    if value == DEFAULT_PAYLOAD:
        assert not non_member_verify(root, witness, depth)


@pytest.mark.parametrize("depth", [1, MAX_DEPTH])
def test_verify_accepts_the_boundary_depths(depth):
    tree = build(depth, {0: b"x"})
    root = tree.root()
    assert member_verify(root, tree.member_witness_create(0), b"x", depth)
    assert non_member_verify(root, tree.member_witness_create(1), depth)


# -- the default payload ----------------------------------------------------------


def test_present_leaf_may_not_hold_the_default_payload():
    # Leaf 5 holding b"" would have the empty slot's digest, and
    # non_member_verify would accept its witness.
    tree = gen(8)
    with pytest.raises(BatchPreconditionError) as err:
        tree.commit({5: b""})
    assert isinstance(err.value.cause, DefaultPayloadError)
    assert tree.cache == {} and tree.leaf_values == {}
    tree.commit({5: b"v"})
    with pytest.raises(BatchPreconditionError) as err:
        tree.commit({5: b""})
    assert isinstance(err.value.cause, DefaultPayloadError)
    assert tree.leaf_values == {5: b"v"}
    assert not non_member_verify(tree.root(), tree.member_witness_create(5), 8)


# -- snapshots ---------------------------------------------------------------------

HEADER_8 = gen(8).export_snapshot()  # an empty depth-8 tree's header line
ROOT_8 = gen(8).root().hex()
# The export of leaves {3: b"\xab", 5: b"\xcd"} at depth 8, which test_snapshot_format_shape
# checks: written out, so that a fault in the engines cannot stop this module from importing.
SNAPSHOT_8 = (
    "smt-snapshot 2 depth=8 scheme=sha256 root=55f7008ce0c055327e7fcb91f763c868698404a778df6d19832046bb98642bb9\n"
    "L 3 ab\nL 5 cd\n"
)


def test_snapshot_round_trip():
    tree = build(4, {0: b"\x00", 3: b"abc", 15: b"\xff\x00"})
    loaded = load_snapshot(tree.export_snapshot())
    assert loaded.cache == tree.cache
    assert loaded.leaf_values == tree.leaf_values
    assert loaded.root() == tree.root()
    check_consistency(loaded)


def test_snapshot_format_shape():
    lines = build(2, {0: b"a", 1: b"b", 3: b"c"}).export_snapshot().splitlines()
    assert lines == [
        f"smt-snapshot 2 depth=2 scheme=sha256 root={THREE_LEAF_ROOT.hex()}",
        "L 0 61",
        "L 1 62",
        "L 3 63",
    ]
    assert build(8, {3: b"\xab", 5: b"\xcd"}).export_snapshot() == SNAPSHOT_8
    assert gen(3, SLOW_SCHEME).export_snapshot() == (
        f"smt-snapshot 2 depth=3 scheme=sha256x64 root={SLOW_SCHEME.empty_chain[3].hex()}\n"
    )


@settings(max_examples=60, deadline=None)
@given(depth=st.integers(1, 10), slow=st.booleans(), data=st.data())
def test_snapshot_round_trip_is_exact(depth, slow, data):
    scheme = SLOW_SCHEME if slow else DEFAULT_SCHEME
    values = st.binary(max_size=4).filter(lambda v: v != DEFAULT_PAYLOAD)
    leaves = data.draw(st.dictionaries(st.integers(0, (1 << depth) - 1), values, max_size=40))
    removed = data.draw(st.sets(st.sampled_from(sorted(leaves)))) if leaves else set()
    tree = gen(depth, scheme)
    tree.commit(leaves)
    batch_update(tree, [LeafOperation.remove(index) for index in sorted(removed)])
    loaded = load_snapshot(tree.export_snapshot())
    assert (loaded.depth, loaded.scheme, loaded.root()) == (depth, scheme, tree.root())
    assert loaded.leaf_values == tree.leaf_values
    assert loaded.cache == tree.cache
    check_consistency(loaded)


SNAPSHOT_REJECTIONS = {  # case: (text, message after "snapshot ")
    # The old format and other header-less text.
    "empty": ("", r"line 1: missing header, expected 'smt-snapshot 2 depth=\{\} scheme=\{\} root=\{\}'$"),
    "old-format": ("1 " + "00" * 32 + "\nL 0 61\n", "line 1: missing header, expected 'smt-snapshot 2 "),
    "leaf-first": ("L 0 61\n", "line 1: missing header"),
    # Each header field.
    "version": (HEADER_8.replace(" 2 ", " 3 "), "line 1: unknown snapshot version '3'$"),
    "version-1": (
        f"smt-snapshot 1 depth=8 scheme=sha256 leaf_tag=00 node_tag=01 default= root={ROOT_8}\n",
        "line 1: unknown snapshot version '1'$",
    ),
    "field-missing": (HEADER_8.replace(" scheme=sha256", ""), "line 1: header fields differ from 'smt-snapshot 2 "),
    "field-extra": (HEADER_8.replace(" root=", " extra=1 root="), "line 1: header fields differ from"),
    "depth-0": (HEADER_8.replace("depth=8", "depth=0"), r"line 1: depth must be in \[1, 63\], got 0"),
    "depth-64": (HEADER_8.replace("depth=8", "depth=64"), r"line 1: depth must be in \[1, 63\], got 64"),
    "depth-word": (HEADER_8.replace("depth=8", "depth=eight"), "line 1: invalid literal for int.*'eight'"),
    "scheme": (HEADER_8.replace("scheme=sha256", "scheme=md5"), "line 1: unknown hash scheme 'md5'"),
    "root-length": (HEADER_8.replace("root=", "root=00"), "line 1: root is 33 bytes, expected 32"),
    "root-hex": (HEADER_8.replace("root=", "root=zz"), "line 1: non-hexadecimal"),
    # Text that parses, but that export_snapshot does not write.
    "depth-plus": (HEADER_8.replace("depth=8", "depth=+8"), f"line 1: not canonical, expected '{HEADER_8[:-1]}'$"),
    "root-uppercase": (HEADER_8.replace(ROOT_8, ROOT_8.upper()), "line 1: not canonical, expected 'smt-snapshot 2 "),
    "index-zero": (SNAPSHOT_8.replace("L 3 ", "L 03 "), "line 2: not canonical, expected 'L 3 ab'$"),
    "index-plus": (SNAPSHOT_8.replace("L 3 ", "L +3 "), "line 2: not canonical, expected 'L 3 ab'$"),
    "index-digit": (SNAPSHOT_8.replace("L 3 ", "L \u0663 "), "line 2: not canonical, expected 'L 3 ab'$"),
    "value-uppercase": (SNAPSHOT_8.replace("L 3 ab", "L 3 AB"), "line 2: not canonical, expected 'L 3 ab'$"),
    "descending": (SNAPSHOT_8.replace("L 3 ab\nL 5 cd", "L 5 cd\nL 3 ab"), "line 3: leaf 3 follows leaf 5$"),
    "crlf": (SNAPSHOT_8.replace("\n", "\r\n"), "line 1: not canonical, expected 'smt-snapshot 2 "),
    "no-final-newline": (SNAPSHOT_8[:-1], "line 3: no newline at the end$"),
    "header-only-no-newline": (HEADER_8[:-1], "line 1: no newline at the end$"),
    # Leaf lines, checked by the engine's leaf phase.
    "range-high": (HEADER_8 + "L 255 00\nL 256 00\n", r"line 3: leaf index 256 outside \[0, 256\) at depth 8"),
    "range-negative": (HEADER_8 + "L -1 00\n", "line 2: leaf index -1 outside"),
    "default-payload": (HEADER_8 + "L 3 00\nL 5 \n", "line 3: leaf 5 would hold the default payload"),
    "duplicate": (HEADER_8 + "L 3 00\nL 4 01\nL 4 02\n", "line 4: leaf 4 already present"),
    "index-word": (HEADER_8 + "L x 61\n", "line 2: invalid literal for int"),
    "value-hex": (HEADER_8 + "L 3 6g\n", "line 2: non-hexadecimal"),
    "no-value": (HEADER_8 + "L 3\n", "line 2: expected 'L <index> <hex>'"),
    "blank-line": (HEADER_8 + "L 3 61\n\n", "line 3: expected 'L <index> <hex>'"),
    "node-line": (HEADER_8 + "1 " + "00" * 32 + "\n", "line 2: expected 'L <index> <hex>'"),
}


@pytest.mark.parametrize("case", SNAPSHOT_REJECTIONS)
def test_snapshot_rejection_names_its_line(case):
    text, match = SNAPSHOT_REJECTIONS[case]
    with pytest.raises(SnapshotFormatError, match=f"^snapshot {match}"):
        load_snapshot(text)


def test_snapshot_rejects_a_changed_leaf_on_the_root():
    text = build(4, {3: b"abc", 9: b"d"}).export_snapshot()
    assert "\nL 3 616263\n" in text
    with pytest.raises(SnapshotFormatError, match="^snapshot line 1: the leaves hash to [0-9a-f]{64}, not root$"):
        load_snapshot(text.replace("\nL 3 616263\n", "\nL 3 616264\n"))
    with pytest.raises(SnapshotFormatError, match="^snapshot line 1: the leaves hash to "):
        load_snapshot(text.replace("\nL 9 64\n", "\n"))


def test_snapshot_accepts_boundary_indices():
    text = build(8, {0: b"\x00", 255: b"\x00"}).export_snapshot()
    assert text.endswith("\nL 0 00\nL 255 00\n")
    tree = load_snapshot(text)
    assert {1, 256, 511} <= set(tree.cache)
    assert set(tree.leaf_values) == {0, 255}


def test_clone_is_independent():
    tree = build(4, {1: b"a"})
    copy = tree.clone()
    batch_update(copy, [LeafOperation.insert(2, b"b")])
    assert 2 not in tree.leaf_values
    assert tree.root() != copy.root()


def test_clone_defaults_cannot_be_written_through():
    tree = gen(4)
    copy = tree.clone()
    with pytest.raises(TypeError):
        copy.scheme.empty_chain[0] = b"x"
    assert list(tree.scheme.empty_chain[:5]) == empty_digests(4)


def test_consistency_walker_detects_corruption():
    tree = build(4, {1: b"a", 9: b"b"})
    check_consistency(tree)
    node = next(i for i in tree.cache if 1 < i < 16)
    tree.cache[node] = b"\x00" * 32
    with pytest.raises(AssertionError):
        check_consistency(tree)


def _out_of_range(tree):
    tree.cache[1 << (tree.depth + 1)] = bytes(32)


def _pruned_parent(tree):
    del tree.cache[8]


def _pruned_root(tree):
    del tree.cache[1]


def _default_sibling(tree):
    tree.cache[9] = DEFAULT_SCHEME.empty_chain[1]


def _absent_leaf(tree):
    tree.cache[16] = DEFAULT_SCHEME.empty_chain[0]


def _stale_leaf_value(tree):
    tree.leaf_values[1] = b"b"


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_out_of_range, "cache key 32 out of heap range"),
        (_pruned_parent, "node 17 cached under pruned parent 8"),
        (_pruned_root, "node 2 cached under pruned parent 1"),
        (_default_sibling, "default digest cached at 9"),
        (_absent_leaf, "leaf digest cached for absent leaf 0"),
        (_stale_leaf_value, "leaf 1 digest missing or stale"),
    ],
    ids=["out_of_range", "pruned_parent", "pruned_root", "default_sibling", "absent_leaf", "stale_leaf_value"],
)
def test_consistency_walker_names_each_broken_rule(corrupt, message):
    # One leaf at depth 4: the cache holds leaf 17 and its path 8, 4, 2, 1.
    tree = build(4, {1: b"a"})
    check_consistency(tree)
    corrupt(tree)
    with pytest.raises(ConsistencyError, match=f"^{message}$"):
        check_consistency(tree)


def test_consistency_error_survives_optimize():
    # Under `python -O` asserts vanish; the walker must still raise.
    code = (
        "from smtbench.smt_core import ConsistencyError, SmtError, check_consistency, gen\n"
        "assert False, 'asserts are live'\n"
        "tree = gen(4)\n"
        "tree.commit({1: b'a', 9: b'b'})\n"
        "tree.cache[next(i for i in tree.cache if 1 < i < 16)] = bytes(32)\n"
        "try:\n"
        "    check_consistency(tree)\n"
        "except ConsistencyError as exc:\n"
        "    print('raised', isinstance(exc, SmtError), isinstance(exc, AssertionError))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["raised", "True", "True"]


# -- randomized properties -----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    depth=st.integers(2, 6),
    data=st.data(),
)
def test_commit_matches_naive_oracle(depth, data):
    capacity = 1 << depth
    leaves = data.draw(
        st.dictionaries(st.integers(0, capacity - 1), st.binary(min_size=1, max_size=12), max_size=16)
    )
    tree = build(depth, leaves)
    assert tree.root() == naive_root(depth, leaves)
    check_consistency(tree)


# -- verification against the plain fold ---------------------------------------------


def test_verify_agrees_with_plain_fold_on_random_trees():
    # member_verify skips the hashes of empty subtrees; the oracle hashes
    # every level. They must agree on untouched witnesses, on each level's
    # sibling swapped for the empty digest or for a random one, and on one
    # flipped byte at each level.
    rng = random.Random(0xF01D)
    seen = {"default run": 0, "default over digest": 0, "digest over default": 0}
    for case in range(24):
        depth = rng.randrange(8, 13)
        empty = empty_digests(depth)
        span = rng.choice((8, 64, 1 << depth))  # clustered leaves leave long empty runs
        leaves = {
            rng.randrange(span): rng.randbytes(rng.randrange(1, 9))
            for _ in range(rng.randrange(1, 20))
        }
        tree = build(depth, leaves)
        root = tree.root()
        probes = rng.sample(sorted(leaves), min(3, len(leaves)))
        probes += [i for i in (rng.randrange(1 << depth) for _ in range(3)) if i not in leaves]
        for index in probes:
            value = leaves.get(index, b"")
            siblings = tree.member_witness_create(index).siblings
            path = fold_witness(index, siblings, value)
            assert path[-1] == root
            for height, sibling in enumerate(siblings):
                on_chain = path[height] == empty[height], sibling == empty[height]
                seen["default run"] += on_chain == (True, True)
                seen["default over digest"] += on_chain == (False, True)
                seen["digest over default"] += on_chain == (True, False)
            variants = [(siblings, True)]
            for level in range(depth):
                flipped = bytearray(siblings[level])
                flipped[rng.randrange(len(flipped))] ^= 1 << rng.randrange(8)
                swaps = ((bytes(flipped), False), (empty[level], None), (rng.randbytes(32), None))
                for swap, valid in swaps:
                    variants.append((siblings[:level] + (swap,) + siblings[level + 1:], valid))
            for number, (variant, valid) in enumerate(variants):
                expect = fold_witness(index, variant, value)[-1] == root
                assert valid in (None, expect)
                witness = Witness(index, variant)
                assert member_verify(root, witness, value, depth) == expect, (case, index, number)
                if index not in leaves:
                    assert non_member_verify(root, witness, depth) == expect
    assert all(seen.values()), seen


def counting_scheme() -> tuple[HashScheme, dict[str, int]]:
    """The default scheme with its bound hasher wrapped to count calls."""
    scheme, calls = HashScheme(), {"node": 0, "leaf": 0}
    node, leaf = scheme.hasher

    def counted_node(left: bytes, right: bytes) -> bytes:
        calls["node"] += 1
        return node(left, right)

    def counted_leaf(payload: bytes) -> bytes:
        calls["leaf"] += 1
        return leaf(payload)

    object.__setattr__(scheme, "hasher", BoundHasher(counted_node, counted_leaf))
    return scheme, calls


def test_proof_hash_counts():
    scheme, calls = counting_scheme()
    tree = gen(24, scheme)  # the defaults come from the scheme's chain
    assert calls == {"node": 0, "leaf": 0}
    assert non_member_verify(tree.root(), tree.member_witness_create(12_345), 24, scheme)
    assert calls == {"node": 0, "leaf": 0}
    tree.commit({7: b"v"})
    root = tree.root()
    calls.update(node=0, leaf=0)
    assert member_verify(root, tree.member_witness_create(7), b"v", 24, scheme)
    assert calls == {"node": 24, "leaf": 1}  # depth + 1: nothing to skip
    calls.update(node=0, leaf=0)
    assert non_member_verify(root, tree.member_witness_create(6), 24, scheme)
    assert calls == {"node": 24, "leaf": 0}  # its sibling, leaf 7, is not empty
    calls.update(node=0, leaf=0)
    assert non_member_verify(root, tree.member_witness_create(1 << 23), 24, scheme)
    assert calls == {"node": 1, "leaf": 0}  # only the root's halves differ


@pytest.mark.parametrize(
    "make,same,other,as_tuple,text",
    [
        (
            lambda: LeafOperation.insert(3, b"v"),
            lambda: LeafOperation(OpKind.INSERT, 3, b"v"),
            lambda: LeafOperation.update(3, b"v"),
            (OpKind.INSERT, 3, b"v"),
            "LeafOperation(kind=<OpKind.INSERT: 'insert'>, index=3, value=b'v')",
        ),
        (
            lambda: TxRecord(TxType.TRANSFER, 1, 2, 0, 5),
            lambda: TxRecord(TxType.TRANSFER, from_account=1, to_account=2, amount=5),
            lambda: TxRecord(TxType.SWAP, 1, 2, 0, 5),
            (TxType.TRANSFER, 1, 2, 0, 5),
            "TxRecord(tx_type=<TxType.TRANSFER: 'Transfer'>, from_account=1, to_account=2,"
            " token_id=0, amount=5)",
        ),
    ],
    ids=["LeafOperation", "TxRecord"],
)
def test_leaf_operation_is_a_frozen_value(make, same, other, as_tuple, text):
    import copy
    import pickle
    from dataclasses import FrozenInstanceError

    value = make()
    assert value == same()
    assert value != other()
    assert value != as_tuple
    assert hash(value) == hash(same())
    assert len({value, same(), other()}) == 2
    assert pickle.loads(pickle.dumps(value)) == value
    assert copy.deepcopy(value) == value
    assert repr(value) == text
    field = value.__slots__[1]
    with pytest.raises(FrozenInstanceError):
        setattr(value, field, 4)
    with pytest.raises(FrozenInstanceError):
        delattr(value, field)
    assert getattr(value, field) == as_tuple[1]
    assert not hasattr(value, "__dict__")


def test_unpickling_a_leaf_operation_runs_its_checks():
    # Unpickling calls the class, so a pickle edited to hold a bool index
    # is rejected as a direct call would be.
    import pickle

    data = pickle.dumps(LeafOperation.insert(3, b"v"), protocol=0)
    assert b"I3\n" in data
    with pytest.raises(TypeError, match="^index must be an int, got bool$"):
        pickle.loads(data.replace(b"I3\n", b"I01\n"))


def test_leaf_operation_validates_direct_construction():
    with pytest.raises(ValueError, match="remove carries no value"):
        LeafOperation(OpKind.REMOVE, 1, b"x")
    for kind in (OpKind.INSERT, OpKind.UPDATE):
        with pytest.raises(ValueError, match=f"{kind.value} requires a value"):
            LeafOperation(kind, 1)
    with pytest.raises(ValueError):
        LeafOperation.update(1, None)
    for index in (True, 1.0, "1", None):
        with pytest.raises(TypeError, match="index must be an int"):
            LeafOperation(OpKind.REMOVE, index)
    for value in ("x", bytearray(b"x"), memoryview(b"x"), 1):
        for kind in (OpKind.INSERT, OpKind.UPDATE):
            with pytest.raises(TypeError, match=f"{kind.value} value must be bytes"):
                LeafOperation(kind, 1, value)


class _Index(int):
    pass


class _Payload(bytes):
    pass


@pytest.mark.parametrize(
    "index, value, error",
    [
        (1, b"x", None),
        (_Index(1), b"x", None),  # an int subclass that is not a bool is an index
        (1, _Payload(b"x"), None),
        (_Index(1), _Payload(b"x"), None),
        (True, b"x", "index must be an int, got bool"),
        (True, _Payload(b"x"), "index must be an int, got bool"),
        (1, bytearray(b"x"), "value must be bytes, got bytearray"),
        (_Index(1), bytearray(b"x"), "value must be bytes, got bytearray"),
    ],
)
@pytest.mark.parametrize("kind", [OpKind.INSERT, OpKind.UPDATE, "insert", None])
def test_leaf_operation_type_rules(kind, index, value, error):
    # Both sides of the exact-type fast path keep one rule. A kind that is not
    # an OpKind, such as its str value, never builds; the engines once took it
    # for an update. Only a mistyped index is reported before it.
    if not isinstance(kind, OpKind) and not (error or "").startswith("index"):
        error = "kind must be an OpKind"
    if error is None:
        op = LeafOperation(kind, index, value)
        assert (op.kind, op.index, op.value) == (kind, index, value)
    else:
        with pytest.raises(TypeError, match=error):
            LeafOperation(kind, index, value)
