import pickle

import pytest
from hypothesis import given, strategies as st

from smtbench.hasher import (
    DEFAULT_SCHEME,
    MAX_HEIGHT,
    SLOW_SCHEME,
    HashScheme,
    InvalidDigestError,
    default_digests,
    format_digest_table,
    hash_leaf,
    hash_node,
)

# Golden constants evaluated with an independent SHA-256 implementation
# (openssl CLI) over the tagged preimages.
EMPTY_LEAF = bytes.fromhex("6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d")
LEAF_A = bytes.fromhex("022a6979e6dab7aa5ae4c3e5e45f7e977112a7e63593820dbec1ec738a24f93c")
LEAF_B = bytes.fromhex("57eb35615d47f34ec714cacdf5fd74608a5e8e102724e80b24b287c0c27b6a31")
LEAF_X00 = bytes.fromhex("96a296d224f285c67bee93c30f8a309157f0daa35dc5b87e410b78630a09cfc7")
LEAF_X01 = bytes.fromhex("b413f47d13ee2fe6c845b2ee141af81de858df4ec549a58b7970bb96645bc8d2")
NODE_AB = bytes.fromhex("b137985ff484fb600db93107c77b0365c80d78f5b429ded0fd97361d077999eb")
NODE_BA = bytes.fromhex("8af01af409f78be71c0de3efd008ef3f00d5415f36c3d7ab59abcc491dc1cf39")
EMPTY_ROOT_24 = bytes.fromhex("8d6446d4c64ee7ebb1221fed67e95b054036fa2076e31142638b7348e875adc7")
ADV_LEAF_OF_CONCAT = bytes.fromhex("8caadc8a584ea884ef39e2831102f201c4520c2041d49eca38a98c5a7c69aae1")


def test_hash_leaf_empty_payload_golden():
    assert hash_leaf(DEFAULT_SCHEME, b"") == EMPTY_LEAF


def test_hash_leaf_payload_goldens():
    assert hash_leaf(DEFAULT_SCHEME, b"a") == LEAF_A
    assert hash_leaf(DEFAULT_SCHEME, b"b") == LEAF_B


def test_one_byte_payload_difference():
    assert hash_leaf(DEFAULT_SCHEME, b"\x00") == LEAF_X00
    assert hash_leaf(DEFAULT_SCHEME, b"\x01") == LEAF_X01
    assert LEAF_X00 != LEAF_X01


def test_hash_node_golden_and_order_sensitive():
    assert hash_node(DEFAULT_SCHEME, LEAF_A, LEAF_B) == NODE_AB
    assert hash_node(DEFAULT_SCHEME, LEAF_B, LEAF_A) == NODE_BA
    assert NODE_AB != NODE_BA


@pytest.mark.parametrize("left,right", [(b"short", LEAF_B), (LEAF_A, b""), (LEAF_A + b"x", LEAF_B)])
def test_hash_node_rejects_bad_lengths(left, right):
    with pytest.raises(InvalidDigestError):
        hash_node(DEFAULT_SCHEME, left, right)


def test_default_digests_depth_one():
    leaf = hash_leaf(DEFAULT_SCHEME, b"")
    assert default_digests(DEFAULT_SCHEME, 1) == (hash_node(DEFAULT_SCHEME, leaf, leaf), leaf)


def test_default_digests_recurrence():
    table = default_digests(DEFAULT_SCHEME, 12)
    assert len(table) == 13
    assert table[12] == EMPTY_LEAF
    for level in range(12):
        assert table[level] == hash_node(DEFAULT_SCHEME, table[level + 1], table[level + 1])


def test_default_digests_depth24_root_golden():
    table = default_digests(DEFAULT_SCHEME, 24)
    assert len(table) == 25
    assert table[0] == EMPTY_ROOT_24


@pytest.mark.parametrize("depth", [0, MAX_HEIGHT + 1])
def test_default_digests_rejects_bad_depth(depth):
    with pytest.raises(ValueError):
        default_digests(DEFAULT_SCHEME, depth)


@pytest.mark.parametrize("scheme", [DEFAULT_SCHEME, SLOW_SCHEME], ids=["sha256", "sha256x64"])
def test_empty_chain_is_the_default_table_by_height(scheme):
    chain = scheme.empty_chain
    assert len(chain) == MAX_HEIGHT + 1
    assert chain[0] == hash_leaf(scheme, scheme.default_payload)
    for height in range(MAX_HEIGHT):
        assert chain[height + 1] == hash_node(scheme, chain[height], chain[height])
    table = default_digests(scheme, 24)
    assert all(table[level] is chain[24 - level] for level in range(25))


def test_golden_fixture_file_matches(repo_root):
    text = (repo_root / "fixtures" / "default_digests_sha256.txt").read_text()
    assert format_digest_table(default_digests(DEFAULT_SCHEME, 24)) == text


def test_domain_separation_on_adversarial_payload():
    # A leaf whose payload equals (left || right) must not collide with the
    # internal node over the same bytes.
    leaf_of_concat = hash_leaf(DEFAULT_SCHEME, LEAF_A + LEAF_B)
    assert leaf_of_concat == ADV_LEAF_OF_CONCAT
    assert leaf_of_concat != NODE_AB


@pytest.mark.parametrize(
    "args",
    [{"leaf_domain_tag": b"\x02", "node_domain_tag": b"\x02"}, {"scheme_id": "md5"}, {"leaf_domain_tag": b"\x00\x00"}],
    ids=["equal-tags", "unknown-backend", "multibyte-tag"],
)
def test_scheme_rejects_bad_arguments(args):
    with pytest.raises(ValueError):
        HashScheme(**args)


def test_slow_scheme_is_a_distinct_function():
    assert SLOW_SCHEME.digest_size == 32
    assert hash_leaf(SLOW_SCHEME, b"a") != hash_leaf(DEFAULT_SCHEME, b"a")
    table = default_digests(SLOW_SCHEME, 4)
    for level in range(4):
        assert table[level] == hash_node(SLOW_SCHEME, table[level + 1], table[level + 1])


@given(st.binary(max_size=64))
def test_leaf_digest_size_and_purity(payload):
    digest = hash_leaf(DEFAULT_SCHEME, payload)
    assert len(digest) == DEFAULT_SCHEME.digest_size
    assert digest == hash_leaf(DEFAULT_SCHEME, payload)


@pytest.mark.parametrize("scheme", [DEFAULT_SCHEME, SLOW_SCHEME], ids=["sha256", "sha256x64"])
def test_bound_hasher_equals_public_functions(scheme):
    hasher = scheme.hasher
    assert hasher.digest_size == scheme.digest_size == 32
    for payload in (b"", b"a", bytes(range(70))):
        assert hasher.leaf(payload) == hash_leaf(scheme, payload)
    left, right = hasher.leaf(b"a"), hasher.leaf(b"b")
    assert hasher.node(left, right) == hash_node(scheme, left, right)
    assert hasher.node(right, left) == hash_node(scheme, right, left)
    if scheme is DEFAULT_SCHEME:
        assert hasher.node(LEAF_A, LEAF_B) == NODE_AB


def test_scheme_pickles_with_its_bound_hasher():
    copy = pickle.loads(pickle.dumps(SLOW_SCHEME))
    assert copy == SLOW_SCHEME
    assert copy.hasher.leaf(b"a") == hash_leaf(SLOW_SCHEME, b"a")
    assert copy.empty_chain == SLOW_SCHEME.empty_chain
