"""Golden pins on transaction decomposition and the account codec.

Each bundled trace is replayed, under each filter, from its pre-seeded
book; the pins are a SHA-256 over the op stream (kind, index, payload) and
the final root of a depth-24 tree built from the same pre-seed. They hold
the exact bytes fixed across rewrites of the codec and of `tx_to_leaf_ops`.
"""

import hashlib

import pytest

from smtbench.account_model import (
    Account,
    decode_account,
    encode_account,
)
from smtbench.batch import batch_update
from smtbench.smt_core import LeafOperation, gen
from smtbench.workload import (
    AccountBook,
    TraceValidationError,
    TxRecord,
    TxType,
    apply_leaf_ops,
    build_preseed_book,
    default_pubkey,
    filter_transfer_swap,
    parse_block_trace,
    replay_blocks,
    tx_to_leaf_ops,
)


def stream_digest(block_ops) -> str:
    digest = hashlib.sha256()
    for ops in block_ops:
        for op in ops:
            value = b"-" if op.value is None else op.value.hex().encode()
            digest.update(b"%s %d %s\n" % (op.kind.value.encode(), op.index, value))
    return digest.hexdigest()


def root_after(book: AccountBook, block_ops) -> str:
    tree = gen(24)
    batch_update(tree, [
        LeafOperation.insert(i, encode_account(a)) for i, a in sorted(book.accounts.items())
    ])
    for ops in block_ops:
        batch_update(tree, ops)
    return tree.root().hex()


@pytest.mark.parametrize(
    "name,transfer_swap,op_count,stream,root",
    [
        ("hot_account.json", False, 960,
         "625234f2d119c5f1c4432bfaf6d3ef4614c92c9727bea622adff0e986ff27d93",
         "98aaf1fd00137a52207ccb8b4fba27914386b53d3fde6fbeefaf54eafa8d0ffe"),
        ("dispersed.json", False, 1660,
         "d1af40e57ee7eca3509db848b827bf3639130acd2b313a1973a0a055358e29b5",
         "fe65a9da71fca411bfb211b0d96f8fa35c6c937c0ead19321f67c9ca261ee8a1"),
        # Every transaction in these two traces is a Transfer, so the filter
        # keeps them whole and the pins equal the unfiltered ones.
        ("hot_account.json", True, 960,
         "625234f2d119c5f1c4432bfaf6d3ef4614c92c9727bea622adff0e986ff27d93",
         "98aaf1fd00137a52207ccb8b4fba27914386b53d3fde6fbeefaf54eafa8d0ffe"),
        ("dispersed.json", True, 1660,
         "d1af40e57ee7eca3509db848b827bf3639130acd2b313a1973a0a055358e29b5",
         "fe65a9da71fca411bfb211b0d96f8fa35c6c937c0ead19321f67c9ca261ee8a1"),
        ("synthetic_100blocks.json", True, 11942,
         "1556c50a97c3cce2689bd328edd35a98e9c503d4663025ae2b30adf1da793b6e",
         "74206f306eabb90dafd21146678c10041d9a92663a115cfd106b7a0c0a2669ba"),
        ("synthetic_100blocks.json", False, 15844,
         "4526f3bebb1f18aafa9c1a8aca8889d4e62cfaedb8f812dc708aabea51542199",
         "ae157ebd6c2abd4eef39b9b4c9bc3e58b9e267b8fecfa3c77a075193aa54d678"),
    ],
)
def test_bundled_trace_op_stream_and_root_pinned(
    repo_root, name, transfer_swap, op_count, stream, root
):
    blocks = parse_block_trace(repo_root / "traces" / name)
    if transfer_swap:
        blocks = filter_transfer_swap(blocks)
    book = build_preseed_book(blocks)
    start = book.clone()
    block_ops = [ops for _, ops in replay_blocks(blocks, book)]
    assert len(block_ops) == len(blocks)
    assert sum(map(len, block_ops)) == op_count
    assert stream_digest(block_ops) == stream
    assert root_after(start, block_ops) == root


@pytest.mark.parametrize(
    "account,hex_bytes",
    [
        (
            Account(7, 2**64 - 1, bytes(range(20)), {65535: 2**64 - 1, 0: 2**64, 300: 2**128 - 1}),
            "ffffffffffffffff000102030405060708090a0b0c0d0e0f10111213"
            "0300"
            "0000" "00000000000000000100000000000000"
            "2c01" "ffffffffffffffffffffffffffffffff"
            "ffff" "ffffffffffffffff0000000000000000",
        ),
        (
            Account(1, 0, b"\xff" * 20, {1: 1}),
            "0000000000000000ffffffffffffffffffffffffffffffffffffffff"
            "0100"
            "0100" "01000000000000000000000000000000",
        ),
        (Account(2, 1, b"\x00" * 20), "0100000000000000" + "00" * 20 + "0000"),
    ],
)
def test_account_bytes_pinned(account, hex_bytes):
    assert encode_account(account).hex() == hex_bytes
    assert decode_account(bytes.fromhex(hex_bytes), account.account_id) == account


def funded(*indices, balance=10**9) -> AccountBook:
    return AccountBook(Account(i, 0, default_pubkey(i), {0: balance}) for i in indices)


def test_self_transfer_pinned():
    book = funded(1)
    ops = tx_to_leaf_ops(TxRecord(TxType.TRANSFER, 1, 1, 0, 100), book)
    assert [(op.kind.value, op.index) for op in ops] == [("update", 1), ("update", 1)]
    assert ops[0].value == encode_account(Account(1, 1, default_pubkey(1), {0: 10**9 - 100}))
    assert ops[1].value == encode_account(Account(1, 1, default_pubkey(1), {0: 10**9}))


def test_self_swap_bumps_the_nonce_twice():
    book = funded(1)
    ops = tx_to_leaf_ops(TxRecord(TxType.SWAP, 1, 1, 0, 50), book)
    assert ops[1].value == encode_account(Account(1, 2, default_pubkey(1), {0: 10**9}))


def test_self_forced_exit_updates_then_removes():
    book = funded(1)
    ops = tx_to_leaf_ops(TxRecord(TxType.FORCED_EXIT, 1, 1, 0, 0), book)
    assert [(op.kind.value, op.index) for op in ops] == [("update", 1), ("remove", 1)]
    assert ops[0].value == encode_account(Account(1, 1, default_pubkey(1), {0: 10**9}))
    apply_leaf_ops(book, ops)
    assert 1 not in book.accounts


def test_self_transfer_to_new_rejected_and_book_untouched():
    book = funded(1)
    before = dict(book.accounts)
    with pytest.raises(TraceValidationError, match="expects account 1 to be new"):
        tx_to_leaf_ops(TxRecord(TxType.TRANSFER_TO_NEW, 1, 1, 0, 10), book)
    assert book.accounts == before
