import math
from collections import Counter

import pytest

from smtbench import workload
from smtbench.account_model import Account, InsufficientBalanceError, encode_account
from smtbench.batch import batch_update, two_phase_update
from smtbench.smt_core import LeafOperation, LeafRangeError, OpKind, check_consistency, gen
from smtbench.workload import (
    FROM,
    TO,
    TX_STEPS,
    AccountBook,
    BlockTrace,
    TraceParseError,
    TraceValidationError,
    TxRecord,
    TxType,
    apply_leaf_ops,
    build_preseed_book,
    default_pubkey,
    filter_transfer_swap,
    gen_dispersed_blocks,
    gen_hot_blocks,
    gen_sequential_ops,
    gen_synthetic_blocks,
    gen_uniform_updates,
    parse_block_trace,
    parse_block_trace_text,
    replay_blocks,
    required_preseed,
    serialize_block_traces,
    setup_inserts,
    tx_to_leaf_ops,
)

from oracles import decode_apply, decode_replay, naive_root


def funded_book(*indices, token=0, balance=10**9) -> AccountBook:
    return AccountBook(
        Account(i, 0, default_pubkey(i), {token: balance}) for i in indices
    )


def kinds(ops):
    return [op.kind.value for op in ops]


# -- transaction decomposition ---------------------------------------------------


B = 10**9  # funded_book's balance of token 0


def acct(index, nonce, balances, pubkey=None):
    return Account(index, nonce, pubkey or default_pubkey(index), balances)


# Each transaction on funded_book(1, 2): its ops' kinds and indices, in step
# order, and the touched accounts after the ops apply (None: removed).
DECOMPOSITIONS = [
    (TxRecord(TxType.TRANSFER, 1, 2, 0, 100), "update update", [1, 2],
     {1: acct(1, 1, {0: B - 100}), 2: acct(2, 0, {0: B + 100})}),
    (TxRecord(TxType.TRANSFER_TO_NEW, 1, 7, 0, 10), "update insert", [1, 7],
     {1: acct(1, 1, {0: B - 10}), 7: acct(7, 0, {0: 10})}),
    (TxRecord(TxType.WITHDRAW, 1, None, 0, 5), "update", [1], {1: acct(1, 1, {0: B - 5})}),
    (TxRecord(TxType.CHANGE_PUBKEY, 1, None, 0, 0), "update", [1],
     {1: acct(1, 1, {0: B}, workload._rotated_pubkey(1, 1))}),
    # MintNFT: receiver first, then creator; WithdrawNFT: owner, then creator.
    (TxRecord(TxType.MINT_NFT, 1, 2, 3, 1), "update update", [2, 1],
     {2: acct(2, 0, {0: B, 3: 1}), 1: acct(1, 1, {0: B})}),
    (TxRecord(TxType.WITHDRAW_NFT, 1, 2, 0, 1), "update update", [1, 2],
     {1: acct(1, 1, {0: B - 1}), 2: acct(2, 1, {0: B})}),
    (TxRecord(TxType.FORCED_EXIT, 1, 2, 0, 0), "update remove", [1, 2],
     {1: acct(1, 1, {0: B}), 2: None}),
    (TxRecord(TxType.FULL_EXIT, 1, 2, 0, 0), "update remove", [1, 2],
     {1: acct(1, 1, {0: B}), 2: None}),
    (TxRecord(TxType.SWAP, 1, 2, 0, 50), "update update", [1, 2],
     {1: acct(1, 1, {0: B - 50}), 2: acct(2, 1, {0: B + 50})}),
    (TxRecord(TxType.DEPOSIT, None, 2, 0, 5), "update", [2], {2: acct(2, 0, {0: B + 5})}),
    (TxRecord(TxType.DEPOSIT, None, 9, 0, 5), "insert", [9], {9: acct(9, 0, {0: 5})}),
]


@pytest.mark.parametrize(
    "tx, op_kinds, indices, end",
    DECOMPOSITIONS,
    ids=[f"{tx.tx_type.value}-{indices[-1]}" for tx, _, indices, _ in DECOMPOSITIONS],
)
def test_decomposition(tx, op_kinds, indices, end):
    book = funded_book(1, 2)
    ops = tx_to_leaf_ops(tx, book)
    assert kinds(ops) == op_kinds.split()
    assert [op.index for op in ops] == indices
    apply_leaf_ops(book, ops)
    assert {index: book.accounts.get(index) for index in end} == end


def test_transfer_to_new_rejects_existing_target():
    book = funded_book(1, 7)
    with pytest.raises(TraceValidationError):
        tx_to_leaf_ops(TxRecord(TxType.TRANSFER_TO_NEW, 1, 7, 0, 10), book)


def test_unresolved_reference_rejected():
    with pytest.raises(TraceValidationError):
        tx_to_leaf_ops(TxRecord(TxType.TRANSFER, 1, 2, 0, 1), funded_book(1))


def test_block_trace_requires_a_transaction():
    with pytest.raises(TraceValidationError, match=r"^block 3 has no transactions$"):
        BlockTrace(3, ())


def test_tx_record_requires_role_fields():
    with pytest.raises(TraceValidationError):
        TxRecord(TxType.TRANSFER, 1, None, 0, 1)
    with pytest.raises(TraceValidationError):
        TxRecord(TxType.DEPOSIT, 1, None, 0, 1)


@pytest.mark.parametrize("tx_type", list(TxType))
def test_role_checks_follow_the_step_table(tx_type):
    needs = {
        FROM: tx_type is not TxType.DEPOSIT,
        TO: tx_type not in (TxType.WITHDRAW, TxType.CHANGE_PUBKEY),
    }
    assert {step.role for step in TX_STEPS[tx_type]} == {r for r, n in needs.items() if n}
    for role, needed in needs.items():
        fields = {"from_account": 1, "to_account": 2}
        fields[f"{role}_account"] = None
        if needed:
            with pytest.raises(TraceValidationError, match=f"requires a {role} account"):
                TxRecord(tx_type, **fields)
        else:
            TxRecord(tx_type, **fields)


def test_tx_record_rejects_a_negative_amount():
    with pytest.raises(TraceValidationError, match=r"^amount must be non-negative, got -5$"):
        TxRecord(TxType.TRANSFER, 1, 2, 0, -5)
    assert TxRecord(TxType.TRANSFER, 1, 2, 0, 0).amount == 0


class _Index(int):
    """An int subclass that is not a bool."""


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"to_account": 5, "amount": 1.5}, "amount must be an integer, got float"),
        ({"to_account": 5, "amount": True}, "amount must be an integer, got bool"),
        ({"to_account": "5"}, "'to' must be a non-negative integer"),
        ({"to_account": -5}, "'to' must be a non-negative integer"),
        ({"to_account": False}, "'to' must be a non-negative integer"),
        ({"from_account": 1.0, "to_account": 5}, "'from' must be a non-negative integer"),
        ({"from_account": -1, "to_account": 5}, "'from' must be a non-negative integer"),
        ({"to_account": 5, "token_id": "0"}, "'token' must be a non-negative integer"),
        ({"to_account": 5, "token_id": True}, "'token' must be a non-negative integer"),
        ({"to_account": 5, "token_id": -1}, "'token' must be a non-negative integer"),
    ],
)
def test_tx_record_rejects_a_mistyped_field(fields, message):
    # Each of these once built, and its replay then failed with no location
    # or, for a bool amount, replayed as 1.
    with pytest.raises(TraceValidationError) as info:
        TxRecord(TxType.DEPOSIT, **fields)
    assert str(info.value) == message


def test_tx_record_accepts_an_int_subclass():
    tx = TxRecord(TxType.TRANSFER, _Index(1), _Index(2), _Index(0), _Index(3))
    assert tx == TxRecord(TxType.TRANSFER, 1, 2, 0, 3)


def test_parse_accepts_the_amounts_the_serializer_writes():
    txs = [TxRecord(TxType.DEPOSIT, None, 1, 0, amount) for amount in (0, 7, 10, 2**128)]
    text = serialize_block_traces([BlockTrace(1, tuple(txs))])
    assert parse_block_trace_text(text)[0].txs == tuple(txs)


def test_replay_error_names_block_tx_and_type():
    blocks = [
        BlockTrace(4, (TxRecord(TxType.DEPOSIT, None, 1, 0, 5),)),
        BlockTrace(5, (
            TxRecord(TxType.TRANSFER, 1, 2, 0, 1),
            TxRecord(TxType.WITHDRAW, 2, None, 0, 10**10),
        )),
    ]
    with pytest.raises(InsufficientBalanceError) as info:
        replay_blocks(blocks, funded_book(2))
    assert str(info.value) == "block 5 tx 1 (Withdraw): account 2 token 0: 1000000001 + -10000000000 < 0"
    assert isinstance(info.value.__cause__, InsufficientBalanceError)
    with pytest.raises(TraceValidationError, match=r"^block 4 tx 0 \(Transfer\): Transfer references absent account 9$"):
        replay_blocks([BlockTrace(4, (TxRecord(TxType.TRANSFER, 1, 9, 0, 1),))], funded_book(1))


def test_failed_tx_leaves_the_book_untouched():
    # The swap's first step succeeds and is recorded; its second, on an absent
    # account, raises. Later applies, hand-built and decomposed, match the
    # decode-only reference.
    book, reference = funded_book(1, 2), funded_book(1, 2)
    before = dict(book.accounts)
    with pytest.raises(TraceValidationError, match="references absent account 9"):
        tx_to_leaf_ops(TxRecord(TxType.SWAP, 1, 9, 0, 10), book)
    assert book.accounts == before
    hand = Account(1, 3, default_pubkey(1), {0: 10**9})
    for apply, target in ((apply_leaf_ops, book), (decode_apply, reference)):
        apply(target, [LeafOperation.update(1, encode_account(hand))])
        for tx in (TxRecord(TxType.TRANSFER, 1, 2, 0, 10), TxRecord(TxType.SWAP, 2, 1, 0, 4)):
            apply(target, tx_to_leaf_ops(tx, target))
    assert book.accounts == reference.accounts
    assert book.accounts[1] == Account(1, 5, default_pubkey(1), {0: 10**9 - 6})


def test_self_transfer_threads_state_through_the_tx():
    book = funded_book(1)
    ops = tx_to_leaf_ops(TxRecord(TxType.TRANSFER, 1, 1, 0, 100), book)
    assert [op.index for op in ops] == [1, 1]
    apply_leaf_ops(book, ops)
    assert book.accounts[1].balances[0] == 10**9
    assert book.accounts[1].nonce == 1


# -- reusing the accounts decomposition encoded ---------------------------------------


def _trace_blocks(repo_root, source):
    if isinstance(source, int):
        return gen_synthetic_blocks(seed=source)
    return parse_block_trace(repo_root / "traces" / source)


@pytest.mark.parametrize(
    "source",
    ["hot_account.json", "dispersed.json", "synthetic_100blocks.json", 1, 2, 3, 4, 5],
)
def test_replay_matches_the_decode_only_reference(repo_root, source):
    blocks = _trace_blocks(repo_root, source)
    book, reference = build_preseed_book(blocks), build_preseed_book(blocks)
    replayed = replay_blocks(blocks, book)
    assert [ops for _, ops in replayed] == decode_replay(blocks, reference)
    assert book.accounts == reference.accounts


def test_replay_reuses_every_account_and_empties_the_record(repo_root, monkeypatch):
    def no_decode(data, account_id):
        raise AssertionError(f"decoded account {account_id}")

    blocks = _trace_blocks(repo_root, "synthetic_100blocks.json")
    book = build_preseed_book(blocks)
    monkeypatch.setattr(workload, "decode_account", no_decode)
    replay_blocks(blocks, book)
    assert book._encoded == {}


def test_hand_built_ops_are_decoded():
    book = funded_book(1)
    account = Account(1, 7, default_pubkey(1), {0: 5, 3: 2})
    apply_leaf_ops(book, [LeafOperation.update(1, encode_account(account)),
                          LeafOperation.insert(4, encode_account(Account(4)))])
    assert book.accounts == {1: account, 4: Account(4)}


def test_a_payload_that_is_not_the_recorded_one_is_decoded():
    # The record at index 1 is for another payload: the op's own payload wins.
    book = funded_book(1, 2)
    tx_to_leaf_ops(TxRecord(TxType.TRANSFER, 1, 2, 0, 100), book)
    other = Account(1, 7, default_pubkey(1), {0: 5})
    apply_leaf_ops(book, [LeafOperation.update(1, encode_account(other))])
    assert book.accounts[1] == other
    # An equal payload in another bytes object is decoded, to an equal account.
    ops = tx_to_leaf_ops(TxRecord(TxType.TRANSFER, 1, 2, 0, 1), book)
    recorded = book._encoded[1][1]
    copy = LeafOperation.update(1, bytes(bytearray(ops[0].value)))
    apply_leaf_ops(book, [copy])
    assert book.accounts[1] == recorded and book.accounts[1] is not recorded


@pytest.mark.parametrize("tx_type, nonce", [(TxType.TRANSFER, 1), (TxType.SWAP, 2)])
def test_self_transfer_and_self_swap_end_states(tx_type, nonce):
    book, reference = funded_book(1), funded_book(1)
    tx = TxRecord(tx_type, 1, 1, 0, 100)
    apply_leaf_ops(book, tx_to_leaf_ops(tx, book))
    decode_apply(reference, tx_to_leaf_ops(tx, reference))
    assert book.accounts == reference.accounts == {
        1: Account(1, nonce, default_pubkey(1), {0: 10**9})
    }
    assert book._encoded == {}


def test_a_clone_does_not_see_the_originals_records():
    book = funded_book(1, 2)
    ops = tx_to_leaf_ops(TxRecord(TxType.TRANSFER, 1, 2, 0, 100), book)
    recorded = book._encoded[1][1]
    clone = book.clone()
    assert clone._encoded == {}
    apply_leaf_ops(clone, ops)
    assert clone.accounts[1] == recorded and clone.accounts[1] is not recorded
    assert set(book._encoded) == {1, 2}
    apply_leaf_ops(book, ops)
    assert book.accounts[1] is recorded


# -- pre-seeding ---------------------------------------------------------------------


def test_required_preseed_tracks_in_trace_lifecycle():
    blocks = [
        BlockTrace(1, (
            TxRecord(TxType.TRANSFER_TO_NEW, 1, 5, 0, 10),  # creates 5
            TxRecord(TxType.TRANSFER, 5, 2, 0, 1),          # 5 in-trace, 2 preseed
            TxRecord(TxType.FORCED_EXIT, 1, 5, 0, 0),       # removes 5
            TxRecord(TxType.DEPOSIT, None, 5, 0, 3),        # re-creates 5
        )),
    ]
    preseed, tokens = required_preseed(blocks)
    assert preseed == {1, 2}
    assert tokens == {0}


def test_reference_after_removal_rejected():
    blocks = [
        BlockTrace(1, (
            TxRecord(TxType.FORCED_EXIT, 1, 2, 0, 0),
            TxRecord(TxType.TRANSFER, 2, 1, 0, 1),
        )),
    ]
    with pytest.raises(TraceValidationError):
        required_preseed(blocks)


def test_exited_account_can_be_recreated():
    blocks = [
        BlockTrace(1, (
            TxRecord(TxType.FORCED_EXIT, 1, 2, 0, 0),
            TxRecord(TxType.TRANSFER_TO_NEW, 1, 2, 0, 10),
        )),
    ]
    assert required_preseed(blocks) == ({1, 2}, {0})
    ops = replay_blocks(blocks, build_preseed_book(blocks))[0][1]
    assert [(op.kind.value, op.index) for op in ops] == [
        ("update", 1), ("remove", 2), ("update", 1), ("insert", 2)
    ]


def test_transfer_to_new_existing_target_rejected():
    blocks = [
        BlockTrace(1, (
            TxRecord(TxType.TRANSFER_TO_NEW, 1, 2, 0, 1),
            TxRecord(TxType.TRANSFER_TO_NEW, 1, 2, 0, 1),
        )),
    ]
    with pytest.raises(TraceValidationError, match="TransferToNew target 2 already exists"):
        required_preseed(blocks)


def test_deposit_to_unseen_account_creates_it_with_one_token():
    blocks = [
        BlockTrace(1, (
            TxRecord(TxType.DEPOSIT, None, 9, 0, 5),
            TxRecord(TxType.SWAP, 9, 1, 2, 7),
        )),
    ]
    assert required_preseed(blocks) == ({1}, {0, 2})
    with pytest.raises(InsufficientBalanceError, match="account 9 token 2: 0 [+] -7 < 0"):
        replay_blocks(blocks, build_preseed_book(blocks))


@pytest.mark.parametrize("transfer_swap", [False, True])
@pytest.mark.parametrize("name", ["hot_account.json", "dispersed.json", "synthetic_100blocks.json"])
def test_bundled_trace_replays_under_every_filter(repo_root, name, transfer_swap):
    blocks = parse_block_trace(repo_root / "traces" / name)
    if transfer_swap:
        blocks = filter_transfer_swap(blocks)
    assert len(replay_blocks(blocks, build_preseed_book(blocks))) == len(blocks)


def test_synthetic_traces_replay_without_rejection():
    for seed in range(1, 41):
        blocks = gen_synthetic_blocks(seed=seed)
        replay_blocks(blocks, build_preseed_book(blocks))


def test_build_preseed_book_funds_all_tokens():
    blocks = [
        BlockTrace(1, (
            TxRecord(TxType.TRANSFER, 1, 2, 3, 10),
            TxRecord(TxType.SWAP, 2, 1, 7, 10),
        )),
    ]
    book = build_preseed_book(blocks)
    assert set(book.accounts) == {1, 2}
    assert set(book.accounts[1].balances) == {3, 7}


# -- generators ------------------------------------------------------------------------


@pytest.mark.parametrize("kind", [OpKind.UPDATE, OpKind.INSERT])
def test_sequential_ops_shape_and_determinism(kind):
    ops = gen_sequential_ops(kind, 3, depth=8, seed=4)
    assert [op.index for op in ops] == [0, 1, 2]
    assert all(op.kind is kind for op in ops)
    assert ops == gen_sequential_ops(kind, 3, depth=8, seed=4)
    assert ops != gen_sequential_ops(kind, 3, depth=8, seed=5)
    # Both kinds draw the same payloads from the seed.
    assert [op.value for op in ops] == [
        op.value for op in gen_sequential_ops(OpKind.UPDATE, 3, depth=8, seed=4)
    ]


def test_sequential_ops_range_check():
    assert len(gen_sequential_ops(OpKind.INSERT, 256, depth=8, seed=0)) == 256
    with pytest.raises(LeafRangeError, match=r"inserts \[0, 257\) exceed capacity 2\^8"):
        gen_sequential_ops(OpKind.INSERT, 257, depth=8, seed=0)


def test_uniform_updates_deterministic_and_pinned():
    ops = gen_uniform_updates(6, seed=7, depth=8)
    assert ops == gen_uniform_updates(6, seed=7, depth=8)
    # pinned once from the declared generator (random.Random(7), 32-byte payloads)
    assert [op.index for op in ops] == [165, 48, 222, 63, 203, 214]
    assert ops[0].value.hex() == (
        "e44da7f2370d9e260e27136550a4a3a6d07f5c0c332f8b1224083fd22b902f89"
    )
    assert gen_uniform_updates(0, seed=7, depth=8) == []


def test_uniform_updates_distribution_is_flat():
    draws = 100_000
    counts = Counter(op.index for op in gen_uniform_updates(draws, seed=13, depth=8))
    expected = draws / 256
    sigma = math.sqrt(draws * (1 / 256) * (255 / 256))
    for index in range(256):
        assert abs(counts.get(index, 0) - expected) < 5 * sigma


def test_setup_inserts_cover_distinct_targets():
    ops = [LeafOperation.update(3, b"x"), LeafOperation.update(1, b"y"), LeafOperation.update(3, b"z")]
    inserts = setup_inserts(ops)
    assert [op.index for op in inserts] == [1, 3]
    assert all(op.kind is OpKind.INSERT for op in inserts)


def test_hot_blocks_shape():
    (trace,) = gen_hot_blocks(1, 48)
    assert len(trace.txs) == 48
    assert {tx.from_account for tx in trace.txs} == {0}
    counterparties = [tx.to_account for tx in trace.txs]
    assert len(set(counterparties)) == 48
    book = build_preseed_book([trace])
    ops = replay_blocks([trace], book)[0][1]
    assert len(ops) == 2 * 48
    blocks = gen_hot_blocks(3, 4)
    assert [block.block_number for block in blocks] == [1, 2, 3]
    assert [tx.to_account for block in blocks for tx in block.txs] == list(range(1, 13))


def test_synthetic_blocks_match_dataset_shape():
    blocks = gen_synthetic_blocks(seed=1318)
    sizes = [len(b.txs) for b in blocks]
    assert len(blocks) == 100
    assert sum(sizes) == 8376
    assert min(sizes) >= 74
    assert max(sizes) <= 133
    mix = Counter(tx.tx_type for b in blocks for tx in b.txs)
    assert abs(mix[TxType.SWAP] / 8376 - 0.474) < 0.05
    assert abs(mix[TxType.TRANSFER] / 8376 - 0.2265) < 0.05
    # priority sealing: a priority tx can only close its block
    for block in blocks:
        for position, tx in enumerate(block.txs):
            if tx.tx_type in (TxType.DEPOSIT, TxType.FULL_EXIT):
                assert position == len(block.txs) - 1
    # account-reuse knob: unique participants give roughly 2.5 tx/account
    participants = set()
    for block in blocks:
        for tx in block.txs:
            participants.update(
                i for i in (tx.from_account, tx.to_account) if i is not None
            )
    assert abs(8376 / len(participants) - 2.5) < 0.3
    assert blocks == gen_synthetic_blocks(seed=1318)


def test_dispersed_blocks_never_reuse_accounts():
    blocks = gen_dispersed_blocks(4)
    assert [len(block.txs) for block in blocks] == [83] * 4
    seen = set()
    for block in blocks:
        for tx in block.txs:
            assert tx.from_account not in seen
            assert tx.to_account not in seen
            seen.update((tx.from_account, tx.to_account))


def test_filter_transfer_swap():
    blocks = [
        BlockTrace(1, (
            TxRecord(TxType.TRANSFER, 1, 2, 0, 1),
            TxRecord(TxType.CHANGE_PUBKEY, 1, None, 0, 0),
            TxRecord(TxType.SWAP, 2, 1, 0, 1),
        )),
        BlockTrace(2, (TxRecord(TxType.DEPOSIT, None, 3, 0, 1),)),
    ]
    filtered = filter_transfer_swap(blocks)
    assert len(filtered) == 1
    assert [tx.tx_type for tx in filtered[0].txs] == [TxType.TRANSFER, TxType.SWAP]


# -- trace files --------------------------------------------------------------------------


def test_serialize_parse_round_trip():
    blocks = gen_synthetic_blocks(seed=2, blocks=3, total_txs=250)
    text = serialize_block_traces(blocks)
    assert parse_block_trace_text(text) == blocks


def test_serializer_key_order_fixed():
    text = serialize_block_traces([BlockTrace(9, (TxRecord(TxType.TRANSFER, 1, 2, 0, 100),))])
    assert '{"type": "Transfer", "from": 1, "to": 2, "token": 0, "amount": "100"}' in text
    assert text.index('"block_number"') < text.index('"txs"')


def test_single_tx_round_trip():
    blocks = [BlockTrace(1, (TxRecord(TxType.DEPOSIT, None, 4, 2, 12),))]
    assert parse_block_trace_text(serialize_block_traces(blocks)) == blocks


def test_parse_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    with pytest.raises(TraceParseError):
        parse_block_trace(path)


def test_parse_error_reports_json_line():
    with pytest.raises(TraceParseError, match=r"line \d+"):
        parse_block_trace_text('{"blocks": [\n {"block_number": }\n]}')


@pytest.mark.parametrize(
    "text,match",
    [
        ('{"blocks": [{"block_number": 1, "txs": [{"type": "Teleport"}]}]}', "unknown tx_type"),
        ('{"blocks": [{"block_number": 1, "txs": []}]}', "non-empty"),
        ('{"blocks": [{"block_number": "x", "txs": [1]}]}', "block_number"),
        ('{"nope": 1}', "blocks"),
        ('{"blocks": [1]}', r"^blocks\[0\]: block must be an object$"),
        ('{"blocks": [{"block_number": 1, "txs": [{"type": "Deposit", "to": 1, "amount": "12x"}]}]}', "decimal"),
        ('{"blocks": [{"block_number": 1, "txs": [{"type": "Deposit", "to": -1}]}]}', "non-negative"),
        ('{"blocks": [{"block_number": 1, "txs": [{"type": "Withdraw", "to": 1}]}]}', "requires"),
        pytest.param(  # an int literal past CPython's int-string limit (4,300 digits)
            '{"blocks": [{"block_number": 1, "txs": [{"type": "Deposit", "to": 1, "amount": '
            + "9" * 5000 + "}]}]}", "limit", id="int-literal-past-digit-limit"),
    ],
)
def test_parse_rejects_malformed(text, match):
    with pytest.raises(TraceParseError, match=match):
        parse_block_trace_text(text)


@pytest.mark.parametrize(
    "txs,message",
    [
        ('{"type": "Deposit", "to": 1}, {"type": "Teleport"}', "blocks[1].txs[1]: unknown tx_type 'Teleport'"),
        ('{"type": ["x"]}', "blocks[1].txs[0]: unknown tx_type ['x']"),
        ('{"to": 3}', "blocks[1].txs[0]: missing 'type'"),
        ('7', "blocks[1].txs[0]: transaction must be an object"),
        ('{"type": "Deposit", "to": 1, "amount": 1.5}', "blocks[1].txs[0]: 'amount' must be a decimal string"),
        ('{"type": "Transfer", "from": 1, "to": 2, "token": 0, "amount": -5}',
         "blocks[1].txs[0]: amount must be non-negative, got -5"),
        *(
            (f'{{"type": "Transfer", "from": 1, "to": 2, "amount": "{amount}"}}',
             "blocks[1].txs[0]: 'amount' is not a canonical decimal string")
            for amount in ("-5", "+3", " 7 ", "5_000", "007", "00", "", "\\u0663")
        ),
        ('{"type": "Deposit", "to": 1, "token": -2}', "blocks[1].txs[0]: 'token' must be a non-negative integer"),
        ('{"type": "Deposit", "to": 1, "token": true}', "blocks[1].txs[0]: 'token' must be a non-negative integer"),
        ('{"type": "Deposit", "to": 1, "amount": false}', "blocks[1].txs[0]: 'amount' must be a decimal string"),
        ('{"type": "Transfer", "from": "a", "to": 2}', "blocks[1].txs[0]: 'from' must be a non-negative integer"),
        ('{"type": "Transfer", "from": true, "to": 2}', "blocks[1].txs[0]: 'from' must be a non-negative integer"),
        ('{"type": "Transfer", "from": 1}', "blocks[1].txs[0]: Transfer requires a to account"),
    ],
)
def test_parse_error_messages_name_the_transaction(txs, message):
    text = ('{"blocks": [{"block_number": 1, "txs": [{"type": "Deposit", "to": 1}]}, '
            f'{{"block_number": 2, "txs": [{txs}]}}]}}')
    with pytest.raises(TraceParseError) as err:
        parse_block_trace_text(text)
    assert str(err.value) == message


def test_bundled_fixtures_parse_and_regenerate(repo_root, tmp_path):
    from smtbench.bench import gen_fixture

    for name, kind in [
        ("synthetic_100blocks.json", "synthetic100"),
        ("hot_account.json", "hot"),
        ("dispersed.json", "dispersed"),
    ]:
        bundled = repo_root / "traces" / name
        parse_block_trace(bundled)  # must be loadable
        regenerated = tmp_path / name
        gen_fixture(kind, regenerated)
        assert regenerated.read_bytes() == bundled.read_bytes(), name


def test_bundled_fixture_replays_through_both_engines(repo_root):
    blocks = parse_block_trace(repo_root / "traces" / "hot_account.json")
    book = build_preseed_book(blocks)
    tree = gen(10)
    seeds = [
        LeafOperation.insert(a.account_id, encode_account(a))
        for a in sorted(book.accounts.values(), key=lambda a: a.account_id)
    ]
    batch_update(tree, seeds)
    other = tree.clone()
    for _, ops in replay_blocks(blocks, book):
        assert batch_update(tree, ops).new_root == two_phase_update(other, ops).new_root
    check_consistency(tree)
    assert tree.root() == naive_root(10, dict(tree.leaf_values))
