"""Benchmark workloads: synthetic operation generators and block-trace replay.

Micro workloads are plain leaf-operation lists. Macro workloads are block
traces: ordered transactions that decompose into one or two leaf operations
each, replayed against an account book so successive transactions see each
other's effects. What each transaction type does to its accounts is written
once, as its steps in `TX_STEPS`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, NamedTuple

from .account_model import (
    Account,
    AccountCodecError,
    InsufficientBalanceError,
    apply_delta,
    decode_account,
    encode_account,
)
from .smt_core import (
    OP_INSERT,
    OP_REMOVE,
    OP_UPDATE,
    LeafOperation,
    LeafRangeError,
    OpKind,
    _is_index,
)

SEED_BALANCE = 10**30  # pre-seeded accounts can fund any synthetic flow
_PAYLOAD_BYTES = 32


class TraceParseError(ValueError):
    """A trace file is syntactically or structurally malformed."""


class TraceValidationError(ValueError):
    """A transaction references accounts inconsistently with the trace so far."""


class TxType(str, Enum):
    TRANSFER = "Transfer"
    TRANSFER_TO_NEW = "TransferToNew"
    WITHDRAW = "Withdraw"
    WITHDRAW_NFT = "WithdrawNFT"
    MINT_NFT = "MintNFT"
    CHANGE_PUBKEY = "ChangePubKey"
    FORCED_EXIT = "ForcedExit"
    SWAP = "Swap"
    DEPOSIT = "Deposit"
    FULL_EXIT = "FullExit"


# Roles: which of a transaction's account fields a step acts on.
FROM, TO = "from", "to"
# Actions: UPDATE an existing account, INSERT a new one, UPSERT (update if it
# exists, insert otherwise), ROTATE (update and rotate the key), REMOVE.
UPDATE, INSERT, UPSERT, ROTATE, REMOVE = "update", "insert", "upsert", "rotate", "remove"


class Step(NamedTuple):
    """One leaf operation of a transaction: the account `role` names gets
    `sign * amount` of the transaction's token and, if `bump_nonce`, its
    nonce bumped. An inserted account starts with only that balance."""

    role: str
    action: str
    sign: int
    bump_nonce: bool


_EXIT = (Step(FROM, UPDATE, 0, True), Step(TO, REMOVE, 0, False))

# Each transaction type's account semantics, in leaf-operation order.
TX_STEPS: dict[TxType, tuple[Step, ...]] = {
    TxType.TRANSFER: (Step(FROM, UPDATE, -1, True), Step(TO, UPDATE, +1, False)),
    TxType.TRANSFER_TO_NEW: (Step(FROM, UPDATE, -1, True), Step(TO, INSERT, +1, False)),
    TxType.WITHDRAW: (Step(FROM, UPDATE, -1, True),),
    TxType.WITHDRAW_NFT: (Step(FROM, UPDATE, -1, True), Step(TO, UPDATE, 0, True)),
    TxType.MINT_NFT: (Step(TO, UPDATE, +1, False), Step(FROM, UPDATE, 0, True)),
    TxType.CHANGE_PUBKEY: (Step(FROM, ROTATE, 0, True),),
    TxType.FORCED_EXIT: _EXIT,
    TxType.SWAP: (Step(FROM, UPDATE, -1, True), Step(TO, UPDATE, +1, True)),
    TxType.DEPOSIT: (Step(TO, UPSERT, +1, False),),
    TxType.FULL_EXIT: _EXIT,
}

# (needs from, needs to) per type, read off its steps.
_NEEDS = {
    kind: tuple(any(step.role == role for step in steps) for role in (FROM, TO))
    for kind, steps in TX_STEPS.items()
}


@dataclass(frozen=True, slots=True)
class TxRecord:
    """One trace transaction. A frozen slotted dataclass with its own
    `__init__`, which checks it: a `TxType`, the account fields its steps in
    `TX_STEPS` name, and account indices, token id and amount that are ints
    (a bool is not one) and not negative; a negative amount would run it
    backwards. The trace parser reports these checks' messages as they are.
    Like `LeafOperation`'s, `__init__` sets the fields through the slots' own
    setters, faster than `object.__setattr__`."""

    tx_type: TxType
    from_account: int | None
    to_account: int | None
    token_id: int
    amount: int

    def __init__(
        self,
        tx_type: TxType,
        from_account: int | None = None,
        to_account: int | None = None,
        token_id: int = 0,
        amount: int = 0,
    ) -> None:
        if tx_type.__class__ is not TxType:  # a str would pass for a TxType as a key
            raise TraceValidationError(f"type must be a TxType, got {tx_type!r}")
        # Each field is an exact int, or else an int that is not a bool.
        if token_id.__class__ is not int and not _is_index(token_id) or token_id < 0:
            raise TraceValidationError("'token' must be a non-negative integer")
        if from_account is not None and (
            from_account.__class__ is not int and not _is_index(from_account) or from_account < 0
        ):
            raise TraceValidationError("'from' must be a non-negative integer")
        if to_account is not None and (
            to_account.__class__ is not int and not _is_index(to_account) or to_account < 0
        ):
            raise TraceValidationError("'to' must be a non-negative integer")
        needs_from, needs_to = _NEEDS[tx_type]
        if needs_from and from_account is None:
            raise TraceValidationError(f"{tx_type.value} requires a from account")
        if needs_to and to_account is None:
            raise TraceValidationError(f"{tx_type.value} requires a to account")
        if amount.__class__ is not int and not _is_index(amount):
            raise TraceValidationError(f"amount must be an integer, got {type(amount).__name__}")
        if amount < 0:
            raise TraceValidationError(f"amount must be non-negative, got {amount}")
        _set_tx_type(self, tx_type)
        _set_from(self, from_account)
        _set_to(self, to_account)
        _set_token(self, token_id)
        _set_amount(self, amount)

    def __reduce__(self):  # unpickling runs `__init__`, so its checks hold
        return self.__class__, (
            self.tx_type, self.from_account, self.to_account, self.token_id, self.amount
        )


# The slots' own setters, which bypass the write guard.
_set_tx_type = TxRecord.tx_type.__set__
_set_from = TxRecord.from_account.__set__
_set_to = TxRecord.to_account.__set__
_set_token = TxRecord.token_id.__set__
_set_amount = TxRecord.amount.__set__


@dataclass(frozen=True)
class BlockTrace:
    block_number: int
    txs: tuple[TxRecord, ...]

    def __post_init__(self) -> None:
        if not self.txs:
            raise TraceValidationError(f"block {self.block_number} has no transactions")


class AccountBook:
    """Mutable account registry advanced alongside trace replay.

    Besides `accounts`, the book keeps the account `tx_to_leaf_ops` last
    encoded at each index, with its payload, so `apply_leaf_ops` can take it
    back without decoding the payload again. That map holds at most one entry
    per index; `clone` starts it empty. A recorded account is a fresh object
    nothing else holds, so the book can keep it as it is.
    """

    def __init__(self, accounts: Iterable[Account] = ()) -> None:
        self.accounts: dict[int, Account] = {a.account_id: a for a in accounts}
        self._encoded: dict[int, tuple[bytes, Account]] = {}

    def clone(self) -> "AccountBook":
        book = AccountBook()
        book.accounts = dict(self.accounts)
        return book


def default_pubkey(index: int) -> bytes:
    return index.to_bytes(20, "little")


def _rotated_pubkey(index: int, nonce: int) -> bytes:
    return index.to_bytes(8, "little") + nonce.to_bytes(8, "little") + b"\x01\x00\x00\x00"


# -- transaction decomposition -------------------------------------------------


def tx_to_leaf_ops(tx: TxRecord, book: AccountBook) -> list[LeafOperation]:
    """Decompose one transaction into its one or two leaf operations, one
    per step of its type.

    Never changes `book.accounts`; op payloads are the encoded
    post-transaction account states, and a second step on the same account
    starts from the first step's result. Each account it encodes is recorded
    in the book beside its payload. Apply the returned ops with
    `apply_leaf_ops` to advance the book before the next transaction.
    """
    accounts, encoded = book.accounts, book._encoded
    token, amount = tx.token_id, tx.amount
    ops = []
    last_index = last = None  # the previous step's account index and result
    for role, action, sign, bump_nonce in TX_STEPS[tx.tx_type]:
        index = tx.from_account if role == FROM else tx.to_account
        account = last if index == last_index else accounts.get(index)
        delta = sign * amount
        if action == INSERT or (action == UPSERT and account is None):
            if account is not None:
                raise TraceValidationError(
                    f"{tx.tx_type.value} expects account {index} to be new"
                )
            last = Account(index, 0, default_pubkey(index), {token: delta} if delta else {})
            payload = encode_account(last)
            encoded[index] = payload, last
            ops.append(LeafOperation(OP_INSERT, index, payload))
        elif account is None:
            raise TraceValidationError(
                f"{tx.tx_type.value} references absent account {index}"
            )
        elif action == REMOVE:
            last = None
            ops.append(LeafOperation.remove(index))
        else:
            rotated = _rotated_pubkey(index, account.nonce + 1) if action == ROTATE else None
            last = apply_delta(account, token, delta, bump_nonce, rotated)
            payload = encode_account(last)
            encoded[index] = payload, last
            ops.append(LeafOperation(OP_UPDATE, index, payload))
        last_index = index
    return ops


def apply_leaf_ops(book: AccountBook, ops: Iterable[LeafOperation]) -> None:
    """Advance the account book past a batch of decomposed operations.

    An op whose payload is the very bytes object `tx_to_leaf_ops` recorded
    for its index takes the recorded account; any other op, such as a
    hand-built one, is decoded. Every op clears its index's record.
    """
    accounts, encoded = book.accounts, book._encoded
    for op in ops:
        index = op.index
        recorded = encoded.pop(index, None)
        if op.kind is OP_REMOVE:
            del accounts[index]
        elif recorded is not None and recorded[0] is op.value:
            accounts[index] = recorded[1]
        else:
            accounts[index] = decode_account(op.value, index)


# What `tx_to_leaf_ops` raises for a transaction the book cannot take.
TX_ERRORS = (TraceValidationError, InsufficientBalanceError, AccountCodecError)


def replay_blocks(
    blocks: Iterable[BlockTrace], book: AccountBook
) -> list[tuple[BlockTrace, list[LeafOperation]]]:
    """Decompose every block in order, advancing the book as replay proceeds.

    A transaction that cannot be decomposed re-raises its error, same class,
    prefixed with its location: `block <n> tx <i> (<type>): `, where i counts
    from 0 within the block.
    """
    out = []
    for block in blocks:
        block_ops: list[LeafOperation] = []
        for position, tx in enumerate(block.txs):
            try:
                ops = tx_to_leaf_ops(tx, book)
            except TX_ERRORS as exc:
                where = f"block {block.block_number} tx {position} ({tx.tx_type.value})"
                raise type(exc)(f"{where}: {exc}") from exc
            apply_leaf_ops(book, ops)
            block_ops.extend(ops)
        out.append((block, block_ops))
    return out


# -- pre-seeding ----------------------------------------------------------------


def required_preseed(blocks: Iterable[BlockTrace]) -> tuple[set[int], set[int]]:
    """Scan a trace for (accounts that must exist before replay, token ids used).

    Walks every transaction's steps from `TX_STEPS` in order. An account whose
    first step is an UPDATE, ROTATE or REMOVE must pre-exist; INSERT and UPSERT
    create accounts, so a Deposit to an unseen account creates it. The scan
    only collects: a reference to a removed account, or an insert of a present
    one, is left to replay, which names its block and tx.
    """
    preseed: set[int] = set()
    tokens: set[int] = set()
    seen: set[int] = set()
    for block in blocks:
        for tx in block.txs:
            tokens.add(tx.token_id)
            for role, action, _, _ in TX_STEPS[tx.tx_type]:
                index = tx.from_account if role == FROM else tx.to_account
                if index not in seen:
                    seen.add(index)
                    if action in (UPDATE, ROTATE, REMOVE):
                        preseed.add(index)
    return preseed, tokens


def build_preseed_book(blocks: Iterable[BlockTrace]) -> AccountBook:
    """Account book holding every account a trace expects to pre-exist, each
    holding SEED_BALANCE of every token the trace uses."""
    preseed, tokens = required_preseed(blocks)
    balances = {token: SEED_BALANCE for token in sorted(tokens)}
    return AccountBook(
        Account(index, 0, default_pubkey(index), dict(balances)) for index in sorted(preseed)
    )


def filter_transfer_swap(blocks: Iterable[BlockTrace]) -> list[BlockTrace]:
    """Keep only Transfer and Swap transactions; blocks left empty are dropped."""
    out = []
    for block in blocks:
        kept = tuple(
            tx for tx in block.txs if tx.tx_type in (TxType.TRANSFER, TxType.SWAP)
        )
        if kept:
            out.append(BlockTrace(block.block_number, kept))
    return out


# -- micro-benchmark generators --------------------------------------------------


def gen_sequential_ops(kind: OpKind, k: int, *, depth: int, seed: int) -> list[LeafOperation]:
    """k insert or update ops on leaves 0 .. k-1 with seeded random payloads."""
    if k > 1 << depth:
        raise LeafRangeError(f"{kind.value}s [0, {k}) exceed capacity 2^{depth}")
    rng = random.Random(seed)
    return [LeafOperation(kind, i, rng.randbytes(_PAYLOAD_BYTES)) for i in range(k)]


def gen_uniform_updates(k: int, seed: int, *, depth: int) -> list[LeafOperation]:
    """k update ops on uniformly random leaf indices; duplicates permitted."""
    rng = random.Random(seed)
    capacity = 1 << depth
    return [
        LeafOperation.update(rng.randrange(capacity), rng.randbytes(_PAYLOAD_BYTES))
        for _ in range(k)
    ]


def setup_inserts(ops: Iterable[LeafOperation], seed: int = 1) -> list[LeafOperation]:
    """Insert ops covering the distinct leaves an update workload targets, so
    the updates' existence preconditions hold."""
    rng = random.Random(seed)
    indices = sorted({op.index for op in ops})
    return [LeafOperation.insert(i, rng.randbytes(_PAYLOAD_BYTES)) for i in indices]


# -- macro-benchmark trace generators ---------------------------------------------


HOT_ACCOUNT = 0


def gen_hot_blocks(blocks: int, k: int) -> list[BlockTrace]:
    """Hot-account fixture: every block holds k transfers of 1 unit of token 0
    from HOT_ACCOUNT, each to a counterparty no other transfer uses."""
    return [
        BlockTrace(b + 1, tuple(
            TxRecord(TxType.TRANSFER, HOT_ACCOUNT, HOT_ACCOUNT + 1 + b * k + i, 0, 1)
            for i in range(k)
        ))
        for b in range(blocks)
    ]


DISPERSED_TXS_PER_BLOCK = 83


def gen_dispersed_blocks(blocks: int) -> list[BlockTrace]:
    """Dispersed fixture: every block holds DISPERSED_TXS_PER_BLOCK transfers,
    each between a brand-new pair of accounts, so batches share as few
    ancestors as possible."""
    per_block = DISPERSED_TXS_PER_BLOCK
    return [
        BlockTrace(b + 1, tuple(
            TxRecord(TxType.TRANSFER, 2 * i, 2 * i + 1, 0, 1)
            for i in range(b * per_block, (b + 1) * per_block)
        ))
        for b in range(blocks)
    ]


# Weights follow the observed mix of an L2 block sample: swaps and transfers
# dominate, NFT withdrawals are vanishingly rare.
_NORMAL_TX_WEIGHTS = [
    (TxType.SWAP, 3971),
    (TxType.TRANSFER, 1897),
    (TxType.MINT_NFT, 1428),
    (TxType.CHANGE_PUBKEY, 766),
    (TxType.WITHDRAW, 47),
    (TxType.WITHDRAW_NFT, 1),
]


# The synthetic trace's shape, as measured on the same sample.
_TX_PER_ACCOUNT = 2.5  # sets the participant pool size, so the reuse rate
_MIN_BLOCK, _MAX_BLOCK = 74, 133  # transactions per block
_TOKENS = 4
_DEPOSIT_RATE = 0.8  # share of blocks sealed with a Deposit


def _block_sizes(rng: random.Random, blocks: int, total: int) -> list[int]:
    base = total // blocks
    sizes = [base + (1 if i < total - base * blocks else 0) for i in range(blocks)]
    for _ in range(blocks * 4):
        i, j = rng.randrange(blocks), rng.randrange(blocks)
        shift = rng.randint(1, 10)
        if sizes[i] - shift >= _MIN_BLOCK and sizes[j] + shift <= _MAX_BLOCK:
            sizes[i] -= shift
            sizes[j] += shift
    return sizes


def gen_synthetic_blocks(
    seed: int = 1318, blocks: int = 100, total_txs: int = 8376
) -> list[BlockTrace]:
    """Shape-matched synthetic macro trace.

    Reproduces the dataset statistics the macro-benchmark cares about: block
    count, total transactions, block-size bounds, dominant swap/transfer mix,
    and account-reuse rate (`_TX_PER_ACCOUNT` sets the participant pool
    size). Priority transactions respect block sealing: at most one per
    block, always in the final slot.

    About half the sealing Deposits credit an existing account: the sender of
    a transaction drawn from earlier in the same block, so the trace itself
    shows that the account exists. The rest, and any Deposit that seals a
    block with no earlier transaction, create a fresh account above the pool.
    """
    rng = random.Random(seed)
    sizes = _block_sizes(rng, blocks, total_txs)
    pool_size = max(2, round(total_txs / _TX_PER_ACCOUNT))
    fresh_cursor = pool_size  # deposit-created accounts sit above the pool
    kinds = [k for k, _ in _NORMAL_TX_WEIGHTS]
    weights = [w for _, w in _NORMAL_TX_WEIGHTS]

    def participant() -> int:
        return rng.randrange(pool_size)

    out = []
    for b, size in enumerate(sizes):
        txs: list[TxRecord] = []
        seal_with_deposit = rng.random() < _DEPOSIT_RATE
        normal_slots = size - 1 if seal_with_deposit else size
        for _ in range(normal_slots):
            kind = rng.choices(kinds, weights)[0]
            token = rng.randrange(_TOKENS)
            if kind in (TxType.TRANSFER, TxType.SWAP):
                sender = participant()
                target = participant()
                while target == sender:
                    target = participant()
                txs.append(TxRecord(kind, sender, target, token, rng.randint(1, 999)))
            elif kind in (TxType.MINT_NFT, TxType.WITHDRAW_NFT):
                creator = participant()
                other = participant()
                while other == creator:
                    other = participant()
                if kind is TxType.MINT_NFT:
                    txs.append(TxRecord(kind, creator, other, token, 1))
                else:
                    txs.append(TxRecord(kind, other, creator, token, 1))
            elif kind is TxType.WITHDRAW:
                txs.append(TxRecord(kind, participant(), None, token, rng.randint(1, 999)))
            else:  # ChangePubKey
                txs.append(TxRecord(kind, participant(), None, token, 0))
        if seal_with_deposit:
            if rng.random() < 0.5 and txs:
                target = txs[participant() % len(txs)].from_account
            else:
                target = fresh_cursor
                fresh_cursor += 1
            txs.append(
                TxRecord(TxType.DEPOSIT, None, target, rng.randrange(_TOKENS),
                         rng.randint(1, 10**6))
            )
        out.append(BlockTrace(b + 1, tuple(txs)))
    return out


# -- trace file format -------------------------------------------------------------


def _tx_to_json_fields(tx: TxRecord) -> str:
    fields: dict[str, object] = {"type": tx.tx_type.value}
    if tx.from_account is not None:
        fields["from"] = tx.from_account
    if tx.to_account is not None:
        fields["to"] = tx.to_account
    fields["token"] = tx.token_id
    fields["amount"] = str(tx.amount)
    return json.dumps(fields)


def serialize_block_traces(blocks: Iterable[BlockTrace]) -> str:
    """Deterministic JSON: fixed key order, one transaction per line."""
    blocks = list(blocks)
    out = ['{"blocks": [\n']
    for bi, block in enumerate(blocks):
        out.append(f' {{"block_number": {block.block_number}, "txs": [\n')
        for ti, tx in enumerate(block.txs):
            comma = "," if ti < len(block.txs) - 1 else ""
            out.append(f"  {_tx_to_json_fields(tx)}{comma}\n")
        comma = "," if bi < len(blocks) - 1 else ""
        out.append(f" ]}}{comma}\n")
    out.append("]}\n")
    return "".join(out)


def write_block_traces(blocks: Iterable[BlockTrace], path: str | Path) -> None:
    Path(path).write_text(serialize_block_traces(blocks))


_TX_TYPES = {kind.value: kind for kind in TxType}


def _parse_tx(raw: object) -> TxRecord:
    """One transaction; a TraceParseError names no location, the caller
    prefixes it."""
    if not isinstance(raw, dict):
        raise TraceParseError("transaction must be an object")
    if "type" not in raw:
        raise TraceParseError("missing 'type'")
    try:
        tx_type = _TX_TYPES[raw["type"]]
    except (KeyError, TypeError):  # TypeError: an unhashable value
        raise TraceParseError(f"unknown tx_type {raw['type']!r}") from None
    # The class tests reject a bool; JSON yields no other str or int subclass.
    amount_raw = raw.get("amount", "0")
    if amount_raw.__class__ is str:
        # Only what the serializer writes: ASCII digits, no sign, space,
        # underscore or leading zero.
        try:
            if not (amount_raw.isascii() and amount_raw.isdigit()) or (
                amount_raw[0] == "0" and amount_raw != "0"
            ):
                raise ValueError
            amount = int(amount_raw)  # ValueError past int()'s digit limit
        except ValueError:
            raise TraceParseError("'amount' is not a canonical decimal string") from None
    elif amount_raw.__class__ is int:
        amount = amount_raw
    else:
        raise TraceParseError("'amount' must be a decimal string")
    try:
        return TxRecord(tx_type, raw.get("from"), raw.get("to"), raw.get("token", 0), amount)
    except TraceValidationError as exc:
        raise TraceParseError(str(exc)) from exc


def parse_block_trace_text(text: str) -> list[BlockTrace]:
    try:
        doc = json.loads(text)
    except ValueError as exc:  # bad JSON, or an int literal past the digit limit
        bad_json = isinstance(exc, json.JSONDecodeError)
        raise TraceParseError(f"line {exc.lineno}: {exc.msg}" if bad_json else str(exc)) from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("blocks"), list):
        raise TraceParseError("top level must be an object with a 'blocks' list")
    blocks = []
    for bi, raw_block in enumerate(doc["blocks"]):
        where = f"blocks[{bi}]"
        if not isinstance(raw_block, dict):
            raise TraceParseError(f"{where}: block must be an object")
        number = raw_block.get("block_number")
        if not _is_index(number):
            raise TraceParseError(f"{where}: 'block_number' must be an integer")
        raw_txs = raw_block.get("txs")
        if not isinstance(raw_txs, list) or not raw_txs:
            raise TraceParseError(f"{where}: 'txs' must be a non-empty list")
        txs = []
        try:
            for raw_tx in raw_txs:
                txs.append(_parse_tx(raw_tx))
        except TraceParseError as exc:
            # The location is formatted only here, on the error path.
            raise TraceParseError(f"{where}.txs[{len(txs)}]: {exc}") from exc.__cause__
        blocks.append(BlockTrace(number, tuple(txs)))
    return blocks


def parse_block_trace(path: str | Path) -> list[BlockTrace]:
    """Load and validate a trace file; raises TraceParseError with the
    offending location."""
    text = Path(path).read_text()
    if not text.strip():
        raise TraceParseError(f"{path}: empty trace file")
    return parse_block_trace_text(text)
