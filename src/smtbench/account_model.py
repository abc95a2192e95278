"""Account payloads stored in tree leaves.

The encoding is byte-level little-endian and canonical: balances are sorted
by token id and zero balances are never written, so structurally equal
accounts encode to identical bytes. The account id itself is positional (it
is the leaf index) and deliberately not part of the payload.

Layout, packed with precompiled `struct.Struct`s:

    header   <Q20sH   nonce, pubkey hash, balance count   30 bytes
    entry    <H16s    token id, amount                    18 bytes each

A 128-bit amount is its 16 little-endian bytes, from `int.to_bytes`.
The encoder packs the balances in one pass over the map, checking as it goes
that token ids ascend; only a map found out of order is packed again from
its sorted items. `apply_delta` keeps the token ids of the accounts it makes
ascending, so their maps need no second pass.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Iterable

PUBKEY_HASH_LEN = 20
MAX_TOKEN_ID = (1 << 16) - 1
MAX_AMOUNT = (1 << 128) - 1
MAX_NONCE = (1 << 64) - 1

_HEADER = struct.Struct(f"<Q{PUBKEY_HASH_LEN}sH")
_ENTRY = struct.Struct("<H16s")
_FIXED_LEN = _HEADER.size  # nonce + pubkey + balance count
_ENTRY_LEN = _ENTRY.size  # token id + amount
_pack_header, _unpack_header = _HEADER.pack, _HEADER.unpack_from
_pack_entry, _iter_entries = _ENTRY.pack, _ENTRY.iter_unpack
_from_bytes = int.from_bytes  # bound once, not looked up per entry


class AccountCodecError(ValueError):
    """Bytes do not form a canonical account encoding."""


class InsufficientBalanceError(ValueError):
    """A balance delta would drive an account balance negative."""


@dataclass(slots=True)
class Account:
    account_id: int
    nonce: int = 0
    pubkey_hash: bytes = b"\x00" * PUBKEY_HASH_LEN
    balances: dict[int, int] = field(default_factory=dict)


def encode_account(account: Account) -> bytes:
    """Canonical payload bytes: nonce, pubkey hash, then sorted balances."""
    pubkey_hash = account.pubkey_hash
    if len(pubkey_hash) != PUBKEY_HASH_LEN:
        raise AccountCodecError(
            f"pubkey hash must be {PUBKEY_HASH_LEN} bytes, got {len(pubkey_hash)}"
        )
    balances = account.balances
    try:
        header = _pack_header(account.nonce, pubkey_hash, len(balances))
        out = _pack_entries(header, balances.items())
        if out is None:  # out of order, or a zero amount
            out = _pack_entries(header, sorted(balances.items()))
        if out is not None:
            return out
    except (struct.error, OverflowError, AttributeError, TypeError):
        pass  # a field that does not fit its slot, or is no int
    raise _range_error(account)


def _pack_entries(out: bytes, items: Iterable[tuple[int, int]]) -> bytes | None:
    """`out` followed by one entry per (token id, amount) of `items`, or None
    at the first token id that does not ascend or the first zero amount."""
    previous = -1
    for token_id, amount in items:
        if token_id <= previous or not amount:
            return None
        out += _pack_entry(token_id, amount.to_bytes(16, "little"))
        previous = token_id
    return out


def _range_error(account: Account) -> AccountCodecError:
    """The first field of `account` that does not fit its slot, in encoding
    order; only reached once packing has failed."""
    try:
        if not 0 <= account.nonce <= MAX_NONCE:
            return AccountCodecError(f"nonce {account.nonce} out of range")
        if len(account.balances) > MAX_TOKEN_ID:
            return AccountCodecError(f"{len(account.balances)} balances do not fit the count")
        for token_id, amount in sorted(account.balances.items()):
            if not 0 <= token_id <= MAX_TOKEN_ID:
                return AccountCodecError(f"token id {token_id} out of range")
            if not 0 < amount <= MAX_AMOUNT:
                return AccountCodecError(f"amount {amount} for token {token_id} out of range")
    except TypeError:  # a field no number compares with
        pass
    return AccountCodecError(f"account {account.account_id} does not encode")


def decode_account(data: bytes, account_id: int) -> Account:
    """Inverse of encode_account; the id comes from the leaf position."""
    size = len(data)
    if size < _FIXED_LEN:
        raise AccountCodecError(f"payload too short: {size} bytes")
    nonce, pubkey_hash, count = _unpack_header(data)
    if size != _FIXED_LEN + count * _ENTRY_LEN:
        raise AccountCodecError(
            f"payload length {size} does not match balance count {count}"
        )
    balances: dict[int, int] = {}
    previous = -1
    for token_id, raw in _iter_entries(data[_FIXED_LEN:]):
        if token_id <= previous:
            raise AccountCodecError("token ids not strictly ascending")
        amount = _from_bytes(raw, "little")
        if not amount:
            raise AccountCodecError(f"zero balance encoded for token {token_id}")
        balances[token_id] = amount
        previous = token_id
    return Account(account_id, nonce, pubkey_hash, balances)


def apply_delta(
    account: Account,
    token_id: int,
    delta: int,
    bump_nonce: bool = False,
    new_pubkey_hash: bytes | None = None,
) -> Account:
    """The balance rule: a new account with `delta` added to one balance, the
    nonce bumped and the key rotated if asked. A zeroed balance drops its key;
    a negative one raises InsufficientBalanceError. A token the account did
    not hold takes its place in ascending token order."""
    balances = account.balances.copy()
    if delta:
        held = balances.get(token_id, 0)
        amount = held + delta
        if amount < 0:
            raise InsufficientBalanceError(
                f"account {account.account_id} token {token_id}: {held} + {delta} < 0"
            )
        if not amount:
            del balances[token_id]
        elif held or not balances or token_id > next(reversed(balances)):
            balances[token_id] = amount
        else:  # a new token below the highest held: keep the ids ascending
            balances[token_id] = amount
            balances = dict(sorted(balances.items()))
    return Account(
        account.account_id,
        account.nonce + 1 if bump_nonce else account.nonce,
        new_pubkey_hash or account.pubkey_hash,
        balances,
    )
