import random

import pytest
from hypothesis import given, strategies as st

from smtbench.account_model import (
    Account,
    AccountCodecError,
    InsufficientBalanceError,
    apply_delta,
    decode_account,
    encode_account,
)
from smtbench.hasher import DEFAULT_SCHEME, hash_leaf


def test_fresh_account_is_30_bytes():
    pubkey = bytes(range(20))
    data = encode_account(Account(4, pubkey_hash=pubkey))
    assert len(data) == 30
    assert data[:8] == b"\x00" * 8
    assert data[8:28] == pubkey
    assert data[28:] == b"\x00\x00"


def test_encoding_is_order_independent():
    a = Account(1, 2, b"\x07" * 20, {})
    a.balances[5] = 50
    a.balances[1] = 10
    b = Account(1, 2, b"\x07" * 20, {1: 10, 5: 50})
    assert encode_account(a) == encode_account(b)


def test_balances_encoded_ascending():
    data = encode_account(Account(0, 0, b"\x00" * 20, {9: 1, 2: 1}))
    assert int.from_bytes(data[30:32], "little") == 2
    assert int.from_bytes(data[48:50], "little") == 9


accounts_strategy = st.builds(
    Account,
    account_id=st.integers(0, 2**24 - 1),
    nonce=st.integers(0, 2**64 - 1),
    pubkey_hash=st.binary(min_size=20, max_size=20),
    balances=st.dictionaries(
        st.integers(0, 2**16 - 1), st.integers(1, 2**128 - 1), max_size=8
    ),
)


@given(accounts_strategy)
def test_codec_round_trip(account):
    assert decode_account(encode_account(account), account.account_id) == account


@pytest.mark.parametrize(
    "data",
    [
        b"",
        b"\x00" * 29,  # one short of the fixed header
        encode_account(Account(0)) + b"\x00",  # trailing junk
        b"\x00" * 28 + (2).to_bytes(2, "little") + b"\x00" * 18,  # count too large
    ],
)
def test_decode_rejects_bad_lengths(data):
    with pytest.raises(AccountCodecError):
        decode_account(data, 0)


def test_decode_rejects_non_canonical_token_order():
    good = encode_account(Account(0, 0, b"\x00" * 20, {1: 5, 2: 6}))
    swapped = good[:30] + good[48:66] + good[30:48]
    with pytest.raises(AccountCodecError):
        decode_account(swapped, 0)


def test_decode_rejects_zero_balance():
    data = b"\x00" * 28 + (1).to_bytes(2, "little") + (3).to_bytes(2, "little") + b"\x00" * 16
    with pytest.raises(AccountCodecError):
        decode_account(data, 0)


@pytest.mark.parametrize(
    "account,message",
    [
        (Account(0, 0, b"\x00" * 20, {2**16: 1}), "token id 65536 out of range"),
        (Account(0, 0, b"\x00" * 20, {-1: 1}), "token id -1 out of range"),
        (Account(0, 0, b"\x00" * 20, {0: 0}), "amount 0 for token 0 out of range"),
        (Account(0, 0, b"\x00" * 20, {0: -1}), "amount -1 for token 0 out of range"),
        (Account(0, 0, b"\x00" * 20, {0: 2**128}), f"amount {2**128} for token 0 out of range"),
        # The first bad field in encoding order is the one named.
        (Account(0, 0, b"\x00" * 20, {0: 0, 2**16: 1}), "amount 0 for token 0"),
        (Account(0, 0, b"\x00" * 20, {2**16: 0, 1: 1}), "token id 65536"),
        (Account(0, 2**64, b"\x00" * 20), f"nonce {2**64} out of range"),
        (Account(0, -1, b"\x00" * 20), "nonce -1 out of range"),
        (Account(0, 0, b"\x00" * 19), "pubkey hash must be 20 bytes, got 19"),
        # Each field at its bound is in range, so the next bad one is named.
        (Account(0, 2**64 - 1, b"\x00" * 20, {2**16: 1}), "^token id 65536"),
        (Account(0, 0, b"\x00" * 20, {2**16 - 1: 2**128}), f"^amount {2**128} for token 65535"),
        (Account(0, 0, b"\x00" * 20, {0: 2**128 - 1, 1: 0}), "^amount 0 for token 1"),
    ],
)
def test_encode_error_names_the_bad_field(account, message):
    with pytest.raises(AccountCodecError, match=message):
        encode_account(account)


def test_encode_rejects_more_balances_than_the_count_holds():
    with pytest.raises(AccountCodecError, match="65536 balances"):
        encode_account(Account(0, 0, b"\x00" * 20, dict.fromkeys(range(2**16), 1)))


def test_decode_error_messages():
    header = b"\x00" * 28
    with pytest.raises(AccountCodecError, match="payload too short: 29 bytes"):
        decode_account(b"\x00" * 29, 0)
    with pytest.raises(AccountCodecError, match="payload length 31 does not match balance count 0"):
        decode_account(header + b"\x00\x00\x00", 0)
    entry = (5).to_bytes(2, "little") + (1).to_bytes(16, "little")
    with pytest.raises(AccountCodecError, match="token ids not strictly ascending"):
        decode_account(header + (2).to_bytes(2, "little") + entry + entry, 0)
    zero = (5).to_bytes(2, "little") + bytes(16)
    with pytest.raises(AccountCodecError, match="zero balance encoded for token 5"):
        decode_account(header + (1).to_bytes(2, "little") + zero, 0)


def test_account_has_slots():
    assert not hasattr(Account(0), "__dict__")


@pytest.mark.parametrize(
    "before, deltas, after",
    [
        (Account(1), [(0, +100)], Account(1, balances={0: 100})),
        (Account(1, balances={0: 500}), [(0, -100, True), (0, +100)], Account(1, 1, balances={0: 500})),
        (Account(1, balances={0: 5}), [(0, -5)], Account(1)),  # a zeroed balance drops its key
        (Account(1), [(0, 0, False, b"\x09" * 20)], Account(1, pubkey_hash=b"\x09" * 20)),
    ],
    ids=["credit", "debit-then-credit", "drain", "rotate"],
)
def test_apply_delta(before, deltas, after):
    original = Account(before.account_id, before.nonce, before.pubkey_hash, dict(before.balances))
    account = before
    for delta in deltas:
        account = apply_delta(account, *delta)
    assert account == after
    assert before == original  # a new account; the old one is untouched


def test_apply_delta_insufficient_balance():
    with pytest.raises(InsufficientBalanceError, match="account 1 token 0: 0 [+] -1 < 0"):
        apply_delta(Account(1), 0, -1)


def test_encoding_collision_free_at_desk_scale():
    rng = random.Random(99)
    seen = {}
    for _ in range(500):
        account = Account(
            rng.randrange(2**24),
            rng.randrange(2**32),
            rng.randbytes(20),
            {rng.randrange(2**16): rng.randrange(1, 2**64) for _ in range(rng.randrange(4))},
        )
        encoded = encode_account(account)
        if encoded in seen:
            assert seen[encoded] == (account.nonce, account.pubkey_hash, account.balances)
        seen[encoded] = (account.nonce, account.pubkey_hash, account.balances)
    assert len(seen) > 490  # collisions only via identical field draws


def test_leaf_digest_tracks_every_field():
    base = Account(3, 1, b"\x01" * 20, {0: 10})
    digest = hash_leaf(DEFAULT_SCHEME, encode_account(base))
    variants = [
        Account(3, 2, b"\x01" * 20, {0: 10}),
        Account(3, 1, b"\x02" * 20, {0: 10}),
        Account(3, 1, b"\x01" * 20, {0: 11}),
        Account(3, 1, b"\x01" * 20, {1: 10}),
        Account(3, 1, b"\x01" * 20, {0: 10, 1: 1}),
    ]
    for variant in variants:
        assert hash_leaf(DEFAULT_SCHEME, encode_account(variant)) != digest
