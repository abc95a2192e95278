"""Seeded inputs for the benchmark workloads.

Every workload is a block trace over an account tree of depth 24, so each one
runs the whole stack: trace parsing, pre-seeding, transaction decomposition
and the account codec, both engines, and proofs. The set-up parses a trace
text and builds the starting tree from it. A pass is a fixed list of
samples, each a list of blocks, replayed from the set-up state; the same
seed always gives the same text and the same pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from smtbench import BlockTrace, TxRecord, TxType, serialize_block_traces
from smtbench.workload import gen_synthetic_blocks

DEPTH = 24
FIXTURE_SEED = 1318
FIXTURE = Path("traces") / "synthetic_100blocks.json"
_TOKENS = 4


class GateError(RuntimeError):
    """A correctness gate failed: the program's output is wrong."""


@dataclass(frozen=True)
class Sizes:
    """Workload sizes; the defaults are what the benchmark measures, tests
    shrink them."""

    accounts: int = 65_536  # starting leaves of rand-update and proof-serve
    batch: int = 1_024  # distinct deposits per rand-update block
    batches_per_sample: int = 4
    batch_samples_per_pass: int = 2
    proofs_per_batch: int = 4  # proof pairs after each rand-update block
    writes_per_sample: int = 256  # single-deposit proof-serve blocks per sample
    samples_per_pass: int = 4  # proof-serve
    trace_blocks: int = 100  # block-replay trace shape, as gen_synthetic_blocks
    trace_txs: int = 8_376


@dataclass
class Workload:
    name: str
    text: str  # block-trace JSON that the set-up parses
    # True: the parsed blocks build the starting tree and `samples` is the
    # pass. False: the parsed blocks are the pass, one block per sample.
    populate: bool
    samples: list[list[tuple[TxRecord, ...]]]
    proofs_per_block: int
    sizes: dict


def _deposit(rng: random.Random, account: int) -> TxRecord:
    return TxRecord(TxType.DEPOSIT, None, account, rng.randrange(_TOKENS), rng.randint(1, 10**6))


def _population(seed: int, sizes: Sizes) -> tuple[list[int], str]:
    """Accounts at seeded random indices, created by one block of deposits."""
    rng = random.Random(f"accounts/{seed}")
    accounts = rng.sample(range(1 << DEPTH), sizes.accounts)
    block = BlockTrace(1, tuple(_deposit(rng, a) for a in accounts))
    return accounts, serialize_block_traces([block])


def rand_update(seed: int, sizes: Sizes, root: Path) -> Workload:
    accounts, text = _population(seed, sizes)
    rng = random.Random(f"rand-update/{seed}")
    samples = [
        [tuple(_deposit(rng, a) for a in rng.sample(accounts, sizes.batch))
         for _ in range(sizes.batches_per_sample)]
        for _ in range(sizes.batch_samples_per_pass)
    ]
    keys = ("accounts", "batch", "batches_per_sample", "batch_samples_per_pass", "proofs_per_batch")
    return Workload(
        "rand-update", text, True, samples, sizes.proofs_per_batch,
        {k: getattr(sizes, k) for k in keys},
    )


def proof_serve(seed: int, sizes: Sizes, root: Path) -> Workload:
    accounts, text = _population(seed, sizes)
    rng = random.Random(f"proof-serve/{seed}")
    samples = [
        [(_deposit(rng, rng.choice(accounts)),) for _ in range(sizes.writes_per_sample)]
        for _ in range(sizes.samples_per_pass)
    ]
    return Workload(
        "proof-serve", text, True, samples, 1,
        {k: getattr(sizes, k) for k in ("accounts", "writes_per_sample", "samples_per_pass")},
    )


def synthetic_trace_text(seed: int, sizes: Sizes) -> str:
    blocks = gen_synthetic_blocks(seed=seed, blocks=sizes.trace_blocks, total_txs=sizes.trace_txs)
    return serialize_block_traces(blocks)


def block_replay(seed: int, sizes: Sizes, root: Path) -> Workload:
    """The bundled synthetic trace at its own seed, a same-shaped trace
    generated in memory at any other seed. No filter: every transaction type
    is replayed."""
    text = synthetic_trace_text(seed, sizes)
    if seed == FIXTURE_SEED and sizes == Sizes():
        fixture = (root / FIXTURE).read_text()
        if fixture != text:
            raise GateError(f"{FIXTURE} is not gen_synthetic_blocks(seed={seed})")
        text = fixture
    return Workload(
        "block-replay", text, False, [], 1,
        {"trace_blocks": sizes.trace_blocks, "trace_txs": sizes.trace_txs},
    )


WORKLOADS = {
    "rand-update": rand_update,
    "block-replay": block_replay,
    "proof-serve": proof_serve,
}
