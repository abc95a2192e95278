"""Sparse Merkle tree with a one-phase batch root-update engine, the
two-phase baseline it is benchmarked against, and the harness that compares
them."""

from .account_model import (
    Account,
    AccountCodecError,
    InsufficientBalanceError,
    decode_account,
    encode_account,
)
from .batch import (
    OBU,
    TWO_PHASE,
    BatchPreconditionError,
    BatchResult,
    CounterSet,
    batch_update,
    sweep_schedule,
    two_phase_update,
)
from .hasher import (
    DEFAULT_SCHEME,
    SLOW_SCHEME,
    HashScheme,
    InvalidDigestError,
    hash_leaf,
    hash_node,
)
from .smt_core import (
    ConfigError,
    ConsistencyError,
    DefaultPayloadError,
    DuplicateLeafError,
    LeafOperation,
    LeafRangeError,
    MissingLeafError,
    OpKind,
    SmtError,
    SparseMerkleTree,
    Witness,
    check_consistency,
    gen,
    load_snapshot,
    member_verify,
    non_member_verify,
)
from .workload import (
    AccountBook,
    BlockTrace,
    TraceParseError,
    TraceValidationError,
    TxRecord,
    TxType,
    apply_leaf_ops,
    gen_sequential_ops,
    gen_uniform_updates,
    parse_block_trace,
    serialize_block_traces,
    tx_to_leaf_ops,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
