"""Instrumentation totals shared by both root-hash engines."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CounterSet:
    """Work counters for one engine run, written only by the engine that
    owns them.

    node_visits follows the library's visit convention: one visit is one
    cache lookup-or-write on a node index performed by the operation's own
    control flow. hash_invocations counts distinct leaves written (once per
    leaf, however many times it was rewritten; a leaf written and then
    removed in one batch is counted but not hashed) plus distinct ancestors
    rehashed. Wall times are nanoseconds; they are excluded from determinism
    comparisons.
    """

    node_visits: int = 0
    hash_invocations: int = 0
    leaf_phase_visits: int = 0
    leaf_phase_nanos: int = 0
    hash_phase_nanos: int = 0
    levels_processed: int = 0
