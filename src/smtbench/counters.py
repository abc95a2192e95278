"""Instrumentation totals shared by both root-hash engines."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CounterSet:
    """Work counters for one engine run, written only by the engine that
    owns them.

    node_visits follows the library's visit convention: one visit is one
    cache lookup-or-write on a node index performed by the operation's own
    control flow, save that an `obu` insert is charged its path's `depth`
    visits, the cost model's O(log n), though its leaf phase reads no
    ancestor: the sweep hashes and writes that path. hash_invocations counts
    the hasher calls the engine makes: one leaf hash per slot that holds a
    value after the batch (however often it was rewritten) plus one node hash
    per ancestor rehashed. Neither engine writes a counter per node it visits:
    `obu` adds up the length of each level's parent list and of its lone
    climb, the baseline counts its stale set, charging its hash phase
    `1 + 2·I` visits for `I` rehashed ancestors.
    Wall times are nanoseconds, excluded from determinism comparisons.
    """

    node_visits: int = 0
    hash_invocations: int = 0
    leaf_phase_visits: int = 0
    leaf_phase_nanos: int = 0
    hash_phase_nanos: int = 0
    levels_processed: int = 0
