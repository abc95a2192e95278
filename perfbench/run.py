"""Benchmark of the smtbench library: the one-phase engine (obu) against the
two-phase baseline, end to end and layer by layer.

    python3 perfbench/run.py --workload rand-update --seed 1 --seconds 20 --trace 0

One process, one thread, a closed loop with one client. The set-up builds the
starting tree three times and keeps the last. A pass replays the workload's
blocks from the set-up state; the first pass is a discarded warm-up, then
whole passes run until --seconds have elapsed. In a sample both engines run
on clones of the same tree, alternating which goes first, with the garbage
collector off; it collects between samples. The tree then advances to the
obu result. Times are host-scaled (hostspeed.py). Every output is checked
(see METRICS.md); a failed check prints `"correct": false` and exits 1.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced passes, prints the per-layer metrics with the tracing overhead, and
writes the spans and a report under perfbench/out/. The last stdout line is
the result; the line before it is the environment fingerprint.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import smtbench  # noqa: E402
from smtbench import (  # noqa: E402
    AccountBook,
    AccountCodecError,
    BatchPreconditionError,
    InsufficientBalanceError,
    LeafOperation,
    SparseMerkleTree,
    TraceValidationError,
    TxRecord,
    Witness,
    apply_leaf_ops,
    batch_update,
    check_consistency,
    decode_account,
    encode_account,
    gen,
    hash_leaf,
    hash_node,
    member_verify,
    non_member_verify,
    two_phase_update,
    tx_to_leaf_ops,
)
from smtbench.workload import build_preseed_book, parse_block_trace_text  # noqa: E402

from hostspeed import HostClock, host_kernel_ns, host_scale  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import DEPTH, WORKLOADS, GateError, Sizes, Workload  # noqa: E402

SETUPS = 3
MICRO_CALLS = 4_096  # calls per repetition of the hasher and codec timings
MICRO_REPS = 5
TX_ERRORS = (TraceValidationError, InsufficientBalanceError, AccountCodecError)
OUT = ROOT / "perfbench" / "out"
now = time.perf_counter_ns


class PassLog:
    """Host-scaled timings (ns samples), unscaled timings and counts of one
    pass."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.times: dict[str, list[float]] = defaultdict(list)
        self.wall: dict[str, list[int]] = defaultdict(list)
        self.counts: Counter = Counter()

    def add(self, clock: HostClock) -> None:
        scaled, wall = clock.results()
        for key, values in scaled.items():
            self.times[key] += values
            self.wall[key] += wall[key]


@dataclass
class State:
    """The set-up's result: the starting tree, the account book that mirrors
    it, and the pass to replay."""

    tree: SparseMerkleTree
    book: AccountBook
    samples: list[list[tuple[TxRecord, ...]]]


# -- set-up -------------------------------------------------------------------


def decompose(txs, book: AccountBook, tracer: Tracer | None, parent: int | None):
    """Decompose transactions in order, advancing the book. A transaction
    that raises is rejected and skipped; the book is left as it was."""
    ops: list[LeafOperation] = []
    rejected = 0
    for tx in txs:
        if tracer:
            t0 = now()
        try:
            tx_ops = tx_to_leaf_ops(tx, book)
        except TX_ERRORS as exc:
            rejected += 1
            if tracer:
                tracer.add("workload.tx_to_leaf_ops", parent, t0, now(), {"rejected": str(exc)})
            continue
        if tracer:
            t1 = now()
        apply_leaf_ops(book, tx_ops)
        if tracer:
            t2 = now()
            tracer.add("workload.tx_to_leaf_ops", parent, t0, t1)
            tracer.add("workload.apply_leaf_ops", parent, t1, t2)
        ops.extend(tx_ops)
    return ops, rejected


def set_up(workload: Workload) -> tuple[State, dict[str, float]]:
    """Parse the workload's trace, pre-seed the accounts it expects, and
    build the starting tree with one batch of inserts. Each stage is
    host-scaled by the kernel runs around it."""
    kernel = [host_kernel_ns()]
    t0 = now()
    blocks = parse_block_trace_text(workload.text)
    t1 = now()
    kernel.append(host_kernel_ns())
    t2 = now()
    book = build_preseed_book(blocks)
    ops = [LeafOperation.insert(i, encode_account(a)) for i, a in sorted(book.accounts.items())]
    if workload.populate:
        for block in blocks:
            created, rejected = decompose(block.txs, book, None, None)
            if rejected:
                raise GateError(f"{rejected} population deposits rejected")
            ops += created
        samples = workload.samples
    else:
        samples = [[block.txs] for block in blocks]
    t3 = now()
    kernel.append(host_kernel_ns())
    t4 = now()
    tree = gen(DEPTH)
    batch_update(tree, ops)
    t5 = now()
    kernel.append(host_kernel_ns())
    wall = {"parse": t1 - t0, "preseed": t3 - t2, "populate": t5 - t4}
    timing = {stage: ns * host_scale(kernel[i], kernel[i + 1]) for i, (stage, ns) in enumerate(wall.items())}
    timing["setup"] = sum(timing.values())
    timing["setup_wall"] = sum(wall.values())
    return State(tree, book, samples), timing


# -- one pass -----------------------------------------------------------------


def call_engine(engine, tree, ops):
    start = now()
    try:
        result = engine(tree, ops)
    except BatchPreconditionError as exc:
        result = exc
    return result, start, now()


def engine_attrs(result) -> dict:
    c = result.counters
    attrs = {"node_visits": c.node_visits, "hash_invocations": c.hash_invocations,
             "leaf_phase_visits": c.leaf_phase_visits, "leaf_phase_ns": c.leaf_phase_nanos,
             "hash_phase_ns": c.hash_phase_nanos, "levels_processed": c.levels_processed}
    if result.level_work_lists is not None:
        attrs["level_nodes"] = [len(level) for level in result.level_work_lists]
    return attrs


def prove(tree, candidates, rng, clock, counts, tracer, parent, corrupt: bool) -> None:
    """One membership proof of a leaf the block wrote and one non-membership
    proof of an absent index, both verified against the current root."""
    member = rng.choice(candidates)
    absent = rng.randrange(tree.capacity)
    while absent in tree.leaf_values:
        absent = rng.randrange(tree.capacity)
    root, value = tree.root(), tree.leaf_values[member]
    t0 = now()
    witness = tree.member_witness_create(member)
    t1 = now()
    present_ok = member_verify(root, witness, value, DEPTH)
    t2 = now()
    absence = tree.member_witness_create(absent)
    t3 = now()
    absent_ok = non_member_verify(root, absence, DEPTH)
    t4 = now()
    counts["proofs"] += 2
    if not (present_ok and absent_ok):
        raise GateError(f"proof failed: member {member} {present_ok}, absent {absent} {absent_ok}")
    clock.add("proof", t4 - t0)
    clock.add("witness", t1 - t0 + t3 - t2)
    clock.add("verify", t2 - t1 + t4 - t3)
    if tracer:
        tracer.add("smt_core.member_witness_create", parent, t0, t1)
        tracer.add("smt_core.member_verify", parent, t1, t2)
        tracer.add("smt_core.member_witness_create", parent, t2, t3)
        tracer.add("smt_core.non_member_verify", parent, t3, t4)
    if corrupt:
        level, byte = rng.randrange(DEPTH), rng.randrange(len(witness.siblings[0]))
        flipped = bytearray(witness.siblings[level])
        flipped[byte] ^= 0x01
        siblings = witness.siblings[:level] + (bytes(flipped),) + witness.siblings[level + 1:]
        if member_verify(root, Witness(member, siblings), value, DEPTH):
            raise GateError(f"proof of leaf {member} with a flipped sibling byte verified")


def run_block(txs, a, b, book, obu_first, clock, counts, rng, proofs, tracer, parent) -> None:
    """Decompose one block, run both engines on it (obu on tree `a`, the
    baseline on `b`), check them against each other, and prove leaves the
    block wrote. The host kernel may run before each of these sections."""
    clock.tick()
    decompose_group = clock.group
    d0 = now()
    span = tracer.open("workload.decompose", parent, d0) if tracer else None
    ops, rejected = decompose(txs, book, tracer, span)
    d1 = now()
    if tracer:
        tracer.close(span, d1, {"txs": len(txs), "rejected": rejected, "ops": len(ops)})
    counts["tx_attempted"] += len(txs)
    counts["tx_rejected"] += rejected
    counts["blocks"] += 1
    counts["ops"] += len(ops)

    runs, groups = {}, {}
    for name in ("obu", "baseline") if obu_first else ("baseline", "obu"):
        engine, tree = (batch_update, a) if name == "obu" else (two_phase_update, b)
        clock.tick()
        groups[name] = clock.group
        runs[name] = call_engine(engine, tree, ops)
    (obu, o0, o1), (base, b0, b1) = runs["obu"], runs["baseline"]

    if isinstance(obu, BatchPreconditionError) or isinstance(base, BatchPreconditionError):
        if not (isinstance(obu, BatchPreconditionError) and isinstance(base, BatchPreconditionError)
                and obu.op_index == base.op_index):
            raise GateError(f"engines disagree on rejecting a batch: {obu!r} vs {base!r}")
        # Both engines rolled back; bring the book back to the tree.
        counts["rejected_batches"] += 1
        book.accounts = {i: decode_account(v, i) for i, v in a.leaf_values.items()}
        return
    if obu.new_root != base.new_root or obu.new_root != a.root():
        raise GateError(f"roots differ: obu {obu.new_root.hex()} two-phase {base.new_root.hex()}")
    if obu.counters.hash_invocations != base.counters.hash_invocations:
        raise GateError(f"hash_invocations differ: obu {obu.counters.hash_invocations} "
                        f"two-phase {base.counters.hash_invocations}")
    if tracer:
        tracer.add("batch.batch_update", parent, o0, o1, engine_attrs(obu))
        tracer.add("batch.two_phase_update", parent, b0, b1, engine_attrs(base))

    oc, bc = obu.counters, base.counters
    go, gb = groups["obu"], groups["baseline"]
    clock.add_parts("decompose", (decompose_group, d1 - d0))
    clock.add_parts("batch", (go, o1 - o0))
    clock.add_parts("block", (decompose_group, d1 - d0), (go, o1 - o0))
    clock.add_parts("baseline", (gb, b1 - b0))
    clock.add_parts("obu_leaf", (go, oc.leaf_phase_nanos))
    clock.add_parts("obu_hash", (go, oc.hash_phase_nanos))
    clock.add_parts("obu_fixed", (go, o1 - o0 - oc.leaf_phase_nanos - oc.hash_phase_nanos))
    clock.add_parts("baseline_leaf", (gb, bc.leaf_phase_nanos))
    clock.add_parts("baseline_hash", (gb, bc.hash_phase_nanos))
    counts["hash_invocations"] += oc.hash_invocations
    counts["obu_node_visits"] += oc.node_visits
    counts["baseline_node_visits"] += bc.node_visits

    candidates = [op.index for op in ops if op.index in a.leaf_values]
    clock.tick()
    for i in range(proofs if candidates else 0):
        prove(a, candidates, rng, clock, counts, tracer, parent, corrupt=i == 0)


def run_pass(state: State, workload: Workload, number: int, tracer: Tracer | None, seed: int):
    """Replay the pass from the set-up state; returns its log and the final
    tree and book."""
    log = PassLog(tracer is not None)
    tree, book = state.tree.clone(), state.book.clone()
    rng = random.Random(f"proofs/{seed}")
    blocks = 0
    clock = HostClock()
    roots = []  # (root span, clock group the sample started in)
    for sample in state.samples:
        clock.tick()
        s0 = now()
        if tracer:
            tracer.sample += 1
            root_span = tracer.open("bench.sample", None, s0)
            roots.append((root_span, clock.group))
        a = tree.clone()
        c1 = now()
        b = tree.clone()
        c2 = now()
        clock.add("clone", c1 - s0)
        clock.add("clone", c2 - c1)
        if tracer:
            tracer.add("smt_core.clone", root_span, s0, c1)
            tracer.add("smt_core.clone", root_span, c1, c2)
        for txs in sample:
            run_block(txs, a, b, book, (number + blocks) % 2 == 0, clock, log.counts, rng,
                      workload.proofs_per_block, tracer, root_span if tracer else None)
            blocks += 1
        if a.cache != b.cache or a.leaf_values != b.leaf_values:
            raise GateError("engines left different trees")
        if tracer:
            tracer.close(root_span, now())
        tree = a
        gc.collect()
        gc.freeze()  # survivors are live tree state; later collections skip them
    clock.tick(force=True)
    scales = clock.scales()
    log.add(clock)
    for span, group in roots:
        tracer.spans[span][5] = {"host_scale": scales[group]}
    return log, tree, book


# -- metrics --------------------------------------------------------------------


def p50(values) -> float:
    return statistics.median(values)


def p90(values) -> float:
    return statistics.quantiles(values, n=10)[-1]


def pooled(logs: list[PassLog], key: str) -> list[int]:
    return [v for log in logs for v in log.times[key]]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(logs: list[PassLog], setups: list[dict[str, int]]) -> dict:
    out = {"setup_s": metric(p50([s["setup"] for s in setups]) / 1e9, "s")}
    for name, key, scale, unit in (
        ("batch_ms", "batch", 1e6, "ms"),
        ("baseline_ms", "baseline", 1e6, "ms"),
        ("block_ms", "block", 1e6, "ms"),
        ("proof_us", "proof", 1e3, "us"),
    ):
        values = pooled(logs, key)
        out[f"{name}_p50"] = metric(p50(values) / scale, unit)
        out[f"{name}_p90"] = metric(p90(values) / scale, unit)
    out["speedup_ratio"] = metric(p50(pooled(logs, "baseline")) / p50(pooled(logs, "batch")), "x")
    out["peak_rss_mb"] = metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return out


def per_call(fn, args_list) -> float:
    """Median over repetitions of the host-scaled mean ns per call."""
    reps = []
    before = host_kernel_ns()
    for _ in range(MICRO_REPS):
        start = now()
        for args in args_list:
            fn(*args)
        elapsed = now() - start
        after = host_kernel_ns()
        reps.append(elapsed * host_scale(before, after) / len(args_list))
        before = after
    return p50(reps)


def per_layer(traced: list[PassLog], untraced: list[PassLog], counts: Counter,
              setups: list[dict[str, int]], state: State, tracer: Tracer) -> dict:
    tree = state.tree
    nodes = list(islice((n for n in tree.cache if n < tree.capacity), MICRO_CALLS))
    pairs = [(tree.scheme, tree.resolve(2 * n), tree.resolve(2 * n + 1)) for n in nodes]
    leaves = [(tree.scheme, v) for v in islice(tree.leaf_values.values(), MICRO_CALLS)]
    accounts = list(islice(state.book.accounts.values(), MICRO_CALLS))
    encoded = [(encode_account(a), a.account_id) for a in accounts]

    def ms(key):
        return p50(pooled(traced, key)) / 1e6

    blocks = counts["blocks"]
    out = {
        "hasher.hash_node_ns": metric(per_call(hash_node, pairs), "ns"),
        "hasher.hash_leaf_ns": metric(per_call(hash_leaf, leaves), "ns"),
        "batch.obu_hash_phase_ms": metric(ms("obu_hash"), "ms"),
        "batch.obu_leaf_phase_ms": metric(ms("obu_leaf"), "ms"),
        "batch.obu_fixed_ms": metric(ms("obu_fixed"), "ms"),
        "batch.baseline_hash_phase_ms": metric(ms("baseline_hash"), "ms"),
        "batch.baseline_leaf_phase_ms": metric(ms("baseline_leaf"), "ms"),
        "batch.hash_invocations": metric(counts["hash_invocations"] / blocks, "count"),
        "batch.hashes_per_op": metric(counts["hash_invocations"] / counts["ops"], "count"),
        "batch.obu_node_visits": metric(counts["obu_node_visits"] / blocks, "count"),
        "batch.baseline_node_visits": metric(counts["baseline_node_visits"] / blocks, "count"),
        "batch.rejected_batches": metric(counts["rejected_batches"], "count"),
        "smt_core.witness_us": metric(p50(pooled(traced, "witness")) / 1e3, "us"),
        "smt_core.verify_us": metric(p50(pooled(traced, "verify")) / 1e3, "us"),
        "smt_core.populate_s": metric(p50([s["populate"] for s in setups]) / 1e9, "s"),
        "smt_core.cache_entries": metric(len(tree.cache), "count"),
        "smt_core.clone_ms": metric(ms("clone"), "ms"),
        "workload.decompose_ms": metric(ms("decompose"), "ms"),
        "workload.parse_s": metric(p50([s["parse"] for s in setups]) / 1e9, "s"),
        "workload.preseed_s": metric(p50([s["preseed"] for s in setups]) / 1e9, "s"),
        "workload.tx_rejected": metric(counts["tx_rejected"], "count"),
        "workload.tx_attempted": metric(counts["tx_attempted"], "count"),
        "workload.ops_per_block": metric(counts["ops"] / blocks, "count"),
        "account_model.encode_us": metric(per_call(encode_account, [(a,) for a in accounts]) / 1e3, "us"),
        "account_model.decode_us": metric(per_call(decode_account, encoded) / 1e3, "us"),
    }
    scales = {span[0]: span[5]["host_scale"] for span in tracer.spans if span[2] == "bench.sample"}
    self_ns = tracer.self_times()
    for layer in ("bench", "workload", "batch", "smt_core"):
        values = [layers[layer] * scales[sample] for sample, layers in self_ns.items()]
        out[f"trace.{layer}_self_ms"] = metric(p50(values) / 1e6, "ms")
    traced_block, untraced_block = p50(pooled(traced, "block")), p50(pooled(untraced, "block"))
    out["trace.overhead_pct"] = metric(100 * (traced_block / untraced_block - 1), "%")
    return out


# -- fingerprint ----------------------------------------------------------------


def git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    return None


def source_sha256(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def fingerprint(workload: Workload, seed: int, trace: int, state: State, logs, counts, setups) -> dict:
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(ROOT),
        "source_sha256": source_sha256(SRC / "smtbench"),
        "seed": seed,
        "trace": trace,
        "workload": workload.name,
        "sizes": workload.sizes,
        "depth": DEPTH,
        "leaves": len(state.tree.leaf_values),
        "cache_entries": len(state.tree.cache),
        "blocks_per_pass": counts["blocks"],
        "measured_passes": len(logs),
        "measured_blocks": sum(len(log.times["batch"]) for log in logs),
        "measured_proof_pairs": sum(len(log.times["proof"]) for log in logs),
        "host_kernel_us_p50": p50([host_kernel_ns() for _ in range(50)]) / 1e3,
        "wall_setup_s_p50": p50([s["setup_wall"] for s in setups]) / 1e9,
        "wall_ms_p50": {key: p50([v for log in logs for v in log.wall[key]]) / 1e6
                        for key in ("batch", "baseline", "block", "proof")},
    }


# -- entry points ---------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool, sizes: Sizes = Sizes()) -> dict:
    """Set up, measure and check one workload; returns the result and the
    fingerprint. Raises GateError on any wrong output."""
    workload = WORKLOADS[name](seed, sizes, ROOT)
    setups = []
    state = None
    for _ in range(SETUPS):
        state = None  # free the previous tree before building the next
        gc.collect()
        state, timing = set_up(workload)
        setups.append(timing)

    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        warm, _, _ = run_pass(state, workload, 0, None, seed)
        tracer = Tracer() if trace else None
        logs: list[PassLog] = []
        started = now()
        while len(logs) < (2 if trace else 1) or now() - started < seconds * 1e9:
            traced = trace and len(logs) % 2 == 1
            log, tree, book = run_pass(state, workload, len(logs) + 1, tracer if traced else None, seed)
            logs.append(log)
    finally:
        gc.enable()
        gc.unfreeze()

    for log in logs:
        if log.counts != warm.counts:
            raise GateError(f"pass counts differ: {dict(log.counts)} vs {dict(warm.counts)}")
    try:
        check_consistency(tree)
    except AssertionError as exc:
        raise GateError(f"check_consistency: {exc}") from exc
    if tree.leaf_values != {i: encode_account(a) for i, a in book.accounts.items()}:
        raise GateError("account book and tree leaves differ after replay")

    # Every pass replays the same operations (checked above), so attempted
    # and failed are one pass's counts: they follow from the seed alone, not
    # from how many passes fit in --seconds.
    counts = warm.counts
    failed = counts["tx_rejected"] + counts["rejected_batches"]
    attempted = counts["tx_attempted"] + counts["blocks"] + counts["proofs"]
    if trace:
        traced = [log for log in logs if log.traced]
        untraced = [log for log in logs if not log.traced]
        metrics = per_layer(traced, untraced, counts, setups, state, tracer)
    else:
        metrics = end_to_end(logs, setups)
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    fp = fingerprint(workload, seed, int(trace), state, logs, counts, setups)
    if trace:
        stem = f"{name}-seed{seed}"
        tracer.write(OUT / f"spans-{stem}.jsonl")
        report = {"fingerprint": fp, "result": result, "pass_counts": dict(counts)}
        (OUT / f"report-{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    return {"fingerprint": fp, "result": result}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not Path(smtbench.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: smtbench was not imported from {SRC}", file=sys.stderr)
        return 2
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except GateError as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    print(json.dumps({"fingerprint": out["fingerprint"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
