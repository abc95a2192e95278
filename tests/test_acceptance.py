"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; a pytest failure is the FAIL line for its criterion. C06 checks
run-to-run determinism; it no longer compares thread counts, since both engines
run on the calling thread.
"""

import csv
import random
import subprocess
import sys
import time

from smtbench.batch import batch_update, two_phase_update
from smtbench.bench import (
    AGGREGATE_COLUMNS,
    RUN_COLUMNS,
    run_macro,
    run_micro,
)
from smtbench.smt_core import (
    LeafOperation,
    Witness,
    gen,
    member_verify,
    non_member_verify,
)

from oracles import ancestor_union, final_leaves, naive_root, random_case


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {detail}")


def populated(depth, leaves):
    tree = gen(depth)
    tree.commit(leaves)
    return tree


def test_c01_oracle_equivalence_property():
    """1,000 random (tree, op-list) pairs: both engines equal the naive
    full-recompute oracle, bytewise, in under 30 s."""
    rng = random.Random(0xC1)
    started = time.monotonic()
    for case in range(1000):
        depth = rng.randrange(2, 9)
        initial, ops = random_case(rng, depth, max_initial=16, max_ops=64)
        t_obu = populated(depth, initial)
        t_two = t_obu.clone()
        r_obu = batch_update(t_obu, ops)
        r_two = two_phase_update(t_two, ops)
        expect = naive_root(depth, final_leaves(initial, ops))
        assert r_obu.new_root == expect, f"case {case}: one-phase root diverged"
        assert r_two.new_root == expect, f"case {case}: two-phase root diverged"
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    report("C1", f"oracle equivalence on 1000 random batches in {elapsed:.1f}s")


def test_c02_traversal_halving_exact_counts():
    """k=100 distinct-leaf updates at depth 24: one-phase leaf phase visits
    exactly 100 nodes, baseline phase 1 exactly 2,400. k=100 distinct inserts:
    both engines visit exactly 2,400."""
    depth, k = 24, 100
    leaves = {i * 7: bytes([i]) for i in range(k)}
    tree = populated(depth, leaves)
    ops = [LeafOperation.update(i * 7, bytes([i, 1])) for i in range(k)]
    started = time.monotonic()
    r_obu = batch_update(tree.clone(), ops)
    r_two = two_phase_update(tree.clone(), ops)
    elapsed = time.monotonic() - started
    assert r_obu.counters.leaf_phase_visits == 100
    assert r_two.counters.leaf_phase_visits == 2400
    assert elapsed < 1.0
    # k distinct inserts cost `depth` visits each in both engines: the one-phase
    # cost model's O(log n) charge per insert, or the baseline's full traversal.
    inserts = [LeafOperation.insert(i * 7 + 3, bytes([i, 2])) for i in range(k)]
    r_obu = batch_update(tree.clone(), inserts)
    r_two = two_phase_update(tree.clone(), inserts)
    assert r_obu.counters.leaf_phase_visits == 2400
    assert r_two.counters.leaf_phase_visits == 2400
    assert r_obu.counters.node_visits == 2791
    assert r_obu.counters.hash_invocations == 491
    for result in (r_obu, r_two):
        assert [len(level) for level in result.level_work_lists] == (
            [100, 100, 100, 88, 44, 22, 11, 6, 3, 2] + [1] * 15
        )
    report("C2", "leaf-phase visits 100 vs 2400 at depth 24, k=100; 2400 for 100 inserts")


def test_c03_hash_work_equality_with_ancestor_oracle():
    """200 random cases: identical hash counts across engines, equal to the
    touched leaves present after the batch plus the brute-force ancestor
    union."""
    rng = random.Random(0xC3)
    started = time.monotonic()
    for case in range(200):
        depth = rng.randrange(2, 9)
        initial, ops = random_case(rng, depth)
        touched = {op.index for op in ops}
        present = touched & final_leaves(initial, ops).keys()
        expect = len(present) + len(ancestor_union(depth, touched))
        r_obu = batch_update(populated(depth, initial), ops)
        r_two = two_phase_update(populated(depth, initial), ops)
        assert r_obu.counters.hash_invocations == expect, f"case {case}"
        assert r_two.counters.hash_invocations == expect, f"case {case}"
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report("C3", f"hash-work equality on 200 random cases in {elapsed:.1f}s")


def test_c04_hot_account_dedup():
    """k operations on one leaf: one-phase hash work stays 1 + depth for any
    k; the one-phase leaf phase visits k nodes, the baseline k*depth."""
    depth = 24
    tree = populated(depth, {12345: b"hot"})
    for k in (1, 48, 1000):
        ops = [LeafOperation.update(12345, k.to_bytes(4, "little") + bytes([i % 256]))
               for i in range(k)]
        r_obu = batch_update(tree.clone(), ops)
        r_two = two_phase_update(tree.clone(), ops)
        assert r_obu.counters.hash_invocations == 1 + depth, f"k={k}"
        assert r_two.counters.hash_invocations == 1 + depth, f"k={k}"
        assert r_obu.counters.leaf_phase_visits == k, f"k={k}"
        assert r_two.counters.leaf_phase_visits == k * depth, f"k={k}"
    report("C4", "hash work 1+24 for k in {1,48,1000} on one leaf")


def test_c05_worked_example_schedule():
    """Depth-2 batch on leaves {0,3,1}: both engines report the sweep
    schedule [{4,5,7},{2,3},{1}] and six hashes (3 leaves, nodes 2, 3 and 1),
    and the root matches the oracle."""
    initial = {0: b"a", 1: b"b", 3: b"c"}
    ops = [
        LeafOperation.update(0, b"a2"),
        LeafOperation.update(3, b"c2"),
        LeafOperation.update(1, b"b2"),
    ]
    for engine in (batch_update, two_phase_update):
        result = engine(populated(2, initial), ops)
        assert result.level_work_lists == [[4, 5, 7], [2, 3], [1]]
        assert result.counters.hash_invocations == 6
        assert result.new_root == naive_root(2, final_leaves(initial, ops))
    report("C5", "work lists [{4,5,7},{2,3},{1}] with oracle-equal root")


def test_c06_run_to_run_determinism():
    """100 random batches, each engine run twice on clones of one tree:
    identical roots, counters, and schedules, and the source tree untouched."""
    rng = random.Random(0xC6)
    started = time.monotonic()
    for case in range(100):
        if case % 10 == 0:
            # wide batches: long runs of sibling pairs on every level
            depth = 12
            k = rng.randrange(256, 600)
            initial = {i: bytes([i % 256]) for i in range(k)}
            ops = [LeafOperation.update(i, rng.randbytes(8)) for i in range(k)]
        else:
            depth = rng.randrange(2, 9)
            initial, ops = random_case(rng, depth)
        base = populated(depth, initial)
        base_root, base_cache = base.root(), dict(base.cache)
        seen = []
        for _ in range(2):
            r_obu = batch_update(base.clone(), ops)
            r_two = two_phase_update(base.clone(), ops)
            seen.append(
                (
                    r_obu.new_root,
                    r_obu.counters.node_visits,
                    r_obu.counters.hash_invocations,
                    r_obu.counters.levels_processed,
                    r_obu.level_work_lists,
                    r_two.new_root,
                    r_two.counters.node_visits,
                    r_two.counters.hash_invocations,
                )
            )
        assert seen[0] == seen[1], f"case {case}"
        assert seen[0][0] == seen[0][5], f"case {case}"
        assert base.root() == base_root and base.cache == base_cache, f"case {case}"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report("C6", f"100 batches repeat identically on clones in {elapsed:.1f}s")


def test_c07_proof_round_trip():
    """500 random depth-8 trees: membership holds for every present leaf,
    non-membership for absent ones, and any single-byte corruption fails."""
    rng = random.Random(0xC7)
    depth, capacity = 8, 256
    for case in range(500):
        leaves = {
            rng.randrange(capacity): rng.randbytes(rng.randrange(1, 9))
            for _ in range(rng.randrange(1, 64))
        }
        tree = populated(depth, leaves)
        root = tree.root()
        for index in leaves:
            witness = tree.member_witness_create(index)
            assert member_verify(root, witness, leaves[index], depth), f"case {case}"
        absent = [i for i in range(capacity) if i not in leaves]
        for index in rng.sample(absent, min(4, len(absent))):
            witness = tree.member_witness_create(index)
            assert non_member_verify(root, witness, depth), f"case {case}"
        # single-byte corruption must break verification
        index = rng.choice(sorted(leaves))
        witness = tree.member_witness_create(index)
        position = rng.randrange(depth)
        byte = rng.randrange(32)
        corrupted = list(witness.siblings)
        corrupted[position] = (
            corrupted[position][:byte]
            + bytes([corrupted[position][byte] ^ (1 << rng.randrange(8))])
            + corrupted[position][byte + 1 :]
        )
        assert not member_verify(root, Witness(index, tuple(corrupted)), leaves[index], depth)
    report("C7", "500 proof round trips with corruption rejection")


def test_c08_macro_trend_hot_and_dispersed(tmp_path, repo_root):
    """Hot-account fixture: one-phase is faster on average over 10 runs. Dispersed fixture: report generated with equal
    roots regardless of sign."""
    started = time.monotonic()
    hot = repo_root / "traces" / "hot_account.json"
    hot_report = run_macro(hot, runs=10)
    hot_mean = hot_report.stats["percent_decrease"]["mean"]
    assert hot_mean > 0.0, f"hot-account mean percent_decrease {hot_mean:+.2f}%"

    dispersed = repo_root / "traces" / "dispersed.json"
    disp_report = run_macro(dispersed, runs=10)
    disp_mean = disp_report.stats["percent_decrease"]["mean"]
    for report_obj in (hot_report, disp_report):
        for block in {row.k for row in report_obj.rows}:
            roots = {row.root_hex for row in report_obj.rows if row.k == block}
            assert len(roots) == 1
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    report(
        "C8",
        f"hot mean {hot_mean:+.2f}% > 0; dispersed mean {disp_mean:+.2f}% "
        f"reported with equal roots ({elapsed:.0f}s)",
    )


def test_c09_single_thread_parity_report():
    """Sequential-update sweep, k=1000, one thread, depth 24: the report is
    generated with equal roots and the measured percent recorded; no bound
    is asserted on the value itself."""
    bench_report = run_micro("seq-update", (1000,), depth=24, runs=10, seed=42)
    roots = {row.root_hex for row in bench_report.rows}
    assert len(roots) == 1
    measured = bench_report.stats["percent_decrease_by_k"][1000]
    assert measured is not None
    report("C9", f"single-thread k=1000 percent_decrease recorded: {measured:+.2f}%")


def test_c10_cli_contract(tmp_path, repo_root):
    """All three subcommands run against the bundled fixtures on a clean
    checkout, emit schema-conformant CSV, and exit 0."""
    started = time.monotonic()

    def cli(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "smtbench.cli", *args],
            capture_output=True, text=True, cwd=repo_root,
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    fixture_out = tmp_path / "synthetic.json"
    cli("gen-fixture", "--kind", "synthetic100", "--out", str(fixture_out))
    bundled = repo_root / "traces" / "synthetic_100blocks.json"
    assert fixture_out.read_bytes() == bundled.read_bytes()

    micro_out = tmp_path / "micro.csv"
    cli(
        "micro", "--workload", "seq-update", "--k-sweep", "10,100,1000",
        "--depth", "24", "--runs", "10", "--seed", "1",
        "--out", str(micro_out),
    )
    macro_out = tmp_path / "macro.csv"
    cli(
        "macro", "--trace", str(bundled), "--filter", "transfer-swap",
        "--runs", "3", "--out", str(macro_out),
    )
    unfiltered_out = tmp_path / "unfiltered.csv"
    cli("macro", "--trace", str(bundled), "--runs", "1", "--out", str(unfiltered_out))

    for out, expect_rows in (
        (micro_out, 3 * 2 * 10), (macro_out, None), (unfiltered_out, None)
    ):
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == RUN_COLUMNS
        assert all(len(row) == len(RUN_COLUMNS) for row in rows[1:])
        if expect_rows is not None:
            assert len(rows) - 1 == expect_rows
        with open(out.with_name(out.stem + "_agg.csv"), newline="") as fh:
            agg = list(csv.reader(fh))
        assert tuple(agg[0]) == AGGREGATE_COLUMNS
        # sanity column: both engines report one root per workload point
        by_point = {}
        root = RUN_COLUMNS.index("root_hex")
        for row in rows[1:]:
            by_point.setdefault((row[0], row[1]), set()).add(row[root])
        assert all(len(roots) == 1 for roots in by_point.values())
    assert (tmp_path / "micro_stats.json").exists()
    assert (tmp_path / "macro_stats.json").exists()
    elapsed = time.monotonic() - started
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    report("C10", f"gen-fixture, micro, macro CLI runs clean in {elapsed:.0f}s")
