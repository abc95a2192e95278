import csv
import dataclasses
import gc
import hashlib
import json

import pytest

from smtbench import bench
from smtbench.batch import OBU, TWO_PHASE
from smtbench.bench import (
    AGGREGATE_COLUMNS,
    RUN_COLUMNS,
    SCHEMA_VERSION,
    MAX_BATCH_OPS,
    MAX_RUNS,
    BenchConfigError,
    UndefinedMetricError,
    gen_fixture,
    percent_decrease,
    run_macro,
    run_micro,
)
from smtbench.cli import main
from smtbench.smt_core import MAX_DEPTH, SparseMerkleTree
from smtbench.workload import gen_hot_blocks, write_block_traces


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# -- the headline metric -------------------------------------------------------


def test_percent_decrease_arithmetic():
    assert percent_decrease(100.0, 90.0) == pytest.approx(10.0)
    assert percent_decrease(250.0, 250.0) == 0.0


def test_percent_decrease_sign_convention():
    # A slower new engine reports a negative decrease.
    assert percent_decrease(100.0, 103.81) == pytest.approx(-3.81)


def test_percent_decrease_rejects_zero_baseline():
    with pytest.raises(UndefinedMetricError):
        percent_decrease(0.0, 5.0)


# -- config validation -----------------------------------------------------------


def test_config_rejects_bad_values(tmp_path, monkeypatch):
    # Every check runs before the trace is read or a workload is built.
    def allocates(*args, **kwargs):
        raise AssertionError("read a trace or built a workload past a check")

    monkeypatch.setattr(bench, "_micro_ops", allocates)
    monkeypatch.setattr(bench, "parse_block_trace", allocates)
    trace = tmp_path / "unread.json"
    for call, message in [
        (lambda: run_micro("rand-update", runs=0), "MAX_RUNS"),
        (lambda: run_micro("rand-update", (-1,)), "k values must be non-negative"),
        (lambda: run_micro("rand-update", (4, 2, 4)), "k values must be distinct"),
        (lambda: run_micro("hot-loop"), "unknown micro workload 'hot-loop'"),
        (lambda: run_macro(trace, "swap-only"), "unknown filter mode 'swap-only'"),
        (lambda: run_macro(trace, runs=0), "MAX_RUNS"),
        # Size bounds: one past a bound names it.
        (lambda: run_micro("rand-update", (10**9,), runs=10**7), "MAX_RUNS=1000"),
        (lambda: run_micro("rand-update", (10, MAX_BATCH_OPS + 1)),
         f"k {MAX_BATCH_OPS + 1} exceeds MAX_BATCH_OPS"),
        (lambda: run_micro("rand-update", runs=MAX_RUNS + 1), "MAX_RUNS"),
        (lambda: run_micro("rand-update", depth=MAX_DEPTH + 1), "MAX_DEPTH"),
        (lambda: run_micro("rand-update", depth=0), "MAX_DEPTH"),
        (lambda: run_macro(trace, runs=MAX_RUNS + 1), "MAX_RUNS"),
        (lambda: run_macro(trace, depth=MAX_DEPTH + 1), "MAX_DEPTH"),
        (lambda: run_macro(trace, depth=0), "MAX_DEPTH"),
        # Types: a float or a bool is not a size, however it compares.
        (lambda: run_micro("rand-update", (2,), depth=8.0), "depth must be an int .* got 8.0"),
        (lambda: run_micro("rand-update", (2,), depth=True), "depth must be an int .* got True"),
        (lambda: run_micro("rand-update", (2,), runs=1.0), "runs must be an int .* got 1.0"),
        (lambda: run_macro(trace, depth=24.0), "depth must be an int .* got 24.0"),
        (lambda: run_macro(trace, runs=True), "runs must be an int .* got True"),
        (lambda: run_micro("rand-update", (2.0,)), "k values must be non-negative ints, got 2.0"),
        (lambda: run_micro("rand-update", (True,)), "k values must be non-negative ints, got True"),
    ]:
        with pytest.raises(BenchConfigError, match=message):
            call()


class Reached(Exception):
    """Raised in place of building a workload or reading a trace."""


def test_config_at_the_bounds_passes(tmp_path, monkeypatch):
    # A run at every bound passes the checks and reaches its workload.
    def reached(*args, **kwargs):
        raise Reached(args)

    monkeypatch.setattr(bench, "_micro_ops", reached)
    monkeypatch.setattr(bench, "parse_block_trace", reached)
    with pytest.raises(Reached, match=f"'rand-update', {MAX_BATCH_OPS}, {MAX_DEPTH}"):
        run_micro("rand-update", (MAX_BATCH_OPS, 0), depth=MAX_DEPTH, runs=MAX_RUNS)
    with pytest.raises(Reached):
        run_macro(tmp_path / "unread.json", "transfer-swap", depth=MAX_DEPTH, runs=MAX_RUNS)


# -- micro runner ------------------------------------------------------------------


@pytest.fixture(scope="module")
def micro_report():
    return run_micro("seq-update", (4, 16), depth=8, runs=3, seed=5)


def test_micro_report_shape(micro_report):
    # 2 ks x 2 engines x 3 timed runs (warm-up excluded)
    assert len(micro_report.rows) == 12
    assert len(micro_report.aggregates) == 4
    assert all(row.run in (1, 2, 3) for row in micro_report.rows)


def test_micro_sanity_roots_match(micro_report):
    for k in (4, 16):
        roots = {row.root_hex for row in micro_report.rows if row.k == k}
        assert len(roots) == 1


def test_micro_counters_stable_across_runs(micro_report):
    for k in (4, 16):
        for engine in ("obu", "two-phase"):
            rows = [r for r in micro_report.rows if r.k == k and r.engine == engine]
            assert len({(r.node_visits, r.hash_invocations) for r in rows}) == 1


def test_micro_percent_on_obu_aggregate_only(micro_report):
    for record in micro_report.aggregates:
        if record.engine == "obu":
            assert record.percent_decrease is not None
        else:
            assert record.percent_decrease is None
    assert set(micro_report.stats["percent_decrease_by_k"]) == {4, 16}


def test_empty_batch_reports_no_percent_decrease(tmp_path, capsys):
    # Both engines return at once on k = 0, so a percentage would compare two
    # call overheads. It is left blank, as on the two-phase row.
    out = tmp_path / "micro.csv"
    assert main(["micro", "--workload", "rand-update", "--k-sweep", "0,1", "--depth", "16",
                 "--runs", "2", "--seed", "7", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "k=0: percent_decrease=n/a" in lines
    assert any(line.startswith("k=1: percent_decrease=") and line.endswith("%") for line in lines)
    header, *rows = read_csv(tmp_path / "micro_agg.csv")
    pct = {(row[1], row[3]): row[header.index("percent_decrease")] for row in rows}
    assert pct[("0", OBU)] == pct[("0", TWO_PHASE)] == pct[("1", TWO_PHASE)] == ""
    assert pct[("1", OBU)] != ""


def test_micro_csv_schema(micro_report, tmp_path):
    out = tmp_path / "report.csv"
    paths = micro_report.write(out)
    assert [path.name for path in paths] == ["report.csv", "report_agg.csv", "report_stats.json"]
    runs = read_csv(out)
    assert tuple(runs[0]) == RUN_COLUMNS
    assert len(runs) == 1 + len(micro_report.rows)
    agg = read_csv(paths[1])
    assert tuple(agg[0]) == AGGREGATE_COLUMNS


def test_schema_v2_columns():
    # Schema version 2 is version 1 without the threads column.
    assert SCHEMA_VERSION == 2
    assert RUN_COLUMNS == (
        "workload", "k", "depth", "engine", "run",
        "wall_nanos", "node_visits", "hash_invocations", "root_hex",
    )
    assert AGGREGATE_COLUMNS == (
        "workload", "k", "depth", "engine", "runs",
        "mean_nanos", "median_nanos", "stddev_nanos",
        "node_visits", "hash_invocations", "root_hex", "percent_decrease",
    )


def test_engines_alternate_in_pairs_with_gc_off(monkeypatch):
    # Run r's pair goes two-phase first when r is even, obu first when odd;
    # run 0 is the warm-up. GC is off inside every engine call.
    calls = []

    def recording(name, engine):
        def call(tree, ops):
            calls.append((name, gc.isenabled()))
            return engine(tree, ops)
        return call

    stubs = {name: recording(name, engine) for name, engine in bench.ENGINES.items()}
    monkeypatch.setattr(bench, "ENGINES", stubs)
    report = run_micro("seq-update", (4,), depth=6, runs=3)
    pairs = [(TWO_PHASE, OBU), (OBU, TWO_PHASE)] * 2
    assert calls == [(name, False) for pair in pairs for name in pair]
    assert gc.isenabled()
    # Rows stay engine-major.
    assert [(r.engine, r.run) for r in report.rows] == [
        (engine, run) for engine in (TWO_PHASE, OBU) for run in (1, 2, 3)
    ]


def test_bench_point_rejects_diverged_roots(monkeypatch):
    obu = bench.ENGINES[OBU]

    def wrong_root(tree, ops):
        return dataclasses.replace(obu(tree, ops), new_root=bytes(32))

    monkeypatch.setitem(bench.ENGINES, OBU, wrong_root)
    message = f"^engine roots diverged at seq-update k=4: .*{OBU}={bytes(32).hex()}$"
    with pytest.raises(RuntimeError, match=message):
        run_micro("seq-update", (4,), depth=6, runs=1)


def test_bench_point_leaves_gc_as_the_caller_had_it():
    gc.disable()
    try:
        run_micro("rand-update", (4,), depth=8, runs=1)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_environment_note_names_the_checked_out_commit(tmp_path):
    sha = "0123456789abcdef0123456789abcdef01234567"
    git = tmp_path / ".git"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    (git / "refs" / "heads" / "main").write_text(sha + "\n")
    assert f", git {sha}, " in bench._environment_note(tmp_path)
    (git / "refs" / "heads" / "main").unlink()
    (git / "packed-refs").write_text(f"# pack-refs with: peeled\n{sha} refs/heads/main\n")
    assert f", git {sha}, " in bench._environment_note(tmp_path)
    (git / "HEAD").write_text(sha[::-1] + "\n")  # detached
    assert f", git {sha[::-1]}, " in bench._environment_note(tmp_path)
    # A ref neither loose nor packed: no other ref's SHA stands in for it.
    (git / "HEAD").write_text("ref: refs/heads/gone\n")
    assert bench._git_sha(tmp_path) is None


def test_environment_note_outside_a_checkout(tmp_path):
    assert ", git unknown, " in bench._environment_note(tmp_path)


def test_micro_rand_update_and_insert_workloads_run():
    for workload in ("rand-update", "seq-insert"):
        report = run_micro(workload, (6,), depth=8, runs=2, seed=3)
        roots = {row.root_hex for row in report.rows}
        assert len(roots) == 1


# -- report contract ---------------------------------------------------------------

# Every column that is not a wall time or derived from one; fixed seeds give
# these the same bytes on every run.
TIMING_COLUMNS = {"wall_nanos", "mean_nanos", "median_nanos", "stddev_nanos", "percent_decrease"}


def non_timing_digest(report, tmp_path):
    """SHA-256 of both of `report`'s CSVs with the timing columns left out."""
    runs_csv, agg_csv, _ = report.write(tmp_path / "report.csv")
    digest = hashlib.sha256()
    for path in (runs_csv, agg_csv):
        header, *rows = read_csv(path)
        keep = [i for i, name in enumerate(header) if name not in TIMING_COLUMNS]
        for row in [header, *rows]:
            digest.update((",".join(row[i] for i in keep) + "\n").encode())
    return digest.hexdigest()


def test_micro_report_non_timing_columns_are_pinned(tmp_path):
    report = run_micro("rand-update", (0, 1, 2, 100), depth=16, runs=2, seed=7)
    assert non_timing_digest(report, tmp_path) == (
        "ef020bd0374f773f8c970aaaba47bb6a03993f10db36c88357661b4eeba49ea1"
    )


def test_macro_report_non_timing_columns_are_pinned(tmp_path, repo_root):
    report = run_macro(repo_root / "traces" / "hot_account.json", runs=2)
    assert non_timing_digest(report, tmp_path) == (
        "b82e430a8618474c11b08f206b8ed64db7b412003e801a6f786327b5c6dc17d2"
    )


# -- macro runner ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "hot.json"
    write_block_traces(gen_hot_blocks(blocks=4, k=6), path)
    return path


def test_macro_report_shape(small_trace):
    report = run_macro(small_trace, depth=10, runs=2)
    assert report.stats["blocks"] == 4
    # per block: 2 engines x 2 runs
    assert len(report.rows) == 4 * 2 * 2
    assert len(report.aggregates) == 4 * 2
    for name in ("mean", "median", "stddev", "variance", "min", "max", "range"):
        assert name in report.stats["percent_decrease"]
        assert name in report.stats["nanos_reduction"]
    ks = {row.k for row in report.rows}
    assert ks == {1, 2, 3, 4}  # block numbers surface in the k column


def test_macro_roots_agree_per_block(small_trace):
    report = run_macro(small_trace, depth=10, runs=2)
    for block in (1, 2, 3, 4):
        roots = {row.root_hex for row in report.rows if row.k == block}
        assert len(roots) == 1
    # state advances between blocks
    assert len({row.root_hex for row in report.rows}) == 4


def test_macro_filter_mode(small_trace, tmp_path):
    report = run_macro(small_trace, "transfer-swap", depth=10, runs=1)
    assert report.workload == "macro-transfer-swap"
    doc = json.loads(report.write(tmp_path / "macro.csv")[2].read_text())
    assert doc["schema_version"] == SCHEMA_VERSION == 2
    assert "threads" not in doc
    assert doc["kind"] == "macro"
    assert doc["stats"]["blocks"] == 4
    assert "environment" in doc


def test_macro_clones_only_for_timed_runs(small_trace, monkeypatch):
    # Each block clones once per engine call, timed or warm-up, and advances
    # to the tree obu's last run left, without a further clone and engine call.
    clones = []
    clone = SparseMerkleTree.clone

    def counting_clone(tree):
        clones.append(tree)
        return clone(tree)

    monkeypatch.setattr(SparseMerkleTree, "clone", counting_clone)
    report = run_macro(small_trace, depth=10, runs=2)
    assert report.stats["blocks"] == 4
    assert len(clones) == 4 * 2 * (2 + 1)


def test_macro_rejects_trace_without_transfers(tmp_path):
    from smtbench.workload import BlockTrace, TxRecord, TxType

    path = tmp_path / "cpk.json"
    write_block_traces([BlockTrace(1, (TxRecord(TxType.CHANGE_PUBKEY, 1, None, 0, 0),))], path)
    with pytest.raises(BenchConfigError):
        run_macro(path, "transfer-swap", runs=1)


# -- fixture generation -----------------------------------------------------------------


def test_gen_fixture_rejects_unknown_kind(tmp_path):
    with pytest.raises(BenchConfigError):
        gen_fixture("flood", tmp_path / "x.json")
