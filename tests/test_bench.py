import csv
import gc
import json

import pytest

from smtbench import bench
from smtbench.batch import OBU, TWO_PHASE
from smtbench.bench import (
    AGGREGATE_COLUMNS,
    RUN_COLUMNS,
    SCHEMA_VERSION,
    MAX_BATCH_OPS,
    MAX_FIXTURE_TXS,
    MAX_RUNS,
    BenchConfig,
    BenchConfigError,
    UndefinedMetricError,
    aggregate_path,
    gen_fixture,
    percent_decrease,
    run_macro,
    run_micro,
    stats_path,
)
from smtbench.smt_core import MAX_DEPTH, SparseMerkleTree


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


def test_config_rejects_bad_values():
    with pytest.raises(BenchConfigError):
        BenchConfig(runs=0).validate()
    with pytest.raises(BenchConfigError):
        BenchConfig(k_sweep=(-1,)).validate()
    with pytest.raises(BenchConfigError):
        BenchConfig(filter_mode="swap-only").validate()
    with pytest.raises(BenchConfigError):
        BenchConfig(micro_workload="hot-loop").validate()
    with pytest.raises(BenchConfigError):
        run_micro(BenchConfig())  # no workload chosen
    with pytest.raises(BenchConfigError):
        run_macro(BenchConfig())  # no trace path
    # Size bounds, by validation alone: a config at a bound passes, one past
    # it names the bound.
    BenchConfig(micro_workload="rand-update", depth=MAX_DEPTH,
                k_sweep=(0, MAX_BATCH_OPS), runs=MAX_RUNS).validate()
    for config, bound in [
        (BenchConfig(micro_workload="rand-update", k_sweep=(10**9,), runs=10**7), "MAX_RUNS=1000"),
        (BenchConfig(k_sweep=(10, MAX_BATCH_OPS + 1)), f"k {MAX_BATCH_OPS + 1} exceeds MAX_BATCH_OPS"),
        (BenchConfig(runs=MAX_RUNS + 1), "MAX_RUNS"),
        (BenchConfig(depth=MAX_DEPTH + 1), "MAX_DEPTH"),
        (BenchConfig(depth=0), "MAX_DEPTH"),
    ]:
        with pytest.raises(BenchConfigError, match=bound):
            config.validate()


# -- micro runner ------------------------------------------------------------------


@pytest.fixture(scope="module")
def micro_report():
    config = BenchConfig(
        micro_workload="seq-update", k_sweep=(4, 16), depth=8, runs=3, seed=5
    )
    return run_micro(config)


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


def test_micro_csv_schema(micro_report, tmp_path):
    out = tmp_path / "report.csv"
    micro_report.write_runs_csv(out)
    micro_report.write_aggregates_csv(aggregate_path(out))
    runs = read_csv(out)
    assert tuple(runs[0]) == RUN_COLUMNS
    assert len(runs) == 1 + len(micro_report.rows)
    agg = read_csv(aggregate_path(out))
    assert tuple(agg[0]) == AGGREGATE_COLUMNS
    assert aggregate_path(out).name == "report_agg.csv"
    assert stats_path(out).name == "report_stats.json"


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
    report = run_micro(
        BenchConfig(micro_workload="seq-update", k_sweep=(4,), depth=6, runs=3)
    )
    pairs = [(TWO_PHASE, OBU), (OBU, TWO_PHASE)] * 2
    assert calls == [(name, False) for pair in pairs for name in pair]
    assert gc.isenabled()
    # Rows stay engine-major.
    assert [(r.engine, r.run) for r in report.rows] == [
        (engine, run) for engine in (TWO_PHASE, OBU) for run in (1, 2, 3)
    ]


def test_bench_point_leaves_gc_as_the_caller_had_it():
    gc.disable()
    try:
        run_micro(BenchConfig(depth=8, runs=1, micro_workload="rand-update", k_sweep=(4,)))
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


def test_environment_note_outside_a_checkout(tmp_path):
    assert ", git unknown, " in bench._environment_note(tmp_path)


def test_micro_rand_update_and_insert_workloads_run():
    for workload in ("rand-update", "seq-insert"):
        config = BenchConfig(
            micro_workload=workload, k_sweep=(6,), depth=8, runs=2, seed=3
        )
        report = run_micro(config)
        roots = {row.root_hex for row in report.rows}
        assert len(roots) == 1


# -- macro runner ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "hot.json"
    gen_fixture("hot", path, k=6, blocks=4)
    return path


def test_macro_report_shape(small_trace):
    config = BenchConfig(trace_path=small_trace, depth=10, runs=2)
    report = run_macro(config)
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
    config = BenchConfig(trace_path=small_trace, depth=10, runs=2)
    report = run_macro(config)
    for block in (1, 2, 3, 4):
        roots = {row.root_hex for row in report.rows if row.k == block}
        assert len(roots) == 1
    # state advances between blocks
    assert len({row.root_hex for row in report.rows}) == 4


def test_macro_filter_mode(small_trace, tmp_path):
    config = BenchConfig(
        trace_path=small_trace, depth=10, runs=1, filter_mode="transfer-swap"
    )
    report = run_macro(config)
    assert report.workload == "macro-transfer-swap"
    out = tmp_path / "macro.csv"
    report.write_stats_json(stats_path(out))
    doc = json.loads(stats_path(out).read_text())
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
    report = run_macro(BenchConfig(trace_path=small_trace, depth=10, runs=2))
    assert report.stats["blocks"] == 4
    assert len(clones) == 4 * 2 * (2 + 1)


def test_macro_rejects_trace_without_transfers(tmp_path):
    from smtbench.workload import BlockTrace, TxRecord, TxType, write_block_traces

    path = tmp_path / "cpk.json"
    write_block_traces([BlockTrace(1, (TxRecord(TxType.CHANGE_PUBKEY, 1, None, 0, 0),))], path)
    with pytest.raises(BenchConfigError):
        run_macro(BenchConfig(trace_path=path, filter_mode="transfer-swap", runs=1))


# -- fixture generation -----------------------------------------------------------------


def test_gen_fixture_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    gen_fixture("synthetic100", a, seed=77)
    gen_fixture("synthetic100", b, seed=77)
    assert a.read_bytes() == b.read_bytes()
    gen_fixture("hot", a, k=5, blocks=2)
    gen_fixture("hot", b, k=5, blocks=2)
    assert a.read_bytes() == b.read_bytes()


def test_gen_fixture_rejects_unknown_kind(tmp_path):
    with pytest.raises(BenchConfigError):
        gen_fixture("flood", tmp_path / "x.json")


@pytest.mark.parametrize(
    "kind,k,blocks,match",
    [
        ("hot", 48, 0, "blocks and k must be >= 1, got blocks=0"),
        ("hot", 0, 3, "blocks and k must be >= 1, got blocks=3, k=0"),
        ("dispersed", 48, -1, "blocks and k must be >= 1"),
        ("hot", 1_000, 1_001, "1001 blocks of 1000 transactions exceed MAX_FIXTURE_TXS=1000000"),
        ("dispersed", 48, MAX_FIXTURE_TXS // 83 + 1, "exceed MAX_FIXTURE_TXS"),
    ],
)
def test_gen_fixture_checks_its_size_before_generating(tmp_path, kind, k, blocks, match):
    out = tmp_path / "x.json"
    with pytest.raises(BenchConfigError, match=match):
        gen_fixture(kind, out, k=k, blocks=blocks)
    assert not out.exists()
