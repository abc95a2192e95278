import csv
import subprocess
import sys

import pytest

from smtbench import bench
from smtbench.bench import AGGREGATE_COLUMNS, RUN_COLUMNS
from smtbench.cli import main


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "smtbench.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def read_header(path):
    with open(path, newline="") as fh:
        return tuple(next(csv.reader(fh)))


def test_micro_subcommand(tmp_path):
    out = tmp_path / "micro.csv"
    proc = run_cli(
        "micro", "--workload", "seq-update", "--k-sweep", "3,9", "--depth", "8",
        "--runs", "2", "--seed", "11", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    assert read_header(out) == RUN_COLUMNS
    assert read_header(tmp_path / "micro_agg.csv") == AGGREGATE_COLUMNS
    assert "percent_decrease" in proc.stdout


def test_macro_subcommand(tmp_path, repo_root):
    out = tmp_path / "macro.csv"
    proc = run_cli(
        "macro", "--trace", str(repo_root / "traces" / "hot_account.json"),
        "--filter", "all", "--depth", "12",
        "--runs", "2", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    assert read_header(out) == RUN_COLUMNS
    assert (tmp_path / "macro_stats.json").exists()
    assert "percent_decrease" in proc.stdout


@pytest.mark.parametrize("kind", ["synthetic100", "hot", "dispersed"])
@pytest.mark.parametrize(
    "flags", [["--seed", "9"], ["--k", "5"], ["--blocks", "3"], ["--k", "1000000", "--blocks", "1000000"]]
)
def test_gen_fixture_rejects_size_and_seed_flags(tmp_path, capsys, monkeypatch, kind, flags):
    # Each kind writes one fixed trace; a size or seed flag is a usage error,
    # raised before any trace is generated, not silently ignored.
    def generates(*args, **kwargs):
        raise AssertionError("generated a trace despite a rejected flag")

    for generator in ("gen_synthetic_blocks", "gen_hot_blocks", "gen_dispersed_blocks"):
        monkeypatch.setattr(bench, generator, generates)
    out = tmp_path / "x.json"
    assert main(["gen-fixture", "--kind", kind, *flags, "--out", str(out)]) == 1
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
    assert not out.exists()


def test_missing_trace_is_io_error(tmp_path):
    proc = run_cli(
        "macro", "--trace", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o.csv")
    )
    assert proc.returncode == 2


def test_malformed_trace_is_validation_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"blocks": [{"block_number": 1, "txs": [{"type": "Nope"}]}]}')
    proc = run_cli("macro", "--trace", str(bad), "--out", str(tmp_path / "o.csv"))
    assert proc.returncode == 1
    assert "unknown tx_type" in proc.stderr


def test_usage_errors_exit_one():
    assert main(["micro", "--workload", "warp-speed", "--out", "x.csv"]) == 1
    assert main(["gen-fixture", "--kind", "flood", "--out", "x.json"]) == 1
    assert main([]) == 1


def test_bad_k_sweep_exits_one(tmp_path):
    assert main([
        "micro", "--workload", "seq-update", "--k-sweep", "ten",
        "--out", str(tmp_path / "x.csv"),
    ]) == 1


@pytest.mark.parametrize(
    "args,bound",
    [
        (["micro", "--workload", "rand-update", "--k-sweep", "1000000000"], "MAX_BATCH_OPS"),
        (["micro", "--workload", "rand-update", "--runs", "10000000"], "MAX_RUNS"),
        (["micro", "--workload", "seq-update", "--depth", "1000000000000"], "MAX_DEPTH"),
        (["macro", "--trace", "traces/hot_account.json", "--runs", "10000000"], "MAX_RUNS"),
        (["macro", "--trace", "traces/hot_account.json", "--depth", "0"], "MAX_DEPTH"),
    ],
)
def test_oversized_values_exit_one_before_allocating(tmp_path, capsys, monkeypatch, args, bound):
    def allocates(*args, **kwargs):
        raise AssertionError("built a workload past a size bound")

    monkeypatch.setattr(bench, "_micro_ops", allocates)
    monkeypatch.setattr(bench, "parse_block_trace", allocates)
    out = tmp_path / "x.out"
    assert main([*args, "--out", str(out)]) == 1
    assert bound in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args, flag",
    [
        # The engines run on one thread.
        (["micro", "--workload", "seq-update"], ["--threads", "1"]),
        # Both engines always run, in alternating pairs.
        (["micro", "--workload", "seq-update"], ["--engine", "obu"]),
        # A trace replays the same whatever the seed; only micro takes one.
        (["macro", "--trace", "traces/hot_account.json"], ["--seed", "1"]),
    ],
    ids=["threads", "engine", "macro-seed"],
)
def test_retired_options_are_usage_errors(tmp_path, capsys, args, flag):
    out = tmp_path / "x.csv"
    assert main([*args, *flag, "--out", str(out)]) == 1
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not out.exists()


def test_help_exits_zero():
    assert main(["--help"]) == 0


def test_unwritable_out_is_io_error(tmp_path):
    proc = run_cli(
        "micro", "--workload", "seq-update", "--k-sweep", "2", "--depth", "6",
        "--runs", "1",
        "--out", str(tmp_path / "missing_dir" / "x.csv"),
    )
    assert proc.returncode == 2


def test_macro_replay_error_names_block_and_tx(tmp_path):
    # A Deposit creates account 9 holding only token 0, so spending token 2
    # underflows; the error must say where, not only which account.
    trace = tmp_path / "underflow.json"
    trace.write_text(
        '{"blocks": [{"block_number": 3, "txs": ['
        '{"type": "Transfer", "from": 1, "to": 2, "token": 2, "amount": "1"}, '
        '{"type": "Deposit", "to": 9, "token": 0, "amount": "5"}, '
        '{"type": "Swap", "from": 9, "to": 1, "token": 2, "amount": "7"}]}]}'
    )
    proc = run_cli("macro", "--trace", str(trace), "--runs", "1", "--out", str(tmp_path / "o.csv"))
    assert proc.returncode == 1
    assert "error: block 3 tx 2 (Swap): account 9 token 2: 0 + -7 < 0" in proc.stderr
