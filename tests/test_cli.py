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


def test_gen_fixture_subcommand_matches_bundled(tmp_path, repo_root):
    out = tmp_path / "hot.json"
    proc = run_cli("gen-fixture", "--kind", "hot", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == (repo_root / "traces" / "hot_account.json").read_bytes()


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
        (["gen-fixture", "--kind", "hot", "--k", "1000000", "--blocks", "1000000"], "MAX_FIXTURE_TXS"),
        (["gen-fixture", "--kind", "dispersed", "--blocks", "0"], "blocks and k must be >= 1"),
    ],
)
def test_oversized_values_exit_one_before_allocating(tmp_path, capsys, monkeypatch, args, bound):
    def allocates(*args, **kwargs):
        raise AssertionError("built a workload past a size bound")

    for generator in ("_micro_ops", "gen_hot_blocks", "gen_dispersed_blocks"):
        monkeypatch.setattr(bench, generator, allocates)
    out = tmp_path / "x.out"
    assert main([*args, "--out", str(out)]) == 1
    assert bound in capsys.readouterr().err
    assert not out.exists()


def test_threads_option_is_rejected(tmp_path, capsys):
    # The engines run on one thread; the old knob is now a usage error.
    assert main([
        "micro", "--workload", "seq-update", "--threads", "1",
        "--out", str(tmp_path / "x.csv"),
    ]) == 1
    assert "unrecognized arguments: --threads 1" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_engine_option_is_rejected(tmp_path, capsys):
    # Both engines always run, in alternating pairs; the old knob is now a
    # usage error.
    assert main([
        "micro", "--workload", "seq-update", "--engine", "obu",
        "--out", str(tmp_path / "x.csv"),
    ]) == 1
    assert "unrecognized arguments: --engine obu" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


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
