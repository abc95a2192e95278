"""Tests of the benchmark itself, at small sizes:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts the repository's src/ on sys.path)
from workloads import FIXTURE, FIXTURE_SEED, WORKLOADS, GateError, Sizes, synthetic_trace_text  # noqa: E402

SMALL = Sizes(accounts=512, batch=32, batches_per_sample=2, batch_samples_per_pass=2, proofs_per_batch=2,
              writes_per_sample=8, samples_per_pass=2, trace_blocks=10, trace_txs=800)
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def trace_out(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


def units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = run.run(workload, 5, 0, False, SMALL)["result"]
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_reports_every_per_layer_metric_and_repeats_counts(workload, trace_out):
    first = run.run(workload, 7, 0, True, SMALL)
    second = run.run(workload, 7, 0, True, SMALL)
    layer_units = units("per_layer")
    assert {k: m["unit"] for k, m in first["result"]["metrics"].items()} == layer_units
    counts = [name for name, unit in layer_units.items() if unit == "count"]
    assert {k: first["result"]["metrics"][k] for k in counts} == {
        k: second["result"]["metrics"][k] for k in counts
    }
    spans = (trace_out / f"spans-{workload}-seed7.jsonl").read_text().splitlines()
    names = {json.loads(line)["name"] for line in spans}
    assert {"bench.sample", "smt_core.clone", "workload.decompose", "batch.batch_update",
            "batch.two_phase_update", "smt_core.member_verify"} <= names


def test_attempted_and_failed_follow_from_the_seed_not_the_run_length():
    short = run.run("block-replay", 5, 0, False, SMALL)["result"]
    long = run.run("block-replay", 5, 0.5, False, SMALL)["result"]
    assert (short["attempted"], short["failed"]) == (long["attempted"], long["failed"])


def test_bundled_trace_is_the_generator_at_the_fixture_seed():
    assert (run.ROOT / FIXTURE).read_text() == synthetic_trace_text(FIXTURE_SEED, Sizes())


def test_other_seeds_give_other_traces_of_the_same_shape():
    a, b = (json.loads(synthetic_trace_text(s, SMALL))["blocks"] for s in (1, 2))
    assert a != b
    assert len(a) == len(b) == SMALL.trace_blocks
    assert sum(len(x["txs"]) for x in a) == sum(len(x["txs"]) for x in b) == SMALL.trace_txs


def test_gate_rejects_engines_that_disagree(monkeypatch):
    baseline = run.two_phase_update
    monkeypatch.setattr(
        run, "two_phase_update",
        lambda tree, ops: replace(baseline(tree, ops), new_root=b"\x00" * 32),
    )
    with pytest.raises(GateError, match="roots differ"):
        run.run("rand-update", 5, 0, False, SMALL)


def test_exits_nonzero_without_the_library(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, bench)
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rand-update", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
