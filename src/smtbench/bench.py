"""Micro/macro benchmark runners with CSV and JSON reporting.

Methodology: for every workload point both engines run in pairs from
identical tree snapshots, alternating which goes first; a warm-up pair is
discarded, wall times cover the full engine call (leaf phase plus hash phase)
with GC off, and the headline metric is the percentage decrease in mean
running time, positive when the one-phase engine is faster.
"""

from __future__ import annotations

import csv
import gc
import json
import os
import platform
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .batch import OBU, TWO_PHASE, BatchResult, batch_update, two_phase_update
from .smt_core import MAX_DEPTH, OP_INSERT, OP_UPDATE, LeafOperation, SparseMerkleTree, gen
from .workload import (
    BlockTrace,
    build_preseed_book,
    filter_transfer_swap,
    gen_dispersed_blocks,
    gen_hot_blocks,
    gen_sequential_ops,
    gen_synthetic_blocks,
    gen_uniform_updates,
    parse_block_trace,
    replay_blocks,
    setup_inserts,
    write_block_traces,
)
from .account_model import encode_account

SCHEMA_VERSION = 2
RUN_COLUMNS = (
    "workload", "k", "depth", "engine", "run",
    "wall_nanos", "node_visits", "hash_invocations", "root_hex",
)
AGGREGATE_COLUMNS = (
    "workload", "k", "depth", "engine", "runs",
    "mean_nanos", "median_nanos", "stddev_nanos",
    "node_visits", "hash_invocations", "root_hex", "percent_decrease",
)

MICRO_WORKLOADS = ("seq-update", "rand-update", "seq-insert")
ENGINES: dict[str, Callable[..., BatchResult]] = {
    TWO_PHASE: two_phase_update,
    OBU: batch_update,
}
FIXTURE_KINDS = ("synthetic100", "hot", "dispersed")
FIXTURE_SEED = 1318  # synthetic100
FIXTURE_BLOCKS = 10  # hot and dispersed
FIXTURE_HOT_K = 48  # transfers per hot block
# Size bounds, checked before anything is allocated, so that no CLI value can
# make memory grow without bound.
MAX_BATCH_OPS = 1 << 20  # ops in one micro batch (each k of a sweep)
MAX_RUNS = 1_000  # timed runs per engine and point
REPO_ROOT = Path(__file__).resolve().parents[2]  # the checkout, when run from src/


class BenchConfigError(ValueError):
    """A benchmark configuration is not runnable."""


class UndefinedMetricError(ValueError):
    """percent_decrease is undefined for a non-positive baseline."""


def percent_decrease(baseline_nanos: float, obu_nanos: float) -> float:
    """Percentage drop in running time relative to the baseline; positive
    means the one-phase engine is faster."""
    if baseline_nanos <= 0:
        raise UndefinedMetricError("baseline time must be positive")
    return 100.0 * (baseline_nanos - obu_nanos) / baseline_nanos


@dataclass(frozen=True)
class BenchConfig:
    depth: int = 24
    runs: int = 10
    seed: int = 2024
    micro_workload: str | None = None
    k_sweep: tuple[int, ...] = (10, 100, 1000)
    trace_path: str | Path | None = None
    filter_mode: str = "all"  # all | transfer-swap

    def validate(self) -> None:
        if not 1 <= self.depth <= MAX_DEPTH:
            raise BenchConfigError(f"depth must be in [1, MAX_DEPTH={MAX_DEPTH}], got {self.depth}")
        if not 1 <= self.runs <= MAX_RUNS:
            raise BenchConfigError(f"runs must be in [1, MAX_RUNS={MAX_RUNS}], got {self.runs}")
        if any(k < 0 for k in self.k_sweep):
            raise BenchConfigError("k values must be non-negative")
        if max(self.k_sweep, default=0) > MAX_BATCH_OPS:
            raise BenchConfigError(
                f"k {max(self.k_sweep)} exceeds MAX_BATCH_OPS={MAX_BATCH_OPS}"
            )
        if self.filter_mode not in ("all", "transfer-swap"):
            raise BenchConfigError(f"unknown filter mode {self.filter_mode!r}")
        if self.micro_workload is not None and self.micro_workload not in MICRO_WORKLOADS:
            raise BenchConfigError(f"unknown micro workload {self.micro_workload!r}")


@dataclass(frozen=True)
class RunRecord:
    workload: str
    k: int
    depth: int
    engine: str
    run: int
    wall_nanos: int
    node_visits: int
    hash_invocations: int
    root_hex: str

    def as_row(self) -> list:
        return [getattr(self, name) for name in RUN_COLUMNS]


@dataclass(frozen=True)
class AggregateRecord:
    workload: str
    k: int
    depth: int
    engine: str
    runs: int
    mean_nanos: float
    median_nanos: float
    stddev_nanos: float
    node_visits: int
    hash_invocations: int
    root_hex: str
    percent_decrease: float | None  # populated on the OBU row only

    def as_row(self) -> list:
        row = []
        for name in AGGREGATE_COLUMNS:
            value = getattr(self, name)
            if isinstance(value, float):
                value = f"{value:.4f}"
            elif value is None:
                value = ""
            row.append(value)
        return row


@dataclass
class BenchReport:
    kind: str  # micro | macro
    workload: str
    rows: list[RunRecord] = field(default_factory=list)
    aggregates: list[AggregateRecord] = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    environment: str = ""

    def write_runs_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(RUN_COLUMNS)
            for row in self.rows:
                writer.writerow(row.as_row())

    def write_aggregates_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(AGGREGATE_COLUMNS)
            for record in self.aggregates:
                writer.writerow(record.as_row())

    def write_stats_json(self, path: str | Path) -> None:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "workload": self.workload,
            "environment": self.environment,
            "stats": self.stats,
        }
        Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def aggregate_path(out: str | Path) -> Path:
    out = Path(out)
    return out.with_name(out.stem + "_agg" + (out.suffix or ".csv"))


def stats_path(out: str | Path) -> Path:
    out = Path(out)
    return out.with_name(out.stem + "_stats.json")


def _git_sha(root: Path) -> str | None:
    """The commit checked out at `root`, read from `.git` without running git;
    None outside a checkout."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref  # a detached HEAD holds the SHA itself
    name = ref[5:]
    loose, packed = git / name, git / "packed-refs"
    if loose.is_file():
        return loose.read_text().strip()
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    return None


def _environment_note(root: Path = REPO_ROOT) -> str:
    return (
        f"python {platform.python_version()}, {os.cpu_count()} hardware threads, "
        f"git {_git_sha(root) or 'unknown'}, "
        "in-process timing (both phases timed inside one process)"
    )


def _bench_point(
    report: BenchReport,
    config: BenchConfig,
    k: int,
    base: SparseMerkleTree,
    ops: list[LeafOperation],
) -> tuple[dict[str, float], float, SparseMerkleTree]:
    """Time both engines on `ops` from clones of `base`, in pairs that
    alternate which engine goes first, after an untimed warm-up pair, with GC
    off inside each call and left as the caller had it after. Appends the run
    rows and aggregates to `report` and returns each engine's mean wall time,
    the percent decrease, and the tree `obu` left."""
    gc_was_enabled = gc.isenabled()
    times: dict[str, list[int]] = {TWO_PHASE: [], OBU: []}
    results: dict[str, BatchResult] = {}
    trees: dict[str, SparseMerkleTree] = {}
    order = [TWO_PHASE, OBU]
    for run in range(config.runs + 1):
        for engine in order:
            tree = base.clone()
            gc.disable()
            try:
                started = time.perf_counter_ns()
                result = ENGINES[engine](tree, ops)
                elapsed = time.perf_counter_ns() - started
            finally:
                if gc_was_enabled:
                    gc.enable()
            if run > 0:
                times[engine].append(elapsed)
            results[engine], trees[engine] = result, tree
        order.reverse()
    _check_roots_agree(results)
    means = {engine: statistics.fmean(walls) for engine, walls in times.items()}
    pct = percent_decrease(means[TWO_PHASE], means[OBU])
    for engine, walls in times.items():
        result = results[engine]
        for run, wall in enumerate(walls, start=1):
            report.rows.append(
                RunRecord(
                    report.workload, k, config.depth, engine, run,
                    wall, result.counters.node_visits,
                    result.counters.hash_invocations, result.new_root.hex(),
                )
            )
        report.aggregates.append(
            _aggregate(
                report.workload, k, config.depth, engine, walls, result,
                pct if engine == OBU else None,
            )
        )
    return means, pct, trees[OBU]


def _aggregate(
    workload: str,
    k: int,
    depth: int,
    engine: str,
    times: list[int],
    result: BatchResult,
    pct: float | None,
) -> AggregateRecord:
    return AggregateRecord(
        workload=workload,
        k=k,
        depth=depth,
        engine=engine,
        runs=len(times),
        mean_nanos=statistics.fmean(times),
        median_nanos=statistics.median(times),
        stddev_nanos=statistics.stdev(times) if len(times) > 1 else 0.0,
        node_visits=result.counters.node_visits,
        hash_invocations=result.counters.hash_invocations,
        root_hex=result.new_root.hex(),
        percent_decrease=pct,
    )


def _micro_ops(workload: str, k: int, depth: int, seed: int) -> tuple[list[LeafOperation], bool]:
    """(op list, whether the tree must be pre-populated with the target leaves)."""
    if workload == "seq-update":
        return gen_sequential_ops(OP_UPDATE, k, depth=depth, seed=seed), True
    if workload == "rand-update":
        return gen_uniform_updates(k, seed, depth=depth), True
    if workload == "seq-insert":
        return gen_sequential_ops(OP_INSERT, k, depth=depth, seed=seed), False
    raise BenchConfigError(f"unknown micro workload {workload!r}")


def run_micro(config: BenchConfig) -> BenchReport:
    """Sweep k over the configured micro workload, timing each engine from
    identical pre-populated snapshots."""
    config.validate()
    if config.micro_workload is None:
        raise BenchConfigError("micro benchmark needs a workload")
    report = BenchReport(
        kind="micro",
        workload=config.micro_workload,
        environment=_environment_note(),
    )
    pct_by_k = {}
    for k in config.k_sweep:
        ops, needs_population = _micro_ops(config.micro_workload, k, config.depth, config.seed)
        base = gen(config.depth)
        if needs_population and ops:
            batch_update(base, setup_inserts(ops, seed=config.seed + 1))
        _, pct_by_k[k], _ = _bench_point(report, config, k, base, ops)
    report.stats = {"percent_decrease_by_k": pct_by_k}
    return report


def _check_roots_agree(results: dict[str, BatchResult]) -> None:
    roots = {result.new_root for result in results.values()}
    if len(roots) > 1:
        raise RuntimeError(
            "engine roots diverged: "
            + ", ".join(f"{name}={r.new_root.hex()}" for name, r in results.items())
        )


def _summary_stats(values: list[float]) -> dict[str, float]:
    spread = statistics.stdev(values) if len(values) > 1 else 0.0
    var = statistics.variance(values) if len(values) > 1 else 0.0
    return {
        "mean": statistics.fmean(values),
        "median": statistics.median(values),
        "stddev": spread,
        "variance": var,
        "min": min(values),
        "max": max(values),
        "range": max(values) - min(values),
    }


def run_macro(config: BenchConfig) -> BenchReport:
    """Replay a block trace: time both engines per block from identical
    pre-block snapshots, then report per-block and aggregate statistics."""
    config.validate()
    if config.trace_path is None:
        raise BenchConfigError("macro benchmark needs a trace path")
    blocks = parse_block_trace(config.trace_path)
    if config.filter_mode == "transfer-swap":
        blocks = filter_transfer_swap(blocks)
        if not blocks:
            raise BenchConfigError("filter removed every transaction from the trace")
    report = BenchReport(
        kind="macro", workload=f"macro-{config.filter_mode}",
        environment=_environment_note(),
    )

    book = build_preseed_book(blocks)
    tree = gen(config.depth)
    seed_ops = [
        LeafOperation.insert(account.account_id, encode_account(account))
        for account in sorted(book.accounts.values(), key=lambda a: a.account_id)
    ]
    if seed_ops:
        batch_update(tree, seed_ops)

    percents: list[float] = []
    reductions_ns: list[float] = []
    for block, ops in replay_blocks(blocks, book):
        means, pct, tree = _bench_point(report, config, block.block_number, tree, ops)
        percents.append(pct)
        reductions_ns.append(means[TWO_PHASE] - means[OBU])

    report.stats = {"blocks": len(blocks)}
    if percents:
        report.stats["percent_decrease"] = _summary_stats(percents)
        report.stats["nanos_reduction"] = _summary_stats(reductions_ns)
    return report


def gen_fixture(kind: str, out_path: str | Path) -> list[BlockTrace]:
    """Write the deterministic trace fixture of one kind; same kind, same bytes."""
    if kind == "synthetic100":
        trace = gen_synthetic_blocks(seed=FIXTURE_SEED)
    elif kind == "hot":
        trace = gen_hot_blocks(blocks=FIXTURE_BLOCKS, k=FIXTURE_HOT_K)
    elif kind == "dispersed":
        trace = gen_dispersed_blocks(blocks=FIXTURE_BLOCKS)
    else:
        raise BenchConfigError(f"unknown fixture kind {kind!r}")
    write_block_traces(trace, out_path)
    return trace
