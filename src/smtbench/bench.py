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
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path
from typing import Callable

from .batch import (
    OBU, TWO_PHASE, BatchPreconditionError, BatchResult, batch_update, two_phase_update,
)
from .smt_core import (
    MAX_DEPTH, OP_INSERT, OP_UPDATE, LeafOperation, SmtError, SparseMerkleTree, _is_index, gen,
)
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
MICRO_WORKLOADS = ("seq-update", "rand-update", "seq-insert")
FILTER_MODES = ("all", "transfer-swap")
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


def _check_sizes(depth: int, runs: int) -> None:
    if not _is_index(depth) or not 1 <= depth <= MAX_DEPTH:
        raise BenchConfigError(f"depth must be an int in [1, MAX_DEPTH={MAX_DEPTH}], got {depth!r}")
    if not _is_index(runs) or not 1 <= runs <= MAX_RUNS:
        raise BenchConfigError(f"runs must be an int in [1, MAX_RUNS={MAX_RUNS}], got {runs!r}")


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
    percent_decrease: float | None  # on the OBU row of a non-empty batch only


# Each CSV's columns are its record's fields, in order.
RUN_COLUMNS = tuple(f.name for f in fields(RunRecord))
AGGREGATE_COLUMNS = tuple(f.name for f in fields(AggregateRecord))


def _write_csv(path: str | Path, columns: tuple[str, ...], records: list) -> None:
    """Header, then one row per record: floats to four places, None blank."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for record in records:
            writer.writerow([
                "" if value is None else f"{value:.4f}" if isinstance(value, float) else value
                for value in astuple(record)
            ])


@dataclass
class BenchReport:
    kind: str  # micro | macro
    workload: str
    rows: list[RunRecord] = field(default_factory=list)
    aggregates: list[AggregateRecord] = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    environment: str = ""

    def write(self, out: str | Path) -> tuple[Path, Path, Path]:
        """Write the per-run CSV to `out` and, beside it, the aggregate CSV
        (`<stem>_agg.csv`, keeping any other suffix) and the stats JSON
        (`<stem>_stats.json`); return the three paths."""
        out = Path(out)
        agg = out.with_name(out.stem + "_agg" + (out.suffix or ".csv"))
        stats = out.with_name(out.stem + "_stats.json")
        _write_csv(out, RUN_COLUMNS, self.rows)
        _write_csv(agg, AGGREGATE_COLUMNS, self.aggregates)
        doc = {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "workload": self.workload,
            "environment": self.environment,
            "stats": self.stats,
        }
        stats.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        return out, agg, stats


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
    depth: int,
    runs: int,
    k: int,
    base: SparseMerkleTree,
    ops: list[LeafOperation],
) -> tuple[dict[str, float], float | None, SparseMerkleTree]:
    """Time both engines on `ops` from clones of `base`, in alternating pairs
    after an untimed warm-up pair, GC off in each call and as the caller had
    it after. Appends the run rows and aggregates to `report`; returns each
    engine's mean wall time, the percent decrease (None for an empty batch:
    two call overheads are no speed-up), and the tree `obu` left."""
    gc_was_enabled = gc.isenabled()
    times: dict[str, list[int]] = {TWO_PHASE: [], OBU: []}
    results: dict[str, BatchResult] = {}
    trees: dict[str, SparseMerkleTree] = {}
    order = [TWO_PHASE, OBU]
    for run in range(runs + 1):
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
    if len({result.new_root for result in results.values()}) > 1:
        raise RuntimeError(
            f"engine roots diverged at {report.workload} k={k}: "
            + ", ".join(f"{name}={r.new_root.hex()}" for name, r in results.items())
        )
    means = {engine: statistics.fmean(walls) for engine, walls in times.items()}
    pct = percent_decrease(means[TWO_PHASE], means[OBU]) if ops else None
    for engine, walls in times.items():
        result = results[engine]
        outcome = (
            result.counters.node_visits, result.counters.hash_invocations, result.new_root.hex()
        )
        point = (report.workload, k, depth, engine)
        report.rows.extend(
            RunRecord(*point, run, wall, *outcome) for run, wall in enumerate(walls, start=1)
        )
        report.aggregates.append(
            AggregateRecord(
                *point, len(walls), means[engine], statistics.median(walls),
                statistics.stdev(walls) if len(walls) > 1 else 0.0,
                *outcome, pct if engine == OBU else None,
            )
        )
    return means, pct, trees[OBU]


def _micro_ops(workload: str, k: int, depth: int, seed: int) -> tuple[list[LeafOperation], bool]:
    """(op list, whether the tree must be pre-populated with the target leaves)."""
    if workload == "seq-update":
        return gen_sequential_ops(OP_UPDATE, k, depth=depth, seed=seed), True
    if workload == "rand-update":
        return gen_uniform_updates(k, seed, depth=depth), True
    return gen_sequential_ops(OP_INSERT, k, depth=depth, seed=seed), False  # seq-insert


def run_micro(
    workload: str,
    k_sweep: tuple[int, ...] = (10, 100, 1000),
    *,
    depth: int = 24,
    runs: int = 10,
    seed: int = 2024,
) -> BenchReport:
    """Sweep k over one micro workload, timing each engine from identical
    pre-populated snapshots."""
    _check_sizes(depth, runs)
    for k in k_sweep:
        if not _is_index(k) or k < 0:
            raise BenchConfigError(f"k values must be non-negative ints, got {k!r}")
    if len(set(k_sweep)) < len(k_sweep):  # one point per k, as `percent_decrease_by_k` keys them
        raise BenchConfigError("k values must be distinct")
    if max(k_sweep, default=0) > MAX_BATCH_OPS:
        raise BenchConfigError(f"k {max(k_sweep)} exceeds MAX_BATCH_OPS={MAX_BATCH_OPS}")
    if workload not in MICRO_WORKLOADS:
        raise BenchConfigError(f"unknown micro workload {workload!r}")
    report = BenchReport(kind="micro", workload=workload, environment=_environment_note())
    pct_by_k = {}
    for k in k_sweep:
        ops, needs_population = _micro_ops(workload, k, depth, seed)
        base = gen(depth)
        if needs_population and ops:
            batch_update(base, setup_inserts(ops, seed=seed + 1))
        _, pct_by_k[k], _ = _bench_point(report, depth, runs, k, base, ops)
    report.stats = {"percent_decrease_by_k": pct_by_k}
    return report


def _summary_stats(values: list[float]) -> dict[str, float]:
    many = len(values) > 1
    return {
        "mean": statistics.fmean(values),
        "median": statistics.median(values),
        "stddev": statistics.stdev(values) if many else 0.0,
        "variance": statistics.variance(values) if many else 0.0,
        "min": min(values),
        "max": max(values),
        "range": max(values) - min(values),
    }


def run_macro(
    trace_path: str | Path, filter_mode: str = "all", *, depth: int = 24, runs: int = 10
) -> BenchReport:
    """Replay a block trace, every transaction (`all`) or only transfers and
    swaps (`transfer-swap`): time both engines per block from identical
    pre-block snapshots, then report per-block and aggregate statistics."""
    _check_sizes(depth, runs)
    if filter_mode not in FILTER_MODES:
        raise BenchConfigError(f"unknown filter mode {filter_mode!r}")
    blocks = parse_block_trace(trace_path)
    if filter_mode == "transfer-swap":
        blocks = filter_transfer_swap(blocks)
        if not blocks:
            raise BenchConfigError("filter removed every transaction from the trace")
    report = BenchReport(
        kind="macro", workload=f"macro-{filter_mode}", environment=_environment_note()
    )

    book = build_preseed_book(blocks)
    tree = gen(depth)
    try:
        tree.commit({index: encode_account(account) for index, account in book.accounts.items()})
    except SmtError as exc:
        raise BenchConfigError(f"pre-seed: {exc}") from exc

    percents: list[float] = []
    reductions_ns: list[float] = []
    for block, ops in replay_blocks(blocks, book):
        try:
            means, pct, tree = _bench_point(report, depth, runs, block.block_number, tree, ops)
        except BatchPreconditionError as exc:
            raise BenchConfigError(f"block {block.block_number}: {exc}") from exc
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
