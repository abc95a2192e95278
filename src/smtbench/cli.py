"""smt-bench: benchmark driver for the two root-hash engines.

Subcommands: `micro` (synthetic leaf-operation sweeps), `macro` (block-trace
replay), and `gen-fixture` (deterministic trace files). Reports are CSV (one
per-run file and one aggregate file) plus a JSON stats sidecar for macro runs.
Exit codes: 0 success, 1 validation error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import sys

from .bench import (
    FILTER_MODES,
    FIXTURE_KINDS,
    MICRO_WORKLOADS,
    aggregate_path,
    gen_fixture,
    run_macro,
    run_micro,
    stats_path,
)
from .smt_core import SmtError


def _parse_k_sweep(raw: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in raw.split(",") if part)
    except ValueError:
        raise argparse.ArgumentTypeError(f"k sweep must be comma-separated integers, got {raw!r}")
    if not values:
        raise argparse.ArgumentTypeError("k sweep is empty")
    return values


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--depth", type=int, default=24, help="tree depth (default 24)")
    sub.add_argument("--runs", type=int, default=10, help="timed runs per engine (default 10)")
    sub.add_argument("--out", required=True, help="per-run CSV path; aggregate CSV lands beside it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="smt-bench", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    micro = subs.add_parser("micro", help="synthetic leaf-operation sweeps")
    micro.add_argument("--workload", choices=MICRO_WORKLOADS, required=True)
    micro.add_argument("--k-sweep", type=_parse_k_sweep, default=(10, 100, 1000),
                       help="comma-separated batch sizes (default 10,100,1000)")
    micro.add_argument("--seed", type=int, default=2024, help="workload seed (default 2024)")
    _add_common(micro)
    micro.set_defaults(func=_cmd_micro)

    macro = subs.add_parser("macro", help="block-trace replay benchmark")
    macro.add_argument("--trace", required=True, help="trace JSON path")
    macro.add_argument("--filter", choices=FILTER_MODES, default="all",
                       help="replay every transaction or only transfers/swaps")
    _add_common(macro)
    macro.set_defaults(func=_cmd_macro)

    # No prefix matching here: a stray --k must not be read as --kind.
    fixture = subs.add_parser(
        "gen-fixture", help="write a deterministic trace fixture", allow_abbrev=False
    )
    fixture.add_argument("--kind", choices=FIXTURE_KINDS, required=True)
    fixture.add_argument("--out", required=True)
    fixture.set_defaults(func=_cmd_fixture)
    return parser


def _write_report(report, out: str) -> None:
    report.write_runs_csv(out)
    report.write_aggregates_csv(aggregate_path(out))
    print(f"wrote {out} and {aggregate_path(out)}")


def _cmd_micro(args: argparse.Namespace) -> int:
    report = run_micro(
        args.workload, args.k_sweep, depth=args.depth, runs=args.runs, seed=args.seed
    )
    _write_report(report, args.out)
    for k, pct in report.stats.get("percent_decrease_by_k", {}).items():
        print(f"k={k}: percent_decrease={'n/a' if pct is None else f'{pct:+.2f}%'}")
    return 0


def _cmd_macro(args: argparse.Namespace) -> int:
    report = run_macro(args.trace, args.filter, depth=args.depth, runs=args.runs)
    _write_report(report, args.out)
    report.write_stats_json(stats_path(args.out))
    print(f"wrote {stats_path(args.out)}")
    pct = report.stats.get("percent_decrease")
    if pct:
        print(
            f"blocks={report.stats['blocks']} percent_decrease "
            f"mean={pct['mean']:+.2f}% median={pct['median']:+.2f}% "
            f"min={pct['min']:+.2f}% max={pct['max']:+.2f}%"
        )
    return 0


def _cmd_fixture(args: argparse.Namespace) -> int:
    trace = gen_fixture(args.kind, args.out)
    txs = sum(len(block.txs) for block in trace)
    print(f"wrote {args.out}: {len(trace)} blocks, {txs} txs")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses status 2 for usage errors
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (SmtError, ValueError) as exc:  # every bench and trace error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
