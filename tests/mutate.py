"""Mutation gate: run the test suite against small faults in the core code.

Run with no arguments: `python tests/mutate.py`.

Each mutant is one fault from one of three operators: flip a comparison
(`==`/`!=`, `<`/`>=`, `>`/`<=`, `in`/`not in`, `is`/`is not`), add 1 to an
int literal, or replace a statement in a function body with `pass`. The
targets are fixed in `TARGETS`. Mutants are written into a temporary copy
of the checkout, never into the checkout: pytest's `pythonpath` setting
imports the package from the `src/` beside the tests, so the copy holds both.

The unmutated copy's suite must pass first, with `smtbench` imported from
the copy. Each mutant then runs the suite, less the timing assertion of
acceptance C08, with `-x` and fixed hash and Hypothesis seeds; it is killed
when a test fails or the suite outlives a timeout taken from the clean run
(some mutants loop forever). One line per
mutant gives its id (`file:function:line:operator:n`), the verdict and the
first failing test, then the totals, so two runs compare with `diff`. The
last run's sorted verdict lines are kept beside this file, made with
`python tests/mutate.py | grep -E ' (killed|survived)' | sort > tests/mutation_verdicts.txt`.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file under the checkout, function names to mutate, a method by its bare
# name; None mutates the whole file)
TARGETS = (
    ("src/smtbench/batch.py", None),
    ("src/smtbench/hasher.py", ("_bind", "__post_init__")),
    ("src/smtbench/smt_core.py",
     ("__init__", "member_verify", "member_witness_create", "resolve", "_check_index_type", "_is_index",
      "load_snapshot", "check_consistency")),
    ("src/smtbench/account_model.py", None),
    ("src/smtbench/workload.py",
     ("__init__", "required_preseed", "build_preseed_book", "tx_to_leaf_ops", "apply_leaf_ops")),
)

FLIPS = {
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Lt: ast.GtE, ast.GtE: ast.Lt,
    ast.Gt: ast.LtE, ast.LtE: ast.Gt,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}  # fmt: skip

# The suite runs in-process so the clean run can report where the tests
# imported smtbench from. Hypothesis keeps no example database, so no mutant
# replays an earlier one's failures, and no deadline, so no mutant is killed
# by a slow machine. Acceptance C08 is left out for the same reason: it
# asserts a timing outcome, so a verdict resting on it would depend on load.
# So is the check that the verdict file lists every mutant: it enumerates the
# mutants of the mutated copy, so it would fail on most mutants and hide
# whether any other test kills them.
PYTEST = """\
import sys, pytest, hypothesis
hypothesis.settings.register_profile("mutate", database=None, deadline=None)
hypothesis.settings.load_profile("mutate")
code = pytest.main(["-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
                    "--deselect", "tests/test_acceptance.py::test_c08_macro_trend_hot_and_dispersed",
                    "--ignore", "tests/test_mutation_verdicts.py"])
print("smtbench imported from", getattr(sys.modules.get("smtbench"), "__file__", None))
sys.exit(code)
"""


def _mutants(source: bytes, functions: tuple[str, ...] | None) -> list[tuple]:
    """(function, line, operator, start, end, replacement) for each mutant of
    `source`, ordered by position. `functions` limits them to the named
    functions and methods. Only statements in a function body are dropped:
    a dropped import, class or `def` tells nothing."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    found = []

    def add(scope: str, node: ast.AST, operator: str, text: str) -> None:
        start = starts[node.lineno - 1] + node.col_offset  # offsets count bytes
        found.append((scope, node.lineno, operator, start, starts[node.end_lineno - 1] + node.end_col_offset, text))

    def visit(node: ast.AST, scope: str, active: bool, in_body: bool) -> None:
        if active and isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in FLIPS:
                    ops = [*node.ops[:i], FLIPS[type(op)](), *node.ops[i + 1 :]]
                    add(scope, node, "flip", ast.unparse(ast.Compare(node.left, ops, node.comparators)))
        elif active and isinstance(node, ast.Constant) and type(node.value) is int:
            add(scope, node, "plus1", str(node.value + 1))
        elif active and in_body and _droppable(node):
            add(scope, node, "drop", "pass")
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = node.name if scope == "<module>" else f"{scope}.{node.name}"
            active = active or node.name in (functions or ())
            in_body = isinstance(node, ast.FunctionDef)
        for child in ast.iter_child_nodes(node):
            visit(child, scope, active, in_body)

    visit(ast.parse(source), "<module>", functions is None, False)
    return sorted(found, key=lambda mutant: (mutant[3], -mutant[4]))


def _droppable(node: ast.AST) -> bool:
    """A statement worth replacing with `pass`: not `pass` itself, nor a docstring."""
    if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
        return not isinstance(node.value.value, str)
    return isinstance(node, ast.stmt) and not isinstance(node, ast.Pass)


def all_mutants() -> list[tuple[str, str, bytes]]:
    """(id, file, mutated source) for every mutant of every target."""
    out = []
    for path, functions in TARGETS:
        source = (ROOT / path).read_bytes()
        seen: dict[tuple, int] = {}
        for scope, line, operator, start, end, text in _mutants(source, functions):
            seen[scope, line, operator] = n = seen.get((scope, line, operator), 0) + 1
            mutated = source[:start] + text.encode() + source[end:]
            ast.parse(mutated)
            out.append((f"{Path(path).name}:{scope}:{line}:{operator}:{n}", path, mutated))
    return out


def _run_suite(copy: Path, timeout: float | None) -> tuple[int | None, str]:
    """Run the copy's suite: (exit code, None on a timeout; its output)."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(copy / "src"))
    try:
        proc = subprocess.run(
            [sys.executable, "-c", PYTEST], cwd=copy, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return None, ""
    return proc.returncode, proc.stdout


def _first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ")[0]
    return "no test named"


def main() -> int:
    mutants = all_mutants()
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks", "out")
    with tempfile.TemporaryDirectory(prefix="smtbench-mutate-") as scratch:
        copy = Path(scratch) / "checkout"
        shutil.copytree(ROOT, copy, ignore=ignore)
        started = time.monotonic()
        code, output = _run_suite(copy, None)
        clean_seconds = time.monotonic() - started
        imported = output.rstrip().rsplit("smtbench imported from ", 1)[-1]
        if code != 0 or not Path(imported).resolve().is_relative_to(copy.resolve()):
            print(output)
            print(f"the clean suite exited {code} with smtbench from {imported}; no mutant ran", file=sys.stderr)
            return 2
        timeout = 3 * clean_seconds + 30
        print(f"clean suite passed in {clean_seconds:.0f} s; {len(mutants)} mutants, timeout {timeout:.0f} s each")
        killed = 0
        for mutant_id, path, mutated in mutants:
            target = copy / path
            original = target.read_bytes()
            target.write_bytes(mutated)
            try:
                code, output = _run_suite(copy, timeout)
            finally:
                target.write_bytes(original)
            killed += code != 0
            verdict = "survived -" if code == 0 else "killed timeout" if code is None else f"killed {_first_failure(output)}"
            print(mutant_id, verdict, flush=True)
        print(f"total {len(mutants)} killed {killed} survived {len(mutants) - killed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
