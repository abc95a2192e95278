import re

from smtbench.bench import AGGREGATE_COLUMNS, RUN_COLUMNS
from smtbench.smt_core import SNAPSHOT_HEADER


def test_library_quick_start_runs(repo_root, capsys):
    readme = (repo_root / "README.md").read_text()
    (block,) = re.findall(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S)
    exec(compile(block, "README.md", "exec"), {})
    root_hex, counters = capsys.readouterr().out.split(" ", 1)
    assert len(bytes.fromhex(root_hex)) == 32
    assert counters.startswith("CounterSet(")


def test_readme_csv_headers_are_the_record_fields(repo_root):
    # The per-run CSV's header, then the aggregate CSV's.
    readme = (repo_root / "README.md").read_text()
    headers = re.findall(r"with columns\n\n```\n(.*?)\n```", readme)
    assert headers == [",".join(RUN_COLUMNS), ",".join(AGGREGATE_COLUMNS)]


def test_readme_snapshot_header_is_the_format(repo_root):
    # The README writes each header field's value as its name in angle brackets.
    readme = (repo_root / "README.md").read_text()
    (header,) = re.findall(r"^smt-snapshot .*$", readme, re.M)
    names = re.findall(r"(\w+)=\{\}", SNAPSHOT_HEADER)
    assert header == SNAPSHOT_HEADER.format(*(f"<{name}>" for name in names))
