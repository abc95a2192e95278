import re


def test_library_quick_start_runs(repo_root, capsys):
    readme = (repo_root / "README.md").read_text()
    (block,) = re.findall(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S)
    exec(compile(block, "README.md", "exec"), {})
    root_hex, counters = capsys.readouterr().out.split(" ", 1)
    assert len(bytes.fromhex(root_hex)) == 32
    assert counters.startswith("CounterSet(")
