"""The committed mutation verdicts must cover the mutant set the gate makes
from the code as it stands, so a change to a mutation target that skips
`python tests/mutate.py` fails here."""

from pathlib import Path

import mutate


def test_verdicts_name_every_mutant_and_no_other():
    lines = (Path(mutate.__file__).parent / "mutation_verdicts.txt").read_text().splitlines()
    # A verdict line is `<id> killed <test>` or `<id> survived -`; the file
    # also keeps the run's `total ...` line.
    listed = {fields[0] for fields in map(str.split, lines) if fields[1:2] in (["killed"], ["survived"])}
    made = {mutant_id for mutant_id, _, _ in mutate.all_mutants()}
    assert sorted(made - listed) == [], "mutants with no verdict: rerun tests/mutate.py"
    assert sorted(listed - made) == [], "verdicts for mutants the gate no longer makes"
