"""The mutation harness's table still applies to the code it mutates.

`tests/mutants.py` runs each mutant's tests in a scratch copy and is too
slow for tier-1; this only checks that every old text occurs exactly once
and every named test file exists, so a refactor that moves a mutant's code
has to update the mutant rather than drop it silently.
"""

import pytest

from mutants import KILLED, MUTANTS, SURVIVES, problems


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_applies_once(mutant):
    assert problems(mutant) == []
    assert mutant.old != mutant.new
    assert mutant.expect in (KILLED, SURVIVES)
    assert (mutant.expect == SURVIVES) == bool(mutant.reason)


def test_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))
