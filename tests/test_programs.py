"""The table of large-program commands in `programs.py` still fits the
command line and the output comparison.

`python tests/programs.py` runs the rows under their limits and is too
slow for tier-1; this runs no row, so a renamed flag, a missing file or a
loosened limit fails here rather than in the CI's limit step.
"""

from pathlib import Path

import pytest

from ndlp.cli import build_parser
from ndlp.corpus import CORPUS_NAMES, corpus_path

import compare_trees
from programs import EXAMPLES, ROOT, ROWS, programs, text

CORPUS = {corpus_path(name) for name in CORPUS_NAMES}


@pytest.mark.parametrize("row", ROWS, ids=str)
def test_row_parses_and_names_known_files(row):
    args = build_parser().parse_args([*row.args, *row.files])
    assert args.files == list(row.files)
    for file in row.files:
        if file.startswith(EXAMPLES):
            assert ROOT / file in CORPUS
        else:
            assert file in programs()
    assert row.wall_s > 0
    assert row.rss_mib is None or row.rss_mib > 0
    assert row.exit_code in (0, 2)


def test_only_the_runaway_grounding_exits_2():
    runaway = [(row.args, row.files, row.wall_s) for row in ROWS if row.exit_code == 2]
    assert runaway == [(("ground", "--horizon", "1000000000"), ("sum.ndlp",), 10)]
    assert programs()["sum.ndlp"] == "{p(T+1)} :- {p(T)}. {p(0)}.\n"


def test_large_family_is_the_table():
    calls = compare_trees.large_calls()
    assert [call.argv for call in calls] == [row.args for row in ROWS]
    assert [call.files for call in calls] == [
        tuple((Path(file).name, text(file)) for file in row.files) for row in ROWS]


def test_comparison_runs_no_call_twice():
    calls = [(call.argv, call.files) for family in compare_trees.FAMILIES.values()
             for call in family()]
    assert len(calls) == len(set(calls))
