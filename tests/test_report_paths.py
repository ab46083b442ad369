"""The command line's int path against the library's object path.

`cli._solve` keeps each model as index tuples into the compiled program,
fills the report's NdAtom lists by indexing the program's atoms and expands
over the program's one atom table. The library returns NdAtom sets, which
a caller sorts, and `expand` builds a table of each model's own. The
benchmark's tracer renders its report from the library path and requires
the same stdout, so the two must agree byte for byte, as text and as JSON.
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from ndlp.answersets import expand, expand_ids
from ndlp.cli import SolveReport, _load, _solve, build_parser, main
from ndlp.corpus import CORPUS_NAMES, corpus_path, corpus_text
from ndlp.parser import parse_program
from ndlp.positive import least_model
from ndlp.stable import enumerate_stable
from ndlp.syntax import sort_nd_atoms
from ndlp.wf import well_founded_model

from conftest import random_ground_program, random_nonground_program

RANDOM_SEEDS = range(200)
PARSER = build_parser()


def solve(argv: list[str]) -> int:
    """`cli.main(argv)` without building its flag parser, which costs more
    than solving a small program; errors are not caught."""
    args = PARSER.parse_args(argv)
    return _solve(args, want_answer_sets=args.command == "expand" or args.answer_sets)


def object_report(args, gp) -> SolveReport:
    """The report of a solve/expand request built from the library's return
    values, as the tracer builds it."""
    report = SolveReport(semantics=args.semantics, rule_count=len(gp.rules),
                         base_size=len(gp.base))
    if args.semantics == "least":
        models = [least_model(gp)]
        report.models = [list(sort_nd_atoms(models[0]))]
    elif args.semantics == "stable":
        result = enumerate_stable(gp, max_models=args.max_models)
        models = list(result.models)
        report.models = [list(sort_nd_atoms(m)) for m in models]
        report.truncated |= result.truncated
    else:
        wf = well_founded_model(gp)
        models = [wf]
        report.models = [list(sort_nd_atoms(wf.pos))]
        report.negatives = list(sort_nd_atoms(wf.neg))
        report.undefined = list(sort_nd_atoms(gp.base_set - wf.pos - wf.neg))
        report.total = wf.is_total(gp.base)
    if args.command == "expand" or args.answer_sets:
        report.answer_sets = []
        for model in models:
            expansion = expand(model, cap=args.max_answer_sets,
                               subset_minimal=args.subset_minimal)
            report.answer_sets.append(list(expansion))
            report.truncated |= expansion.truncated
    return report


def check_paths(*argv: str, run=main, formats=("text", "json")):
    """`run(argv)`, `cli.main` by default, against the object path in each
    of `formats`; the ground program."""
    args = PARSER.parse_args(argv)
    _, gp = _load(args.files, args.horizon)
    report = object_report(args, gp)
    code = 0 if report.models else 1
    for fmt in formats:
        rendered = report.to_json() if fmt == "json" else report.to_text()
        full = [*argv, "--format", fmt]
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            assert run(full) == code, f"argv={full}"
        assert out.getvalue() == rendered, f"argv={full}"
    return gp


def check_tables(gp, semantics: str) -> None:
    """Expanding over the program's table and over each model's own table
    gives answer sets equal by key, in the same order."""
    program = gp.compiled
    if semantics == "stable":
        result = enumerate_stable(gp)
        pairs = [(model, ids, ()) for model, ids in zip(result.models, result.ids)]
    elif semantics == "wf":
        true, false = program.well_founded()
        pairs = [(well_founded_model(gp), program.ids(true), program.ids(false))]
    else:
        pairs = [(least_model(gp), program.ids(program.least()), ())]
    for model, pos, neg in pairs:
        for cap, minimal in ((None, False), (3, False), (None, True)):
            by_model = expand(model, cap=cap, subset_minimal=minimal)
            by_program = expand_ids(program.table, pos, neg, cap=cap, subset_minimal=minimal)
            assert by_program.truncated == by_model.truncated
            assert [s.key for s in by_program] == [s.key for s in by_model]
            assert list(by_program) == list(by_model)


def random_program_file(tmp_path, seed: int) -> tuple[str, int | None, bool]:
    """Seed `seed` of the random generators as a file: even seeds a random
    ground program, odd seeds a random program with variables. The file's
    path, its horizon and whether it is negation-free."""
    if seed % 2:
        text, horizon = random_nonground_program(seed)
    else:
        text, horizon = str(random_ground_program(seed)), None
    path = tmp_path / f"random_{seed}.ndlp"
    path.write_text(text, encoding="utf-8")
    return str(path), horizon, parse_program(text).is_positive()


@pytest.mark.parametrize("name", CORPUS_NAMES)
@pytest.mark.parametrize("semantics", ["least", "stable", "wf"])
def test_corpus(name, semantics):
    path = str(corpus_path(name))
    if semantics == "least" and not parse_program(corpus_text(name)).is_positive():
        return  # exit 2, covered by test_cli
    check_tables(check_paths("expand", "--semantics", semantics, path), semantics)


@pytest.mark.parametrize("horizon", [1, 2, 3])
@pytest.mark.parametrize("max_models", [1, 3, 5])
def test_robot_capped(horizon, max_models):
    path = str(corpus_path("robot.ndlp"))
    check_paths("expand", "--horizon", str(horizon), "--max-models", str(max_models), path)


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_random_programs(tmp_path, seed):
    # each generator's programs alternate between the formats, which
    # keeps the file's time near 3 s
    path, horizon, positive = random_program_file(tmp_path, seed)
    h = [] if horizon is None else ["--horizon", str(horizon)]
    fmt = ("text", "json")[seed // 2 % 2]
    for semantics in ("least", "stable", "wf") if positive else ("stable", "wf"):
        gp = check_paths("expand", *h, "--semantics", semantics, path, run=solve,
                         formats=(fmt,))
        check_tables(gp, semantics)
