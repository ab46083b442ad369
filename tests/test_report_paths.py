"""The command line's int path against the library's object path.

`cli._solve` keeps each model as index tuples into the ground program,
fills the report's NdAtom lists by indexing the program's base and expands
over the program's one atom table. The library returns NdAtom sets, which
a caller sorts, and `expand` builds a table of each model's own. The
benchmark's tracer renders its report from the library path and requires
the same stdout, so the two must agree byte for byte, as text and as JSON.

`SolveReport.write` renders the command line's expansions from their int
masks and the tracer's lists of `AnswerSet`s through one adapter, in
chunks of `CHUNK_ROWS` masks; both inputs must give `to_text`, `to_json`
and the oracle's bytes, also across chunk boundaries.
"""

from __future__ import annotations

import dataclasses
import io
import weakref
from contextlib import redirect_stderr, redirect_stdout

import pytest

from ndlp.answersets import Expansion, expand, expand_ids
from ndlp import cli
from ndlp.cli import SolveReport, _load, _solve, build_parser, main
from ndlp.corpus import CORPUS_NAMES, corpus_path, corpus_text
from ndlp.parser import parse_program
from ndlp.positive import least_model
from ndlp.stable import enumerate_stable
from ndlp.syntax import sort_nd_atoms
from ndlp.wf import well_founded_model

from conftest import random_ground_program, random_nonground_program
from oracles import report_json, written_once

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
    if semantics == "stable":
        result = enumerate_stable(gp)
        pairs = [(model, ids, ()) for model, ids in zip(result.models, result.ids)]
    elif semantics == "wf":
        true, false = gp.well_founded()
        pairs = [(well_founded_model(gp), gp.ids(true), gp.ids(false))]
    else:
        pairs = [(least_model(gp), gp.ids(gp.least()), ())]
    for model, pos, neg in pairs:
        for cap, minimal in ((None, False), (3, False), (None, True)):
            by_model = expand(model, cap=cap, subset_minimal=minimal)
            by_program = expand_ids(gp.table, pos, neg, cap=cap, subset_minimal=minimal)
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


def rendered_reports(monkeypatch, argv) -> list[tuple[SolveReport, str, str]]:
    """Each report `_solve` writes for `argv`, with its format and the bytes
    written."""
    reports = []
    write = SolveReport.write

    def recorded(report, stream, fmt="text"):
        out = written_once(write, report, fmt)
        reports.append((report, fmt, out))
        stream.write(out)

    monkeypatch.setattr(SolveReport, "write", recorded)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        solve(argv)
    monkeypatch.setattr(SolveReport, "write", write)
    return reports


def check_writer(report: SolveReport, fmt: str, out: str) -> None:
    """The report written from its expansions' masks and from its answer sets
    as lists of `AnswerSet`s, as the tracer passes them, gives `out`, which
    equals `to_text` or `to_json`, and as JSON the oracle's bytes."""
    as_lists = dataclasses.replace(
        report, answer_sets=report.answer_sets and [list(sets) for sets in report.answer_sets])
    for r in (report, as_lists):
        stream = io.StringIO()
        r.write(stream, fmt)
        assert stream.getvalue() == out
        assert (r.to_json() if fmt == "json" else r.to_text()) == out
        if fmt == "json":
            assert out == report_json(r)


@pytest.mark.parametrize("seed", range(0, 200, 5))
def test_writer_on_random_programs(monkeypatch, tmp_path, seed):
    # half the seeds, of both generators, write in chunks of 3 rows, so
    # most of their expansions cross a chunk boundary
    if seed // 10 % 2:
        monkeypatch.setattr(cli, "CHUNK_ROWS", 3)
    path, horizon, positive = random_program_file(tmp_path, seed)
    h = [] if horizon is None else ["--horizon", str(horizon)]
    for semantics in ("least", "stable", "wf") if positive else ("stable", "wf"):
        for flags in ((), ("--max-answer-sets", "3"), ("--subset-minimal",),
                      ("--subset-minimal", "--max-answer-sets", "2")):
            for fmt in ("text", "json"):
                argv = ["expand", *h, *flags, "--semantics", semantics, "--format", fmt, path]
                [(report, written, out)] = rendered_reports(monkeypatch, argv)
                # written from each expansion's masks, none decoded into rows
                assert written == fmt and all(
                    isinstance(sets, Expansion) and "rows" not in vars(sets)
                    for sets in report.answer_sets), argv
                check_writer(report, fmt, out)


# several stable models that share set-atoms of one, two and three members,
# and a well-founded model whose false and undefined set-atoms are wide
SHARED_MODELS = ("{s, t}.\n{h}.\n{a, b} :- not {c}.\n{c} :- not {a, b}.\n"
                 "{d, e, f} :- not {g}.\n{g} :- not {d, e, f}.\n{k, m} :- {a, b}.\n{k, m} :- {g}.\n")
WIDE_WF = ("{s, t}.\n{p, q} :- not {r, s}.\n{r, s} :- not {p, q}.\n{t, u, v} :- not {s, t}.\n"
           "{a, b, c} :- not {d, e, f}.\n{d, e, f} :- not {a, b, c}.\n{g} :- not {h}.\n{h} :- not {g}.\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("text,semantics", [(SHARED_MODELS, "stable"), (WIDE_WF, "wf")],
                         ids=["shared-models", "wide-wf"])
def test_shared_and_wide_set_atoms(monkeypatch, tmp_path, text, semantics, fmt):
    # the command line's report of ids over the program's table, the object
    # path's of NdAtoms and the whole-payload oracle agree byte for byte
    path = tmp_path / "program.ndlp"
    path.write_text(text, encoding="utf-8")
    for command in ("solve", "expand"):
        argv = [command, "--semantics", semantics, "--format", fmt, str(path)]
        [(report, _, out)] = rendered_reports(monkeypatch, argv)
        check_writer(report, fmt, out)
        args = PARSER.parse_args(argv)
        library = object_report(args, _load(args.files, None)[1])
        if fmt == "json":
            assert out == report_json(library), argv  # the oracle of the NdAtoms themselves
        assert out == (library.to_json() if fmt == "json" else library.to_text()), argv
        if semantics == "stable":
            models = [set(model) for model in report.models]
            assert len(models) == 4 and set.intersection(*models) and len(set.union(*models)) > 4
        else:
            sizes = [len(report.table.members[i]) for i in report.negatives]
            assert sizes == [3] and {len(report.table.members[i]) for i in report.undefined} == {
                1, 2, 3}


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_models_are_expanded_as_the_report_is_written(monkeypatch, fmt):
    # each model is expanded when the writer reaches its answer sets, after
    # the answer sets before it were written and dropped; the truncation
    # line follows the report
    out, err = io.StringIO(), io.StringIO()
    made = []  # a weak reference to each expansion, in the order made
    before = []  # per expansion, the report written before it
    expand_ids = cli.expand_ids

    def tracked(*args, **kwargs):
        assert all(ref() is None for ref in made)
        before.append(out.getvalue())
        expansion = expand_ids(*args, **kwargs)
        made.append(weakref.ref(expansion))
        return expansion

    monkeypatch.setattr(cli, "expand_ids", tracked)
    argv = ["expand", "--horizon", "1", "--max-answer-sets", "2", "--format", fmt,
            str(corpus_path("robot.ndlp"))]
    with redirect_stdout(out), redirect_stderr(err):
        assert solve(argv) == 0
    assert len(made) == 16
    assert all(a < b for a, b in zip(map(len, before), map(len, before[1:])))
    if fmt == "text":
        for k, written in enumerate(before, start=1):
            assert f"model {k}:\n" in written and f"model {k + 1}:\n" not in written
    else:
        assert before[0] == '{\n  "answer_sets": ' and '"models"' not in before[-1]
    assert err.getvalue().splitlines()[:-1] == [
        "answer-set expansion truncated by --max-answer-sets"]


class CountedWrites(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_rows_past_one_chunk(monkeypatch, tmp_path, fmt):
    # 12 true pairs, one of them supported through the negation of an
    # unfounded pair: 2^13 answer sets with a signed negative each, two
    # chunks of rows
    text = "".join(f"{{x{i:02d}, y{i:02d}}}.\n" for i in range(11))
    path = tmp_path / "pairs.ndlp"
    path.write_text(text + "{r, s} :- not {u, v}.\n", encoding="utf-8")
    argv = ["expand", "--semantics", "wf", "--format", fmt, str(path)]
    [(report, _, out)] = rendered_reports(monkeypatch, argv)
    [expansion] = report.answer_sets
    assert len(expansion) == 2 * cli.CHUNK_ROWS == 2 ** 13
    check_writer(report, fmt, out)
    args = PARSER.parse_args(argv)
    library = object_report(args, _load(args.files, None)[1])
    assert out == (library.to_json() if fmt == "json" else library.to_text())
    # a few writes per chunk, not one per row
    stream = CountedWrites()
    report.write(stream, fmt)
    assert stream.writes < 30
    sets = list(expansion)
    assert all(s.negatives for s in sets)
    if fmt == "text":
        for j in (cli.CHUNK_ROWS - 1, cli.CHUNK_ROWS, cli.CHUNK_ROWS + 1):
            assert f"\n  answer set 1.{j}: {sets[j - 1]}\n  answer set 1.{j + 1}: {sets[j]}\n" in out
