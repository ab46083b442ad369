"""The command line's loader against the library's `ground(parse_program(...))`.

`cli._load` builds the ground program of a text the statement reader takes
whole straight from the reader's ids, and spells its `Rule`s only when they
are read; any other text goes through the token parser and `ground`. On
random programs, one file and two, both routes must give the same ground
program, the same spelled rules with their origins and sharing, the same
answer to the least-model check and the same errors.
"""

import random
from collections import Counter
from operator import attrgetter

import pytest

from ndlp import GroundingError, ParseError, ProgramError, ground
from ndlp.cli import _load, _read, main
from ndlp.parser import _Parser, parse_files
from ndlp.syntax import Atom, Literal, NdAtom, Rule

import test_syntax

PROGRAMS = test_syntax.TestStatementReader()


def written(directory, texts):
    """The paths of the texts, each written to its own file as bytes."""
    paths = []
    for i, text in enumerate(texts):
        path = directory / f"f{i}.ndlp"
        path.write_bytes(text.encode("utf-8"))
        paths.append(str(path))
    return paths


def error(err):
    return type(err), err.message, err.line, err.column, err.path


def view(gp):
    """Everything a ground program holds, its rules spelled with their
    origins and sharing."""
    rules = gp.rules
    return (gp.heads, gp.pos, gp.neg, list(gp.table.texts), list(gp.table.members), str(gp),
            rules, [rule.origin for rule in rules], test_syntax.sharing(rules))


def loaded(paths, horizon):
    """What the loader gives for the files, or its error."""
    try:
        positive, gp = _load(paths, horizon)
    except (ParseError, ProgramError, GroundingError) as err:
        return error(err)
    check_ids(gp)
    return view(gp), positive


def library(paths, horizon):
    """What the library gives for the same files, or its error."""
    try:
        program = parse_files([(path, _read(path)) for path in paths])
        return view(ground(program, horizon=horizon)), program.is_positive()
    except (ParseError, ProgramError, GroundingError) as err:
        return error(err)


def check_ids(gp):
    """The base is distinct and in key order, and each rule's ids are those
    of its spelled NdAtoms in that base, once each."""
    base = gp.base
    assert list(base) == sorted(set(base), key=attrgetter("key"))
    index = {nd: i for i, nd in enumerate(base)}
    for rule, head, pos, neg in zip(gp.rules, gp.heads, gp.pos, gp.neg):
        assert head == index[rule.head]
        assert pos == tuple(dict.fromkeys(map(index.__getitem__, rule.positive_body())))
        assert neg == tuple(dict.fromkeys(map(index.__getitem__, rule.negative_body())))


def taken(paths):
    """Whether the statement reader takes the one file whole."""
    return _Parser(_read(paths[0])).read()


@pytest.mark.parametrize("seed", range(4))
def test_loader_agrees_with_the_library(seed, tmp_path):
    rng = random.Random(500 + seed)
    reads = 0
    for case in range(80):
        paths = written(tmp_path, [PROGRAMS.program(rng, faults=case % 4 == 0)])
        reads += taken(paths)
        for horizon in (None, 2, -1) if case % 5 == 0 else (None,):
            assert loaded(paths, horizon) == library(paths, horizon), (_read(paths[0]), horizon)
    # both routes run on a share of the programs
    assert 10 <= reads <= 70, reads


@pytest.mark.parametrize("seed", range(2))
def test_loader_agrees_with_the_library_on_two_files(seed, tmp_path):
    rng = random.Random(600 + seed)
    for case in range(50):
        paths = written(tmp_path, [PROGRAMS.program(rng, faults=case % 5 == 0) for _ in range(2)])
        assert loaded(paths, None) == library(paths, None), list(map(_read, paths))


LOOPS = "".join(f"{{a{i}}} :- not {{b{i}}}. {{b{i}}} :- not {{a{i}}}.\n" for i in range(140))


def counted(monkeypatch) -> Counter:
    """Calls of the `Atom`, `NdAtom`, `Literal` and `Rule` constructors."""
    built = Counter()
    for cls in (Atom, NdAtom, Literal, Rule):
        def count(self, *args, init=cls.__init__, name=cls.__name__, **kwargs):
            built[name] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", count)
    return built


def test_solve_of_braced_loops_builds_no_syntax_value(tmp_path, monkeypatch, capsys):
    paths = written(tmp_path, [LOOPS])
    built = counted(monkeypatch)
    assert main(["solve", "--max-models", "1", *paths]) == 0
    assert not built
    capsys.readouterr()
    # spelling the rules builds each atom, set-atom, literal and rule once
    assert main(["solve", "--max-models", "1", "--dump-ground", *paths]) == 0
    assert built == {"Atom": 280, "NdAtom": 280, "Literal": 280, "Rule": 280}
    out = capsys.readouterr().out
    assert out.startswith("{a0} :- not {b0}.\n{b0} :- not {a0}.\n{a1} :- not {b1}.\n")


def test_equal_set_atoms_written_apart_are_one_atom(tmp_path):
    text = "{a, b} :- not {c}.\n{b, a} :- {a, a}, {b}, {b}.\n{a}.\n{c} :- not {b, a}, not {a, b}.\n"
    paths = written(tmp_path, [text])
    assert taken(paths)
    positive, gp = _load(paths, None)
    assert not positive
    assert [str(nd) for nd in gp.base] == ["{a}", "{a, b}", "{b}", "{c}"]
    assert (gp.heads, gp.pos, gp.neg) == ([1, 1, 0, 3], [(), (0, 2), (), ()], [(3,), (), (), (1,)])
    first, second, _, fourth = gp.rules
    assert first.head is fourth.body[1].atom and second.head is fourth.body[0].atom
    assert second.head is not first.head
    assert [rule.origin for rule in gp.rules] == ["line 1", "line 2", "line 3", "line 4"]
