"""The command line's loader against the library's `ground(parse_program(...))`.

`cli._load` builds the ground program of a text the statement reader takes
whole straight from the name reader's ids, or grounds it from the flat
reader's set-atom patterns, and spells its `Rule`s only when they are read;
any other text goes through the token parser and `ground`. On random
programs, one file and two, and on the planning and closure shapes, both
routes must give the same ground program, the same spelled rules with their
origins and sharing, the same answer to the least-model check and the same
errors.
"""

import random
from collections import Counter
from operator import attrgetter

import pytest

from ndlp import GroundingError, ParseError, ProgramError, ground, grounder
from ndlp.cli import _load, _read, main
from ndlp.corpus import corpus_path
from ndlp.parser import _Parser, parse_files
from ndlp.syntax import Atom, Literal, NdAtom, Rule

import test_syntax
from programs import (chain_edges, closure_text, graph_edges, robot_variant, robot_variants,
                      programs)

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
    """Whether the statement reader's name reader takes the one file whole."""
    return _Parser(_read(paths[0])).read()


def patterned(paths):
    """Whether its flat reader takes the one file whole, and hands the
    grounder set-atom patterns, some with variables."""
    parser = _Parser(_read(paths[0]))
    parser.read()
    try:
        return parser.flat() is not None
    except ProgramError:  # an arity or safety fault, raised as `parse` raises it
        return True


@pytest.mark.parametrize("seed", range(4))
def test_loader_agrees_with_the_library(seed, tmp_path):
    rng = random.Random(500 + seed)
    names = flat = 0
    for case in range(80):
        paths = written(tmp_path, [PROGRAMS.program(rng, faults=case % 4 == 0)])
        names += taken(paths)
        flat += patterned(paths)
        for horizon in (None, 2, -1) if case % 5 == 0 else (None,):
            assert loaded(paths, horizon) == library(paths, horizon), (_read(paths[0]), horizon)
    # each of the loader's routes runs on a share of the programs
    assert 10 <= names <= 70, names
    assert 5 <= flat <= 40, flat


def shapes():
    """The planning and closure shapes: the 24 robot variants, and closure
    chains and random graphs."""
    rng = random.Random(7)
    return ([robot_variant(*shape) for shape in robot_variants()]
            + [closure_text(chain_edges(n), f"_c{n}") for n in (1, 5, 13)]
            + [closure_text(graph_edges(rng, n, n // 4)) for n in (4, 12, 18)])


@pytest.mark.parametrize("text", shapes(), ids=lambda text: f"{len(text)} chars")
def test_loader_agrees_with_the_library_on_planning_and_closure(text, tmp_path):
    paths = written(tmp_path, [text])
    assert patterned(paths)
    for horizon in (None, 0, 2, -1):
        assert loaded(paths, horizon) == library(paths, horizon), horizon


# the three grounding errors of the pattern route, each after a line of
# its own, so that their origins tell the rules apart
GROUNDING_ERRORS = [
    ("{a}.\n{q(b)}.\n{exec(close, T)}.\n", None,
     "time variable T needs a horizon; pass --horizon or add #horizon (line 3)"),
    ("{a}.\n{p(X)} :- {q(X)}.\n", None,
     "variable X has no constants to range over (line 2)"),
    ("{a}.\n" + programs()["sum.ndlp"], 10**9,
     "more than MAX_GROUND_INSTANCES = 1000 ground instances (line 2)"),
]


@pytest.mark.parametrize("text,horizon,message", GROUNDING_ERRORS)
def test_grounding_errors_agree_with_the_library(text, horizon, message, tmp_path, monkeypatch):
    monkeypatch.setattr(grounder, "MAX_GROUND_INSTANCES", 1000)
    paths = written(tmp_path, [text])
    assert patterned(paths)
    assert loaded(paths, horizon) == library(paths, horizon) \
        == (GroundingError, message, None, None, None)


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


def test_planning_and_closure_build_no_syntax_value(tmp_path, monkeypatch, capsys):
    """The flat reader hands the grounder set-atom patterns, so `expand` of
    the planning example and least `solve` of a closure chain build no
    `Atom`, `NdAtom`, `Literal` or `Rule`; spelling the ground rules builds
    each once per ground atom, ground set-atom and ground rule."""
    for argv, paths in ((["expand"], [str(corpus_path("robot.ndlp"))]),
                        (["solve", "--semantics", "least"],
                         written(tmp_path, [closure_text(chain_edges(13))]))):
        _, gp = _load(paths, None)
        want = {"Atom": len(gp.table.texts), "NdAtom": gp.n,
                "Literal": sum(len(rule.body) for rule in gp.rules), "Rule": len(gp.rules)}
        with monkeypatch.context() as patched:
            built = counted(patched)
            assert main([*argv, *paths]) == 0
            assert not built
            capsys.readouterr()
            assert main([*argv, "--dump-ground", *paths]) == 0
            assert built == want
        assert capsys.readouterr().out.startswith(str(gp))


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
