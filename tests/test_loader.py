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

import json
import random
import weakref
from collections import Counter
from functools import partial
from operator import attrgetter

import pytest

from ndlp import GroundingError, ParseError, ProgramError, cli, ground, grounder
from ndlp.cli import _load, _read, main
from ndlp.corpus import corpus_path, corpus_text
from ndlp.parser import _Parser, parse_files
from ndlp.syntax import Atom, Literal, NdAtom, Rule

import test_syntax
from programs import (chain_edges, closure_text, graph_edges, loops, neg_chain, robot_variant,
                      robot_variants, programs)

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
    grounder set-atom patterns, with variables or without."""
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


# facts and rules without variables, some with a comparison that holds and
# one with a comparison that fails
COMPARED = ("{p(1)}.\n{p(2)}.\n{q(1)} :- {p(1)}, {1 != 2}.\n{q(2)} :- {p(2)}, {2 == 1}.\n"
            "{r} :- {q(1)}.\n")


# texts the flat reader takes that hold no variable: comparisons that hold
# and fail, an arity fault, a `#horizon`, and the teaching example
WITHOUT_VARIABLES = [COMPARED, "{p(1)}.\n{p(1, 2)}.\n{q} :- {p(1)}, {1 != 2}.\n",
                     "#horizon 1.\n{a} :- {1 == 1}, not {b}.\n{b} :- {2 != 2}.\n",
                     corpus_text("teaching.ndlp")]


@pytest.mark.parametrize("text", shapes() + WITHOUT_VARIABLES,
                         ids=lambda text: f"{len(text)} chars")
def test_loader_agrees_with_the_library_on_planning_and_closure(text, tmp_path):
    paths = written(tmp_path, [text])
    assert patterned(paths)
    for horizon in (None, 0, 2, -1):
        assert loaded(paths, horizon) == library(paths, horizon), horizon


# the name route's shapes: braced loops, one atom per set-atom, whose atoms'
# ranks are their places in the base, and the braced negation chain of
# two-member set-atoms, which sorts the set-atoms; their bare forms go
# through the token parser and `make_ground_program`'s table of NdAtoms
NAME_SHAPES = [(text(n), braced) for braced, text in
               ((True, loops), (True, partial(loops, one_line=True)),
                (False, partial(loops, bare=True)), (True, neg_chain),
                (False, partial(neg_chain, bare=True)))
               for n in (1, 12, 140)]


@pytest.mark.parametrize("text,braced", NAME_SHAPES, ids=lambda x: f"{str(x)[:24]!r}")
def test_loader_agrees_with_the_library_on_loops_and_negation_chains(text, braced, tmp_path):
    paths = written(tmp_path, [text])
    assert taken(paths) == braced
    for horizon in (None, 2, -1):
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
    """`solve` of braced loops builds no `Atom`, `NdAtom`, `Literal` or
    `Rule`, and neither does `--dump-ground`, which writes the rules from
    the atom table."""
    paths = written(tmp_path, [LOOPS])
    built = counted(monkeypatch)
    assert main(["solve", "--max-models", "1", *paths]) == 0
    capsys.readouterr()
    assert main(["solve", "--max-models", "1", "--dump-ground", *paths]) == 0
    assert not built
    out = capsys.readouterr().out
    assert out.startswith("{a0} :- not {b0}.\n{b0} :- not {a0}.\n{a1} :- not {b1}.\n")


def test_planning_and_closure_build_no_syntax_value(tmp_path, monkeypatch, capsys):
    """The flat reader hands the grounder set-atom patterns, with variables
    or without, so `expand` of the planning example and of the teaching
    example, and least `solve` of a closure chain and of facts with
    comparisons, build no `Atom`, `NdAtom`, `Literal` or `Rule`, with
    `--dump-ground` or without: the ground rules are written from the atom
    table."""
    closure, compared = ([path] for path in written(
        tmp_path, [closure_text(chain_edges(13)), COMPARED]))
    assert patterned(compared) and patterned([str(corpus_path("teaching.ndlp"))])
    for argv, paths in ((["expand"], [str(corpus_path("robot.ndlp"))]),
                        (["expand"], [str(corpus_path("teaching.ndlp"))]),
                        (["solve", "--semantics", "least"], closure),
                        (["solve", "--semantics", "least"], compared)):
        _, gp = _load(paths, None)
        want = "".join(f"{rule}\n" for rule in gp.rules)
        with monkeypatch.context() as patched:
            built = counted(patched)
            assert main([*argv, *paths]) == 0
            capsys.readouterr()
            assert main([*argv, "--dump-ground", *paths]) == 0
            assert not built
        assert capsys.readouterr().out.startswith(want)


def test_name_route_holds_no_reader(tmp_path, monkeypatch):
    """The ground program of braced rules over names holds its rules as
    written through the text, the files, the offset after the lead and the
    shape alone: the statement reader, with its keys, ids, int lists and
    pieces, is freed once `_load` returns, and the rules read after it keep
    their signs and origins, which name the files."""
    readers = []

    def kept(files, read=cli.reader):
        parser = read(files)
        readers.append(weakref.ref(parser))
        return parser

    monkeypatch.setattr(cli, "reader", kept)
    paths = written(tmp_path, ["#horizon 2.\n% loops\n" + LOOPS[:LOOPS.index("{a4}")],
                                "{c} :- {a0}, not {b1}.\n"])
    assert all(taken([path]) for path in paths)
    positive, gp = _load(paths, None)
    assert len(readers) == 1 and readers[0]() is None
    assert (view(gp), positive) == library(paths, None)
    assert gp.rules[-1].origin == f"{paths[1]} line 1"


# well-founded programs whose false and undefined set-atoms have two and
# three members: one over names, which the name reader takes, and one over
# flat atoms with variables, which the grounder takes as set-atom patterns
WIDE_WF = ("{p, q} :- not {r, s}.\n{r, s} :- not {p, q}.\n"
           "{t, u, v} :- not {w, x}.\n{w, x}.\n{a, b, c} :- not {d, e, f}.\n{d, e, f} :- not {a, b, c}.\n")
WIDE_WF_PATTERNS = ("{e(n1)}.\n{e(n2)}.\n{p(X), q(X)} :- {e(X)}, not {r(X), s(X)}.\n"
                    "{r(X), s(X)} :- {e(X)}, not {p(X), q(X)}.\n"
                    "{t(X), u(X), v(X)} :- {e(X)}, not {w(X), x(X)}.\n{w(X), x(X)} :- {e(X)}.\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_json_and_wide_wf_reports_build_no_syntax_value(tmp_path, monkeypatch, capsys, fmt):
    """The writer reads member texts off the atom table in both formats, so
    `solve` of braced loops, `expand` of the planning example, least
    `solve` of a closure chain and `solve --semantics wf` and `expand
    --semantics wf` of programs with wide false and undefined set-atoms build
    no `Atom`, `NdAtom`, `Literal` or `Rule`."""
    loops_path, closure, names, flat = ([path] for path in written(
        tmp_path, [LOOPS, closure_text(chain_edges(13)), WIDE_WF, WIDE_WF_PATTERNS]))
    assert taken(loops_path) and taken(names) and patterned(flat) and not taken(flat)
    for argv, paths in ((["solve", "--max-models", "1"], loops_path),
                        (["expand"], [str(corpus_path("robot.ndlp"))]),
                        (["solve", "--semantics", "least"], closure),
                        (["solve", "--semantics", "wf"], names),
                        (["expand", "--semantics", "wf"], names),
                        (["solve", "--semantics", "wf"], flat),
                        (["expand", "--semantics", "wf"], flat)):
        with monkeypatch.context() as patched:
            built = counted(patched)
            assert main([*argv, "--format", fmt, *paths]) == 0
            assert not built, argv
        out = capsys.readouterr().out
        if argv[-1] == "wf":
            # the wide set-atoms are written: false with three members,
            # undefined with two, and neither the other way
            if fmt == "text":
                assert "\n  not {t" in out and "\n  undefined:\n" in out and "\n    {p" in out, argv
            else:
                negatives, undefined = (json.loads(out)[key] for key in ("negatives", "undefined"))
                assert [len(nd) for nd in negatives] == [3] * len(negatives) != [], argv
                assert undefined and all(len(nd) in (2, 3) for nd in undefined), argv


def test_equal_set_atoms_written_apart_are_one_atom(tmp_path):
    text = "{a, b} :- not {c}.\n{b, a} :- {a, a}, {b}, {b}.\n{a}.\n{c} :- not {b, a}, not {a, b}.\n"
    paths = written(tmp_path, [text])
    assert taken(paths)
    positive, gp = _load(paths, None)
    assert not positive
    assert [str(nd) for nd in gp.base] == ["{a}", "{a, b}", "{b}", "{c}"]
    assert (gp.heads, gp.pos, gp.neg) == ([1, 1, 0, 3], [(), (0, 2), (), ()], [(3,), (), (), (1,)])
    first, second, _, fourth = gp.rules
    # the rules are spelled over the base: one object per NdAtom
    assert first.head is second.head is fourth.body[0].atom is fourth.body[1].atom
    assert [str(rule) for rule in gp.rules] == [
        "{a, b} :- not {c}.", "{a, b} :- {a}, {b}, {b}.", "{a}.", "{c} :- not {a, b}, not {a, b}."]
    assert [rule.origin for rule in gp.rules] == ["line 1", "line 2", "line 3", "line 4"]
