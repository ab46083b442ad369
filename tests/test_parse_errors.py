"""Every error the parser raises, pinned: exception type, message, line and
column.

The values were recorded from the parser as it stood before its tokens lost
their stored line and column. Each program's error is also raised by the
command line's loader (`cli._load`), whose statement reader reads the texts
it takes, with no library call behind it. The table covers each `raise` in
`ndlp.parser` and the order in which faults win when a program has several:
every `ParseError`, the horizon's resolution included, comes before the
load checks, and an arity clash anywhere comes before an unsafe rule.
"""

import pytest

from ndlp import ParseError, ProgramError, parse_program, parse_rule
from ndlp.cli import _load

DEEP_HEAD = "{p(" + "f(" * 101 + "a" + ")" * 101 + ")}."
DEEP_BODY = "{a}.\n{q(" + "g(" * 100 + "b" + ")" * 100 + ")} :- {" + "h(" * 102 + "c" + ")" * 102 + "}."

# (text, parsed as, exception, message, line, column)
PINNED = [
    ('#frobnicate 1.', 'program', ParseError, 'unknown directive #frobnicate', 1, 1),
    ('{a}.\n  #hor 2.', 'program', ParseError, 'unknown directive #hor', 2, 3),
    ('{_a}.', 'program', ParseError, "unexpected character '_'", 1, 2),
    ('{-X}.', 'program', ParseError, "unexpected character '-'", 1, 2),
    ('{p(①)}.', 'program', ParseError, "unexpected character '①'", 1, 4),
    ('{a}.\n{b} :- {c} $ {d}.', 'program', ParseError, "unexpected character '$'", 2, 12),
    ('-ⓐb.', 'program', ParseError, "expected '.', found 'ⓐb'", 1, 2),
    ('{a} :- .', 'program', ParseError, "expected atom, found '.'", 1, 8),
    ('{a} :-\n  {b}, .', 'program', ParseError, "expected atom, found '.'", 2, 8),
    ('{a} :-\n{b} {c}.', 'program', ParseError, "expected '.', found '{'", 2, 5),
    ('{a}', 'program', ParseError, "expected '.'", 1, 4),
    ('{a} :- {b} % no dot', 'program', ParseError, "expected '.'", 1, 12),
    ('{a}.\n{b} :- {c}\n% trailing\n', 'program', ParseError, "expected '.'", 4, 1),
    ('{a, b.', 'program', ParseError, "expected '}', found '.'", 1, 6),
    ('{a, b :- {c}.', 'program', ParseError, "expected '}', found ':-'", 1, 7),
    ('{p(a, b}.', 'program', ParseError, "expected ')', found '}'", 1, 8),
    ('{p(a b)}.', 'program', ParseError, "expected ')', found 'b'", 1, 6),
    ('{}.', 'program', ParseError, "expected atom, found '}'", 1, 2),
    ('{a} :- not .', 'program', ParseError, "expected atom, found '.'", 1, 12),
    ('{p(a, )}.', 'program', ParseError, "expected term, found ')'", 1, 7),
    ('{p(X+Y)}.', 'program', ParseError, "expected integer offset, found 'Y'", 1, 6),
    ('{p(X+)} :- {q(X)}.', 'program', ParseError, "expected integer offset, found ')'", 1, 6),
    ('{p(f(a)+1)}.', 'program', ParseError, "expected ')', found '+'", 1, 8),
    ('{p(a+1)}.', 'program', ParseError, 'arithmetic base must be a variable or integer', 1, 5),
    ('{a} :- {X}.', 'program', ParseError, "expected comparison operator, found '}'", 1, 10),
    ('{a} :- {X < Y}.', 'program', ParseError, "unexpected character '<'", 1, 11),
    ('{a} :- {1 + 2}.', 'program', ParseError, "expected comparison operator, found '}'", 1, 14),
    ('\t{a} :-\u3000.', 'program', ParseError, "expected atom, found '.'", 1, 9),
    ('{a}.\r\n{b} :- .', 'program', ParseError, "expected atom, found '.'", 2, 8),
    ('% c }\n{a, % }\n b} :- {c} {d}.', 'program', ParseError, "expected '.', found '{'", 3, 12),
    ('{C == C} :- {p(C)}.', 'program', ParseError, 'comparison atom not allowed in rule head', 1, 1),
    ('{a, X != Y} :- {p(X, Y)}.', 'program', ParseError, 'comparison atom must be the only member of its NdAtom', 1, 1),
    ('{a} :- {b, C != C2}.', 'program', ParseError, 'comparison atom must be the only member of its NdAtom', 1, 8),
    ('{a} :- {p(C, D)}, not {C != D}.', 'program', ParseError, 'comparison atom cannot be negated; use the complementary operator', 1, 19),
    ('{a} :- {p(C, D)},\n  not {C == D}.', 'program', ParseError, 'comparison atom cannot be negated; use the complementary operator', 2, 3),
    (DEEP_HEAD, 'program', ParseError, 'term nested deeper than 100 function symbols', 1, 204),
    (DEEP_BODY, 'program', ParseError, 'term nested deeper than 100 function symbols', 2, 514),
    ('#horizon .', 'program', ParseError, 'expected horizon value', 1, 10),
    ('#horizon X.', 'program', ParseError, 'expected horizon value', 1, 10),
    ('#horizon 2.\n{a}.\n#horizon 3.', 'program', ParseError, 'duplicate #horizon directive', 3, 1),
    ('#horizon 2 {a}.', 'program', ParseError, "expected '.', found '{'", 1, 12),
    ('#horizon h.\n{a}.', 'program', ParseError, "horizon 'h' is not a defined integer constant", 1, 10),
    ('#const h = c.\n#horizon h.', 'program', ParseError, "horizon 'h' is not a defined integer constant", 2, 10),
    ('#horizon -1.', 'program', ParseError, 'horizon must be non-negative', 1, 10),
    ('#const h = -2.\n#horizon h.', 'program', ParseError, 'horizon must be non-negative', 2, 10),
    ('#const 1 = 2.', 'program', ParseError, "expected constant name, found '1'", 1, 8),
    ('#const n 2.', 'program', ParseError, "expected '=', found '2'", 1, 10),
    ('#const n = X.', 'program', ParseError, 'expected constant value', 1, 12),
    ('#const n = 2\n{a}.', 'program', ParseError, "expected '.', found '{'", 2, 1),
    ('{p(a)}. {p(a, b)}.', 'program', ProgramError, "predicate 'p' used with arity 2 and 1 (line 1)", None, None),
    ('{p(a, b), p(a)}.', 'program', ProgramError, "predicate 'p' used with arity 2 and 1 (line 1)", None, None),
    ('{q} :- {p(a)}.\n{r} :- not {p}.', 'program', ProgramError, "predicate 'p' used with arity 0 and 1 (line 2)", None, None),
    ('#const n = 2.\n{p(n)}.\n{p(n, n)}.', 'program', ProgramError, "predicate 'p' used with arity 2 and 1 (line 3)", None, None),
    ('{a} :- {b(X)}.\n{c} :- {d}.\n{d(e)}.', 'program', ProgramError, "predicate 'd' used with arity 1 and 0 (line 3)", None, None),
    ('{p(X)} :- {q(a)}.', 'program', ProgramError, 'unsafe variable X in rule (line 1)', None, None),
    ('{a} :- not {q(X)}.', 'program', ProgramError, 'unsafe variable X in rule (line 1)', None, None),
    ('{p(Y, X)} :- {q(a)}.', 'program', ProgramError, 'unsafe variable X in rule (line 1)', None, None),
    ('{p(T, X)} :- {q(a)}.', 'program', ProgramError, 'unsafe variable X in rule (line 1)', None, None),
    ('{a} :- {q(X)}, not {r(X, Y)}, not {s(Z)}.', 'program', ProgramError, 'unsafe variable Y in rule (line 1)', None, None),
    ('{x} :- {y}.\n\n{p(X)} :- {q(a)}.\n{r(X)} :- {q(a)}.', 'program', ProgramError, 'unsafe variable X in rule (line 3)', None, None),
    ('{p(a)}.\n{p(a, b)}.\n{q} :- .', 'program', ParseError, "expected atom, found '.'", 3, 8),
    ('{p(X)} :- {q(a)}.\n{r(a)}.\n{r(a, b)}.', 'program', ProgramError, "predicate 'r' used with arity 2 and 1 (line 3)", None, None),
    ('{p(X)} :- {q(a)}.\n#horizon h.', 'program', ParseError, "horizon 'h' is not a defined integer constant", 2, 10),
    ('{p(a)}. {p(a, b)}.\n#horizon -1.', 'program', ParseError, 'horizon must be non-negative', 2, 10),
    ('{p(a)}. {p(a, b)}.\n#frobnicate.', 'program', ParseError, 'unknown directive #frobnicate', 2, 1),
    ('{p(X)} :- {q(a)}.\n{a} :- {b} {c}.', 'program', ParseError, "expected '.', found '{'", 2, 12),
    ('{p(a, b)} :- {p(a)}, {p}.', 'program', ProgramError, "predicate 'p' used with arity 1 and 2 (line 1)", None, None),
    ('{a}. {a(b)} :- {p(X)}, not {a(Y)}.', 'program', ProgramError, "predicate 'a' used with arity 1 and 0 (line 1)", None, None),
    ('{a} :-\n  {p(X)}, not {q(Y)}.', 'program', ProgramError, 'unsafe variable Y in rule (line 1)', None, None),
    ('{p(a)} :- {p(a)}, {p(a, b)}.', 'program', ProgramError, "predicate 'p' used with arity 2 and 1 (line 1)", None, None),
    ('{p(a)}.\n{q} :- {p(a, b)}.\n{r} :- {p(a, b)}.', 'program', ProgramError, "predicate 'p' used with arity 2 and 1 (line 2)", None, None),
    ('{p(X)} :- {q(X)}.\n{p(X)} :- {q(a)}.', 'program', ProgramError, 'unsafe variable X in rule (line 2)', None, None),
    ('#horizon h.\n{a} :- .', 'program', ParseError, "expected atom, found '.'", 2, 8),
    ('{a}\n\n   ', 'program', ParseError, "expected '.'", 3, 4),
    ('{r(m)}.\n{r(m, m)}.\n#const m = 7.', 'program', ProgramError, "predicate 'r' used with arity 2 and 1 (line 2)", None, None),
    ('{a}. {b}.', 'rule', ParseError, 'expected exactly one rule, found 2', None, None),
    ('', 'rule', ParseError, 'expected exactly one rule, found 0', None, None),
    ('{a} :-', 'program', ParseError, "expected atom, found ''", 1, 7),
    ('{p(', 'program', ParseError, "expected term, found ''", 1, 4),
    ('{p(a', 'program', ParseError, "expected ')'", 1, 5),
    ('#const', 'program', ParseError, 'expected constant name', 1, 7),
    ('#horizon', 'program', ParseError, 'expected horizon value', 1, 9),
    ('{a} :- {X', 'program', ParseError, "expected comparison operator, found ''", 1, 10),
    ('{p(X+', 'program', ParseError, 'expected integer offset', 1, 6),
    ('{a} :- {X !=', 'program', ParseError, "expected term, found ''", 1, 13),
    ('{a} :- not', 'program', ParseError, "expected atom, found ''", 1, 11),
    ('#const n =', 'program', ParseError, 'expected constant value', 1, 11),
    ('{a, ', 'program', ParseError, "expected atom, found ''", 1, 5),
    ('{a, b, X == Y} :- {p(X, Y)}.', 'program', ParseError, 'comparison atom must be the only member of its NdAtom', 1, 1),
    ('{a} :- {X == Y, X != Y}.', 'program', ParseError, 'comparison atom must be the only member of its NdAtom', 1, 8),
    ('#horizon 1.\n#horizon h.', 'program', ParseError, 'duplicate #horizon directive', 2, 1),
    ('{p(-a, -1, 2+3, X+0)} :- {q(X)}.\n{p(X)} :- {q(X)}.', 'program', ProgramError, "predicate 'p' used with arity 1 and 4 (line 2)", None, None),
    ('{p(X)} :-\n{q(X)}.\n{r} :- not {p(Y)}, {s}.', 'program', ProgramError, 'unsafe variable Y in rule (line 3)', None, None),
    ('{a}.\n{p(f(X), g(Y))} :- {q(f(X))}.', 'program', ProgramError, 'unsafe variable Y in rule (line 2)', None, None),
    # texts the statement reader refuses after braced rules it could take: a
    # fault in a later statement, a clash with an atom the token parser read,
    # load faults in earlier rules against later faults, and a second
    # #horizon (recorded from the token parser alone)
    ('{p(a)}.\n{q(X)} :- {p(X)},\n  {r(X, }.', 'program', ParseError, "expected term, found '}'", 3, 9),
    ('{p(X)} :- {q(X)}.\n{q(a)}.\n{r} :- {p(f(a), b)}.', 'program', ProgramError, "predicate 'p' used with arity 2 and 1 (line 3)", None, None),
    ('{p(X)} :- {q(a)}.\n{r(f(b))} :- .', 'program', ParseError, "expected atom, found '.'", 2, 14),
    ('{p(X)} :- {q(a)}.\n{q(f(a), b)}.', 'program', ProgramError, "predicate 'q' used with arity 2 and 1 (line 2)", None, None),
    ('{p(a)} :- {q(a)}.\n{q(a, b)}.\n{r(X)} :- {s(f(a))}.', 'program', ProgramError, "predicate 'q' used with arity 2 and 1 (line 2)", None, None),
    ('{p(X)} :- {q(X)}, {X != Y}.\n{s} :- {t(f(a)), X == Y}.', 'program', ParseError, 'comparison atom must be the only member of its NdAtom', 2, 8),
    ('{a}.\n{q(X)} :- {p(X)}.\n{C == C}.', 'program', ParseError, 'comparison atom not allowed in rule head', 3, 1),
    ('#horizon 2.\n{p(T)} :- {q(T)}.\n#horizon 3.', 'program', ParseError, 'duplicate #horizon directive', 3, 1),
]


@pytest.mark.parametrize("text, how, kind, message, line, column", PINNED)
def test_error_is_unchanged(text, how, kind, message, line, column, tmp_path):
    """The library raises each error; the command line's loader raises each
    program's error too, from whichever reader takes its file."""
    with pytest.raises(kind) as caught:
        (parse_rule if how == "rule" else parse_program)(text)
    err = caught.value
    assert type(err) is kind
    assert (err.message, err.line, err.column) == (message, line, column)
    assert str(err) == (message if line is None else f"{line}:{column}: {message}")
    if how == "program":
        path = tmp_path / "program.ndlp"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(kind) as caught:
            _load([str(path)], None)
        err = caught.value
        assert type(err) is kind
        assert (err.message, err.line, err.column) == (message, line, column)
