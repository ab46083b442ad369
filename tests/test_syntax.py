"""Canonical forms, stored hashes and text, the tokenizer, the parser and its
three readers, and the printer round trip."""

import os
import pickle
import random
import subprocess
import sys
from collections import Counter
from dataclasses import FrozenInstanceError, fields
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import ndlp
from ndlp import ParseError, ProgramError, canonicalize, parse_program, parse_rule
from ndlp.corpus import CORPUS_NAMES, corpus_path, corpus_text
import ndlp.parser as parser_module
from ndlp.parser import _Parser, _keys, parse_files, tokenize
from ndlp.syntax import (
    Atom,
    Compound,
    Constant,
    Integer,
    Literal,
    NdAtom,
    Rule,
    Sum,
    Variable,
    program_to_str,
)

from oracles import scan_characters
from programs import chain_edges, closure_text, robot_variant, robot_variants


def atom(pred, *args):
    return Atom(pred=pred, args=tuple(args))


class TestCanonicalize:
    def test_sort_and_dedupe(self):
        a1, a2 = atom("a1"), atom("a2")
        nd = canonicalize([a2, a1, a1])
        assert nd.atoms == (a1, a2)

    def test_singleton_identity(self):
        b = atom("b")
        assert canonicalize([b]).atoms == (b,)

    def test_deterministic_order_and_idempotence(self):
        pos = atom("holds", Constant("locked"), Integer(1))
        neg = atom("holds", Constant("-locked"), Integer(1))
        nd = canonicalize([pos, neg])
        # '-locked' sorts before 'locked'; re-canonicalizing changes nothing
        assert nd.atoms == (neg, pos)
        assert canonicalize(nd.atoms) == nd

    def test_empty_rejected(self):
        with pytest.raises(ProgramError):
            canonicalize([])

    def test_constructors_refuse_what_canonicalize_never_builds(self):
        with pytest.raises(ProgramError, match="empty non-deterministic atom"):
            NdAtom(())
        with pytest.raises(ProgramError, match="non-canonical atom sequence"):
            NdAtom((atom("b"), atom("a")))
        with pytest.raises(ProgramError, match="non-canonical atom sequence"):
            NdAtom((atom("a"), atom("a")))
        with pytest.raises(ProgramError, match="empty predicate name"):
            Atom("")

    def test_integers_sort_before_symbols(self):
        with_int = atom("p", Integer(3))
        with_sym = atom("p", Constant("a"))
        assert canonicalize([with_sym, with_int]).atoms == (with_int, with_sym)


names = st.sampled_from(["a", "b", "c", "p", "q", "holds", "-p"])
small_terms = st.one_of(
    st.integers(-5, 5).map(Integer),
    st.sampled_from(["x", "y", "-z"]).map(Constant),
)
atoms = st.builds(
    lambda p, args: Atom(pred=p, args=tuple(args)),
    names,
    st.lists(small_terms, max_size=2),
)


class TestCanonicalizeProperties:
    @given(st.lists(atoms, min_size=1, max_size=6))
    def test_idempotent(self, atom_list):
        once = canonicalize(atom_list)
        assert canonicalize(once.atoms) == once

    @given(st.lists(atoms, min_size=1, max_size=6))
    def test_order_insensitive(self, atom_list):
        assert canonicalize(atom_list) == canonicalize(list(reversed(atom_list)))


def rebuild(term):
    """An equal term built from scratch, sharing no value object."""
    if isinstance(term, Compound):
        return Compound(term.name, tuple(rebuild(a) for a in term.args))
    if isinstance(term, Integer):
        return Integer(term.value)
    return Constant(term.name)


class TestStoredValues:
    @given(atoms)
    def test_equal_values_built_apart_agree(self, value):
        twin = Atom(value.pred, tuple(rebuild(a) for a in value.args))
        assert twin == value and twin is not value
        assert (hash(twin), twin.key, str(twin)) == (hash(value), value.key, str(value))
        nd, nd_twin = canonicalize([value]), canonicalize([twin])
        assert (hash(nd_twin), nd_twin.key, str(nd_twin)) == (hash(nd), nd.key, str(nd))

    @given(atoms)
    def test_fields_stay_frozen(self, value):
        nd = canonicalize([value])
        literal = Literal(nd, True)
        every = [
            Constant("a"), Integer(1), Variable("X"), Compound("f", (Constant("a"),)),
            Sum(Variable("T"), 1), value, nd, literal, Rule(nd, (literal,), "line 1"),
        ]
        for made in every:
            for f in fields(made):
                kept = getattr(made, f.name)
                with pytest.raises(FrozenInstanceError):
                    setattr(made, f.name, kept)
                with pytest.raises(FrozenInstanceError):
                    delattr(made, f.name)
                assert getattr(made, f.name) is kept

    def test_keyword_construction_equals_positional(self):
        args = (Compound("f", (Integer(1),)), Sum(Variable("T"), 2))
        built = Atom(pred="p", args=args)
        assert built == Atom("p", args) and str(built) == "p(f(1), T+2)"
        assert hash(built) == hash(Atom("p", args)) and built.key == Atom("p", args).key
        # each stored hash is the hash of the value's parts
        assert hash(built) == hash(("p", args)) and hash(Constant("a")) == hash((1, "a"))
        nd = NdAtom(atoms=(built,))
        assert hash(nd) == hash((built,))
        body = (Literal(atom=nd, negated=True),)
        rule = Rule(head=nd, body=body, origin="line 3")
        assert rule == Rule(nd, body, "line 3") and rule.origin == "line 3"
        assert Rule(head=nd) == Rule(nd, ()) and Rule(nd).origin is None
        assert Literal(atom=nd) == Literal(nd, False)
        assert (Constant(name="a"), Integer(value=2), Variable(name="X")) == (
            Constant("a"), Integer(2), Variable("X"))
        assert Compound(name="f", args=args) == Compound("f", args)
        assert Sum(base=Variable("T"), offset=1) == Sum(Variable("T"), 1)

    def test_rule_equality_and_hash_ignore_origin(self):
        first, second = parse_rule("{a} :- {b}, not {c}."), parse_rule("\n\n{a} :- {b}, not {c}.")
        assert (first.origin, second.origin) == ("line 1", "line 3")
        assert first == second and hash(first) == hash(second)
        assert len({first, second}) == 1

    def test_hash_and_text_are_not_recomputed(self, monkeypatch):
        term = Constant("a")
        for _ in range(100):
            term = Compound("f", (term,))
        deep = Atom("p", (term,))
        str(deep)
        calls = Counter()
        for method in ("__hash__", "__str__"):
            def counted(self, original=getattr(Compound, method), method=method):
                calls[method] += 1
                return original(self)
            monkeypatch.setattr(Compound, method, counted)
        hash(deep)
        hash(canonicalize([deep]))
        str(deep)
        assert calls == Counter()

    def test_pickled_set_is_found_under_another_hash_seed(self):
        text = ("#horizon 2.\n{p(f(a, 1), -b), q} :- {r(T)}, not {s(T+1)}.\n"
                "{r(g(h(c)))} :- {q}, {1 != 2}, not {p(f(a, 1), -b), q}, {t(-3)}.\n")
        program = parse_program(text)
        every = frozenset([*program.rules, *values(program.rules).values()])
        stored = pickle.dumps((program, every))
        check = (
            "import pickle, sys\n"
            "from ndlp import parse_program\n"
            "def parts(value):\n"
            "    yield value\n"
            "    for name in ('head', 'body', 'atom', 'atoms', 'args', 'base'):\n"
            "        part = getattr(value, name, ())\n"
            "        for item in part if isinstance(part, tuple) else (part,):\n"
            "            yield from parts(item)\n"
            "loaded, stored = pickle.loads(sys.stdin.buffer.read())\n"
            f"fresh = parse_program({text!r})\n"
            "assert loaded == fresh, 'program differs'\n"
            "found = {v for rule in loaded.rules for v in parts(rule)}\n"
            "for rule in fresh.rules:\n"
            "    assert all(v in found and v in stored for v in parts(rule)), 'fresh value not found'\n"
        )
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        src = str(Path(ndlp.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", check], input=stored, env=env,
                              capture_output=True, timeout=60)
        assert done.returncode == 0, done.stderr.decode()


class TestParser:
    def test_singleton_rule(self):
        rule = parse_rule("{a} :- {b}.")
        assert str(rule.head) == "{a}"
        assert [str(l) for l in rule.body] == ["{b}"]

    def test_two_atom_fact(self):
        rule = parse_rule("{soup(beef), salad(salmon)}.")
        assert rule.is_fact()
        assert len(rule.head) == 2

    def test_empty_body_is_syntax_error(self):
        with pytest.raises(ParseError):
            parse_program("{a} :- .")

    def test_bare_atom_is_singleton_sugar(self):
        assert parse_rule("a :- b.") == parse_rule("{a} :- {b}.")

    def test_set_equality_order_insensitive(self):
        assert parse_rule("{a, b}.").head == parse_rule("{b, a}.").head

    def test_negation_and_comments(self):
        program = parse_program("% pick one\n{a} :- not {b}. % trailing\n")
        assert program.rules[0].body[0].negated

    def test_classical_negation_prefix_names(self):
        rule = parse_rule("{holds(-locked, 0)}.")
        assert rule.head.atoms[0].args[0] == Constant("-locked")

    def test_arithmetic_sum(self):
        rule = parse_rule("{p(T+1)} :- {q(T)}.")
        assert str(rule.head) == "{p(T+1)}"

    def test_integer_sum_folds(self):
        rule = parse_rule("{p(1+2)}.")
        assert rule.head.atoms[0].args[0] == Integer(3)

    def test_compound_terms(self):
        rule = parse_rule("{p(f(a, 1))}.")
        assert rule.head.atoms[0].args[0] == Compound("f", (Constant("a"), Integer(1)))

    def test_comparison_atom(self):
        rule = parse_rule("{p(C)} :- {q(C, C2)}, {C != C2}.")
        assert rule.body[1].atom.atoms[0].pred == "!="

    def test_comparison_must_be_singleton(self):
        with pytest.raises(ParseError):
            parse_program("{a} :- {b, C != C2}.")

    def test_comparison_not_in_head(self):
        with pytest.raises(ParseError):
            parse_program("{C == C} :- {p(C)}.")

    def test_comparison_not_negated(self):
        with pytest.raises(ParseError):
            parse_program("{a} :- {p(C, D)}, not {C != D}.")

    def test_syntax_error_carries_location(self):
        with pytest.raises(ParseError) as err:
            parse_program("{a} :-\n{b} {c}.")
        assert err.value.line == 2

    @pytest.mark.parametrize("text, column", [("{p(\u2460)}.", 4), ("#horizon \u00b22.", 10)])
    def test_non_decimal_digit_is_an_unexpected_character(self, text, column):
        # str.isdigit accepts these, int() does not
        with pytest.raises(ParseError) as err:
            parse_program("{a}.\n" + text)
        assert "unexpected character" in str(err.value)
        assert (err.value.line, err.value.column) == (2, column)

    def test_arity_clash(self):
        with pytest.raises(ProgramError):
            parse_program("{p(a)}. {p(a, b)}.")

    def test_unsafe_head_variable(self):
        with pytest.raises(ProgramError):
            parse_program("{p(X)} :- {q(a)}.")

    def test_unsafe_negative_variable(self):
        with pytest.raises(ProgramError):
            parse_program("{a} :- not {q(X)}.")

    def test_time_variables_are_safe_unbound(self):
        program = parse_program("{exec(close, T)}.")
        assert len(program.rules) == 1

    def test_horizon_directive(self):
        assert parse_program("#horizon 3.\n{a}.").horizon == 3

    def test_const_substitution(self):
        program = parse_program("#const n = 2.\n{p(n)}.")
        assert program.rules[0].head.atoms[0].args[0] == Integer(2)

    def test_const_feeds_horizon(self):
        assert parse_program("#const h = 4.\n#horizon h.\n{a}.").horizon == 4

    def test_unknown_directive(self):
        with pytest.raises(ParseError):
            parse_program("#frobnicate 1.")


def located(text):
    """`tokenize(text)` as (kind, value, line, column) per token, the line and
    column counted from the text before the token's offset."""
    tokens = []
    for kind, value, start in tokenize(text):
        lines = text[:start].split("\n")
        tokens.append((kind, value, len(lines), len(lines[-1]) + 1))
    return tokens


def lex(tokenizer, text):
    """The token list, or the (message, line, column) of the parse error."""
    try:
        return tokenizer(text)
    except ParseError as err:
        return (err.message, err.line, err.column)


class TestTokenizer:
    # Pieces of random input. Common: every token class and its edge cases,
    # and the Unicode whitespace and letters where str methods and regular
    # expressions might part ways. Rare, since each ends the token stream:
    # stray ASCII punctuation, non-decimal digits, uncased letters, and
    # cased characters that are not alphanumeric (circled letters, the
    # combining ypogegrammeni).
    COMMON = [
        "#horizon", "#const", "not", "nota", "-", ":-", "!=", "==", "{", "}", "(",
        ")", ",", ".", "+", "=", "%", "a", "b1", "X", "T0", "0", "42", " ", "\n",
        "\r", "\t", "\x0b", "\x0c", "\x85", "\xa0", "\u2028", "\u3000",
        "\u0660", "\u00aa", "\u0130", "\u00df",
    ]
    RARE = list("!\"#$&'*/:;<>?@[\\]^_`|~") + [
        "\u2460", "\u00b2", "\u4e2d", "\u01c5", "\u24d0", "\u24b6", "\u0345",
    ]
    WEIGHTS = [8] * len(COMMON) + [1] * len(RARE)
    MALFORMED = [
        "{p(\u2460)}.", "#horizon \u00b22.", "{\u4e2d}.", "{-X}.", "{_a}.",
        "#foo.", "{a} % no dot", "{a}.\n% trailing", "-\u24d0b", "\u24d0b(X).",
    ]

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_character_scanner_on_random_text(self, seed):
        rng = random.Random(seed)
        for _ in range(1000):
            pieces = rng.choices(self.COMMON + self.RARE, self.WEIGHTS, k=rng.randrange(16))
            text = "".join(pieces)
            assert lex(located, text) == lex(scan_characters, text), repr(text)

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_matches_character_scanner_on_corpus(self, name):
        text = corpus_text(name)
        tokens = located(text)
        assert tokens == scan_characters(text)
        assert tokens[-1][0] == "EOF"

    @pytest.mark.parametrize("text", MALFORMED)
    def test_matches_character_scanner_on_malformed_input(self, text):
        assert lex(located, text) == lex(scan_characters, text)

    def test_input_ending_in_a_comment_ends_at_the_comment(self):
        assert tokenize("{a}.\n  % done")[-1] == ("EOF", "", 7)
        assert located("{a}.\n  % done")[-1] == ("EOF", "", 2, 3)


def values(rules):
    """Every literal, NdAtom, atom and term the rules hold, by id."""
    found = {}

    def walk(value):
        found[id(value)] = value
        for part in getattr(value, "args", ()):
            walk(part)
        if isinstance(value, Sum):
            walk(value.base)

    for rule in rules:
        found.update((id(lit), lit) for lit in rule.body)
        for nd in [rule.head, *(lit.atom for lit in rule.body)]:
            found[id(nd)] = nd
            for atom in nd:
                walk(atom)
    return found


class TestSharing:
    """Within one parse, equal texts of a term, atom or NdAtom come back as
    one object; two parses share none."""

    TEXT = (
        "{p(f(a), X+1)} :- {q(X)}, not {r}.\n"
        "{s} :- {q(X)}, {p(f(a), X+1), r}, not {r}.\n"
        "r :- {q(X)}, r, {t(f(a))}.\n"
    )

    def test_equal_texts_are_one_object(self):
        first, second, third = parse_program(self.TEXT).rules
        assert first.body[0].atom is second.body[0].atom is third.body[0].atom
        assert first.body[1].atom is second.body[2].atom
        p_atom = first.head.atoms[0]
        assert p_atom is second.body[1].atom.atoms[0]
        assert p_atom.args[0] is third.body[2].atom.atoms[0].args[0]
        assert third.head is third.body[1].atom
        assert third.head.atoms[0] is first.body[1].atom.atoms[0]

    def test_two_parses_share_nothing(self):
        first, second = parse_program(self.TEXT).rules, parse_program(self.TEXT).rules
        assert first == second
        assert not values(first).keys() & values(second).keys()

    def test_constants_keep_the_sharing(self):
        text = "#const n = 2.\n{p(f(n))} :- {q(n)}.\n{r} :- {q(n)}, {p(f(n))}.\n"
        first, second = parse_program(text).rules
        assert first.body[0].atom is second.body[0].atom
        assert first.head is second.body[1].atom
        assert str(first.head) == "{p(f(2))}"

    def test_set_atoms_repeat_past_comments(self):
        first, second = parse_program("{a, % }\n b}.\n{c} :- {a, % }\n b}.\n").rules
        assert first.head is second.body[0].atom
        assert str(first.head) == "{a, b}"


class TestParseFiles:
    def test_origins_name_the_file_and_its_line(self):
        program = parse_files([("a.ndlp", "{a}.\n{b}."), ("b.ndlp", "% c\n\n{c} :- {a}.\n")])
        assert [r.origin for r in program.rules] == ["a.ndlp line 1", "a.ndlp line 2",
                                                     "b.ndlp line 3"]

    def test_error_names_the_file(self):
        with pytest.raises(ParseError) as caught:
            parse_files([("a.ndlp", "{a}.\n"), ("b.ndlp", "{b}.\n{c} :- .\n")])
        err = caught.value
        assert (err.path, err.line, err.column) == ("b.ndlp", 2, 8)
        assert str(err) == "b.ndlp:2:8: expected atom, found '.'"


def sharing(rules):
    """The rules with each literal, NdAtom, atom and term replaced by the
    index of its object in order of first appearance: equal for two parses
    exactly when both share objects in the same places."""
    seen = {}
    return [seen.setdefault(id(value), len(seen)) for value in walk_rules(rules)]


def walk_rules(rules):
    stack = []
    for rule in reversed(rules):
        stack += [rule.head, *rule.body][::-1]
    while stack:
        value = stack.pop()
        yield value
        if isinstance(value, Literal):
            stack.append(value.atom)
        elif isinstance(value, NdAtom):
            stack += value.atoms[::-1]
        elif isinstance(value, Sum):
            stack.append(value.base)
        else:
            stack += getattr(value, "args", ())[::-1]


def outcome(parse, *args):
    """What a parse gives: its rules, their origins and sharing, and the
    horizon, or the type, message and place of its error."""
    try:
        program = parse(*args)
    except (ParseError, ProgramError) as err:
        return type(err), err.message, err.line, err.column, err.path
    rules = program.rules
    return rules, [r.origin for r in rules], sharing(rules), program.horizon


class TestStatementReader:
    """`parse_program` and `parse_files` against the token parser alone, on
    random programs: mostly braced rules, which the statement reader takes,
    over names or flat atoms (arguments, sums, comparisons, a leading
    `#horizon`), with CRLF line ends, comments between statements and inside
    set-atoms, bare atoms, directives, compound terms, variables, names the
    word builder must refuse, and every kind of fault, which the token
    parser reports."""

    NAMES = ["a", "b", "c2", "-a", "-b_1", "nota", "x_y", "\u00e9t\u00e9", "\u00aa", "p"]
    # flat atoms, which the flat reader takes, and atoms with compound terms,
    # for which it refuses the text
    ATOMS = ["p(a)", "p(X)", "q(X, 1)", "q(a, b)", "r(T, T+1)", "s(-1, n)", "q(X+1, -b)",
             "q( Y ,X + -2 )", "r(T0, 007)", "-p(Y)", "s(X,\nn)", "nota(\u00aa)"]
    COMPOUNDS = ["-r(f(a), Y+1)", "p(f(X))", "q(g(a, 1), b)"]
    COMPARISONS = ["{X != Y}", "{ X == a }", "{T+1 != X}", "{1 == Y}"]
    # no name: an upper-case or non-letter first letter, the keyword, a lone
    # sign, a term, a sum, a token fault, a term nested too deep
    FAULTS = ["A", "Ab", "-B", "not", "_a", "1", "-", "-1", "1+2", "a b", "a$", "\u24d0",
              "p(a+1)", "p(X+Y)", "X != Y", "p(" + "f(" * 101 + "a" + ")" * 102, "p(not)",
              "p(1a)", "p(-X)", "P(a)", "p(a,)", "p()", "X < Y"]
    # also a rule split across lines (around "not", which `statement` may
    # follow with a line end)
    SPACES = ["", " ", " ", "  ", "\n", "\r\n", "\t", "\n  "]
    # also comments right after the ".", holding a rule, ":-" or a whole
    # rule, and one that ends the text without a line end
    BETWEEN = ["\n", "\n", "\r\n", " ", "", "\n\n", "\n% note {a} :- .\n", "  % x\r\n",
               " % {x} :- .\n", "  % :- {x}\n", "\n% {a} :- not {b}.\n", "\n% last"]

    def member(self, rng, faults):
        roll = rng.random()
        if roll < 0.8:
            return rng.choice(self.NAMES)
        if roll < 0.93:
            return rng.choice(self.ATOMS)
        if roll < 0.96 or not faults:
            return rng.choice(self.COMPOUNDS)
        return rng.choice(self.FAULTS)

    def set_atom(self, rng, faults):
        members = [self.member(rng, faults) for _ in range(rng.choice((1, 1, 1, 2, 3)))]
        if len(members) == 1 and rng.random() < 0.05:
            return members[0]  # a bare atom
        space = rng.choice(self.SPACES)
        text = f",{space}".join(members)
        if faults and len(members) > 1 and rng.random() < 0.05:
            text = text.replace(",", ", % in a set-atom\n", 1)
        return "{" + rng.choice(self.SPACES) + text + rng.choice(self.SPACES) + "}"

    def statement(self, rng, pool, faults):
        roll = rng.random()
        if roll < 0.02:
            return rng.choice(["#const n = 2.", "#horizon 1.", "#const m = b."])
        if faults and roll < 0.05:
            return rng.choice(["{a} :- .", "{a}", "{a} :- {b} {c}.", "{a} $.", "{}.", ":- {a}.",
                               "#horizon k.", "#horizon -1.", "#horizon 1. #horizon 2.",
                               "#frob 1.", "{a, b.", "{p(a}.", "{a} :- not {X != Y}.",
                               "{X == a}.", "{a} :- {b, X != Y}.", "{p(X)} :- {X != a}."])
        space = rng.choice(self.SPACES)
        head = rng.choice(pool)
        body = [rng.choice(["not ", "not ", "not", "not\n"]) * (rng.random() < 0.5)
                + rng.choice(pool) for _ in range(rng.choice((0, 1, 1, 1, 2, 3)))]
        if rng.random() < 0.05:
            body.append(rng.choice(self.COMPARISONS))
        if not body:
            return head + space + "."
        return head + space + f":-{rng.choice(self.SPACES)}" + f",{space}".join(body) + "."

    def program(self, rng, faults):
        pool = [self.set_atom(rng, faults) for _ in range(rng.randrange(1, 6))]
        pieces = [rng.choice(self.BETWEEN) * (rng.random() < 0.3)]
        if rng.random() < 0.1:
            pieces.append(rng.choice(["#horizon 2.", "#horizon\t03 .", "#horizon 1.%h\n"]))
            pieces.append(rng.choice(self.BETWEEN))
        for _ in range(rng.randrange(1, 7)):
            pieces += [self.statement(rng, pool, faults), rng.choice(self.BETWEEN)]
        return "".join(pieces)

    @staticmethod
    def token_parser(monkeypatch, parse, *args):
        with monkeypatch.context() as patched:
            patched.setattr(_Parser, "read", lambda self: False)
            return outcome(parse, *args)

    @pytest.mark.parametrize("seed", range(8))
    def test_readers_agree(self, seed, monkeypatch):
        rng = random.Random(seed)
        names = flat = 0  # the programs each of the statement reader's readers takes whole
        for case in range(150):
            text = self.program(rng, faults=case % 3 == 0)
            want = self.token_parser(monkeypatch, parse_program, text)
            assert outcome(parse_program, text) == want, repr(text)
            parser = _Parser(text)
            names += parser.read()
            flat += parser.flat_texts is not None
        # each reader reads a share of the programs
        assert 30 <= names <= 120, names
        assert 10 <= flat <= 60, flat

    @pytest.mark.parametrize("seed", range(2))
    def test_readers_agree_on_two_files(self, seed, monkeypatch):
        rng = random.Random(100 + seed)
        for case in range(60):
            files = [(f"f{i}.ndlp", self.program(rng, faults=case % 4 == 0)) for i in range(2)]
            want = self.token_parser(monkeypatch, parse_files, files)
            assert outcome(parse_files, files) == want, repr(files)

    def test_equal_texts_are_one_object(self):
        text = "{a, b} :- not {c}.\n{c} :- not {a, b}, {b, -d}, {-d}.\r\n{-d} :- {b, -d}.\n"
        assert _Parser(text).read()
        first, second, third = parse_program(text).rules
        assert first.head is second.body[0].atom
        assert first.body[0].atom is second.head
        assert second.body[1].atom is third.body[0].atom
        assert second.body[2].atom is third.head
        assert first.head.atoms[1] is second.body[1].atom.atoms[1]
        assert [r.origin for r in (first, second, third)] == ["line 1", "line 2", "line 3"]

    def test_planning_and_closure_shapes_are_read_whole(self, monkeypatch):
        """The planning example, its 24 variants and closure chains are
        flat: the statement reader takes each whole, and the token parser
        scans none of them."""
        scans = []
        monkeypatch.setattr(_Parser, "scan", lambda self: scans.append(self.text))
        texts = [corpus_text("robot.ndlp"), *(robot_variant(*shape) for shape in robot_variants()),
                 closure_text(chain_edges(13)), closure_text(chain_edges(30), "_t")]
        for text in texts:
            parser = _Parser(text)
            assert not parser.read() and parser.flat_texts is not None
            assert list(parser.parse().rules) == parser.rules != []
        assert scans == []

    def test_reader_gives_up_at_the_first_text_it_cannot_build(self, monkeypatch):
        """The reader checks all distinct texts for names in one pass and,
        when that pass fails, splits them all into members once; it gives
        up at the first text it cannot build. A program it takes whole is
        never scanned, and the token parser scans any other once."""
        checked, split, scans = [], [], []
        word_check, scan, member = _keys, _Parser.scan, parser_module._MEMBER

        class Member:
            def split(self, text):
                split.append(text)
                return member.split(text)

        monkeypatch.setattr(parser_module, "_keys",
                            lambda texts: checked.append(list(texts)) or word_check(texts))
        monkeypatch.setattr(parser_module, "_MEMBER", Member())
        monkeypatch.setattr(_Parser, "scan", lambda self: scans.append(1) or scan(self))
        loops = "".join(f"{{a{i}}} :- not {{b{i}}}.\n{{b{i}}} :- not {{a{i}}}.\n"
                        for i in range(500))
        with pytest.raises(ProgramError, match=r"unsafe variable X in rule \(line 1\)"):
            parse_program("{s(X)} :- not {t(X)}.\n" + loops)
        assert (len(checked), len(split), scans) == (1, 1, [])
        checked.clear()
        split.clear()
        more = loops.replace("{a", "{c").replace("{b", "{d")
        with pytest.raises(ParseError, match="expected comparison operator"):
            parse_program(loops + "{s, Two} :- not {t}.\n" + more)
        assert [len(texts) for texts in checked] == [2002] and len(scans) == 1
        assert len(split) == 1 and split[0].count("}") == 2001
        parser = _Parser(loops + "{s, Two} :- not {t}.\n")
        assert not parser.read() and parser.flat_texts is None and not parser.keys

    def test_reader_splits_nothing_before_a_first_statement_it_cannot_take(self, monkeypatch):
        """A first statement other than a braced rule over flat atoms, or
        one whose first set-atom holds more than their characters, is
        refused before the reader splits any of the text, after comments and
        a `#horizon` or not; a text it takes whole it splits once."""
        split, pieces = [], parser_module._pieces
        monkeypatch.setattr(parser_module, "_pieces",
                            lambda text: split.append(len(text)) or pieces(text))
        facts = "".join(f"{{edge(n{i}, n{i + 1})}}.\n" for i in range(20_000))
        for text in ("edge(a, b).\n" + facts, "% edges\n#const n = 1.\n" + facts,
                     "#horizon 2.\n#horizon 3.\n" + facts, "{edge(a, % b\n b)}.\n" + facts):
            assert not _Parser(text).read()
        assert split == []
        parser = _Parser("% edges\n#horizon 2.\n" + facts)
        assert not parser.read() and parser.flat_texts is not None
        assert split == [len(facts)] and parser.shape.count(".") == 20_000
        assert outcome(parse_program, facts)[1][:2] == ["line 1", "line 2"]
        for text in ("{a}.\n(b).", "{a}. % (\n{b}.", "{a}.\n{b} :- {c(f(X))}."):
            assert outcome(parse_program, text) == self.token_parser(monkeypatch, parse_program, text)

    def refused(self, monkeypatch, parse, *args):
        """What `parse` gives on a text the statement reader refuses, and,
        per scan, its tokens and the set-atoms, arities and rules the token
        parser then starts from; `spell` or `syntax` running fails the test."""
        scans, scan = [], _Parser.scan
        with monkeypatch.context() as patched:
            patched.setattr(_Parser, "scan", lambda self: scans.append(
                (scan(self), dict(self.set_atoms), dict(self.arities), list(self.rules)))
                or scans[-1][0])
            for name in ("spell", "syntax"):
                patched.setattr(_Parser, name, lambda self, name=name: pytest.fail(f"{name} ran"))
            return outcome(parse, *args), scans

    LOOPS = "".join(f"{{a{i}}} :- not {{b{i}}}.\n{{b{i}}} :- not {{a{i}}}.\n" for i in range(250))
    REFUSED = {
        # a compound term in the first rule, before rules over names
        "first": ("{s(f(X))} :- not {t(X)}.\n" + LOOPS,
                  (ProgramError, "unsafe variable X in rule (line 1)")),
        # a bare atom between rules over names, at an arity those gave its name
        "middle": (LOOPS + "a7(x).\n" + LOOPS.replace("{a", "{c"),
                   (ProgramError, "predicate 'a7' used with arity 1 and 0 (line 501)")),
        "last-over-names": (LOOPS + "s(X) :- not t(X).\n",
                            (ProgramError, "unsafe variable X in rule (line 501)")),
        "last-over-flat-atoms": (LOOPS.replace("}", "(1)}") + "{s(f(X))} :- not {t(X)}.\n",
                                 (ProgramError, "unsafe variable X in rule (line 501)")),
        # texts the flat reader would take, but for a comparison in a head, a
        # comparison under "not", a gap after a member and a gap between braces
        "comparison-head": (LOOPS + "{X == a} :- {p(X)}.\n",
                            (ParseError, "comparison atom not allowed in rule head")),
        "comparison-first-head": ("{X == a} :- {p(X)}.\n{p(a)}.\n",
                                  (ParseError, "comparison atom not allowed in rule head")),
        "negated-comparison": ("{p(1)}.\n{q(X)} :- {p(X)}, not {X != 1}.\n",
                               (ParseError, "comparison atom cannot be negated; "
                                            "use the complementary operator")),
        "trailing-gap": ("{p(a)}.\n{q(X)} :- {p(X), q x}.\n",
                         (ParseError, "expected '}', found 'x'")),
        "gap": ("{p(a)}. % a\n{{q(b)}.\n", (ParseError, "expected atom, found '{'")),
    }

    @pytest.mark.parametrize("where", REFUSED)
    def test_a_refused_text_is_read_whole_by_the_token_parser(self, where, monkeypatch):
        """Wherever the statement reader refuses a text, the token parser
        scans it once from its start, with no set-atom, arity or rule of the
        reader's, and gives the program or error it gives alone."""
        text, (kind, message) = self.REFUSED[where]
        parser = _Parser(text)
        assert not parser.read() and parser.flat_texts is None
        got, [(tokens, set_atoms, arities, rules)] = self.refused(monkeypatch, parse_program, text)
        assert got == self.token_parser(monkeypatch, parse_program, text)
        assert got[:2] == (kind, message)
        assert tokens == _Parser(text).scan()
        assert (set_atoms, arities, rules) == ({}, {}, [])

    def test_a_text_refused_in_its_second_file_is_read_whole(self, monkeypatch):
        loops = "{a} :- not {b}.\n{b} :- not {a}.\n"
        files = [("a.ndlp", loops), ("b.ndlp", "{c} :- {a}.\n% note\nd :- not {c}.\n{e(1)}.\n")]
        got, scans = self.refused(monkeypatch, parse_files, files)
        assert got == self.token_parser(monkeypatch, parse_files, files)
        assert got[1] == ["a.ndlp line 1", "a.ndlp line 2", "b.ndlp line 1", "b.ndlp line 3",
                          "b.ndlp line 4"]
        [(tokens, set_atoms, arities, rules)] = scans
        assert tokens[1][:4] == ["{", "a", "}", ":-"] and (set_atoms, arities, rules) == ({}, {}, [])
        files[1] = ("b.ndlp", "{c} :- {a}.\n{d} :- {c}, p(.\n")
        got, scans = self.refused(monkeypatch, parse_files, files)
        assert got == self.token_parser(monkeypatch, parse_files, files)
        assert got == (ParseError, "expected term, found '.'", 2, 15, "b.ndlp")
        assert len(scans) == 1 and scans[0][0][2][0] == 0


class TestRoundTrip:
    CASES = [
        "{a} :- {b}, not {c}.\n",
        "{soup(beef), salad(salmon)}.\n",
        "#horizon 2.\n{occ(C, T)} :- {action(C)}, not {abocc(C, T)}.\n",
        "{p(T+1)} :- {q(T)}, {r(f(a), -1)}.\n",
        "{abocc(C, T)} :- {occ(C2, T)}, {C != C2}.\n",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_parse_print_parse_is_fixpoint(self, text):
        program = parse_program(text)
        printed = program_to_str(program)
        assert parse_program(printed) == program
        assert program_to_str(parse_program(printed)) == printed

    def test_str_is_the_printed_program(self):
        program = parse_program("#horizon 2.\n{b, a} :- not {c}.\n{d}.")
        assert str(program) == program_to_str(program) == "#horizon 2.\n{a, b} :- not {c}.\n{d}.\n"

    def test_corpus_round_trips(self):
        for name in CORPUS_NAMES:
            program = parse_program(corpus_text(name))
            assert parse_program(program_to_str(program)) == program


def test_missing_corpus_name_is_refused():
    with pytest.raises(FileNotFoundError, match="no example program named 'missing.ndlp'"):
        corpus_path("missing.ndlp")
