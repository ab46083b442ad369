"""Parser for the textual input language (`.ndlp` files).

Grammar, with `%` starting a line comment:

    program    := (directive | rule)*
    directive  := "#horizon" (INT | NAME) "." | "#const" NAME "=" value "."
    rule       := head (":-" body)? "."
    head       := ndatom
    body       := literal ("," literal)*
    literal    := "not"? ndatom
    ndatom     := "{" atom ("," atom)* "}" | atom        (bare atom = singleton)
    atom       := NAME ("(" term ("," term)* ")")?
                | term ("!=" | "==") term                 (built-in comparison)
    term       := INT | NAME | VARIABLE ("+" INT)? | INT "+" INT
                | NAME "(" term ("," term)* ")"

Tokens, as the one pattern `_TOKEN` reads them: an INT is a run of Unicode
decimal digits, optionally after a "-"; a word is a run of `str.isalnum`
characters and "_" whose first letter decides its class. A lowercase one
makes a NAME (or the keyword "not"), which may carry a leading "-" that
spells classical negation; an uppercase one makes a VARIABLE, those named
T, T0, T1, ... being time variables (see the grounder); any other is an
error. Comparisons must be the sole member of a positive body NdAtom.
Function symbols nest at most MAX_TERM_DEPTH levels deep.

Load-time checks beyond the grammar: consistent predicate arities, and rule
safety (every variable in the head or in a negated NdAtom must occur in a
positive body NdAtom or be a time variable).
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import ParseError, ProgramError
from .syntax import (
    Atom,
    Compound,
    Constant,
    Integer,
    Literal,
    NdAtom,
    Program,
    Rule,
    Sum,
    Term,
    Variable,
    canonicalize,
    is_time_variable,
)


# Deepest nesting of function symbols a term may have. Terms are walked
# recursively from parsing through grounding to printing, so deeper input is
# a parse error rather than a RecursionError further on.
MAX_TERM_DEPTH = 100


class Token(NamedTuple):
    kind: str
    value: str
    line: int
    column: int


_PUNCT = {
    ":-": "IF",
    "!=": "NEQ",
    "==": "EQEQ",
    "{": "LBRACE",
    "}": "RBRACE",
    "(": "LPAREN",
    ")": "RPAREN",
    ",": "COMMA",
    ".": "DOT",
    "+": "PLUS",
    "=": "EQUALS",
}

# One alternative per token class, tried in order. WORD takes any other
# character and the word characters after it; `tokenize` classifies it.
_TOKEN = re.compile(
    r"""
      (?P<NEWLINE> \n )
    | (?P<SPACE> [^\S\n]+ )
    | (?P<COMMENT> %[^\n]* )
    | (?P<PUNCT> :- | != | == | [{}(),.+=] )
    | (?P<DIRECTIVE> \#\w* )
    | (?P<INT> -?\d+ )
    | (?P<WORD> .\w* )
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    pos = end = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        kind, value, start = match.lastgroup, match.group(), pos
        column = start - line_start + 1
        pos = end = match.end()
        if kind == "NEWLINE":
            line, line_start = line + 1, pos
        elif kind == "COMMENT":
            end = start  # input ending in a comment ends where the comment starts
        elif kind == "PUNCT":
            tokens.append(Token(_PUNCT[value], value, line, column))
        elif kind == "DIRECTIVE" and value not in ("#horizon", "#const"):
            raise ParseError(f"unknown directive {value}", line, column)
        elif kind in ("DIRECTIVE", "INT"):
            tokens.append(Token(kind, value, line, column))
        elif kind == "WORD":
            # a "-" starts a name only when a lowercase letter follows it
            letter = text[start + 1 : start + 2] if value[0] == "-" else value[0]
            if letter.islower():
                tokens.append(Token("NOT" if value == "not" else "NAME", value, line, column))
            elif letter.isupper() and value[0] != "-":
                tokens.append(Token("VAR", value, line, column))
            else:
                raise ParseError(f"unexpected character {value[0]!r}", line, column)
    tokens.append(Token("EOF", "", line, end - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.rules: list[Rule] = []
        self.horizon_token: Token | None = None
        self.consts: dict[str, Term] = {}

    # -- token helpers ------------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(
                f"expected {what}, found {tok.value!r}" if tok.value else f"expected {what}",
                tok.line,
                tok.column,
            )
        return tok

    # -- grammar ------------------------------------------------------------

    def parse(self) -> Program:
        while self.peek().kind != "EOF":
            if self.peek().kind == "DIRECTIVE":
                self.directive()
            else:
                self.rule()
        rules = tuple(self.apply_consts(r) for r in self.rules)
        horizon = self.resolve_horizon()
        check_arities(rules)
        for rule in rules:
            check_safety(rule)
        return Program(rules=rules, horizon=horizon)

    def directive(self) -> None:
        tok = self.next()
        if tok.value == "#horizon":
            value = self.next()
            if value.kind not in ("INT", "NAME"):
                raise ParseError("expected horizon value", value.line, value.column)
            if self.horizon_token is not None:
                raise ParseError("duplicate #horizon directive", tok.line, tok.column)
            self.horizon_token = value
        else:  # #const
            name = self.expect("NAME", "constant name")
            self.expect("EQUALS", "'='")
            value = self.next()
            if value.kind == "INT":
                self.consts[name.value] = Integer(int(value.value))
            elif value.kind == "NAME":
                self.consts[name.value] = Constant(value.value)
            else:
                raise ParseError("expected constant value", value.line, value.column)
        self.expect("DOT", "'.'")

    def rule(self) -> None:
        start = self.peek()
        head = self.nd_atom()
        if any(a.is_builtin() for a in head):
            raise ParseError("comparison atom not allowed in rule head", start.line, start.column)
        body: list[Literal] = []
        if self.peek().kind == "IF":
            self.next()
            body.append(self.literal())
            while self.peek().kind == "COMMA":
                self.next()
                body.append(self.literal())
        self.expect("DOT", "'.'")
        origin = f"line {start.line}"
        self.rules.append(Rule(head=head, body=tuple(body), origin=origin))

    def literal(self) -> Literal:
        if self.peek().kind == "NOT":
            tok = self.next()
            atom = self.nd_atom()
            if any(a.is_builtin() for a in atom):
                raise ParseError(
                    "comparison atom cannot be negated; use the complementary operator",
                    tok.line,
                    tok.column,
                )
            return Literal(atom=atom, negated=True)
        return Literal(atom=self.nd_atom())

    def nd_atom(self) -> NdAtom:
        tok = self.peek()
        if tok.kind == "LBRACE":
            self.next()
            atoms = [self.atom()]
            while self.peek().kind == "COMMA":
                self.next()
                atoms.append(self.atom())
            self.expect("RBRACE", "'}'")
            if len(atoms) > 1 and any(a.is_builtin() for a in atoms):
                raise ParseError(
                    "comparison atom must be the only member of its NdAtom",
                    tok.line,
                    tok.column,
                )
            return canonicalize(atoms)
        # bare atom sugar for a singleton NdAtom
        return canonicalize([self.atom()])

    def atom(self) -> Atom:
        tok = self.peek()
        if tok.kind == "NAME" and self.tokens[self.pos + 1].kind not in ("NEQ", "EQEQ", "PLUS"):
            name = self.next().value
            args: list[Term] = []
            if self.peek().kind == "LPAREN":
                self.next()
                args.append(self.term())
                while self.peek().kind == "COMMA":
                    self.next()
                    args.append(self.term())
                self.expect("RPAREN", "')'")
            return Atom(pred=name, args=tuple(args))
        if tok.kind in ("VAR", "INT", "NAME"):
            left = self.term()
            op = self.next()
            if op.kind not in ("NEQ", "EQEQ"):
                raise ParseError(
                    f"expected comparison operator, found {op.value!r}", op.line, op.column
                )
            right = self.term()
            return Atom(pred=op.value, args=(left, right))
        raise ParseError(f"expected atom, found {tok.value!r}", tok.line, tok.column)

    def term(self, depth: int = 0) -> Term:
        tok = self.next()
        base: Term
        if tok.kind == "INT":
            base = Integer(int(tok.value))
        elif tok.kind == "VAR":
            base = Variable(tok.value)
        elif tok.kind == "NAME":
            if self.peek().kind == "LPAREN":
                if depth == MAX_TERM_DEPTH:
                    raise ParseError(
                        f"term nested deeper than {MAX_TERM_DEPTH} function symbols",
                        tok.line,
                        tok.column,
                    )
                self.next()
                args = [self.term(depth + 1)]
                while self.peek().kind == "COMMA":
                    self.next()
                    args.append(self.term(depth + 1))
                self.expect("RPAREN", "')'")
                return Compound(name=tok.value, args=tuple(args))
            base = Constant(tok.value)
        else:
            raise ParseError(f"expected term, found {tok.value!r}", tok.line, tok.column)
        if self.peek().kind == "PLUS":
            plus = self.next()
            if isinstance(base, Compound) or isinstance(base, Constant):
                raise ParseError(
                    "arithmetic base must be a variable or integer", plus.line, plus.column
                )
            offset = self.expect("INT", "integer offset")
            value = int(offset.value)
            if isinstance(base, Integer):
                return Integer(base.value + value)
            return Sum(base=base, offset=value)
        return base

    # -- directive resolution -----------------------------------------------

    def apply_consts(self, rule: Rule) -> Rule:
        if not self.consts:
            return rule

        def sub(term: Term) -> Term:
            if isinstance(term, Constant):
                return self.consts.get(term.name, term)
            if isinstance(term, Compound):
                return Compound(term.name, tuple(sub(a) for a in term.args))
            if isinstance(term, Sum):
                return Sum(sub(term.base), term.offset)
            return term

        def sub_nd(nd: NdAtom) -> NdAtom:
            return canonicalize(
                Atom(a.pred, tuple(sub(t) for t in a.args)) for a in nd
            )

        return Rule(
            head=sub_nd(rule.head),
            body=tuple(Literal(sub_nd(l.atom), l.negated) for l in rule.body),
            origin=rule.origin,
        )

    def resolve_horizon(self) -> int | None:
        tok = self.horizon_token
        if tok is None:
            return None
        if tok.kind == "INT":
            value = int(tok.value)
        else:
            defined = self.consts.get(tok.value)
            if not isinstance(defined, Integer):
                raise ParseError(
                    f"horizon {tok.value!r} is not a defined integer constant",
                    tok.line,
                    tok.column,
                )
            value = defined.value
        if value < 0:
            raise ParseError("horizon must be non-negative", tok.line, tok.column)
        return value


def check_arities(rules: tuple[Rule, ...]) -> None:
    """Reject programs using one predicate name at two arities."""
    arities: dict[str, int] = {}
    for rule in rules:
        for nd in [rule.head] + [lit.atom for lit in rule.body]:
            for atom in nd:
                if atom.is_builtin():
                    continue
                seen = arities.setdefault(atom.pred, len(atom.args))
                if seen != len(atom.args):
                    raise ProgramError(
                        f"predicate {atom.pred!r} used with arity {len(atom.args)} "
                        f"and {seen} ({rule.origin})"
                    )


def check_safety(rule: Rule) -> None:
    """Head and negated-literal variables must be bound positively or be time
    variables."""
    bound: set[str] = set()
    for nd in rule.positive_body():
        for atom in nd:
            bound.update(atom.variables())
    unsafe: set[str] = set()
    for atom in rule.head:
        unsafe.update(atom.variables())
    for nd in rule.negative_body():
        for atom in nd:
            unsafe.update(atom.variables())
    for name in sorted(unsafe - bound):
        if not is_time_variable(name):
            raise ProgramError(f"unsafe variable {name} in rule ({rule.origin})")


def parse_program(text: str) -> Program:
    """Parse program text into a canonical AST.

    NdAtoms come out canonicalized, rule order is preserved, and bare atoms
    are sugar for singleton NdAtoms.
    """
    return _Parser(text).parse()


def parse_rule(text: str) -> Rule:
    """Parse a single rule; convenience for tests and small programs."""
    program = parse_program(text)
    if len(program.rules) != 1:
        raise ParseError(f"expected exactly one rule, found {len(program.rules)}")
    return program.rules[0]
