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

NAMEs start with a lowercase letter and may carry a leading "-", which spells
classical negation as part of the name. VARIABLEs start with an uppercase
letter; those named T, T0, T1, ... are time variables (see the grounder).
Comparisons must be the sole member of a positive body NdAtom. Function
symbols nest at most MAX_TERM_DEPTH levels deep.

Load-time checks beyond the grammar: consistent predicate arities, and rule
safety (every variable in the head or in a negated NdAtom must occur in a
positive body NdAtom or be a time variable).
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class Token:
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


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col

        def take(count: int) -> str:
            nonlocal i, col
            lexeme = text[i : i + count]
            i += count
            col += count
            return lexeme

        two = text[i : i + 2]
        if two in (":-", "!=", "=="):
            tokens.append(Token(_PUNCT[two], take(2), start_line, start_col))
            continue
        if ch in _PUNCT:
            tokens.append(Token(_PUNCT[ch], take(1), start_line, start_col))
            continue
        if ch == "#":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            tokens.append(Token("DIRECTIVE", take(j - i), start_line, start_col))
            if word not in ("#horizon", "#const"):
                raise ParseError(f"unknown directive {word}", start_line, start_col)
            continue
        if ch.isdecimal() or (ch == "-" and i + 1 < n and text[i + 1].isdecimal()):
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(Token("INT", take(j - i), start_line, start_col))
            continue
        if ch.islower() or (ch == "-" and i + 1 < n and text[i + 1].islower()):
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "NOT" if word == "not" else "NAME"
            tokens.append(Token(kind, take(j - i), start_line, start_col))
            continue
        if ch.isupper():
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("VAR", take(j - i), start_line, start_col))
            continue
        raise ParseError(f"unexpected character {ch!r}", start_line, start_col)
    tokens.append(Token("EOF", "", line, col))
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
