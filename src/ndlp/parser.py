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

Tokens, as the one pattern `_TOKEN` reads them between whitespace and
comments: an INT is a run of Unicode decimal digits, optionally after a
"-"; a word is a run of `str.isalnum` characters and "_" whose first letter
decides its class. A lowercase one makes a NAME (or the keyword "not"),
which may carry a leading "-" that spells classical negation; an uppercase
one makes a VARIABLE, those named T, T0, T1, ... being time variables (see
the grounder); any other is an error. Comparisons must be the sole member
of a positive body NdAtom. Function symbols nest at most MAX_TERM_DEPTH
levels deep.

Two readers share origins and the building of atoms, and each byte is read
by one of them. The statement reader splits the text once into set-atom
texts and the connectors between them, and takes it while every statement
is a braced rule whose set-atoms hold names alone (no arguments, variables,
comparisons or comments); such rules can have no arity or safety fault. It
builds no syntax value, only ids (one per set of names a set-atom sorts
to) and int lists per rule: a ground program, which the command line
builds straight from them (`cli._load`). `spell` builds the `Rule`s, one
`NdAtom` per distinct text, when they are read; where the reader stops, at
the first statement it cannot take, it also hands the token parser its
set-atoms and arities, and the token parser reads the rest (directives,
bare atoms, arguments, comments inside a rule) and reports every error.

A token keeps its kind, text and start offset; lines and columns are worked
out only for a `ParseError` and a rule's `origin`. Within one parse, each
distinct text of a term, atom or NdAtom is built once, and a repeated NdAtom
is not read again. `#const` values are put in place as terms are built.

Load-time checks beyond the grammar, made as each distinct NdAtom is built
and raised after every `ParseError`: consistent predicate arities, then
rule safety (every variable in the head or in a negated NdAtom must occur
in a positive body NdAtom or be a time variable).
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import accumulate, chain, compress, count, repeat
from operator import add, ge, itemgetter, not_

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

# Whitespace and comments, then one token or the end of the text: the pattern
# matches where its last match ended, so `split` reads the text end to end.
# A word, the last token alternative, takes any other character and the word
# characters after it; `_word_kind` classifies it.
_TOKEN = re.compile(r"(\s*(?:%.*\s*)*)([{}(),.+]|:-|!=|==?|\#\w*|-?\d+|.\w*|\Z)")


# The statement reader's patterns: whitespace and comments; a first set-atom
# that may hold names alone; a set-atom's text and the connector after it, up
# to the next "{"; a connector's kind, which `_JOINS` spells as a character of
# a shape (".?" for a "." with more after it, "?" for none); whole rules.
_LEAD = re.compile(r"\s*(?:%.*(?:\n\s*|\Z))*")
_HEAD = re.compile(r"\{[\w\s,-]*\}")
_PIECE = re.compile(r"\{([^{}]*)\}([^{%]*(?:%.*[^{%]*)*)")
_CONNECTOR = re.compile(r"\s*(?:(\.)\s*(?:%.*(?:\n\s*|\Z))*((?s:.+))?|(:-|,)\s*(not)?\s*)")
_JOINS = {".": ".", ":-": ":", ":-not": ";", ",": ",", ",not": "!", "?": "?"}
_RULES = re.compile(r"(?:(?:[:;][,!]*)?\.)*")
_NOT_BRACES = bytes(set(range(256)).difference(b"{}"))


def _pieces(text: str) -> tuple[list[str], list[str], int | None]:
    """The set-atom texts of a text that starts at a "{", the connectors
    after them, and the index of the first a gap cuts: without "%", where
    the braces stop alternating."""
    if "%" in text:
        pieces = _PIECE.split(text)  # [gap, text, connector, gap, ...]
        return pieces[1::3], pieces[2::3], next(compress(count(), pieces[::3]), None)
    braces = text.encode("utf-8", "surrogatepass").translate(None, _NOT_BRACES)
    doubled = [i // 2 for i in (braces.find(b"{{"), braces.find(b"}}")) if i >= 0]
    flat = text[1:].replace("{", "}").split("}")  # text, connector, text, ...
    unclosed = len(braces) // 2 if len(braces) % 2 else None
    return flat[::2], flat[1::2], min(doubled, default=unclosed)


def _keys(texts: list[str]) -> list[tuple[str, ...]] | None:
    """The sorted distinct names of each set-atom text; None unless every
    member is an optional "-" and a word (`str.isalnum` characters and "_")
    whose first letter is lowercase, other than "not"."""
    if not texts:
        return []
    members = list(map(str.strip, ",".join(texts).split(",")))
    words = list(map(str.removeprefix, members, repeat("-")))
    names = all(words) and "".join(words).replace("_", "a").isalnum()
    if not names or "not" in members or not all(map(str.islower, set(map(itemgetter(0), words)))):
        return None
    size = len(members) // len(texts)
    if len(members) > len(texts) and set(map(str.count, texts, repeat(","))) != {size - 1}:
        return [tuple(sorted(set(map(str.strip, text.split(","))))) for text in texts]
    keys = list(zip(*[iter(members)] * size))  # as many members in each text
    for j in range(1, size):  # texts whose members are not in increasing order
        for i in compress(count(), map(ge, members[j - 1 :: size], members[j::size])):
            keys[i] = tuple(sorted(set(keys[i])))
    return keys


def _word_kind(value: str, after: str) -> str | None:
    """The kind of a word, given the character after its first; None if it is
    no token. A "-" starts a name only when a lowercase letter follows it."""
    first = value[0]
    if first == "#":
        return "DIRECTIVE" if value in ("#horizon", "#const") else None
    if first.isdecimal() or first == "-" and after.isdecimal():
        return "INT"
    letter = after if first == "-" else first
    if letter.islower():
        return "NOT" if value == "not" else "NAME"
    return "VAR" if letter.isupper() and first != "-" else None


class _Parser:
    def __init__(self, text: str, files: tuple[tuple[int, str], ...] = ()):
        self.text = text
        self.files = files  # (first line, path) of each file joined into `text`
        self.offset = 0  # where the token parser starts: where the statement reader stopped
        # the statement reader's ids by sorted names and by text, per rule its head,
        # positive and negated ids, and the texts, connectors and shape of its pieces
        self.keys, self.ids, self.shape = {}, {}, ""
        self.heads, self.positive, self.negated, self.texts, self.connectors = [], [], [], [], []
        self.pos = 0
        self.line, self.line_start = 1, 0  # where the last rule started
        self.rules: list[Rule] = []
        self.horizon_index: int | None = None
        self.consts: dict[str, Term] = {}
        # each distinct text of the parse, mapped to what was built from it
        self.terms: dict[str, Term] = {}
        self.atoms: dict[str, Atom] = {}
        # NdAtom texts: (value, its variables' names, whether it is a comparison)
        self.set_atoms: dict[str, tuple[NdAtom, frozenset[str], bool]] = {}
        self.names: set[str] = set()  # variables of the NdAtom being read
        self.arities: dict[str, int] = {}
        self.arity_error = self.safety_error = None  # the first of each

    # -- tokens and positions -------------------------------------------------

    def scan(self) -> tuple[list[str], list[str], list[int]]:
        """The kind, text and start offset of every token from `offset`, ending with EOF."""
        text, offset = self.text, self.offset
        # ["", skip, token] per match; the first empty token is the end
        pieces = _TOKEN.split(text[offset:])
        values = pieces[2::3]
        del values[values.index("") + 1 :]
        starts = list(accumulate(map(len, pieces), initial=offset))[2 : 3 * len(values) : 3]
        # each distinct word classified once; a lone "-" and faults in order
        known = {**_PUNCT, "": "EOF"}
        for value in set(compress(values, map(not_, map(known.get, values)))):
            known[value] = _word_kind(value, value[1:2])
        kinds = list(map(known.get, values))
        for i in list(compress(count(), map(not_, kinds))):
            value, start = values[i], starts[i]
            kinds[i] = _word_kind(value, text[start + 1 : start + 2])
            if kinds[i] is None:
                if value[0] == "#":
                    raise self.error(f"unknown directive {value}", start)
                raise self.error(f"unexpected character {value[0]!r}", start)
        # input ending in a comment ends where the comment starts
        end = starts[-2] + len(values[-2]) if len(values) > 1 else offset
        comment = text.find("%", max(end, text.rfind("\n", end) + 1))
        if comment >= 0:
            starts[-1] = comment
        return kinds, values, starts

    def locate(self, line: int) -> tuple[str | None, int]:
        """The file holding a line of the text, and the line within it."""
        if not self.files:
            return None, line
        first, path = self.files[bisect_right(self.files, line, key=itemgetter(0)) - 1]
        return path, line - first + 1

    def error(self, message: str, offset: int) -> ParseError:
        text = self.text
        path, line = self.locate(text.count("\n", 0, offset) + 1)
        return ParseError(message, line, offset - text.rfind("\n", 0, offset), path)

    def origin(self, start: int) -> str:
        """The source tag of the rule starting at offset `start`. Both readers
        call this once per rule, in text order, so lines are counted once."""
        self.line += self.text.count("\n", self.line_start, start)
        self.line_start = start
        if not self.files:
            return f"line {self.line}"
        path, line = self.locate(self.line)
        return f"{path} line {line}"

    def expect(self, kind: str, what: str) -> int:
        i = self.pos
        self.pos = i + 1
        if self.kinds[i] != kind:
            found = f", found {self.values[i]!r}" if self.values[i] else ""
            raise self.error(f"expected {what}{found}", self.starts[i])
        return i

    def source(self, first: int) -> str:
        """The text from token `first` to the end of the last token read."""
        last = self.pos - 1
        return self.text[self.starts[first] : self.starts[last] + len(self.values[last])]

    # -- statement reader -----------------------------------------------------

    def read(self) -> bool:
        """Read braced rules over names into `keys`, `ids` and the rule
        lists, from the `_pieces` of the text up to its first "(" outside
        comments; True at the end of the text, else False with `offset` after
        the last rule taken, before the first with a gap, a connector out of
        place or a member that is no name. The pieces taken stay for `spell`."""
        text, ids, keys, joins = self.text, self.ids, self.keys, {}
        if self.offset:  # read already, up to where it stopped
            return self.offset == len(text)
        at = _LEAD.match(text).end()
        if at < len(text) and not _HEAD.match(text, at):  # a first set-atom past names: at once
            return False
        end = text.find("(", at) + 1 or len(text)  # a rule holding it is not taken
        texts, connectors, gap = _pieces(text[at : end if text.find("%", at, end) < 0 else None])
        for connector in set(connectors[:gap]):
            kind = _CONNECTOR.fullmatch(connector)
            kind = "".join(filter(None, kind.groups())) if kind else "?"
            joins[connector] = _JOINS.get(kind, ".?")
        shape = "".join(map(joins.__getitem__, connectors[:gap])) + ("$" if gap is None else "?")
        taken = _RULES.match(shape).end()  # the pieces of whole rules
        new = list(dict.fromkeys(texts[:taken]))
        if (names := _keys(new)) is None:  # to the first text with a member that is no name
            bad = next(i for i, key in enumerate(new) if _keys([key]) is None)
            taken = shape.rfind(".", 0, texts.index(new[bad])) + 1
            names = _keys(new[:bad])
        for key, sorted_names in zip(new, names):
            ids[key] = keys.setdefault(sorted_names, len(keys))
        heads, positive, negated = self.heads, self.positive, self.negated
        known, i = list(map(ids.__getitem__, texts[:taken])), 0
        for body in shape[:taken].split(".")[:-1]:
            heads.append(known[i])
            literals = known[i + 1 : i + 1 + len(body)]
            if len(body) < 2:  # a fact or one literal
                positive.append(() if body == ";" else literals)
                negated.append(literals if body == ";" else ())
            else:
                positive.append(list(compress(literals, map(":,".__contains__, body))))
                negated.append(list(compress(literals, map(";!".__contains__, body))))
            i += len(body) + 1
        self.texts, self.connectors, self.shape = texts[:taken], connectors[:taken], shape[:taken]
        if shape[taken] == "$":
            self.offset = len(text)
        elif taken:  # after the last rule's "."
            self.offset = at + 2 * taken + sum(map(len, texts[:taken] + connectors[: taken - 1]))
            self.offset += connectors[taken - 1].index(".") + 1
        return shape[taken] == "$"

    def spell(self) -> list[Rule]:
        """The rules `read` took as `Rule`s, one `NdAtom` per distinct text,
        with their origins from the pieces' lengths; where the token parser
        reads on, the texts go into `set_atoms` and the names into `arities`."""
        keys = list(self.keys)
        atoms = self.atoms = {name: Atom(name) for name in dict.fromkeys(chain.from_iterable(keys))}
        made = {key: NdAtom(tuple(map(atoms.__getitem__, keys[i]))) for key, i in self.ids.items()}
        texts, rules, i = self.texts, [], 0
        # each piece's offset, less the two braces of each piece before it
        starts = list(accumulate(map(add, map(len, texts), map(len, self.connectors)),
                                 initial=_LEAD.match(self.text).end()))
        for body in self.shape.split(".")[:-1]:
            if len(body) < 2:  # a fact or one literal
                literals = (Literal(made[texts[i + 1]], body == ";"),) if body else ()
            else:
                literals = tuple([Literal(made[key], join in ";!")
                                  for key, join in zip(texts[i + 1 : i + 1 + len(body)], body)])
            rules.append(Rule(made[texts[i]], literals, self.origin(starts[i] + 2 * i)))
            i += len(body) + 1
        if self.offset < len(self.text):
            self.set_atoms = {"{" + key + "}": (nd, frozenset(), False) for key, nd in made.items()}
            self.arities = dict.fromkeys(atoms, 0)
        return rules

    # -- grammar ------------------------------------------------------------

    def read_consts(self) -> dict[str, Term]:
        """Each `#const` value, the last of a name winning; `directive` checks."""
        kinds, values, consts, i = self.kinds, self.values, {}, -1
        for _ in range(values.count("#const")):
            i = values.index("#const", i + 1)
            if kinds[i + 1 : i + 3] == ["NAME", "EQUALS"] and kinds[i + 3] in ("INT", "NAME"):
                name, value = values[i + 1], values[i + 3]
                consts[name] = Integer(int(value)) if kinds[i + 3] == "INT" else Constant(value)
        return consts

    def parse(self) -> Program:
        """The program: the rules `read` takes, spelled, then the token
        parser's from where it stopped."""
        self.read()
        self.rules = self.spell()
        self.kinds, self.values, self.starts = self.scan()
        self.consts = self.read_consts()
        kinds = self.kinds
        while kinds[self.pos] != "EOF":
            if kinds[self.pos] == "DIRECTIVE":
                self.directive()
            else:
                self.rule()
        horizon = self.resolve_horizon()
        for fault in (self.arity_error, self.safety_error):
            if fault is not None:
                raise fault
        return Program(rules=tuple(self.rules), horizon=horizon)

    def directive(self) -> None:
        i = self.pos
        self.pos += 1
        what = "horizon"
        if self.values[i] == "#const":
            self.expect("NAME", "constant name")
            self.expect("EQUALS", "'='")
            what = "constant"
        value = self.pos
        self.pos += 1
        if self.kinds[value] not in ("INT", "NAME"):
            raise self.error(f"expected {what} value", self.starts[value])
        if what == "horizon":
            if self.horizon_index is not None:
                raise self.error("duplicate #horizon directive", self.starts[i])
            self.horizon_index = value
        self.expect("DOT", "'.'")

    def rule(self) -> None:
        """One rule: its head, then after ":-" literals separated by commas,
        each an optional "not" and a set-atom, each set-atom from `set_atom`."""
        kinds, start = self.kinds, self.starts[self.pos]
        origin = self.origin(start)
        head, unsafe, builtin = self.set_atom(origin)
        if builtin:
            raise self.error("comparison atom not allowed in rule head", start)
        bound, body = frozenset(), []
        if kinds[self.pos] == "IF":
            self.pos += 1
            while True:
                at = self.starts[self.pos]
                negated = kinds[self.pos] == "NOT"
                self.pos += negated
                nd, names, builtin = self.set_atom(origin)
                if not negated:
                    bound |= names
                elif builtin:
                    raise self.error(
                        "comparison atom cannot be negated; use the complementary operator", at
                    )
                else:
                    unsafe |= names
                body.append(Literal(nd, negated))
                if kinds[self.pos] != "COMMA":
                    break
                self.pos += 1
        self.expect("DOT", "'.'")
        if unsafe and self.safety_error is None:
            loose = [name for name in sorted(unsafe - bound) if not is_time_variable(name)]
            if loose:
                self.safety_error = ProgramError(f"unsafe variable {loose[0]} in rule ({origin})")
        self.rules.append(Rule(head, tuple(body), origin))

    def set_atom(self, origin: str) -> tuple[NdAtom, frozenset[str], bool]:
        """The NdAtom at the current token, with its variables' names and
        whether it is a comparison, as recorded in `set_atoms` under its
        text. A text read before, bare or braced, is not read again: the
        first "}" after a "{" ends a braced one."""
        kinds, starts, first = self.kinds, self.starts, self.pos
        braced = kinds[first] == "LBRACE"
        if braced:
            try:
                end = kinds.index("RBRACE", first)
            except ValueError:  # no "}": reading on reports the fault
                end = first
            made = self.set_atoms.get(self.text[starts[first] : starts[end] + 1])
            if made is not None:
                self.pos = end + 1
                return made
        self.names = names = set()
        self.pos += braced
        atoms = [self.atom()]
        if braced:
            while kinds[self.pos] == "COMMA":
                self.pos += 1
                atoms.append(self.atom())
            self.expect("RBRACE", "'}'")
            if len(atoms) > 1 and any(a.is_builtin() for a in atoms):
                raise self.error(
                    "comparison atom must be the only member of its NdAtom", starts[first]
                )
        key = self.source(first)
        if not braced:  # bare atom sugar for a singleton NdAtom
            made = self.set_atoms.get(key)
            if made is not None:
                return made
        value = NdAtom((atoms[0],)) if len(atoms) == 1 else canonicalize(atoms)
        builtin = atoms[0].is_builtin()
        if self.arity_error is None and not builtin:
            for atom in value.atoms:  # record the first predicate used at two arities
                seen = self.arities.setdefault(atom.pred, len(atom.args))
                if seen != len(atom.args):
                    self.arity_error = ProgramError(
                        f"predicate {atom.pred!r} used with arity {len(atom.args)} "
                        f"and {seen} ({origin})"
                    )
                    break
        made = self.set_atoms[key] = value, frozenset(names), builtin
        return made

    def atom(self) -> Atom:
        kinds, values, first = self.kinds, self.values, self.pos
        if kinds[first] == "NAME" and kinds[first + 1] not in ("NEQ", "EQEQ", "PLUS"):
            self.pos += 1
            pred = values[first]
            args = self.arguments(0) if kinds[self.pos] == "LPAREN" else ()
        elif kinds[first] in ("VAR", "INT", "NAME"):
            left = self.term()
            op = self.pos
            self.pos += 1
            if kinds[op] not in ("NEQ", "EQEQ"):
                raise self.error(
                    f"expected comparison operator, found {values[op]!r}", self.starts[op]
                )
            pred, args = values[op], (left, self.term())
        else:
            raise self.error(f"expected atom, found {values[first]!r}", self.starts[first])
        key = self.source(first)
        made = self.atoms.get(key)
        if made is None:
            made = self.atoms[key] = Atom(pred, args)
        return made

    def arguments(self, depth: int) -> tuple[Term, ...]:
        """The terms, at nesting `depth`, between "(" and ")"."""
        self.pos += 1
        args = [self.term(depth)]
        while self.kinds[self.pos] == "COMMA":
            self.pos += 1
            args.append(self.term(depth))
        self.expect("RPAREN", "')'")
        return tuple(args)

    def term(self, depth: int = 0) -> Term:
        kinds, values, first = self.kinds, self.values, self.pos
        kind, value = kinds[first], values[first]
        self.pos += 1
        if kind == "NAME" and kinds[self.pos] == "LPAREN":
            if depth == MAX_TERM_DEPTH:
                raise self.error(
                    f"term nested deeper than {MAX_TERM_DEPTH} function symbols",
                    self.starts[first],
                )
            args = self.arguments(depth + 1)
            key = self.source(first)
            made = self.terms.get(key)
            if made is None:
                made = self.terms[key] = Compound(value, args)
            return made
        if kind not in ("INT", "VAR", "NAME"):
            raise self.error(f"expected term, found {value!r}", self.starts[first])
        if kind == "VAR":
            self.names.add(value)
        base = self.terms.get(value)
        if base is None:
            base = self.terms[value] = (
                Integer(int(value)) if kind == "INT"
                else Variable(value) if kind == "VAR"
                else self.consts.get(value) or Constant(value)
            )
        if kinds[self.pos] != "PLUS":
            return base
        if kind == "NAME":
            raise self.error("arithmetic base must be a variable or integer", self.starts[self.pos])
        self.pos += 1
        offset = int(values[self.expect("INT", "integer offset")])
        key = self.source(first)
        made = self.terms.get(key)
        if made is None:
            made = self.terms[key] = (
                Integer(base.value + offset) if kind == "INT" else Sum(base, offset)
            )
        return made

    # -- directive resolution -----------------------------------------------

    def resolve_horizon(self) -> int | None:
        i = self.horizon_index
        if i is None:
            return None
        value = self.values[i]
        defined = Integer(int(value)) if self.kinds[i] == "INT" else self.consts.get(value)
        if not isinstance(defined, Integer):
            raise self.error(
                f"horizon {value!r} is not a defined integer constant", self.starts[i]
            )
        if defined.value < 0:
            raise self.error("horizon must be non-negative", self.starts[i])
        return defined.value


def tokenize(text: str) -> list[tuple[str, str, int]]:
    """The (kind, value, start offset) of each token of `text`, ending with EOF."""
    return list(zip(*_Parser(text).scan()))


def parse_program(text: str) -> Program:
    """Parse program text into a canonical AST.

    NdAtoms come out canonicalized, rule order is preserved, and bare atoms
    are sugar for singleton NdAtoms.
    """
    return _Parser(text).parse()


def reader(files: list[tuple[str, str]]) -> _Parser:
    """A parser of the (path, text) of each file, in order, as one program:
    every text but the last ends its last line, so a trailing comment cannot
    swallow the next file, and with two or more files, error positions and
    rule origins name the file and count its lines."""
    if len(files) == 1:
        return _Parser(files[0][1])
    texts = [t + "\n" if t and not t.endswith("\n") else t for _, t in files[:-1]]
    texts.append(files[-1][1])
    first_lines = accumulate((t.count("\n") for t in texts[:-1]), initial=1)
    return _Parser("".join(texts), tuple(zip(first_lines, (p for p, _ in files))))


def parse_files(files: list[tuple[str, str]]) -> Program:
    """Parse the (path, text) of each file, in order, as one program (see `reader`)."""
    return reader(files).parse()


def parse_rule(text: str) -> Rule:
    """Parse a single rule; convenience for tests and small programs."""
    program = parse_program(text)
    if len(program.rules) != 1:
        raise ParseError(f"expected exactly one rule, found {len(program.rules)}")
    return program.rules[0]
