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

Three readers share origins and the building of atoms, and each byte is
read by one of them. The statement reader takes the text while every
statement is a braced rule: after the first comments and at most one
`#horizon` with an integer value, it splits the text once into set-atom
texts and the connectors between them. When every set-atom holds names
alone (no arguments, variables, comparisons or comments), its name reader
builds no syntax value, only ids (one per set of names a set-atom sorts to)
and int lists per rule: a ground program, which the command line builds
straight from them (`cli._load`), and such rules can have no arity or
safety fault. `spell` builds their `Rule`s, one `NdAtom` per distinct text,
when they are read. Otherwise its flat reader reads every distinct
set-atom text, from one split of them all, as flat atoms (a name,
optionally with arguments, each a name, an integer, a variable or a
variable plus an integer) or as one comparison of two such terms. It builds
the values the token parser would, under the same texts, and records
arities and the first arity or safety fault as the token parser does. Where
the statement reader stops, at the first statement it cannot take, it
hands the token parser its set-atoms and arities, and the token parser
reads the rest (other directives, bare atoms, compound terms, comments
inside a rule, `#const` and the names it stands for) and reports every
error.

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
    BUILTIN_PREDICATES,
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


# The statement reader's patterns: whitespace and comments, then at most one
# `#horizon` with a non-negative integer value; a first set-atom that may
# hold flat atoms; a set-atom's text and the connector after it, up to the
# next "{"; a connector's kind, which `_JOINS` spells as a character of a
# shape (".?" for a "." with more after it, "?" for none); whole rules.
_COMMENTS = r"\s*(?:%.*(?:\n\s*|\Z))*"
_LEAD = re.compile(rf"{_COMMENTS}(?:\#horizon\s+(\d+)\s*\.{_COMMENTS})?")
_HEAD = re.compile(r"\{[\w\s,()+!=-]*\}")
_PIECE = re.compile(r"\{([^{}]*)\}([^{%]*(?:%.*[^{%]*)*)")
_CONNECTOR = re.compile(rf"\s*(?:(\.){_COMMENTS}((?s:.+))?|(:-|,)\s*(not)?\s*)")
_JOINS = {".": ".", ":-": ":", ":-not": ";", ",": ",", ",not": "!", "?": "?"}
_RULES = re.compile(r"(?:(?:[:;][,!]*)?\.)*")
_NOT_BRACES = bytes(set(range(256)).difference(b"{}"))

# The flat reader's pattern: a member of the distinct set-atom texts joined
# by "}", after its separator (none at the start, "," within a text, "}"
# before the next text), with nothing between the matches: a word with
# optional arguments, or a comparison of two arguments. An argument is a word,
# optionally plus an integer; `term_of` classifies the words.
_ARG = r"-?\w+(?:\s*\+\s*-?\d+)?"
_MEMBER = re.compile(rf"(\A|(?<=[\s\S])[,}}])\s*"
                     rf"(?:((-?\w+)(?:\s*\(\s*({_ARG}(?:\s*,\s*{_ARG})*)\s*\))?)(?=\s*(?:[,}}]|\Z))"
                     rf"|(({_ARG})\s*([!=]=)\s*({_ARG})))\s*")


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
    joined = ",".join(texts)
    if "(" in joined:  # arguments
        return None
    members = list(map(str.strip, joined.split(",")))
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
        self.whole: bool | None = None  # what `read` returned, once it has read
        self.offset = 0  # where the token parser starts: where the statement reader stopped
        # the statement reader's ids by sorted names and by text, per rule its head,
        # positive and negated ids, and the offset of its first piece and the texts,
        # connectors and shape of its pieces
        self.keys, self.ids, self.at, self.shape = {}, {}, 0, ""
        self.heads, self.positive, self.negated, self.texts, self.connectors = [], [], [], [], []
        self.pos = 0
        self.line, self.line_start = 1, 0  # where the last rule started
        self.rules: list[Rule] = []
        self.horizon: tuple[str, str, int] | None = None  # its value's kind, text and offset
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
        """The source tag of the rule starting at offset `start`. The readers
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
        """Read braced rules from the `_pieces` of the text after its first
        comments and `#horizon`. True when it takes the whole text and every
        set-atom holds names alone: then `keys`, `ids` and the rule lists
        hold the rules, and the pieces stay for `spell`. When a set-atom
        holds more than names, `build` reads every one into `set_atoms` and
        `check` makes the rules. It stops before the first rule with a gap,
        a connector out of place or a set-atom it cannot build, with
        `offset` after the last rule taken."""
        text, ids, keys, joins = self.text, self.ids, self.keys, {}
        if self.whole is not None:  # read already
            return self.whole
        self.whole = False
        lead = _LEAD.match(text)
        at = self.at = lead.end()
        if at < len(text) and not _HEAD.match(text, at):  # past flat atoms: refused at once
            return False
        texts, connectors, gap = _pieces(text[at:])
        for connector in set(connectors[:gap]):
            kind = _CONNECTOR.fullmatch(connector)
            kind = "".join(filter(None, kind.groups())) if kind else "?"
            joins[connector] = _JOINS.get(kind, ".?")
        shape = "".join(map(joins.__getitem__, connectors[:gap])) + ("$" if gap is None else "?")
        taken = _RULES.match(shape).end()  # the pieces of whole rules
        new = list(dict.fromkeys(texts[:taken]))
        if (names := _keys(new)) is None:  # set-atoms past names: each built
            made, taken = self.build(new, texts, shape, taken)
        else:
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
        if names is None:  # the distinct texts of the rules taken
            self.check(new[: len(set(texts[:taken]))], made)
        if shape[taken] == "$":
            self.offset = len(text)
        elif taken:  # after the last rule's "."
            self.offset = at + 2 * taken + sum(map(len, texts[:taken] + connectors[: taken - 1]))
            self.offset += connectors[taken - 1].index(".") + 1
        if lead[1] is not None and self.offset:
            self.horizon = "INT", lead[1], lead.start(1)
        self.whole = shape[taken] == "$" and names is not None
        return self.whole

    def build(self, new: list[str], texts: list[str], shape: str, taken: int):
        """The set-atom of each of the distinct texts `new` that holds flat
        atoms or one comparison, with its variables' names and whether it is
        a comparison, as `set_atom` builds it, read from one split of them
        all, up to the first text it cannot build; and the pieces of the rules
        before the first holding that text or a comparison in a head or under
        "not"."""
        atoms, values, bad = self.atoms, [], None
        if "#const" in self.text:  # a name may stand for a constant's value
            bad = next((i for i, key in enumerate(new) if "(" in key or "=" in key), None)
        joined = "}".join(new[:bad])
        parts = _MEMBER.split(joined)  # [gap, separator, atom, name, arguments, comparison, ...]
        end = next(compress(count(0, 9), parts[::9]), len(parts) - 1)  # the first gap, or the end
        matches = zip(*[iter(parts[1 : end + 1])] * 9)
        for sep, key, pred, args, comparison, left, op, right, _ in matches:
            if key:
                atom = atoms.get(key) or self.atom_of(key, pred, args.split(",") if args else [])
            else:
                atom = atoms.get(comparison) or self.atom_of(comparison, op, [left, right])
            if atom is None:
                bad = len(values) - (sep == ",")
                break
            if sep == ",":
                members.append(atom)
            else:
                members = [atom]
                values.append(members)
        else:  # a gap in the last text begun or at the "}" before the next, or an empty text alone
            if parts[end] or len(values) < len(new[:bad]):
                bad = max(len(values) - (parts[end][:1] != "}"), 0)
        values = values[:bad]
        for i in compress(count(), map(str.__contains__, new[: len(values)], repeat("="))):
            if len(values[i]) > 1:  # a comparison and more
                bad = i
                break
        made = {}
        for key, members in zip(new[:bad], values):
            names = frozenset() if key.islower() else frozenset(  # no upper-case first letter
                [(term.base if type(term) is Sum else term).name
                 for atom in members for term in atom.args if type(term) in (Variable, Sum)])
            value = NdAtom((members[0],)) if len(members) == 1 else canonicalize(members)
            made[key] = value, names, "=" in key
        if bad is not None:
            taken = shape.rfind(".", 0, texts.index(new[bad])) + 1
        comparisons = {key for key, (_, _, builtin) in made.items() if builtin}
        for i in compress(count(), map(comparisons.__contains__, texts[:taken])):
            if i == 0 or shape[i - 1] in ".;!":
                taken = shape.rfind(".", 0, i) + 1
                break
        return made, taken

    def atom_of(self, key: str, pred: str, args: list[str]) -> Atom | None:
        """The atom of a member's text, with its predicate (a name or a
        comparison operator) and its arguments' texts, as `atom` builds it,
        put into `atoms`; None for a name or a term that is none."""
        if pred not in BUILTIN_PREDICATES:
            if pred == "not" or not (pred[1:2] if pred[0] == "-" else pred[0]).islower():
                return None
        terms = self.terms
        args = tuple([terms.get(arg) or self.term_of(arg) for arg in map(str.strip, args)])
        if not all(args):
            return None
        made = self.atoms[key] = Atom(pred, args)
        return made

    def term_of(self, text: str) -> Term | None:
        """The term of an argument's text, as `term` builds it, put into
        `terms`; None for a word that is no name, variable or integer, or a
        sum on no variable."""
        first = text[0]
        if "+" in text:
            base, offset = text.split("+")
            base = base.rstrip()
            if not base[0].isupper():
                return None
            variable = self.terms.get(base) or self.terms.setdefault(base, Variable(base))
            made = Sum(variable, int(offset))
        elif first.isupper():
            made = Variable(text)
        elif text != "not" and (text[1:2] if first == "-" else first).islower():
            made = Constant(text)
        elif text[first == "-" :].isdecimal():
            made = Integer(int(text))
        else:
            return None
        self.terms[text] = made
        return made

    def check(self, new: list[str], made: dict) -> None:
        """Put the distinct texts `new` of the rules taken, built as `made`,
        into `set_atoms`, and make the rules from them, recording arities and
        the first of each load fault as `set_atom` and `rule` do."""
        self.set_atoms = {"{" + key + "}": made[key] for key in new}
        variables = {key: names for key, (_, names, _) in made.items() if names}
        self.rules = self.walk({key: made[key][0] for key in new}, variables)
        texts = self.texts
        for key in new:  # arities in the order `set_atom` records them, up to a clash
            value, _, builtin = made[key]
            if not builtin and (clash := self.clash(value)):
                origin = self.rules[self.shape.count(".", 0, texts.index(key))].origin
                self.arity_error = ProgramError(f"{clash} ({origin})")
                break

    def walk(self, made: dict[str, NdAtom], variables: dict[str, frozenset[str]]) -> list[Rule]:
        """The rules `read` took, each piece's NdAtom `made[text]`, with their
        origins from the pieces' lengths; with the `variables` of each text
        that has any, each rule is checked for safety as `rule` does."""
        texts, rules, i = self.texts, [], 0
        # each piece's offset, less the two braces of each piece before it
        starts = list(accumulate(map(add, map(len, texts), map(len, self.connectors)),
                                 initial=self.at))
        for body in self.shape.split(".")[:-1]:
            if len(body) < 2:  # a fact or one literal
                literals = (Literal(made[texts[i + 1]], body == ";"),) if body else ()
            else:
                literals = tuple([Literal(made[key], join in ";!")
                                  for key, join in zip(texts[i + 1 : i + 1 + len(body)], body)])
            rules.append(Rule(made[texts[i]], literals, self.origin(starts[i] + 2 * i)))
            if variables and (body or texts[i] in variables):
                unsafe, bound = set(variables.get(texts[i], ())), set()
                for key, join in zip(texts[i + 1 : i + 1 + len(body)], body):
                    (unsafe if join in ";!" else bound).update(variables.get(key, ()))
                self.unsafe(unsafe, bound, rules[-1].origin)
            i += len(body) + 1
        return rules

    def spell(self) -> list[Rule]:
        """The rules `read` took over names as `Rule`s, one `NdAtom` per
        distinct text; where the token parser reads on, the texts go into
        `set_atoms` and the names into `arities`."""
        keys = list(self.keys)
        atoms = self.atoms = {name: Atom(name) for name in dict.fromkeys(chain.from_iterable(keys))}
        made = {key: NdAtom(tuple(map(atoms.__getitem__, keys[i]))) for key, i in self.ids.items()}
        rules = self.walk(made, {})
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
        if self.ids:  # rules over names, not spelled yet
            self.rules = self.spell()
        if self.offset < len(self.text):
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
            if self.horizon is not None:
                raise self.error("duplicate #horizon directive", self.starts[i])
            self.horizon = self.kinds[value], self.values[value], self.starts[value]
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
        self.unsafe(unsafe, bound, origin)
        self.rules.append(Rule(head, tuple(body), origin))

    def unsafe(self, unsafe: set[str], bound: set[str], origin: str) -> None:
        """Record the rule at `origin` as the first unsafe one, if it is and
        none was before: a name in `unsafe`, not in `bound`, no time variable."""
        if unsafe and self.safety_error is None:
            loose = [name for name in sorted(unsafe - bound) if not is_time_variable(name)]
            if loose:
                self.safety_error = ProgramError(f"unsafe variable {loose[0]} in rule ({origin})")

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
        if self.arity_error is None and not builtin and (clash := self.clash(value)):
            self.arity_error = ProgramError(f"{clash} ({origin})")
        made = self.set_atoms[key] = value, frozenset(names), builtin
        return made

    def clash(self, value: NdAtom) -> str | None:
        """Record the arity of each predicate of `value`, in its order, up to
        the first used before at another; that fault's message, less origin."""
        for atom in value.atoms:
            seen = self.arities.setdefault(atom.pred, len(atom.args))
            if seen != len(atom.args):
                return f"predicate {atom.pred!r} used with arity {len(atom.args)} and {seen}"
        return None

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
        if self.horizon is None:
            return None
        kind, value, start = self.horizon
        defined = Integer(int(value)) if kind == "INT" else self.consts.get(value)
        if not isinstance(defined, Integer):
            raise self.error(f"horizon {value!r} is not a defined integer constant", start)
        if defined.value < 0:
            raise self.error("horizon must be non-negative", start)
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
