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

Three readers share origins, and each text is taken whole by one of them.
The statement reader takes a text in which every statement is a braced
rule: after the first comments and at most one `#horizon` with an integer
value, it splits the text once into set-atom texts and the connectors
between them. When every set-atom holds names alone (no arguments,
variables, comparisons or comments), its name reader builds no syntax
value, only ids (one per set of names a set-atom sorts to) and int lists
per rule: a ground program, which the command line builds straight from
them (`cli._load`) with their signs and origins, read again from the text,
the end of its lead and the rules' shape alone (`written`), and such rules
can have no arity or safety fault; `spell` builds their `Rule`s for
`parse`. Otherwise its flat reader reads every distinct set-atom text, from
one split of them all, as flat atoms (a name, optionally with arguments,
each a name, an integer, a variable or a variable plus an integer) or as
one comparison of two such terms, and records each distinct member and
argument text's pattern, and arities and the first arity fault as the token
parser does. It builds no syntax value for that. With variables or without,
`flat` hands the command line the set-atom patterns the grounder reads, one
per distinct text, and the rules as their indices (see the grounder),
checked for safety; for the library's `parse`, `syntax` builds the values
the token parser would, under the same texts, each distinct text once, and
the rules, with the first safety fault. The statement reader refuses whole
a text with any statement it cannot take (other directives, bare atoms,
compound terms, comments inside a rule, `#const` and the names it stands
for, any fault), and the token parser reads all of it and reports every
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
from typing import Iterator

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
_NEGATED = {":": False, ",": False, ";": True, "!": True}  # a body connector's sign
_NO_NAMES: frozenset[str] = frozenset()

# The flat reader's pattern: a member of the distinct set-atom texts joined
# by "}", after its separator (none at the start, "," within a text, "}"
# before the next text), with nothing between the matches: a word with
# optional arguments, or a comparison of two arguments. An argument is a word,
# optionally plus an integer; `term_of` classifies the words.
_ARG = r"-?\w+(?:\s*\+\s*-?\d+)?"
_MEMBER = re.compile(rf"(\A|(?<=[\s\S])[,}}])\s*"
                     rf"(?:((-?\w+)(?:\s*\(\s*({_ARG}(?:\s*,\s*{_ARG})*)\s*\))?)(?=\s*(?:[,}}]|\Z))"
                     rf"|(({_ARG})\s*([!=]=)\s*({_ARG})))\s*")


def _pieces(text: str) -> tuple[list[str], list[str], bool]:
    """The set-atom texts of an empty text or one that starts at a "{", the
    connectors after them, and whether a gap cuts them: without "%", whether
    the braces fail to alternate."""
    if "%" in text:
        pieces = _PIECE.split(text)  # [gap, text, connector, gap, ...]
        return pieces[1::3], pieces[2::3], any(pieces[::3])
    braces = text.encode("utf-8", "surrogatepass").translate(None, _NOT_BRACES)
    flat = text[1:].replace("{", "}").split("}") if text else []  # text, connector, text, ...
    return flat[::2], flat[1::2], len(braces) % 2 == 1 or b"{{" in braces or b"}}" in braces


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
        # the statement reader's ids by sorted names and by text, per rule its head,
        # positive and negated ids, and the offset of its first piece and the texts,
        # connectors and shape of its pieces
        self.keys, self.ids, self.at, self.shape = {}, {}, 0, ""
        self.heads, self.positive, self.negated, self.texts, self.connectors = [], [], [], [], []
        self.pos = 0
        self.line, self.line_start = 1, 0  # where the last rule started
        self.rules: list[Rule] = []
        # the member texts of each distinct set-atom text the flat reader took,
        # its variables' names and, in the same order, its pattern (see `flat`);
        # per rule taken, its first piece and body shape, and its origin
        self.flat_texts: dict[str, list[str]] | None = None
        self.flat_names: dict[str, frozenset[str]] = {}
        self.patterns: list[tuple] = []
        self.rule_shapes: list[tuple[int, str]] | None = None
        self.rule_origins: list[str] | None = None
        self.horizon: tuple[str, str, int] | None = None  # its value's kind, text and offset
        self.consts: dict[str, Term] = {}
        # each distinct text of the parse, mapped to what was built from it
        self.terms: dict[str, Term] = {}
        self.atoms: dict[str, Atom] = {}
        # the flat reader's member and argument texts, each mapped to its
        # pattern (see `flat`), and each member text to its arguments' texts
        self.members: dict[str, tuple[str, tuple]] = {}
        self.member_args: dict[str, list[str]] = {}
        self.args: dict[str, object] = {}
        # NdAtom texts: (value, its variables' names, whether it is a comparison)
        self.set_atoms: dict[str, tuple[NdAtom, frozenset[str], bool]] = {}
        self.names: set[str] = set()  # variables of the NdAtom being read
        self.arities: dict[str, int] = {}
        self.arity_error = self.safety_error = None  # the first of each

    # -- tokens and positions -------------------------------------------------

    def scan(self) -> tuple[list[str], list[str], list[int]]:
        """The kind, text and start offset of every token, ending with EOF."""
        text = self.text
        # ["", skip, token] per match; the first empty token is the end
        pieces = _TOKEN.split(text)
        values = pieces[2::3]
        del values[values.index("") + 1 :]
        starts = list(accumulate(map(len, pieces), initial=0))[2 : 3 * len(values) : 3]
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
        end = starts[-2] + len(values[-2]) if len(values) > 1 else 0
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
        """Read the text as braced rules from the `_pieces` after its first
        comments and `#horizon`, whole or not at all. True when every
        set-atom holds names alone: then `keys`, `ids` and the rule lists
        hold the rules, and the pieces stay for `spell`. When a set-atom
        holds more than names, `build` reads every one into patterns and
        `check` records their arities; `flat` or `syntax` makes the rules.
        A text with a gap, a connector out of place or a set-atom it cannot
        read is refused with nothing written that the token parser reads."""
        text, ids, keys, joins = self.text, self.ids, self.keys, {}
        if self.whole is not None:  # read already
            return self.whole
        self.whole = False
        lead = _LEAD.match(text)
        at = self.at = lead.end()
        if at < len(text) and not _HEAD.match(text, at):  # past flat atoms: refused at once
            return False
        texts, connectors, gap = _pieces(text[at:])
        if gap:
            return False
        for connector in set(connectors):
            kind = _CONNECTOR.fullmatch(connector)
            kind = "".join(filter(None, kind.groups())) if kind else "?"
            joins[connector] = _JOINS.get(kind, ".?")
        shape = "".join(map(joins.__getitem__, connectors))
        if _RULES.fullmatch(shape) is None:  # not whole rules
            return False
        new = list(dict.fromkeys(texts))
        if (names := _keys(new)) is None:  # set-atoms past names: each built
            if (made := self.build(new, texts, shape)) is None:
                return False
        else:
            for key, sorted_names in zip(new, names):
                ids[key] = keys.setdefault(sorted_names, len(keys))
            heads, positive, negated = self.heads, self.positive, self.negated
            known, i = list(map(ids.__getitem__, texts)), 0
            for body in shape.split(".")[:-1]:
                heads.append(known[i])
                literals = known[i + 1 : i + 1 + len(body)]
                if len(body) < 2:  # a fact or one literal
                    positive.append(() if body == ";" else literals)
                    negated.append(literals if body == ";" else ())
                else:
                    positive.append(list(compress(literals, map(":,".__contains__, body))))
                    negated.append(list(compress(literals, map(";!".__contains__, body))))
                i += len(body) + 1
        self.texts, self.connectors, self.shape = texts, connectors, shape
        if lead[1] is not None:
            self.horizon = "INT", lead[1], lead.start(1)
        if names is None:
            self.check(made)
        self.whole = names is not None
        return self.whole

    def build(self, new: list[str], texts: list[str], shape: str) -> dict[str, list[str]] | None:
        """The member texts of each of the distinct texts `new`, read from
        one split of them all, when each holds flat atoms or one comparison
        and no comparison of the pieces `texts` is a head or under "not"
        in the rules of `shape`; None otherwise."""
        if "#const" in self.text:  # a name may stand for a constant's value
            return None
        parts = _MEMBER.split("}".join(new))  # [gap, separator, atom, name, arguments, comparison, ...]
        if any(parts[::9]):
            return None
        members, values = self.members, []
        for sep, key, pred, args, comparison, left, op, right, _ in zip(*[iter(parts[1:])] * 9):
            if not key:
                key, pred, args = comparison, op, f"{left},{right}"
            if key not in members and not self.member_of(key, pred, args):
                return None
            if sep == ",":
                keys.append(key)
            else:
                keys = [key]
                values.append(keys)
        if len(values) < len(new):  # an empty text
            return None
        made = dict(zip(new, values))
        comparisons = {key for key in made if "=" in key}
        for i in compress(count(), map(comparisons.__contains__, texts)):
            # a comparison and more, or in a head (the first's after the last ".") or under "not"
            if len(made[texts[i]]) > 1 or shape[i - 1] in ".;!":
                return None
        return made

    def member_of(self, key: str, pred: str, args: str | None) -> bool:
        """Whether a member's text, with its predicate (a name or a
        comparison operator) and its arguments' texts joined by ",", reads
        as `atom` reads it: then it goes into `members` as its pattern
        `(pred, args)` (see `flat`) and into `member_args` with its
        arguments' texts, and each argument into `args`."""
        if pred not in BUILTIN_PREDICATES:
            if pred == "not" or not (pred[1:2] if pred[0] == "-" else pred[0]).islower():
                return False
        texts = list(map(str.strip, args.split(","))) if args else []
        pattern = tuple(map(self.args.get, texts))  # the args read before
        if None in pattern:
            pattern = tuple([self.arg_of(text) if arg is None else arg
                             for text, arg in zip(texts, pattern)])
            if None in pattern:
                return False
        self.members[key] = pred, pattern
        self.member_args[key] = texts
        return True

    def arg_of(self, text: str):
        """The pattern arg of an argument's text, as `term` reads it, put into
        `args`: a variable's name, `(name, offset)` for a sum, a name, or an
        int; None for a word that is no name, variable or integer, or a sum
        on no variable."""
        first = text[0]
        if "+" in text:
            base, offset = text.split("+")
            base = base.rstrip()
            if not base[0].isupper():
                return None
            made = base, int(offset)
        elif first.isupper() or text != "not" and (text[1:2] if first == "-" else first).islower():
            made = text
        elif text[first == "-" :].isdecimal():
            made = int(text)
        else:
            return None
        self.args[text] = made
        return made

    def check(self, made: dict[str, list[str]]) -> None:
        """Keep the member texts `made` of each distinct text `read` took in
        `flat_texts`, their patterns in `patterns` (see `flat`) and their
        variables' names in `flat_names`, recording arities and the first
        arity fault as `set_atom` does."""
        self.flat_texts = flat = made
        members, names, clash = self.members, self.flat_names, self.arity_error is None
        patterns = self.patterns
        for key, keys in flat.items():
            found = (members[keys[0]],) if len(keys) == 1 \
                else tuple(dict.fromkeys(map(members.__getitem__, keys)))
            variables = []
            if not key.islower():  # an upper-case letter
                for _, args in found:
                    for arg in args:
                        if type(arg) is tuple:
                            variables.append(arg[0])
                        elif type(arg) is str and arg[0].isupper():
                            variables.append(arg)
            names[key] = frozenset(variables) if variables else _NO_NAMES
            patterns.append((found, names[key], "=" in key))
            if clash and "=" not in key:  # arities as `set_atom` records them
                if len(found) > 1:
                    found = sorted(found, key=lambda member: (member[0], len(member[1])))
                if fault := self.clash(found):
                    origin = self.origins()[self.shape.count(".", 0, self.texts.index(key))]
                    self.arity_error = ProgramError(f"{fault} ({origin})")
                    clash = False

    def syntax(self) -> list[Rule]:
        """The rules the flat reader took, for the library's `parse`,
        checked for safety, their set-atom texts' values built as `set_atom`
        builds them, each distinct argument and member text once."""
        terms, atoms, names, made = {}, {}, self.flat_names, {}
        for text, arg in self.args.items():  # each term as `term` builds it
            if text in terms:  # a sum's variable, put in before
                continue
            if type(arg) is str:
                terms[text] = Variable(arg) if arg[0].isupper() else Constant(arg)
            elif type(arg) is int:
                terms[text] = Integer(arg)
            else:
                base = terms.get(arg[0]) or terms.setdefault(arg[0], Variable(arg[0]))
                terms[text] = Sum(base, arg[1])
        term = terms.__getitem__
        for (key, (pred, _)), texts in zip(self.members.items(), self.member_args.values()):
            if key not in atoms:
                atoms[key] = Atom(pred, tuple(map(term, texts)))
        for key, keys in self.flat_texts.items():
            made[key] = NdAtom((atoms[keys[0]],)) if len(keys) == 1 \
                else canonicalize(map(atoms.__getitem__, keys))
        return self.walk(made, names if any(names.values()) else None)

    def flat(self) -> tuple[list[tuple], list[tuple], int | None] | None:
        """The set-atom patterns and rules of a text the flat reader took
        whole, with variables or without, and its horizon; None for a text
        it did not take. A set-atom's pattern is its distinct members as
        `(pred, args)`, each arg a variable's name, `(name, offset)` for a
        sum, a name or an int, with its variables' names and whether it is a
        comparison (see the grounder). A rule is (head, body, negated,
        origin), its set-atoms the indices of their patterns. The rules are
        checked for safety, and the load faults raised as `parse` raises
        them."""
        names = self.flat_names
        if self.flat_texts is None:
            return None
        texts, rules, checking = self.texts, [], any(names.values())  # no variable: all safe
        index = dict(zip(self.flat_texts, count()))
        known = list(map(index.__getitem__, texts))
        for (i, body), (negated, origin) in zip(self.statements(), self.written()):
            rules.append((known[i], tuple(known[i + 1 : i + 1 + len(body)]), negated, origin))
            if checking and (names[texts[i]] or ";" in body or "!" in body):
                self.safe(names, texts[i], texts[i + 1 : i + 1 + len(body)], body, origin)
                checking = self.safety_error is None  # the first fault is raised
        horizon = self.resolve_horizon()
        for fault in (self.arity_error, self.safety_error):
            if fault is not None:
                raise fault
        return self.patterns, rules, horizon

    def statements(self) -> list[tuple[int, str]]:
        """Per rule `read` took, the index of its first piece and its body's
        shape."""
        if self.rule_shapes is None:
            found, i = [], 0
            for body in self.shape.split(".")[:-1]:
                found.append((i, body))
                i += len(body) + 1
            self.rule_shapes = found
        return self.rule_shapes

    def origins(self) -> list[str]:
        """The origin of each rule `read` took, from the pieces' lengths."""
        if self.rule_origins is None:
            # each piece's offset, less the two braces of each piece before it
            starts = list(accumulate(map(add, map(len, self.texts), map(len, self.connectors)),
                                     initial=self.at))
            firsts = [starts[i] + 2 * i for i, _ in self.statements()]
            self.rule_origins = list(map(self.origin, firsts))
        return self.rule_origins

    def written(self) -> Iterator[tuple[tuple[bool, ...], str]]:
        """Per rule `read` took, its body literals' signs and its origin."""
        shapes = [body for _, body in self.statements()]
        signs = {body: tuple(map(_NEGATED.__getitem__, body)) for body in set(shapes)}
        return zip(map(signs.__getitem__, shapes), self.origins())

    def walk(self, made: dict[str, NdAtom], names: dict[str, frozenset[str]] | None = None
             ) -> list[Rule]:
        """The rules `read` took, each piece's NdAtom `made[text]`; with the
        variables' `names` of each text, each rule is checked for safety."""
        texts, rules = self.texts, []
        for (i, body), (signs, origin) in zip(self.statements(), self.written()):
            keys = texts[i + 1 : i + 1 + len(body)]
            literals = tuple(map(Literal, map(made.__getitem__, keys), signs)) if body else ()
            rules.append(Rule(made[texts[i]], literals, origin))
            if names and self.safety_error is None and (names[texts[i]] or ";" in body
                                                        or "!" in body):
                self.safe(names, texts[i], keys, body, origin)
        return rules

    def safe(self, names, head, literals: list, body: str, origin: str) -> None:
        """Check the rule at `origin` for safety as `rule` does, given its
        head and body literals as keys of `names`, which holds each one's
        variables' names, and its body's shape."""
        unsafe, bound = names[head], set()
        for key, join in zip(literals, body):
            if join in ";!":
                unsafe = unsafe | names[key]
            else:
                bound.update(names[key])
        self.unsafe(unsafe, bound, origin)

    def spell(self) -> list[Rule]:
        """The rules `read` took over names as `Rule`s, one `NdAtom` per
        distinct text."""
        keys = list(self.keys)
        atoms = {name: Atom(name) for name in dict.fromkeys(chain.from_iterable(keys))}
        made = {key: NdAtom(tuple(map(atoms.__getitem__, keys[i]))) for key, i in self.ids.items()}
        return self.walk(made)

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
        """The program: the rules `read` takes whole, spelled or built from
        its patterns; of any other text, the token parser's, which reads it
        all and reports every error."""
        if self.read():
            self.rules = self.spell()
        elif self.flat_texts is not None:
            self.rules = self.syntax()
        else:
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
        if self.arity_error is None and not builtin and (
                clash := self.clash([(atom.pred, atom.args) for atom in value.atoms])):
            self.arity_error = ProgramError(f"{clash} ({origin})")
        made = self.set_atoms[key] = value, frozenset(names), builtin
        return made

    def clash(self, members) -> str | None:
        """Record the arity of each predicate of `members`, atoms or their
        `(pred, args)` patterns, in their order, up to the first used before
        at another; that fault's message, less origin."""
        for pred, args in members:
            seen = self.arities.setdefault(pred, len(args))
            if seen != len(args):
                return f"predicate {pred!r} used with arity {len(args)} and {seen}"
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


def written(text: str, files: tuple[tuple[int, str], ...], at: int, shape: str
            ) -> Iterator[tuple[tuple[bool, ...], str]]:
    """`_Parser.written` of the rules `read` took from `text`, from the offset
    `at` after its lead and its `shape` alone: the pieces are split again, so
    a ground program holding this form holds nothing else of the reader."""
    parser = _Parser(text, files)
    parser.at, parser.shape = at, shape
    parser.texts, parser.connectors, _ = _pieces(text[at:])
    return parser.written()


def parse_files(files: list[tuple[str, str]]) -> Program:
    """Parse the (path, text) of each file, in order, as one program (see `reader`)."""
    return reader(files).parse()


def parse_rule(text: str) -> Rule:
    """Parse a single rule; convenience for tests and small programs."""
    program = parse_program(text)
    if len(program.rules) != 1:
        raise ParseError(f"expected exactly one rule, found {len(program.rules)}")
    return program.rules[0]
