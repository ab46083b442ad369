"""Core syntax: terms, atoms, non-deterministic atoms, rules, programs.

A non-deterministic atom (NdAtom) is a finite set of ordinary atoms treated
as a single unit of truth: asserting it means exactly one of its members
holds in each world. NdAtoms are stored in a canonical sorted,
duplicate-free form, so set equality is plain structural equality
everywhere else in the engine, and every output order is reproducible.

All values here are immutable after construction and safe to share. Each
term, atom and NdAtom computes its sort key and its hash once, when it is
built, from those of its parts, and each atom also renders its text then;
hashing and printing them later re-walk no term, and sorting compares the
stored keys. There is one class per kind and no intern table: equal values
built apart stay distinct objects, and equality is structural; the parser
shares the value of a repeated text only within one parse.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from operator import attrgetter, lt
from typing import Iterable, Iterator, Union

from .errors import ProgramError

# Predicate names reserved for built-in comparisons. They may only occur as
# the sole member of a positive body NdAtom and are resolved while grounding.
BUILTIN_PREDICATES = ("!=", "==")

_TIME_VAR_RE = re.compile(r"T[0-9]*")


def is_time_variable(name: str) -> bool:
    """True for T, T0, T1, ... which range over the integer time domain."""
    return _TIME_VAR_RE.fullmatch(name) is not None


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

# Each value sets its `key` (a total order across kinds) and `_hash` in
# `__post_init__`. A stored hash is only valid in the process that computed
# it (str hashes are salted per process), so `__reduce__` pickles the
# fields alone and unpickling rebuilds the value through its constructor.

_set = object.__setattr__
_by_key = attrgetter("key")

_DERIVED = dict(init=False, repr=False, compare=False)


def _store(value, key: tuple, parts: tuple) -> None:
    """Set a value's key, and its hash from those of its parts."""
    _set(value, "key", key)
    _set(value, "_hash", hash(parts))


def _stored_hash(value) -> int:
    return value._hash


def _rebuilt(value):
    return type(value), tuple(getattr(value, f.name) for f in fields(value) if f.init)


@dataclass(frozen=True, slots=True)
class Constant:
    """A symbol constant; a leading '-' in the name spells classical negation."""

    name: str
    key: tuple = field(**_DERIVED)
    _hash: int = field(**_DERIVED)

    def __post_init__(self):
        key = (1, self.name)
        _store(self, key, key)

    __hash__ = _stored_hash
    __reduce__ = _rebuilt

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Integer:
    """A signed machine integer constant."""

    value: int
    key: tuple = field(**_DERIVED)
    _hash: int = field(**_DERIVED)

    def __post_init__(self):
        key = (0, self.value)
        _store(self, key, key)

    __hash__ = _stored_hash
    __reduce__ = _rebuilt

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True, slots=True)
class Variable:
    """A capitalized symbol, replaced during grounding."""

    name: str
    key: tuple = field(**_DERIVED)
    _hash: int = field(**_DERIVED)

    def __post_init__(self):
        key = (2, self.name)
        _store(self, key, key)

    __hash__ = _stored_hash
    __reduce__ = _rebuilt

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Compound:
    """A function symbol applied to argument terms."""

    name: str
    args: tuple["Term", ...]
    key: tuple = field(**_DERIVED)
    _hash: int = field(**_DERIVED)

    def __post_init__(self):
        name, args = self.name, self.args
        _store(self, (3, name, len(args), tuple(map(_by_key, args))), (3, name, args))

    __hash__ = _stored_hash
    __reduce__ = _rebuilt

    def __str__(self) -> str:
        return f"{self.name}({', '.join(map(str, self.args))})"


@dataclass(frozen=True, slots=True)
class Sum:
    """A term plus a positive integer offset, e.g. T+1.

    Evaluated away during grounding; never part of a ground term.
    """

    base: "Term"
    offset: int
    key: tuple = field(**_DERIVED)
    _hash: int = field(**_DERIVED)

    def __post_init__(self):
        _store(self, (4, self.base.key, self.offset), (4, self.base, self.offset))

    __hash__ = _stored_hash
    __reduce__ = _rebuilt

    def __str__(self) -> str:
        return f"{self.base}+{self.offset}"


Term = Union[Constant, Integer, Variable, Compound, Sum]


def term_variables(term: Term) -> Iterator[str]:
    """Yield the names of all variables occurring in a term."""
    if isinstance(term, Variable):
        yield term.name
    elif isinstance(term, Compound):
        for arg in term.args:
            yield from term_variables(arg)
    elif isinstance(term, Sum):
        yield from term_variables(term.base)


# ---------------------------------------------------------------------------
# Atoms and non-deterministic atoms
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Atom:
    """A predicate applied to terms; the unit the Herbrand base is made of.
    Its text, `text`, is rendered once, at construction."""

    pred: str
    args: tuple[Term, ...] = ()
    key: tuple = field(**_DERIVED)
    _hash: int = field(**_DERIVED)
    text: str = field(**_DERIVED)

    def __post_init__(self):
        pred, args = self.pred, self.args
        if not pred:
            raise ProgramError("empty predicate name")
        _store(self, (pred, len(args), tuple(map(_by_key, args))), (pred, args))
        if pred in BUILTIN_PREDICATES:
            text = f"{args[0]} {pred} {args[1]}"
        elif args:
            text = f"{pred}({', '.join(map(str, args))})"
        else:
            text = pred
        _set(self, "text", text)

    __hash__ = _stored_hash
    __reduce__ = _rebuilt

    def is_builtin(self) -> bool:
        return self.pred in BUILTIN_PREDICATES

    def variables(self) -> set[str]:
        names: set[str] = set()
        for arg in self.args:
            names.update(term_variables(arg))
        return names

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True, slots=True)
class NdAtom:
    """A canonical non-empty set of atoms, stored sorted and duplicate-free.

    Construct through :func:`canonicalize`; the constructor only checks that
    the given tuple is already canonical.
    """

    atoms: tuple[Atom, ...]
    key: tuple = field(**_DERIVED)
    _hash: int = field(**_DERIVED)

    def __post_init__(self):
        if not self.atoms:
            raise ProgramError("empty non-deterministic atom")
        key = tuple(map(_by_key, self.atoms))
        if not all(map(lt, key, key[1:])):
            raise ProgramError(
                "non-canonical atom sequence; build NdAtoms with canonicalize()"
            )
        _store(self, key, self.atoms)

    __hash__ = _stored_hash
    __reduce__ = _rebuilt

    def __iter__(self) -> Iterator[Atom]:
        return iter(self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)

    def __str__(self) -> str:
        return "{" + ", ".join(a.text for a in self.atoms) + "}"


def canonicalize(atoms: Iterable[Atom]) -> NdAtom:
    """Sort and deduplicate a list of atoms into a canonical NdAtom.

    Idempotent: canonicalizing the atoms of an NdAtom returns an equal value.
    Raises on an empty input.
    """
    unique = set(atoms)
    if not unique:
        raise ProgramError("empty non-deterministic atom")
    return NdAtom(tuple(sorted(unique, key=_by_key)))


# ---------------------------------------------------------------------------
# Literals, rules, programs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Literal:
    """A body element: an NdAtom, possibly under negation as failure."""

    atom: NdAtom
    negated: bool = False

    def __str__(self) -> str:
        return f"not {self.atom}" if self.negated else str(self.atom)


@dataclass(frozen=True)
class Rule:
    """head :- body. An empty body makes the rule a fact.

    `origin` is a diagnostic source tag and does not take part in equality,
    so re-parsing printed output yields structurally identical rules.
    """

    head: NdAtom
    body: tuple[Literal, ...] = ()
    origin: str | None = field(default=None, compare=False)

    def is_fact(self) -> bool:
        return not self.body

    def is_positive(self) -> bool:
        return all(not lit.negated for lit in self.body)

    def positive_body(self) -> Iterator[NdAtom]:
        return (lit.atom for lit in self.body if not lit.negated)

    def negative_body(self) -> Iterator[NdAtom]:
        return (lit.atom for lit in self.body if lit.negated)

    def variables(self) -> set[str]:
        names: set[str] = set()
        for atom in self.head:
            names.update(atom.variables())
        for lit in self.body:
            for atom in lit.atom:
                names.update(atom.variables())
        return names

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        return f"{self.head} :- {', '.join(str(lit) for lit in self.body)}."


@dataclass(frozen=True)
class Program:
    """A rule list plus directives. `#const` definitions are applied at parse
    time, so only the horizon survives as a directive."""

    rules: tuple[Rule, ...]
    horizon: int | None = None

    def is_positive(self) -> bool:
        return all(r.is_positive() for r in self.rules)

    def __str__(self) -> str:
        return program_to_str(self)


def program_to_str(program: Program) -> str:
    """Render a program in the input syntax, one rule per line."""
    lines = []
    if program.horizon is not None:
        lines.append(f"#horizon {program.horizon}.")
    lines.extend(str(rule) for rule in program.rules)
    return "\n".join(lines) + "\n"


def sort_nd_atoms(nd_atoms: Iterable[NdAtom]) -> tuple[NdAtom, ...]:
    """Deterministic order for any collection of NdAtoms."""
    return tuple(sorted(nd_atoms, key=_by_key))
