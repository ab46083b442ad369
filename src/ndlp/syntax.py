"""Core syntax: terms, atoms, non-deterministic atoms, rules, programs.

A non-deterministic atom (NdAtom) is a finite set of ordinary atoms treated
as a single unit of truth: asserting it means exactly one of its members
holds in each world. NdAtoms are stored in a canonical sorted,
duplicate-free form, so set equality is plain structural equality
everywhere else in the engine, and every output order is reproducible.

All values here are immutable after construction and safe to share. Each
is built in one step, by a hand-written `__init__` that stores every slot
once. Each term, atom and NdAtom computes its sort key and its hash then,
from those of its parts, and each atom also renders its text; hashing and
printing them later re-walk no term, and sorting compares the stored keys.
There is one class per kind and no intern table: equal values
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

# Each value is built in one step: its `__init__` computes `key` (a total
# order across kinds), `_hash` and, for an atom, `text`, and stores every
# slot through the slot descriptor's own `__set__`, bound once below each
# class. That skips the frozen `__setattr__` as `object.__setattr__` does,
# without looking the slot up by name. A stored hash is only valid in the
# process that computed it (str hashes are salted per process), so
# `__reduce__` pickles the fields alone and unpickling rebuilds the value
# through its constructor.

_by_key = attrgetter("key")

_DERIVED = dict(init=False, repr=False, compare=False)


def _setters(cls) -> list:
    """The `__set__` of each field's slot descriptor, in field order."""
    return [vars(cls)[f.name].__set__ for f in fields(cls)]


def _stored_hash(value) -> int:
    return value._hash


def _rebuilt(value):
    return type(value), tuple(getattr(value, f.name) for f in fields(value) if f.init)


@dataclass(frozen=True, slots=True, init=False)
class Constant:
    """A symbol constant; a leading '-' in the name spells classical negation."""

    name: str
    key: tuple = field(**_DERIVED)
    _hash: int = field(**_DERIVED)

    def __init__(self, name: str):
        key = (1, name)
        _constant_name(self, name)
        _constant_key(self, key)
        _constant_hash(self, hash(key))

    __hash__ = _stored_hash
    __reduce__ = _rebuilt

    def __str__(self) -> str:
        return self.name


_constant_name, _constant_key, _constant_hash = _setters(Constant)


@dataclass(frozen=True, slots=True, init=False)
class Integer:
    """A signed machine integer constant."""

    value: int
    key: tuple = field(**_DERIVED)
    _hash: int = field(**_DERIVED)

    def __init__(self, value: int):
        key = (0, value)
        _integer_value(self, value)
        _integer_key(self, key)
        _integer_hash(self, hash(key))

    __hash__ = _stored_hash
    __reduce__ = _rebuilt

    def __str__(self) -> str:
        return str(self.value)


_integer_value, _integer_key, _integer_hash = _setters(Integer)


@dataclass(frozen=True, slots=True, init=False)
class Variable:
    """A capitalized symbol, replaced during grounding."""

    name: str
    key: tuple = field(**_DERIVED)
    _hash: int = field(**_DERIVED)

    def __init__(self, name: str):
        key = (2, name)
        _variable_name(self, name)
        _variable_key(self, key)
        _variable_hash(self, hash(key))

    __hash__ = _stored_hash
    __reduce__ = _rebuilt

    def __str__(self) -> str:
        return self.name


_variable_name, _variable_key, _variable_hash = _setters(Variable)


@dataclass(frozen=True, slots=True, init=False)
class Compound:
    """A function symbol applied to argument terms."""

    name: str
    args: tuple["Term", ...]
    key: tuple = field(**_DERIVED)
    _hash: int = field(**_DERIVED)

    def __init__(self, name: str, args: tuple["Term", ...]):
        _compound_name(self, name)
        _compound_args(self, args)
        _compound_key(self, (3, name, len(args), tuple(map(_by_key, args))))
        _compound_hash(self, hash((3, name, args)))

    __hash__ = _stored_hash
    __reduce__ = _rebuilt

    def __str__(self) -> str:
        return f"{self.name}({', '.join(map(str, self.args))})"


_compound_name, _compound_args, _compound_key, _compound_hash = _setters(Compound)


@dataclass(frozen=True, slots=True, init=False)
class Sum:
    """A term plus a positive integer offset, e.g. T+1.

    Evaluated away during grounding; never part of a ground term.
    """

    base: "Term"
    offset: int
    key: tuple = field(**_DERIVED)
    _hash: int = field(**_DERIVED)

    def __init__(self, base: "Term", offset: int):
        _sum_base(self, base)
        _sum_offset(self, offset)
        _sum_key(self, (4, base.key, offset))
        _sum_hash(self, hash((4, base, offset)))

    __hash__ = _stored_hash
    __reduce__ = _rebuilt

    def __str__(self) -> str:
        return f"{self.base}+{self.offset}"


_sum_base, _sum_offset, _sum_key, _sum_hash = _setters(Sum)


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

@dataclass(frozen=True, slots=True, init=False)
class Atom:
    """A predicate applied to terms; the unit the Herbrand base is made of.
    Its text, `text`, is rendered once, at construction."""

    pred: str
    args: tuple[Term, ...] = ()
    key: tuple = field(**_DERIVED)
    _hash: int = field(**_DERIVED)
    text: str = field(**_DERIVED)

    def __init__(self, pred: str, args: tuple[Term, ...] = ()):
        if not pred:
            raise ProgramError("empty predicate name")
        if pred in BUILTIN_PREDICATES:
            text = f"{args[0]} {pred} {args[1]}"
        elif args:
            text = f"{pred}({', '.join(map(str, args))})"
        else:
            text = pred
        _atom_pred(self, pred)
        _atom_args(self, args)
        _atom_key(self, (pred, len(args), tuple(map(_by_key, args))))
        _atom_hash(self, hash((pred, args)))
        _atom_text(self, text)

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


_atom_pred, _atom_args, _atom_key, _atom_hash, _atom_text = _setters(Atom)


@dataclass(frozen=True, slots=True, init=False)
class NdAtom:
    """A canonical non-empty set of atoms, stored sorted and duplicate-free.

    Construct through :func:`canonicalize`; the constructor only checks that
    the given tuple is already canonical.
    """

    atoms: tuple[Atom, ...]
    key: tuple = field(**_DERIVED)
    _hash: int = field(**_DERIVED)

    def __init__(self, atoms: tuple[Atom, ...]):
        if not atoms:
            raise ProgramError("empty non-deterministic atom")
        key = tuple(map(_by_key, atoms))
        if not all(map(lt, key, key[1:])):
            raise ProgramError(
                "non-canonical atom sequence; build NdAtoms with canonicalize()"
            )
        _nd_atoms(self, atoms)
        _nd_key(self, key)
        _nd_hash(self, hash(atoms))

    __hash__ = _stored_hash
    __reduce__ = _rebuilt

    def __iter__(self) -> Iterator[Atom]:
        return iter(self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)

    def __str__(self) -> str:
        return "{" + ", ".join(a.text for a in self.atoms) + "}"


_nd_atoms, _nd_key, _nd_hash = _setters(NdAtom)


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

@dataclass(frozen=True, slots=True, init=False)
class Literal:
    """A body element: an NdAtom, possibly under negation as failure."""

    atom: NdAtom
    negated: bool = False

    def __init__(self, atom: NdAtom, negated: bool = False):
        _literal_atom(self, atom)
        _literal_negated(self, negated)

    __reduce__ = _rebuilt

    def __str__(self) -> str:
        return f"not {self.atom}" if self.negated else str(self.atom)


_literal_atom, _literal_negated = _setters(Literal)


@dataclass(frozen=True, slots=True, init=False)
class Rule:
    """head :- body. An empty body makes the rule a fact.

    `origin` is a diagnostic source tag and does not take part in equality,
    so re-parsing printed output yields structurally identical rules.
    """

    head: NdAtom
    body: tuple[Literal, ...] = ()
    origin: str | None = field(default=None, compare=False)

    def __init__(self, head: NdAtom, body: tuple[Literal, ...] = (), origin: str | None = None):
        _rule_head(self, head)
        _rule_body(self, body)
        _rule_origin(self, origin)

    __reduce__ = _rebuilt

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


_rule_head, _rule_body, _rule_origin = _setters(Rule)


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
