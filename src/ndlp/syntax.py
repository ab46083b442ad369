"""Core syntax: terms, atoms, non-deterministic atoms, rules, programs.

A non-deterministic atom (NdAtom) is a finite set of ordinary atoms treated
as a single unit of truth: asserting it means exactly one of its members
holds in each world. NdAtoms are stored in a canonical sorted,
duplicate-free form, so set equality is plain structural equality
everywhere else in the engine, and every output order is reproducible.

All values here are immutable after construction and safe to share.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
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

@dataclass(frozen=True)
class Constant:
    """A symbol constant; a leading '-' in the name spells classical negation."""

    name: str

    @cached_property
    def key(self):
        return (1, self.name)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Integer:
    """A signed machine integer constant."""

    value: int

    @cached_property
    def key(self):
        return (0, self.value)

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Variable:
    """A capitalized symbol, replaced during grounding."""

    name: str

    @cached_property
    def key(self):
        return (2, self.name)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Compound:
    """A function symbol applied to argument terms."""

    name: str
    args: tuple["Term", ...]

    @cached_property
    def key(self):
        return (3, self.name, len(self.args), tuple(a.key for a in self.args))

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class Sum:
    """A term plus a positive integer offset, e.g. T+1.

    Evaluated away during grounding; never part of a ground term.
    """

    base: "Term"
    offset: int

    @cached_property
    def key(self):
        return (4, self.base.key, self.offset)

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

@dataclass(frozen=True)
class Atom:
    """A predicate applied to terms; the unit the Herbrand base is made of."""

    pred: str
    args: tuple[Term, ...] = ()

    def __post_init__(self):
        if not self.pred:
            raise ProgramError("empty predicate name")

    @cached_property
    def key(self):
        return (self.pred, len(self.args), tuple(a.key for a in self.args))

    def is_builtin(self) -> bool:
        return self.pred in BUILTIN_PREDICATES

    def variables(self) -> set[str]:
        names: set[str] = set()
        for arg in self.args:
            names.update(term_variables(arg))
        return names

    def __str__(self) -> str:
        if self.is_builtin():
            return f"{self.args[0]} {self.pred} {self.args[1]}"
        if not self.args:
            return self.pred
        return f"{self.pred}({', '.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class NdAtom:
    """A canonical non-empty set of atoms, stored sorted and duplicate-free.

    Construct through :func:`canonicalize`; the constructor only checks that
    the given tuple is already canonical.
    """

    atoms: tuple[Atom, ...]

    def __post_init__(self):
        if not self.atoms:
            raise ProgramError("empty non-deterministic atom")
        keys = [a.key for a in self.atoms]
        if any(k2 <= k1 for k1, k2 in zip(keys, keys[1:])):
            raise ProgramError(
                "non-canonical atom sequence; build NdAtoms with canonicalize()"
            )

    @cached_property
    def key(self):
        return tuple(a.key for a in self.atoms)

    def __iter__(self) -> Iterator[Atom]:
        return iter(self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)

    def __str__(self) -> str:
        return "{" + ", ".join(str(a) for a in self.atoms) + "}"


def canonicalize(atoms: Iterable[Atom]) -> NdAtom:
    """Sort and deduplicate a list of atoms into a canonical NdAtom.

    Idempotent: canonicalizing the atoms of an NdAtom returns an equal value.
    Raises on an empty input.
    """
    unique: dict = {}
    for atom in atoms:
        unique.setdefault(atom.key, atom)
    if not unique:
        raise ProgramError("empty non-deterministic atom")
    ordered = tuple(unique[k] for k in sorted(unique))
    return NdAtom(ordered)


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
    return tuple(sorted(nd_atoms, key=lambda a: a.key))


def interpretation_key(nd_atoms: Iterable[NdAtom]):
    """Total order on interpretations: the sorted tuple of member keys."""
    return tuple(sorted(a.key for a in nd_atoms))
