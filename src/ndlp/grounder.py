"""Grounding: instantiate variables, evaluate arithmetic and comparisons.

Time variables (T, T0, T1, ...) range over 0..horizon; every other variable
ranges over the set of constants occurring literally in the program. Sums
like T+1 are evaluated after substitution, so heads may mention time points
one past the horizon. Ground instances whose built-in comparison evaluates
false are dropped; true comparisons are removed from the body.

All semantics downstream operate over the *restricted* non-deterministic
base: the NdAtoms that occur somewhere in the ground rules. NdAtoms outside
it are false (total semantics) or negative (well-founded) by convention and
never enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterable

from .compiled import CompiledProgram
from .errors import GroundingError
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
    sort_nd_atoms,
)


@dataclass(frozen=True)
class GroundProgram:
    """A variable-free program plus its restricted base and head subset."""

    rules: tuple[Rule, ...]
    base: tuple[NdAtom, ...]
    heads: tuple[NdAtom, ...]

    @cached_property
    def base_set(self) -> frozenset[NdAtom]:
        return frozenset(self.base)

    @cached_property
    def heads_set(self) -> frozenset[NdAtom]:
        return frozenset(self.heads)

    @cached_property
    def compiled(self) -> CompiledProgram:
        """The int form the solvers run on, built on first use so that
        grounding alone never pays for it."""
        return CompiledProgram(self.rules, self.base)

    def is_positive(self) -> bool:
        return all(r.is_positive() for r in self.rules)

    def __str__(self) -> str:
        return "".join(f"{rule}\n" for rule in self.rules)


def restricted_base(rules: Iterable[Rule]) -> tuple[tuple[NdAtom, ...], tuple[NdAtom, ...]]:
    """All NdAtoms occurring in the rules, and the subset occurring as heads."""
    base: set[NdAtom] = set()
    heads: set[NdAtom] = set()
    for rule in rules:
        heads.add(rule.head)
        base.add(rule.head)
        for lit in rule.body:
            base.add(lit.atom)
    return sort_nd_atoms(base), sort_nd_atoms(heads)


def make_ground_program(rules: Iterable[Rule]) -> GroundProgram:
    """Wrap already-ground rules with their restricted base."""
    rules = tuple(rules)
    base, heads = restricted_base(rules)
    return GroundProgram(rules=rules, base=base, heads=heads)


def program_constants(program: Program) -> tuple[Term, ...]:
    """Constants (symbols and integers) occurring literally in the program."""
    found: set[Term] = set()

    def walk(term: Term) -> None:
        if isinstance(term, (Constant, Integer)):
            found.add(term)
        elif isinstance(term, Compound):
            for arg in term.args:
                walk(arg)
        elif isinstance(term, Sum):
            walk(term.base)

    for rule in program.rules:
        for nd in [rule.head] + [lit.atom for lit in rule.body]:
            for atom in nd:
                for arg in atom.args:
                    walk(arg)
    return tuple(sorted(found, key=lambda t: t.key))


def _substitute(term: Term, env: dict[str, Term]) -> Term | None:
    """Apply an environment and evaluate sums. None marks an instance whose
    arithmetic is not defined (sum base bound to a symbol)."""
    if isinstance(term, Variable):
        return env[term.name]
    if isinstance(term, Compound):
        args = []
        for arg in term.args:
            value = _substitute(arg, env)
            if value is None:
                return None
            args.append(value)
        return Compound(term.name, tuple(args))
    if isinstance(term, Sum):
        base = _substitute(term.base, env)
        if not isinstance(base, Integer):
            return None
        return Integer(base.value + term.offset)
    return term


def _ground_atom(atom: Atom, env: dict[str, Term]) -> Atom | None:
    args = []
    for arg in atom.args:
        value = _substitute(arg, env)
        if value is None:
            return None
        args.append(value)
    return Atom(atom.pred, tuple(args))


def _ground_instance(rule: Rule, env: dict[str, Term]) -> Rule | None:
    """One ground instance, or None when arithmetic fails or a comparison is
    false. True comparisons are removed from the body."""
    head_atoms = [_ground_atom(a, env) for a in rule.head]
    if any(a is None for a in head_atoms):
        return None
    body: list[Literal] = []
    for lit in rule.body:
        atoms = [_ground_atom(a, env) for a in lit.atom]
        if any(a is None for a in atoms):
            return None
        if len(atoms) == 1 and atoms[0].is_builtin():
            left, right = atoms[0].args
            holds = (left == right) if atoms[0].pred == "==" else (left != right)
            if not holds:
                return None
            continue
        body.append(Literal(canonicalize(atoms), lit.negated))
    return Rule(head=canonicalize(head_atoms), body=tuple(body), origin=rule.origin)


def ground(program: Program, horizon: int | None = None) -> GroundProgram:
    """Replace every rule by all its ground instances.

    `horizon` overrides the program's own `#horizon`. Missing horizon with
    time variables present, or a non-time variable with no constants to
    range over, is an error.
    """
    if horizon is None:
        horizon = program.horizon
    constants = program_constants(program)
    time_domain: tuple[Term, ...] = ()
    if horizon is not None:
        if horizon < 0:
            raise GroundingError("horizon must be non-negative")
        time_domain = tuple(Integer(t) for t in range(horizon + 1))

    ground_rules: list[Rule] = []
    for rule in program.rules:
        variables = sorted(rule.variables())
        domains: list[tuple[Term, ...]] = []
        for name in variables:
            if is_time_variable(name):
                if horizon is None:
                    raise GroundingError(
                        f"time variable {name} needs a horizon; "
                        f"pass --horizon or add #horizon ({rule.origin})"
                    )
                domains.append(time_domain)
            else:
                if not constants:
                    raise GroundingError(
                        f"variable {name} has no constants to range over ({rule.origin})"
                    )
                domains.append(constants)
        seen: set[Rule] = set()
        for values in product(*domains):
            env = dict(zip(variables, values))
            instance = _ground_instance(rule, env)
            if instance is not None and instance not in seen:
                seen.add(instance)
                ground_rules.append(instance)
    return make_ground_program(ground_rules)
