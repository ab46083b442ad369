"""Metamorphic checks of the grounder at the benchmark generators' sizes.

Shuffling the rule order and renaming constants and variables injectively
must give the same ground program up to that renaming: the same set of
rules and a base of the same size. Time variables are renamed to time
variables and integers are kept, so arithmetic and the horizon read the
same. The renaming moves every constant's rank and every variable's place
in the sorted product order, so the instances come out in another order
and are compared as sets.
"""

from __future__ import annotations

import random

import pytest

from ndlp import ground, parse_program
from ndlp.corpus import corpus_text
from ndlp.syntax import (
    Atom,
    Compound,
    Constant,
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

from conftest import closure_chain, random_nonground_program
from oracles import program_constants

LARGE = {
    "closure chain of 30 edges": (closure_chain(30), None),
    "robot h=2": (corpus_text("robot.ndlp"), 2),
    "robot h=3": (corpus_text("robot.ndlp"), 3),
}
SEEDS = range(40000, 40200)


class Renaming:
    """An injective renaming of a program's symbol constants and variables,
    shuffled by `rng`."""

    def __init__(self, program: Program, rng: random.Random):
        constants = [t for t in program_constants(program) if isinstance(t, Constant)]
        fresh = [Constant(f"k{i}") for i in range(len(constants))]
        rng.shuffle(fresh)
        self.terms: dict[Term, Term] = dict(zip(constants, fresh))
        names = sorted({name for rule in program.rules for name in rule.variables()})
        for time in (True, False):
            old = [name for name in names if is_time_variable(name) == time]
            new = [f"T{i}" if time else f"V{i}" for i in range(len(old))]
            rng.shuffle(new)
            self.terms.update((Variable(a), Variable(b)) for a, b in zip(old, new))

    def term(self, term: Term) -> Term:
        if isinstance(term, Compound):
            return Compound(term.name, tuple(map(self.term, term.args)))
        if isinstance(term, Sum):
            return Sum(self.term(term.base), term.offset)
        return self.terms.get(term, term)

    def nd(self, nd: NdAtom) -> NdAtom:
        return canonicalize(Atom(atom.pred, tuple(map(self.term, atom.args))) for atom in nd)

    def rule(self, rule: Rule) -> Rule:
        body = tuple(Literal(self.nd(lit.atom), lit.negated) for lit in rule.body)
        return Rule(head=self.nd(rule.head), body=body, origin=rule.origin)


def check_renamed(text: str, horizon: int | None, seed: int, label: str) -> None:
    program = parse_program(text)
    rng = random.Random(seed)
    renaming = Renaming(program, rng)
    rules = [renaming.rule(rule) for rule in program.rules]
    rng.shuffle(rules)
    gp = ground(program, horizon=horizon)
    renamed = ground(Program(rules=tuple(rules), horizon=program.horizon), horizon=horizon)
    assert len(renamed.rules) == len(gp.rules), label
    assert set(renamed.rules) == {renaming.rule(rule) for rule in gp.rules}, label
    assert len(renamed.base) == len(gp.base), label


@pytest.mark.parametrize("name", LARGE)
def test_benchmark_programs_ground_the_same_up_to_renaming(name):
    text, horizon = LARGE[name]
    for seed in range(3):
        check_renamed(text, horizon, seed, f"{name} seed={seed}")


@pytest.mark.parametrize("seed", SEEDS)
def test_random_programs_ground_the_same_up_to_renaming(seed):
    text, horizon = random_nonground_program(seed)
    check_renamed(text, horizon, seed, f"seed={seed}\n{text}")


def test_renaming_moves_the_instance_order():
    # Without a change of order the set comparison would check no more
    # than a list comparison does.
    program = parse_program(closure_chain(30))
    renaming = Renaming(program, random.Random(0))
    gp = ground(program)
    renamed = ground(Program(rules=tuple(map(renaming.rule, program.rules))))
    assert list(renamed.rules) != [renaming.rule(rule) for rule in gp.rules]
