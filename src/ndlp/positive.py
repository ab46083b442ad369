"""Declarative and fixpoint semantics for negation-free ground programs.

An interpretation is a finite set of ground NdAtoms drawn from the
restricted base. The brute-force model enumeration that checks the
one-step operator lives with the tests (`tests/oracles.py`).
"""

from __future__ import annotations

from typing import Iterable

from .compiled import GroundProgram
from .errors import EvaluationError
from .syntax import NdAtom, Rule

Interpretation = frozenset  # of NdAtom


def satisfies_rule(interp: Interpretation, rule: Rule) -> bool:
    """True unless the whole body holds and the head does not.

    A positive body NdAtom holds through membership, a negated one through
    absence, so this also covers rules with negation.
    """
    if rule.head in interp:
        return True
    for lit in rule.body:
        if lit.negated == (lit.atom in interp):
            return True
    return False


def is_model(interp: Interpretation, gp: GroundProgram) -> bool:
    return all(satisfies_rule(interp, rule) for rule in gp.rules)


_NOT_POSITIVE = ("operator is defined for negation-free programs only; "
                 "use the stable or well-founded evaluators")


def _check_positive(rules: Iterable[Rule]) -> None:
    for rule in rules:
        if not rule.is_positive():
            raise EvaluationError(_NOT_POSITIVE)


def lfp(rules: Iterable[Rule]) -> Interpretation:
    """Least fixpoint of the one-step operator of negation-free rules."""
    rules = tuple(rules)
    derived: set[NdAtom] = set()
    changed = True
    while changed:
        changed = False
        for rule in rules:
            if rule.head not in derived and all(b in derived for b in rule.positive_body()):
                derived.add(rule.head)
                changed = True
    return frozenset(derived)


def tp_step(gp: GroundProgram, interp: Interpretation) -> Interpretation:
    """One application of the immediate consequence operator."""
    _check_positive(gp.rules)
    return frozenset(
        rule.head
        for rule in gp.rules
        if all(b in interp for b in rule.positive_body())
    )


def least_model(gp: GroundProgram) -> Interpretation:
    """The least fixpoint of the one-step operator, decoded from the
    program's int form; `lfp` is the reference."""
    if gp.negated:
        raise EvaluationError(_NOT_POSITIVE)
    return gp.decode(gp.least())
