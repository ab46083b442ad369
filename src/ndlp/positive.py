"""Declarative and fixpoint semantics for negation-free ground programs.

An interpretation is a finite set of ground NdAtoms drawn from the
restricted base. `enumerate_models` is the deliberately naive test oracle:
it walks every subset of the base and keeps the models, sharing no logic
with the one-step operator it is used to check.
"""

from __future__ import annotations

import os
from typing import Iterable

from .errors import BaseCapExceeded, EvaluationError
from .grounder import GroundProgram
from .syntax import NdAtom, Rule

Interpretation = frozenset  # of NdAtom

DEFAULT_BASE_CAP = 20


def base_cap(default: int = DEFAULT_BASE_CAP) -> int:
    """Brute-force cap, overridable through the NDLP_MAX_BASE env var."""
    value = os.environ.get("NDLP_MAX_BASE")
    return int(value) if value else default


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


def enumerate_models(gp: GroundProgram, max_base: int | None = None) -> list[Interpretation]:
    """All subsets of the restricted base that are models, in subset-vector
    order over the sorted base. Exponential; test use only."""
    cap = max_base if max_base is not None else base_cap()
    atoms = gp.base
    if len(atoms) > cap:
        raise BaseCapExceeded(
            f"restricted base has {len(atoms)} NdAtoms, enumeration cap is {cap}"
        )
    models = []
    for mask in range(1 << len(atoms)):
        subset = frozenset(atoms[i] for i in range(len(atoms)) if mask >> i & 1)
        if is_model(subset, gp):
            models.append(subset)
    return models


def _check_positive(rules: Iterable[Rule]) -> None:
    for rule in rules:
        if not rule.is_positive():
            raise EvaluationError(
                "operator is defined for negation-free programs only; "
                "use the stable or well-founded evaluators"
            )


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
    """The least fixpoint of the one-step operator, as one worklist pass
    over the compiled program; `lfp` is the reference."""
    _check_positive(gp.rules)
    program = gp.compiled
    return program.decode(program.lfp(bytes(program.n), optimistic=True))


def intersect_all(models: Iterable[Interpretation]) -> Interpretation:
    models = list(models)
    if not models:
        return frozenset()
    result = models[0]
    for m in models[1:]:
        result &= m
    return result

