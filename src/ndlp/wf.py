"""Well-founded semantics: partial interpretations and the W operator.

A partial interpretation keeps disjoint positive and negative sets of
NdAtoms; anything in neither is undefined. One W step joins the one-step
positive consequences with the negated greatest unfounded set, and the
iteration from the empty interpretation grows monotonically to the
well-founded model. `well_founded_model` reaches the same model as the
stable search's root propagation on the ground program, which is why it
lies below every stable model; that propagation forces one atom at a time
through a trail, each costing only the rules that read it, so the model
takes time linear in the program. W is the reference.

The greatest unfounded set is computed as the complement of the "founded"
atoms, the least fixpoint closing rule heads whose bodies are not false and
whose positive NdAtoms are founded already. This is equivalent to (and
property-tested against) the union of all unfounded sets.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import InconsistencyError
from .compiled import GroundProgram
from .syntax import NdAtom, sort_nd_atoms


class Truth(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    UNDEFINED = "undefined"


@dataclass(frozen=True)
class PartialInterpretation:
    """Disjoint positive and negative NdAtom sets over the restricted base."""

    pos: frozenset[NdAtom] = frozenset()
    neg: frozenset[NdAtom] = frozenset()

    def __post_init__(self):
        overlap = self.pos & self.neg
        if overlap:
            sample = ", ".join(str(a) for a in sort_nd_atoms(overlap))
            raise InconsistencyError(
                f"positive and negative sets overlap on: {sample}"
            )

    def is_total(self, base) -> bool:
        return self.pos | self.neg == frozenset(base)

    def issubset(self, other: "PartialInterpretation") -> bool:
        return self.pos <= other.pos and self.neg <= other.neg

    def __str__(self) -> str:
        parts = [str(a) for a in sort_nd_atoms(self.pos)]
        parts += [f"not {a}" for a in sort_nd_atoms(self.neg)]
        return "{" + ", ".join(parts) + "}"


EMPTY = PartialInterpretation()


def wf_truth(interp: PartialInterpretation, atom: NdAtom) -> Truth:
    if atom in interp.pos:
        return Truth.TRUE
    if atom in interp.neg:
        return Truth.FALSE
    return Truth.UNDEFINED


def _body_is_false(rule, interp: PartialInterpretation) -> bool:
    """Some body literal is false: a positive NdAtom asserted negative, or a
    negated NdAtom asserted positive."""
    for lit in rule.body:
        if lit.negated:
            if lit.atom in interp.pos:
                return True
        elif lit.atom in interp.neg:
            return True
    return False


def greatest_unfounded(gp: GroundProgram, interp: PartialInterpretation) -> frozenset[NdAtom]:
    """Base atoms with no applicable support, computed as the complement of
    the founded fixpoint."""
    founded: set[NdAtom] = set()
    changed = True
    while changed:
        changed = False
        for rule in gp.rules:
            if rule.head in founded or _body_is_false(rule, interp):
                continue
            if all(b in founded for b in rule.positive_body()):
                founded.add(rule.head)
                changed = True
    return frozenset(gp.base_set - founded)


def wf_tp_step(gp: GroundProgram, interp: PartialInterpretation) -> frozenset[NdAtom]:
    """Heads whose positive NdAtoms are asserted true and negated NdAtoms
    asserted false. Unlike the stable one-step operator, absence of a
    negated NdAtom is not enough; it must be in the negative set."""
    derived = set()
    for rule in gp.rules:
        if all(b in interp.pos for b in rule.positive_body()) and all(
            b in interp.neg for b in rule.negative_body()
        ):
            derived.add(rule.head)
    return frozenset(derived)


def wp_step(gp: GroundProgram, interp: PartialInterpretation) -> PartialInterpretation:
    """One W step: positive consequences plus negated unfounded atoms.

    Raises InconsistencyError if the two overlap, which cannot happen along
    the iteration from the empty interpretation.
    """
    return PartialInterpretation(
        pos=wf_tp_step(gp, interp),
        neg=greatest_unfounded(gp, interp),
    )


def well_founded_model(gp: GroundProgram) -> PartialInterpretation:
    """The stable search's root propagation, decoded from the program's
    flags (`GroundProgram.well_founded`). This is Van Gelder's
    alternating fixpoint one forced atom at a time, each costing only the
    rules that read it, and equal to the fixpoint of W, which the tests
    iterate as the reference."""
    true, false = gp.well_founded()
    return PartialInterpretation(pos=gp.decode(true), neg=gp.decode(false))
