"""Stable-model semantics for normal (negation-bearing) ground programs.

A stable model is an interpretation equal to the least model of its own
reduct. `enumerate_stable` realizes the guess-and-check: truth assignments
over the NdAtoms that occur negated fix the reduct, whose least model is
kept when it agrees with the assignment. The assignments are explored as a
tree; at every node `CompiledProgram.bounds` propagates the assignment
(an underivable assumed-true atom or an unavoidable assumed-false atom
closes a branch), which changes nothing about the result set but makes
planning-sized programs tractable. At the root that propagation is the
well-founded model, so every stable model lies above it. The output is
sorted, so it is independent of exploration order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .compiled import IN, OPEN, OUT
from .grounder import GroundProgram
from .positive import Interpretation, lfp
from .syntax import Rule, interpretation_key


def reduct(gp: GroundProgram, interp: Interpretation) -> tuple[Rule, ...]:
    """The negation-free rules left after reducing against an interpretation:
    drop rules with an assumed-true negated NdAtom, strip the rest."""
    kept = []
    for rule in gp.rules:
        if any(b in interp for b in rule.negative_body()):
            continue
        positives = tuple(lit for lit in rule.body if not lit.negated)
        kept.append(Rule(head=rule.head, body=positives, origin=rule.origin))
    return tuple(kept)


def is_stable(gp: GroundProgram, interp: Interpretation) -> bool:
    """True when the interpretation is the least model of its own reduct."""
    return lfp(reduct(gp, interp)) == interp


def tprime_step(gp: GroundProgram, interp: Interpretation) -> Interpretation:
    """One-step consequences: positive bodies via membership, negated bodies
    via absence. Coincides with tp_step on negation-free programs; not
    monotone in general."""
    derived = set()
    for rule in gp.rules:
        if all(b in interp for b in rule.positive_body()) and not any(
            b in interp for b in rule.negative_body()
        ):
            derived.add(rule.head)
    return frozenset(derived)


@dataclass(frozen=True)
class StableModels:
    """Search result; `truncated` is set when the model cap cut it short."""

    models: tuple[Interpretation, ...]
    truncated: bool

    def __iter__(self):
        return iter(self.models)

    def __len__(self):
        return len(self.models)


def enumerate_stable(gp: GroundProgram, max_models: int | None = None) -> StableModels:
    """All stable models, in canonical order.

    Branches over the negated-occurring NdAtoms only; the reduct depends on
    the interpretation through nothing else, and a final stability check on
    the compiled program guards each emitted model. Deterministic regardless
    of evaluation order.

    With `max_models=k` the search stops at the k-th model it meets, so the
    result is a deterministic subset of the stable models in canonical
    order, not a prefix of the full list, and `truncated` is set.
    """
    program = gp.compiled
    negated = program.negated
    assign = bytearray(program.n)
    found: list[bytearray] = []
    truncated = False

    # Depth-first over an explicit decision stack, OUT before IN; a frame is
    # (pivot, value, atoms forced under that decision).
    stack: list[tuple[int, int, list[int]]] = []
    bounds = program.bounds(assign, [])
    while True:
        if bounds is not None:
            lower, upper = bounds
            pivot = program.pick_pivot(assign, upper)
            if pivot is not None:
                assign[pivot] = OUT
                trail: list[int] = []
                stack.append((pivot, OUT, trail))
                # an atom assigned out leaves the upper bound valid
                bounds = program.bounds(assign, trail, upper=upper)
                continue
            # Leaf: the pessimistic bound is the reduct's least model.
            if all(lower[n] for n in negated if assign[n] == IN):
                found.append(lower)
                if max_models is not None and len(found) >= max_models:
                    truncated = True
                    break
        while stack:
            pivot, value, trail = stack.pop()
            for n in trail:
                assign[n] = OPEN
            if value == OUT:
                assign[pivot] = IN
                trail = []
                stack.append((pivot, IN, trail))
                bounds = program.bounds(assign, trail)
                break
            assign[pivot] = OPEN
        else:
            break

    # guard, one fixpoint per model; holds by construction. Leaves differ on
    # some pivot, so the models are distinct.
    models = [program.decode(flags) for flags in found if program.reduct_model(flags) == flags]
    return StableModels(models=tuple(sorted(models, key=interpretation_key)), truncated=truncated)
