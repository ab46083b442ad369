"""Stable-model semantics for normal (negation-bearing) ground programs.

A stable model is an interpretation equal to the least model of its own
reduct. `enumerate_stable` realizes the guess-and-check: truth assignments
over the NdAtoms that occur negated fix the reduct, whose least model is
kept when it agrees with the assignment. The assignments are explored as a
tree on one `compiled.Propagator`: each decision propagates both bounds
through its trail (an underivable assumed-true atom or an unavoidable
assumed-false atom closes a branch) and backtracking undoes it, so a
decision costs the rules that read what it settles, not a whole fixpoint.
This changes nothing about the result set but makes planning-sized
programs tractable. At the root that propagation is the well-founded
model, so every stable model lies above it. At a leaf the two bounds meet,
so a leaf whose lower bound holds its assigned-in atoms is a stable model
as it stands (smodels' argument). The output is sorted, so it is
independent of exploration order. Each model is kept as the sorted indices
of its NdAtoms in the ground program, which is also its sort key, and is
decoded to a set of NdAtoms only when `StableModels.models` is read."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .compiled import IN, OUT, GroundProgram, Propagator
from .positive import Interpretation, lfp
from .syntax import Rule


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


@dataclass(frozen=True, eq=False)
class StableModels:
    """Search result: each model as the sorted indices of its NdAtoms in
    `program`, in canonical order; `truncated` is set when the model cap cut
    the search short. Results are equal when their models and flags are."""

    ids: tuple[tuple[int, ...], ...]
    truncated: bool
    program: GroundProgram = field(repr=False)

    @cached_property
    def models(self) -> tuple[Interpretation, ...]:
        """The models as sets of NdAtoms, decoded on first use."""
        base = self.program.base
        return tuple(frozenset(map(base.__getitem__, ids)) for ids in self.ids)

    def __eq__(self, other):
        if not isinstance(other, StableModels):
            return NotImplemented
        return (self.models, self.truncated) == (other.models, other.truncated)

    def __hash__(self) -> int:
        return hash((self.models, self.truncated))

    def __iter__(self):
        return iter(self.models)

    def __len__(self):
        return len(self.ids)


def enumerate_stable(gp: GroundProgram, max_models: int | None = None) -> StableModels:
    """All stable models, in canonical order.

    Branches over the negated-occurring NdAtoms only; the reduct depends on
    the interpretation through nothing else. Each leaf that holds its
    assigned-in atoms is emitted as its lower bound, the least model of its
    own reduct. Deterministic regardless of evaluation order.

    With `max_models=k` the search stops at the k-th model it meets, so the
    result is a deterministic subset of the stable models in canonical
    order, not a prefix of the full list, and `truncated` is set.
    """
    negated = gp.negated
    state = Propagator(gp)
    assign, lower = state.assign, state.lower
    found: list[tuple[int, ...]] = []
    truncated = False

    # Depth-first over an explicit decision stack, OUT before IN; a frame is
    # (pivot position in `negated`, value, trail mark before the decision),
    # and a node's pivot scan resumes past its parent's pivot.
    stack: list[tuple[int, int, int]] = []
    consistent = True
    while True:
        if consistent:
            position = state.pick_pivot(stack[-1][0] + 1 if stack else 0)
            if position is not None:
                stack.append((position, OUT, len(state.trail)))
                consistent = state.decide(negated[position], OUT)
                continue
            # Leaf: the lower bound is the reduct's least model.
            if all(lower[n] for n in negated if assign[n] == IN):
                found.append(gp.ids(lower))
                if max_models is not None and len(found) >= max_models:
                    truncated = True
                    break
        while stack:
            position, value, mark = stack.pop()
            state.undo(mark)
            if value == OUT:
                stack.append((position, IN, mark))
                consistent = state.decide(negated[position], IN)
                break
        else:
            break

    # Leaves differ on some pivot, so the models are distinct. Atoms are
    # interned in base order, which is key order, so the sorted index
    # tuples are in the canonical order of the decoded models.
    return StableModels(ids=tuple(sorted(found)), truncated=truncated, program=gp)
