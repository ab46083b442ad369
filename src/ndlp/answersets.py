"""Answer-set expansion: the branches of the solution tree of a model.

Each answer set is the image of a choice function picking one atom from
every NdAtom of a model; for well-founded models the negative NdAtoms
contribute signed "not" entries. Duplicates across overlapping NdAtoms
collapse, identical results are deduplicated, and no subset-minimality
filter is applied across distinct choices by default: a choice may
legitimately yield a superset of another.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Union

from .syntax import Atom, NdAtom, sort_nd_atoms
from .wf import PartialInterpretation

Model = Union[frozenset, PartialInterpretation]


@dataclass(frozen=True)
class AnswerSet:
    """One branch: chosen atoms, plus signed negatives for WF models."""

    atoms: frozenset[Atom]
    negatives: frozenset[Atom] = frozenset()

    @property
    def key(self):
        return (
            tuple(sorted(a.key for a in self.atoms)),
            tuple(sorted(a.key for a in self.negatives)),
        )

    def entries(self) -> list[str]:
        """Rendered entries in canonical order, negatives as 'not a'."""
        out = [str(a) for a in sorted(self.atoms, key=lambda a: a.key)]
        out += [f"not {a}" for a in sorted(self.negatives, key=lambda a: a.key)]
        return out

    def __str__(self) -> str:
        return "{" + ", ".join(self.entries()) + "}"


@dataclass(frozen=True)
class Expansion:
    answer_sets: tuple[AnswerSet, ...]
    truncated: bool

    def __iter__(self):
        return iter(self.answer_sets)

    def __len__(self):
        return len(self.answer_sets)


def _signed_parts(model: Model) -> tuple[tuple[NdAtom, ...], tuple[NdAtom, ...]]:
    if isinstance(model, PartialInterpretation):
        return sort_nd_atoms(model.pos), sort_nd_atoms(model.neg)
    return sort_nd_atoms(model), ()


def _choices(model: Model) -> Iterable[AnswerSet]:
    """Every choice image, in deterministic order, duplicates included."""
    pos, neg = _signed_parts(model)
    pos_options = [nd.atoms for nd in pos]
    neg_options = [nd.atoms for nd in neg]
    for chosen in product(*pos_options, *neg_options):
        atoms = frozenset(chosen[: len(pos_options)])
        negatives = frozenset(chosen[len(pos_options):])
        if atoms & negatives:
            continue  # a self-contradictory branch, not a valid choice
        yield AnswerSet(atoms=atoms, negatives=negatives)


def expand(model: Model, cap: int | None = None, subset_minimal: bool = False) -> Expansion:
    """Enumerate the distinct answer sets of a model, in canonical order.

    `cap` bounds the number of distinct sets collected; hitting it sets the
    truncation flag. With `subset_minimal`, the cap applies after the filter,
    to the minimal sets in canonical order. The empty model expands to a
    single empty branch.
    """
    collected: dict = {}
    truncated = False
    for answer_set in _choices(model):
        key = answer_set.key
        if key in collected:
            continue
        if cap is not None and len(collected) >= cap and not subset_minimal:
            truncated = True
            break
        collected[key] = answer_set
    ordered = [collected[k] for k in sorted(collected)]
    if subset_minimal:
        ordered = _minimal_only(ordered)
        truncated = cap is not None and len(ordered) > cap
        ordered = ordered[:cap]
    return Expansion(answer_sets=tuple(ordered), truncated=truncated)


def _minimal_only(sets: list[AnswerSet]) -> list[AnswerSet]:
    def contains(a: AnswerSet, b: AnswerSet) -> bool:
        return b.atoms <= a.atoms and b.negatives <= a.negatives and a != b

    return [s for s in sets if not any(contains(s, other) for other in sets)]


def count(model: Model, cap: int | None = None) -> tuple[int, bool]:
    """Number of distinct answer sets, and whether it is exact.

    Stops counting past `cap`, returning (cap, False); exact otherwise.
    """
    seen: set = set()
    for answer_set in _choices(model):
        key = answer_set.key
        if key in seen:
            continue
        if cap is not None and len(seen) >= cap:
            return cap, False
        seen.add(key)
    return len(seen), True
