"""Answer-set expansion: the branches of the solution tree of a model.

Each answer set is the image of a choice function picking one atom from
every NdAtom of a model; for well-founded models the negative NdAtoms
contribute signed "not" entries, and a choice that picks one atom both ways
is no branch. No subset-minimality filter is applied by default: a choice
may legitimately yield a superset of another.

The NdAtoms fall into atom-disjoint parts. One that shares no member with
any other NdAtom is a part of its own, whose images are its members; all
the others form one shared part, whose distinct images are grown NdAtom by
NdAtom. An answer set is the union of one image per part, so the sets come
out distinct, and the work follows the shared part's distinct images rather
than the choice product.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import islice, product
from math import prod
from typing import Union

from .syntax import Atom, sort_nd_atoms
from .wf import PartialInterpretation

Model = Union[frozenset, PartialInterpretation]


def _key(atoms, negatives):
    return tuple(sorted(a.key for a in atoms)), tuple(sorted(a.key for a in negatives))


@dataclass(frozen=True)
class AnswerSet:
    """One branch: chosen atoms, plus signed negatives for WF models."""

    atoms: frozenset[Atom]
    negatives: frozenset[Atom] = frozenset()

    @property
    def key(self):
        return _key(self.atoms, self.negatives)

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


def _parts(model: Model, subset_minimal: bool) -> tuple[list, int]:
    """The images of each atom-disjoint part of a model, in product order,
    and how many leading parts are positive NdAtoms of their own.

    NdAtoms are taken positives first, each side sorted by key. The images
    of a part of its own are its member atoms. The shared part comes last;
    its images are distinct (atoms, negatives) pairs in canonical order,
    only the minimal ones under `subset_minimal`.
    """
    if isinstance(model, PartialInterpretation):
        pos, neg = sort_nd_atoms(model.pos), sort_nd_atoms(model.neg)
    else:
        pos, neg = sort_nd_atoms(model), ()
    uses = Counter(atom for nd in (*pos, *neg) for atom in nd)
    repeated = {atom for atom, n in uses.items() if n > 1}
    own = [[], []]
    shared = {(frozenset(), frozenset())}
    for negative, side in enumerate((pos, neg)):
        for nd in side:
            if repeated.isdisjoint(nd.atoms):
                own[negative].append(nd.atoms)
            elif negative:
                shared = {(atoms, negs | {a}) for atoms, negs in shared
                          for a in nd.atoms if a not in atoms}
            else:
                shared = {(atoms | {a}, negs) for atoms, negs in shared for a in nd.atoms}
    if subset_minimal:
        shared = [s for s in shared
                  if not any(t != s and t[0] <= s[0] and t[1] <= s[1] for t in shared)]
    return [*own[0], *own[1], sorted(shared, key=lambda s: _key(*s))], len(own[0])


def expand(model: Model, cap: int | None = None, subset_minimal: bool = False) -> Expansion:
    """Enumerate the distinct answer sets of a model, in canonical order.

    With `cap`, the first `cap` combinations of the parts' images in product
    order are kept, and the truncation flag is set when another exists.
    `subset_minimal` keeps the minimal answer sets only, before the cap. The
    empty model expands to a single empty branch.
    """
    parts, n = _parts(model, subset_minimal)
    picks = list(islice(product(*parts), None if cap is None else cap + 1))
    sets = [AnswerSet(frozenset((*p[:n], *p[-1][0])), frozenset((*p[n:-1], *p[-1][1])))
            for p in picks[:cap]]
    truncated = cap is not None and len(picks) > cap
    return Expansion(tuple(sorted(sets, key=lambda s: s.key)), truncated)


def count(model: Model, cap: int | None = None) -> tuple[int, bool]:
    """Number of distinct answer sets, and whether it is exact.

    Past `cap` it returns (cap, False); exact otherwise.
    """
    total = prod(map(len, _parts(model, False)[0]))
    return (cap, False) if cap is not None and total > cap else (total, True)
