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

A model's atoms are interned once, in key order, into an `AtomTable` that
holds their texts, so each atom's text is read once per model, not once per
answer set. Expansion works on ranks into that table: an
own part's images are ranks, the shared part's are int masks, and an
answer set is a pair of sorted rank tuples. Rank order is key order, so
sorting those tuples gives the canonical order of the sets.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import islice, product
from math import prod
from operator import attrgetter
from typing import Union

from .syntax import Atom, sort_nd_atoms
from .wf import PartialInterpretation

Model = Union[frozenset, PartialInterpretation]


class AtomTable:
    """The atoms of one model in key order, with each one's text and, for a
    model with negatives, its signed "not" text."""

    __slots__ = ("atoms", "texts", "nots")

    def __init__(self, atoms: tuple[Atom, ...], signed: bool):
        self.atoms = atoms
        self.texts = tuple(a.text for a in atoms)
        self.nots = tuple("not " + t for t in self.texts) if signed else ()


@dataclass(frozen=True, slots=True, eq=False)
class AnswerSet:
    """One branch: the ranks, in its model's atom table, of its chosen atoms
    and of its signed negatives (WF models only), each tuple sorted."""

    table: AtomTable
    pos: tuple[int, ...]
    neg: tuple[int, ...] = ()

    @property
    def atoms(self) -> frozenset[Atom]:
        return frozenset(map(self.table.atoms.__getitem__, self.pos))

    @property
    def negatives(self) -> frozenset[Atom]:
        return frozenset(map(self.table.atoms.__getitem__, self.neg))

    @property
    def key(self):
        atoms = self.table.atoms
        return tuple(atoms[r].key for r in self.pos), tuple(atoms[r].key for r in self.neg)

    def entries(self) -> list[str]:
        """Rendered entries in canonical order, negatives as 'not a'."""
        table = self.table
        return [*map(table.texts.__getitem__, self.pos), *map(table.nots.__getitem__, self.neg)]

    def __str__(self) -> str:
        return "{" + ", ".join(self.entries()) + "}"

    def __repr__(self) -> str:
        return f"AnswerSet({self})"

    def __eq__(self, other):
        return self.key == other.key if isinstance(other, AnswerSet) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.key)


@dataclass(frozen=True)
class Expansion:
    answer_sets: tuple[AnswerSet, ...]
    truncated: bool

    def __iter__(self):
        return iter(self.answer_sets)

    def __len__(self):
        return len(self.answer_sets)


def _ranks(mask: int) -> tuple[int, ...]:
    """The set bits of a mask, lowest first."""
    out = []
    while mask:
        bit = mask & -mask
        out.append(bit.bit_length() - 1)
        mask ^= bit
    return tuple(out)


def _parts(model: Model, subset_minimal: bool) -> tuple[AtomTable, list, int]:
    """A model's atom table, the images of each atom-disjoint part in
    product order, and how many leading parts are positive NdAtoms of their
    own.

    NdAtoms are taken positives first, each side sorted by key. The images
    of a part of its own are the ranks of its members. The shared part comes
    last; its images are distinct (positive ranks, negative ranks) pairs in
    canonical order, only the minimal ones under `subset_minimal`. They are
    grown as masks, a positive rank r at bit r and a negative one at bit
    r + len(table).
    """
    if isinstance(model, PartialInterpretation):
        pos, neg = sort_nd_atoms(model.pos), sort_nd_atoms(model.neg)
    else:
        pos, neg = sort_nd_atoms(model), ()
    uses = Counter(atom for nd in (*pos, *neg) for atom in nd)
    repeated = {atom for atom, n in uses.items() if n > 1}
    table = AtomTable(tuple(sorted(uses, key=attrgetter("key"))), bool(neg))
    rank = {atom: r for r, atom in enumerate(table.atoms)}
    width = len(rank)
    own = [[], []]
    shared = {0}
    for negative, side in enumerate((pos, neg)):
        for nd in side:
            ranks = [rank[a] for a in nd.atoms]
            if repeated.isdisjoint(nd.atoms):
                own[negative].append(ranks)
            elif negative:
                shared = {s | 1 << (width + r) for s in shared for r in ranks if not s >> r & 1}
            else:
                shared = {s | 1 << r for s in shared for r in ranks}
    if subset_minimal:
        shared = [s for s in shared if not any(t != s and t & s == t for t in shared)]
    low = (1 << width) - 1
    images = sorted((_ranks(s & low), _ranks(s >> width)) for s in shared)
    return table, [*own[0], *own[1], images], len(own[0])


def expand(model: Model, cap: int | None = None, subset_minimal: bool = False) -> Expansion:
    """Enumerate the distinct answer sets of a model, in canonical order.

    With `cap`, the first `cap` combinations of the parts' images in product
    order are kept, and the truncation flag is set when another exists.
    `subset_minimal` keeps the minimal answer sets only, before the cap. The
    empty model expands to a single empty branch.
    """
    table, parts, n = _parts(model, subset_minimal)

    def ranks(pick):
        pos, neg = pick[-1]
        return tuple(sorted((*pick[:n], *pos))), tuple(sorted((*pick[n:-1], *neg)))

    picks = product(*parts)
    sets = sorted(map(ranks, islice(picks, cap)))
    truncated = cap is not None and next(picks, None) is not None
    return Expansion(tuple(AnswerSet(table, *s) for s in sets), truncated)


def count(model: Model, cap: int | None = None) -> tuple[int, bool]:
    """Number of distinct answer sets, and whether it is exact.

    Past `cap` it returns (cap, False); exact otherwise.
    """
    total = prod(map(len, _parts(model, False)[1]))
    return (cap, False) if cap is not None and total > cap else (total, True)
