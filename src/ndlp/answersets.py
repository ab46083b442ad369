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

Expansion works on a `compiled.AtomTable` and the ids of a model's positive
and negative NdAtoms in it. The command line passes the ground program's
one table and the index tuples the solvers return; `expand` and `count`
build a table of the model's own NdAtoms, positives first, each side in key
order. A table holds each atom's text, so an atom's text is read once per
table, not once per answer set. An own part's images are ranks into the
table, the shared part's are int masks over its own atoms, and an answer
set is a pair of sorted rank tuples. Rank order is key order, so sorting
those tuples gives the canonical order of the sets.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice, product
from math import prod
from typing import Sequence, Union

from .compiled import AtomTable
from .syntax import Atom, sort_nd_atoms
from .wf import PartialInterpretation

Model = Union[frozenset, PartialInterpretation]


@dataclass(frozen=True, slots=True, eq=False)
class AnswerSet:
    """One branch: the ranks, in an atom table, of its chosen atoms and of
    its signed negatives (WF models only), each tuple sorted."""

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


def _ranks(mask: int, ranks: list[int]) -> tuple[int, ...]:
    """The ranks of the set bits of a mask, lowest bit first."""
    out = []
    while mask:
        bit = mask & -mask
        out.append(ranks[bit.bit_length() - 1])
        mask ^= bit
    return tuple(out)


def _parts(table: AtomTable, pos: Sequence[int], neg: Sequence[int],
           subset_minimal: bool) -> tuple[list, int]:
    """The images of each atom-disjoint part of the model whose NdAtoms are
    `pos` and `neg` in `table`, in product order, and how many leading parts
    are positive NdAtoms of their own.

    NdAtoms are taken positives first, each side in the order given. The
    images of a part of its own are the ranks of its members. The shared
    part comes last; its images are distinct (positive ranks, negative
    ranks) pairs in canonical order, only the minimal ones under
    `subset_minimal`. They are grown as masks over the shared part's atoms
    in rank order, the i-th at bit i when positive and at bit i + width
    when negative.
    """
    members = table.members
    uses = Counter(chain.from_iterable(map(members.__getitem__, chain(pos, neg))))
    repeated = {r for r, n in uses.items() if n > 1}
    own: list[list] = [[], []]
    joined: list[list] = [[], []]
    for negative, side in enumerate((pos, neg)):
        for i in side:
            atoms = members[i]
            (own if repeated.isdisjoint(atoms) else joined)[negative].append(atoms)
    ranks = sorted({r for side in joined for atoms in side for r in atoms})
    bit = {r: 1 << b for b, r in enumerate(ranks)}
    width = len(ranks)
    shared = {0}
    for atoms in joined[0]:
        bits = [bit[r] for r in atoms]
        shared = {s | b for s in shared for b in bits}
    for atoms in joined[1]:
        bits = [bit[r] for r in atoms]
        shared = {s | b << width for s in shared for b in bits if not s & b}
    if subset_minimal:
        shared = [s for s in shared if not any(t != s and t & s == t for t in shared)]
    low = (1 << width) - 1
    images = sorted((_ranks(s & low, ranks), _ranks(s >> width, ranks)) for s in shared)
    return [*own[0], *own[1], images], len(own[0])


def _model_table(model: Model) -> tuple[AtomTable, range, range]:
    """A model as (table, positive ids, negative ids), over a table of its
    own NdAtoms, positives first, each side in key order."""
    if isinstance(model, PartialInterpretation):
        pos, neg = sort_nd_atoms(model.pos), sort_nd_atoms(model.neg)
    else:
        pos, neg = sort_nd_atoms(model), ()
    return AtomTable((*pos, *neg)), range(len(pos)), range(len(pos), len(pos) + len(neg))


def expand_ids(table: AtomTable, pos: Sequence[int], neg: Sequence[int] = (),
               cap: int | None = None, subset_minimal: bool = False) -> Expansion:
    """Enumerate, in canonical order, the distinct answer sets of the model
    whose positive and negative NdAtoms are `pos` and `neg` in `table`, each
    side in key order.

    With `cap`, the first `cap` combinations of the parts' images in product
    order are kept, and the truncation flag is set when another exists.
    `subset_minimal` keeps the minimal answer sets only, before the cap. The
    empty model expands to a single empty branch.
    """
    parts, n = _parts(table, pos, neg, subset_minimal)

    def ranks(pick):
        pos, neg = pick[-1]
        return tuple(sorted((*pick[:n], *pos))), tuple(sorted((*pick[n:-1], *neg)))

    picks = product(*parts)
    sets = sorted(map(ranks, islice(picks, cap)))
    truncated = cap is not None and next(picks, None) is not None
    return Expansion(tuple(AnswerSet(table, *s) for s in sets), truncated)


def expand(model: Model, cap: int | None = None, subset_minimal: bool = False) -> Expansion:
    """`expand_ids` of a model given as its NdAtoms."""
    return expand_ids(*_model_table(model), cap=cap, subset_minimal=subset_minimal)


def count(model: Model, cap: int | None = None) -> tuple[int, bool]:
    """Number of distinct answer sets, and whether it is exact.

    Past `cap` it returns (cap, False); exact otherwise.
    """
    total = prod(map(len, _parts(*_model_table(model), False)[0]))
    return (cap, False) if cap is not None and total > cap else (total, True)
