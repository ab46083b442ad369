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
order. An entry of a table is an atom's rank for a chosen atom and its rank
plus `len(table.texts)` for a signed negative, so sorted entries list the
positives and then the negatives, each in key order.

An answer set is an int mask over the model's `Layout`: a bit per slot,
an entry that varies between its answer sets (a member of a part of its own
of two or more members, or of the shared part), the smallest entry at the
highest bit. A one-member part's entry is in every answer set, folded into
the run of such entries before the next slot or after the last. The parts'
product and the shared images are grown as masks by C-level calls and
comprehensions, and one int sort gives canonical order (`_canonical`).
`Expansion.rows` and `AnswerSet` decode the masks only when a caller reads
them, so the command line renders every set from its mask and decodes none.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import prod
from typing import NamedTuple, Sequence, Union

from .compiled import AtomTable
from .syntax import Atom, sort_nd_atoms
from .wf import PartialInterpretation

Model = Union[frozenset, PartialInterpretation]


class Layout(NamedTuple):
    """How a model's answer sets are masks over `table`'s entries: `slots`
    are the entries that vary between them, in id order, the first at the
    highest bit; `runs` the entries in all of them, the run before each slot
    and the run after the last."""

    table: AtomTable
    slots: list[int]
    runs: list[list[int]]

    def row(self, mask: int) -> tuple[int, ...]:
        """The sorted entry ids of the answer set `mask`."""
        bits = [1 << b for b in range(len(self.slots) - 1, -1, -1)]
        return (*chain.from_iterable([*run, e] if mask & b else run
                                     for run, e, b in zip(self.runs, self.slots, bits)),
                *self.runs[-1])


@dataclass(frozen=True, slots=True, eq=False)
class AnswerSet:
    """One branch: its mask over a layout, whose `row` is its sorted entry
    ids, the ranks of its chosen atoms, then those of its signed negatives
    (WF models only) offset by `len(table.texts)`."""

    layout: Layout
    mask: int

    table = property(lambda self: self.layout.table)
    row = property(lambda self: self.layout.row(self.mask))

    def _split(self) -> tuple[tuple[int, ...], list[int]]:
        """The ranks of its atoms and of its negatives."""
        row, n = self.row, len(self.table.texts)
        i = bisect_left(row, n)
        return row[:i], [r - n for r in row[i:]]

    @property
    def atoms(self) -> frozenset[Atom]:
        return frozenset(map(self.table.atoms.__getitem__, self._split()[0]))

    @property
    def negatives(self) -> frozenset[Atom]:
        return frozenset(map(self.table.atoms.__getitem__, self._split()[1]))

    @property
    def key(self):
        atoms = self.table.atoms
        return tuple(tuple(atoms[r].key for r in part) for part in self._split())

    def entries(self) -> list[str]:
        """Rendered entries in canonical order, negatives as 'not a'."""
        return list(map(self.table.entries.__getitem__, self.row))

    def __str__(self) -> str:
        return "{" + ", ".join(self.entries()) + "}"

    def __repr__(self) -> str:
        return f"AnswerSet({self})"

    def __eq__(self, other):
        return self.key == other.key if isinstance(other, AnswerSet) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.key)


@dataclass(frozen=True, eq=False)
class Expansion:
    """The answer sets of a model as masks over `layout`, in canonical
    order. `rows` decodes them; `answer_sets`, iteration, equality and
    hashing build the `AnswerSet` values on first use; `len` builds none."""

    layout: Layout
    masks: list[int]
    truncated: bool

    table = property(lambda self: self.layout.table)

    @cached_property
    def rows(self) -> list[tuple[int, ...]]:
        return list(map(self.layout.row, self.masks))

    @cached_property
    def answer_sets(self) -> tuple[AnswerSet, ...]:
        return tuple([AnswerSet(self.layout, mask) for mask in self.masks])

    def __iter__(self):
        return iter(self.answer_sets)

    def __len__(self):
        return len(self.masks)

    def __eq__(self, other):
        if not isinstance(other, Expansion):
            return NotImplemented
        return (self.answer_sets, self.truncated) == (other.answer_sets, other.truncated)

    def __hash__(self) -> int:
        return hash((self.answer_sets, self.truncated))


def _canonical(masks, layout: Layout, alone: bool = False) -> list[int]:
    """`masks` over `layout` in canonical order, or, `alone`, as if no entry
    were fixed: positives compared before negatives, each side as its sorted
    entries, so a row comes before its own extensions. Sorted descending, a
    mask's first differing slot decides while both rows go on past it; so
    that a row that stops before it comes first, each side's slots after its
    last fixed entry are filled with ones below the row's last entry, and
    among equal fills the smaller row comes first."""
    slots, n = layout.slots, len(layout.table.texts)
    width, split = len(slots), bisect_left(slots, n)
    fixed = [] if alone else [*chain.from_iterable(layout.runs)]
    signs, signed = bisect_left(fixed, n), width - split
    hi = (1 << split - (bisect_left(slots, fixed[signs - 1]) if signs else 0)) - 1
    lo = (1 << width - (bisect_left(slots, fixed[-1]) if len(fixed) > signs else split)) - 1
    size, low = width.bit_length(), (1 << signed) - 1
    keys = [((((p | ((t := p & hi | hi + 1) & -t) - 1) << size | width - p.bit_count()) << signed
              | (q | ((u := q & lo | lo + 1) & -u) - 1)) << size | width - q.bit_count()) << width | m
            for m in masks for p, q in ((m >> signed, m & low),)]
    keys.sort(reverse=True)
    return [key & (1 << width) - 1 for key in keys]


def _minimal(masks) -> list[int]:
    """The masks that contain no other. Visited by bit count, a mask is
    minimal when no minimal mask kept so far is a subset of it."""
    kept: list[int] = []
    for s in sorted(masks, key=int.bit_count):
        if all(t & s != t for t in kept):
            kept.append(s)
    return kept


def _parts(table: AtomTable, pos: Sequence[int], neg: Sequence[int]):
    """The layout of the model whose NdAtoms are `pos` and `neg` in `table`,
    positives first, each side in the order given; the bits of each part of
    its own of two or more members, in product order; and the shared part's
    distinct images as masks ({0} when it is empty)."""
    members, n = table.members, len(table.texts)
    sides = ([members[i] for i in pos], [members[i] for i in neg])
    atoms = [*chain.from_iterable(sides[0])]
    k = len(atoms)
    atoms += chain.from_iterable(sides[1])
    repeated = ({r for r, uses in Counter(atoms).items() if uses > 1}
                if len(set(atoms)) < len(atoms) else ())
    own, joined = [], [[], []]
    for negative, side in enumerate(sides):
        if repeated:
            joined[negative] += [nd for nd in side if not repeated.isdisjoint(nd)]
            side = [nd for nd in side if repeated.isdisjoint(nd)]
        own += [[r + n for r in nd] if negative else nd for nd in side if len(nd) > 1]
    slots = sorted([*chain.from_iterable(own), *{r for nd in joined[0] for r in nd},
                    *{r + n for nd in joined[1] for r in nd}])
    # the entries of one-member parts, in every answer set
    fixed = sorted({*atoms[:k], *map(n.__add__, atoms[k:])}.difference(slots))
    bit = {e: 1 << len(slots) - i for i, e in enumerate(slots, 1)}
    cuts = [0, *[bisect_left(fixed, e) for e in slots], len(fixed)]
    shared = {0}
    for nd in joined[0]:
        bits = [bit[r] for r in nd]
        shared = {s | b for s in shared for b in bits}
    for nd in joined[1]:
        pairs = [(bit.get(r, 0), bit[r + n]) for r in nd]
        shared = {s | b for s in shared for p, b in pairs if not s & p}
    return (Layout(table, slots, [fixed[a:b] for a, b in zip(cuts, cuts[1:])]),
            [[bit[e] for e in part] for part in own], shared)


def _model_table(model: Model) -> tuple[AtomTable, range, range]:
    """A model as (table, positive ids, negative ids), over a table of its
    own NdAtoms, positives first, each side in key order."""
    if isinstance(model, PartialInterpretation):
        pos, neg = sort_nd_atoms(model.pos), sort_nd_atoms(model.neg)
    else:
        pos, neg = sort_nd_atoms(model), ()
    return AtomTable.of((*pos, *neg)), range(len(pos)), range(len(pos), len(pos) + len(neg))


def expand_ids(table: AtomTable, pos: Sequence[int], neg: Sequence[int] = (),
               cap: int | None = None, subset_minimal: bool = False) -> Expansion:
    """Enumerate, in canonical order, the distinct answer sets of the model
    whose positive and negative NdAtoms are `pos` and `neg` in `table`, each
    side in key order.

    With `cap`, the first `cap` combinations of the parts' images in product
    order are kept, the shared part's last and in canonical order of its own,
    and the truncation flag is set when another exists. `subset_minimal`
    keeps the minimal answer sets only, before the cap. The empty model
    expands to a single empty branch.
    """
    layout, own, shared = _parts(table, pos, neg)
    if subset_minimal:
        shared = _minimal(shared)
    masks = _canonical(shared, layout, alone=True) if cap and len(shared) > 1 else [*shared]
    # the product grown from its last factor, which varies fastest; a step's
    # first `cap` + 1 masks come from the first `cap` + 1 before it
    for bits in reversed(own):
        masks = [m | b for b in bits for m in (masks if cap is None else masks[:cap + 1])]
    truncated = cap is not None and len(masks) > cap
    if truncated:
        del masks[cap:]
    if len(shared) > 1:  # only the shared part's images differ in size
        masks = _canonical(masks, layout)
    else:
        masks.sort(reverse=True)
    return Expansion(layout, masks, truncated)


def expand(model: Model, cap: int | None = None, subset_minimal: bool = False) -> Expansion:
    """`expand_ids` of a model given as its NdAtoms."""
    return expand_ids(*_model_table(model), cap=cap, subset_minimal=subset_minimal)


def count(model: Model, cap: int | None = None) -> tuple[int, bool]:
    """Number of distinct answer sets, and whether it is exact.

    Past `cap` it returns (cap, False); exact otherwise.
    """
    _, own, shared = _parts(*_model_table(model))
    total = len(shared) * prod(map(len, own))
    return (cap, False) if cap is not None and total > cap else (total, True)
