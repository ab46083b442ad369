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
table, not once per answer set.

An answer set is a row: the sorted ids of its entries in `table.entries`,
an atom's rank for a chosen atom and its rank plus `len(table.texts)` for a
signed negative, so a row lists its positives and then its negatives, each
in key order. An own part's images are these ids; the shared part's are
grown as int masks over its own atoms and decoded once per distinct image.
The rows are the sorted picks of the parts' product, all built by C-level
calls, and sorting them sorts ints. `expand_ids` returns the rows with
their table; `AnswerSet` values, each holding its table and row, are built
only when a caller reads them, so the command line renders every set from
its row and builds none.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, islice, product
from math import prod
from typing import Sequence, Union

from .compiled import AtomTable
from .syntax import Atom, sort_nd_atoms
from .wf import PartialInterpretation

Model = Union[frozenset, PartialInterpretation]

# Byte translation of a mask's binary digits to 0/1 flags.
_BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


@dataclass(frozen=True, slots=True, eq=False)
class AnswerSet:
    """One branch: its sorted entry ids in an atom table's `entries`, the
    ranks of its chosen atoms, then those of its signed negatives (WF models
    only) offset by `len(table.texts)`."""

    table: AtomTable
    row: tuple[int, ...]

    def _split(self) -> tuple[tuple[int, ...], list[int]]:
        """The ranks of its atoms and of its negatives."""
        n = len(self.table.texts)
        i = bisect_left(self.row, n)
        return self.row[:i], [r - n for r in self.row[i:]]

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
    """The answer sets of a model as rows over `table`, in canonical order.
    `answer_sets`, iteration, equality and hashing build the `AnswerSet`
    values on first use; `len` builds none."""

    table: AtomTable
    rows: list[Sequence[int]]
    truncated: bool

    @cached_property
    def answer_sets(self) -> tuple[AnswerSet, ...]:
        return tuple([AnswerSet(self.table, tuple(row)) for row in self.rows])

    def __iter__(self):
        return iter(self.answer_sets)

    def __len__(self):
        return len(self.rows)

    def __eq__(self, other):
        if not isinstance(other, Expansion):
            return NotImplemented
        return (self.answer_sets, self.truncated) == (other.answer_sets, other.truncated)

    def __hash__(self) -> int:
        return hash((self.answer_sets, self.truncated))


def _signed_order(n: int):
    """The sort key of rows over a table of `n` atoms in canonical order:
    positives first, then negatives. Plain row order agrees with it whenever
    the rows have equally many positives."""
    def key(row):
        i = bisect_left(row, n)
        return row[:i], row[i:]
    return key


def _minimal(masks) -> list[int]:
    """The masks that contain no other. Visited by bit count, a mask is
    minimal when no minimal mask kept so far is a subset of it."""
    kept: list[int] = []
    for s in sorted(masks, key=int.bit_count):
        if all(t & s != t for t in kept):
            kept.append(s)
    return kept


def _parts(table: AtomTable, pos: Sequence[int], neg: Sequence[int],
           subset_minimal: bool) -> tuple[list, list[tuple[int, ...]]]:
    """The entry ids of each atom-disjoint part of its own of the model
    whose NdAtoms are `pos` and `neg` in `table`, in product order, and the
    shared part's images as sorted entry-id tuples in canonical order.

    NdAtoms are taken positives first, each side in the order given. The
    shared part comes last in product order; its images are distinct, only
    the minimal ones under `subset_minimal`, and `[()]` when it is empty.
    They are grown as masks over the shared part's atoms in rank order, the
    i-th at bit i when positive and at bit i + width when negative, and each
    is decoded by one `compress` over its bits.
    """
    members = table.members
    n = len(table.texts)
    uses = Counter(chain.from_iterable(map(members.__getitem__, chain(pos, neg))))
    repeated = {r for r, k in uses.items() if k > 1}
    own: list = []
    joined: list[list] = [[], []]
    for negative, side in enumerate((pos, neg)):
        for i in side:
            atoms = members[i]
            if not repeated.isdisjoint(atoms):
                joined[negative].append(atoms)
            else:
                own.append(list(map(n.__add__, atoms)) if negative else atoms)
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
        shared = _minimal(shared)
    ids = (*ranks, *map(n.__add__, ranks))
    images = [tuple(compress(ids, bin(s)[:1:-1].encode().translate(_BIT_FLAGS)))
              for s in shared]
    images.sort(key=_signed_order(n) if joined[1] else None)
    return own, images


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
    order are kept, and the truncation flag is set when another exists.
    `subset_minimal` keeps the minimal answer sets only, before the cap. The
    empty model expands to a single empty branch.
    """
    own, images = _parts(table, pos, neg, subset_minimal)
    if images == [()]:  # no shared part: a pick is its row's ids
        picks = product(*own)
    else:
        picks = map(chain.from_iterable,
                    product(*[[(r,) for r in part] for part in own], images))
    rows = list(map(sorted, islice(picks, cap)))
    truncated = cap is not None and next(picks, None) is not None
    # with one shared image or none, every row has as many positives
    rows.sort(key=_signed_order(len(table.texts)) if neg and len(images) > 1 else None)
    return Expansion(table, rows, truncated)


def expand(model: Model, cap: int | None = None, subset_minimal: bool = False) -> Expansion:
    """`expand_ids` of a model given as its NdAtoms."""
    return expand_ids(*_model_table(model), cap=cap, subset_minimal=subset_minimal)


def count(model: Model, cap: int | None = None) -> tuple[int, bool]:
    """Number of distinct answer sets, and whether it is exact.

    Past `cap` it returns (cap, False); exact otherwise.
    """
    own, images = _parts(*_model_table(model), False)
    total = len(images) * prod(map(len, own))
    return (cap, False) if cap is not None and total > cap else (total, True)
