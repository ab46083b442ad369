"""Answer-set expansion: the branches of the solution tree of a model.

Each answer set is the image of a choice function picking one atom from
every NdAtom of a model; for well-founded models the negative NdAtoms
contribute signed "not" entries, and a choice that picks one atom both ways
is no branch. No subset-minimality filter is applied by default: a choice
may legitimately yield a superset of another.

The NdAtoms fall into connected components: two are connected when they
share an atom, so a signed negative is connected to the positive NdAtoms
that hold its atom (the disconnected case of Lifschitz and Turner's
splitting sets, ICLP 1994). A component of one NdAtom is a part of its own,
whose images are its members. A wider component's distinct images are grown
NdAtom by NdAtom, positives before negatives, each time the one that shares
the most atoms with those already grown, an order that keeps the sets met
on the way small (as in Dechter's bucket elimination, AIJ 1999). Each
component gives one factor, and an answer set is the union of one image per
factor: the sets come out distinct, the work follows each component's
distinct images rather than the choice product, `count` multiplies the
factors' sizes without building a set, and `subset_minimal` filters each
component on its own.

Expansion works on a `compiled.AtomTable` and the ids of a model's positive
and negative NdAtoms in it. The command line passes the ground program's
one table and the index tuples the solvers return; `expand` and `count`
build a table of the model's own NdAtoms, positives first, each side in key
order. An entry of a table is an atom's rank for a chosen atom and its rank
plus `len(table.texts)` for a signed negative, so sorted entries list the
positives and then the negatives, each in key order.

An answer set is an int mask over the model's `Layout`: a bit per slot,
an entry that varies between its answer sets (a member of a part of its own
of two or more members, or of a wider component), the smallest entry at the
highest bit. A one-member part's entry is in every answer set, folded into
the run of such entries before the next slot or after the last. The images
are grown as masks by comprehensions; the product is the product of each
half of the factors, grown factor by factor, and then one comprehension
over both halves; and one int sort gives canonical order (`_canonical`).
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
    among equal fills the smaller row comes first. With no signed slot the
    negative half of the key is the same for every mask and is left out."""
    slots, n = layout.slots, len(layout.table.texts)
    width, split = len(slots), bisect_left(slots, n)
    fixed = [] if alone else [*chain.from_iterable(layout.runs)]
    signs, signed = bisect_left(fixed, n), width - split
    hi = (1 << split - (bisect_left(slots, fixed[signs - 1]) if signs else 0)) - 1
    lo = (1 << width - (bisect_left(slots, fixed[-1]) if len(fixed) > signs else split)) - 1
    size = width.bit_length()
    if not signed:  # the key's positive half alone
        keys = [((m | ((t := m & hi | hi + 1) & -t) - 1) << size | width - m.bit_count()) << width
                | m for m in masks]
    else:
        low = (1 << signed) - 1
        keys = [((((p | ((t := p & hi | hi + 1) & -t) - 1) << size | width - p.bit_count())
                  << signed | (q | ((u := q & lo | lo + 1) & -u) - 1)) << size
                 | width - q.bit_count()) << width | m
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
    its own of two or more members, in product order; and the distinct
    images, as masks, of each component of the NdAtoms that share an atom,
    in the order of their first NdAtoms."""
    members, n = table.members, len(table.texts)
    sides = ([members[i] for i in pos], [members[i] for i in neg])
    atoms = [*chain.from_iterable(sides[0]), *chain.from_iterable(sides[1])]
    repeated = ({r for r, uses in Counter(atoms).items() if uses > 1}
                if len(set(atoms)) < len(atoms) else ())
    own, fixed, joined = [], [], []
    for negative, side in enumerate(sides):
        if repeated:
            joined += [(nd, negative) for nd in side if not repeated.isdisjoint(nd)]
            side = [nd for nd in side if repeated.isdisjoint(nd)]
        if negative:
            side = [[r + n for r in nd] for nd in side]
        own += [nd for nd in side if len(nd) > 1]
        # the entries of one-member parts, in every answer set, ascending
        fixed += [nd[0] for nd in side if len(nd) == 1]
    slots = sorted([*chain.from_iterable(own),
                    *{r + n * negative for nd, negative in joined for r in nd}])
    bit = {e: 1 << len(slots) - i for i, e in enumerate(slots, 1)}
    cuts = [0, *[bisect_left(fixed, e) for e in slots], len(fixed)]
    return (Layout(table, slots, [fixed[a:b] for a, b in zip(cuts, cuts[1:])]),
            [[bit[e] for e in part] for part in own],
            [_grown(component, bit, n) for component in _components(joined)] if joined else [])


def _components(joined: list) -> list[list]:
    """The NdAtoms `joined`, as (members, negative) pairs, grouped into the
    components of sharing an atom, each in the order given."""
    parent = {r: r for nd, _ in joined for r in nd}

    def root(r: int) -> int:
        while parent[r] != r:
            parent[r] = r = parent[parent[r]]
        return r

    for nd, _ in joined:
        for r in nd[1:]:
            parent[root(r)] = root(nd[0])
    components: dict[int, list] = {}
    for nd, negative in joined:
        components.setdefault(root(nd[0]), []).append((nd, negative))
    return list(components.values())


def _grown(component: list, bit: dict[int, int], n: int) -> set[int]:
    """The distinct images of a component's NdAtoms as masks, grown NdAtom
    by NdAtom: positives before negatives, each time the one that shares
    the most atoms with those grown so far, the first given on a tie. A
    negative's pick drops the images that hold its atom."""
    holders: dict[int, list[int]] = {}
    for i, (nd, _) in enumerate(component):
        for r in nd:
            holders.setdefault(r, []).append(i)
    # the atoms each NdAtom shares with those grown, a positive's above any
    score = [0 if negative else len(holders) + 1 for _, negative in component]
    images, rest = {0}, [*range(len(component))]
    while rest:
        i = max(rest, key=score.__getitem__)
        rest.remove(i)
        nd, negative = component[i]
        for r in nd:
            for j in holders.pop(r, ()):
                score[j] += 1
        if negative:
            pairs = [(bit.get(r, 0), bit[r + n]) for r in nd]
            images = {s | b for s in images for p, b in pairs if not s & p}
        else:
            bits = [bit[r] for r in nd]
            images = {s | b for s in images for b in bits}
    return images


def _product(factors: list, cap: int | None = None) -> list[int]:
    """The unions of one mask of each factor in product order, the first
    factor varying slowest; under `cap` the first `cap` + 1 at least. It is
    grown from the last factor; a step's first `cap` + 1 masks come from
    the first `cap` + 1 before it."""
    masks = [0]
    for bits in reversed(factors):
        masks = [m | b for b in bits for m in (masks if cap is None else masks[:cap + 1])]
    return masks


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

    The answer sets are the product of the factors, the parts of their own
    and then the components' images. It is built from two halves of the
    factors, each grown factor by factor, and one comprehension over both.
    With `cap`, the first `cap` combinations of the parts' images in product
    order are kept, the components' product last and in canonical order of
    its own, and the truncation flag is set when another exists.
    `subset_minimal` keeps the minimal answer sets only, before the cap: the
    minimal images of each component. The empty model expands to a single
    empty branch.
    """
    layout, own, grown = _parts(table, pos, neg)
    if subset_minimal:
        grown = list(map(_minimal, grown))
    shared = prod(map(len, grown))  # the size of the components' product
    if cap is None:
        factors = [*own, *grown]
        half = len(factors) // 2
        low = _product(factors[half:])
        masks = [a | b for a in _product(factors[:half]) for b in low] if half else low
    else:
        masks = _product(grown)
        if cap and shared > 1:
            masks = _canonical(masks, layout, alone=True)
        masks = _product([*own, masks], cap)
    truncated = cap is not None and len(masks) > cap
    if truncated:
        del masks[cap:]
    if shared > 1:  # only the components' images differ in size
        masks = _canonical(masks, layout)
    else:
        masks.sort(reverse=True)
    return Expansion(layout, masks, truncated)


def expand(model: Model, cap: int | None = None, subset_minimal: bool = False) -> Expansion:
    """`expand_ids` of a model given as its NdAtoms."""
    return expand_ids(*_model_table(model), cap=cap, subset_minimal=subset_minimal)


def count(model: Model, cap: int | None = None) -> tuple[int, bool]:
    """Number of distinct answer sets, and whether it is exact: the product
    of the factors' sizes, the parts of their own and the components'
    distinct images, with no answer set built.

    Past `cap` it returns (cap, False); exact otherwise.
    """
    _, own, grown = _parts(*_model_table(model))
    total = prod(map(len, own)) * prod(map(len, grown))
    return (cap, False) if cap is not None and total > cap else (total, True)
