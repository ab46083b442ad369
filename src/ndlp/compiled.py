"""The ground program, in the one form every solver runs on.

`GroundProgram` is a program's ground instantiation over its restricted
base in key order. NdAtoms are ints in base order and each rule is a head
int plus tuples of its positive and negated body ints, which the grounder
emits directly for rules with variables, with per-atom lists of the rules
that use the atom positively, that negate it and that define it.
`make_ground_program` derives them from ground `Rule`s, in one pass that
interns their NdAtoms by value: it compiles a program
without variables, and it is the reference the grounder's join is tested
against. The base is held in one form, its `AtomTable`, which
`table_program` sorts: the grounder builds it from int keys
(`AtomTable.of_keys`), its texts joined from term texts, the command line's
loader from the names of braced rules over names, and `make_ground_program`
from the NdAtoms (`AtomTable.of`). No `NdAtom` or `Rule` is built until
`base` or `rules` is read.
One batch fixpoint, `reduct_model`, gives the least model of the reduct
against a 0/1 interpretation in linear time. It serves the least model
(against the empty interpretation), and the tests check each stable model
the search emits to equal its own, the definition of stable.

`Propagator` closes a partial assignment of the negated atoms under both
bounds incrementally. The lower bound is smodels' atleast: each rule
counts the body literals it still waits for and fires at zero. The upper
bound is its atmost, kept with clasp-style source pointers: an atom
assigned in removes the heads that relied on the rules it blocks, the
removal cascades through the sources, the heads that still have a usable
rule are re-supported, and the rest are unfounded. One loop forces both
bounds off one worklist of assignments (decisions, derived negated atoms
in, unfounded ones out), and its one conflict is an atom already assigned
the other value. Each change goes onto one trail, so a decision costs the
rules that read the atoms it settles and `undo` costs the same again; no
decision reruns a whole fixpoint. The stable search decides and undoes on
one propagator, and its root propagation is the well-founded model. The
object-level operators in `positive`, `stable` and `wf` stay as the
references the tests check this form against.

Since the base is interned in key order, a model's sorted index tuple is
already its canonical order. The least and well-founded models come out as
truth flags and stable models as index tuples; the library decodes them to
NdAtom sets, while the command line renders the indices through
`member_texts` and expands them, both off the program's atom table.
"""

from __future__ import annotations

from functools import cached_property, partial
from itertools import compress
from operator import attrgetter
from typing import Callable, Iterable, Sequence

from .syntax import Atom, Compound, Constant, Integer, NdAtom, Rule, Term, sort_nd_atoms

# Truth assignment codes of the propagator's negated atoms.
OPEN, OUT, IN = 0, 1, 2

# Trail entries are `atom << 2 | kind`: the atom was assigned, entered the
# lower bound, or left the upper bound.
ASSIGNED, LOWERED, UNFOUNDED = 0, 1, 2

# Byte translation swapping 0/1 truth flags.
_COMPLEMENT = bytes.maketrans(b"\0\1", b"\1\0")


class AtomTable:
    """The member atoms of a sequence of NdAtoms in key order, as their
    texts, and each NdAtom's members as ranks into them. Ranks follow key
    order, so sorting them sorts the atoms. `entries` holds the texts and
    then their signed "not" texts: an atom of rank r has entry r, and its
    negative entry r + len(texts). The `Atom`s themselves are built by
    `spell` on first read of `atoms`; the grounder builds its table from
    int keys, `table_program` from member ranks, and `of` from NdAtoms."""

    def __init__(self, texts: Sequence[str], members: Sequence[tuple[int, ...]],
                 spell: Callable[[], tuple[Atom, ...]]):
        self.texts, self.members = texts, members
        self._spell = spell

    @classmethod
    def of(cls, nd_atoms: Sequence[NdAtom]) -> AtomTable:
        """The table of `nd_atoms`, their atoms keyed by text: the parser
        spells distinct ground atoms apart, and a str caches its hash where
        an `Atom` hashes through Python code."""
        text = attrgetter("text")
        # in NdAtom order the members come nearly sorted, which the sort
        # finds in linear time
        unique = {atom.text: atom for nd in nd_atoms for atom in nd.atoms}
        atoms = tuple(sorted(unique.values(), key=attrgetter("key")))
        texts = tuple(map(text, atoms))
        rank = dict(zip(texts, range(len(texts)))).__getitem__
        members = tuple([(rank(nd.atoms[0].text),) if len(nd.atoms) == 1
                         else tuple(map(rank, map(text, nd.atoms))) for nd in nd_atoms])
        return cls(texts, members, atoms.__iter__)

    @classmethod
    def of_keys(cls, keys: list[tuple], term_keys: list,
                terms: tuple[list[int], list[str]]) -> AtomTable:
        """The table of the NdAtoms whose members are keyed `keys`, from the
        keys alone. A member is keyed `(pred, arg ids)`, and term i
        `term_keys[i]`: an int for an Integer, a str for a Constant,
        `(name, arg ids)` for a Compound. `terms` are the terms' ranks and
        texts (`rank_terms`), and one sort of the member keys by those ranks
        orders the members."""
        rank, texts = terms
        # a member sorts as (pred, arity, *its terms' ranks), with no Python key function
        unique = list({member for key in keys for member in key})
        sort_keys = [(pred, len(args), *map(rank.__getitem__, args)) for pred, args in unique]
        members = [unique[i] for i in sorted(range(len(unique)), key=sort_keys.__getitem__)]
        member_rank = dict(zip(members, range(len(members)))).__getitem__
        ranked = [(member_rank(key[0]),) if len(key) == 1 else tuple(sorted(map(member_rank, key)))
                  for key in keys]
        spelled = tuple([f"{pred}({', '.join([texts[a] for a in args])})" if args else pred
                         for pred, args in members])
        return cls(spelled, ranked, partial(_spell_atoms, members, term_keys))

    @cached_property
    def atoms(self) -> tuple[Atom, ...]:
        return tuple(self._spell())

    @cached_property
    def entries(self) -> list[str]:
        # a list: renderers map its `__getitem__` over every answer set, and
        # a list's is a direct method call where a tuple's goes through a
        # slot wrapper
        return [*self.texts, *map("not ".__add__, self.texts)]


def rank_terms(term_keys: list) -> tuple[list[int], list[str]]:
    """The rank of each term keyed as in `AtomTable.of_keys` in the order of
    its syntax key, from one sort, and its text: integers rank by value
    before symbols, and symbols by name."""
    sort_keys: list[tuple] = []
    texts: list[str] = []
    for key in term_keys:
        if type(key) is int:
            sort_keys.append((0, key))
            texts.append(str(key))
        elif type(key) is str:
            sort_keys.append((1, key))
            texts.append(key)
        else:
            name, args = key
            sort_keys.append((3, name, len(args), tuple([sort_keys[a] for a in args])))
            texts.append(f"{name}({', '.join([texts[a] for a in args])})")
    rank = [0] * len(term_keys)
    for r, i in enumerate(sorted(range(len(term_keys)), key=sort_keys.__getitem__)):
        rank[i] = r
    return rank, texts


def _spell_atoms(members: list[tuple], term_keys: list) -> list[Atom]:
    """The `Atom` of each member key, over terms built from their keys."""
    terms: list[Term] = []
    for key in term_keys:
        terms.append(Integer(key) if type(key) is int else Constant(key) if type(key) is str
                     else Compound(key[0], tuple(map(terms.__getitem__, key[1]))))
    return [Atom(pred, tuple(map(terms.__getitem__, args))) for pred, args in members]


class GroundProgram:
    """A variable-free program over its restricted base in key order, by
    which the solvers sort their models, in the int form they run on. Its
    base is held as its atom table, and the NdAtoms are built from the
    table's atoms on first read; its rules are spelled out as `Rule` objects
    on first read."""

    def __init__(self, heads: list[int], pos: list[tuple[int, ...]], neg: list[tuple[int, ...]],
                 spell: Callable[[GroundProgram], tuple[Rule, ...]], table: AtomTable):
        """Rule r is heads[r] :- pos[r], not neg[r], over the NdAtoms whose
        member ranks are `table.members`; no body tuple repeats an id.
        `spell` returns the same rules as `Rule`s, given the program, whose
        `base` it may read."""
        self.table = table
        self.n = n = len(table.members)
        self.heads, self.pos, self.neg = heads, pos, neg
        self._spell = spell
        self.watchers = watchers = [[] for _ in range(n)]
        self.neg_occ = neg_occ = [[] for _ in range(n)]
        self.defining = defining = [[] for _ in range(n)]
        for ridx, (head, body, negated) in enumerate(zip(heads, pos, neg)):
            defining[head].append(ridx)
            for b in body:
                watchers[b].append(ridx)
            for m in negated:
                neg_occ[m].append(ridx)
        self.pos_len = list(map(len, pos))
        self.negated = list(compress(range(n), neg_occ))
        self.bodiless = [ridx for ridx, size in enumerate(self.pos_len) if not size]

    @cached_property
    def base(self) -> tuple[NdAtom, ...]:
        atom = self.table.atoms.__getitem__
        return tuple([NdAtom(tuple(map(atom, ranks))) for ranks in self.table.members])

    @cached_property
    def rules(self) -> tuple[Rule, ...]:
        return self._spell(self)

    @cached_property
    def base_set(self) -> frozenset[NdAtom]:
        return frozenset(self.base)

    def __str__(self) -> str:
        return "".join(f"{rule}\n" for rule in self.rules)

    def reduct_model(self, interp: bytes) -> bytearray:
        """Truth flags of the least model of the reduct against the 0/1
        interpretation `interp`. A rule negating an atom `interp` holds waits
        for -1 body atoms, so it never counts down to zero and fires.
        Worklist evaluation, linear in program size."""
        remaining = self.pos_len.copy()
        neg_occ = self.neg_occ
        for m in self.negated:
            if interp[m]:
                for ridx in neg_occ[m]:
                    remaining[ridx] = -1
        heads = self.heads
        watchers = self.watchers
        derived = bytearray(self.n)
        stack: list[int] = []
        for ridx in self.bodiless:
            if not remaining[ridx]:
                head = heads[ridx]
                if not derived[head]:
                    derived[head] = 1
                    stack.append(head)
        while stack:
            for ridx in watchers[stack.pop()]:
                left = remaining[ridx] - 1
                remaining[ridx] = left
                if not left:
                    head = heads[ridx]
                    if not derived[head]:
                        derived[head] = 1
                        stack.append(head)
        return derived

    def least(self) -> bytearray:
        """Truth flags of the least model of a negation-free program: the
        reduct model against the empty interpretation, which blocks no rule."""
        return self.reduct_model(bytes(self.n))

    def well_founded(self) -> tuple[bytes, bytes]:
        """Truth flags of the well-founded model's true and false sets: the
        lower bound of the all-open propagation, which never conflicts, and
        the complement of its upper bound."""
        state = Propagator(self)
        return bytes(state.lower), state.upper.translate(_COMPLEMENT)

    def member_texts(self) -> Callable[[int], list[str]]:
        """NdAtom i's member texts as a function of i, read off the atom
        table, so that no `Atom` is built."""
        texts, members = self.table.texts, self.table.members
        return lambda i: [texts[r] for r in members[i]]

    def ids(self, flags: Iterable) -> tuple[int, ...]:
        """The indices of the set flags, in key order."""
        return tuple(compress(range(self.n), flags))

    def decode(self, flags: bytes) -> frozenset[NdAtom]:
        return frozenset(compress(self.base, flags))


def restricted_base(rules: Iterable[Rule]) -> tuple[NdAtom, ...]:
    """All NdAtoms occurring in the rules, in key order."""
    base: set[NdAtom] = set()
    for rule in rules:
        base.add(rule.head)
        for lit in rule.body:
            base.add(lit.atom)
    return sort_nd_atoms(base)


def make_ground_program(rules: Iterable[Rule]) -> GroundProgram:
    """Compile already-ground rules over their restricted base, in one pass
    that interns their NdAtoms by value in rule order and one sort of the
    table into key order."""
    rules = tuple(rules)
    ids: dict[NdAtom, int] = {}
    intern = ids.setdefault
    heads: list[int] = []
    pos: list[list[int]] = []
    neg: list[list[int]] = []
    for rule in rules:
        heads.append(intern(rule.head, len(ids)))
        positive: list[int] = []
        negated: list[int] = []
        for lit in rule.body:
            (negated if lit.negated else positive).append(intern(lit.atom, len(ids)))
        pos.append(positive)
        neg.append(negated)
    return table_program(AtomTable.of(list(ids)), heads, pos, neg, lambda *_: rules)


def table_program(table: AtomTable, heads: list[int], pos: list, neg: list,
                  spell: Callable[[list[int], GroundProgram], tuple[Rule, ...]]) -> GroundProgram:
    """The rules `heads`, `pos` and `neg` over the distinct NdAtoms of
    `table`, id i with member ranks `table.members[i]`, in key order by one
    sort of the ranks, which reorders `table` in place: id i becomes
    `renumber[i]`, repeats dropped from each body, and `spell(renumber,
    program)` spells the rules."""
    ranked = table.members
    order = sorted(range(len(ranked)), key=ranked.__getitem__)
    renumber = sorted(range(len(order)), key=order.__getitem__)  # the inverse of `order`
    new = renumber.__getitem__
    table.members = list(map(ranked.__getitem__, order))

    def bodies(lists: Sequence) -> list[tuple[int, ...]]:
        return [tuple(dict.fromkeys(map(new, body))) if len(body) > 1
                else (new(body[0]),) if body else () for body in lists]

    return GroundProgram(list(map(new, heads)), bodies(pos), bodies(neg), partial(spell, renumber),
                         table)


class Propagator:
    """A partial assignment of a program's negated atoms, closed under its
    lower and upper bounds: the least models of the reducts against the
    atoms not assigned out and against the atoms assigned in.

    A negated atom the lower bound derives is assigned in and one outside
    the upper bound out, in one loop whose one conflict is an atom already
    assigned the other value. Construction propagates the all-open
    assignment, which never conflicts. `decide` pushes one assignment into
    that loop; every change goes onto `trail`, and `undo(mark)` restores
    the assignment, both bounds and the rule counters as they were when the
    trail had `mark` entries. Source pointers are not restored: an atom's
    source stays a usable rule whenever the atom is in the upper bound, and
    their graph stays acyclic.
    """

    def __init__(self, program: GroundProgram):
        self.program = program
        n = program.n
        self.assign = bytearray(n)
        self.lower = bytearray(n)
        self.upper = upper = bytearray(n)
        self.trail: list[int] = []
        # body literals a rule waits for before it fires (lower) and that
        # keep it unusable (upper: positive atoms outside upper, negated
        # atoms assigned in)
        self.low_wait = [size + len(neg) for size, neg in zip(program.pos_len, program.neg)]
        self.up_wait = program.pos_len.copy()
        # a usable rule that derives each atom in the upper bound
        self.source = [-1] * n
        self._support(range(n))
        fired = [program.heads[ridx] for ridx, wait in enumerate(self.low_wait) if not wait]
        self._propagate(fired, [(m, OUT) for m in program.negated if not upper[m]])

    def decide(self, atom: int, value: int) -> bool:
        """Assign an open negated atom of a consistent state and propagate;
        False on a conflict, after which the caller undoes to a mark taken
        before the call. An open atom lies between the bounds, so the
        decision itself never conflicts; what it forces may."""
        return self._propagate([], [(atom, value)])

    def undo(self, mark: int) -> None:
        """Replay the trail backwards down to `mark` entries."""
        program = self.program
        watchers, neg_occ = program.watchers, program.neg_occ
        assign, lower, upper = self.assign, self.lower, self.upper
        low_wait, up_wait = self.low_wait, self.up_wait
        trail = self.trail
        for entry in reversed(trail[mark:]):
            atom = entry >> 2
            kind = entry & 3
            if kind == ASSIGNED:
                if assign[atom] == OUT:
                    for ridx in neg_occ[atom]:
                        low_wait[ridx] += 1
                else:
                    for ridx in neg_occ[atom]:
                        up_wait[ridx] -= 1
                assign[atom] = OPEN
            elif kind == LOWERED:
                lower[atom] = 0
                for ridx in watchers[atom]:
                    low_wait[ridx] += 1
            else:
                upper[atom] = 1
                for ridx in watchers[atom]:
                    up_wait[ridx] -= 1
        del trail[mark:]

    def pick_pivot(self, start: int) -> int | None:
        """Position in `negated`, from `start` on, of the first open atom
        with a live negative occurrence.

        A rule is live when no negated atom of it is assigned in and its
        positive body lies inside the upper bound, that is when it waits for
        nothing in the upper count; any other rule can never fire in a
        completion of this assignment, so atoms negated only there cannot
        influence a reduct and need no case split: their final value is
        whatever derivability makes it. Deeper in the search assigned atoms
        stay assigned and dead rules stay dead, so a child node resumes the
        scan from its parent's pivot.
        """
        program = self.program
        negated, neg_occ = program.negated, program.neg_occ
        assign, up_wait = self.assign, self.up_wait
        for position in range(start, len(negated)):
            atom = negated[position]
            if assign[atom] == OPEN:
                for ridx in neg_occ[atom]:
                    if not up_wait[ridx]:
                        return position
        return None

    def _propagate(self, derived: list[int], assigned: list[tuple[int, int]]) -> bool:
        """Force until nothing changes, off one worklist of `assigned`
        (atom, value) pairs: `derived` atoms enter the lower bound, a negated
        one assigned in; once it is closed, the atoms assigned in shrink the
        upper bound, and a negated atom it loses is assigned out."""
        program = self.program
        heads, watchers, neg_occ = program.heads, program.watchers, program.neg_occ
        assign, lower, upper = self.assign, self.lower, self.upper
        low_wait, up_wait, source = self.low_wait, self.up_wait, self.source
        trail = self.trail
        ins: list[int] = []
        while True:
            if assigned:
                atom, value = assigned.pop()
                if assign[atom]:
                    if assign[atom] != value:
                        return False  # the one conflict: assigned the other value
                    continue
                assign[atom] = value
                trail.append(atom << 2 | ASSIGNED)
                if value == OUT:
                    for ridx in neg_occ[atom]:
                        wait = low_wait[ridx] - 1
                        low_wait[ridx] = wait
                        if not wait:
                            derived.append(heads[ridx])
                else:
                    for ridx in neg_occ[atom]:
                        up_wait[ridx] += 1
                    ins.append(atom)
            elif derived:
                atom = derived.pop()
                if lower[atom]:
                    continue
                lower[atom] = 1
                trail.append(atom << 2 | LOWERED)
                for ridx in watchers[atom]:
                    wait = low_wait[ridx] - 1
                    low_wait[ridx] = wait
                    if not wait:
                        derived.append(heads[ridx])
                if neg_occ[atom]:
                    assigned.append((atom, IN))
            elif ins:
                # the heads whose source an atom assigned in blocks leave the
                # upper bound, and so do the atoms whose source reads them
                removed: list[int] = []
                for atom in ins:
                    for ridx in neg_occ[atom]:
                        head = heads[ridx]
                        if source[head] == ridx and upper[head]:
                            upper[head] = 0
                            removed.append(head)
                ins.clear()
                for atom in removed:
                    for ridx in watchers[atom]:
                        up_wait[ridx] += 1
                        head = heads[ridx]
                        if source[head] == ridx and upper[head]:
                            upper[head] = 0
                            removed.append(head)
                self._support(removed)
                for atom in removed:
                    if not upper[atom]:
                        trail.append(atom << 2 | UNFOUNDED)
                        if neg_occ[atom]:
                            assigned.append((atom, OUT))
            else:
                return True

    def _support(self, atoms: Iterable[int]) -> None:
        """Put each of `atoms` outside the upper bound that has a usable
        rule back into it, and forward-chain from there, setting the source
        of each atom regained."""
        program = self.program
        heads, watchers, defining = program.heads, program.watchers, program.defining
        upper, up_wait, source = self.upper, self.up_wait, self.source
        for atom in atoms:
            if upper[atom]:
                continue
            for ridx in defining[atom]:
                if not up_wait[ridx]:
                    break
            else:
                continue
            upper[atom] = 1
            source[atom] = ridx
            stack = [atom]
            while stack:
                for ridx in watchers[stack.pop()]:
                    wait = up_wait[ridx] - 1
                    up_wait[ridx] = wait
                    if not wait:
                        head = heads[ridx]
                        if not upper[head]:
                            upper[head] = 1
                            source[head] = ridx
                            stack.append(head)
