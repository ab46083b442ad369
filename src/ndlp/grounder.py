"""Grounding: instantiate variables, evaluate arithmetic and comparisons.

Time variables (T, T0, T1, ...) range over 0..horizon; every other variable
ranges over the constants occurring literally in the program. Sums like T+1
are evaluated after substitution, so heads may mention time points one past
the horizon. Instances whose built-in comparison is false are dropped; true
comparisons are removed from the body.

Only instances whose positive body lies in the positive closure that ignores
negation are kept; no other instance fires under any semantics. The result
is the product grounding less its dead instances, each rule's instances in
the order of the product of its sorted variables' domains. Instantiation is
semi-naive and join-driven, a set at a time as in Datalog engines
(Bancilhon and Ramakrishnan, SIGMOD 1986): a round's delta is every NdAtom
the round before derived, and each positive literal some of them fit joins
those with the NdAtoms indexed so far, the literals before it in the body
with older ones only, so a round finds each instance once. A set-literal
matches an NdAtom it grounds to exactly, so coinciding members collapse,
and a member whose variables are bound is looked up among the NdAtom's
members by hash; a set-literal whose members the steps before it all bind
grounds to one NdAtom, which is looked up by its key among those indexed.
A set-literal only meets NdAtoms of the sizes it can ground to: its
patterns of one predicate never coincide where some position holds a
distinct ground term in each. A variable no positive literal binds ranges
over its domain, and a bound value outside it is rejected. At most
MAX_GROUND_INSTANCES instances are recorded, kept or dropped, and no larger
time domain is built; past that, grounding stops with a GroundingError.

The grounder reads one input form, set-atom patterns (`ground_patterns`).
A set-atom's pattern is its distinct members as `(pred, args)`, each arg a
variable's name, `(name, offset)` for a sum, or a ground term's key (an
int, a symbol's name, or `(name, args)` for a compound, args keyed the
same way), with the names of its variables and whether it is a
comparison; a variable's name starts with an upper-case letter and a
symbol's does not. A rule is (head, body, negated, origin), its set-atoms
the indices of their patterns. There are two producers. The statement
reader's flat reader builds one pattern per distinct set-atom text,
straight from its split of the text (`parser._Parser.flat`), with
variables or without, and the command line hands them over with no
syntax value built (`cli._load`). `ground` converts a `Program`'s syntax
values (`_patterns`), once per distinct NdAtom; a program whose atoms'
texts have no upper-case letter and no "=", so neither a variable nor a
comparison, skips that and is compiled as written by
`make_ground_program`, the compile of ground rules that is also the
reference the join route is tested against.

Every rule without variables is its own instance, less its comparisons,
or none when one is false; ground comparisons are decided here alone, on
the keys (`_holds`). Its set-atoms are keyed once per pattern. Where some
rule has variables, the instantiator starts from them and counts each
such rule's positive body down instead of joining it; where none has, no
round runs.

Matching runs on ints over fixed join plans, as Souffle compiles rules to
loop nests over indexes (Jordan et al., CAV 2016). Each ground term has an
id, the program's constants first in key order, so an ordinary variable
admits exactly the ids below their count, and sums evaluate by int
arithmetic. A source rule's variables, and the ground terms its patterns
name, have slots in a row, after which come the NdAtoms its join literals
matched. Each positive literal a delta may trigger has a plan, the others
in a greedy order, fewest unbound variables first; which slots a step finds
bound depends only on the steps before it, so each step, compiled once when
a join first reaches it, fixes the index it probes and, per argument,
whether to compare an id, bind a slot with its domain check, or apply a
sum. A step extends a chunk of partial rows, lazily, into the next chunk.
Only the `(pred, position)` indexes probed are built.

An instance is the ids of its head and positive and negated body NdAtoms,
keyed by its slots, and goes straight into `compiled.GroundProgram`; a
one-member head of a rule without negated literals, whose comparisons
compare slots, is read off the row. Heads and negated literals stay
`(pred, arg ids)` keys: grounding builds no `Atom` or `NdAtom`. One sort
of the terms ranks them (`compiled.rank_terms`); each rule's instances
sort by those ranks, and one sort of the member keys by them orders the
atom table and the base, whose texts are joined from term texts. Where
grounding created no term and no predicate has two arities, as on every
closure request, the constants' ids are their ranks: the terms are not
sorted, and the members sort on their own keys. Where every NdAtom is one
atom, the members' sort orders the base as well (`compiled.table_program`).
Each kept rule is written as its ids, its signs and its origin.

Every semantics runs over this *restricted* base; NdAtoms outside it are
false (total semantics) or negative (well-founded) and never enumerated.
"""

from __future__ import annotations

from itertools import chain, compress, islice, product, repeat
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .compiled import AtomTable, GroundProgram, make_ground_program, rank_terms, table_program
from .errors import GroundingError
from .syntax import (BUILTIN_PREDICATES, Constant, Integer, NdAtom, Program, Rule, Sum,
                     Term, Variable, is_time_variable)

# Most instances of rules with variables one `ground()` call may record,
# kept or dropped, and so also the most time points a free time variable
# may range over. Past it grounding stops with a GroundingError rather than
# running until time or memory runs out.
MAX_GROUND_INSTANCES = 100_000

CHUNK_ROWS = 1024  # most partial rows a join step takes at a time

# What a plan step does with one argument of a member: compare its id with
# a bound slot's, bind an ordinary or a time variable's slot, compare or
# bind through a sum, or match a compound term's arguments in turn.
SAME, CONST, TIME, SUM_SAME, SUM_CONST, SUM_TIME, NEST = range(7)


_PLAIN: frozenset[str] = frozenset()
_negated = attrgetter("negated")


def _patterns(rules: Sequence[Rule]) -> tuple[list[tuple], list[tuple]]:
    """The set-atom patterns of `rules`, one per distinct NdAtom by identity
    (the parser shares a repeated one), and each rule as (head, body,
    negated, origin): the indices of its NdAtoms' patterns, and whether each
    body literal is negated."""
    index: dict[int, int] = {}
    patterns: list[tuple] = []

    def pattern(nd: NdAtom) -> int:
        names: list[str] = []
        atoms = nd.atoms
        members = ((atoms[0].pred, _args(atoms[0].args, names)),) if len(atoms) == 1 \
            else tuple([(atom.pred, _args(atom.args, names)) for atom in atoms])
        i = index[id(nd)] = len(patterns)
        patterns.append((members, frozenset(names) if names else _PLAIN,
                         atoms[0].pred in BUILTIN_PREDICATES))
        return i

    found = index.get
    read = []
    for rule in rules:
        head = found(id(rule.head))
        if head is None:
            head = pattern(rule.head)
        if not rule.body:
            read.append((head, (), (), rule.origin))
            continue
        body = []
        for lit in rule.body:
            i = found(id(lit.atom))
            body.append(pattern(lit.atom) if i is None else i)
        read.append((head, tuple(body), tuple(map(_negated, rule.body)), rule.origin))
    return patterns, read


def _args(terms: tuple[Term, ...], names: list[str]) -> tuple:
    """The pattern args of `terms`, the names of their variables put in
    `names`; a sum's base is a variable."""
    args = []
    for term in terms:
        kind = type(term)
        if kind is Constant:
            args.append(term.name)
        elif kind is Integer:
            args.append(term.value)
        elif kind is Variable:
            names.append(term.name)
            args.append(term.name)
        elif kind is Sum:
            names.append(term.base.name)
            args.append((term.base.name, term.offset))
        else:
            args.append((term.name, _args(term.args, names)))
    return tuple(args)


def _constants(patterns: list[tuple]) -> list:
    """The keys of the ground terms the patterns name, and of those inside
    their compounds: the program's constants, in key order (integers by
    value, then symbols by name). A variable's name starts with an
    upper-case letter and a symbol's does not, so no name is both."""
    found, names = set(), set()
    for members, variables, _ in patterns:
        names |= variables
        for _, args in members:
            found.update(args)
    found -= names
    stack = [arg for arg in found if type(arg) is tuple]
    while stack:  # sums, which name a variable, and compounds, whose args count
        arg = stack.pop()
        found.discard(arg)
        if type(arg[1]) is tuple:
            inner = set(arg[1]) - names
            stack += [term for term in inner if type(term) is tuple]
            found |= inner
    return sorted(found, key=lambda key: (type(key) is str, key))


def _holds(members: tuple) -> bool:
    """Whether a comparison without variables holds. The parser folds
    `INT+INT`, so it compares its two arguments' keys as written."""
    (op, (left, right)), = members
    return (left == right) == (op == "==")


class _Sum:
    """`slot+offset` in a grounding pattern; the parser gives every sum a
    variable base."""

    __slots__ = ("slot", "offset")

    def __init__(self, slot: int, offset: int):
        self.slot, self.offset = slot, offset


class _Step:
    """The step of a plan for a join literal, whose NdAtom goes at `at` in a
    row. A one-member literal of `pred` and `arity` args probes `by_argument`
    with the `SAME` or `SUM_SAME` action `probe`, or else scans `scans`, and
    runs `actions` on each candidate. A wider one scans `scans`, its member
    patterns in `wide`: (pred, arity, actions, or grounding args once bound);
    when the steps before it bind every pattern, it looks its one NdAtom up
    by the key of `lookup`, the patterns as (pred, grounding args)."""

    __slots__ = ("at", "pred", "arity", "probe", "actions", "wide", "scans", "lookup")

    def __init__(self, at: int, pred=None, arity=0, probe=None, actions=(), scans=(), wide=None,
                 lookup=None):
        self.at, self.pred, self.arity, self.probe = at, pred, arity, probe
        self.actions, self.wide, self.scans, self.lookup = actions, wide, scans, lookup


class _Source:
    """One source rule with variables during instantiation, from the
    patterns of its set-atoms and its `rule` (head, body, negated, origin)
    as `ground_patterns` takes it. Variable j of its sorted `names` has slot
    j of `slots`, and is a time variable where `timed[j]`; each ground term
    its patterns name has a later slot holding the term's id. A member's
    slot pattern is (pred, args, whether every arg is a slot), an arg a
    slot, a `_Sum`, or `(name, args)` for a compound with variables.
    `joins` holds each positive literal's slot patterns and index keys,
    `binds` the slots of its variables, and `plans[k]` joins them from
    literal k. A row of the join is the slots, `width` of them, then the
    NdAtom each join literal matched, in body order, and `slots` is the row
    it starts from; `free` are the slots no join binds. `grounded` (the
    head, then negated literals) and `tests` hold slot patterns.
    `instances` maps slots to the ids of the head, positive and negated
    body, or to None when a comparison or arithmetic failed. `layout` tells
    which kept body literals are negated; `after` counts the rules without
    variables kept before it."""

    def __init__(self, rule: tuple, names: list[str], timed: list[bool], after: int,
                 written_id: Callable[[object], int], patterns: list[tuple]):
        head, body, negated, self.origin = rule
        self.names, self.timed, self.after = names, timed, after
        # a variable's name, or a ground term's key, -> its slot
        self.slot = dict(zip(names, range(len(names))))
        self.ground_terms: list = []  # the keys of the ground terms with slots
        # every pattern first, so every slot is placed before a join fills any
        member, slot = self.member, self.slot.__getitem__
        head = tuple(map(member, patterns[head][0]))
        self.layout, self.tests, self.grounded, self.joins, self.binds = [], [], [head], [], []
        for i, negative in zip(body, negated):
            slotted, variables, builtin = patterns[i]
            slotted = tuple(map(member, slotted))
            if builtin:
                self.tests.append(slotted[0])
                continue
            self.layout.append(negative)
            if negative:
                self.grounded.append(slotted)
            else:
                self.joins.append((slotted, self.scans(slotted)))
                self.binds.append(set(map(slot, variables)))
        self.slots = [0] * len(names) + list(map(written_id, self.ground_terms))
        # a one-member head without negated literals, whose comparisons
        # compare slots, grounded in `record`: (pred, args, reader, the
        # comparisons as pairs of slots and whether they must be equal)
        pred, args, plain = head[0]
        self.head = (pred, args, itemgetter(*args) if plain and len(args) > 1 else None,
                     tuple([(*test[1], test[0] == "==") for test in self.tests])) \
            if len(self.grounded) == len(head) == 1 and all(test[2] for test in self.tests) \
            else None
        joins = self.joins
        # per plan, the slots bound so far and, once it has a second step,
        # the join literals not yet placed
        self.bound: list[set[int]] = [set() for _ in joins]
        self.todo: list[list[int] | None] = [None] * len(joins)
        self.width = len(self.slots)
        self.plans = [[self.step(k, self.bound[k], False)] for k in range(len(joins))]
        joined = set().union(*self.binds)
        self.free = [j for j in range(len(names)) if j not in joined]
        self.slots += [0] * len(joins)
        self.instances: dict[tuple[int, ...], tuple | None] = {}

    def member(self, member: tuple) -> tuple[str, tuple, bool]:
        pred, args = member
        slots = tuple(map(self.slot.get, args))  # the variables and ground terms met before
        if None not in slots:
            return pred, slots, True
        slots = tuple(map(self.arg, args))
        return pred, slots, all(map(int.__instancecheck__, slots))

    def arg(self, arg):
        """The slot pattern of a pattern arg: a `_Sum`, `(name, args)` for a
        compound with variables, or a slot; a ground term met first gets the
        next slot."""
        if type(arg) is tuple:
            if type(arg[1]) is int:
                return _Sum(self.slot[arg[0]], arg[1])
            if self.varied(arg[1]):
                return arg[0], tuple(map(self.arg, arg[1]))
        slot = self.slot.get(arg)
        if slot is None:
            slot = self.slot[arg] = len(self.slot)
            self.ground_terms.append(arg)
        return slot

    def varied(self, args: tuple) -> bool:
        """Whether pattern args hold a variable, in a sum or a compound."""
        return any(self.slot.get(arg, len(self.names)) < len(self.names) if type(arg) is not tuple
                   else type(arg[1]) is int or self.varied(arg[1]) for arg in args)

    def variables(self, args: tuple) -> set[int]:
        """The slots of the variables in slot pattern args."""
        slots = set()
        for arg in args:
            if type(arg) is int:
                if arg < len(self.names):
                    slots.add(arg)
            elif type(arg) is _Sum:
                slots.add(arg.slot)
            else:
                slots |= self.variables(arg[1])
        return slots

    def extend(self, k: int) -> _Step:
        """Compile the next step of plan k, the first time a join reaches
        it: the join literal left with the fewest unbound variables, the
        first of them on a tie."""
        todo, bound, binds = self.todo[k], self.bound[k], self.binds
        if todo is None:
            todo = self.todo[k] = [j for j in range(len(self.joins)) if j != k]
        pick = todo[0] if len(todo) == 1 else min(todo, key=lambda j: len(binds[j] - bound))
        todo.remove(pick)
        self.plans[k].append(self.step(pick, bound, True))
        return self.plans[k][-1]

    def step(self, pos: int, bound: set[int], probed: bool) -> _Step:
        """The step for join literal `pos` after the slots `bound`, which
        it extends; a trigger literal is not `probed`."""
        patterns, scans = self.joins[pos]
        if len(patterns) == 1:
            pred, args, _ = patterns[0]
            # the probe: the first argument that is ground, a variable bound
            # before the step or a sum of one, which then needs no action
            at = next((position for position, arg in enumerate(args)
                       if (arg in bound or arg >= len(self.names) if type(arg) is int
                           else type(arg) is _Sum and arg.slot in bound)), None) if probed else None
            actions = self.actions(args, bound)
            probe = None if at is None else actions[at]
            return _Step(self.width + pos, pred, len(args), probe,
                         actions if at is None else actions[:at] + actions[at + 1:], scans)
        wide = []
        for pred, args, _ in patterns:
            if self.variables(args) <= bound:
                wide.append((pred, len(args), (), args))
            else:
                wide.append((pred, len(args), self.actions(args, bound), None))
        lookup = tuple([(pred, args) for pred, _, _, args in wide]) \
            if probed and all(args is not None for *_, args in wide) else None
        return _Step(self.width + pos, scans=scans, wide=wide, lookup=lookup)

    def scans(self, patterns: tuple) -> list:
        """The index keys of the NdAtoms a join literal may match: a
        one-member NdAtom's is its predicate, a wider one's its predicates
        and size. A set-literal's patterns of one predicate and arity may
        coincide unless some position holds a distinct ground term in each."""
        if len(patterns) == 1:
            return [patterns[0][0]]
        preds = frozenset([pred for pred, _, _ in patterns])
        groups: dict[tuple[str, int], list[tuple]] = {}
        for pred, args, _ in patterns:
            groups.setdefault((pred, len(args)), []).append(args)
        apart = all(len(group) == 1 or any(
            len(set(column)) == len(column) and all(type(a) is int and a >= len(self.names)
                                                    for a in column)
            for column in zip(*group)) for group in groups.values())
        return [(preds, size) if size > 1 else patterns[0][0]
                for size in range(len(patterns) if apart else len(preds), len(patterns) + 1)]

    def actions(self, args: tuple, bound: set[int]) -> tuple:
        """What to do per pattern arg to match `args` after the slots
        `bound`, which it extends: (code, position, slot, offset), or for a
        compound (NEST, position, (name, arity), its arguments' actions)."""
        actions = []
        for position, arg in enumerate(args):
            kind = type(arg)
            if kind is int:
                if arg in bound or arg >= len(self.names):
                    actions.append((SAME, position, arg, None))
                else:
                    actions.append((TIME if self.timed[arg] else CONST, position, arg, None))
                    bound.add(arg)
            elif kind is _Sum:
                slot = arg.slot
                code = SUM_SAME if slot in bound else SUM_TIME if self.timed[slot] else SUM_CONST
                actions.append((code, position, slot, arg.offset))
                bound.add(slot)
            else:
                actions.append((NEST, position, (arg[0], len(arg[1])),
                                self.actions(arg[1], bound)))
        return tuple(actions)


class _Instantiator:
    """Semi-naive instantiation over the positive closure that ignores
    negation, from the set-atoms of the rules without variables, each keyed
    once, in rounds: the NdAtoms a round derives are the next one's delta,
    and an instance is found in the round its last positive body NdAtom
    arrives.

    A ground term's id comes from its key: an int for an Integer, a str for
    a Constant, `(name, arg ids)` for a Compound, the program's `constants`
    first in key order. A member is keyed `(pred, arg ids)`, and `keys[i]`
    holds NdAtom i's members, in their natural order when there are
    several. The rules without variables, `fixed` as (head, body, negated,
    origin) over the indices of `patterns`, are each set-atom keyed once,
    by its pattern."""

    def __init__(self, patterns: list[tuple], sources: list[tuple], fixed: list[tuple],
                 horizon: int | None, constants: list):
        self.patterns, self.horizon, self.nconst = patterns, horizon, len(constants)
        self.term_keys: list = list(constants)
        self.term_ids = {key: i for i, key in enumerate(constants)}
        self.time_domain: list[int] | None = None
        self.keys: list[tuple] = []
        self.by_key: dict[tuple, int] = {}  # members in natural or pattern order -> id
        ids: dict[int, int] = {}  # a pattern's index -> the id of its NdAtom
        heads, pos, neg = [], [], []
        for head, body, negated, _ in fixed:
            for i in (head, *body):
                if i not in ids:
                    ids[i] = self.intern(tuple([(pred, tuple(map(self.written_id, args)))
                                                for pred, args in patterns[i][0]]))
            heads.append(ids[head])
            pos.append([ids[i] for i, negative in zip(body, negated) if not negative])
            neg.append([ids[i] for i, negative in zip(body, negated) if negative])
        self.sources = [_Source(*source, self.written_id, patterns) for source in sources]
        self.room = MAX_GROUND_INSTANCES  # instances it may still record
        # NdAtom id -> the round that indexes it, the one after it is derived
        self.derived: dict[int, int] = {}
        self.round = 0
        self.queue: list[int] = []
        # the rules without variables kept, as their signs and origin and
        # the ids of their head, positive and negated body; each counts down
        # its positive body literals not yet taken off the queue
        self.fixed = [(negated, origin) for _, _, negated, origin in fixed], heads, pos, neg
        self.missing = list(map(len, pos))
        # NdAtom id -> the rules without variables still waiting for it
        self.waiting: dict[int, list[int]] = {}
        for r, body in enumerate(pos):
            for i in body:
                self.waiting.setdefault(i, []).append(r)
            if not body:
                self.derive(heads[r])
        self.triggers: dict = {}  # index key -> (source, plan) of each literal it fits
        for source in self.sources:
            for k, plan in enumerate(source.plans):
                for key in plan[0].scans:
                    self.triggers.setdefault(key, []).append((source, k))
        self.by_argument: dict[tuple[str, int], dict] = {}  # -> arg id -> the NdAtoms
        self.probed: dict[str, list[tuple[int, dict]]] = {}  # pred -> (position, index)
        self.by_signature: dict = {}  # index key -> the NdAtoms it keys

    def term_id(self, key) -> int:
        """The id of the ground term keyed `key`."""
        i = self.term_ids.get(key)
        if i is None:
            i = self.term_ids[key] = len(self.term_keys)
            self.term_keys.append(key)
        return i

    def written_id(self, key) -> int:
        """The id of a ground term as a pattern names it: a compound's is
        `(name, args)`, its args named the same way."""
        if type(key) is tuple:
            key = key[0], tuple(map(self.written_id, key[1]))
        return self.term_id(key)

    def ground_member(self, member: tuple, slots: list[int]) -> tuple | None:
        """A head, negated or comparison member pattern under `slots` as its
        key `(pred, arg ids)`; None when its arithmetic is not defined."""
        pred, args, plain = member
        if plain:
            return pred, tuple([slots[arg] for arg in args])
        ids = self.ground_args(args, slots)
        return None if ids is None else (pred, ids)

    def ground_args(self, args: tuple, slots: list[int]) -> tuple[int, ...] | None:
        """The ids of pattern args under `slots`; None as above."""
        ids = []
        for arg in args:
            if type(arg) is int:
                i = slots[arg]
            elif type(arg) is _Sum:
                value = self.term_keys[slots[arg.slot]]
                if type(value) is not int:
                    return None
                i = self.term_id(value + arg.offset)
            else:
                inner = self.ground_args(arg[1], slots)
                if inner is None:
                    return None
                i = self.term_id((arg[0], inner))
            ids.append(i)
        return tuple(ids)

    def match(self, actions: tuple, arity: int, ids: tuple, slots: list[int]) -> bool:
        """Whether a member of arg ids `ids` fits a pattern of `arity` args
        whose step runs `actions`, binding the slots they bind."""
        if len(ids) != arity:
            return False
        term_keys = self.term_keys
        for code, position, slot, offset in actions:
            i = ids[position]
            if code == SAME:
                if slots[slot] != i:
                    return False
            elif code == CONST:
                if i >= self.nconst:
                    return False
                slots[slot] = i
            elif code == TIME:
                value = term_keys[i]
                if type(value) is not int or not 0 <= value <= self.horizon:
                    return False
                slots[slot] = i
            elif code == NEST:
                value = term_keys[i]
                if type(value) is not tuple or value[0] != slot[0] \
                        or not self.match(offset, slot[1], value[1], slots):
                    return False
            else:
                value = term_keys[i]
                if type(value) is not int:
                    return False
                value -= offset
                if code == SUM_SAME:
                    if term_keys[slots[slot]] != value:
                        return False
                elif code == SUM_TIME:
                    if not 0 <= value <= self.horizon:
                        return False
                    slots[slot] = self.term_id(value)
                else:
                    i = self.term_ids.get(value, self.nconst)
                    if i >= self.nconst:
                        return False
                    slots[slot] = i
        return True

    def bind_nd(self, wide: list, members: tuple, slots: list[int]):
        """Yield once per binding under which a set-literal of two or more
        member patterns grounds to exactly the NdAtom whose members are
        `members`: every pattern matches some member and every member is
        matched, so coinciding patterns may collapse. Patterns are placed in
        order on an explicit stack, so a set-literal of any width matches
        without recursion. A pattern whose variables earlier steps and
        patterns bind grounds to one member key, which is looked up among
        `members` by hash instead of being tried against each of them."""
        position = None  # member key -> its index in members
        hits = [0] * len(members)
        placed: list[int] = []  # per placed pattern: its member
        j = 0
        while True:
            i = len(placed)
            if i < len(wide) and j < len(members):
                pred, arity, actions, args = wide[i]
                if args is not None:
                    if position is None:
                        position = {member: k for k, member in enumerate(members)}
                    k = position.get((pred, self.ground_args(args, slots)), -1)
                    if k < j:  # its one member is absent or was tried already
                        j = len(members)
                        continue
                    j, bound = k, True
                else:
                    member = members[j]
                    bound = member[0] == pred and self.match(actions, arity, member[1], slots)
                if bound:
                    hits[j] += 1
                    placed.append(j)
                    j = 0
                else:
                    j += 1
                continue
            if i == len(wide) and all(hits):
                yield
            if not placed:
                return
            j = placed.pop()  # backtrack: try the next member for it
            hits[j] -= 1
            j += 1

    def run(self) -> None:
        """Instantiate in rounds: each takes the queue as its delta, counts down
        the rules without variables, indexes the delta, and runs each plan
        whose trigger fits some of it once per index key, over those."""
        heads, missing, waiting, triggers = self.fixed[1], self.missing, self.waiting, self.triggers
        for source in self.sources:
            if not source.joins:
                self.emit(source, [source.slots])
        while self.queue:
            delta = self.queue
            self.queue, self.fresh = [], set(delta)
            self.round += 1
            for i in delta:
                for r in waiting.pop(i, ()):
                    missing[r] -= 1
                    if not missing[r]:
                        self.derive(heads[r])
            for key, ids in self.index(delta).items():
                for source, k in triggers.get(key, ()):
                    self.join(source, k, ids)

    def index(self, delta: list[int]) -> dict:
        """Index a delta by index key, and where plans probe it; its NdAtoms by key."""
        keys, probed, by_signature, arrived = self.keys, self.probed, self.by_signature, {}
        for i in delta:
            key = keys[i]
            if len(key) == 1:
                trigger, args = key[0]
                for position, index in probed.get(trigger, ()):
                    if position < len(args):
                        index.setdefault(args[position], []).append(i)
            else:
                trigger = frozenset([pred for pred, _ in key]), len(key)
            by_signature.setdefault(trigger, []).append(i)
            arrived.setdefault(trigger, []).append(i)
        return arrived

    def join(self, source: _Source, k: int, delta: list[int]) -> None:
        """Run plan k once over `delta`, the round's NdAtoms its trigger fits,
        and record the rows that match every step. Each step extends a list
        of at most CHUNK_ROWS rows lazily, its rows taken CHUNK_ROWS at a
        time, and the steps wait on an explicit stack, so few rows are held.
        A literal before the trigger matches only NdAtoms of earlier rounds,
        so only the plan of an instance's first literal with a new one finds it."""
        plan, first = source.plans[k], source.width + k
        stack = [(1, self.advance(plan[0], [source.slots], delta))]
        while stack:
            depth, found = stack[-1]
            rows = list(islice(found, CHUNK_ROWS))
            if not rows:
                stack.pop()
            elif depth == len(source.joins):
                self.emit(source, rows)
            else:
                step = plan[depth] if depth < len(plan) else self.extend(source, k)
                fresh = self.fresh if step.at < first else ()
                stack.append((depth + 1, self.advance(step, rows, fresh=fresh)))

    def extend(self, source: _Source, k: int) -> _Step:
        """The next step of a source's plan k, compiled; the NdAtoms already
        indexed go into a `(pred, position)` index it is the first to probe."""
        step = source.extend(k)
        if step.probe is not None and (step.pred, step.probe[1]) not in self.by_argument:
            position = step.probe[1]
            index = self.by_argument[step.pred, position] = {}
            self.probed.setdefault(step.pred, []).append((position, index))
            for i in self.by_signature.get(step.pred, ()):
                args = self.keys[i][0][1]
                if position < len(args):
                    index.setdefault(args[position], []).append(i)
        return step

    def candidates(self, step: _Step, rows: list) -> list[Iterable[int]]:
        """Per row, the indexed NdAtoms a step may match under its slots: the
        one its bound set-literal grounds to, found by key, those its probe's
        index holds under the probed value, or every one its scans key. The
        older-only rule is `advance`'s."""
        if step.lookup is not None:
            return [self.looked_up(step.lookup, row) for row in rows]
        if step.probe is None:
            return [list(chain.from_iterable([self.by_signature.get(key, ())
                                              for key in step.scans]))] * len(rows)
        _, position, slot, offset = step.probe
        index = self.by_argument[step.pred, position]
        if offset is None:
            return [index.get(row[slot], ()) for row in rows]
        # a symbol has no value to add to, and a sum that is no term keys nothing
        return [index.get(self.term_ids.get(self.term_keys[row[slot]] + offset), ())
                if type(self.term_keys[row[slot]]) is int else () for row in rows]

    def looked_up(self, patterns: tuple, slots: list[int]) -> tuple[int, ...]:
        """The indexed NdAtom whose members the bound `patterns` ground to
        under `slots`, alone, or nothing."""
        key = []
        for pred, args in patterns:
            ids = self.ground_args(args, slots)
            if ids is None:
                return ()
            key.append((pred, ids))
        key = tuple(key)
        i = self.by_key.get(key)
        if i is None:
            i = self.by_key.get(tuple(sorted(set(key))))
        return (i,) if self.derived.get(i, self.round + 1) <= self.round else ()

    def advance(self, step: _Step, rows: list, ids: list[int] | None = None,
                fresh: set[int] | tuple = ()) -> Iterator[tuple[int, ...]]:
        """Each row extended by each NdAtom, among `ids` or else its candidates
        less `fresh`, that the step's literal matches, with it at `step.at`."""
        keys, at = self.keys, step.at
        found = zip(rows, self.candidates(step, rows)) if ids is None else ((rows[0], ids),)
        if step.wide is None:
            match, actions, arity = self.match, step.actions, step.arity
            for row, candidates in found:
                row = [*row]
                for i in candidates:
                    if i not in fresh and match(actions, arity, keys[i][0][1], row):
                        row[at] = i
                        yield tuple(row)
        else:
            for row, candidates in found:
                row = [*row]
                for i in candidates:
                    for _ in () if i in fresh else self.bind_nd(step.wide, keys[i], row):
                        row[at] = i
                        yield tuple(row)

    def emit(self, source: _Source, rows: list) -> None:
        """Record the instance of each row under each binding of the free
        slots, in the order of the product of their domains."""
        if source.free:
            domains = [self.domain(source.timed[j]) for j in source.free]

            def bound(row: tuple[int, ...]) -> Iterable[list[int]]:
                row = [*row]
                for values in product(*domains):
                    for j, value in zip(source.free, values):
                        row[j] = value
                    yield row

            rows = chain.from_iterable(map(bound, rows))
        self.record(source, rows)

    def record(self, source: _Source, rows: Iterable[Sequence[int]]) -> None:
        """Record the instance of each row, which the join finds once; each
        counts against MAX_GROUND_INSTANCES, kept or dropped."""
        instances, width, derived, queue = source.instances, source.width, self.derived, self.queue
        indexed_in, room = self.round + 1, self.room
        pred, args, read, tests = source.head or (None, None, None, None)
        for row in rows:
            room -= 1
            if room < 0:
                raise GroundingError(f"more than MAX_GROUND_INSTANCES = {MAX_GROUND_INSTANCES} "
                                     f"ground instances ({source.origin})")
            if pred is None:
                instance = self.instance(source, row)
            else:
                for left, right, equal in tests:
                    if (row[left] == row[right]) != equal:
                        instance = None
                        break
                else:
                    ids = read(row) if read else self.ground_args(args, row)
                    instance = None if ids is None else (
                        self.intern(((pred, ids),)), tuple(row[width:]), ())
            instances[tuple(row[:width])] = instance
            if instance is not None and instance[0] not in derived:
                derived[instance[0]] = indexed_in
                queue.append(instance[0])
        self.room = room

    def instance(self, source: _Source, slots: list[int]):
        """The instance of a row, with the positive body the join matched,
        or None when arithmetic fails or a comparison is false. Comparisons
        are evaluated, and every key grounded, before anything is interned,
        so an instance dropped interns nothing."""
        for test in source.tests:
            key = self.ground_member(test, slots)
            if key is None or (key[1][0] == key[1][1]) != (test[0] == "=="):
                return None
        keys = []
        for pattern in source.grounded:
            key = tuple([self.ground_member(member, slots) for member in pattern])
            if None in key:
                return None
            keys.append(key)
        head, *negated = map(self.intern, keys)
        return head, tuple(slots[source.width:]), tuple(negated)

    def intern(self, key: tuple) -> int:
        """The id of the NdAtom whose members have the keys `key`, in any
        order. A new key of one member is its own sorted form, and is
        stored once; a wider one is stored as given and as its sorted form."""
        i = self.by_key.get(key)
        if i is None:
            if len(key) == 1:
                i = self.by_key[key] = len(self.keys)
                self.keys.append(key)
                return i
            canonical = tuple(sorted(set(key)))
            i = self.by_key.get(canonical)
            if i is None:
                i = self.by_key[canonical] = len(self.keys)
                self.keys.append(canonical)
            self.by_key[key] = i
        return i

    def derive(self, i: int) -> None:
        if i not in self.derived:
            self.derived[i] = self.round + 1
            self.queue.append(i)

    def domain(self, timed: bool) -> Iterable[int]:
        if not timed:
            return range(self.nconst)
        if self.time_domain is None:
            if self.horizon + 1 > MAX_GROUND_INSTANCES:
                raise GroundingError(f"horizon {self.horizon} gives more than "
                                     f"MAX_GROUND_INSTANCES = {MAX_GROUND_INSTANCES} time points")
            self.time_domain = [self.term_id(t) for t in range(self.horizon + 1)]
        return self.time_domain

    def program(self) -> GroundProgram:
        """Each source rule's instances in source-rule order, those of a
        rule with variables in product order, first-wins, over the interned
        NdAtoms in key order. The ranks of `compiled.rank_terms`, which also
        order the atom table, order constants as their ids do and time
        points by value, and instances sort by the ranks of their slots. So
        they sort by the ids themselves unless the integers' ids do not rise
        with their values; then a rule with a time variable maps its slots
        through the ranks. With no term created, the ids are the ranks, and
        the table sorts on them too, unless a predicate has two arities.
        Since one source rule fixes the layout of its instances, equal ids
        mean equal rules."""
        rules, heads, pos, neg = self.fixed
        fixed = list(zip(heads, pos, neg))
        if len(self.term_keys) == self.nconst and _one_arity(self.patterns):
            terms = rank = None  # the constants' ids rank them, and rank the members' args
        else:
            terms = rank_terms(self.term_keys)
            integers = [key for key in self.term_keys if type(key) is int]
            rank = None if integers == sorted(integers) else terms[0].__getitem__
        specs, kept, done = [], [], 0
        for source in self.sources:
            specs += rules[done:source.after]
            kept += fixed[done:source.after]
            done = source.after
            instances = source.instances
            if rank and any(source.timed):
                instances = dict(zip(map(tuple, map(map, repeat(rank), instances)),
                                     instances.values()))
            found = list(filter(None, dict.fromkeys(map(instances.__getitem__,
                                                        sorted(instances)))))
            specs += [(source.layout, source.origin)] * len(found)
            kept += found
        specs += rules[done:]
        kept += fixed[done:]
        heads, pos, neg = zip(*kept) if kept else ((), (), ())
        return table_program(AtomTable.of_keys(self.keys, self.term_keys, terms),
                             heads, pos, neg, specs.__iter__)


def _one_arity(patterns: list[tuple]) -> bool:
    """Whether no predicate of the patterns has two arities, as the parser
    ensures but a hand-built `Program` need not."""
    arities = {(pred, len(args)) for members, _, _ in patterns for pred, args in members}
    return len(arities) == len(set(map(itemgetter(0), arities)))


def _checked(horizon: int | None) -> int | None:
    if horizon is not None and horizon < 0:
        raise GroundingError("horizon must be non-negative")
    return horizon


def ground_patterns(patterns: list[tuple], rules: list[tuple],
                    horizon: int | None) -> GroundProgram:
    """The ground instances of every rule whose positive body can be derived,
    plus every rule without variables whose comparisons hold, of rules given
    as set-atom patterns (see the module docstring): each rule (head, body,
    negated, origin), its set-atoms the indices of their patterns. Only
    rules with variables need the instantiator's rounds.

    Missing horizon with time variables present, a non-time variable with
    no constants to range over, or more than MAX_GROUND_INSTANCES
    instances, is an error.
    """
    _checked(horizon)
    constants = None
    fixed: list[tuple] = []
    sources: list[tuple] = []
    for rule in rules:
        head, body, negated, origin = rule
        names = patterns[head][1]
        if body:
            names = names.union(*[patterns[i][1] for i in body])
        if names:
            names = sorted(names)
            timed = list(map(is_time_variable, names))
            for name, is_time in zip(names, timed):
                if is_time:
                    if horizon is None:
                        raise GroundingError(
                            f"time variable {name} needs a horizon; "
                            f"pass --horizon or add #horizon ({origin})"
                        )
                else:
                    if constants is None:
                        constants = _constants(patterns)
                    if not constants:
                        raise GroundingError(
                            f"variable {name} has no constants to range over ({origin})"
                        )
            sources.append((rule, names, timed, len(fixed)))
            continue
        # a rule without variables is its own instance, less its
        # comparisons, or none when one of them is false
        tests = [patterns[i][2] for i in body]
        if any(tests):
            if not all([_holds(patterns[i][0]) for i, test in zip(body, tests) if test]):
                continue
            kept = [not test for test in tests]
            rule = head, tuple(compress(body, kept)), tuple(compress(negated, kept)), origin
        fixed.append(rule)
    instantiator = _Instantiator(patterns, sources, fixed, horizon, constants or [])
    if sources:  # rules without variables are kept as written: rounds find no more
        instantiator.run()
    return instantiator.program()


def ground(program: Program, horizon: int | None = None) -> GroundProgram:
    """The ground instances of every rule whose positive body can be derived,
    plus every rule written without variables whose comparisons hold.

    `horizon` overrides the program's own `#horizon`. Missing horizon with
    time variables present, a non-time variable with no constants to range
    over, or more than MAX_GROUND_INSTANCES instances, is an error. A
    program with a variable or a comparison is grounded from its set-atom
    patterns (`ground_patterns`); one with neither is compiled as written
    (`compiled.make_ground_program`).
    """
    horizon = _checked(program.horizon if horizon is None else horizon)
    rules = program.rules
    # a variable's name starts with an upper-case letter and only a
    # comparison's text holds "=": atoms whose texts have neither need no pattern
    texts = [atom.text for rule in rules for atom in rule.head.atoms]
    texts += [atom.text for rule in rules for lit in rule.body for atom in lit.atom.atoms]
    text = "".join(texts)
    if "=" in text or not text.islower():
        patterns, read = _patterns(rules)
        if any(names or test for _, names, test in patterns):
            return ground_patterns(patterns, read, horizon)
    return make_ground_program(rules)
