"""Grounding: instantiate variables, evaluate arithmetic and comparisons.

Time variables (T, T0, T1, ...) range over 0..horizon; every other variable
ranges over the set of constants occurring literally in the program. Sums
like T+1 are evaluated after substitution, so heads may mention time points
one past the horizon. Ground instances whose built-in comparison evaluates
false are dropped; true comparisons are removed from the body.

Only instances whose positive body can be derived are kept: every positive
body NdAtom must lie in the positive closure that ignores negation. No other
instance fires under any semantics. Instantiation is semi-naive and driven by
joins, in the style of lparse and gringo: each NdAtom that becomes derivable
is matched against the positive body literals it fits and joined with the
NdAtoms derived before it. A set-literal matches an NdAtom it grounds to
exactly, so members that coincide collapse into one; a member whose
variables are already bound is looked up among the NdAtom's members by
hash, so a wide set-literal matches in linear time. An instance takes its
positive body from the NdAtoms the join matched and grounds only its head,
negated literals and comparisons. A variable that no positive body literal
binds ranges over its domain; a bound value outside the domain is
rejected, so a time point derived past the horizon binds no time
variable. Each rule's instances come out in the order of the product
of its sorted variables' domains, without duplicates. The result is the
product grounding less its dead instances. The instantiator records at most
MAX_GROUND_INSTANCES instances, kept or dropped, and builds no time domain
of more points; past that, grounding stops with a GroundingError.

Every rule without variables, found by checking each distinct NdAtom once,
takes one route: it is its own instance, and its NdAtoms are interned by
value in rule order. A program with no other rule is then compiled in one
pass, renumbered to key order by the same step the instantiator ends with.
Otherwise the instantiator starts from those NdAtoms, keying each distinct
one once, and never joins such a rule: it counts down its positive body
literals and derives its head once the NdAtom of the last of them is taken
off the queue. `make_ground_program`, which compiles given ground rules
over their sorted restricted base, is the reference both are tested
against.

Matching runs on ints, as gringo interns its terms. Within one `ground()`
call each ground term gets an id, the program's constants first in key
order, so an ordinary variable admits exactly the ids below their count,
and a sum like T+1 binds and evaluates by int arithmetic on an integer's
value. Each source rule's set-literals are compiled once to member
patterns over these ids, and every NdAtom is keyed by its members'
`(pred, arg ids)`; a one-member set-literal, the common case, binds by one
direct call, not through the generator that matches wider ones.

Grounding goes straight into the int form of `compiled.GroundProgram`,
the one object every solver runs on: an instance is the ids of its head
and of its positive and negated body NdAtoms. Heads and negated literals
are grounded to keys, and an NdAtom is built only for a key not met
before. One sort renumbers the ids to key order, and the `Rule` objects
are spelled out only when `GroundProgram.rules` is read.

All semantics downstream operate over the *restricted* non-deterministic
base: the NdAtoms that occur somewhere in the ground rules. NdAtoms outside
it are false (total semantics) or negative (well-founded) by convention and
never enumerated.
"""

from __future__ import annotations

from itertools import product, repeat
from typing import Callable, Iterable

from .compiled import GroundProgram
from .errors import GroundingError
from .syntax import (
    BUILTIN_PREDICATES,
    Atom,
    Compound,
    Constant,
    Integer,
    Literal,
    NdAtom,
    Program,
    Rule,
    Sum,
    Term,
    Variable,
    is_time_variable,
    sort_nd_atoms,
    term_variables,
)

# Most instances of rules with variables one `ground()` call may record,
# kept or dropped, and so also the most time points a free time variable
# may range over. Past it grounding stops with a GroundingError rather than
# running until time or memory runs out.
MAX_GROUND_INSTANCES = 100_000


def restricted_base(rules: Iterable[Rule]) -> tuple[NdAtom, ...]:
    """All NdAtoms occurring in the rules, in key order."""
    base: set[NdAtom] = set()
    for rule in rules:
        base.add(rule.head)
        for lit in rule.body:
            base.add(lit.atom)
    return sort_nd_atoms(base)


def make_ground_program(rules: Iterable[Rule]) -> GroundProgram:
    """Compile already-ground rules over their restricted base."""
    rules = tuple(rules)
    base = restricted_base(rules)
    index = {nd: i for i, nd in enumerate(base)}
    return GroundProgram(
        base,
        [index[rule.head] for rule in rules],
        [tuple(dict.fromkeys(map(index.__getitem__, rule.positive_body()))) for rule in rules],
        [tuple(dict.fromkeys(map(index.__getitem__, rule.negative_body()))) for rule in rules],
        lambda: rules,
    )


def _in_key_order(atoms: list[NdAtom], heads: list[int], pos: list, neg: list,
                  spell: Callable[[], tuple[Rule, ...]]) -> GroundProgram:
    """The rules `heads[r] :- pos[r], not neg[r]` over the NdAtoms `atoms`,
    compiled with the ids renumbered to key order by one sort and repeats
    dropped from each body; `spell` spells them as `Rule`s."""
    order = sorted(range(len(atoms)), key=[nd.key for nd in atoms].__getitem__)
    # the inverse permutation: each old id's position in key order
    renumbered = sorted(range(len(order)), key=order.__getitem__)
    renumber = renumbered.__getitem__

    def renumbered_bodies(bodies: list) -> list[tuple[int, ...]]:
        return [tuple(dict.fromkeys(map(renumber, body))) if len(body) > 1
                else (renumber(body[0]),) if body else () for body in bodies]

    return GroundProgram([atoms[old] for old in order], list(map(renumber, heads)),
                         renumbered_bodies(pos), renumbered_bodies(neg), spell)


def program_constants(program: Program) -> tuple[Term, ...]:
    """Constants (symbols and integers) occurring literally in the program."""
    found: set[Term] = set()

    def walk(term: Term) -> None:
        if isinstance(term, (Constant, Integer)):
            found.add(term)
        elif isinstance(term, Compound):
            for arg in term.args:
                walk(arg)
        elif isinstance(term, Sum):
            walk(term.base)

    for rule in program.rules:
        for nd in [rule.head] + [lit.atom for lit in rule.body]:
            for atom in nd:
                for arg in atom.args:
                    walk(arg)
    return tuple(sorted(found, key=lambda t: t.key))


def _is_test(lit: Literal) -> bool:
    return lit.atom.atoms[0].is_builtin()


def _fixed_instance(rule: Rule) -> Rule | None:
    """The one instance of a rule without variables that has comparisons:
    the rule less its comparisons, or None when one of them is false. The
    parser folds `INT+INT`, so a ground comparison compares its two
    arguments as written."""
    tests = [lit.atom.atoms[0] for lit in rule.body if _is_test(lit)]
    if any((test.args[0] == test.args[1]) != (test.pred == "==") for test in tests):
        return None
    return Rule(rule.head, tuple(lit for lit in rule.body if not _is_test(lit)), rule.origin)


def _undo(env: dict[str, int], trail: list[str], mark: int) -> None:
    while len(trail) > mark:
        del env[trail.pop()]


class _Sum:
    """`name+offset` in a compiled pattern; the parser gives every sum a
    variable base."""

    __slots__ = ("name", "offset")

    def __init__(self, name: str, offset: int):
        self.name, self.offset = name, offset


def _signature(members) -> frozenset[str]:
    return frozenset([pred for pred, _ in members])


class _Source:
    """One source rule with variables during instantiation, its set-literals
    compiled to member patterns `(pred, args)` (see `_Instantiator.compile`):
    the positive body literals its instances are joined on, each with the
    variables of its members and the id of the NdAtom it is matched to in
    the join under way, the variables no such literal binds, and the
    instances found, keyed by the ids their variables are bound to. An
    instance is the ids of its head, positive body and negated body, in body
    order; None marks one whose comparison or arithmetic failed. `layout`
    tells, per body literal left in an instance, whether it is negated.
    `after` counts the rules without variables kept before it."""

    def __init__(self, rule: Rule, names: list[str], after: int, compile: Callable):
        self.rule = rule
        self.names = names
        self.after = after
        kept = [lit for lit in rule.body if not _is_test(lit)]
        self.layout = [lit.negated for lit in kept]
        self.tests = [compile(lit.atom.atoms[0]) for lit in rule.body if _is_test(lit)]
        # the set-atoms each instance grounds: its head, then its negated literals
        self.grounded = [tuple(map(compile, nd.atoms))
                         for nd in [rule.head] + [lit.atom for lit in kept if lit.negated]]
        self.joins: list[tuple[tuple, list[set[str]], set[str]]] = []
        for lit in kept:
            if not lit.negated:
                per_member = [atom.variables() for atom in lit.atom]
                self.joins.append((tuple(map(compile, lit.atom.atoms)), per_member,
                                   set().union(*per_member)))
        self.matched = [0] * len(self.joins)
        joined = {n for _, _, bound in self.joins for n in bound}
        self.free = [name for name in names if name not in joined]
        self.instances: dict[tuple[int, ...], tuple | None] = {}


class _Instantiator:
    """Semi-naive instantiation over the positive closure that ignores
    negation. It starts from the set-atoms of the rules without variables,
    each already an instance of its own, and keys each distinct one once,
    keeping its id. Each NdAtom taken off the queue counts down the positive
    bodies of those rules that need it, is indexed, then is matched against
    the join literals it fits; the rest of each such rule body is joined
    against the NdAtoms indexed so far. An instance is thus found when the
    last of its positive body NdAtoms is taken off the queue.

    Matching runs on ids. Each ground term gets an id from its key: an int
    for an Integer, a str for a Constant, `(name, arg ids)` for a Compound.
    The program's constants come first, in key order, so a constant's id is
    its rank and an ordinary variable admits exactly the ids below
    `len(constants)`. A member is keyed `(pred, arg ids)`, and `keys[i]`
    holds the members of NdAtom `i` in canonical order."""

    def __init__(self, rules: list[tuple[Rule, list[str], int]], horizon: int | None,
                 constants: tuple[Term, ...], atoms: list[NdAtom], fixed: tuple):
        self.horizon = horizon
        self.nconst = len(constants)
        self.terms: list[Term] = list(constants)
        self.term_keys: list = [t.value if isinstance(t, Integer) else t.name for t in constants]
        self.term_ids = {key: i for i, key in enumerate(self.term_keys)}
        self.time_domain: list[int] | None = None
        self.sources = sources = [_Source(*rule, self.compile) for rule in rules]
        self.time = {
            name: is_time_variable(name) for source in sources for name in source.names
        }
        self.atoms: list[NdAtom] = []
        self.keys: list[tuple] = []
        self.by_key: dict[tuple, int] = {}  # members in canonical or pattern order -> id
        for nd in atoms:
            self.add(tuple(map(self.compile, nd.atoms)), nd)
        self.room = MAX_GROUND_INSTANCES  # instances it may still record
        self.members: dict[tuple, Atom] = {}  # member key -> the atom built
        self.derived: set[int] = set()
        self.queue: list[int] = []
        self.singletons: dict[str, frozenset[str]] = {}  # pred -> its one-member signature
        self.by_signature: dict[tuple[frozenset[str], int], list[int]] = {}
        self.by_argument: dict[tuple[str, int, int], list[int]] = {}
        # the rules without variables kept, with the ids of their head,
        # positive and negated body, which are those of `atoms`; each counts
        # down its positive body literals not yet taken off the queue
        self.fixed = fixed
        _, heads, bodies, _ = fixed
        self.missing = list(map(len, bodies))
        # NdAtom id -> the rules without variables still waiting for it
        self.waiting: dict[int, list[int]] = {}
        for r, body in enumerate(bodies):
            for i in body:
                self.waiting.setdefault(i, []).append(r)
            if not body:
                self.derive(heads[r])
        # (signature, size) -> (source, join literal position, the other
        # positions), for each signature and size of NdAtom the join
        # literal can match
        self.triggers: dict[tuple[frozenset[str], int], list[tuple[_Source, int, list[int]]]] = {}
        for source in sources:
            for pos, (members, _, _) in enumerate(source.joins):
                rest = [i for i in range(len(source.joins)) if i != pos]
                signature = _signature(members)
                for size in range(len(signature), len(members) + 1):
                    self.triggers.setdefault((signature, size), []).append((source, pos, rest))

    # -- the term table --------------------------------------------------

    def term_id(self, key, term: Term | None = None) -> int:
        """The id of the ground term keyed `key`, which is `term` when given;
        an Integer or Compound is built only for a key not met before."""
        i = self.term_ids.get(key)
        if i is None:
            i = self.term_ids[key] = len(self.terms)
            self.term_keys.append(key)
            if term is None:
                term = (Integer(key) if type(key) is int
                        else Compound(key[0], tuple(map(self.terms.__getitem__, key[1]))))
            self.terms.append(term)
        return i

    def written_id(self, term: Term) -> int:
        if isinstance(term, Integer):
            return self.term_id(term.value, term)
        if isinstance(term, Compound):
            return self.term_id((term.name, tuple(map(self.written_id, term.args))), term)
        return self.term_id(term.name, term)

    def compile(self, atom: Atom) -> tuple[str, tuple]:
        """A member pattern `(pred, args)`. An arg is the id of a ground
        term, the name of a variable, a `_Sum`, or `(name, args)` for a
        compound term with variables."""
        return atom.pred, tuple(map(self.compile_term, atom.args))

    def compile_term(self, term: Term):
        if isinstance(term, Variable):
            return term.name
        if isinstance(term, Sum):
            return _Sum(term.base.name, term.offset)
        if isinstance(term, Compound) and any(term_variables(term)):
            return term.name, tuple(map(self.compile_term, term.args))
        return self.written_id(term)

    def ground_member(self, member: tuple, env: dict[str, int]) -> tuple | None:
        """A head, negated or comparison member pattern under `env` as its
        key `(pred, arg ids)`; None when its arithmetic is not defined."""
        ids = self.ground_args(member[1], env)
        return None if ids is None else (member[0], ids)

    def ground_args(self, args: tuple, env: dict[str, int]) -> tuple[int, ...] | None:
        """The ids of compiled args under `env`; None as above."""
        ids = []
        for arg in args:
            if type(arg) is str:
                i = env[arg]
            elif type(arg) is int:
                i = arg
            elif type(arg) is _Sum:
                value = self.term_keys[env[arg.name]]
                if type(value) is not int:
                    return None
                i = self.term_id(value + arg.offset)
            else:
                inner = self.ground_args(arg[1], env)
                if inner is None:
                    return None
                i = self.term_id((arg[0], inner))
            ids.append(i)
        return tuple(ids)

    # -- matching --------------------------------------------------------

    def bind(self, pattern: tuple, key: tuple, env: dict[str, int], trail: list[str]) -> bool:
        """Extend `env` so that a member pattern, or a compound term's,
        grounds to `key`. Names bound on the way go on the trail, also when
        the match fails; the caller undoes them."""
        args, ids = pattern[1], key[1]
        if key[0] != pattern[0] or len(args) != len(ids):
            return False
        for arg, i in zip(args, ids):
            if type(arg) is str:
                bound = env.get(arg)
                if bound is None:
                    if self.time[arg]:
                        value = self.term_keys[i]
                        if type(value) is not int or not 0 <= value <= self.horizon:
                            return False
                    elif i >= self.nconst:
                        return False
                    env[arg] = i
                    trail.append(arg)
                elif bound != i:
                    return False
            elif type(arg) is int:
                if arg != i:
                    return False
            elif type(arg) is _Sum:
                if not self.bind_sum(arg, i, env, trail):
                    return False
            else:
                value = self.term_keys[i]
                if type(value) is not tuple or not self.bind(arg, value, env, trail):
                    return False
        return True

    def bind_sum(self, pattern: _Sum, i: int, env: dict[str, int], trail: list[str]) -> bool:
        """Bind `name+offset` to term `i` by int arithmetic on its value; a
        value no variable of that kind admits binds nothing."""
        value = self.term_keys[i]
        if type(value) is not int:
            return False
        value -= pattern.offset
        name = pattern.name
        bound = env.get(name)
        if bound is not None:
            return self.term_keys[bound] == value
        if self.time[name]:
            if not 0 <= value <= self.horizon:
                return False
            i = self.term_id(value)
        else:
            i = self.term_ids.get(value, self.nconst)
            if i >= self.nconst:
                return False
        env[name] = i
        trail.append(name)
        return True

    def bind_nd(self, patterns: tuple, names: list[set[str]], members: tuple, env, trail):
        """Yield once per binding under which a set-literal of two or more
        member patterns grounds to exactly the NdAtom whose members are
        `members`: every pattern matches some member and every member is
        matched, so coinciding patterns may collapse. Patterns are placed in
        order on an explicit stack, so a set-literal of any width matches
        without recursion. A pattern whose variables, `names`, are all
        bound grounds to one member key, which is looked up among `members`
        by hash instead of being tried against each of them."""
        position = None  # member key -> its index in members
        hits = [0] * len(members)
        placed: list[tuple[int, int]] = []  # per placed pattern: member, trail mark
        j = 0
        while True:
            i = len(placed)
            if i < len(patterns) and j < len(members):
                mark = len(trail)
                if names[i] <= env.keys():
                    if position is None:
                        position = {member: k for k, member in enumerate(members)}
                    pred, args = patterns[i]
                    k = position.get((pred, self.ground_args(args, env)), -1)
                    if k < j:  # its one member is absent or was tried already
                        j = len(members)
                        continue
                    j, bound = k, True
                else:
                    bound = self.bind(patterns[i], members[j], env, trail)
                if bound:
                    hits[j] += 1
                    placed.append((j, mark))
                    j = 0
                else:
                    _undo(env, trail, mark)
                    j += 1
                continue
            if i == len(patterns) and all(hits):
                yield
            if not placed:
                return
            j, mark = placed.pop()  # backtrack: try the next member for it
            hits[j] -= 1
            _undo(env, trail, mark)
            j += 1

    def run(self) -> None:
        _, heads, _, _ = self.fixed
        missing = self.missing
        for source in self.sources:
            if not source.joins:
                self.emit(source, {})
        keys = self.keys
        env: dict[str, int] = {}
        trail: list[str] = []
        while self.queue:
            i = self.queue.pop()
            for r in self.waiting.pop(i, ()):
                missing[r] -= 1
                if not missing[r]:
                    self.derive(heads[r])
            key = keys[i]
            for source, pos, rest in self.triggers.get(self.index(i, key), ()):
                patterns, names, _ = source.joins[pos]
                source.matched[pos] = i
                # a one-member pattern is only triggered by one-member NdAtoms
                if len(patterns) == 1:
                    if self.bind(patterns[0], key[0], env, trail):
                        self.join(source, rest, env, trail)
                    env.clear()
                    trail.clear()
                else:
                    for _ in self.bind_nd(patterns, names, key, env, trail):
                        self.join(source, rest, env, trail)

    def signature(self, pred: str) -> frozenset[str]:
        """The signature of a one-member NdAtom of `pred`, built once."""
        signature = self.singletons.get(pred)
        if signature is None:
            signature = self.singletons[pred] = frozenset((pred,))
        return signature

    def index(self, i: int, key: tuple) -> tuple[frozenset[str], int]:
        """Index NdAtom `i`, whose members are `key`; return its trigger."""
        if len(key) == 1:
            pred, args = key[0]
            for position, value in enumerate(args):
                self.by_argument.setdefault((pred, position, value), []).append(i)
            trigger = self.signature(pred), 1
        else:
            trigger = _signature(key), len(key)
        self.by_signature.setdefault(trigger, []).append(i)
        return trigger

    def candidates(self, pattern: tuple, env: dict[str, int]) -> Iterable[int]:
        """Ids of the indexed one-member NdAtoms a member pattern might
        ground to under `env`, found by its first argument that is ground, a
        bound variable or a sum of one."""
        pred, args = pattern
        for position, arg in enumerate(args):
            if type(arg) is int:
                value = arg
            elif type(arg) is str:
                value = env.get(arg)
                if value is None:
                    continue
            elif type(arg) is _Sum and arg.name in env:
                value = self.term_keys[env[arg.name]]
                if type(value) is not int:
                    return ()
                # a sum that is no term yet gives None, which keys nothing
                value = self.term_ids.get(value + arg.offset)
            else:
                continue
            return self.by_argument.get((pred, position, value), ())
        return self.by_signature.get((self.signature(pred), 1), ())

    def join(self, source: _Source, todo: list[int], env, trail) -> None:
        """Emit an instance for each binding of the join literals in `todo`.
        One match generator per bound literal waits on an explicit stack, so
        bodies of any length ground without recursion."""
        stack = [iter((todo,))]
        while stack:
            rest = next(stack[-1], None)
            if rest is None:
                stack.pop()
            elif rest:
                stack.append(self.matches(source, rest, env, trail))
            else:
                self.emit(source, env)

    def matches(self, source: _Source, todo: list[int], env, trail) -> Iterable[list[int]]:
        """Bind the join literal with the fewest unbound variables in every
        way `env` allows, yielding the literals still to join each time."""
        if len(todo) == 1:
            pick, rest = todo[0], []
        else:
            pick = min(todo, key=lambda i: sum(name not in env for name in source.joins[i][2]))
            rest = [i for i in todo if i != pick]
        patterns, names, _ = source.joins[pick]
        matched, keys = source.matched, self.keys
        if len(patterns) == 1:
            pattern = patterns[0]
            for i in self.candidates(pattern, env):
                mark = len(trail)
                if self.bind(pattern, keys[i][0], env, trail):
                    matched[pick] = i
                    yield rest
                _undo(env, trail, mark)
            return
        signature = _signature(patterns)
        for size in range(len(signature), len(patterns) + 1):
            for i in self.by_signature.get((signature, size), ()):
                matched[pick] = i
                for _ in self.bind_nd(patterns, names, keys[i], env, trail):
                    yield rest

    def emit(self, source: _Source, env: dict[str, int]) -> None:
        pos = tuple(source.matched)
        instances = source.instances
        for full in self.completions(source, env) if source.free else (env,):
            key = tuple(map(full.__getitem__, source.names))
            if key in instances:
                continue
            self.room -= 1
            if self.room < 0:
                raise GroundingError(f"more than MAX_GROUND_INSTANCES = {MAX_GROUND_INSTANCES} "
                                     f"ground instances ({source.rule.origin})")
            instance = instances[key] = self.instance(source, full, pos)
            if instance is not None:
                self.derive(instance[0])

    def completions(self, source: _Source, env: dict[str, int]) -> Iterable[dict[str, int]]:
        """`env` extended by each binding of the free variables, in the
        order of the product of their domains."""
        full = dict(env)
        for values in product(*map(self.domain, source.free)):
            full.update(zip(source.free, values))
            yield full

    def instance(self, source: _Source, env: dict[str, int], pos: tuple[int, ...]):
        """One instance with the positive body `pos` from the join, or None
        when arithmetic fails or a comparison is false. Comparisons are
        evaluated, and every key grounded, before anything is interned, so
        an instance dropped interns nothing."""
        for test in source.tests:
            key = self.ground_member(test, env)
            if key is None or (key[1][0] == key[1][1]) != (test[0] == "=="):
                return None
        keys = [tuple(map(self.ground_member, pattern, repeat(env)))
                for pattern in source.grounded]
        if any(None in key for key in keys):
            return None
        head, *negated = map(self.intern, keys)
        return head, pos, tuple(negated)

    def intern(self, key: tuple) -> int:
        """The id of the NdAtom whose members have the keys `key`, in any
        order; it is built only for members not met before."""
        i = self.by_key.get(key)
        if i is None:
            if len(key) == 1:
                canonical = key
            else:
                canonical = tuple(sorted(dict.fromkeys(key), key=lambda m: self.atom(m).key))
            i = self.by_key.get(canonical)
            if i is None:
                i = self.add(canonical, NdAtom(tuple(map(self.atom, canonical))))
            self.by_key[key] = i
        return i

    def add(self, key: tuple, nd: NdAtom) -> int:
        i = self.by_key[key] = len(self.atoms)
        self.atoms.append(nd)
        self.keys.append(key)
        return i

    def atom(self, member: tuple) -> Atom:
        """The atom of a member key, built once."""
        atom = self.members.get(member)
        if atom is None:
            pred, args = member
            atom = self.members[member] = Atom(pred, tuple(map(self.terms.__getitem__, args)))
        return atom

    def derive(self, i: int) -> None:
        if i not in self.derived:
            self.derived.add(i)
            self.queue.append(i)

    def domain(self, name: str) -> Iterable[int]:
        if not self.time[name]:
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
        NdAtoms renumbered to key order by one sort. An instance's ids rank
        its constants; a time variable ranks by its value. Since one source
        rule fixes the layout of its instances, equal ids mean equal rules."""
        rules, heads, pos, neg = self.fixed
        fixed = list(zip(rules, zip(heads, pos, neg)))
        kept, done = [], 0
        term_keys = self.term_keys
        for source in self.sources:
            kept += fixed[done:source.after]
            done = source.after
            timed = [self.time[name] for name in source.names]
            rank = None
            if any(timed):
                def rank(ids, timed=timed):
                    return tuple([term_keys[i] if t else i for i, t in zip(ids, timed)])
            found = dict.fromkeys(map(source.instances.__getitem__,
                                      sorted(source.instances, key=rank)))
            kept += [(source, instance) for instance in found if instance is not None]
        kept += fixed[done:]
        atoms = self.atoms

        def spell() -> tuple[Rule, ...]:
            rules = []
            for source, (head, pos, neg) in kept:
                if isinstance(source, Rule):
                    rules.append(source)
                    continue
                positive, negated = iter(pos), iter(neg)
                body = tuple(Literal(atoms[next(negated)], True) if negative
                             else Literal(atoms[next(positive)]) for negative in source.layout)
                rules.append(Rule(head=atoms[head], body=body, origin=source.rule.origin))
            return tuple(rules)

        return _in_key_order(atoms, [head for _, (head, _, _) in kept],
                             [pos for _, (_, pos, _) in kept],
                             [neg for _, (_, _, neg) in kept], spell)


def ground(program: Program, horizon: int | None = None) -> GroundProgram:
    """The ground instances of every rule whose positive body can be derived,
    plus every rule written without variables.

    `horizon` overrides the program's own `#horizon`. Missing horizon with
    time variables present, a non-time variable with no constants to range
    over, or more than MAX_GROUND_INSTANCES instances, is an error.
    """
    if horizon is None:
        horizon = program.horizon
    if horizon is not None and horizon < 0:
        raise GroundingError("horizon must be non-negative")
    # The parser shares a repeated NdAtom, so each distinct one is checked
    # for variables once, by identity.
    distinct: dict[int, NdAtom] = {}
    for rule in program.rules:
        distinct[id(rule.head)] = rule.head
        for lit in rule.body:
            distinct[id(lit.atom)] = lit.atom
    varied: set[int] = set()
    for nd in distinct.values():
        for atom in nd.atoms:
            if atom.args and atom.variables():
                varied.add(id(nd))
                break
    # Each rule without variables is its own instance (see `_fixed_instance`),
    # and its NdAtoms are interned by value in rule order.
    ids: dict[NdAtom, int] = {}
    kept: list[Rule] = []
    heads: list[int] = []
    pos: list[list[int]] = []
    neg: list[list[int]] = []
    constants: tuple[Term, ...] | None = None
    sources: list[tuple[Rule, list[str], int]] = []
    for rule in program.rules:
        if varied and (id(rule.head) in varied or any(id(lit.atom) in varied for lit in rule.body)):
            names = sorted(rule.variables())
            for name in names:
                if is_time_variable(name):
                    if horizon is None:
                        raise GroundingError(
                            f"time variable {name} needs a horizon; "
                            f"pass --horizon or add #horizon ({rule.origin})"
                        )
                else:
                    if constants is None:
                        constants = program_constants(program)
                    if not constants:
                        raise GroundingError(
                            f"variable {name} has no constants to range over ({rule.origin})"
                        )
            sources.append((rule, names, len(kept)))
            continue
        for lit in rule.body:
            if lit.atom.atoms[0].pred in BUILTIN_PREDICATES:
                rule = _fixed_instance(rule)
                break
        if rule is None:
            continue
        kept.append(rule)
        heads.append(ids.setdefault(rule.head, len(ids)))
        positive: list[int] = []
        negated: list[int] = []
        for lit in rule.body:
            (negated if lit.negated else positive).append(ids.setdefault(lit.atom, len(ids)))
        pos.append(positive)
        neg.append(negated)
    if not sources:
        rules = tuple(kept)
        return _in_key_order(list(ids), heads, pos, neg, lambda: rules)
    instantiator = _Instantiator(sources, horizon, constants or (), list(ids),
                                 (kept, heads, pos, neg))
    instantiator.run()
    return instantiator.program()
