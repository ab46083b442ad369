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
product grounding less its dead instances. Rules without variables are kept
as written and never joined: each counts down its positive body literals
and derives its head once the NdAtom of the last of them is taken off the
queue. A program without variables is grounded in one pass.

Grounding goes straight into the compiled program, interning as gringo
does: an instance is the ids of its head and of its positive and negated
body NdAtoms. Heads and negated literals are grounded to a key, their
members' `(pred, args)` in pattern order, and an NdAtom is built only for a
key not met before. One sort renumbers the ids to key order, and the
`Rule` objects are spelled out only when `GroundProgram.rules` is read.

All semantics downstream operate over the *restricted* non-deterministic
base: the NdAtoms that occur somewhere in the ground rules. NdAtoms outside
it are false (total semantics) or negative (well-founded) by convention and
never enumerated.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product, repeat
from typing import Callable, Iterable

from .compiled import CompiledProgram
from .errors import GroundingError
from .syntax import (
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
    canonicalize,
    is_time_variable,
    sort_nd_atoms,
    term_variables,
)


class GroundProgram:
    """A variable-free program in the compiled form the solvers run on, over
    its restricted base in key order, by which the solvers sort their
    models. Its rules are spelled out as `Rule` objects on first read."""

    def __init__(self, compiled: CompiledProgram, spell: Callable[[], tuple[Rule, ...]]):
        self.compiled = compiled
        self.base: tuple[NdAtom, ...] = compiled.atoms
        self._spell = spell

    @cached_property
    def rules(self) -> tuple[Rule, ...]:
        return self._spell()

    @cached_property
    def base_set(self) -> frozenset[NdAtom]:
        return frozenset(self.base)

    def __str__(self) -> str:
        return "".join(f"{rule}\n" for rule in self.rules)


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
    compiled = CompiledProgram(
        base,
        [index[rule.head] for rule in rules],
        [tuple(dict.fromkeys(map(index.__getitem__, rule.positive_body()))) for rule in rules],
        [tuple(dict.fromkeys(map(index.__getitem__, rule.negative_body()))) for rule in rules],
    )
    return GroundProgram(compiled, lambda: rules)


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


def _substitute(term: Term, env: dict[str, Term]) -> Term | None:
    """Apply an environment and evaluate sums. None marks an instance whose
    arithmetic is not defined (sum base bound to a symbol)."""
    if isinstance(term, Variable):
        return env[term.name]
    if isinstance(term, Compound):
        args = _ground_args(term.args, env)
        return None if args is None else Compound(term.name, args)
    if isinstance(term, Sum):
        base = _substitute(term.base, env)
        if not isinstance(base, Integer):
            return None
        return Integer(base.value + term.offset)
    return term


def _ground_args(terms: tuple[Term, ...], env: dict[str, Term]) -> tuple[Term, ...] | None:
    args = []
    for term in terms:
        value = _substitute(term, env)
        if value is None:
            return None
        args.append(value)
    return tuple(args)


def _ground_member(atom: Atom, env: dict[str, Term]) -> tuple[str, tuple[Term, ...]] | None:
    """A member atom under `env` as its key, `(pred, args)`, built without
    an `Atom`; None when its arithmetic is not defined."""
    args = _ground_args(atom.args, env)
    return None if args is None else (atom.pred, args)


def _holds(test: Atom, env: dict[str, Term]) -> bool:
    """Whether a comparison holds under `env`; False when its arithmetic is
    not defined."""
    member = _ground_member(test, env)
    return member is not None and (member[1][0] == member[1][1]) == (test.pred == "==")


def _is_test(lit: Literal) -> bool:
    return lit.atom.atoms[0].is_builtin()


def _fixed_instance(rule: Rule) -> Rule | None:
    """The one instance of a rule without variables: the rule itself unless
    a comparison must be evaluated, then the rule less its comparisons, or
    None when one of them is false."""
    tests = [lit.atom.atoms[0] for lit in rule.body if _is_test(lit)]
    if not tests:
        return rule
    if not all(_holds(test, {}) for test in tests):
        return None
    return Rule(rule.head, tuple(lit for lit in rule.body if not _is_test(lit)), rule.origin)


def _undo(env: dict[str, Term], trail: list[str], mark: int) -> None:
    while len(trail) > mark:
        del env[trail.pop()]


def _bind(pattern: Term, value: Term, env: dict[str, Term], trail: list[str], admits) -> bool:
    """Extend `env` so that `pattern` grounds to `value`. Names bound on the
    way go on the trail, also when the match fails; the caller undoes them."""
    if isinstance(pattern, Variable):
        bound = env.get(pattern.name)
        if bound is not None:
            return bound == value
        if not admits(pattern.name, value):
            return False
        env[pattern.name] = value
        trail.append(pattern.name)
        return True
    if isinstance(pattern, Sum):
        return isinstance(value, Integer) and _bind(
            pattern.base, Integer(value.value - pattern.offset), env, trail, admits
        )
    if isinstance(pattern, Compound):
        return (
            isinstance(value, Compound)
            and value.name == pattern.name
            and len(value.args) == len(pattern.args)
            and all(_bind(p, v, env, trail, admits) for p, v in zip(pattern.args, value.args))
        )
    return pattern == value


def _bind_atom(pattern: Atom, atom: Atom, env, trail, admits) -> bool:
    if pattern.pred != atom.pred or len(pattern.args) != len(atom.args):
        return False
    for p, v in zip(pattern.args, atom.args):
        if not _bind(p, v, env, trail, admits):
            return False
    return True


def _bind_nd(pattern: NdAtom, names: list[set[str]], nd: NdAtom, env, trail, admits):
    """Yield once per binding under which `pattern` grounds to exactly `nd`:
    every pattern member matches some member of `nd` and every member of
    `nd` is matched, so coinciding pattern members may collapse. Pattern
    members are placed in order on an explicit stack, so a set-literal of
    any width matches without recursion. A member whose variables, `names`,
    are all bound grounds to one value, which is looked up among the members
    of `nd` by hash instead of being tried against each of them."""
    patterns, members = pattern.atoms, nd.atoms
    mark = len(trail)
    if len(patterns) == 1:
        if len(members) == 1 and _bind_atom(patterns[0], members[0], env, trail, admits):
            yield
        _undo(env, trail, mark)
        return
    position = None  # (pred, args) of each member of nd -> its index
    hits = [0] * len(members)
    placed: list[tuple[int, int]] = []  # per placed pattern: member, trail mark
    j = 0
    while True:
        i = len(placed)
        if i < len(patterns) and j < len(members):
            mark = len(trail)
            if names[i] <= env.keys():
                if position is None:
                    position = {(m.pred, m.args): k for k, m in enumerate(members)}
                atom = patterns[i]
                k = position.get((atom.pred, _ground_args(atom.args, env)), -1)
                if k < j:  # its one member is absent or was tried already
                    j = len(members)
                    continue
                j, bound = k, True
            else:
                bound = _bind_atom(patterns[i], members[j], env, trail, admits)
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


def _signature(nd: NdAtom) -> frozenset[str]:
    return frozenset(atom.pred for atom in nd)


class _Source:
    """One source rule during instantiation: the positive body literals its
    instances are joined on, each with the variables of its members and the
    id of the NdAtom it is matched to in the join under way, the variables
    no such literal binds, and the instances found, keyed by the ranks of
    their values in product order. An instance is the ids of its head,
    positive body and negated body, in body order; None marks one whose
    comparison or arithmetic failed. `layout` tells, per body literal left
    in an instance, whether it is negated. A rule without variables has its
    one instance, keyed (), fixed up front, and `missing` of its positive
    body literals still to be taken off the queue."""

    def __init__(self, rule: Rule, names: list[str]):
        self.rule = rule
        self.names = names
        # (name, is a time variable) per variable, for the rank key in `emit`
        self.ranked = [(name, is_time_variable(name)) for name in names]
        self.fixed = None if names else _fixed_instance(rule)
        self.missing = 0
        self.tests = [lit.atom.atoms[0] for lit in rule.body if _is_test(lit)]
        kept = [lit for lit in rule.body if not _is_test(lit)]
        self.layout = [lit.negated for lit in kept]
        # the set-atoms each instance grounds: its head, then its negated literals
        self.grounded = [rule.head] + [lit.atom for lit in kept if lit.negated]
        self.joins: list[tuple[NdAtom, list[set[str]], set[str]]] = []
        for lit in kept:
            if names and not lit.negated:
                per_member = [atom.variables() for atom in lit.atom]
                self.joins.append((lit.atom, per_member, set().union(*per_member)))
        self.matched = [0] * len(self.joins)
        joined = {n for _, _, bound in self.joins for n in bound}
        self.free = [name for name in names if name not in joined]
        self.instances: dict[tuple[int, ...], tuple | None] = {}


class _Instantiator:
    """Semi-naive instantiation over the positive closure that ignores
    negation. Each NdAtom taken off the queue counts down the rules without
    variables that need it, is indexed, then is matched against the join
    literals it fits; the rest of each such rule body is joined against the
    NdAtoms indexed so far. An instance is thus found when the last of its
    positive body NdAtoms is taken off the queue."""

    def __init__(self, rules: list[tuple[Rule, list[str]]], horizon: int | None,
                 constants: tuple[Term, ...]):
        self.sources = sources = [_Source(rule, names) for rule, names in rules]
        self.horizon = horizon
        self.constants = constants
        self.rank = {term: i for i, term in enumerate(constants)}
        self.time = {
            name: is_time_variable(name) for source in sources for name in source.names
        }
        self.time_domain: list[Term] | None = None
        self.atoms: list[NdAtom] = []
        self.ids: dict[NdAtom, int] = {}
        self.by_key: dict[tuple, int] = {}
        self.members: dict[tuple, Atom] = {}  # (pred, args) -> the atom built
        self.derived: set[int] = set()
        self.queue: list[int] = []
        self.by_signature: dict[tuple[frozenset[str], int], list[int]] = {}
        self.by_argument: dict[tuple[str, int, Term], list[int]] = {}
        # NdAtom id -> the rules without variables still waiting for it
        self.waiting: dict[int, list[_Source]] = {}
        # (signature, size) -> (source, join literal position, the other
        # positions), for each signature and size of NdAtom the join
        # literal can match
        self.triggers: dict[tuple[frozenset[str], int], list[tuple[_Source, int, list[int]]]] = {}
        for source in sources:
            if source.fixed is not None:
                rule = source.fixed
                needs = tuple(map(self.intern_written, rule.positive_body()))
                negated = tuple(map(self.intern_written, rule.negative_body()))
                source.instances[()] = (self.intern_written(rule.head), needs, negated)
                source.missing = len(needs)
                for i in needs:
                    self.waiting.setdefault(i, []).append(source)
            for pos, (nd, _, _) in enumerate(source.joins):
                rest = [i for i in range(len(source.joins)) if i != pos]
                signature = _signature(nd)
                for size in range(len(signature), len(nd) + 1):
                    self.triggers.setdefault((signature, size), []).append((source, pos, rest))

    def admits(self, name: str, value: Term) -> bool:
        if self.time[name]:
            return isinstance(value, Integer) and 0 <= value.value <= self.horizon
        return value in self.rank

    def run(self) -> None:
        for source in self.sources:
            if source.fixed is not None and not source.missing:
                self.derive(source.instances[()][0])
            elif source.names and not source.joins:
                self.emit(source, {})
        atoms = self.atoms
        env: dict[str, Term] = {}
        trail: list[str] = []
        while self.queue:
            i = self.queue.pop()
            for source in self.waiting.pop(i, ()):
                source.missing -= 1
                if not source.missing:
                    self.derive(source.instances[()][0])
            nd = atoms[i]
            key = (_signature(nd), len(nd))
            self.index(i, nd, key)
            for source, pos, rest in self.triggers.get(key, ()):
                pattern, names, _ = source.joins[pos]
                source.matched[pos] = i
                for _ in _bind_nd(pattern, names, nd, env, trail, self.admits):
                    self.join(source, rest, env, trail)

    def index(self, i: int, nd: NdAtom, key: tuple[frozenset[str], int]) -> None:
        self.by_signature.setdefault(key, []).append(i)
        if len(nd) == 1:
            atom = nd.atoms[0]
            for position, value in enumerate(atom.args):
                self.by_argument.setdefault((atom.pred, position, value), []).append(i)

    def candidates(self, pattern: NdAtom, env: dict[str, Term]) -> Iterable[int]:
        """Ids of the indexed NdAtoms the pattern might ground to under `env`."""
        if len(pattern) == 1:
            atom = pattern.atoms[0]
            for i, arg in enumerate(atom.args):
                if all(name in env for name in term_variables(arg)):
                    value = _substitute(arg, env)
                    if value is None:
                        return ()
                    return self.by_argument.get((atom.pred, i, value), ())
            return self.by_signature.get((_signature(pattern), 1), ())
        signature = _signature(pattern)
        found: list[int] = []
        for size in range(len(signature), len(pattern) + 1):
            found += self.by_signature.get((signature, size), ())
        return found

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
        pick = min(todo, key=lambda i: sum(name not in env for name in source.joins[i][2]))
        rest = [i for i in todo if i != pick]
        pattern, names, _ = source.joins[pick]
        atoms = self.atoms
        for i in self.candidates(pattern, env):
            source.matched[pick] = i
            for _ in _bind_nd(pattern, names, atoms[i], env, trail, self.admits):
                yield rest

    def emit(self, source: _Source, env: dict[str, Term]) -> None:
        rank = self.rank
        full = dict(env)
        pos = tuple(source.matched)
        for values in product(*(self.domain(name) for name in source.free)):
            full.update(zip(source.free, values))
            key = tuple([full[name].value if timed else rank[full[name]]
                         for name, timed in source.ranked])
            if key in source.instances:
                continue
            instance = self.instance(source, full, pos)
            source.instances[key] = instance
            if instance is not None:
                self.derive(instance[0])

    def instance(self, source: _Source, env: dict[str, Term], pos: tuple[int, ...]):
        """One instance with the positive body `pos` from the join, or None
        when arithmetic fails or a comparison is false. Comparisons are
        evaluated, and every key grounded, before anything is interned, so
        an instance dropped interns nothing."""
        for test in source.tests:
            if not _holds(test, env):
                return None
        keys = [tuple(map(_ground_member, pattern.atoms, repeat(env)))
                for pattern in source.grounded]
        if any(None in key for key in keys):
            return None
        head, *negated = map(self.intern, keys)
        return head, pos, tuple(negated)

    def intern(self, key: tuple, nd: NdAtom | None = None) -> int:
        """The id of the NdAtom whose members have the keys `key`, which is
        `nd` when given; otherwise it is built, only for a key not met
        before."""
        i = self.by_key.get(key)
        if i is None:
            if nd is None:
                members = self.members
                atoms = [members.get(m) or members.setdefault(m, Atom(*m)) for m in key]
                # one member is canonical as built
                nd = NdAtom((atoms[0],)) if len(atoms) == 1 else canonicalize(atoms)
            i = self.ids.get(nd)
            if i is None:
                i = self.ids[nd] = len(self.atoms)
                self.atoms.append(nd)
            self.by_key[key] = i
        return i

    def intern_written(self, nd: NdAtom) -> int:
        return self.intern(tuple([(atom.pred, atom.args) for atom in nd.atoms]), nd)

    def derive(self, i: int) -> None:
        if i not in self.derived:
            self.derived.add(i)
            self.queue.append(i)

    def domain(self, name: str) -> Iterable[Term]:
        if not self.time[name]:
            return self.constants
        if self.time_domain is None:
            self.time_domain = [Integer(t) for t in range(self.horizon + 1)]
        return self.time_domain

    def program(self) -> GroundProgram:
        """Each source rule's instances in product order, first-wins, over
        the interned NdAtoms renumbered to key order by one sort. Since one
        source rule fixes the layout of its instances, equal ids mean equal
        rules."""
        kept = []
        for source in self.sources:
            found = dict.fromkeys(map(source.instances.__getitem__, sorted(source.instances)))
            kept += [(source, instance) for instance in found if instance is not None]
        atoms = self.atoms
        order = sorted(range(len(atoms)), key=[nd.key for nd in atoms].__getitem__)
        # the inverse permutation: each old id's position in key order
        renumbered = sorted(range(len(order)), key=order.__getitem__)
        renumber = renumbered.__getitem__
        compiled = CompiledProgram(
            [atoms[old] for old in order],
            [renumbered[head] for _, (head, _, _) in kept],
            [tuple(dict.fromkeys(map(renumber, pos))) for _, (_, pos, _) in kept],
            [tuple(dict.fromkeys(map(renumber, neg))) for _, (_, _, neg) in kept],
        )

        def spell() -> tuple[Rule, ...]:
            rules = []
            for source, (head, pos, neg) in kept:
                if source.fixed is not None:
                    rules.append(source.fixed)
                    continue
                positive, negated = iter(pos), iter(neg)
                body = tuple(Literal(atoms[next(negated)], True) if negative
                             else Literal(atoms[next(positive)]) for negative in source.layout)
                rules.append(Rule(head=atoms[head], body=body, origin=source.rule.origin))
            return tuple(rules)

        return GroundProgram(compiled, spell)


def ground(program: Program, horizon: int | None = None) -> GroundProgram:
    """The ground instances of every rule whose positive body can be derived,
    plus every rule written without variables.

    `horizon` overrides the program's own `#horizon`. Missing horizon with
    time variables present, or a non-time variable with no constants to
    range over, is an error.
    """
    if horizon is None:
        horizon = program.horizon
    if horizon is not None and horizon < 0:
        raise GroundingError("horizon must be non-negative")
    constants: tuple[Term, ...] | None = None
    rules: list[tuple[Rule, list[str]]] = []
    for rule in program.rules:
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
        rules.append((rule, names))
    if not any(names for _, names in rules):
        instances = (_fixed_instance(rule) for rule, _ in rules)
        return make_ground_program(r for r in instances if r is not None)
    instantiator = _Instantiator(rules, horizon, constants or ())
    instantiator.run()
    return instantiator.program()
