"""The compiled ground program that every solver runs on.

NdAtoms are interned to ints in restricted-base order and each rule
becomes a head int plus tuples of its positive and negated body ints, with
per-atom watcher lists (rules using the atom positively) and
negated-occurrence lists. One worklist least fixpoint, linear in program
size, serves the least model and the stability guard. `bounds`, the one
propagation routine, closes a partial assignment under both fixpoints; the
stable search runs it at every node, and from the all-open assignment it
is the well-founded model. The object-level operators in `positive`,
`stable` and `wf` stay as the references the tests check this form
against.
"""

from __future__ import annotations

from typing import Iterable

from .syntax import NdAtom, Rule

# Truth assignment codes. Only atoms occurring negated matter to the rules
# an assignment enables; every other entry is ignored.
OPEN, OUT, IN = 0, 1, 2

# Truth flags (0/1) to the total assignment they spell.
_DECIDED = bytes.maketrans(b"\x00\x01", bytes((OUT, IN)))

# Assignment codes to 1 where a negated atom so assigned blocks its rule:
# the pessimistic fixpoint (index 0) needs it out, the optimistic one (1)
# only needs it not in.
_BLOCKS = [bytes(int(code != OUT) for code in range(256)),
           bytes(int(code == IN) for code in range(256))]


class CompiledProgram:
    """Int form of a ground program over its restricted base."""

    def __init__(self, rules: Iterable[Rule], base: Iterable[NdAtom]):
        self.atoms: list[NdAtom] = list(base)
        self.n = len(self.atoms)
        self.index = {a: i for i, a in enumerate(self.atoms)}
        # rule r is heads[r] :- pos[r], not neg[r]
        self.heads: list[int] = []
        self.pos: list[tuple[int, ...]] = []
        self.neg: list[tuple[int, ...]] = []
        self.watchers: list[list[int]] = [[] for _ in range(self.n)]
        self.neg_occ: dict[int, list[int]] = {}
        index = self.index
        for ridx, rule in enumerate(rules):
            pos = tuple(dict.fromkeys(index[b] for b in rule.positive_body()))
            neg = tuple(dict.fromkeys(index[b] for b in rule.negative_body()))
            self.heads.append(index[rule.head])
            self.pos.append(pos)
            self.neg.append(neg)
            for b in pos:
                self.watchers[b].append(ridx)
            for m in neg:
                self.neg_occ.setdefault(m, []).append(ridx)
        self.pos_len = [len(pos) for pos in self.pos]
        self.negated = sorted(self.neg_occ)
        self.negated_mask = int.from_bytes(
            bytes(i in self.neg_occ for i in range(self.n)), "little")
        # rules enabled under every assignment, and the guarded rest
        self.unguarded = bytearray(not neg for neg in self.neg)
        self.guarded = [(ridx, neg) for ridx, neg in enumerate(self.neg) if neg]
        self.bodiless = [ridx for ridx, size in enumerate(self.pos_len) if not size]

    def lfp(self, assign: bytes, optimistic: bool) -> bytearray:
        """Least-fixpoint truth flags over the rules whose negated atoms are
        all assigned out (pessimistic) or merely not assigned in
        (optimistic). Worklist evaluation, linear in program size."""
        blocked = assign.translate(_BLOCKS[optimistic])
        enabled = self.unguarded.copy()
        for ridx, neg in self.guarded:
            for m in neg:
                if blocked[m]:
                    break
            else:
                enabled[ridx] = 1
        heads = self.heads
        watchers = self.watchers
        derived = bytearray(self.n)
        stack: list[int] = []
        for ridx in self.bodiless:
            if enabled[ridx]:
                head = heads[ridx]
                if not derived[head]:
                    derived[head] = 1
                    stack.append(head)
        remaining = self.pos_len.copy()
        while stack:
            for ridx in watchers[stack.pop()]:
                if enabled[ridx]:
                    left = remaining[ridx] - 1
                    remaining[ridx] = left
                    if not left:
                        head = heads[ridx]
                        if not derived[head]:
                            derived[head] = 1
                            stack.append(head)
        return derived

    def reduct_model(self, flags: bytes) -> bytearray:
        """Least model of the reduct against the interpretation `flags`:
        one pessimistic fixpoint with every atom decided in or out."""
        return self.lfp(flags.translate(_DECIDED), optimistic=False)

    def bounds(self, assign: bytearray, trail: list[int],
               upper: bytes | None = None) -> tuple[bytes, bytes] | None:
        """The pessimistic (lower) and optimistic (upper) fixpoints of
        `assign` once each open negated atom lower derives is forced in and
        each one upper lacks is forced out, in place and onto `trail`; None
        on a conflict. Lower reads only atoms assigned out and upper only
        atoms assigned in, so each is recomputed only when forcing changed
        what it reads; a caller may pass an upper bound still valid."""
        lower = self.lfp(assign, optimistic=False)
        if upper is None:
            upper = self.lfp(assign, optimistic=True)
        while True:
            # one 0/1 byte per atom, as ints for whole-string bit operations
            low, high = (int.from_bytes(flags, "little") for flags in (lower, upper))
            not_out, is_in = (int.from_bytes(assign.translate(t), "little") for t in _BLOCKS)
            if low & ~not_out or is_in & ~high:
                return None  # derived but out, or underivable but in
            free = not_out & ~is_in & self.negated_mask
            now_in, now_out = free & low, free & ~high
            if not (now_in or now_out):
                return lower, upper
            forced = (now_in | now_out).to_bytes(self.n, "little")
            n = forced.find(1)
            while n >= 0:
                assign[n] = IN if lower[n] else OUT
                trail.append(n)
                n = forced.find(1, n + 1)
            if now_out:
                lower = self.lfp(assign, optimistic=False)
            if now_in:
                upper = self.lfp(assign, optimistic=True)

    def decode(self, flags: bytes) -> frozenset[NdAtom]:
        return frozenset(a for a, flag in zip(self.atoms, flags) if flag)

    def pick_pivot(self, assign: bytes, upper: bytes) -> int | None:
        """First undecided negated atom with a live negative occurrence.

        A rule is live when no negated atom of it is assigned in and its
        positive body lies inside the optimistic bound; any other rule can
        never fire in a completion of this assignment, so atoms negated only
        there cannot influence a reduct and need no case split: their final
        value is whatever derivability makes it.
        """
        for n in self.negated:
            if assign[n] != OPEN:
                continue
            for ridx in self.neg_occ[n]:
                if any(assign[m] == IN for m in self.neg[ridx]):
                    continue
                if all(upper[b] for b in self.pos[ridx]):
                    return n
        return None
