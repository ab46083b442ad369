"""Shared fixtures and random program generators.

The randomized suites draw from fixed seeds; every failure message carries
the case seed so a run can be replayed exactly.
"""

from __future__ import annotations

import random

import pytest

from ndlp import ground, make_ground_program, parse_program
from ndlp.compiled import GroundProgram
from ndlp.corpus import corpus_text
from ndlp.stable import StableModels
from ndlp.syntax import Atom, Literal, Rule, canonicalize

from detlp import DetRule
from programs import chain_edges, closure_text


def gp_from(text: str, horizon: int | None = None) -> GroundProgram:
    return ground(parse_program(text), horizon=horizon)


# captured before any test patches it, so the check below is never counted
_reduct_model = GroundProgram.reduct_model


@pytest.fixture(autouse=True)
def stable_models_are_stable(monkeypatch):
    """Check every stable model a test builds, through the library or the
    command line: its flags equal the least model of its own reduct. The
    search emits its leaves unchecked; this is where the check runs."""
    init = StableModels.__init__

    def checked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        program = self.program
        for ids in self.ids:
            flags = bytearray(program.n)
            for i in ids:
                flags[i] = 1
            assert _reduct_model(program, flags) == flags, f"not a stable model: {ids}"

    monkeypatch.setattr(StableModels, "__init__", checked)


@pytest.fixture
def lfp_calls(monkeypatch):
    """Run a callable and return how many whole fixpoints
    (`GroundProgram.reduct_model` calls) it made."""
    reduct_model = GroundProgram.reduct_model
    calls = []

    def counted(self, interp):
        calls.append(interp)
        return reduct_model(self, interp)

    monkeypatch.setattr(GroundProgram, "reduct_model", counted)

    def count(run) -> int:
        calls.clear()
        run()
        return len(calls)

    return count


@pytest.fixture
def teaching() -> GroundProgram:
    return gp_from(corpus_text("teaching.ndlp"))


@pytest.fixture
def teaching2() -> GroundProgram:
    return gp_from(corpus_text("teaching2.ndlp"))


@pytest.fixture
def wf_chain() -> GroundProgram:
    return gp_from(corpus_text("wf_chain.ndlp"))


# ---------------------------------------------------------------------------
# Random ground NdAtom programs
# ---------------------------------------------------------------------------

def _nd_pool(rng: random.Random, n_atoms: int, n_nd: int):
    """A pool of distinct ground NdAtoms over 0-ary predicates p0..p{n-1}."""
    plain = [Atom(pred=f"p{i}") for i in range(n_atoms)]
    pool = set()
    guard = 0
    while len(pool) < n_nd and guard < 200:
        guard += 1
        size = rng.choice((1, 1, 2))
        pool.add(canonicalize(rng.sample(plain, size)))
    return sorted(pool, key=lambda a: a.key)


def random_ground_program(
    seed: int,
    max_nd: int = 6,
    max_rules: int = 8,
    max_body: int = 3,
    neg_prob: float = 0.4,
    n_atoms: int = 6,
) -> GroundProgram:
    """A random ground program over a small NdAtom pool.

    `neg_prob=0` yields negation-free programs. The restricted base is at
    most `max_nd` NdAtoms.
    """
    rng = random.Random(seed)
    pool = _nd_pool(rng, n_atoms, rng.randint(2, max_nd))
    rules = []
    for _ in range(rng.randint(1, max_rules)):
        head = rng.choice(pool)
        body = []
        for nd in rng.sample(pool, min(len(pool), rng.randint(0, max_body))):
            body.append(Literal(atom=nd, negated=rng.random() < neg_prob))
        rules.append(Rule(head=head, body=tuple(body)))
    return make_ground_program(rules)


def random_interpretations(seed: int, gp: GroundProgram, nested: bool = False):
    """One random subset of the base, or a nested pair when asked."""
    rng = random.Random(seed)
    base = list(gp.base)
    small = frozenset(a for a in base if rng.random() < 0.5)
    if not nested:
        return small
    big = small | frozenset(a for a in base if rng.random() < 0.5)
    return small, big


# ---------------------------------------------------------------------------
# Random deterministic programs (for the subsumption suites)
# ---------------------------------------------------------------------------

def random_det_program(
    seed: int,
    n_atoms: int = 8,
    max_rules: int = 12,
    max_body: int = 3,
    neg_prob: float = 0.4,
) -> list[DetRule]:
    rng = random.Random(seed)
    atoms = [f"d{i}" for i in range(rng.randint(2, n_atoms))]
    rules = []
    for _ in range(rng.randint(1, max_rules)):
        head = rng.choice(atoms)
        pos, neg = [], []
        for atom in rng.sample(atoms, min(len(atoms), rng.randint(0, max_body))):
            (neg if rng.random() < neg_prob else pos).append(atom)
        rules.append(DetRule(head=head, pos=tuple(pos), neg=tuple(neg)))
    return rules


# ---------------------------------------------------------------------------
# Random non-ground programs (for the grounding oracle)
# ---------------------------------------------------------------------------

# predicate -> arity; the last argument of h is a time point
_NG_ARITIES = {"p": 1, "q": 1, "e": 2, "h": 2, "g": 0}


def closure_chain(n_edges: int) -> str:
    """Transitive closure over a chain of `n_edges` edges, the program the
    closure benchmark holds at 30 edges."""
    return closure_text(chain_edges(n_edges))


def random_nonground_program(seed: int) -> tuple[str, int | None]:
    """Program text plus horizon: a few facts, some of them set-atoms, and
    rules with variables over a handful of constants, time variables with
    `T+1` heads, `!=`/`==` comparisons, multi-atom body set-literals,
    function terms and negation. Heads may build values that are no
    constants of the program (`f(X)`, `X+1`, time points past the horizon),
    which no variable may then bind. Every rule passes the parser's safety
    check."""
    rng = random.Random(seed)
    horizon = rng.choice((None, 0, 1, 2))
    consts = ["a", "b", "c"][: rng.randint(1, 3)]
    preds = [p for p in _NG_ARITIES if horizon is not None or p != "h"]

    facts: list[list[tuple[str, list[str]]]] = []

    def ground_atom(pred: str) -> str:
        args = [rng.choice(consts) for _ in range(_NG_ARITIES[pred])]
        if pred == "h":
            args[1] = str(rng.randint(0, horizon + 1))
        facts[-1].append((pred, args))
        return f"{pred}({', '.join(args)})" if args else pred

    def generalized_fact(names: list[str], time: str | None) -> str:
        """A set-atom fact with some of its arguments made variables, so
        that set-literals, collapsing ones included, find a match."""
        members = []
        for pred, args in rng.choice(facts):
            args = [rng.choice(names) if rng.random() < 0.6 else arg for arg in args]
            if pred == "h":
                args[1] = time if time is not None and rng.random() < 0.5 else args[1]
            members.append(f"{pred}({', '.join(args)})" if args else pred)
        return "{" + ", ".join(members) + "}"

    def term(names: list[str], in_head: bool) -> str:
        value = rng.choice(names + consts)
        roll = rng.random()
        if roll < 0.1:
            return f"f({value})"
        if in_head and roll < 0.15 and value[0].isupper():
            return f"{value}+1"
        return value

    def atom(pred: str, names: list[str], time: str | None, in_head: bool) -> str:
        args = [term(names, in_head) for _ in range(_NG_ARITIES[pred])]
        if pred == "h":
            args[1] = time if time is not None and rng.random() < 0.8 else rng.choice(names + ["0"])
        return f"{pred}({', '.join(args)})" if args else pred

    def members(make, time: str | None, pairs: float = 0.3) -> str:
        choices = preds if time is not None else [p for p in preds if p != "h"]
        first = rng.choice(choices)
        chosen = [first]
        if rng.random() < pairs:
            # a second member, of the same predicate half the time
            chosen.append(first if rng.random() < 0.5 else rng.choice(choices))
        return "{" + ", ".join(make(pred) for pred in chosen) + "}"

    lines = []
    for _ in range(rng.randint(2, 6)):
        facts.append([])
        lines.append(members(ground_atom, 0, pairs=0.5) + ".")
    for _ in range(rng.randint(1, 5)):
        names = rng.sample(["X", "Y", "Z"], rng.randint(1, 2))
        time = "T" if horizon is not None and rng.random() < 0.5 else None
        body = [
            generalized_fact(names, time) if rng.random() < 0.3
            else members(lambda pred: atom(pred, names, time, False), time)
            for _ in range(rng.randint(0, 2))
        ]
        bound = sorted({n for lit in body for n in names if n in lit})
        if bound and rng.random() < 0.3:
            left = rng.choice(bound)
            right = rng.choice(bound + consts)
            body.append(f"{{{left} {rng.choice(('!=', '=='))} {right}}}")
        if rng.random() < 0.15:
            # a variable only a comparison binds ranges over the constants
            body.append(f"{{W != {rng.choice(consts)}}}")
            bound.append("W")
        safe = bound or consts[:1]
        head_time = None if time is None else rng.choice(("T", "T+1"))
        head = members(lambda pred: atom(pred, safe, head_time, True), head_time)
        for _ in range(rng.randint(0, 2)):
            neg_time = time or ("T" if horizon is not None else None)
            body.append("not " + members(lambda pred: atom(pred, safe, neg_time, False), neg_time))
        lines.append(head + (" :- " + ", ".join(body) if body else "") + ".")
    return "\n".join(lines) + "\n", horizon
