"""Randomized law checks against independent brute-force oracles.

Every suite runs its law over at least 200 random programs drawn from fixed
seeds; assertion messages carry the per-case seed for replay. The oracles
here (subset enumeration, direct unfounded-set enumeration, deterministic
reference engines) share no evaluation code with the paths they check.
"""

from __future__ import annotations

import random

import pytest

from ndlp import (
    enumerate_stable,
    greatest_unfounded,
    ground,
    is_model,
    is_stable,
    least_model,
    tp_step,
    tprime_step,
    well_founded_model,
)
from ndlp.compiled import ASSIGNED, IN, OPEN, OUT, Propagator
from ndlp.compiled import make_ground_program
from ndlp.positive import lfp
from ndlp.stable import reduct
from ndlp.syntax import Literal, Rule
from ndlp.wf import PartialInterpretation

from conftest import random_det_program, random_ground_program, random_interpretations
from detlp import desingletonize, det_least_model, det_stable, det_wf, embed
from oracles import brute_force_stable, enumerate_models, intersect_all, propagate_by_rounds

CASES = 200


def seeds(base: int):
    return [(base + i) for i in range(CASES)]


# ---------------------------------------------------------------------------
# positive programs: one-step operator and models
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", seeds(1000))
def test_tp_monotone(seed):
    gp = random_ground_program(seed, neg_prob=0.0, max_nd=8)
    small, big = random_interpretations(seed, gp, nested=True)
    assert tp_step(gp, small) <= tp_step(gp, big), f"seed={seed}"


@pytest.mark.parametrize("seed", seeds(2000))
def test_model_characterization(seed):
    # a subset of the base is a model exactly when one step stays inside it
    gp = random_ground_program(seed, neg_prob=0.0, max_nd=6)
    for interp in _subsets(gp):
        assert is_model(interp, gp) == (tp_step(gp, interp) <= interp), f"seed={seed}"


@pytest.mark.parametrize("seed", seeds(3000))
def test_least_model_is_intersection_of_models(seed):
    gp = random_ground_program(seed, neg_prob=0.0, max_nd=6)
    models = enumerate_models(gp)
    lm = least_model(gp)
    assert lm == intersect_all(models), f"seed={seed}"
    assert all(lm <= m for m in models), f"seed={seed}"
    assert tp_step(gp, lm) == lm, f"seed={seed}"


@pytest.mark.parametrize("seed", seeds(4000))
def test_model_intersection_closure(seed):
    gp = random_ground_program(seed, neg_prob=0.0, max_nd=6)
    models = enumerate_models(gp)
    for i, m1 in enumerate(models):
        for m2 in models[i + 1 :]:
            assert is_model(m1 & m2, gp), f"seed={seed}"


# ---------------------------------------------------------------------------
# stable models
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", seeds(5000))
def test_stable_models_are_minimal_tprime_fixpoints(seed):
    gp = random_ground_program(seed, max_nd=6)
    stable = enumerate_stable(gp).models
    models = enumerate_models(gp)
    for s in stable:
        assert tprime_step(gp, s) == s, f"seed={seed}"
        assert is_model(s, gp), f"seed={seed}"
        assert not any(m < s for m in models), f"seed={seed}"
    for i, s1 in enumerate(stable):
        for s2 in stable[i + 1 :]:
            assert not (s1 < s2 or s2 < s1), f"seed={seed}"


@pytest.mark.parametrize("seed", seeds(6000))
def test_enumerate_stable_matches_brute_force(seed):
    gp = random_ground_program(seed, max_nd=7, max_rules=10)
    assert list(enumerate_stable(gp).models) == brute_force_stable(gp), f"seed={seed}"


@pytest.mark.parametrize("seed", seeds(6500))
def test_stable_models_are_head_supported(seed):
    gp = random_ground_program(seed, max_nd=6)
    for s in enumerate_stable(gp).models:
        assert s <= frozenset(r.head for r in gp.rules), f"seed={seed}"


# ---------------------------------------------------------------------------
# well-founded semantics
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", seeds(7000))
def test_wf_below_every_stable_model(seed):
    gp = random_ground_program(seed, max_nd=6)
    wf = well_founded_model(gp)
    stable = enumerate_stable(gp).models
    for s in stable:
        assert wf.pos <= s, f"seed={seed}"
        assert not (wf.neg & s), f"seed={seed}"
    if wf.is_total(gp.base):
        assert list(stable) == [wf.pos], f"seed={seed}"


@pytest.mark.parametrize("seed", seeds(8000))
def test_wf_total_on_negation_free_programs(seed):
    gp = random_ground_program(seed, neg_prob=0.0, max_nd=8)
    wf = well_founded_model(gp)
    assert wf.is_total(gp.base), f"seed={seed}"
    assert wf.pos == least_model(gp), f"seed={seed}"
    assert wf.neg == gp.base_set - wf.pos, f"seed={seed}"


# ---------------------------------------------------------------------------
# compiled program against the object-level references
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", seeds(3600))
def test_compiled_stability_check_matches_reference(seed):
    # the check tests/conftest.py runs on each stable model a test builds
    gp = random_ground_program(seed, max_nd=8, max_rules=12)
    candidates = [random_interpretations(seed, gp), frozenset(r.head for r in gp.rules)]
    candidates += brute_force_stable(gp)
    index = {atom: i for i, atom in enumerate(gp.base)}
    for interp in candidates:
        flags = bytearray(gp.n)
        for atom in interp:
            flags[index[atom]] = 1
        model = gp.reduct_model(flags)
        assert gp.decode(model) == lfp(reduct(gp, interp)), f"seed={seed} {interp}"
        stable = model == flags
        assert stable == is_stable(gp, interp), f"seed={seed} {interp}"


@pytest.mark.parametrize("seed", seeds(3700))
def test_bounds_match_round_based_propagation(seed):
    # a random walk of decisions on open negated atoms and undos to random
    # earlier marks; every decision is checked against the round-based
    # propagation of the decisions alone, and every undo restores the whole
    # state, counters included
    rng = random.Random(seed)
    program = _with_even_loops(random_ground_program(seed, max_nd=10, max_rules=12), rng)
    state = Propagator(program)
    _check_against_rounds(program, state, [], True, f"seed={seed} root")
    frames = []  # (trail mark, state snapshot, decisions) before each decision
    decisions: list[tuple[int, int]] = []
    consistent = True
    for step in range(16):
        where = f"seed={seed} step={step}"
        open_atoms = [n for n in program.negated if state.assign[n] == OPEN]
        if consistent and open_atoms and rng.random() < 0.7:
            frames.append((len(state.trail), _snapshot(state), list(decisions)))
            atom, value = rng.choice(open_atoms), rng.choice((OUT, IN))
            decisions.append((atom, value))
            consistent = state.decide(atom, value)
            _check_against_rounds(program, state, decisions, consistent, where)
        elif frames:
            del frames[rng.randrange(len(frames)) + 1:]
            mark, before, decisions = frames.pop()
            state.undo(mark)
            assert _snapshot(state) == before, where
            consistent = True


@pytest.mark.parametrize("seed", seeds(13000))
def test_bounds_meet_at_every_leaf(seed):
    # a walk of every branch, pivots as the search picks them: where no open
    # atom is negated in a live rule, both bounds are equal and hold every
    # atom assigned in, so the lower bound is the least model of its own
    # reduct and the leaves are the stable models
    rng = random.Random(seed)
    gp = _with_even_loops(random_ground_program(seed, max_nd=10, max_rules=12), rng)
    state = Propagator(gp)
    leaves = []

    def walk():
        position = state.pick_pivot(0)
        if position is None:
            where = f"seed={seed} trail={len(state.trail)}"
            assert state.lower == state.upper, where
            assert all(state.upper[n] for n in gp.negated if state.assign[n] == IN), where
            leaves.append(gp.ids(state.lower))
            return
        for value in rng.sample((OUT, IN), 2):
            mark = len(state.trail)
            if state.decide(gp.negated[position], value):
                walk()
            state.undo(mark)

    walk()
    assert sorted(leaves) == list(enumerate_stable(gp).ids), f"seed={seed}"


def _with_even_loops(gp, rng):
    """The program plus four even loops over random pairs of its atoms, so
    that decision walks get past the odd loops random rules are full of."""
    rules = list(gp.rules)
    if len(gp.base) >= 2:
        for _ in range(4):
            x, y = rng.sample(gp.base, 2)
            rules += [Rule(head=x, body=(Literal(atom=y, negated=True),)),
                      Rule(head=y, body=(Literal(atom=x, negated=True),))]
    return make_ground_program(rules)


def _snapshot(state):
    return (bytes(state.assign), bytes(state.lower), bytes(state.upper),
            list(state.low_wait), list(state.up_wait), list(state.trail))


def _check_against_rounds(program, state, decisions, consistent, where):
    assign = bytearray(program.n)
    for atom, value in decisions:
        assign[atom] = value
    forced: list[int] = []
    expected = propagate_by_rounds(program, assign, forced)
    assert consistent == (expected is not None), where
    if expected is None:
        return
    assert (state.lower, state.upper) == expected, where
    assert state.assign == assign, where
    # the trail records the same assignments, in its own order
    trailed = [entry >> 2 for entry in state.trail if entry & 3 == ASSIGNED]
    assert sorted(trailed) == sorted([atom for atom, _ in decisions] + forced), where


@pytest.mark.parametrize("seed", seeds(3800))
def test_compiled_least_model_matches_reference(seed):
    gp = random_ground_program(seed, neg_prob=0.0, max_nd=8, max_rules=12)
    assert least_model(gp) == lfp(gp.rules), f"seed={seed}"


@pytest.mark.parametrize("seed", seeds(8500))
def test_wf_iteration_is_monotone_and_converges(seed):
    gp = random_ground_program(seed, max_nd=8)
    from ndlp.wf import EMPTY, wp_step

    current = EMPTY
    for step in range(2 * len(gp.base) + 2):
        following = wp_step(gp, current)
        assert current.issubset(following), f"seed={seed} step={step}"
        assert not (following.pos & following.neg), f"seed={seed}"
        if following == current:
            break
        current = following
    else:
        raise AssertionError(f"no fixpoint within bound, seed={seed}")
    assert current == well_founded_model(gp), f"seed={seed}"


def _subsets(gp):
    atoms = list(gp.base)
    for mask in range(1 << len(atoms)):
        yield frozenset(atoms[i] for i in range(len(atoms)) if mask >> i & 1)


def _is_unfounded(gp, interp, xi):
    for atom in xi:
        for rule in gp.rules:
            if rule.head != atom:
                continue
            some_false = any(
                (lit.atom in interp.pos) if lit.negated else (lit.atom in interp.neg)
                for lit in rule.body
            )
            depends_on_xi = any(b in xi for b in rule.positive_body())
            if not (some_false or depends_on_xi):
                return False
    return True


def unfounded_union_oracle(gp, interp):
    """Direct enumeration: union of every unfounded subset of the base."""
    union = frozenset()
    for xi in _subsets(gp):
        if _is_unfounded(gp, interp, xi):
            union |= xi
    return union


@pytest.mark.parametrize("seed", seeds(9000))
def test_greatest_unfounded_matches_direct_enumeration(seed):
    gp = random_ground_program(seed, max_nd=6)
    pos_raw = random_interpretations(seed, gp)
    neg_raw = random_interpretations(seed + CASES, gp) - pos_raw
    interp = PartialInterpretation(pos=pos_raw, neg=neg_raw)
    assert greatest_unfounded(gp, interp) == unfounded_union_oracle(gp, interp), (
        f"seed={seed}"
    )


@pytest.mark.parametrize("seed", seeds(9500))
def test_unfounded_set_complements_reduct_on_total_models(seed):
    gp = random_ground_program(seed, max_nd=6)
    for pos in _subsets(gp):
        if not is_model(pos, gp):
            continue
        total = PartialInterpretation(pos=pos, neg=gp.base_set - pos)
        complement = gp.base_set - lfp(reduct(gp, pos))
        assert complement == greatest_unfounded(gp, total), f"seed={seed}"


# ---------------------------------------------------------------------------
# deterministic subsumption
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", seeds(10000))
def test_definite_subsumption(seed):
    det = random_det_program(seed, neg_prob=0.0)
    gp = ground(embed(det))
    assert desingletonize(least_model(gp)) == det_least_model(det), f"seed={seed}"


@pytest.mark.parametrize("seed", seeds(11000))
def test_stable_subsumption(seed):
    det = random_det_program(seed)
    gp = ground(embed(det))
    nd_models = {desingletonize(m) for m in enumerate_stable(gp).models}
    assert nd_models == set(det_stable(det)), f"seed={seed}"
    for m in enumerate_stable(gp).models:
        assert is_stable(gp, m), f"seed={seed}"


@pytest.mark.parametrize("seed", seeds(12000))
def test_wf_subsumption(seed):
    det = random_det_program(seed)
    gp = ground(embed(det))
    wf = well_founded_model(gp)
    det_pos, det_neg = det_wf(det)
    assert desingletonize(wf.pos) == det_pos, f"seed={seed}"
    assert desingletonize(wf.neg) == det_neg, f"seed={seed}"
