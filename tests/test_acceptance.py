"""Acceptance gate: one test per shipped criterion, with a printed verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Timing budgets are asserted where the criterion carries one.
"""

from __future__ import annotations

import time

from ndlp import (
    count,
    enumerate_stable,
    expand,
    ground,
    is_stable,
    least_model,
    parse_program,
    well_founded_model,
)
from ndlp.corpus import corpus_text
from ndlp.compiled import make_ground_program
from ndlp.wf import EMPTY, wp_step

from conftest import gp_from
from detlp import DetRule, embed


def verdict(number: int, label: str) -> None:
    print(f"criterion {number} ({label}): PASS")


def names(atoms) -> list[str]:
    return [str(a) for a in sorted(atoms, key=lambda x: x.key)]


def model_by_occ(models, *occ_strs):
    wanted = tuple(sorted(occ_strs))
    hits = [
        m
        for m in models
        if tuple(sorted(str(a) for a in m if a.atoms[0].pred == "occ")) == wanted
    ]
    assert len(hits) == 1, f"expected one model with occurrences {wanted}"
    return hits[0]


def test_criterion_1_fred_least_model():
    started = time.perf_counter()
    gp = gp_from(corpus_text("fred.ndlp"))
    model = least_model(gp)
    elapsed = time.perf_counter() - started

    pair_facts = {
        "{salad(salmon), soup(beef)}",
        "{salad(seafood), soup(beef)}",
        "{salad(salmon), soup(buffalo)}",
        "{salad(seafood), soup(buffalo)}",
        "{fish(salmon), meat(beef)}",
        "{fish(seafood), meat(beef)}",
        "{fish(salmon), meat(buffalo)}",
        "{fish(seafood), meat(buffalo)}",
    }
    lunches = {
        "{lunch(beef, salmon)}",
        "{lunch(beef, seafood)}",
        "{lunch(buffalo, salmon)}",
        "{lunch(buffalo, seafood)}",
    }
    assert {str(a) for a in model} == pair_facts | lunches
    assert elapsed < 1.0
    verdict(1, "diner menu least model")


def test_criterion_2_travel_least_model():
    started = time.perf_counter()
    gp = gp_from(corpus_text("connection.ndlp"))
    model = {str(a) for a in least_model(gp)}
    elapsed = time.perf_counter() - started

    for fact in (
        "{reachable(home, paris)}",
        "{reachable(home, london)}",
        "{reachable(home, berlin)}",
        "{reachable(rome, paris)}",
    ):
        assert fact in model
    assert elapsed < 1.0
    verdict(2, "travel routing least model")


def test_criterion_3_deterministic_embedding():
    det = [
        DetRule(head="a", pos=("b",)),
        DetRule(head="a", pos=("c",)),
        DetRule(head="a", pos=("d", "f")),
        DetRule(head="b"),
        DetRule(head="c"),
    ]
    model = least_model(ground(embed(det)))
    assert names(model) == ["{a}", "{b}", "{c}"]
    verdict(3, "singleton embedding of a definite program")


def test_criterion_4_teaching_program():
    gp = gp_from(corpus_text("teaching.ndlp"))
    result = enumerate_stable(gp)
    assert [names(m) for m in result.models] == [
        ["{math(101), math(102)}"],
        ["{stat(101), stat(102)}"],
    ]
    combined = frozenset(r.head for r in gp.rules)
    assert not is_stable(gp, combined)
    expansions = [[str(s) for s in expand(m)] for m in result.models]
    assert expansions == [
        ["{math(101)}", "{math(102)}"],
        ["{stat(101)}", "{stat(102)}"],
    ]
    verdict(4, "course choice: two stable models, combined fails")


def test_criterion_5_second_teaching_program():
    gp = gp_from(corpus_text("teaching2.ndlp"))
    result = enumerate_stable(gp)
    assert [names(m) for m in result.models] == [
        ["{math(101), math(102)}", "{math(102)}"],
        ["{stat(101)}", "{stat(101), stat(102)}"],
    ]
    math_sets = [str(s) for s in expand(result.models[0])]
    assert math_sets == ["{math(101), math(102)}", "{math(102)}"]
    stat_sets = [str(s) for s in expand(result.models[1])]
    assert stat_sets == ["{stat(101)}", "{stat(101), stat(102)}"]
    verdict(5, "assigned course: superset answer set retained")


def test_criterion_6_no_stable_model_program():
    gp = gp_from(corpus_text("no_stable.ndlp"))
    assert enumerate_stable(gp).models == ()
    # dropping the self-blocking rule restores a unique model
    program = parse_program(corpus_text("no_stable.ndlp"))
    trimmed = make_ground_program(ground(program).rules[:-1])
    models = enumerate_stable(trimmed).models
    assert [names(m) for m in models] == [["{a1, a2}", "{b1, b2}"]]
    verdict(6, "self-blocking pair: no stable models")


def test_criterion_7_well_founded_worked_examples():
    # the three-rule chain settles in exactly three productive W steps
    chain = gp_from(corpus_text("wf_chain.ndlp"))
    i1 = wp_step(chain, EMPTY)
    i2 = wp_step(chain, i1)
    i3 = wp_step(chain, i2)
    assert EMPTY != i1 != i2 != i3
    assert wp_step(chain, i3) == i3
    assert names(i3.pos) == ["{a1, a2}", "{c1, c2}"]
    assert names(i3.neg) == ["{b1, b2}"]
    assert i3.is_total(chain.base)
    chain_sets = [str(s) for s in expand(i3)]
    assert chain_sets == [
        "{a1, c1, not b1}",
        "{a1, c1, not b2}",
        "{a1, c2, not b1}",
        "{a1, c2, not b2}",
        "{a2, c1, not b1}",
        "{a2, c1, not b2}",
        "{a2, c2, not b1}",
        "{a2, c2, not b2}",
    ]

    # both mutual-negation programs stay fully undefined
    mutual = gp_from(corpus_text("wf_mutual.ndlp"))
    assert well_founded_model(mutual) == EMPTY
    joined = gp_from(
        "{a1, a2} :- not {b1, b2}. {b1, b2} :- not {a1, a2}."
        "{c1, c2} :- {a1, a2}. {c1, c2} :- {b1, b2}."
    )
    assert well_founded_model(joined) == EMPTY

    # the partial example settles only its independent pair
    partial = gp_from(corpus_text("wf_partial.ndlp"))
    model = well_founded_model(partial)
    assert names(model.pos) == ["{c1, c2}"]
    assert names(model.neg) == ["{d1, d2}"]
    assert not model.is_total(partial.base)
    partial_sets = [str(s) for s in expand(model)]
    assert partial_sets == [
        "{c1, not d1}",
        "{c1, not d2}",
        "{c2, not d1}",
        "{c2, not d2}",
    ]
    verdict(7, "well-founded worked examples")


def test_criterion_8_security_robot():
    started = time.perf_counter()
    gp = gp_from(corpus_text("robot.ndlp"))
    result = enumerate_stable(gp)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    assert not result.truncated

    plan_close = model_by_occ(
        result.models, "{occ(close, 0)}", "{occ(check, 1)}", "{occ(inspect, 2)}"
    )
    plan_flip = model_by_occ(
        result.models, "{occ(check, 0)}", "{occ(flip_lock, 1)}", "{occ(inspect, 2)}"
    )
    plan_check = model_by_occ(
        result.models, "{occ(check, 0)}", "{occ(check, 1)}", "{occ(inspect, 2)}"
    )

    def goal_branches(expansion):
        return [
            s
            for s in expansion
            if any(str(a) == "holds(-opened, 3)" for a in s.atoms)
            and any(str(a) == "holds(locked, 3)" for a in s.atoms)
        ]

    for model, n_sets, n_goal in (
        (plan_close, 8, 2),
        (plan_flip, 16, 4),
        (plan_check, 16, 4),
    ):
        expansion = expand(model)
        assert len(expansion) == n_sets
        assert len(goal_branches(expansion)) == n_goal
        exact_count, exact = count(model)
        assert exact and exact_count == n_sets

    # global counts: one model per action sequence (4^3 of them), of which
    # the ones containing a goal atom are the valid plans
    goal_models = sum(
        1
        for m in result.models
        if any(a.atoms[0].pred == "goal" for a in m)
    )
    print(
        f"robot: {len(result.models)} stable models, "
        f"{goal_models} contain a goal atom, {elapsed:.2f}s"
    )
    assert len(result.models) == 64
    assert goal_models == 30
    verdict(8, "security robot plans")


def test_criterion_9_property_suites():
    import test_properties as props

    started = time.perf_counter()
    suites = [
        props.test_tp_monotone,
        props.test_model_characterization,
        props.test_least_model_is_intersection_of_models,
        props.test_model_intersection_closure,
        props.test_stable_models_are_minimal_tprime_fixpoints,
        props.test_enumerate_stable_matches_brute_force,
        props.test_stable_models_are_head_supported,
        props.test_wf_below_every_stable_model,
        props.test_wf_total_on_negation_free_programs,
        props.test_wf_iteration_is_monotone_and_converges,
        props.test_greatest_unfounded_matches_direct_enumeration,
        props.test_unfounded_set_complements_reduct_on_total_models,
        props.test_definite_subsumption,
        props.test_stable_subsumption,
        props.test_wf_subsumption,
    ]
    base_seeds = (1000, 2000, 3000, 4000, 5000, 6000, 6500, 7000, 8000, 8500,
                  9000, 9500, 10000, 11000, 12000)
    for law, base in zip(suites, base_seeds):
        for seed in props.seeds(base):
            law(seed)
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    print(f"property suites: {len(suites)} laws x {props.CASES} cases, {elapsed:.1f}s")
    verdict(9, "randomized property suites")
