"""Join-driven grounding against the product grounder.

The join-driven grounder must produce exactly the product grounding less the
dead instances of rules with variables (those whose positive body lies
outside the closure that ignores negation), in the same order. Dead
instances never fire, so every semantics must agree under both groundings;
only the well-founded negatives shrink, to the smaller base.
"""

from __future__ import annotations

import pytest

from ndlp import enumerate_stable, ground, least_model, parse_program, well_founded_model
from ndlp.corpus import corpus_text

from conftest import random_nonground_program
from oracles import live_instances, product_ground

CASES = 300

CORPUS = [
    (name, None)
    for name in (
        "connection.ndlp", "fred.ndlp", "no_stable.ndlp", "teaching.ndlp",
        "teaching2.ndlp", "wf_chain.ndlp", "wf_mutual.ndlp", "wf_partial.ndlp",
    )
] + [("robot.ndlp", h) for h in (1, 2, 3, 4)]

CLOSURE = "{path(X, Y)} :- {edge(X, Y)}.\n{path(X, Z)} :- {edge(X, Y)}, {path(Y, Z)}.\n"
GRAPHS = {
    "chain": [(i, i + 1) for i in range(7)],
    "cycle with a tail": [(0, 1), (1, 2), (2, 0), (2, 3), (4, 3)],
}
# Rules without variables count down their body beside rules with
# variables; ground literals of rules with variables are joined like any other.
COUNT_DOWN = {
    "fixed rule repeating a body literal":
        "{h} :- {g}, {g}.\n{g}.\n{q(X)} :- {h}, {r(X)}.\n{r(a)}.\n",
    "fixed rule with a false comparison":
        "{h} :- {g}, {a == b}.\n{g}.\n{q(X)} :- {h}, {r(X)}.\n{r(a)}.\n",
    "fixed rule waiting for an underived literal":
        "{h} :- {g}, {y}.\n{g}.\n{q(X)} :- {h}, {r(X)}.\n{r(a)}.\n",
    "ground literal derived after the variable literal":
        "{q(X)} :- {r(X)}, {go}.\n{go} :- {s}.\n{s}.\n{r(a)}.\n",
    "multi-member ground literal":
        "{q(X)} :- {r(X)}, {m2, m1}.\n{m1, m2} :- {s}.\n{s}.\n{r(a)}.\n{r(b)}.\n",
    "rule with variables repeating a body literal":
        "{q(X)} :- {r(X)}, {r(X)}.\n{r(a)}.\n{r(b)}.\n",
}


def check_against_product(program, horizon, label):
    gp = ground(program, horizon=horizon)
    live = live_instances(program, horizon)
    assert list(gp.rules) == live, label
    assert [r.origin for r in gp.rules] == [r.origin for r in live], label

    full = product_ground(program, horizon)
    if program.is_positive():
        assert least_model(gp) == least_model(full), label
    assert enumerate_stable(gp).models == enumerate_stable(full).models, label
    wf, wf_full = well_founded_model(gp), well_founded_model(full)
    assert wf.pos == wf_full.pos, label
    assert wf.neg == wf_full.neg & gp.base_set, label
    assert gp.base_set - wf.pos - wf.neg == full.base_set - wf_full.pos - wf_full.neg, label
    assert wf.is_total(gp.base) == wf_full.is_total(full.base), label


@pytest.mark.parametrize("seed", range(9000, 9000 + CASES))
def test_random_programs_ground_to_live_product_instances(seed):
    text, horizon = random_nonground_program(seed)
    check_against_product(parse_program(text), horizon, f"seed={seed}\n{text}")


@pytest.mark.parametrize("name,horizon", CORPUS)
def test_corpus_grounds_to_live_product_instances(name, horizon):
    check_against_product(parse_program(corpus_text(name)), horizon, f"{name} h={horizon}")


@pytest.mark.parametrize("shape", GRAPHS)
def test_transitive_closure_grounds_to_live_product_instances(shape):
    edges = "".join(f"{{edge(n{a}, n{b})}}.\n" for a, b in GRAPHS[shape])
    check_against_product(parse_program(CLOSURE + edges), None, shape)


@pytest.mark.parametrize("case", COUNT_DOWN)
def test_count_down_cases_ground_to_live_product_instances(case):
    check_against_product(parse_program(COUNT_DOWN[case]), None, case)
