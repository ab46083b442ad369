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
from ndlp.compiled import make_ground_program
from ndlp.grounder import _Instantiator

from conftest import random_nonground_program
from oracles import live_instances, product_ground
from programs import robot_variant, robot_variants

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
    # the two routes must give one set-atom one id
    "fact equal to an instance's head":
        "{q(a)}.\n{q(X)} :- {r(X)}.\n{r(a)}.\n",
    "fixed rule whose positive and negated body name instance heads":
        "{h} :- {q(a)}, not {q(b)}.\n{q(X)} :- {r(X)}.\n{r(a)}.\n{r(b)}.\n",
    # X = a, Y = b grounds the head to s(b), s(a)
    "fixed set-atom in another member order than the head grounding it":
        "{h} :- {s(b), s(a)}.\n{k} :- not {s(a), s(b)}.\n"
        "{s(Y), s(X)} :- {r(X)}, {r(Y)}, {X != Y}.\n{r(a)}.\n{r(b)}.\n",
    "fixed compound-term fact matched by a pattern":
        "{h(X)} :- {p(f(X))}.\n{p(f(a))}.\n{p(f(g(b)))}.\n{p(a)}.\n",
}

# Programs without variables, which no case above is, since each of those
# has a rule with variables: one without a comparison is compiled in one
# pass, one with a comparison grounded from its patterns with no round run.
VARIABLE_FREE = {
    "true and false comparisons":
        "{h} :- {g}, {a == a}.\n{k} :- {g}, {a != a}.\n{m} :- {a != b}, not {k}.\n"
        "{n} :- {1 == 2}.\n{g}.\n",
    "comparisons the parser folds":
        "{h} :- {1+1 == 2}.\n{k} :- {g}, {2 != 1+1}.\n{g}.\n",
    "repeated body literal":
        "{h} :- {g}, {g}, not {k}, not {k}.\n{g}.\n{k} :- {h}.\n",
    "one set-atom written in two member orders":
        "{m2, m1} :- {s}.\n{h} :- {m1, m2}.\n{k} :- not {m2, m1}.\n{s}.\n",
    "negated literal that no rule heads":
        "{h} :- not {nowhere}.\n{k} :- {h}, not {h2}.\n",
    "facts only":
        "{a}.\n{c, b}.\n{p(1, f(x))}.\n{a}.\n",
    "empty program": "",
}

# Positive body set-atoms are taken from the join's matches; heads, negated
# literals and comparisons are grounded for each instance, and heads and
# negated literals interned only when the instance is kept.
FROM_THE_JOIN = {
    "join-taken literal with coinciding members":
        "{p(X, Y)} :- {q(X), q(Y)}, {r(X)}, not {s(Y)}.\n"
        "{q(a)}.\n{q(a), q(b)}.\n{r(a)}.\n{r(b)}.\n{s(b)} :- {r(b)}.\n",
    "sum in a body pattern":
        "#horizon 2.\n{q(T)} :- {p(T+1)}, {r(T)}.\n{w(T)} :- {p(T+1), s(T)}.\n"
        "{p(0)}.\n{p(1)}.\n{p(3)}.\n{r(0)}.\n{r(2)}.\n"
        "{p(1), s(0)}.\n{p(3), s(2)}.\n{p(2), s(0)}.\n{p(T+1)} :- {q(T)}.\n",
    "rule repeating a body literal":
        "{h(X, Y)} :- {e(X, Y)}, {e(Y, X)}, {e(X, Y)}, not {e(Y, Y)}.\n"
        "{e(a, b)}.\n{e(b, a)}.\n{e(a, a)}.\n{e(b, c)}.\n",
    "head and negated set-atoms whose members have other variables":
        "{p(X), q(Y)} :- {r(X)}, {s(Y)}, not {q(X), u(Y)}.\n"
        "{r(a)}.\n{r(b)}.\n{s(a)}.\n{s(b)}.\n{u(a)} :- {p(a), q(b)}.\n",
    "bound members looked up in a set-literal":
        "{g(X, Y, Z)} :- {p(X, Y), p(X, 1), p(Z, 1)}.\n{h(X)} :- {p(X, 0), p(X, 1), p(X, 2)}.\n"
        "{p(a, 1), p(b, 1)}.\n{p(a, 0), p(a, 1), p(a, 2)}.\n{p(b, 0), p(b, 1), p(a, 2)}.\n"
        "{p(a, 1)}.\n",
    # {s(a)} is grounded for the instance X = a, which its comparison drops
    "dropped instance interns nothing":
        "{p(X)} :- {r(X)}, not {s(X)}, {X != a}.\n{r(a)}.\n{r(b)}.\n",
    # X = b, Y = a grounds the head's members out of key order
    "multi-member head grounded out of key order":
        "{s(Y), s(X)} :- {r(X)}, {r(Y)}.\n{u} :- {s(b), s(a)}.\n{v} :- not {s(b), s(a)}.\n"
        "{r(a)}.\n{r(b)}.\n",
    # p(a, b) binds X to a, then must fail on b
    "repeated variable in one member":
        "{q(X)} :- {p(X, X)}.\n{p(a, b)}.\n{p(b, b)}.\n",
    # {p(a), p(b)} is derived; {p(X)} must match only {p(c)}, both when an
    # NdAtom is taken off the queue and when {e(c)} is joined with it
    "one-member pattern beside a derived two-member set-atom":
        "{h(X)} :- {p(X)}.\n{k(X, Y)} :- {e(Y)}, {p(X)}.\n"
        "{p(a), p(b)} :- {g}.\n{e(c)} :- {p(a), p(b)}.\n{g}.\n{p(c)}.\n",
    # X is bound by {r(X)} or by the compound, whichever is joined first
    "compound argument whose variable another literal binds":
        "{h(X, Y)} :- {r(X)}, {q(f(X), Y)}.\n{r(a)}.\n{r(b)}.\n"
        "{q(f(a), b)}.\n{q(f(c), a)}.\n{q(g(b), a)}.\n{q(a, b)}.\n",
    # 3 and 5 are derived but are not program constants, so Y rejects them;
    # n(1) would give X = 0, which is not one either
    "non-time variable meeting an integer that is not a program constant":
        "{n(X+1)} :- {k(X)}.\n{k(2)}.\n{k(4)}.\n{n(1)}.\n"
        "{m(Y)} :- {n(Y)}.\n{o(X)} :- {n(X+1)}.\n",
    # p(0) would bind T to -1 and p(4) to 3, outside 0..2, with no other
    # body literal to reject the instance
    "time variable a body sum would bind below zero":
        "#horizon 2.\n{p(0)}.\n{q(T)} :- {p(T+1)}.\n",
    "time variable a body sum would bind past the horizon":
        "#horizon 2.\n{p(1)}.\n{p(4)}.\n{q(T)} :- {p(T+1)}.\n",
}

# One case per kind of plan step and argument action: a literal joined after
# the trigger probes an index by its first argument bound before it, or
# scans its predicate when none is, and compares, binds or sums per argument.
PLANS = {
    # X is bound by the first occurrence and compared at the second, both
    # in a trigger literal and in a probed one
    "variable repeated in one literal":
        "{q(X)} :- {p(X, X)}.\n{h(X, Y)} :- {r(Y)}, {p(X, X)}, {p(Y, X)}.\n"
        "{p(a, b)}.\n{p(b, b)}.\n{p(a, a)}.\n{p(b, a)}.\n{r(a)}.\n{r(b)}.\n",
    "self-join":
        "{p(X, Z)} :- {e(X, Y)}, {e(Y, Z)}.\n"
        "{e(a, b)}.\n{e(b, c)}.\n{e(c, a)}.\n{e(b, b)}.\n",
    # r(T) probes p by the term T+1, and p(T+1) binds T for r's probe
    "probe through a sum":
        "#horizon 3.\n{q(T)} :- {p(T+1)}, {r(T)}.\n{p(T+1)} :- {q(T)}.\n"
        "{p(1)}.\n{p(2)}.\n{p(5)}.\n{r(0)}.\n{r(1)}.\n{r(3)}.\n",
    # once p(X) binds X, q(Y) has no bound argument and scans q
    "literal with no bound argument":
        "{h(X, Y)} :- {p(X)}, {q(Y)}.\n{p(a)}.\n{p(b)}.\n{q(c)}.\n{q(a)}.\n",
    "compound with a variable inside a join literal":
        "{h(X, Y)} :- {r(Y)}, {q(f(X, Y))}.\n{k(X)} :- {q(f(X, X))}.\n{r(a)}.\n{r(b)}.\n"
        "{q(f(a, b))}.\n{q(f(b, c))}.\n{q(f(b, b))}.\n{q(g(a, b))}.\n{q(f(a))}.\n{q(a)}.\n",
    # the set-literal comes last, its members bound and looked up by key
    "multi-member step after one-member steps":
        "{h(X, Y)} :- {r(X)}, {s(Y)}, {p(X), p(Y)}.\n{r(a)}.\n{r(b)}.\n{s(b)}.\n{s(a)}.\n"
        "{p(a), p(b)}.\n{p(a)}.\n{p(b), p(c)}.\n{p(b)} :- {p(a)}.\n",
}


# A set-literal whose members the steps before it bind grounds to one
# NdAtom, looked up by key among those indexed; instances sort by the ranks
# of their terms, a time point by its value.
LOOKUPS_AND_RANKS = {
    # 4 is a program constant, so its id comes before those of the time
    # points 1-3 derived after it
    "integer constant inside the time range":
        "#horizon 6.\n{p(4)}.\n{q(0)}.\n{q(T+1)} :- {q(T)}.\n",
    "time variable beside an ordinary one, constants inside the time range":
        "#horizon 5.\n{p(4)}.\n{p(2)}.\n{q(0)}.\n{q(T+1)} :- {q(T)}.\n"
        "{r(X, T)} :- {q(T)}, {s(X)}.\n{s(b)}.\n{s(a)}.\n",
    # {p(a), r(a)} and q(a) arrive together: the plan of q(a) meets the
    # set-literal before its trigger, that of {p(a), r(a)} meets q(a) after
    "bound set-literal arriving in the round of its trigger":
        "{h(X)} :- {p(X), r(X)}, {q(X)}.\n{k(X)} :- {q(X)}, {p(X), r(X)}.\n"
        "{p(a), r(a)} :- {g}.\n{q(a)} :- {g}.\n{q(b)} :- {g}.\n{g}.\n",
    "bound set-literal arriving before and after its trigger":
        "{h(X)} :- {q(X)}, {p(X), r(X)}.\n{p(a), r(a)}.\n{q(a)} :- {g}.\n{g} :- {s}.\n{s}.\n"
        "{q(b)}.\n{p(b), r(b)} :- {g}.\n",
    # {p(a), r(a)} is interned as a negated literal and never derived
    "bound set-literal interned but never indexed":
        "{h(X)} :- {q(X)}, {p(X), r(X)}.\n{k} :- not {p(a), r(a)}.\n{q(a)}.\n",
    # the first rule interns {p(a), r(a)} as its head in the round the
    # second looks it up, before the next round indexes it
    "bound set-literal interned in the round it is looked up":
        "{p(X), r(X)} :- {q(X)}.\n{h(X)} :- {q(X)}, {p(X), r(X)}.\n{q(a)}.\n",
    # X and Y bound to one constant collapse the set-literal to {p(a)}
    "bound set-literal collapsing to one member":
        "{h(X, Y)} :- {q(X)}, {q(Y)}, {p(X), p(Y)}.\n{q(a)}.\n{q(b)}.\n{p(a)}.\n"
        "{p(a), p(b)}.\n",
    # the members differ in their ground first argument, so the set-literal
    # never grounds to one member and no one-member NdAtom triggers it
    "set-literal whose members never coincide":
        "#horizon 2.\n{h(T)} :- {p(on, T), p(off, T)}.\n{k(T)} :- {p(X, T), p(Y, T)}.\n"
        "{p(on, 0)}.\n{p(off, 0)}.\n{p(on, 1), p(off, 1)}.\n{p(on, 2), p(on, 1)}.\n",
    "fast-path head under a false and a true comparison":
        "{q(X, Y)} :- {r(X)}, {r(Y)}, {X != Y}.\n{e(X)} :- {r(X)}, {s(Y)}, {X == Y}.\n"
        "{r(a)}.\n{r(b)}.\n{s(b)}.\n{s(c)}.\n",
    # q(a) binds X to a, whose X+1 has no value, so the bound set-literal
    # grounds to no NdAtom; q(1) finds {p(2), s(1)}
    "bound set-literal whose sum has no value":
        "{q(a)}.\n{q(1)}.\n{p(2), s(1)}.\n{p(b), s(a)}.\n{r(X)} :- {q(X)}, {p(X+1), s(X)}.\n",
}


def check_against_product(program, horizon, label):
    gp = ground(program, horizon=horizon)
    live = live_instances(program, horizon)
    assert list(gp.rules) == live, label
    assert [r.origin for r in gp.rules] == [r.origin for r in live], label
    assert str(gp) == "".join(f"{r}\n" for r in live), label
    # the ids the grounder emits are those of the same rules compiled
    want = make_ground_program(live)
    for field in ("base", "heads", "pos", "neg"):
        assert getattr(gp, field) == getattr(want, field), label

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


@pytest.mark.parametrize("case", VARIABLE_FREE)
def test_programs_without_variables_ground_to_their_product_instances(case):
    program = parse_program(VARIABLE_FREE[case])
    assert not any(rule.variables() for rule in program.rules)
    check_against_product(program, None, case)


def test_one_set_atom_in_two_member_orders_gets_one_id():
    gp = ground(parse_program(VARIABLE_FREE["one set-atom written in two member orders"]))
    assert [str(nd) for nd in gp.base] == ["{h}", "{k}", "{m1, m2}", "{s}"]
    assert gp.heads[0] == gp.pos[1][0] == gp.neg[2][0] == 2


@pytest.mark.parametrize("case", FROM_THE_JOIN)
def test_instances_from_the_join_ground_to_live_product_instances(case):
    check_against_product(parse_program(FROM_THE_JOIN[case]), None, case)


@pytest.mark.parametrize("case", PLANS)
def test_plan_steps_ground_to_live_product_instances(case):
    check_against_product(parse_program(PLANS[case]), None, case)


@pytest.mark.parametrize("case", LOOKUPS_AND_RANKS)
def test_lookups_and_rank_order_ground_to_live_product_instances(case):
    check_against_product(parse_program(LOOKUPS_AND_RANKS[case]), None, case)


@pytest.mark.parametrize("variant", robot_variants(), ids=str)
def test_robot_variants_ground_to_live_product_instances(variant):
    check_against_product(parse_program(robot_variant(*variant)), None, str(variant))


def test_the_join_finds_each_instance_once(monkeypatch):
    """No row reaches `_Instantiator.record` with the slots of a row recorded
    before, over the random programs and the robot variants: the join finds
    each instance once, so `record` keeps no check for repeats."""
    record, rows = _Instantiator.record, []

    def once(self, source, found):
        def checked():
            for row in found:
                assert tuple(row[:source.width]) not in source.instances, source.origin
                rows.append(None)
                yield row
        record(self, source, checked())

    monkeypatch.setattr(_Instantiator, "record", once)
    for seed in range(9000, 9000 + CASES):
        text, horizon = random_nonground_program(seed)
        ground(parse_program(text), horizon)
    for variant in robot_variants():
        ground(parse_program(robot_variant(*variant)))
    assert len(rows) > 2_000  # 2 937 rows
