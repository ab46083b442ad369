"""Satisfaction, models, the one-step operator, and the least model."""

import pytest

from ndlp import (
    EvaluationError,
    is_model,
    least_model,
    satisfies_rule,
    tp_step,
)
from ndlp.corpus import corpus_text

from conftest import gp_from
from oracles import BaseCapExceeded, enumerate_models


def nd(gp, text: str):
    """Look up the base NdAtom printed as `text`."""
    for atom in gp.base:
        if str(atom) == text:
            return atom
    raise KeyError(text)


# The five-rule definite program and its singleton embedding, used across
# this module: a :- b. a :- c. a :- d, f. b. c.
EMBEDDED = "{a} :- {b}. {a} :- {c}. {a} :- {d}, {f}. {b}. {c}."


class TestSatisfaction:
    def test_body_holds_head_absent(self):
        gp = gp_from("{a} :- {b}.")
        b = frozenset([nd(gp, "{b}")])
        assert not satisfies_rule(b, gp.rules[0])

    def test_unsatisfied_body_satisfies_rule(self):
        gp = gp_from("{a} :- {b}.")
        assert satisfies_rule(frozenset(), gp.rules[0])

    def test_negated_atom_present_blocks_body(self):
        gp = gp_from(corpus_text("teaching.ndlp"))
        both = frozenset(gp.base)
        assert satisfies_rule(both, gp.rules[0])
        assert satisfies_rule(both, gp.rules[1])

    def test_is_model_requires_every_rule(self):
        gp = gp_from("{a} :- {b}. {b}.")
        a, b = nd(gp, "{a}"), nd(gp, "{b}")
        assert is_model(frozenset([a, b]), gp)
        assert not is_model(frozenset(), gp)
        assert not is_model(frozenset([b]), gp)

    def test_fred_least_model_is_a_model(self):
        gp = gp_from(corpus_text("fred.ndlp"))
        assert is_model(least_model(gp), gp)
        assert not is_model(frozenset(), gp)


class TestEnumerateModels:
    def test_single_fact(self):
        gp = gp_from("{a}.")
        assert enumerate_models(gp) == [frozenset([nd(gp, "{a}")])]

    def test_one_rule_three_models(self):
        gp = gp_from("{a} :- {b}.")
        a, b = nd(gp, "{a}"), nd(gp, "{b}")
        assert enumerate_models(gp) == [
            frozenset(),
            frozenset([a]),
            frozenset([a, b]),
        ]

    def test_embedded_definite_program_least_element(self):
        gp = gp_from(EMBEDDED)
        models = enumerate_models(gp)
        least = min(models, key=len)
        assert sorted(str(x) for x in least) == ["{a}", "{b}", "{c}"]

    def test_cap(self):
        gp = gp_from("{p(X)} :- {q(X)}. {q(c1)}. {q(c2)}.")
        with pytest.raises(BaseCapExceeded):
            enumerate_models(gp, max_base=3)


class TestTpStep:
    def test_facts_fire_on_empty(self):
        gp = gp_from(EMBEDDED)
        assert sorted(str(x) for x in tp_step(gp, frozenset())) == ["{b}", "{c}"]

    def test_second_step_reaches_a(self):
        gp = gp_from(EMBEDDED)
        step1 = tp_step(gp, frozenset())
        assert sorted(str(x) for x in tp_step(gp, step1)) == ["{a}", "{b}", "{c}"]

    def test_fixpoint_stays_put(self):
        gp = gp_from(EMBEDDED)
        lm = least_model(gp)
        assert tp_step(gp, lm) == lm

    def test_rejects_negation(self):
        gp = gp_from("{a} :- not {b}.")
        with pytest.raises(EvaluationError):
            tp_step(gp, frozenset())
        with pytest.raises(EvaluationError):
            least_model(gp)


class TestLeastModel:
    def test_empty_program(self):
        gp = gp_from("")
        assert least_model(gp) == frozenset()

    def test_embedded_program(self):
        gp = gp_from(EMBEDDED)
        assert sorted(str(x) for x in least_model(gp)) == ["{a}", "{b}", "{c}"]

    def test_fred(self):
        gp = gp_from(corpus_text("fred.ndlp"))
        model = least_model(gp)
        pair_facts = {str(r.head) for r in gp.rules if r.is_fact()}
        lunches = {
            f"{{lunch({x}, {y})}}"
            for x in ("beef", "buffalo")
            for y in ("salmon", "seafood")
        }
        assert {str(a) for a in model} == pair_facts | lunches

    def test_connection_reaches_the_listed_cities(self):
        gp = gp_from(corpus_text("connection.ndlp"))
        reached = {str(a) for a in least_model(gp)}
        for fact in (
            "{reachable(home, paris)}",
            "{reachable(home, london)}",
            "{reachable(home, berlin)}",
            "{reachable(home, rome)}",
            "{reachable(rome, paris)}",
            "{reachable(rome, berlin)}",
            "{reachable(rome, london)}",
        ):
            assert fact in reached
