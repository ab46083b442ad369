"""Deterministic reference semantics and the singleton embedding."""

import pytest

from ndlp import enumerate_stable, ground, least_model
from ndlp.syntax import program_to_str

from detlp import DetRule, desingletonize, det_least_model, det_stable, det_wf, embed


def rules_of(*specs):
    """('a', ['b'], ['c']) means a :- b, not c."""
    return [DetRule(head=h, pos=tuple(p), neg=tuple(n)) for h, p, n in specs]


class TestEmbed:
    def test_even_loop(self):
        program = embed(rules_of(("a", [], ["b"]), ("b", [], ["a"])))
        assert program_to_str(program) == "{a} :- not {b}.\n{b} :- not {a}.\n"

    def test_fact(self):
        assert program_to_str(embed([DetRule(head="b")])) == "{b}.\n"

    def test_five_rule_definite_program(self):
        program = embed(
            rules_of(
                ("a", ["b"], []),
                ("a", ["c"], []),
                ("a", ["d", "f"], []),
                ("b", [], []),
                ("c", [], []),
            )
        )
        assert program_to_str(program) == (
            "{a} :- {b}.\n{a} :- {c}.\n{a} :- {d}, {f}.\n{b}.\n{c}.\n"
        )
        lm = least_model(ground(program))
        assert desingletonize(lm) == {"a", "b", "c"}


class TestDetLeastModel:
    def test_definite_program(self):
        rules = rules_of(
            ("a", ["b"], []), ("a", ["c"], []), ("a", ["d", "f"], []),
            ("b", [], []), ("c", [], []),
        )
        assert det_least_model(rules) == {"a", "b", "c"}

    def test_rejects_negation(self):
        with pytest.raises(ValueError):
            det_least_model(rules_of(("a", [], ["b"])))


class TestDetStable:
    def test_even_loop_has_two_models(self):
        assert det_stable(rules_of(("a", [], ["b"]), ("b", [], ["a"]))) == [
            frozenset({"a"}),
            frozenset({"b"}),
        ]

    def test_positive_program_unique_model(self):
        rules = rules_of(
            ("a", ["b"], []), ("a", ["c"], []), ("a", ["d", "f"], []),
            ("b", [], []), ("c", [], []),
        )
        assert det_stable(rules) == [frozenset({"a", "b", "c"})]

    def test_odd_loop_has_none(self):
        assert det_stable(rules_of(("a", [], ["a"]))) == []

    def test_agrees_with_nd_engine_on_even_loop(self):
        det = rules_of(("a", [], ["b"]), ("b", [], ["a"]))
        nd_models = enumerate_stable(ground(embed(det))).models
        assert sorted(desingletonize(m) for m in nd_models) == sorted(det_stable(det))


class TestDetWf:
    def test_even_loop_everything_undefined(self):
        assert det_wf(rules_of(("a", [], ["b"]), ("b", [], ["a"]))) == (
            frozenset(),
            frozenset(),
        )

    def test_single_fact(self):
        assert det_wf([DetRule(head="a")]) == (frozenset({"a"}), frozenset())

    def test_default_negation(self):
        assert det_wf(rules_of(("a", [], ["b"]))) == (
            frozenset({"a"}),
            frozenset({"b"}),
        )

    def test_unfounded_loop(self):
        rules = rules_of(("p", ["q"], []), ("q", ["p"], []), ("r", [], []))
        assert det_wf(rules) == (frozenset({"r"}), frozenset({"p", "q"}))
