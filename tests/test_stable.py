"""Reduct construction, stability checks, and stable-model enumeration."""

import sys

from ndlp import (
    enumerate_stable,
    is_model,
    is_stable,
    least_model,
    reduct,
    tp_step,
    tprime_step,
)
from ndlp.compiled import IN, OUT, Propagator
from ndlp.corpus import corpus_text

from conftest import gp_from
from oracles import brute_force_stable
from programs import conflict_modules


def nd(gp, text):
    for atom in gp.base:
        if str(atom) == text:
            return atom
    raise KeyError(text)


def model_strs(models):
    return [[str(a) for a in sorted(m, key=lambda x: x.key)] for m in models]


class TestReduct:
    def test_teaching_reduct_keeps_one_fact(self, teaching):
        math = nd(teaching, "{math(101), math(102)}")
        r = reduct(teaching, frozenset([math]))
        assert len(r) == 1
        assert r[0].head == math and r[0].is_fact()

    def test_reduct_of_positive_program_is_identity(self):
        gp = gp_from("{a} :- {b}. {b}.")
        assert reduct(gp, frozenset()) == gp.rules
        assert reduct(gp, frozenset(gp.base)) == gp.rules

    def test_reduct_against_everything_is_empty(self, teaching):
        r = reduct(teaching, frozenset(teaching.base))
        assert r == ()

    def test_no_negative_literals_remain(self):
        gp = gp_from("{a} :- {b}, not {c}. {b}.")
        r = reduct(gp, frozenset())
        assert all(not lit.negated for rule in r for lit in rule.body)


class TestIsStable:
    def test_teaching_models(self, teaching):
        math = nd(teaching, "{math(101), math(102)}")
        stat = nd(teaching, "{stat(101), stat(102)}")
        assert is_stable(teaching, frozenset([math]))
        assert is_stable(teaching, frozenset([stat]))
        assert not is_stable(teaching, frozenset([math, stat]))
        assert not is_stable(teaching, frozenset())

    def test_minimal_fixpoint_that_is_not_stable(self):
        gp = gp_from("{a1, a2} :- not {a1, a2}. {a1, a2} :- {b1, b2}.")
        candidate = frozenset(gp.base)
        assert not is_stable(gp, candidate)
        assert enumerate_stable(gp).models == ()


class TestTprimeStep:
    def test_fires_on_absent_negative(self):
        gp = gp_from("{a1, a2} :- not {b1, b2}.")
        assert model_strs([tprime_step(gp, frozenset())]) == [["{a1, a2}"]]

    def test_blocked_by_present_negative(self):
        gp = gp_from("{a1, a2} :- not {b1, b2}.")
        b = nd(gp, "{b1, b2}")
        assert tprime_step(gp, frozenset([b])) == frozenset()

    def test_not_monotone(self):
        gp = gp_from("{a1, a2} :- not {b1, b2}.")
        b = nd(gp, "{b1, b2}")
        assert not tprime_step(gp, frozenset()) <= tprime_step(gp, frozenset([b]))

    def test_coincides_with_tp_on_positive_programs(self):
        gp = gp_from("{a} :- {b}. {b}. {c} :- {a}, {b}.")
        for interp in (frozenset(), frozenset([nd(gp, "{b}")]), frozenset(gp.base)):
            assert tprime_step(gp, interp) == tp_step(gp, interp)


class TestEnumerateStable:
    def test_teaching_two_models(self, teaching):
        result = enumerate_stable(teaching)
        assert model_strs(result.models) == [
            ["{math(101), math(102)}"],
            ["{stat(101), stat(102)}"],
        ]
        assert not result.truncated

    def test_no_stable_model_program(self):
        gp = gp_from(corpus_text("no_stable.ndlp"))
        assert enumerate_stable(gp).models == ()

    def test_dropping_the_odd_loop_restores_a_model(self):
        text = "{a1, a2}. {b1, b2} :- {a1, a2}."
        gp = gp_from(text)
        assert model_strs(enumerate_stable(gp).models) == [["{a1, a2}", "{b1, b2}"]]

    def test_positive_program_yields_least_model(self):
        gp = gp_from("{a} :- {b}. {b}. {c} :- {d}.")
        result = enumerate_stable(gp)
        assert list(result.models) == [least_model(gp)]

    def test_empty_program_has_the_empty_model(self):
        gp = gp_from("")
        assert list(enumerate_stable(gp).models) == [frozenset()]

    def test_second_teaching_program(self, teaching2):
        assert model_strs(enumerate_stable(teaching2).models) == [
            ["{math(101), math(102)}", "{math(102)}"],
            ["{stat(101)}", "{stat(101), stat(102)}"],
        ]

    def test_result_iterates_and_counts_its_models(self, teaching):
        result = enumerate_stable(teaching)
        assert len(result) == 2
        assert list(result) == list(result.models)

    def test_results_are_equal_when_their_models_and_flags_are(self, teaching):
        result = enumerate_stable(teaching)
        again = enumerate_stable(gp_from(corpus_text("teaching.ndlp")))
        assert result.program is not again.program
        assert result == again and hash(result) == hash(again)
        # the same two models, cut short by the cap
        capped = enumerate_stable(teaching, max_models=2)
        assert capped.models == result.models and capped.truncated
        assert capped != result
        assert enumerate_stable(teaching, max_models=1) != capped
        assert result != result.ids

    def test_max_models_truncation(self, teaching):
        result = enumerate_stable(teaching, max_models=1)
        assert len(result.models) == 1
        assert result.truncated

    def test_max_models_is_a_subset_not_a_prefix(self):
        gp = gp_from("{a} :- not {b}. {b} :- not {a}.")
        full = enumerate_stable(gp).models
        capped = enumerate_stable(gp, max_models=1).models
        assert model_strs(full) == [["{a}"], ["{b}"]]
        assert model_strs(capped) == [["{b}"]]
        assert set(capped) <= set(full)
        # robot at horizon 2, pinned: the last three of its 64 models
        gp = gp_from(corpus_text("robot.ndlp"), horizon=2)
        full = enumerate_stable(gp).models
        capped = enumerate_stable(gp, max_models=3).models
        assert len(full) == 64 and list(capped) == list(full[61:])
        assert [sorted(str(a) for a in m if str(a).startswith("{occ(")) for m in capped] == [
            ["{occ(check, 0)}", "{occ(check, 1)}", "{occ(flip_lock, 2)}"],
            ["{occ(check, 0)}", "{occ(check, 1)}", "{occ(close, 2)}"],
            ["{occ(check, 0)}", "{occ(check, 1)}", "{occ(check, 2)}"],
        ]

    def test_deep_search_needs_no_recursion(self):
        # one decision level per even loop; the search must not recurse
        loops = 300
        text = "".join(f"{{a{i}}} :- not {{b{i}}}. {{b{i}}} :- not {{a{i}}}.\n" for i in range(loops))
        gp = gp_from(text)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            result = enumerate_stable(gp, max_models=1)
        finally:
            sys.setrecursionlimit(limit)
        assert result.truncated
        (model,) = result.models
        assert len(model) == loops
        assert all(len({str(a) for a in model} & {f"{{a{i}}}", f"{{b{i}}}"}) == 1 for i in range(loops))
        # pinned: out before in on each first-open a_i leaves every b_i
        assert {str(a) for a in model} == {f"{{b{i}}}" for i in range(loops)}

    def test_matches_brute_force_on_deferral_heavy_program(self):
        # dead rules make their negated atoms branch-free; the result set
        # must still match plain subset filtering
        text = """
        {q}. {a} :- {missing}, not {x}. {x} :- not {y}. {y} :- not {x}.
        {z} :- {q}, not {y}.
        """
        gp = gp_from(text)
        assert list(enumerate_stable(gp).models) == brute_force_stable(gp)


class TestWorkBound:
    def test_whole_fixpoints_do_not_grow_with_the_loops(self, lfp_calls):
        # decisions propagate through the trail and each leaf is emitted as
        # its lower bound, so the search runs no whole fixpoint at all
        def loops(n):
            return gp_from("".join(f"{{a{i}}} :- not {{b{i}}}. {{b{i}}} :- not {{a{i}}}.\n"
                                   for i in range(n)))

        small, large = loops(150), loops(300)
        assert lfp_calls(lambda: enumerate_stable(small, max_models=1)) == 0
        assert lfp_calls(lambda: enumerate_stable(large, max_models=1)) == 0


class TestConflicts:
    def test_each_module_conflicts_once_with_each_value(self, monkeypatch):
        # with {g<i>m} out, {g<i>y} out derives both atoms and {g<i>y} in
        # leaves it unfounded: one conflict with each value, then {g<i>m} in
        # forces {g<i>y} out; a module's atoms sit together in key order, so
        # each module is settled before the search reaches the next
        n = 50
        gp = gp_from(conflict_modules(n))
        decide = Propagator.decide
        decisions = []

        def counted(self, atom, value):
            # a search that stops closing branches runs away: stop it here
            assert len(decisions) < 4 * n, "more than four decisions per module"
            consistent = decide(self, atom, value)
            decisions.append((value, consistent))
            return consistent

        monkeypatch.setattr(Propagator, "decide", counted)
        assert model_strs(enumerate_stable(gp).models) == [[f"{{g{i:02d}m}}" for i in range(n)]]
        assert len(decisions) == 4 * n
        assert decisions.count((OUT, False)) == decisions.count((IN, False)) == n
        true, false = gp.well_founded()
        assert gp.n == 2 * n and not any(true) and not any(false)


class TestStableInvariantsOnCorpus:
    def test_models_are_minimal_models(self, teaching2):
        models = enumerate_stable(teaching2).models
        for m in models:
            assert is_model(m, teaching2)
        for m in models:
            for other in models:
                assert not (other < m)

    def test_models_are_tprime_fixpoints(self, teaching2):
        for m in enumerate_stable(teaching2).models:
            assert tprime_step(teaching2, m) == m

    def test_head_support(self, teaching2):
        for m in enumerate_stable(teaching2).models:
            assert m <= frozenset(r.head for r in teaching2.rules)
