"""Partial interpretations, unfounded sets, and the W iteration."""

import pytest

from ndlp import (
    InconsistencyError,
    greatest_unfounded,
    least_model,
    well_founded_model,
    wf_tp_step,
    wf_truth,
    wp_step,
)
from ndlp.corpus import corpus_text
from ndlp.wf import EMPTY, PartialInterpretation, Truth

from conftest import gp_from


def nd(gp, text):
    for atom in gp.base:
        if str(atom) == text:
            return atom
    raise KeyError(text)


def strs(atoms):
    return sorted(str(a) for a in atoms)


class TestPartialInterpretation:
    def test_disjointness_enforced(self):
        gp = gp_from("{a}.")
        a = nd(gp, "{a}")
        with pytest.raises(InconsistencyError):
            PartialInterpretation(pos=frozenset([a]), neg=frozenset([a]))

    def test_truth_lookup(self, wf_chain):
        c = nd(wf_chain, "{c1, c2}")
        b = nd(wf_chain, "{b1, b2}")
        interp = PartialInterpretation(pos=frozenset([c]))
        assert wf_truth(interp, c) is Truth.TRUE
        assert wf_truth(interp, b) is Truth.UNDEFINED
        assert wf_truth(PartialInterpretation(neg=frozenset([b])), b) is Truth.FALSE

    def test_text_lists_positives_then_negatives(self, wf_chain):
        c = nd(wf_chain, "{c1, c2}")
        b = nd(wf_chain, "{b1, b2}")
        interp = PartialInterpretation(pos=frozenset([c]), neg=frozenset([b]))
        assert str(interp) == "{{c1, c2}, not {b1, b2}}"
        assert str(EMPTY) == "{}"

    def test_mutual_program_leaves_all_undefined(self):
        gp = gp_from(corpus_text("wf_mutual.ndlp"))
        model = well_founded_model(gp)
        a = nd(gp, "{a1, a2}")
        assert wf_truth(model, a) is Truth.UNDEFINED

    def test_totality(self, wf_chain):
        model = well_founded_model(wf_chain)
        assert model.is_total(wf_chain.base)
        assert not EMPTY.is_total(wf_chain.base)


class TestGreatestUnfounded:
    def test_chain_from_empty(self, wf_chain):
        assert greatest_unfounded(wf_chain, EMPTY) == frozenset()

    def test_chain_after_first_step(self, wf_chain):
        c = nd(wf_chain, "{c1, c2}")
        interp = PartialInterpretation(pos=frozenset([c]))
        assert strs(greatest_unfounded(wf_chain, interp)) == ["{b1, b2}"]

    def test_headless_atom_is_unfounded(self):
        gp = gp_from("{a1, a2} :- not {b1, b2}.")
        assert strs(greatest_unfounded(gp, EMPTY)) == ["{b1, b2}"]

    def test_circular_support_is_unfounded(self):
        gp = gp_from("{p} :- {q}. {q} :- {p}. {r}.")
        assert strs(greatest_unfounded(gp, EMPTY)) == ["{p}", "{q}"]


class TestWfSteps:
    def test_chain_tp_from_empty(self, wf_chain):
        assert strs(wf_tp_step(wf_chain, EMPTY)) == ["{c1, c2}"]

    def test_chain_tp_with_negative_knowledge(self, wf_chain):
        interp = PartialInterpretation(
            pos=frozenset([nd(wf_chain, "{c1, c2}")]),
            neg=frozenset([nd(wf_chain, "{b1, b2}")]),
        )
        assert strs(wf_tp_step(wf_chain, interp)) == ["{a1, a2}", "{c1, c2}"]

    def test_mutual_tp_empty(self):
        gp = gp_from(corpus_text("wf_mutual.ndlp"))
        assert wf_tp_step(gp, EMPTY) == frozenset()

    def test_absence_is_not_enough(self):
        # unlike the stable one-step operator, a negated NdAtom must be
        # asserted false, not merely missing
        gp = gp_from("{a1, a2} :- not {b1, b2}.")
        assert wf_tp_step(gp, EMPTY) == frozenset()

    def test_chain_w_steps(self, wf_chain):
        i1 = wp_step(wf_chain, EMPTY)
        assert (strs(i1.pos), strs(i1.neg)) == (["{c1, c2}"], [])
        i2 = wp_step(wf_chain, i1)
        assert (strs(i2.pos), strs(i2.neg)) == (["{c1, c2}"], ["{b1, b2}"])
        i3 = wp_step(wf_chain, i2)
        assert (strs(i3.pos), strs(i3.neg)) == (["{a1, a2}", "{c1, c2}"], ["{b1, b2}"])
        assert wp_step(wf_chain, i3) == i3


class TestWellFoundedModel:
    def test_chain_total_model(self, wf_chain):
        model = well_founded_model(wf_chain)
        assert (strs(model.pos), strs(model.neg)) == (
            ["{a1, a2}", "{c1, c2}"],
            ["{b1, b2}"],
        )
        assert model.is_total(wf_chain.base)

    def test_single_rule_total_model(self):
        gp = gp_from("{a1, a2} :- not {b1, b2}.")
        model = well_founded_model(gp)
        assert (strs(model.pos), strs(model.neg)) == (["{a1, a2}"], ["{b1, b2}"])
        assert model.is_total(gp.base)

    def test_mutual_is_empty_partial(self):
        gp = gp_from(corpus_text("wf_mutual.ndlp"))
        model = well_founded_model(gp)
        assert model == EMPTY
        assert not model.is_total(gp.base)

    def test_mutual_with_joined_consequence_is_empty_partial(self):
        gp = gp_from(
            "{a1, a2} :- not {b1, b2}. {b1, b2} :- not {a1, a2}."
            "{c1, c2} :- {a1, a2}. {c1, c2} :- {b1, b2}."
        )
        assert well_founded_model(gp) == EMPTY

    def test_partial_example(self):
        gp = gp_from(corpus_text("wf_partial.ndlp"))
        model = well_founded_model(gp)
        assert (strs(model.pos), strs(model.neg)) == (["{c1, c2}"], ["{d1, d2}"])
        assert not model.is_total(gp.base)

    def test_negation_free_program_is_total_least_model(self):
        gp = gp_from("{a} :- {b}. {b}. {c} :- {d}.")
        model = well_founded_model(gp)
        assert model.pos == least_model(gp)
        assert model.neg == gp.base_set - model.pos
        assert model.is_total(gp.base)


class TestWorkBound:
    def test_whole_fixpoints_do_not_grow_with_the_chain(self, lfp_calls):
        # each forced atom propagates through the trail, not a whole fixpoint
        def chain(n):
            return gp_from("".join(f"{{x{i}}} :- not {{x{i - 1}}}.\n" for i in range(1, n)))

        small, large = chain(200), chain(400)
        assert (lfp_calls(lambda: well_founded_model(small))
                == lfp_calls(lambda: well_founded_model(large)))
