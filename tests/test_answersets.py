"""Choice-function expansion of models into answer sets."""

import random
from itertools import product

import pytest

from ndlp import count, expand, least_model, enumerate_stable
from ndlp.corpus import corpus_text
from ndlp.syntax import Atom, canonicalize
from ndlp.wf import PartialInterpretation
from ndlp import well_founded_model

from conftest import gp_from
from oracles import capped_images


def nd(gp, text):
    for atom in gp.base:
        if str(atom) == text:
            return atom
    raise KeyError(text)


def brute_force_images(model):
    """Independent choice enumeration: raw products and set collapse."""
    if isinstance(model, PartialInterpretation):
        pos = sorted(model.pos, key=lambda a: a.key)
        neg = sorted(model.neg, key=lambda a: a.key)
    else:
        pos, neg = sorted(model, key=lambda a: a.key), []
    images = set()
    for picks in product(*[a.atoms for a in pos], *[a.atoms for a in neg]):
        chosen_pos = frozenset(picks[: len(pos)])
        chosen_neg = frozenset(picks[len(pos):])
        if chosen_pos & chosen_neg:
            continue
        images.add((chosen_pos, chosen_neg))
    return images


class TestExpand:
    def test_teaching_model(self, teaching):
        math = frozenset([nd(teaching, "{math(101), math(102)}")])
        sets = [str(s) for s in expand(math)]
        assert sets == ["{math(101)}", "{math(102)}"]

    def test_second_teaching_superset_retained(self, teaching2):
        model = enumerate_stable(teaching2).models[0]
        sets = [str(s) for s in expand(model)]
        assert sets == ["{math(101), math(102)}", "{math(102)}"]

    def test_subset_minimal_flag_drops_the_superset(self, teaching2):
        model = enumerate_stable(teaching2).models[0]
        sets = [str(s) for s in expand(model, subset_minimal=True)]
        assert sets == ["{math(102)}"]

    def test_subset_minimal_filters_before_the_cap(self, teaching2):
        # the first distinct set met is the superset {math(101), math(102)}
        model = enumerate_stable(teaching2).models[0]
        result = expand(model, cap=1, subset_minimal=True)
        assert [str(s) for s in result] == ["{math(102)}"]
        assert not result.truncated

    def test_subset_minimal_cap_keeps_the_first_minimal_sets(self):
        gp = gp_from("{a1, a2}. {b1, b2}. {c} :- {a1, a2}. {a1} :- {b1, b2}.")
        model = least_model(gp)
        minimal = [str(s) for s in expand(model, subset_minimal=True)]
        assert len(minimal) == 2
        for cap in (1, 2, 3):
            result = expand(model, cap=cap, subset_minimal=True)
            assert [str(s) for s in result] == minimal[:cap]
            assert result.truncated == (cap < len(minimal))

    def test_wf_total_model_signed_sets(self):
        gp = gp_from("{a1, a2} :- not {b1, b2}.")
        sets = [str(s) for s in expand(well_founded_model(gp))]
        assert sets == [
            "{a1, not b1}",
            "{a1, not b2}",
            "{a2, not b1}",
            "{a2, not b2}",
        ]

    def test_empty_model_has_one_empty_branch(self):
        result = expand(frozenset())
        assert len(result) == 1 and str(result.answer_sets[0]) == "{}"

    def test_cap_truncates(self):
        gp = gp_from(corpus_text("fred.ndlp"))
        result = expand(least_model(gp), cap=5)
        assert len(result) == 5 and result.truncated

    def test_matches_brute_force_on_fred(self):
        gp = gp_from(corpus_text("fred.ndlp"))
        model = least_model(gp)
        expected = brute_force_images(model)
        got = {(s.atoms, s.negatives) for s in expand(model)}
        assert got == expected
        assert len(got) == 49

    def test_matches_brute_force_on_partial(self):
        gp = gp_from(corpus_text("wf_partial.ndlp"))
        model = well_founded_model(gp)
        got = {(s.atoms, s.negatives) for s in expand(model)}
        assert got == brute_force_images(model)


class TestInvariants:
    def test_size_bound_and_cover(self, teaching2):
        model = enumerate_stable(teaching2).models[0]
        expansion = expand(model)
        bound = 1
        for atom in model:
            bound *= len(atom)
        assert len(expansion) <= bound
        for answer_set in expansion:
            for atom in model:
                assert answer_set.atoms & frozenset(atom.atoms)
            for chosen in answer_set.atoms:
                assert any(chosen in atom.atoms for atom in model)

    def test_no_duplicates(self):
        gp = gp_from(corpus_text("fred.ndlp"))
        expansion = expand(least_model(gp))
        keys = [s.key for s in expansion]
        assert len(keys) == len(set(keys))

    def test_singleton_collapse(self):
        gp = gp_from("{a}. {b}. {c} :- {a}, {b}.")
        sets = expand(least_model(gp))
        assert len(sets) == 1
        assert sorted(str(a) for a in sets.answer_sets[0].atoms) == ["a", "b", "c"]


class TestCount:
    def test_singletons_count_one(self):
        gp = gp_from("{a}. {b}.")
        assert count(least_model(gp)) == (1, True)

    def test_fred_count_collapses_duplicates(self):
        gp = gp_from(corpus_text("fred.ndlp"))
        model = least_model(gp)
        assert count(model) == (len(brute_force_images(model)), True)

    def test_cap_reports_inexact(self):
        gp = gp_from(corpus_text("fred.ndlp"))
        assert count(least_model(gp), cap=10) == (10, False)


def random_model(seed):
    """A total or partial model over a five-atom pool. NdAtoms are drawn
    with repeated members and overlap one another; a partial model's
    negatives share atoms with its positives, so some of its choices
    contradict themselves."""
    rng = random.Random(seed)
    pool = [Atom(pred=f"a{i}") for i in range(5)]

    def nd_atoms(n):
        return {canonicalize(rng.choices(pool, k=rng.randint(1, 3))) for _ in range(n)}

    pos = frozenset(nd_atoms(rng.randint(0, 5)))
    if rng.random() < 0.5:
        return pos
    return PartialInterpretation(pos=pos, neg=frozenset(nd_atoms(rng.randint(1, 3)) - pos))


class TestCappedContract:
    """Under a cap, the first k distinct images in product order, sorted;
    with `subset_minimal`, the first k minimal images in sorted order."""

    @pytest.mark.parametrize("seed", range(300))
    def test_matches_the_product_oracle(self, seed):
        model = random_model(seed)
        total = len(capped_images(model)[0])
        for cap in (None, 1, 2, 3, 4, 5):
            for minimal in (False, True):
                result = expand(model, cap=cap, subset_minimal=minimal)
                expected, truncated = capped_images(model, cap, minimal)
                got = [(s.atoms, s.negatives) for s in result]
                assert got == expected, f"seed={seed} cap={cap} minimal={minimal}"
                assert result.truncated == truncated, f"seed={seed} cap={cap}"
            exact = cap is None or total <= cap
            assert count(model, cap=cap) == ((total, True) if exact else (cap, False)), (
                f"seed={seed} cap={cap}"
            )
