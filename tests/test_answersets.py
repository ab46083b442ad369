"""Choice-function expansion of models into answer sets."""

import json
import random
import time
from collections import Counter
from itertools import islice, product

import pytest

from ndlp import answersets, cli, count, expand, least_model, enumerate_stable
from ndlp.answersets import AnswerSet, Expansion, _model_table, _parts, expand_ids
from ndlp.cli import SolveReport, main
from ndlp.corpus import corpus_text
from ndlp.syntax import Atom, canonicalize, sort_nd_atoms
from ndlp.wf import PartialInterpretation
from ndlp import well_founded_model

from conftest import gp_from
from oracles import (capped_images, grown_images, json_rows, part_images, report_json,
                     sorted_rows, text_rows)


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


def random_disjoint_model(seed):
    """A total or partial model whose NdAtoms share no atom: a shuffled
    eight-atom pool cut into NdAtoms of one to three members, some dropped,
    and in a partial model some of the rest made negative."""
    rng = random.Random(seed)
    pool = [Atom(pred=f"a{i}") for i in range(8)]
    rng.shuffle(pool)
    cuts = [0, *sorted(rng.sample(range(1, 8), rng.randint(2, 6))), 8]
    groups = [canonicalize(pool[i:j]) for i, j in zip(cuts, cuts[1:]) if j - i <= 3]
    kept = [nd for nd in groups if rng.random() < 0.8]
    if rng.random() < 0.5:
        return frozenset(kept)
    neg = {nd for nd in kept if rng.random() < 0.4}
    return PartialInterpretation(pos=frozenset(kept) - neg, neg=frozenset(neg))


def images_of(expansion):
    return [(s.atoms, s.negatives) for s in expansion]


class TestCappedContract:
    """Uncapped, every distinct image of the choice product, sorted. Under a
    cap, with or without `subset_minimal`, the first k combinations of the
    atom-disjoint parts in product order, sorted."""

    @pytest.mark.parametrize("seed", range(300))
    def test_matches_the_product_oracle(self, seed):
        model = random_model(seed)
        total = len(capped_images(model)[0])
        for cap in (None, 1, 2, 3, 4, 5):
            for minimal in (False, True):
                result = expand(model, cap=cap, subset_minimal=minimal)
                oracle = capped_images if cap is None else part_images
                expected, truncated = oracle(model, cap, minimal)
                got = images_of(result)
                assert got == expected, f"seed={seed} cap={cap} minimal={minimal}"
                assert result.truncated == truncated, f"seed={seed} cap={cap}"
            exact = cap is None or total <= cap
            assert count(model, cap=cap) == ((total, True) if exact else (cap, False)), (
                f"seed={seed} cap={cap}"
            )

    @pytest.mark.parametrize("seed", range(100))
    def test_disjoint_models_keep_the_product_order_cap(self, seed):
        # with no atom shared every NdAtom is a part of its own, so the plain
        # cap keeps the first k distinct images of the raw choice product
        model = random_disjoint_model(seed)
        for cap in (None, 1, 2, 3, 4, 5):
            result = expand(model, cap=cap)
            assert (images_of(result), result.truncated) == capped_images(model, cap), (
                f"seed={seed} cap={cap}"
            )
            minimal = expand(model, cap=cap, subset_minimal=True)
            assert (images_of(minimal), minimal.truncated) == part_images(model, cap, True), (
                f"seed={seed} cap={cap}"
            )

    def test_subset_minimal_cap_is_a_product_prefix(self):
        # every image of disjoint NdAtoms is minimal; product order meets
        # {a5, a6} before {a3, a7}, which sorts earlier
        a = [Atom(pred=f"a{i}") for i in range(8)]
        model = frozenset([canonicalize([a[2], a[5], a[7]]), canonicalize([a[3], a[6]])])
        result = expand(model, cap=4, subset_minimal=True)
        assert [str(s) for s in result] == ["{a2, a3}", "{a2, a6}", "{a3, a5}", "{a5, a6}"]
        assert result.truncated


def disjoint_pairs(n):
    return frozenset(
        canonicalize([Atom(pred=f"p{i:02d}a"), Atom(pred=f"p{i:02d}b")]) for i in range(n)
    )


class TestWorkBound:
    """Models whose choice product is too large to walk."""

    @pytest.fixture(scope="class")
    def connection(self):
        return gp_from(corpus_text("connection.ndlp"))

    @pytest.mark.parametrize("semantics", ["least", "stable", "wf"])
    def test_connection_expands_to_its_grown_images(self, connection, semantics):
        if semantics == "least":
            model = least_model(connection)
        elif semantics == "stable":
            [model] = enumerate_stable(connection).models
        else:
            model = well_founded_model(connection)
        images = grown_images(model)
        result = expand(model)
        assert len(result) == len(images) == 63
        assert set(images_of(result)) == images and not result.truncated
        capped = expand(model, cap=40)
        keys = [s.key for s in capped]
        assert len(capped) == 40 and capped.truncated
        assert keys == sorted(set(keys))
        assert set(images_of(capped)) <= images

    def test_sixty_disjoint_pairs_count_exactly(self):
        assert count(disjoint_pairs(60)) == (2 ** 60, True)
        assert count(disjoint_pairs(60), cap=10) == (10, False)

    def test_sixty_disjoint_pairs_cap_to_the_first_choices(self):
        model = disjoint_pairs(60)
        first = [frozenset(picks) for picks in islice(product(*sort_nd_atoms(model)), 5)]
        result = expand(model, cap=5)
        assert [s.atoms for s in result] == sorted(first, key=lambda s: sorted(a.key for a in s))
        assert result.truncated


def cycle_of_pairs(k):
    """{c_i, c_(i+1 mod k)} for each i < k: every atom is in two NdAtoms, so
    the model is one shared part, with many images and few minimal ones."""
    c = [Atom(pred=f"c{i:02d}") for i in range(k)]
    return frozenset(canonicalize([c[i], c[(i + 1) % k]]) for i in range(k))


class TestSubsetMinimal:
    """`--subset-minimal` visits the shared part's images by bit count and
    keeps each one no kept image is a subset of."""

    @pytest.fixture(scope="class")
    def models(self):
        cycle = cycle_of_pairs(12)
        # a negative NdAtom joins the shared part through c03 and c07
        negative = canonicalize([Atom(pred="c03"), Atom(pred="c07")])
        return cycle, PartialInterpretation(pos=cycle, neg=frozenset([negative]))

    @pytest.mark.parametrize("cap", [None, 10])
    @pytest.mark.parametrize("partial", [False, True])
    def test_cycle_matches_the_oracles(self, models, cap, partial):
        model = models[partial]
        result = expand(model, cap=cap, subset_minimal=True)
        got = (images_of(result), result.truncated)
        assert got == part_images(model, cap, True)
        assert got == capped_images(model, cap, True)
        assert len(result) == (10 if cap else len(capped_images(model, None, True)[0]))

    def test_cycle_keeps_few_of_many_images(self, models):
        assert len(expand(models[0])) == 322
        assert len(expand(models[0], subset_minimal=True)) == 29


class TestBuildsNoAnswerSet:
    """The command line renders answer sets from an expansion's masks and
    builds no `AnswerSet`; the library builds them only when it reads them."""

    @pytest.fixture
    def built(self, monkeypatch):
        made = []
        init = AnswerSet.__init__

        def counted(self, *args, **kwargs):
            made.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(AnswerSet, "__init__", counted)
        return made

    # 10 disjoint pairs; a wf model whose shared part holds negatives
    PROGRAMS = {
        "pairs": ("least", "".join(f"{{p{i:02d}a, p{i:02d}b}}.\n" for i in range(10)), 1024),
        "wf_shared": ("wf", "{a, b}. {b, c}. {c, d}. {x} :- not {c, e}. {y} :- not {a, f}.\n"
                            "{z, w} :- not {g}.\n", 26),
    }

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("name", PROGRAMS)
    def test_command_line_builds_none(self, built, capsys, tmp_path, name, fmt):
        semantics, text, sets = self.PROGRAMS[name]
        path = tmp_path / f"{name}.ndlp"
        path.write_text(text, encoding="utf-8")
        assert main(["expand", "--semantics", semantics, "--format", fmt, str(path)]) == 0
        out = capsys.readouterr().out
        if fmt == "json":
            assert len(json.loads(out)["answer_sets"][0]) == sets
        else:
            assert f"  answer set 1.{sets}: " in out and f"1.{sets + 1}:" not in out
        assert built == []

    @pytest.mark.parametrize("name", PROGRAMS)
    def test_library_builds_them_when_read(self, built, name):
        semantics, text, sets = self.PROGRAMS[name]
        gp = gp_from(text)
        model = least_model(gp) if semantics == "least" else well_founded_model(gp)
        expansion = expand(model)
        assert len(expansion) == sets and built == []
        assert images_of(expansion) == capped_images(model)[0]
        assert len(built) == sets
        assert list(expansion) == list(expansion.answer_sets) and len(built) == sets


class TestAnswerSetValues:
    """Answer sets are values: equal when their atoms are, whichever
    expansion built them."""

    @pytest.mark.parametrize("name, semantics", [
        ("fred.ndlp", "least"), ("teaching2.ndlp", "stable"), ("wf_partial.ndlp", "wf"),
    ])
    def test_two_expansions_give_equal_sets(self, name, semantics):
        gp = gp_from(corpus_text(name))
        if semantics == "least":
            model = least_model(gp)
        elif semantics == "stable":
            model = enumerate_stable(gp).models[0]
        else:
            model = well_founded_model(gp)
        first, second = expand(model), expand(model)
        assert len(first) > 1
        for a, b in zip(first, second, strict=True):
            assert a == b and hash(a) == hash(b) and a.key == b.key
            assert type(a.atoms) is frozenset and type(a.negatives) is frozenset
            assert (a.atoms, a.negatives) == (b.atoms, b.negatives)
        assert len(set(first) | set(second)) == len(first)
        assert first.answer_sets[0] != second.answer_sets[1]
        if semantics == "wf":
            assert any(s.negatives for s in first)

    def test_repr_shows_the_set(self):
        (answer_set,) = expand(well_founded_model(gp_from("{a, b}. {c} :- not {a}.")))
        assert repr(answer_set) == "AnswerSet({b, c, not a})"

    def test_expansions_are_equal_when_their_sets_and_flags_are(self):
        text = "{a, b}. {c, d}."
        first = expand(least_model(gp_from(text)))
        second = expand(least_model(gp_from(text)))
        assert first.table is not second.table
        assert first == second and hash(first) == hash(second)
        capped = expand(least_model(gp_from(text)), cap=1)
        assert capped.truncated and capped != first
        flagged = Expansion(first.layout, first.masks, True)
        assert flagged.answer_sets == first.answer_sets and flagged != first
        assert first != first.rows


class TestRenderedOnce:
    def test_each_atom_is_rendered_at_most_once(self, monkeypatch):
        # 10 disjoint pairs: 1 024 answer sets of 10 entries each, over 20 atoms
        model = disjoint_pairs(10)
        calls = Counter()
        original = Atom.__str__

        def counted(self):
            calls[self] += 1
            return original(self)

        monkeypatch.setattr(Atom, "__str__", counted)
        expansion = expand(model)
        report = SolveReport(semantics="least", models=[list(sort_nd_atoms(model))],
                             answer_sets=[list(expansion)])
        text, data = report.to_text(), report.to_json()
        assert sum(calls.values()) <= 20
        assert len(expansion) == 1024
        last = ", ".join(f"p{i:02d}b" for i in range(10))
        assert f"  answer set 1.1024: {{{last}}}\n" in text
        assert json.loads(data)["answer_sets"][0][0] == [f"p{i:02d}a" for i in range(10)]


def mask_model(seed):
    """A total or partial model over a nine-atom pool mixing one-member
    NdAtoms, whose entries every answer set holds and which land before,
    between and after the entries that vary, with parts of their own and
    overlapping NdAtoms; a partial model's negatives share atoms with its
    positives, so the shared part holds signed entries and some choices
    contradict themselves. Some seeds give a model of no NdAtom."""
    rng = random.Random(seed)
    pool = [Atom(pred=f"a{i}") for i in range(9)]

    def nd_atoms(sizes, n):
        return {canonicalize(rng.sample(pool, rng.choice(sizes))) for _ in range(n)}

    pos = frozenset(nd_atoms((1, 1, 1, 2, 2, 3), rng.randint(0, 7)))
    if rng.random() < 0.5:
        return pos
    return PartialInterpretation(pos=pos, neg=frozenset(nd_atoms((1, 1, 2, 3), rng.randint(1, 4)) - pos))


class TestMasksAgainstSortedRows:
    """The int-mask expansion and the writer's sub-mask tables against the
    answer sets as sorted tuples of entry ids, sorted by a key function
    (`oracles.sorted_rows`), and rendered one join per row."""

    @staticmethod
    def check(model, cap, minimal, seed):
        table, pos, neg = _model_table(model)
        expansion = expand_ids(table, pos, neg, cap=cap, subset_minimal=minimal)
        rows, truncated = sorted_rows(table, pos, neg, cap, minimal)
        where = f"seed={seed} cap={cap} minimal={minimal}"
        assert (expansion.rows, expansion.truncated) == (rows, truncated), where
        assert [s.row for s in expansion] == rows, where
        report = SolveReport(semantics="least", models=[[]], answer_sets=[expansion])
        text = report.to_text()
        assert text.split("model 1:\n")[1].replace("truncated: yes\n", "") == text_rows(
            table.entries, rows, "  answer set 1."), where
        data = report.to_json()
        assert json.loads(data)["answer_sets"] == [json_rows(table.entries, rows)], where
        assert data == report_json(report), where
        # the library's lists of answer sets write the same bytes
        listed = SolveReport(semantics="least", models=[[]], answer_sets=[list(expansion)],
                             truncated=expansion.truncated)
        assert (listed.to_text(), listed.to_json()) == (text, data), where

    @pytest.mark.parametrize("seed", range(300))
    def test_random_models(self, monkeypatch, seed):
        # a third of the seeds write in chunks of 3 rows
        if seed % 3 == 0:
            monkeypatch.setattr(cli, "CHUNK_ROWS", 3)
        model = mask_model(seed)
        for cap in (None, 1, 2, 3, 5):
            for minimal in (False, True):
                self.check(model, cap, minimal, seed)

    @pytest.mark.parametrize("seed", range(40))
    def test_narrow_tables(self, monkeypatch, seed):
        # tables of at most two slots split most layouts into three ranges
        # and spell wider top ranges from further tables
        monkeypatch.setattr(cli, "TABLE_SLOTS", 2)
        monkeypatch.setattr(cli, "CHUNK_ROWS", 3)
        model = mask_model(seed)
        for cap in (None, 2):
            self.check(model, cap, False, seed)
        self.check(disjoint_pairs(7), None, False, seed)

    def test_a_model_of_no_set_atom_is_one_empty_row(self):
        report = SolveReport(semantics="least", models=[[]], answer_sets=[expand(frozenset())])
        assert report.to_text().endswith("model 1:\n  answer set 1.1: {}\n")
        assert '"answer_sets": [\n    [\n      []\n    ]\n  ],' in report.to_json()

    def test_a_row_comes_before_its_extensions(self):
        # {a, b} and {b, c} share b: the image {b} sorts before {b, c}, and
        # a fixed entry after them orders {a, c} after {a, b}
        a, b, c, d = (Atom(pred=p) for p in "abcd")
        shared = [canonicalize([a, b]), canonicalize([b, c])]
        assert [str(s) for s in expand(frozenset(shared))] == [
            "{a, b}", "{a, c}", "{b}", "{b, c}"]
        assert [str(s) for s in expand(frozenset([*shared, canonicalize([d])]))] == [
            "{a, b, d}", "{a, c, d}", "{b, c, d}", "{b, d}"]


def interleaved_chains(chains: int, pairs: int):
    """`chains` chains of `pairs` overlapping pairs, {q00a, q01a}, {q01a,
    q02a}, ..., one per letter, whose names interleave in key order: each
    chain is a component of its own."""
    return frozenset(canonicalize([Atom(pred=f"q{i:02d}{t}"), Atom(pred=f"q{i + 1:02d}{t}")])
                     for i in range(pairs) for t in "abc"[:chains])


def component_model(seed):
    """A total or partial model whose shared NdAtoms fall into two or three
    components over atom pools whose names interleave in key order (q00a,
    q00b, q01a, ...): each a chain of two or three overlapping pairs,
    sometimes closed into a cycle, beside a one-member fact and a pair of
    their own.
    A partial model adds a negative whose atom sits in a positive of one
    pool and whose other atom no positive holds, sometimes one across two
    pools, which joins them, and one whose atoms no positive holds."""
    rng = random.Random(seed)
    tags = "abc"[:rng.randint(2, 3)]

    def q(i, t):
        return Atom(pred=f"q{i:02d}{t}")

    pos = {canonicalize([Atom(pred="q03x")]), canonicalize([Atom(pred="q02y"), Atom(pred="q02z")])}
    for t in tags:
        k = rng.randint(2, 3)
        pos |= {canonicalize([q(i, t), q(i + 1, t)]) for i in range(k)}
        if rng.random() < 0.5:
            pos.add(canonicalize([q(0, t), q(k, t)]))
    if rng.random() < 0.5:
        return frozenset(pos)
    t = rng.choice(tags)
    neg = {canonicalize([q(rng.randint(0, 1), t), q(4, t)]),
           canonicalize([Atom(pred="q01v"), Atom(pred="q01w")])}
    if rng.random() < 0.5:
        t, u = rng.sample(tags, 2)
        neg.add(canonicalize([q(1, t), q(0, u)]))
    return PartialInterpretation(pos=frozenset(pos), neg=frozenset(neg))


class TestComponents:
    """Answer sets as the product of the connected components of a model's
    NdAtoms: a component of one NdAtom is a part of its own, a wider one's
    distinct images are grown NdAtom by NdAtom, and a signed negative joins
    the component of the positives that hold its atom."""

    @pytest.mark.parametrize("seed", range(60))
    def test_random_models_match_the_oracles(self, seed):
        model = component_model(seed)
        table, pos, neg = _model_table(model)
        for minimal in (False, True):
            for cap in (None, 1, 2, 3, 7):
                expansion = expand_ids(table, pos, neg, cap=cap, subset_minimal=minimal)
                where = f"seed={seed} cap={cap} minimal={minimal}"
                assert (expansion.rows, expansion.truncated) == sorted_rows(
                    table, pos, neg, cap, minimal), where
            if len(table.members) < 12:  # the choice product walked by the oracle
                whole = expand(model, subset_minimal=minimal)
                assert (images_of(whole), whole.truncated) == capped_images(model, None, minimal)
        assert count(model) == (len(expand(model)), True)

    @pytest.mark.parametrize("seed", range(60))
    def test_each_pool_is_a_component(self, seed):
        model = component_model(seed)
        table, pos, neg = _model_table(model)
        pools = [{table.texts[r][-1] for r in table.members[i]} for i in (*pos, *neg)]
        bridged = any(len(pool) > 1 and pool <= set("abc") for pool in pools)
        pools = set().union(*pools) & set("abc")
        layout, own, grown = _parts(table, pos, neg)
        assert len(grown) == len(pools) - bridged
        assert [len(part) for part in own] == [2] * (1 + isinstance(model, PartialInterpretation))

    def test_a_negative_joins_two_components(self):
        # not {q00b, q01a} holds an atom of each chain, so the chains are
        # one component; apart, a choice of q01a and q00b beside "not q01a"
        # or "not q00b" would be an answer set
        chains = interleaved_chains(2, 2)
        bridge = canonicalize([Atom(pred="q01a"), Atom(pred="q00b")])
        model = PartialInterpretation(pos=chains, neg=frozenset([bridge]))
        table, pos, neg = _model_table(model)
        assert len(_parts(table, pos, neg)[2]) == 1
        expansion = expand(model)
        assert (images_of(expansion), expansion.truncated) == capped_images(model)
        assert count(model) == (len(expansion), True) == (12, True)

    def test_a_negative_joins_the_component_of_its_atom(self):
        # not q01a or not q05a, beside the chain that holds q01a
        chain = interleaved_chains(1, 2)
        negative = canonicalize([Atom(pred="q01a"), Atom(pred="q05a")])
        model = PartialInterpretation(pos=chain, neg=frozenset([negative]))
        table, pos, neg = _model_table(model)
        assert len(_parts(table, pos, neg)[2]) == 1
        assert [str(s) for s in expand(model)] == [
            "{q00a, q01a, not q05a}", "{q00a, q02a, not q01a}", "{q00a, q02a, not q05a}",
            "{q01a, not q05a}", "{q01a, q02a, not q05a}"]

    @pytest.mark.parametrize("seed", range(30))
    def test_growth_order_leaves_the_rows_unchanged(self, monkeypatch, seed):
        model = component_model(seed)
        table, pos, neg = _model_table(model)
        expected = {(cap, minimal): expand_ids(table, pos, neg, cap=cap, subset_minimal=minimal)
                    for cap in (None, 2) for minimal in (False, True)}
        rng, components = random.Random(seed), answersets._components

        def shuffled(joined):
            # every component holds two positives or more; each is handed
            # over with its positives in another order
            found = components(joined)
            for component in found:
                positives = [nd for nd in component if not nd[1]]
                while [nd for nd in component if not nd[1]] == positives:
                    rng.shuffle(component)
            return found

        monkeypatch.setattr(answersets, "_components", shuffled)
        for (cap, minimal), expansion in expected.items():
            got = expand_ids(table, pos, neg, cap=cap, subset_minimal=minimal)
            assert (got.rows, got.truncated) == (expansion.rows, expansion.truncated)
        assert count(model) == (len(expected[None, False]), True)

    def test_three_interleaved_chains_count_without_building_the_product(self):
        model = interleaved_chains(3, 10)
        start = time.perf_counter()
        assert count(model) == (232 ** 3, True) == (12487168, True)
        assert count(model, cap=1000) == (1000, False)
        assert time.perf_counter() - start < 1
        assert count(interleaved_chains(1, 10)) == (232, True)
