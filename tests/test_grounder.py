"""Instantiation, comparison filtering, horizons, and the restricted base."""

import gc
import random

import pytest

from ndlp import GroundingError, cli, ground, grounder, least_model, parse_program
from ndlp.corpus import CORPUS_NAMES, corpus_text
from ndlp.compiled import make_ground_program, restricted_base
from ndlp.grounder import _Instantiator, _Source
from ndlp.syntax import (BUILTIN_PREDICATES, Atom, Constant, Literal, Program, Rule, Variable,
                         canonicalize)

from conftest import closure_chain, gp_from, random_nonground_program
from programs import closure_text, graph_edges


def heads_str(gp):
    return sorted(str(a) for a in {r.head for r in gp.rules})


class TestInstantiation:
    def test_substitution_over_constants(self):
        gp = gp_from("{p(X)} :- {q(X)}. {q(c1)}. {q(c2)}.")
        assert len(gp.rules) == 4
        assert "{p(c1)}" in heads_str(gp) and "{p(c2)}" in heads_str(gp)

    def test_action_rule_instance_count(self):
        # 4 action constants x 3 time points
        text = """
        {action(close)}. {action(flip_lock)}. {action(check)}. {action(inspect)}.
        {occ(C, T)} :- {action(C)}, not {abocc(C, T)}.
        """
        gp = ground(parse_program(text), horizon=2)
        occ_rules = [r for r in gp.rules if r.head.atoms[0].pred == "occ"]
        assert len(occ_rules) == 12

    def test_comparison_filtering(self):
        gp = gp_from("{q(a)}. {q(b)}. {p(C, C2)} :- {q(C)}, {q(C2)}, {C != C2}.")
        p_rules = [r for r in gp.rules if r.head.atoms[0].pred == "p"]
        # C = C2 instances are deleted, the survivors lose the comparison
        assert sorted(str(r.head) for r in p_rules) == ["{p(a, b)}", "{p(b, a)}"]
        assert all(len(r.body) == 2 for r in p_rules)

    def test_equality_comparison(self):
        gp = gp_from("{q(a)}. {q(b)}. {p(C)} :- {q(C)}, {C == a}.")
        p_rules = [r for r in gp.rules if r.head.atoms[0].pred == "p"]
        assert [str(r.head) for r in p_rules] == ["{p(a)}"]

    def test_head_time_points_past_horizon_kept(self):
        gp = ground(parse_program("{p(T+1)} :- {q(T)}. {q(0)}. {q(1)}."), horizon=1)
        assert "{p(2)}" in heads_str(gp)

    def test_time_point_past_horizon_binds_no_variable(self):
        # p(2) is derived, but T = 2 lies outside 0..1
        gp = ground(parse_program("{p(T+1)} :- {p(T)}. {p(0)}."), horizon=1)
        assert heads_str(gp) == ["{p(0)}", "{p(1)}", "{p(2)}"]
        assert len(gp.rules) == 3

    def test_underivable_instance_absent(self):
        gp = gp_from("{p(X)} :- {q(X)}, not {r(X)}. {q(c1)}. {r(c2)}.")
        assert [str(r) for r in gp.rules] == [
            "{p(c1)} :- {q(c1)}, not {r(c1)}.", "{q(c1)}.", "{r(c2)}.",
        ]
        assert "{q(c2)}" not in [str(a) for a in gp.base]

    def test_rule_without_variables_kept_verbatim(self):
        program = parse_program("{a} :- {missing}. {p(X)} :- {q(X)}. {q(c)}. {b} :- {c != d}.")
        gp = ground(program)
        assert [str(r) for r in gp.rules] == [
            "{a} :- {missing}.", "{p(c)} :- {q(c)}.", "{q(c)}.", "{b}.",
        ]
        # kept as written, with its origin, and spelled over the base like
        # every instance, only the comparison dropped from the last
        assert gp.rules[0] == program.rules[0] and gp.rules[2] == program.rules[2]
        assert [r.origin for r in gp.rules] == ["line 1", "line 1", "line 1", "line 1"]
        base = {id(nd) for nd in gp.base}
        assert all(id(rule.head) in base and {id(lit.atom) for lit in rule.body} <= base
                   for rule in gp.rules)

    def test_set_literal_matches_collapsed_members(self):
        # X = Y grounds {q(X), q(Y)} to the singleton {q(a)}
        gp = gp_from("{p(X, Y)} :- {q(X), q(Y)}. {q(a)}. {q(a), q(b)}.")
        assert [str(r) for r in gp.rules] == [
            "{p(a, a)} :- {q(a)}.",
            "{p(a, b)} :- {q(a), q(b)}.",
            "{p(b, a)} :- {q(a), q(b)}.",
            "{q(a)}.",
            "{q(a), q(b)}.",
        ]

    def test_large_horizon_with_bound_time_variables(self):
        gp = ground(parse_program("{p(T+1)} :- {q(T)}. {q(0)}."), horizon=10**9)
        assert [str(r) for r in gp.rules] == ["{p(1)} :- {q(0)}.", "{q(0)}."]

    def test_missing_horizon(self):
        with pytest.raises(GroundingError):
            ground(parse_program("{exec(close, T)}."))

    def test_unbound_variable_without_constants(self):
        with pytest.raises(GroundingError):
            ground(parse_program("{p(X)} :- {q(X)}."))

    def test_symbol_in_arithmetic_drops_instance(self):
        gp = gp_from("{q(a)}. {q(1)}. {p(X+1)} :- {q(X)}.")
        assert "{p(2)}" in heads_str(gp)
        assert not any("p(a" in h for h in heads_str(gp))

    def test_symbol_in_arithmetic_inside_a_compound_drops_instance(self):
        gp = gp_from("{q(a)}. {q(1)}. {p(f(X+1))} :- {q(X)}.")
        assert [str(r) for r in gp.rules if r.head.atoms[0].pred == "p"] == [
            "{p(f(2))} :- {q(1)}."
        ]

    def test_sum_pattern_skips_a_symbolic_argument(self):
        # T+1 fits {p(2)} with T = 1; {p(a)} has no value to take 1 from
        program = parse_program("#horizon 3. {p(a)}. {p(2)}. {q(T)} :- {p(T+1)}.")
        assert [str(r) for r in ground(program).rules] == [
            "{p(a)}.", "{p(2)}.", "{q(1)} :- {p(2)}.",
        ]
        # X+1 fits {p(2)} only with X = 1, which is no constant of the program
        program = parse_program("{p(a)}. {p(2)}. {q(X)} :- {p(X+1)}.")
        assert [str(r) for r in ground(program).rules] == ["{p(a)}.", "{p(2)}."]

    def test_symbol_in_arithmetic_of_a_bound_join_argument_finds_nothing(self):
        # once {q(a)} binds X, {p(X+1)} has no value to look up
        gp = gp_from("{h(X)} :- {q(X)}, {p(X+1)}. {q(a)}. {q(1)}. {p(2)}.")
        assert [str(r) for r in gp.rules if r.head.atoms[0].pred == "h"] == [
            "{h(1)} :- {q(1)}, {p(2)}."
        ]

    def test_horizon_argument_overrides_directive(self):
        program = parse_program("#horizon 1.\n{exec(close, T)}.")
        assert len(ground(program).rules) == 2
        assert len(ground(program, horizon=3).rules) == 4


class TestRestrictedBase:
    def test_base_and_heads(self):
        gp = gp_from("{a} :- {b}. {b}.")
        assert heads_str(gp) == ["{a}", "{b}"]
        assert sorted(str(a) for a in gp.base) == ["{a}", "{b}"]

    def test_negated_body_atoms_join_base(self):
        gp = gp_from("{a1, a2} :- not {b1, b2}.")
        assert sorted(str(a) for a in gp.base) == ["{a1, a2}", "{b1, b2}"]
        assert heads_str(gp) == ["{a1, a2}"]

    def test_fred_heads_include_pairs_and_lunches(self):
        from ndlp.corpus import corpus_text

        gp = gp_from(corpus_text("fred.ndlp"))
        heads = set(heads_str(gp))
        assert "{salad(salmon), soup(beef)}" in heads
        assert "{fish(seafood), meat(buffalo)}" in heads
        # of the 4x4 constant pairs, lunch keeps the 4 whose body is derivable
        lunches = [h for h in heads if h.startswith("{lunch")]
        assert sorted(lunches) == [
            "{lunch(beef, salmon)}", "{lunch(beef, seafood)}",
            "{lunch(buffalo, salmon)}", "{lunch(buffalo, seafood)}",
        ]

    def test_heads_subset_of_base(self):
        gp = gp_from("{a} :- {b}, not {c}. {b}.")
        heads = {r.head for r in gp.rules}
        assert heads <= set(gp.base)
        bodies = {lit.atom for r in gp.rules for lit in r.body}
        assert set(gp.base) == heads | bodies


class TestIdempotence:
    @pytest.mark.parametrize(
        "text,horizon",
        [
            ("{p(X)} :- {q(X)}, not {r(X)}. {q(c1)}. {q(c2)}. {r(c1)}.", None),
            ("{exec(close, T)}. {p(T+1)} :- {exec(close, T)}.", 2),
        ],
    )
    def test_ground_program_grounds_to_itself(self, text, horizon):
        gp = ground(parse_program(text), horizon=horizon)
        again = ground(Program(rules=gp.rules), horizon=horizon)
        # the same rules with the same origins, spelled over the new base
        assert again.rules == gp.rules
        assert [r.origin for r in again.rules] == [r.origin for r in gp.rules]
        base = {id(nd) for nd in again.base}
        assert all(id(rule.head) in base and {id(lit.atom) for lit in rule.body} <= base
                   for rule in again.rules)
        assert again.base == gp.base
        assert [r.head for r in again.rules] == [r.head for r in gp.rules]

    def test_instances_trace_to_source_rules(self):
        program = parse_program("{p(X)} :- {q(X)}.\n{q(c1)}. {q(c2)}.")
        gp = ground(program)
        origins = {r.origin for r in program.rules}
        assert all(r.origin in origins for r in gp.rules)
        p_origin = program.rules[0].origin
        assert sum(1 for r in gp.rules if r.origin == p_origin) == 2


PROGRAMS = [(closure_chain(30), None), (corpus_text("robot.ndlp"), 2)]
PROGRAM_IDS = ["closure chain of 30 edges", "robot h=2"]


class TestWorkBound:
    # Positive body set-atoms of rules with variables come from the join, so
    # only heads, negated literals and comparisons are grounded, each member
    # to its int key; a head or negated set-atom is then interned, which is
    # where its members are counted here. Grounding every body literal again
    # took 1 365 and 555 members on these programs, and matching by a trail
    # of names 465 and 333.
    @pytest.mark.parametrize("program,bound", zip(PROGRAMS, [465, 321]), ids=PROGRAM_IDS)
    def test_positive_body_comes_from_the_join(self, monkeypatch, program, bound):
        grounded = []
        ground_member, intern, run = (_Instantiator.ground_member, _Instantiator.intern,
                                      _Instantiator.run)

        def count_comparison(self, member, env):
            if member[0] in BUILTIN_PREDICATES:
                grounded.append(member)
            return ground_member(self, member, env)

        def count_interned(self):
            def counted(key):
                grounded.extend(key)
                return intern(self, key)

            self.intern = counted  # the set-atoms of the facts were interned before
            run(self)

        monkeypatch.setattr(_Instantiator, "ground_member", count_comparison)
        monkeypatch.setattr(_Instantiator, "run", count_interned)
        text, horizon = program
        ground(parse_program(text), horizon=horizon)
        assert len(grounded) <= bound

    # Heads and negated set-atoms stay their members' keys, and the atom
    # table is joined from term texts, so grounding builds no atom, nor does
    # rendering through the table; reading the base builds one per distinct
    # member. Building one per grounded member took 465 and 333, and one per
    # key not met before 465 and 90.
    @staticmethod
    def counted_atoms(monkeypatch) -> list:
        built = []
        init = Atom.__init__

        def count_atom(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(Atom, "__init__", count_atom)
        return built

    # A program without variables keeps the parser's NdAtoms as its base,
    # so grounding it builds no atom either.
    @pytest.mark.parametrize(
        "program",
        [*PROGRAMS, ("".join(f"{{a{i}}} :- not {{b{i}}}. {{b{i}}} :- not {{a{i}}}.\n"
                             for i in range(140)), None)],
        ids=[*PROGRAM_IDS, "140 braced even loops"],
    )
    def test_grounding_builds_no_atom_until_read(self, monkeypatch, program):
        text, horizon = program
        parsed = parse_program(text)
        built = self.counted_atoms(monkeypatch)
        gp = ground(parsed, horizon=horizon)
        assert gp.table.texts and gp.table.members and gp.table.entries
        assert not built

    @pytest.mark.parametrize("program", PROGRAMS, ids=PROGRAM_IDS)
    def test_atoms_are_built_once_per_key(self, monkeypatch, program):
        text, horizon = program
        parsed = parse_program(text)
        built = self.counted_atoms(monkeypatch)
        gp = ground(parsed, horizon=horizon)
        assert gp.base and gp.rules
        assert len(built) == len(gp.table.texts) == len(set(built))
        assert [str(atom) for atom in gp.table.atoms] == list(gp.table.texts)

    # Rules without variables are their own instances; only the others are
    # instantiated, so only they are compiled to a `_Source`.
    def test_only_rules_with_variables_become_sources(self, monkeypatch):
        compiled = []
        init = _Source.__init__

        def spy(self, rule, *args):
            compiled.append(rule[-1])  # the origin of (head, body, negated, origin)
            init(self, rule, *args)

        monkeypatch.setattr(_Source, "__init__", spy)
        gp = gp_from("{g}.\n{h} :- {g}.\n{k} :- {g}, {a == b}.\n"
                     "{q(X)} :- {r(X)}, {h}.\n{r(a)}.\n")
        assert compiled == ["line 4"]  # {q(X)} :- {r(X)}, {h}.
        assert {"{h}", "{q(a)}"} <= {str(nd) for nd in least_model(gp)}

    # Each distinct set-atom of the rules without variables is keyed once,
    # one `written_id` call per argument, however often the rules repeat it.
    # Keying every occurrence took 301 calls on this program.
    def test_each_fixed_set_atom_is_keyed_once(self, monkeypatch):
        written = []
        written_id = _Instantiator.written_id

        def count(self, term):
            written.append(term)
            return written_id(self, term)

        monkeypatch.setattr(_Instantiator, "written_id", count)
        n = 50
        facts = "".join(f"{{p({i}, c)}}.\n" for i in range(n))
        body = ", ".join(f"{{p({i}, c)}}" for i in range(n))
        gp = gp_from(f"{facts}{{h}} :- {body}.\n{{k}} :- {body}.\n{{q(X)}} :- {{r(X)}}. {{r(a)}}.\n")
        assert len(written) == 2 * n + 1
        assert {"{h}", "{k}", "{q(a)}"} <= {str(nd) for nd in least_model(gp)}


class TestGroundingBound:
    # {p(T)} for T = 0..h records one instance per time point
    RUNAWAY = "{p(T+1)} :- {p(T)}. {p(0)}."

    def test_runaway_closure_stops(self, monkeypatch):
        monkeypatch.setattr(grounder, "MAX_GROUND_INSTANCES", 1000)
        with pytest.raises(GroundingError, match="MAX_GROUND_INSTANCES = 1000 ground instances"):
            ground(parse_program(self.RUNAWAY), horizon=10**9)

    def test_bound_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(grounder, "MAX_GROUND_INSTANCES", 100)
        assert len(ground(parse_program(self.RUNAWAY), horizon=99).rules) == 101
        with pytest.raises(GroundingError):
            ground(parse_program(self.RUNAWAY), horizon=100)

    def test_dropped_instances_count(self, monkeypatch):
        monkeypatch.setattr(grounder, "MAX_GROUND_INSTANCES", 9)
        facts = "".join(f"{{r(c{i})}}.\n" for i in range(10))
        with pytest.raises(GroundingError):
            ground(parse_program(facts + "{p(X)} :- {r(X)}, {X == z}.\n{z}.\n"))
        monkeypatch.setattr(grounder, "MAX_GROUND_INSTANCES", 10)
        gp = ground(parse_program(facts + "{p(X)} :- {r(X)}, {X == z}.\n{z}.\n"))
        assert not [rule for rule in gp.rules if rule.head.atoms[0].pred == "p"]

    def test_rules_without_variables_are_not_counted(self, monkeypatch):
        monkeypatch.setattr(grounder, "MAX_GROUND_INSTANCES", 1)
        facts = "".join(f"{{g{i}}}.\n" for i in range(10))
        assert len(gp_from(facts + "{q(X)} :- {r(X)}. {r(a)}.\n").rules) == 12

    # a free time variable ranges over horizon + 1 points; a larger domain
    # is refused before it is built
    def test_time_domain_past_the_bound_is_not_built(self, monkeypatch):
        monkeypatch.setattr(grounder, "MAX_GROUND_INSTANCES", 50)
        assert len(ground(parse_program("{p(T)}."), horizon=49).rules) == 50
        built = []
        term_id = _Instantiator.term_id

        def spy(self, key):
            built.append(key)
            return term_id(self, key)

        monkeypatch.setattr(_Instantiator, "term_id", spy)
        with pytest.raises(GroundingError, match="horizon 50 gives more than"):
            ground(parse_program("{p(T)}."), horizon=50)
        assert not built

    # All p atoms arrive in the first round, so one round of the join finds
    # every instance of s.
    PAIRS = "".join(f"{{p(c{i})}}.\n" for i in range(10)) + "{s(X, Y)} :- {p(X)}, {p(Y)}.\n"

    def test_round_past_the_room_left_raises(self, monkeypatch):
        monkeypatch.setattr(grounder, "MAX_GROUND_INSTANCES", 99)
        with pytest.raises(GroundingError, match=r"^more than MAX_GROUND_INSTANCES = 99 ground "
                                                 r"instances \(line 11\)$"):
            gp_from(self.PAIRS)

    def test_round_that_fills_the_room_does_not_raise(self, monkeypatch):
        monkeypatch.setattr(grounder, "MAX_GROUND_INSTANCES", 100)
        gp = gp_from(self.PAIRS)
        assert len([rule for rule in gp.rules if rule.head.atoms[0].pred == "s"]) == 100

    # A round finds each instance once, by the plan of its first literal
    # whose NdAtom is new, so nothing is found twice to be counted twice:
    # not when all of s's body arrives in one round, nor when one NdAtom
    # fills both literals, nor along a chain, nor when a set-literal looked
    # up by key arrives with its trigger or is interned, as a head, in the
    # round it is looked up.
    @pytest.mark.parametrize("text", [PAIRS, "{p(c)}. {s(X, Y)} :- {p(X)}, {p(Y)}.",
                                      closure_chain(12),
                                      "{h(X)} :- {p(X), r(X)}, {q(X)}.\n"
                                      "{p(a), r(a)} :- {g}.\n{q(a)} :- {g}.\n{g}.\n",
                                      "{p(X), r(X)} :- {q(X)}.\n{h(X)} :- {q(X)}, {p(X), r(X)}.\n"
                                      "{q(a)}.\n"],
                             ids=["pairs in one round", "one set-atom for both", "closure chain",
                                  "bound set-literal with its trigger",
                                  "bound set-literal interned in its round"])
    def test_each_instance_is_found_once(self, monkeypatch, text):
        found = []
        record = _Instantiator.record

        def count(self, source, rows):
            rows = list(rows)
            found.extend(rows)
            return record(self, source, rows)

        monkeypatch.setattr(_Instantiator, "record", count)
        program = parse_program(text)
        gp = ground(program)
        assert len(found) == len(gp.rules) - sum(not r.variables() for r in program.rules)

    def test_default_bound_clears_the_largest_programs(self):
        assert grounder.MAX_GROUND_INSTANCES >= 10 * 7260
        assert len(gp_from(closure_chain(120)).rules) == 7380


class TestSameRoundPartners:
    # A round joins each NdAtom of its delta with every NdAtom indexed so
    # far, the rest of the delta included, so partners that arrive together
    # are joined.
    def test_two_literals_over_facts(self):
        gp = gp_from("{p(a)}. {p(b)}. {s(X, Y)} :- {p(X)}, {p(Y)}.")
        assert [str(r) for r in gp.rules if r.head.atoms[0].pred == "s"] == [
            "{s(a, a)} :- {p(a)}, {p(a)}.",
            "{s(a, b)} :- {p(a)}, {p(b)}.",
            "{s(b, a)} :- {p(b)}, {p(a)}.",
            "{s(b, b)} :- {p(b)}, {p(b)}.",
        ]

    def test_two_literals_over_atoms_derived_in_one_round(self):
        # q(a) and q(b) are both derived in the second round
        gp = gp_from("{p(a)}. {p(b)}. {q(X)} :- {p(X)}.\n"
                     "{r(X, Y)} :- {q(X)}, {q(Y)}, {X != Y}.\n{t(X)} :- {q(X)}, {r(X, b)}.")
        assert [str(r) for r in gp.rules if r.head.atoms[0].pred in ("r", "t")] == [
            "{r(a, b)} :- {q(a)}, {q(b)}.",
            "{r(b, a)} :- {q(b)}, {q(a)}.",
            "{t(a)} :- {q(a)}, {r(a, b)}.",
        ]


@pytest.mark.parametrize("seed", range(4))
def test_shuffled_facts_move_only_fact_lines(tmp_path, capsys, seed):
    # The join order follows the facts' order, but each rule's instances are
    # sorted by slot key, so only the facts' own lines move.
    rng = random.Random(seed)
    facts = sorted({f"{{edge(n{rng.randrange(12)}, n{rng.randrange(12)})}}.\n" for _ in range(24)})
    rules = "{path(X, Y)} :- {edge(X, Y)}.\n{path(X, Z)} :- {edge(X, Y)}, {path(Y, Z)}.\n"
    shuffled = rng.sample(facts, len(facts))
    outputs = []
    for name, order in (("sorted.ndlp", facts), ("shuffled.ndlp", shuffled)):
        (tmp_path / name).write_text("".join(order) + rules)
        assert cli.main(["ground", str(tmp_path / name)]) == 0
        outputs.append(capsys.readouterr().out.splitlines(keepends=True))
    assert outputs[0][:len(facts)] == facts and outputs[1][:len(facts)] == shuffled
    assert outputs[0][len(facts):] == outputs[1][len(facts):]
    first, second = (gp_from("".join(order) + rules) for order in (facts, shuffled))
    assert first.base == second.base
    assert least_model(first) == least_model(second)


def test_make_ground_program_matches_restricted_base():
    gp = gp_from("{a} :- {b}, not {c}. {b}.")
    rebuilt = make_ground_program(gp.rules)
    assert rebuilt.base == restricted_base(gp.rules)


# restricted_base sorts on its own, apart from the interning and table sort
# that both ground() and make_ground_program share, so a base-order fault
# in those shows here.
@pytest.mark.parametrize("source", [*CORPUS_NAMES, *range(9000, 9012)], ids=str)
def test_ground_bases_match_restricted_base(source):
    text, horizon = ((corpus_text(source), None) if isinstance(source, str)
                     else random_nonground_program(source))
    gp = gp_from(text, horizon)
    reference = restricted_base(gp.rules)
    assert gp.base == reference
    assert make_ground_program(gp.rules).base == reference


# Where grounding creates no term, the members of the base sort on their
# own keys, and where every set-atom is one atom, its atom's rank is its
# place in the base; a sum or a compound term creates terms, and a
# set-atom of two members takes the sort of the set-atoms.
KEY_ORDER_SHAPES = [
    *[(closure_chain(n), None) for n in (1, 13, 30)],
    *[(closure_text(graph_edges(random.Random(n), n, n // 3)), None) for n in (5, 12, 18)],
    (corpus_text("robot.ndlp"), 1),
    (corpus_text("robot.ndlp"), 3),
    ("{p(X), q(X)} :- {e(X)}. {r(X)} :- {p(X), q(X)}, not {q(X), p(X)}.\n"
     "{e(b)}. {e(a)}. {q(c), p(c)}. {s(X, Y)} :- {e(X)}, {e(Y)}.\n", None),
    # as many atoms as set-atoms, one of them of two members
    ("{p(X)} :- {e(X)}. {q(X), p(X)} :- {p(X)}. {e(a)}.\n", None),
    ("{q(f(X))} :- {p(X)}. {r(X)} :- {q(X)}. {p(b)}. {p(a)}. {q(f(c))}.\n", None),
]


@pytest.mark.parametrize("text,horizon", KEY_ORDER_SHAPES, ids=lambda x: f"{str(x)[:24]!r}")
def test_key_order_shortcuts_match_restricted_base(text, horizon, tmp_path):
    gp = gp_from(text, horizon)
    assert gp.base == restricted_base(gp.rules)
    assert [tuple(map(str, nd.atoms)) for nd in gp.base] \
        == [tuple(map(gp.table.texts.__getitem__, members)) for members in gp.table.members]
    # the command line's loader keys each set-atom's members as written
    path = tmp_path / "p.ndlp"
    path.write_text(text)
    assert cli._load([str(path)], horizon)[1].base == gp.base


def test_a_predicate_at_two_arities_sorts_by_arity():
    # the parser refuses p at two arities, and a hand-built Program does not
    def nd(pred, *args):
        return canonicalize([Atom(pred, args)])
    a, b, c, x = Constant("a"), Constant("b"), Constant("c"), Variable("X")
    program = Program(rules=(Rule(nd("p", b)), Rule(nd("p", a, c)),
                             Rule(nd("q", x), (Literal(nd("p", x)),))))
    gp = ground(program)
    assert [str(nd) for nd in gp.base] == ["{p(b)}", "{p(a, c)}", "{q(b)}"]
    assert gp.base == restricted_base(gp.rules)


class TestLongBodies:
    # Each needs more nesting than the default recursion limit allows, had
    # the grounder recursed once per body literal or set-literal member.
    SIZE = 1000

    def test_many_join_literals(self):
        body = ", ".join(f"{{p{i}(X)}}" for i in range(self.SIZE))
        facts = "".join(f"{{p{i}(a)}}.\n" for i in range(self.SIZE))
        gp = gp_from(f"{{h(X)}} :- {body}.\n{facts}")
        assert "{h(a)}" in {str(nd) for nd in least_model(gp)}

    def test_many_ground_literals_beside_a_rule_with_variables(self):
        body = ", ".join(f"{{g{i}}}" for i in range(self.SIZE))
        facts = "".join(f"{{g{i}}}.\n" for i in range(self.SIZE))
        gp = gp_from(f"{{h}} :- {body}.\n{facts}{{q(X)}} :- {{r(X)}}. {{r(a)}}.\n")
        assert {"{h}", "{q(a)}"} <= {str(nd) for nd in least_model(gp)}

    def test_rules_without_variables_are_never_joined(self, monkeypatch):
        joined = []
        join = _Instantiator.join

        def spy(self, source, plan, delta):
            joined.append(source.origin)
            return join(self, source, plan, delta)

        monkeypatch.setattr(_Instantiator, "join", spy)
        body = ", ".join(f"{{g{i}}}" for i in range(self.SIZE))
        facts = "".join(f"{{g{i}}}.\n" for i in range(self.SIZE))
        gp = gp_from(f"{{h}} :- {body}.\n{facts}{{q(X)}} :- {{r(X)}}. {{r(a)}}.\n")
        assert joined == [f"line {self.SIZE + 2}"]  # {q(X)} :- {r(X)}.
        assert {"{h}", "{q(a)}"} <= {str(nd) for nd in least_model(gp)}

    def test_wide_set_literal(self):
        pattern = ", ".join(f"p(X, {i})" for i in range(self.SIZE))
        fact = ", ".join(f"p(a, {i})" for i in range(self.SIZE))
        gp = gp_from(f"{{h(X)}} :- {{{pattern}}}.\n{{{fact}}}.\n")
        assert "{h(a)}" in {str(nd) for nd in least_model(gp)}


def test_grounding_leaves_no_reference_cycle():
    # A cycle left behind waits for the cyclic collector, which is off
    # while grounding so that one is still there to count.
    programs = [(parse_program(corpus_text("robot.ndlp")), 2),
                (parse_program(closure_chain(30)), None)]
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for program, horizon in programs:
            ground(program, horizon=horizon)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
