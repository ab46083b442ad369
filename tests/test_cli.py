"""Command-line behavior: exit codes, report formats, determinism."""

import functools
import gc
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import pytest

import ndlp
from ndlp.answersets import expand
from ndlp.cli import SolveReport, _load, build_parser, main
from ndlp.corpus import CORPUS_NAMES, corpus_path
from ndlp.parser import MAX_TERM_DEPTH
from ndlp.syntax import Atom, canonicalize
from ndlp.wf import PartialInterpretation

from conftest import closure_chain
from oracles import report_json, written_once
from record_cli_outputs import PINS, program_paths, sha256, untimed


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_models_found(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--semantics", "stable", str(corpus_path("teaching.ndlp"))
        )
        assert code == 0
        assert "model 1:" in out and "model 2:" in out

    def test_unsatisfiable(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--semantics", "stable", str(corpus_path("no_stable.ndlp"))
        )
        assert code == 1
        assert "no models" in out

    def test_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.ndlp"
        bad.write_text("{a} :- .")
        code, _, err = run(capsys, "solve", str(bad))
        assert code == 2
        assert "error" in err

    def test_missing_horizon(self, capsys, tmp_path):
        timed = tmp_path / "timed.ndlp"
        timed.write_text("{exec(close, T)}.")
        code, _, err = run(capsys, "ground", str(timed))
        assert code == 2
        assert "horizon" in err

    def test_grounding_past_the_bound(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(ndlp.grounder, "MAX_GROUND_INSTANCES", 100)
        runaway = tmp_path / "runaway.ndlp"
        runaway.write_text("{p(T+1)} :- {p(T)}. {p(0)}.\n")
        code, out, err = run(capsys, "ground", "--horizon", "1000000000", str(runaway))
        assert code == 2 and not out
        assert "MAX_GROUND_INSTANCES = 100 ground instances" in err

    def test_least_rejects_negation(self, capsys):
        code, _, err = run(
            capsys, "solve", "--semantics", "least", str(corpus_path("teaching.ndlp"))
        )
        assert code == 2
        assert "negation-free" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "solve", "nowhere.ndlp")
        assert code == 2

    def test_non_utf8_input(self, capsys, tmp_path):
        latin = tmp_path / "latin.ndlp"
        latin.write_bytes("{caf\u00e9}.".encode("latin-1"))
        code, out, err = run(capsys, "solve", str(latin))
        assert code == 2
        assert out == ""
        assert err.startswith("ndlp: error:") and "UTF-8" in err

    @pytest.mark.parametrize("text", ["{p(\u2460)}.", "#horizon \u00b22."])
    def test_non_decimal_digit_is_a_parse_error(self, capsys, tmp_path, text):
        source = tmp_path / "digit.ndlp"
        source.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "solve", str(source))
        assert code == 2
        assert out == ""
        assert err.startswith("ndlp: error:") and "unexpected character" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_max_models_below_one_is_a_usage_error(self, capsys, value):
        with pytest.raises(SystemExit) as exit_:
            main(["solve", "--max-models", value, str(corpus_path("teaching.ndlp"))])
        assert exit_.value.code == 2
        assert "--max-models" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_max_answer_sets_below_one_is_a_usage_error(self, capsys, value):
        with pytest.raises(SystemExit) as exit_:
            main(["expand", "--max-answer-sets", value, str(corpus_path("teaching.ndlp"))])
        assert exit_.value.code == 2
        assert "--max-answer-sets" in capsys.readouterr().err

    def test_max_models_not_an_integer_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["solve", "--max-models", "abc", str(corpus_path("teaching.ndlp"))])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(
            "error: argument --max-models: expected an integer of at least 1, got 'abc'\n"
        )

    @pytest.mark.parametrize("command,name", [("solve", "robot.ndlp"), ("ground", "fred.ndlp")])
    def test_negative_horizon(self, capsys, command, name):
        code, out, err = run(capsys, command, "--horizon", "-1", str(corpus_path(name)))
        assert code == 2
        assert out == ""
        assert err == "ndlp: error: horizon must be non-negative\n"

    def test_dump_ground_writes_the_rules_before_the_report(self, capsys):
        code, out, _ = run(capsys, "solve", "--dump-ground", str(corpus_path("teaching.ndlp")))
        assert code == 0
        assert out == (
            "{math(101), math(102)} :- not {stat(101), stat(102)}.\n"
            "{stat(101), stat(102)} :- not {math(101), math(102)}.\n"
            "semantics: stable\n"
            "ground rules: 2, base size: 2\n"
            "model 1:\n"
            "  {math(101), math(102)}\n"
            "model 2:\n"
            "  {stat(101), stat(102)}\n"
        )

    def test_dump_ground_with_json_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["solve", "--dump-ground", "--format", "json",
                  str(corpus_path("teaching.ndlp"))])
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--dump-ground" in captured.err

    def test_term_nested_too_deep(self, capsys, tmp_path):
        deep = tmp_path / "deep.ndlp"
        deep.write_text("{p(" + "f(" * 3000 + "a" + ")" * 3000 + ")}.")
        code, out, err = run(capsys, "solve", "--semantics", "least", str(deep))
        assert code == 2
        assert out == ""
        assert err.startswith("ndlp: error:") and "nested deeper" in err

    def test_term_at_the_nesting_limit_solves(self, capsys, tmp_path):
        term = "f(" * MAX_TERM_DEPTH + "X" + ")" * MAX_TERM_DEPTH
        source = tmp_path / "limit.ndlp"
        source.write_text(f"{{q(a)}}. {{p({term})}} :- {{q(X)}}.\n{{r}} :- {{p({term})}}.\n")
        code, out, _ = run(capsys, "solve", "--semantics", "least", str(source))
        assert code == 0
        assert "  {r}" in out

    def test_large_horizon_without_time_variables(self, capsys):
        # the horizon bounds time variables only; none occurs here
        code, out, _ = run(
            capsys, "solve", "--horizon", "1000000000", str(corpus_path("teaching.ndlp"))
        )
        assert code == 0
        assert "ground rules: 2, base size: 2" in out

    def test_load_closes_its_files(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            _load([str(corpus_path("teaching.ndlp"))], None)
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestTimingLine:
    def test_solved_in_includes_writing_the_report(self, capsys, monkeypatch):
        # a clock that stands still except while the report is written
        now = [100.0]
        monkeypatch.setattr(ndlp.cli, "time", SimpleNamespace(perf_counter=lambda: now[0]))
        write = SolveReport.write

        def slow_write(self, stream, fmt="text"):
            write(self, stream, fmt)
            now[0] += 2.5

        monkeypatch.setattr(SolveReport, "write", slow_write)
        code, out, err = run(capsys, "expand", "--semantics", "stable",
                             str(corpus_path("teaching.ndlp")))
        assert code == 0 and "answer set" in out
        assert err == "solved in 2.500s\n"


class TestMultipleFiles:
    def test_trailing_comment_does_not_swallow_the_next_file(self, capsys, tmp_path):
        first, second = tmp_path / "a.ndlp", tmp_path / "b.ndlp"
        first.write_text("{a}. % note")
        second.write_text("{b}.")
        code, out, _ = run(capsys, "solve", str(first), str(second))
        assert code == 0
        assert "  {a}\n  {b}\n" in out

    def files(self, tmp_path, *texts):
        paths = []
        for i, text in enumerate(texts, start=1):
            paths.append(str(tmp_path / f"f{i}.ndlp"))
            (tmp_path / f"f{i}.ndlp").write_text(text)
        return paths

    def test_parse_error_names_the_file_and_its_line(self, capsys, tmp_path):
        paths = self.files(tmp_path, "{c}.\n", "{a}. % note", "{d} :- .\n")
        code, out, err = run(capsys, "ground", *paths)
        assert code == 2
        assert out == ""
        assert err == f"ndlp: error: {paths[2]}:1:8: expected atom, found '.'\n"

    def test_parse_error_in_the_first_file(self, capsys, tmp_path):
        paths = self.files(tmp_path, "{a}.\n  {b} :- .\n", "{c}.\n")
        code, _, err = run(capsys, "solve", *paths)
        assert code == 2
        assert err == f"ndlp: error: {paths[0]}:2:10: expected atom, found '.'\n"

    def test_parse_error_counts_lines_within_its_file(self, capsys, tmp_path):
        paths = self.files(tmp_path, "{a}.\n{b}.\n", "", "{c}.\n{d} :- .")
        code, _, err = run(capsys, "solve", paths[0], paths[2])
        assert code == 2
        assert err == f"ndlp: error: {paths[2]}:2:8: expected atom, found '.'\n"
        code, _, err = run(capsys, "solve", *paths)
        assert err == f"ndlp: error: {paths[2]}:2:8: expected atom, found '.'\n"

    def test_one_file_keeps_the_bare_position(self, capsys, tmp_path):
        paths = self.files(tmp_path, "{c}.\n{d} :- .")
        code, _, err = run(capsys, "solve", *paths)
        assert code == 2
        assert err == "ndlp: error: 2:8: expected atom, found '.'\n"

    def test_unsafe_rule_names_its_file(self, capsys, tmp_path):
        paths = self.files(tmp_path, "{q(a)}.\n", "\n{p(X)} :- not {q(X)}.\n")
        code, _, err = run(capsys, "solve", *paths)
        assert code == 2
        assert err == f"ndlp: error: unsafe variable X in rule ({paths[1]} line 2)\n"

    def test_arity_clash_names_its_file(self, capsys, tmp_path):
        paths = self.files(tmp_path, "{p(a)}.\n", "{q}.\n{r} :- {p(a, b)}.\n")
        code, _, err = run(capsys, "ground", *paths)
        assert code == 2
        assert err == (
            f"ndlp: error: predicate 'p' used with arity 2 and 1 ({paths[1]} line 2)\n"
        )

    def test_grounding_error_names_its_file(self, capsys, tmp_path):
        paths = self.files(tmp_path, "{a}.\n", "{exec(close, T)}.\n")
        code, _, err = run(capsys, "ground", *paths)
        assert code == 2
        assert f"({paths[1]} line 1)" in err

    def test_directives_apply_across_files(self, capsys, tmp_path):
        paths = self.files(tmp_path, "#horizon n.\n{p(k, T)}.\n", "#const n = 1.\n#const k = c.\n")
        code, out, _ = run(capsys, "ground", *paths)
        assert code == 0
        assert out == "{p(c, 0)}.\n{p(c, 1)}.\n"

    def test_duplicate_horizon_names_the_second_file(self, capsys, tmp_path):
        paths = self.files(tmp_path, "#horizon 1.\n", "{a}.\n#horizon 2.\n")
        code, _, err = run(capsys, "ground", *paths)
        assert code == 2
        assert err == f"ndlp: error: {paths[1]}:2:1: duplicate #horizon directive\n"

    def test_undefined_horizon_names_its_file(self, capsys, tmp_path):
        paths = self.files(tmp_path, "{a}.\n", "{b}.\n#horizon h.\n")
        code, _, err = run(capsys, "ground", *paths)
        assert code == 2
        assert err == (
            f"ndlp: error: {paths[1]}:2:10: horizon 'h' is not a defined integer constant\n"
        )

    def test_tokenizer_error_names_its_file(self, capsys, tmp_path):
        paths = self.files(tmp_path, "{a}.", "{b} $\n")
        code, _, err = run(capsys, "ground", *paths)
        assert code == 2
        assert err == f"ndlp: error: {paths[1]}:1:5: unexpected character '$'\n"

    def test_error_at_the_end_of_the_last_file(self, capsys, tmp_path):
        paths = self.files(tmp_path, "{a}.\n", "{b} :- {c} % open")
        code, _, err = run(capsys, "ground", *paths)
        assert code == 2
        assert err == f"ndlp: error: {paths[1]}:1:12: expected '.'\n"


class TestWfOutput:
    def test_partial_model_reports_undefined(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--semantics", "wf", str(corpus_path("wf_mutual.ndlp"))
        )
        assert code == 0
        assert "total: no" in out
        assert "undefined:" in out

    def test_total_model(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--semantics", "wf", str(corpus_path("wf_chain.ndlp"))
        )
        assert code == 0
        assert "total: yes" in out
        assert "not {b1, b2}" in out


class TestJson:
    def test_schema_keys(self, capsys):
        _, out, _ = run(
            capsys,
            "solve",
            "--semantics",
            "stable",
            "--format",
            "json",
            "--answer-sets",
            str(corpus_path("teaching.ndlp")),
        )
        payload = json.loads(out)
        assert set(payload) >= {"semantics", "models", "answer_sets", "truncated"}
        assert payload["semantics"] == "stable"
        assert payload["models"] == [
            [["math(101)", "math(102)"]],
            [["stat(101)", "stat(102)"]],
        ]
        assert payload["answer_sets"] == [
            [["math(101)"], ["math(102)"]],
            [["stat(101)"], ["stat(102)"]],
        ]
        assert payload["truncated"] is False

    def test_wf_json_has_totality(self, capsys):
        _, out, _ = run(
            capsys,
            "solve", "--semantics", "wf", "--format", "json",
            str(corpus_path("wf_partial.ndlp")),
        )
        payload = json.loads(out)
        assert payload["total"] is False
        assert payload["negatives"] == [["d1", "d2"]]
        assert payload["undefined"] == [["a1", "a2"], ["b1", "b2"]]

    def test_signed_answer_set_entries(self, capsys):
        _, out, _ = run(
            capsys,
            "expand", "--semantics", "wf", "--format", "json",
            str(corpus_path("wf_partial.ndlp")),
        )
        payload = json.loads(out)
        assert ["c1", "not d1"] in payload["answer_sets"][0]

    def test_json_is_bitwise_deterministic(self, capsys):
        argv = (
            "solve", "--semantics", "stable", "--format", "json",
            "--answer-sets", str(corpus_path("teaching2.ndlp")),
        )
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


class TestJsonLayout:
    """`SolveReport.write` lays out the JSON report itself; its bytes must
    be those of the whole payload dumped by `json.dumps`."""

    @staticmethod
    def checked_run(capsys, monkeypatch, *argv):
        """Run the CLI, checking every report it renders as JSON against the
        oracle; the exit code and the number of reports rendered."""
        rendered = []
        write = SolveReport.write

        def checked(report, stream, fmt="text"):
            out = written_once(write, report, fmt)
            assert fmt == "json" and out == report_json(report), f"argv={argv}"
            rendered.append(out)
            stream.write(out)

        monkeypatch.setattr(SolveReport, "write", checked)
        code, out, _ = run(capsys, *argv)
        assert out == "".join(rendered)
        return code, len(rendered)

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    @pytest.mark.parametrize("semantics", ["least", "stable", "wf"])
    @pytest.mark.parametrize("flags", [
        ("solve",),
        ("solve", "--answer-sets"),
        ("expand",),
        ("expand", "--max-answer-sets", "3"),
        ("expand", "--subset-minimal"),
    ])
    def test_corpus_reports(self, capsys, monkeypatch, name, semantics, flags):
        argv = (*flags, "--semantics", semantics, "--format", "json", str(corpus_path(name)))
        code, rendered = self.checked_run(capsys, monkeypatch, *argv)
        assert rendered == (code != 2)

    @pytest.mark.parametrize("semantics", ["least", "wf"])
    def test_non_ascii_atoms_are_escaped(self, capsys, monkeypatch, tmp_path, semantics):
        # names start with a lowercase letter, so CJK goes after one
        source = tmp_path / "accents.ndlp"
        text = "{x\u4e2d, caf\u00e9}. {caf\u00e9, b}. {x}.\n"
        if semantics == "wf":
            text = "{x\u4e2d, caf\u00e9}. {y} :- not {caf\u00e9, b}.\n"
        source.write_text(text, encoding="utf-8")
        argv = ("expand", "--semantics", semantics, "--format", "json", str(source))
        code, rendered = self.checked_run(capsys, monkeypatch, *argv)
        assert (code, rendered) == (0, 1)
        _, out, _ = run(capsys, *argv)
        assert "x\\u4e2d" in out and "caf\\u00e9" in out and out.isascii()

    def test_names_the_parser_rejects_are_escaped_too(self):
        # built through the library: no lowercase letter, and one astral
        # character that JSON escapes as a surrogate pair
        atoms = [Atom("\u4e2d"), Atom("caf\u00e9"), Atom("\U0001d465")]
        model = PartialInterpretation(pos=frozenset([canonicalize(atoms[:2])]),
                                      neg=frozenset([canonicalize(atoms[1:])]))
        report = SolveReport(semantics="wf", models=[list(model.pos)],
                             negatives=list(model.neg), undefined=[], total=True,
                             answer_sets=[list(expand(model))])
        out = report.to_json()
        assert '"not \\ud835\\udc65"' in out and '"\\u4e2d"' in out
        assert out == report_json(report)

    def test_report_without_answer_sets(self):
        for report in (SolveReport(semantics="stable"),
                       SolveReport(semantics="wf", models=[[canonicalize([Atom("a")])]])):
            assert report.answer_sets is None
            assert report.to_json() == report_json(report)

    def test_model_whose_every_choice_contradicts_itself(self):
        a, b = canonicalize([Atom("a")]), canonicalize([Atom("b")])
        both = canonicalize([Atom("a"), Atom("b")])
        model = PartialInterpretation(pos=frozenset([a, b]), neg=frozenset([both]))
        expansion = expand(model)
        assert len(expansion) == 0
        report = SolveReport(semantics="wf", models=[[a, b]], negatives=[both], undefined=[],
                             total=True, answer_sets=[list(expansion)])
        assert '"answer_sets": [\n    []\n  ],' in report.to_json()
        assert report.to_json() == report_json(report)


class TestGroundCommand:
    def test_round_trip_of_ground_file(self, capsys, tmp_path):
        source = tmp_path / "ground.ndlp"
        source.write_text("{a} :- {b}, not {c}.\n{b}.\n")
        code, out, _ = run(capsys, "ground", str(source))
        assert code == 0
        assert out == "{a} :- {b}, not {c}.\n{b}.\n"

    def test_robot_occurrence_rules(self, capsys):
        code, out, _ = run(
            capsys, "ground", "--horizon", "2", str(corpus_path("robot.ndlp"))
        )
        assert code == 0
        for action in ("close", "flip_lock", "check", "inspect"):
            for t in (0, 1, 2):
                line = (
                    f"{{occ({action}, {t})}} :- {{action({action})}}, "
                    f"not {{abocc({action}, {t})}}."
                )
                assert line in out

    def test_truncation_flags(self, capsys):
        code, out, err = run(
            capsys,
            "solve", "--semantics", "stable", "--answer-sets",
            "--max-answer-sets", "1", str(corpus_path("teaching.ndlp")),
        )
        assert code == 0
        assert "truncated: yes" in out
        assert "truncated" in err

    def test_answer_set_truncation_is_reported_once_per_run(self, capsys):
        code, out, err = run(
            capsys, "expand", "--max-answer-sets", "1", str(corpus_path("robot.ndlp"))
        )
        assert code == 0
        assert out.count("model ") == 64
        assert err.count("answer-set expansion truncated by --max-answer-sets") == 1

    def test_subset_minimal_filters_before_the_answer_set_cap(self, capsys):
        code, out, err = run(
            capsys,
            "expand", "--semantics", "stable", "--subset-minimal",
            "--max-answer-sets", "1", str(corpus_path("teaching2.ndlp")),
        )
        assert code == 0
        assert "answer set 1.1: {math(102)}\n" in out
        assert "answer set 2.1: {stat(101)}\n" in out
        assert "answer set 1.2" not in out and "answer set 2.2" not in out
        assert "truncated" not in out and "truncated" not in err


_PINNED = json.loads(PINS.read_text(encoding="utf-8"))


class TestPinnedOutputs:
    """Stdout, exit code and untimed stderr of each call recorded in
    `cli_outputs.json` (see `record_cli_outputs.py`)."""

    @pytest.fixture(scope="class")
    def generated(self, tmp_path_factory):
        return tmp_path_factory.mktemp("generated")

    @pytest.mark.parametrize(
        "pin", _PINNED,
        ids=["-".join(a.lstrip("-") for a in [*p["args"], p["program"]]) for p in _PINNED],
    )
    def test_output_is_unchanged(self, capsys, generated, pin):
        code, out, err = run(capsys, *pin["args"], *program_paths(pin["program"], generated))
        assert code == pin["exit"]
        assert sha256(out) == pin["stdout_sha256"]
        assert sha256(untimed(err)) == pin["stderr_sha256"]


@functools.cache
def fresh_process(argv: tuple[str, ...]) -> tuple[int, str, str]:
    """Exit code, stdout and untimed stderr of `ndlp` run in a new process."""
    src = str(Path(ndlp.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "COLUMNS": "80"}
    done = subprocess.run([sys.executable, "-m", "ndlp.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout, untimed(done.stderr)


class TestOneParser:
    """`main` parses every call with the one parser `build_parser` built."""

    def test_the_parser_is_built_once(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("error", [
        ("--help",),
        ("solve", "--max-models", "0", "x.ndlp"),
        ("solve", "--dump-ground", "--format", "json", "x.ndlp"),
    ], ids=["help", "bad value", "flags that conflict"])
    def test_a_usage_error_then_a_call_match_fresh_processes(self, capsys, monkeypatch, error):
        monkeypatch.setenv("COLUMNS", "80")
        valid = ("solve", "--semantics", "wf", str(corpus_path("wf_partial.ndlp")))
        for argv in (error, valid):
            try:
                code = main(list(argv))
            except SystemExit as exit_:
                code = exit_.code
            captured = capsys.readouterr()
            assert (code, captured.out, untimed(captured.err)) == fresh_process(argv), argv


class TestEnvCap:
    def test_max_base_env_var(self, monkeypatch):
        from conftest import gp_from
        from oracles import BaseCapExceeded, enumerate_models

        gp = gp_from("{p(X)} :- {q(X)}. {q(c1)}. {q(c2)}.")
        monkeypatch.setenv("NDLP_MAX_BASE", "2")
        with pytest.raises(BaseCapExceeded):
            enumerate_models(gp)
        monkeypatch.setenv("NDLP_MAX_BASE", "10")
        assert enumerate_models(gp)


@pytest.mark.parametrize("argv", [
    ("solve", "--semantics", "least"),
    ("solve", "--semantics", "least", "--format", "json"),
    ("expand", "--semantics", "wf", "--max-answer-sets", "3"),
    ("solve", "--semantics", "stable", "--max-models", "2", "--format", "json"),
])
def test_programs_with_variables_render_without_atoms(capsys, monkeypatch, tmp_path, argv):
    # The statement reader hands the grounder set-atom patterns, and models,
    # negatives, undefined set-atoms and answer sets render from ids through
    # the atom table, whose texts come from term texts: from the start of
    # `_load`, the command line builds no `Atom`.
    program = tmp_path / "closure.ndlp"
    negated = "{far(X)} :- {path(n0, X)}, not {edge(n0, X)}.\n" if "least" not in argv else ""
    program.write_text(closure_chain(6) + negated)
    built = []
    load, init = ndlp.cli._load, Atom.__init__

    def count(self, *args):
        built.append(args)
        init(self, *args)

    def counting_load(*args, **kwargs):
        monkeypatch.setattr(Atom, "__init__", count)
        return load(*args, **kwargs)

    monkeypatch.setattr(ndlp.cli, "_load", counting_load)
    code, out, _ = run(capsys, *argv, str(program))
    assert code == 0 and "path(n0, n6)" in out
    assert not built and Atom.__init__ is count
