"""Record the CLI's outputs on the corpus and on generated programs into
`cli_outputs.json`.

Each call is run in process through `ndlp.cli.main` and stored as its
arguments (the program's paths are appended as the last ones), its exit
code, and sha256 digests of its stdout and of its stderr without the
`solved in` timing line. A program is a corpus file or one of `GENERATED`,
written to a temporary directory first; a generated program given as a list
of texts is that many files, passed in order. `test_cli.py::TestPinnedOutputs` replays the calls and
requires the same three values, so a refactor that changes what the CLI
prints fails tier-1. Rerun this only when an output change is intended:

    PYTHONPATH=src python tests/record_cli_outputs.py
"""

from __future__ import annotations

import hashlib
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from ndlp.cli import main
from ndlp.corpus import CORPUS_NAMES, corpus_path

from programs import chain_edges, closure_text, facts, loops, names_then_flat

PINS = Path(__file__).with_name("cli_outputs.json")

CONSTS = """\
% #const values apply to the rules before and after their definitions
#const n = 3.
#horizon n.
{p(0, k)}.
{p(T+1, k)} :- {p(T, k)}.
{q(m, f(k)), q(n, g(k))} :- {p(n, k)}, not {r(m)}.
{r(c)} :- not {s(k)}.
{s(c)} :- not {r(c)}.
#const k = c.
#const m = 7.
"""


def _nd(i: int) -> str:
    return f"{{cx_{i}, cy_{i}}}"


# Generated programs, by file name: large enough that the parser's sharing
# and load checks run at scale.
GENERATED = {
    "neg_chain_400.ndlp": lambda: f"{_nd(0)}.\n" + "".join(
        f"{_nd(i)} :- not {_nd(i - 1)}.\n" for i in range(1, 401)),
    "even_loops_500.ndlp": lambda: loops(500),
    "facts_5000.ndlp": lambda: facts(5000),
    "consts.ndlp": lambda: CONSTS,
    # small copies of the benchmark's request shapes
    "closure_8.ndlp": lambda: closure_text(chain_edges(8)),
    "neg_chain_12.ndlp": lambda: "{c_0}.\n" + "".join(
        f"{{c_{i}}} :- not {{c_{i - 1}}}.\n" for i in range(1, 13)),
    "even_loops_4.ndlp": lambda: loops(4),
    "pairs_6.ndlp": lambda: "".join(f"{{x_{i}, y_{i}}}.\n" for i in range(6)),
    "overlapping_pairs_6.ndlp": lambda: "".join(
        f"{{p_{a}, p_{b}}}.\n" for a, b in [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (1, 5)]),
    "wf_pairs_7.ndlp": lambda: "{x_0, y_0}.\n{x_1, y_1}.\n{x_2, y_2}.\n"
                               "{r_0, s_0} :- not {u_0, v_0}.\n{r_1, s_1} :- not {u_1, v_1}.\n"
                               "{p} :- not {q}.\n{q} :- not {p}.\n",
    # a sum over a time variable that only a body literal binds
    "body_sum.ndlp": lambda: "#horizon 2.\n{p(0)}.\n{p(3)}.\n{q(T)} :- {p(T+1)}.\n",
    # the loops of even_loops_500 written with bare atoms
    "bare_even_loops_500.ndlp": lambda: loops(500, bare=True),
    # a braced program over names given as two files, the first not ending its
    # last line: origins name each file
    "two_files.ndlp": lambda: [
        "% loops, then a chain into the second file\n" + loops(3) + "{c0}.\n{c1, d1} :- not {c0}.",
        "{c2} :- not {d1, c1}, {a0}.\n{c0} :- {c2}, not {b2}.\n"],
    # set-atoms written apart that are equal, and a repeated body literal
    "equal_texts.ndlp": lambda: "{a, b} :- not {c}.\n{b, a} :- {a, a}.\n{a, a}.\n"
                                "{a} :- {b}, {b}.\n{c} :- not {b, a}, not {a, b}.\n{b}.\n"
                                "{d} :- {a}, not {c}, {a}, not {c}.\n",
    # names that spell classical negation
    "classical_names.ndlp": lambda: "{-a, a} :- not {b}.\n{b} :- not {-a}.\n{-b_1, x}.\n"
                                    "{a} :- {-b_1, x}, not {-a, a}.\n",
    "least_negated.ndlp": lambda: "{a}.\n{b} :- {a}.\n{c} :- {b}, not {a}.\n",
    "empty.ndlp": lambda: "",
    # braced rules over names, then rules with arguments (under the name it
    # was recorded with)
    "handover_2500.ndlp": lambda: names_then_flat(loops(2500, one_line=True)),
}

# Malformed programs, each an error that exits 2.
MALFORMED = {
    "empty_body.ndlp": "{a} :- .\n",
    "unclosed_set.ndlp": "{p(a), q(b).\n",
    "no_horizon.ndlp": "{q(0)}.\n{p(T)} :- {q(T)}.\n",
    "no_constants.ndlp": "{p(X)} :- {q(X)}.\n",
    "deep_term.ndlp": "{p(" + "f(" * 400 + "a" + ")" * 400 + ")}.\n",
}
GENERATED.update({name: (lambda text=text: text) for name, text in MALFORMED.items()})


def calls() -> list[tuple[str, list[str]]]:
    """(corpus program, arguments before it) for every pinned call."""
    matrix = []
    for name in CORPUS_NAMES:
        for command in (["solve"], ["expand", "--max-answer-sets", "40"]):
            for semantics in ("least", "stable", "wf"):
                for fmt in ("text", "json"):
                    matrix.append((name, [*command, "--semantics", semantics, "--format", fmt]))
        matrix.append((name, ["ground"]))
    for k in ("1", "3", "5"):
        matrix.append(("robot.ndlp", ["solve", "--semantics", "stable", "--max-models", k]))
    matrix += [
        ("neg_chain_400.ndlp", ["ground"]),
        ("neg_chain_400.ndlp", ["solve", "--semantics", "wf", "--format", "json"]),
        ("even_loops_500.ndlp", ["ground"]),
        ("even_loops_500.ndlp", ["solve", "--semantics", "stable", "--max-models", "1"]),
        ("facts_5000.ndlp", ["ground"]),
        ("facts_5000.ndlp", ["solve", "--semantics", "least"]),
        ("robot.ndlp", ["ground", "--horizon", "3"]),
        ("robot.ndlp", ["solve", "--semantics", "stable", "--horizon", "3"]),
        ("consts.ndlp", ["ground"]),
        ("consts.ndlp", ["solve", "--semantics", "stable", "--format", "json"]),
    ]
    for name in CORPUS_NAMES:
        matrix.append((name, ["solve", "--dump-ground"]))
        matrix.append((name, ["solve", "--answer-sets", "--semantics", "wf"]))
        for semantics in ("least", "stable", "wf"):
            if name != "connection.ndlp":
                for fmt in ("text", "json"):
                    matrix.append((name, ["expand", "--semantics", semantics, "--format", fmt]))
            matrix.append((name, ["expand", "--subset-minimal", "--semantics", semantics]))
    for horizon in ("1", "2", "3", "4"):
        for command in (["solve"], ["expand", "--max-answer-sets", "1"]):
            for fmt in ("text", "json"):
                matrix.append(("robot.ndlp", [*command, "--horizon", horizon, "--format", fmt]))
    for fmt in ("text", "json"):
        matrix += [
            ("closure_8.ndlp", ["solve", "--semantics", "least", "--format", fmt]),
            ("neg_chain_12.ndlp", ["solve", "--semantics", "wf", "--format", fmt]),
            ("even_loops_4.ndlp", ["solve", "--semantics", "stable", "--format", fmt]),
            ("even_loops_4.ndlp", ["solve", "--max-models", "1", "--format", fmt]),
            ("pairs_6.ndlp", ["expand", "--semantics", "least", "--format", fmt]),
            ("overlapping_pairs_6.ndlp", ["expand", "--semantics", "least", "--format", fmt]),
            ("wf_pairs_7.ndlp", ["expand", "--semantics", "wf", "--format", fmt]),
        ]
    matrix.append(("body_sum.ndlp", ["ground"]))
    for name in MALFORMED:
        matrix += [(name, ["ground"]), (name, ["solve"])]
    matrix += [
        ("bare_even_loops_500.ndlp", ["ground"]),
        ("bare_even_loops_500.ndlp", ["solve", "--semantics", "stable", "--max-models", "1"]),
        ("two_files.ndlp", ["ground"]),
        ("two_files.ndlp", ["solve", "--dump-ground"]),
        ("two_files.ndlp", ["expand", "--semantics", "wf", "--format", "json"]),
        ("equal_texts.ndlp", ["ground"]),
        ("equal_texts.ndlp", ["solve", "--dump-ground", "--semantics", "wf"]),
        ("equal_texts.ndlp", ["expand", "--semantics", "stable", "--format", "json"]),
        ("classical_names.ndlp", ["ground"]),
        ("classical_names.ndlp", ["expand", "--semantics", "stable"]),
        ("classical_names.ndlp", ["solve", "--semantics", "wf", "--format", "json"]),
        ("least_negated.ndlp", ["solve", "--semantics", "least"]),
        ("least_negated.ndlp", ["expand", "--semantics", "least", "--format", "json"]),
        ("least_negated.ndlp", ["solve", "--semantics", "wf"]),
        ("even_loops_4.ndlp", ["ground", "--horizon", "-1"]),
        ("even_loops_4.ndlp", ["solve", "--horizon", "-1"]),
        ("even_loops_4.ndlp", ["ground", "--horizon", "2"]),
    ]
    for command in (["ground"], ["solve", "--semantics", "least"], ["solve"],
                    ["expand", "--semantics", "wf", "--format", "json"]):
        matrix.append(("empty.ndlp", command))
    matrix += [
        ("handover_2500.ndlp", ["ground"]),
        ("handover_2500.ndlp", ["solve", "--semantics", "wf"]),
    ]
    return matrix


def program_paths(name: str, directory: Path) -> list[str]:
    """The path of a corpus program, or the paths of a generated one
    written into `directory` on first use, one file per text: the second
    and later are named after the first with their place in front."""
    if name not in GENERATED:
        return [str(corpus_path(name))]
    texts = GENERATED[name]()
    if isinstance(texts, str):
        texts = [texts]
    paths = [directory / name, *[directory / f"{i}_{name}" for i in range(2, len(texts) + 1)]]
    for path, text in zip(paths, texts):
        if not path.exists():
            path.write_text(text, encoding="utf-8")
    return list(map(str, paths))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def untimed(stderr: str) -> str:
    """Stderr without the `solved in` line, whose figure varies by run."""
    return "".join(line for line in stderr.splitlines(keepends=True)
                   if not line.startswith("solved in "))


def run(name: str, args: list[str], directory: Path) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([*args, *program_paths(name, directory)])
    return {"program": name, "args": args, "exit": code,
            "stdout_sha256": sha256(out.getvalue()),
            "stderr_sha256": sha256(untimed(err.getvalue()))}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        records = [run(name, args, Path(directory)) for name, args in calls()]
    PINS.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"{len(records)} calls written to {PINS}")
