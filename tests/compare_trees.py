"""Compare what two source trees of ndlp print for one fixed list of calls.

Each call runs `python -m ndlp.cli` in a subprocess once per tree, with
`PYTHONPATH` set to the tree's `src` directory, in a temporary directory
holding the call's program files. Its stdout, its stderr without the
`solved in` timing line, and its exit code must be the same under both
trees. The script prints the first difference with its call and exits 1,
or the number of calls compared and exits 0. Stdlib only, and not
collected by pytest:

    git archive HEAD~1 | tar -x -C ../parent
    python tests/compare_trees.py ../parent/src src [--only FAMILY]

The calls reach past the pins of `cli_outputs.json`. The families:

- closure: chains and random graphs of 12-18 nodes at two seeds, under
  `solve --semantics least` in text and JSON, the benchmark's closure shapes;
- large-closure: the 30-edge chain under `ground`, `--dump-ground` and
  least `solve`, and a dense random graph of 60 nodes;
- robot: the planning example at horizons 1-5 under `solve` and `expand`
  (from horizon 4 on, `expand` stops at 40 models);
- robot-variants: the benchmark's planning shapes (`programs.robot_variant`:
  action subsets, the four initial states, tagged predicate names, horizons
  1-3) under `expand` in text and JSON and under `ground`;
- chains: negation chains and even loops of a few hundred rules, braced and
  with bare atoms, and the benchmark's chains shapes (140 loops, the width-2
  wf chain of 220) with tagged names;
- large: the rows of `programs.py`, which the CI runs under its limits, the
  runaway grounding (exit 2), the 10 000 flat rules the grounder takes as
  set-atom patterns and the 10 000 rules with a comparison and no variable,
  braced and over bare atoms, among them, the 120-edge chain's calls and
  `solve` of robot at horizon 5;
- two-files: programs given as two files;
- late-fault: a fault after thousands of rules.

No call is in two families. A whole run, 273 calls, takes about 75 s on a
2-core machine.

Reference: McKeeman, "Differential testing for software", Digital
Technical Journal 10(1), 1998.
"""

from __future__ import annotations

import argparse
import filecmp
import os
import random
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from itertools import zip_longest
from pathlib import Path
from typing import Iterable, NamedTuple

from programs import (EXAMPLES, ROWS, chain_edges, closure_text, graph_edges, loops, neg_chain,
                      robot_variant, robot_variants, text)

ROBOT = EXAMPLES + "robot.ndlp"
TIMEOUT_S = 120


class Call(NamedTuple):
    family: str
    argv: tuple[str, ...]  # the program's files are appended in order
    files: tuple[tuple[str, str], ...]  # (name, text)

    def __str__(self) -> str:
        sizes = ", ".join(f"{name} ({text.count(chr(10))} lines)" for name, text in self.files)
        return f"[{self.family}] ndlp {' '.join(self.argv)} {' '.join(n for n, _ in self.files)}" \
               f"  -- {sizes}"


def relabel(rng: random.Random, edges, nodes: int) -> list[tuple[int, int]]:
    label = list(range(nodes))
    rng.shuffle(label)
    return sorted((label[a], label[b]) for a, b in edges)


def closure_calls() -> list[Call]:
    calls = []
    for seed in (1, 2):
        rng = random.Random(seed)
        for nodes in range(12, 19):
            for family in ("chain", "graph"):
                edges = chain_edges(nodes - 1) if family == "chain" \
                    else graph_edges(rng, nodes, nodes // 4)
                program = closure_text(relabel(rng, edges, nodes), f"_s{seed}")
                for fmt in ("text", "json"):
                    calls.append(Call("closure", ("solve", "--semantics", "least", "--format", fmt),
                                      (("closure.ndlp", program),)))
    return calls


def large_closure_calls() -> list[Call]:
    """The 120-edge chain's calls are rows of the `large` family."""
    calls = []
    dense = closure_text(graph_edges(random.Random(60), 60, 120))
    for program in (closure_text(chain_edges(30)), dense):
        files = (("closure.ndlp", program),)
        calls += [Call("large-closure", ("ground",), files),
                  Call("large-closure", ("solve", "--semantics", "least", "--dump-ground"), files),
                  Call("large-closure", ("solve", "--semantics", "least"), files),
                  Call("large-closure", ("solve", "--semantics", "least", "--format", "json"),
                       files)]
    return calls


def robot_calls() -> list[Call]:
    """`solve` at horizon 5 is a row of the `large` family."""
    files = (("robot.ndlp", text(ROBOT)),)
    calls = []
    for horizon in range(1, 6):
        h = ("--horizon", str(horizon))
        capped = ("--max-models", "40") if horizon >= 4 else ()
        if horizon < 5:
            calls += [Call("robot", ("solve", *h), files),
                      Call("robot", ("solve", *h, "--format", "json"), files)]
        calls += [Call("robot", ("ground", *h), files),
                  Call("robot", ("expand", *h, *capped), files),
                  Call("robot", ("expand", *h, *capped, "--format", "json"), files)]
    return calls


def robot_variant_calls() -> list[Call]:
    calls = []
    for variant in robot_variants():
        files = (("robot.ndlp", robot_variant(*variant)),)
        calls += [Call("robot-variants", ("expand",), files),
                  Call("robot-variants", ("expand", "--format", "json"), files),
                  Call("robot-variants", ("ground",), files)]
    return calls


def chains_calls() -> list[Call]:
    calls = []
    for bare in (False, True):
        for n in (300, 700):
            chain = (("chain.ndlp", neg_chain(n, bare)),)
            calls += [Call("chains", ("solve", "--semantics", "wf"), chain),
                      Call("chains", ("ground",), chain),
                      Call("chains", ("solve", "--semantics", "stable", "--max-models", "3"),
                           (("loops.ndlp", loops(n // 2, bare)),)),
                      Call("chains", ("solve", "--format", "json", "--max-models", "1"),
                           (("loops.ndlp", loops(n, bare)),))]
    # the benchmark's shapes, names tagged: 140 loops, and the width-2 wf
    # chain of 220 from a fact (as JSON) and without one
    tagged = loops(140).replace("{a", "{at7_").replace("{b", "{bt7_")
    chain = neg_chain(221).replace("x", "cv3x_").replace("y", "cv3y_")
    calls += [Call("chains", ("solve", "--semantics", "stable", "--max-models", "1"),
                   (("loops.ndlp", tagged),)),
              Call("chains", ("solve", "--format", "json", "--semantics", "wf"),
                   (("chain.ndlp", chain),)),
              Call("chains", ("solve", "--semantics", "wf"),
                   (("chain.ndlp", chain.split("\n", 1)[1]),))]
    return calls


def large_calls() -> list[Call]:
    """The rows of `programs.py`, which the CI runs under its limits."""
    return [Call("large", row.args, tuple((Path(file).name, text(file)) for file in row.files))
            for row in ROWS]


def two_files_calls() -> list[Call]:
    loops_a, loops_b = loops(1200), loops(1200).replace("a", "c").replace("b", "d")
    edges = closure_text(chain_edges(40)).splitlines(keepends=True)
    closure = ("".join(edges[:-2]), "".join(edges[-2:]))
    robot = text(ROBOT).splitlines(keepends=True)
    half = len(robot) // 2
    programs = [
        (("loops_a.ndlp", loops_a), ("loops_b.ndlp", loops_b)),
        # the first file does not end its last line
        (("loops_a.ndlp", loops(50).rstrip("\n")), ("tail.ndlp", "{c} :- not {a0}.\n")),
        (("facts.ndlp", closure[0]), ("rules.ndlp", closure[1])),
        (("rules.ndlp", closure[1]), ("facts.ndlp", closure[0])),
        # braced rules over names, then rules with arguments in the second file
        (("loops.ndlp", loops(1500)), ("args.ndlp", "{s(X)} :- {t(X)}, not {a0}. {t(a)}.\n")),
        (("robot_a.ndlp", "".join(robot[:half])), ("robot_b.ndlp", "".join(robot[half:]))),
    ]
    calls = []
    for files in programs:
        calls += [Call("two-files", ("ground",), files),
                  Call("two-files", ("solve", "--dump-ground", "--max-models", "2",
                                     "--horizon", "2"), files),
                  Call("two-files", ("solve", "--semantics", "wf", "--format", "json",
                                     "--horizon", "2"), files)]
    return calls


def late_fault_calls() -> list[Call]:
    big = loops(3000)
    bare = loops(3000, bare=True)
    facts = "".join(f"{{p({i}, c{i % 7})}}.\n" for i in range(3000))
    programs = [
        (("late.ndlp", big + "{a} :- .\n"),),
        (("late.ndlp", big + "{p(a), q(b).\n"),),
        (("late.ndlp", bare + "a :- not.\n"),),
        (("late.ndlp", facts + "{q(T)} :- {p(T, c1)}.\n"),),
        (("late.ndlp", facts + "{q(X)} :- {r(X)}, {X == " + "f(" * 400 + "a" + ")" * 400
          + "}.\n"),),
        (("late.ndlp", big + "{s(X)} :- {t(X)}.\n"),),
        # past MAX_GROUND_INSTANCES in the first round of the join
        (("late.ndlp", facts + "{r(X, Y)} :- {p(X, c1)}, {p(Y, c2)}.\n"
          "{p(1, c1)} :- {r(X, Y)}.\n"),),
        (("ok.ndlp", big), ("bad.ndlp", "{a0} :- {b0}.\n{b0 :- .\n")),
    ]
    calls = []
    for files in programs:
        calls += [Call("late-fault", ("ground",), files),
                  Call("late-fault", ("solve", "--semantics", "least"), files),
                  Call("late-fault", ("solve", "--semantics", "wf", "--max-models", "1"), files)]
    return calls


FAMILIES = {
    "closure": closure_calls,
    "large-closure": large_closure_calls,
    "robot": robot_calls,
    "robot-variants": robot_variant_calls,
    "chains": chains_calls,
    "large": large_calls,
    "two-files": two_files_calls,
    "late-fault": late_fault_calls,
}


class Result(NamedTuple):
    code: int
    stdout: Path  # the file it was written to
    stderr: bytes


def untimed(stderr: bytes) -> bytes:
    """Stderr without the `solved in` line, whose figure varies by run."""
    return b"".join(line for line in stderr.splitlines(keepends=True)
                    if not line.startswith(b"solved in "))


def execute(src: Path, call: Call, directory: str, stdout: Path) -> Result:
    """Run `call` against `src`, its stdout into the file `stdout`: some
    reports run to hundreds of megabytes."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "ndlp.cli", *call.argv, *[name for name, _ in call.files]]
    with open(stdout, "wb") as out:
        try:
            done = subprocess.run(argv, cwd=directory, env=env, stdout=out,
                                  stderr=subprocess.PIPE, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return Result(-1, stdout, f"timed out after {TIMEOUT_S} s".encode())
    return Result(done.returncode, stdout, untimed(done.stderr))


def first_difference(a: Iterable[bytes], b: Iterable[bytes]) -> str:
    """The first line at which the lines `a` and `b` differ, both ways."""
    pairs = zip_longest(a, b)
    for number, (line_a, line_b) in enumerate(pairs, 1):
        if line_a is None or line_b is None:
            longer = number + sum(1 for _ in pairs)
            lines_a, lines_b = (number - 1, longer) if line_a is None else (longer, number - 1)
            return f"one ends after line {number - 1}: the first has {lines_a} lines, " \
                   f"the second {lines_b}"
        if line_a != line_b:
            return f"line {number}:\n  first:  {line_a[:300]!r}\n  second: {line_b[:300]!r}"
    return "no line"


def compare(call: Call, first: Path, second: Path, pool: ThreadPoolExecutor) -> str | None:
    """What differs between the two trees' runs of `call`, or None."""
    with tempfile.TemporaryDirectory(prefix="ndlp-compare-") as directory:
        for name, program in call.files:
            Path(directory, name).write_text(program, encoding="utf-8")
        outputs = (Path(directory, "first.stdout"), Path(directory, "second.stdout"))
        a, b = pool.map(lambda src, out: execute(src, call, directory, out), (first, second),
                        outputs)
        if a.code != b.code:
            return f"exit code {a.code} against {b.code}"
        if not filecmp.cmp(a.stdout, b.stdout, shallow=False):
            with open(a.stdout, "rb") as lines_a, open(b.stdout, "rb") as lines_b:
                return f"stdout differs at {first_difference(lines_a, lines_b)}"
    if a.stderr != b.stderr:
        return "stderr differs at " + first_difference(a.stderr.splitlines(keepends=True),
                                                       b.stderr.splitlines(keepends=True))
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("first", type=Path, help="the first tree's src directory")
    parser.add_argument("second", type=Path, help="the second tree's src directory")
    parser.add_argument("--only", choices=sorted(FAMILIES), help="run one family")
    args = parser.parse_args(argv)
    first, second = args.first.resolve(), args.second.resolve()
    for src in (first, second):
        if not (src / "ndlp" / "cli.py").is_file():
            parser.error(f"{src} holds no ndlp package")
    families = [args.only] if args.only else list(FAMILIES)
    count = 0
    with ThreadPoolExecutor(max_workers=2) as pool:
        for family in families:
            calls = FAMILIES[family]()
            for call in calls:
                difference = compare(call, first, second, pool)
                if difference is not None:
                    print(f"DIFFERENT: {call}\n{difference}")
                    return 1
            count += len(calls)
            print(f"{family}: {len(calls)} calls alike", flush=True)
    print(f"{count} calls, no difference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
