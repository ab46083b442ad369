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
- large-closure: the 30- and 120-edge chains under `ground`, `--dump-ground`
  and least `solve`, and a dense random graph of 60 nodes;
- robot: the planning example at horizons 1-5 under `solve` and `expand`
  (from horizon 4 on, `expand` stops at 40 models);
- chains: negation chains and even loops of a few hundred rules, braced and
  with bare atoms;
- large: the CI's large programs, the runaway grounding (exit 2) among them;
- two-files: programs given as two files;
- late-fault: a fault after thousands of rules.

A whole run takes about two minutes on a 2-core machine.

Reference: McKeeman, "Differential testing for software", Digital
Technical Journal 10(1), 1998.
"""

from __future__ import annotations

import argparse
import os
import random
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROBOT = Path(__file__).resolve().parents[1] / "src" / "ndlp" / "examples" / "robot.ndlp"
TIMEOUT_S = 120


class Call(NamedTuple):
    family: str
    argv: tuple[str, ...]  # the program's files are appended in order
    files: tuple[tuple[str, str], ...]  # (name, text)

    def __str__(self) -> str:
        sizes = ", ".join(f"{name} ({text.count(chr(10))} lines)" for name, text in self.files)
        return f"[{self.family}] ndlp {' '.join(self.argv)} {' '.join(n for n, _ in self.files)}" \
               f"  -- {sizes}"


def closure_text(edges, tag: str = "") -> str:
    return "".join(f"{{edge{tag}(n{a}, n{b})}}.\n" for a, b in edges) + (
        f"{{path{tag}(X, Y)}} :- {{edge{tag}(X, Y)}}.\n"
        f"{{path{tag}(X, Z)}} :- {{edge{tag}(X, Y)}}, {{path{tag}(Y, Z)}}.\n")


def chain_edges(n_edges: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n_edges)]


def graph_edges(rng: random.Random, nodes: int, extra: int) -> list[tuple[int, int]]:
    """One out-edge per node, then `extra` more between random nodes."""
    edges = set()
    for a in range(nodes):
        b = rng.randrange(nodes - 1)
        edges.add((a, b + (b >= a)))
    for _ in range(extra):
        edges.add(tuple(rng.sample(range(nodes), 2)))
    return sorted(edges)


def relabel(rng: random.Random, edges, nodes: int) -> list[tuple[int, int]]:
    label = list(range(nodes))
    rng.shuffle(label)
    return sorted((label[a], label[b]) for a, b in edges)


def loops(n: int, bare: bool = False) -> str:
    if bare:
        return "".join(f"a{i} :- not b{i}.\nb{i} :- not a{i}.\n" for i in range(n))
    return "".join(f"{{a{i}}} :- not {{b{i}}}.\n{{b{i}}} :- not {{a{i}}}.\n" for i in range(n))


def neg_chain(n: int, bare: bool = False) -> str:
    if bare:
        return "x0.\n" + "".join(f"x{i} :- not x{i - 1}.\n" for i in range(1, n))
    return "{x0, y0}.\n" + "".join(f"{{x{i}, y{i}}} :- not {{x{i - 1}, y{i - 1}}}.\n"
                                   for i in range(1, n))


def closure_calls() -> list[Call]:
    calls = []
    for seed in (1, 2):
        rng = random.Random(seed)
        for nodes in range(12, 19):
            for family in ("chain", "graph"):
                edges = chain_edges(nodes - 1) if family == "chain" \
                    else graph_edges(rng, nodes, nodes // 4)
                text = closure_text(relabel(rng, edges, nodes), f"_s{seed}")
                for fmt in ("text", "json"):
                    calls.append(Call("closure", ("solve", "--semantics", "least", "--format", fmt),
                                      (("closure.ndlp", text),)))
    return calls


def large_closure_calls() -> list[Call]:
    calls = []
    dense = closure_text(graph_edges(random.Random(60), 60, 120))
    for text in (closure_text(chain_edges(30)), closure_text(chain_edges(120)), dense):
        files = (("closure.ndlp", text),)
        calls += [Call("large-closure", ("ground",), files),
                  Call("large-closure", ("solve", "--semantics", "least", "--dump-ground"), files),
                  Call("large-closure", ("solve", "--semantics", "least"), files),
                  Call("large-closure", ("solve", "--semantics", "least", "--format", "json"),
                       files)]
    return calls


def robot_calls() -> list[Call]:
    files = (("robot.ndlp", ROBOT.read_text(encoding="utf-8")),)
    calls = []
    for horizon in range(1, 6):
        h = ("--horizon", str(horizon))
        capped = ("--max-models", "40") if horizon >= 4 else ()
        calls += [Call("robot", ("solve", *h), files),
                  Call("robot", ("solve", *h, "--format", "json"), files),
                  Call("robot", ("ground", *h), files),
                  Call("robot", ("expand", *h, *capped), files),
                  Call("robot", ("expand", *h, *capped, "--format", "json"), files)]
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
    return calls


def large_calls() -> list[Call]:
    """The programs of the CI's "Large programs" step."""
    loops_5000 = loops(5000)
    chain = "".join(f"{{x{i}}} :- not {{x{i - 1}}}.\n" for i in range(1, 5000))
    arg_chain = "".join(f"{{x({i})}} :- not {{x({i - 1})}}.\n" for i in range(1, 5000))
    handover = loops(2500) + "{s(X)} :- {t(X)}. {t(a)}.\n"
    facts = "".join(f"{{p({i}, c{i % 7}, d{i % 11})}}.\n" for i in range(20000))
    n = 10000
    ground_body = "".join(f"{{g{i}}}.\n" for i in range(n)) + "{h} :- " + ", ".join(
        f"{{g{i}}}" for i in range(n)) + ".\n{q(X)} :- {r(X)}. {r(a)}.\n"
    k = 1000
    wide = "{h(X)} :- {" + ", ".join(f"p(X, {i})" for i in range(k)) + "}.\n{" + ", ".join(
        f"p(a, {i})" for i in range(k)) + "}.\n"
    runaway = "{p(T+1)} :- {p(T)}. {p(0)}.\n"
    pairs = "".join(f"{{p{i:02d}a, p{i:02d}b}}.\n" for i in range(18))
    cycle = "".join(f"{{c{i:02d}, c{(i + 1) % 22:02d}}}.\n" for i in range(22))
    rng = random.Random(7)
    dense = closure_text([(a, b) for a in range(60)
                          for b in sorted(rng.sample([x for x in range(60) if x != a], 3))])
    stable_one = ("solve", "--semantics", "stable", "--max-models", "1")
    table = [
        (stable_one, "loops.ndlp", loops_5000),
        (("ground",), "loops.ndlp", loops_5000),
        ((*stable_one, "--dump-ground"), "loops.ndlp", loops_5000),
        (stable_one, "bare_loops.ndlp", loops(5000, bare=True)),
        (("solve", "--semantics", "wf"), "chain.ndlp", chain),
        (("ground",), "chain.ndlp", chain),
        (("solve", "--semantics", "wf"), "arg_chain.ndlp", arg_chain),
        (("solve", "--semantics", "wf"), "handover.ndlp", handover),
        (("ground",), "facts.ndlp", facts),
        (("ground",), "mixed.ndlp", facts + "{q(X)} :- {p(X, c1, d1)}.\n"),
        (("ground",), "ground_body.ndlp", ground_body),
        (("ground",), "wide.ndlp", wide),
        (("ground", "--horizon", "5000"), "sum.ndlp", runaway),
        (("ground", "--horizon", "1000000000"), "sum.ndlp", runaway),
        (("expand", "--semantics", "least"), "pairs.ndlp", pairs),
        (("expand", "--semantics", "least", "--format", "json"), "pairs.ndlp", pairs),
        (("expand", "--semantics", "least", "--subset-minimal"), "cycle.ndlp", cycle),
        (("ground",), "dense.ndlp", dense),
        (("solve", "--semantics", "least"), "dense.ndlp", dense),
    ]
    return [Call("large", argv, ((name, text),)) for argv, name, text in table]


def two_files_calls() -> list[Call]:
    loops_a, loops_b = loops(1200), loops(1200).replace("a", "c").replace("b", "d")
    edges = closure_text(chain_edges(40)).splitlines(keepends=True)
    closure = ("".join(edges[:-2]), "".join(edges[-2:]))
    robot = ROBOT.read_text(encoding="utf-8").splitlines(keepends=True)
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
    "chains": chains_calls,
    "large": large_calls,
    "two-files": two_files_calls,
    "late-fault": late_fault_calls,
}


class Result(NamedTuple):
    code: int
    stdout: bytes
    stderr: bytes


def untimed(stderr: bytes) -> bytes:
    """Stderr without the `solved in` line, whose figure varies by run."""
    return b"".join(line for line in stderr.splitlines(keepends=True)
                    if not line.startswith(b"solved in "))


def execute(src: Path, call: Call, directory: str) -> Result:
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "ndlp.cli", *call.argv, *[name for name, _ in call.files]]
    try:
        done = subprocess.run(argv, cwd=directory, env=env, capture_output=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Result(-1, b"", f"timed out after {TIMEOUT_S} s".encode())
    return Result(done.returncode, done.stdout, untimed(done.stderr))


def first_difference(a: bytes, b: bytes) -> str:
    """The first line at which `a` and `b` differ, both ways."""
    lines_a, lines_b = a.splitlines(keepends=True), b.splitlines(keepends=True)
    for number, (line_a, line_b) in enumerate(zip(lines_a, lines_b), 1):
        if line_a != line_b:
            return f"line {number}:\n  first:  {line_a[:300]!r}\n  second: {line_b[:300]!r}"
    shorter = min(len(lines_a), len(lines_b))
    return f"one ends after line {shorter}: the first has {len(lines_a)} lines, " \
           f"the second {len(lines_b)}"


def compare(call: Call, first: Path, second: Path, pool: ThreadPoolExecutor) -> str | None:
    """What differs between the two trees' runs of `call`, or None."""
    with tempfile.TemporaryDirectory(prefix="ndlp-compare-") as directory:
        for name, text in call.files:
            Path(directory, name).write_text(text, encoding="utf-8")
        a, b = pool.map(lambda src: execute(src, call, directory), (first, second))
    if a.code != b.code:
        return f"exit code {a.code} against {b.code}"
    for stream in ("stdout", "stderr"):
        if getattr(a, stream) != getattr(b, stream):
            return f"{stream} differs at {first_difference(getattr(a, stream), getattr(b, stream))}"
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
