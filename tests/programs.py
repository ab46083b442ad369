"""The large programs, and the commands the CI runs on them under limits.

`ROWS` is one table: each row is an `ndlp` command line, the programs it
reads, a wall-time limit, a peak-RSS cap where one applies, and the exit
code it must end with. A program is a generated file, by its name in
`programs()`, or a shipped example, by its path from the repository root.
The generators also build the programs of `compare_trees.py`,
`record_cli_outputs.py` and the tests' closure chains, so each program is
written once.

Run as a script, it writes the generated programs to a temporary
directory and runs each row once, one at a time, as `python -m ndlp.cli`
against this repository's `src`, with stdout to `/dev/null` and stderr to
a file. A child past its wall limit is killed. The peak RSS is read from
`os.wait4`. On Linux, exec carries the spawning process's high-water RSS
into the child's, so a row's peak is at least this script's own: the
script builds the programs' texts in a child of their own to keep that
floor at a bare interpreter's, and prints it once. It prints each row's
time and peak beside its limits and exits 1, naming the row, at the first
row over a limit or ending with another exit code. Stdlib only, and not
collected by pytest (`tests/test_programs.py` checks the table on every
tier-1 run):

    python tests/programs.py
"""

from __future__ import annotations

import argparse
import os
import random
import re
import resource
import subprocess
import sys
import tempfile
import threading
import time
from functools import cache
from itertools import combinations
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
EXAMPLES = "src/ndlp/examples/"


def closure_text(edges, tag: str = "") -> str:
    """The transitive closure of the edges `(a, b)` between nodes `n<a>`."""
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


def out_edges(rng: random.Random, nodes: int, degree: int) -> list[tuple[int, int]]:
    """`degree` out-edges from each node to other nodes drawn at random."""
    return [(a, b) for a in range(nodes)
            for b in sorted(rng.sample([x for x in range(nodes) if x != a], degree))]


def loops(n: int, bare: bool = False, one_line: bool = False) -> str:
    """`n` even loops, `{a<i>} :- not {b<i>}.` and `{b<i>} :- not {a<i>}.`,
    over bare atoms with `bare`; each rule on a line of its own, or each
    loop's two rules on one line with `one_line`."""
    gap = " " if one_line else "\n"
    if bare:
        return "".join(f"a{i} :- not b{i}.{gap}b{i} :- not a{i}.\n" for i in range(n))
    return "".join(f"{{a{i}}} :- not {{b{i}}}.{gap}{{b{i}}} :- not {{a{i}}}.\n"
                   for i in range(n))


def neg_chain(n: int, bare: bool = False) -> str:
    """A negation chain of `n` set-atoms `{x<i>, y<i>}` from a fact, or of
    bare atoms `x<i>` with `bare`."""
    if bare:
        return "x0.\n" + "".join(f"x{i} :- not x{i - 1}.\n" for i in range(1, n))
    return "{x0, y0}.\n" + "".join(f"{{x{i}, y{i}}} :- not {{x{i - 1}, y{i - 1}}}.\n"
                                   for i in range(1, n))


def conflict_modules(n: int) -> str:
    """`n` modules `{g<i>m} :- not {g<i>y}.` and `{g<i>y} :- not {g<i>y},
    not {g<i>m}.`, i zero-padded so that each module's atoms sit next to
    each other in key order: the one stable model is every `g<i>m`, and the
    search meets one conflict with each value of every `g<i>y`."""
    width = len(str(n - 1))
    return "".join(f"{{{g}m}} :- not {{{g}y}}. {{{g}y}} :- not {{{g}y}}, not {{{g}m}}.\n"
                   for g in [f"g{i:0{width}d}" for i in range(n)])


def name_chain(n: int, args: bool = False) -> str:
    """`{x<i>} :- not {x<i - 1>}.` for i from 1 to n - 1, without a fact,
    or over `x(i)` with `args`."""
    if args:
        return "".join(f"{{x({i})}} :- not {{x({i - 1})}}.\n" for i in range(1, n))
    return "".join(f"{{x{i}}} :- not {{x{i - 1}}}.\n" for i in range(1, n))


def facts(n: int) -> str:
    """`n` three-argument facts over 7 and 11 constants."""
    return "".join(f"{{p({i}, c{i % 7}, d{i % 11})}}.\n" for i in range(n))


def handover(lines: str) -> str:
    """Braced rules over names, then rules with arguments: the statement
    reader reads them all through its flat reader."""
    return lines + "{s(X)} :- {t(X)}. {t(a)}.\n"


def flat_rules(n: int, last: str = "{q(f(a), c0)}.\n") -> str:
    """`n` rules over flat atoms, each joining a variable with a constant,
    then one fact, by default with a compound term: the statement reader
    hands over to the token parser at that last fact. With a flat `last`,
    its flat reader takes the whole text, and the grounder its patterns."""
    return "".join(f"{{p{i % 7}(X, {i})}} :- {{q(X, c{i % 11})}}.\n" for i in range(n)) + last


ROBOT_ACTIONS = ("close", "flip_lock", "check", "inspect")
ROBOT_INITS = (("opened", "-locked"), ("opened", "locked"),
               ("-opened", "-locked"), ("-opened", "locked"))
ROBOT_PREDICATES = re.compile(r"\b(action|exec|contrary|holds|occ|abocc|goal|inconsistent)\b")


def robot_variant(horizon: int, init: tuple[str, str], actions: tuple[str, ...],
                  tag: str = "") -> str:
    """The planning example at `horizon`, from the initial state `init`,
    with only the actions `actions` available, and each of its predicates
    suffixed with `_<tag>` when one is given; comments dropped. These are
    the shapes of the planning requests the benchmark sends."""
    lines = []
    for line in text(EXAMPLES + "robot.ndlp").splitlines():
        if line.lstrip().startswith("%"):
            continue
        if line.startswith("#horizon"):
            line = f"#horizon {horizon}."
        elif line == "{holds(opened, 0)}.":
            line = f"{{holds({init[0]}, 0)}}."
        elif line == "{holds(-locked, 0)}.":
            line = f"{{holds({init[1]}, 0)}}."
        elif line.startswith("{action(") and line[len("{action("):-len(")}.")] not in actions:
            continue
        lines.append(line)
    program = "\n".join(lines) + "\n"
    return ROBOT_PREDICATES.sub(rf"\1_{tag}", program) if tag else program


def robot_variants() -> list[tuple[int, tuple[str, str], tuple[str, ...], str]]:
    """(horizon, init, actions, tag) of 24 robot variants: two action
    subsets per horizon 1-3 and initial state, stepping through the 15
    non-empty subsets seven at a time, so each is taken and every horizon
    meets subsets of each size; every other variant is tagged."""
    subsets = [subset for size in range(1, 5) for subset in combinations(ROBOT_ACTIONS, size)]
    pairs = [(horizon, init) for horizon in (1, 2, 3) for init in ROBOT_INITS]
    return [(horizon, init, subsets[7 * k % len(subsets)], f"v{k}" if k % 2 else "")
            for k, (horizon, init) in enumerate(pair for pair in pairs for _ in (0, 1))]


@cache
def programs() -> dict[str, str]:
    """The text of each generated program the rows read, by file name."""
    loop_lines = loops(5000, one_line=True).splitlines(keepends=True)
    n, k = 10000, 1000
    return {
        "loops.ndlp": "".join(loop_lines),
        "loops_a.ndlp": "".join(loop_lines[:2500]),
        "loops_b.ndlp": "".join(loop_lines[2500:]),
        "bare_loops.ndlp": loops(5000, bare=True, one_line=True),
        # a comment holding braces after each of the loops' rules
        "commented_loops.ndlp": loops(5000).replace(".\n", ". % {x} :- not {y}.\n"),
        "chain.ndlp": name_chain(5000),
        "conflicts.ndlp": conflict_modules(20000),
        "arg_chain.ndlp": name_chain(5000, args=True),
        "handover.ndlp": handover("".join(loop_lines[:2500])),
        "facts.ndlp": facts(20000),
        "mixed.ndlp": facts(20000) + "{q(X)} :- {p(X, c1, d1)}.\n",
        # a comment after each fact, which the statement reader keeps in the connectors
        "commented_facts.ndlp": facts(20000).replace(".\n", ". % a fact\n"),
        "flat_rules.ndlp": flat_rules(10000),
        "flat_patterns.ndlp": flat_rules(10000, "{q(a, c0)}.\n"),
        # a rule without variables whose body holds 10 000 facts
        "ground_body.ndlp": "".join(f"{{g{i}}}.\n" for i in range(n)) + "{h} :- " + ", ".join(
            f"{{g{i}}}" for i in range(n)) + ".\n{q(X)} :- {r(X)}. {r(a)}.\n",
        "closure.ndlp": closure_text(chain_edges(120)),
        "dense.ndlp": closure_text(out_edges(random.Random(7), 60, 3)),
        # a body set-atom of 1 000 members
        "wide.ndlp": "{h(X)} :- {" + ", ".join(f"p(X, {i})" for i in range(k)) + "}.\n{"
                     + ", ".join(f"p(a, {i})" for i in range(k)) + "}.\n",
        "sum.ndlp": "{p(T+1)} :- {p(T)}. {p(0)}.\n",
        "pairs.ndlp": "".join(f"{{p{i:02d}a, p{i:02d}b}}.\n" for i in range(18)),
        "pairs20.ndlp": "".join(f"{{p{i:02d}a, p{i:02d}b}}.\n" for i in range(20)),
        "cycle.ndlp": "".join(f"{{c{i:02d}, c{(i + 1) % 22:02d}}}.\n" for i in range(22)),
    }


def write_programs(directory: str) -> None:
    """Write each generated program to `directory` under its file name."""
    for name, program in programs().items():
        Path(directory, name).write_text(program, encoding="utf-8")


def text(file: str) -> str:
    """The text of a row's program: generated, or a shipped example."""
    if file.startswith(EXAMPLES):
        return (ROOT / file).read_text(encoding="utf-8")
    return programs()[file]


class Row(NamedTuple):
    args: tuple[str, ...]  # the command and its options; the files follow
    files: tuple[str, ...]
    wall_s: float
    rss_mib: int | None = None
    exit_code: int = 0

    def __str__(self) -> str:
        return f"ndlp {' '.join(self.args + self.files)}"


def _example(name: str) -> tuple[str]:
    return (EXAMPLES + name,)


STABLE_ONE = ("solve", "--semantics", "stable", "--max-models", "1")
WF = ("solve", "--semantics", "wf")
LEAST = ("solve", "--semantics", "least")

# What each limit catches:
# - the examples: any of them hanging;
# - 15 s: search or propagation turned quadratic, a repeated set-atom read
#   again, or a program read twice, over the parser's readers, and
#   the loops' rules spelled at size from one file and from two; with a
#   comment between every two rules, the statement reader's comments handled
#   in time quadratic in their number;
# - 15 s on the 20 000 conflict modules (80 000 decisions, 40 000 conflicts):
#   a conflict or its undo costing more than the module it closes, or a pivot
#   order that takes the atoms of a module apart;
# - 5 s and 2 s: a slower parser, a grounder that joins a rule without
#   variables per body fact, or a set-atom match turned quadratic; on the
#   facts with a comment each and the 10 000 flat rules that end in a
#   handover, the statement reader's comments or its flat reader turned
#   quadratic in the number of statements;
# - 5 s on the 10 000 flat rules that end in a flat fact, which the grounder
#   takes as set-atom patterns: a pattern or a rule's slots mapped in time
#   quadratic in the number of rules, or syntax values built for them;
# - the runaway grounding: it stops past MAX_GROUND_INSTANCES with exit 2;
# - robot grounded at horizon 200 (11 057 lines): a set-literal looked up
#   by key turned into a scan, or the instances' rank order into a slow sort;
# - robot at horizon 5 as JSON: the model arrays dumped through `json.dumps`;
# - the 18 pairs (262 144 answer sets): an atom rendered per entry, or a
#   report built as one string or an object per answer set;
# - the 20 pairs (1 048 576 answer sets): answer sets held as anything
#   larger than an int mask, or written other than from sub-mask tables;
# - robot at horizon 4 under `expand`: models not expanded one at a time
#   as the report is written;
# - the cycle of 22 overlapping pairs: a quadratic `--subset-minimal` filter.
ROWS: tuple[Row, ...] = (
    Row(("solve", "--semantics", "stable"), _example("teaching.ndlp"), 60),
    Row(WF, _example("wf_partial.ndlp"), 60),
    Row(LEAST, _example("fred.ndlp"), 60),
    Row(("expand", "--semantics", "stable", "--format", "json"), _example("teaching2.ndlp"), 60),
    Row(("solve", "--semantics", "stable"), _example("robot.ndlp"), 60),
    *[Row(("expand", "--max-answer-sets", "40", "--semantics", semantics),
          _example("connection.ndlp"), 60)
      for semantics in ("least", "stable", "wf")],
    Row(STABLE_ONE, ("loops.ndlp",), 15),
    Row(("ground",), ("loops.ndlp",), 15),
    Row((*STABLE_ONE, "--dump-ground"), ("loops.ndlp",), 15),
    Row((*STABLE_ONE, "--dump-ground"), ("loops_a.ndlp", "loops_b.ndlp"), 15),
    Row(STABLE_ONE, ("bare_loops.ndlp",), 15),
    Row(STABLE_ONE, ("commented_loops.ndlp",), 15),
    Row(("solve", "--semantics", "stable"), ("conflicts.ndlp",), 15),
    Row(WF, ("conflicts.ndlp",), 15),
    Row(WF, ("chain.ndlp",), 15),
    Row(WF, ("arg_chain.ndlp",), 15),
    Row(WF, ("handover.ndlp",), 15),
    Row(("ground",), ("chain.ndlp",), 5),
    Row(("ground",), ("facts.ndlp",), 5),
    Row(("ground",), ("mixed.ndlp",), 5),
    Row(("ground",), ("commented_facts.ndlp",), 5),
    Row(("ground",), ("flat_rules.ndlp",), 5),
    Row(("ground",), ("flat_patterns.ndlp",), 5),
    Row(STABLE_ONE, ("flat_patterns.ndlp",), 5),
    Row(("ground",), ("ground_body.ndlp",), 5),
    Row(("ground",), ("closure.ndlp",), 5),
    Row(LEAST, ("closure.ndlp",), 5),
    Row((*LEAST, "--format", "json"), ("closure.ndlp",), 5),
    Row((*LEAST, "--dump-ground"), ("closure.ndlp",), 5),
    Row(("ground",), ("dense.ndlp",), 5),
    Row(LEAST, ("dense.ndlp",), 5),
    Row(("ground",), ("wide.ndlp",), 2),
    Row(("ground", "--horizon", "5000"), ("sum.ndlp",), 5),
    Row(("ground", "--horizon", "1000000000"), ("sum.ndlp",), 10, exit_code=2),
    Row(("ground", "--horizon", "200"), _example("robot.ndlp"), 5),
    Row(("solve", "--horizon", "5"), _example("robot.ndlp"), 20),
    Row(("solve", "--horizon", "5", "--format", "json"), _example("robot.ndlp"), 2.5),
    Row(("expand", "--semantics", "least"), ("pairs.ndlp",), 5, rss_mib=110),
    Row(("expand", "--semantics", "least", "--format", "json"), ("pairs.ndlp",), 6, rss_mib=110),
    Row(("expand", "--semantics", "least"), ("pairs20.ndlp",), 5, rss_mib=110),
    Row(("expand", "--semantics", "least", "--format", "json"), ("pairs20.ndlp",), 5, rss_mib=110),
    *[Row(("expand", "--horizon", "4", "--format", fmt), _example("robot.ndlp"), 60, rss_mib=40)
      for fmt in ("text", "json")],
    Row(("expand", "--semantics", "least", "--subset-minimal"), ("cycle.ndlp",), 5),
)


class Run(NamedTuple):
    seconds: float
    peak_mib: float
    exit_code: int
    stderr: str


def run(row: Row, directory: str) -> Run:
    """Run `row` in `directory`, which holds the generated programs, and
    kill it once it passes its wall limit."""
    paths = [str(ROOT / file) if file.startswith(EXAMPLES) else file for file in row.files]
    argv = [sys.executable, "-m", "ndlp.cli", *row.args, *paths]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    with tempfile.TemporaryFile() as stderr:
        start = time.perf_counter()
        child = subprocess.Popen(argv, cwd=directory, env=env, stdout=subprocess.DEVNULL,
                                 stderr=stderr)
        timer = threading.Timer(row.wall_s, child.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:
            child.kill()
            child.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        stderr.seek(0)
        tail = stderr.read()[-2000:].decode("utf-8", "replace")
    # ru_maxrss is in KiB on Linux
    return Run(seconds, usage.ru_maxrss / 1024, child.returncode, tail)


def fault(row: Row, result: Run) -> str | None:
    """How `result` breaks one of `row`'s limits, or None."""
    if result.seconds > row.wall_s:
        return f"took {result.seconds:.2f} s, over its {row.wall_s:g} s limit"
    if row.rss_mib is not None and result.peak_mib > row.rss_mib:
        return f"peaked at {result.peak_mib:.0f} MiB, over its {row.rss_mib} MiB cap"
    if result.exit_code != row.exit_code:
        return f"exited with code {result.exit_code}, not {row.exit_code}"
    return None


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="ndlp-programs-") as directory:
        subprocess.run([sys.executable, "-c", "import programs, sys; "
                        "programs.write_programs(sys.argv[1])", directory],
                       cwd=Path(__file__).parent, check=True)
        # ru_maxrss is in KiB on Linux
        floor = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"this script peaked at {floor:.0f} MiB, the floor under every row's peak")
        print(f"{'time':>8} {'limit':>6} {'peak':>8} {'cap':>8} {'exit':>4}  command", flush=True)
        for row in ROWS:
            result = run(row, directory)
            cap = f"{row.rss_mib} MiB" if row.rss_mib is not None else "-"
            print(f"{result.seconds:6.2f} s {row.wall_s:4g} s {result.peak_mib:4.0f} MiB "
                  f"{cap:>8} {result.exit_code:4}  {row}", flush=True)
            problem = fault(row, result)
            if problem is not None:
                print(f"FAILED: {row}: {problem}\nits stderr ends:\n{result.stderr}")
                return 1
    print(f"{len(ROWS)} commands within their limits")
    return 0


if __name__ == "__main__":
    sys.exit(main())
