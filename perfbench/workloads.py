"""Seeded workload generators for the ndlp benchmark.

A workload is a sequence of requests. Each run sends one pass over the
small shipped corpus (so that every layer does some work on every
workload), seeded variants drawn from a fixed cycle of size classes, in
whole cycles, and once each a few large variants (robot's full domain at
horizon 2, the two largest chains, a 16-pair count) and the workload's
named ROADMAP target instance. The cycle fixes the input mix and
the shape of every variant (initial states, sensing actions, graphs, pair
overlaps), so every seed sends inputs of the same cost and figures from
different seeds compare. The seed picks what does not change the work: the
order of the variants inside each cycle, the name tag every variant carries
in its predicate names (so no two requests of a run send the same text), and
the labels of graph nodes and of overlapping pair atoms.

Each request knows how to check its own output. Where the family has a
closed form the check computes the expected answer itself (reachability,
alternation, one atom per loop, 2^k answer sets); otherwise it compares a
normalized digest against `expected.json`, recorded from the engine by
`record.py`. Checks leave out the ground-rule count, the base size and wf
negatives, which join-driven grounding legitimately changes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from outputs import CheckFailed, parse_report, report_digest

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

WORKLOADS = ("planning", "closure", "chains", "branching")

ROBOT_ACTIONS = ("close", "flip_lock", "check", "inspect")
ROBOT_SENSING = ROBOT_ACTIONS[2:]
ROBOT_PREDICATE_RE = re.compile(r"\b(action|exec|contrary|holds|occ|abocc|goal|inconsistent)\b")
ROBOT_INITS = (("opened", "-locked"), ("opened", "locked"),
               ("-opened", "-locked"), ("-opened", "locked"))

# Size-class cycles. A run of --seconds S sends round(S / SECONDS_PER_CYCLE)
# whole cycles; every run, of any seed or commit, then sends inputs of the
# same cost in the same mix, so ops_per_s and the percentiles compare across
# runs, and a faster engine finishes sooner. Each cycle has the same layout,
# built for 4 cycles (the benchmark's --seconds 12), where the two latency
# percentiles each fall in the middle of one repeated class, not on a jump
# between classes:
#   4 cheap classes < 3 copies of the median class < (optional classes,
#   matched one for one by more cheap ones) < 3 copies of the tail class
#   < 1 top class.
# The median class holds samples 4C+1..7C of 11C in sorted order; the tail
# percentile leaves 10 samples beyond it, the C top ones and 10 - C of the
# 3C in the tail class, which at C = 4 is its middle. Costs are wall
# seconds on a 2-core x86 VM (Python 3.11.7) scaled by the speed probe.
SECONDS_PER_CYCLE = 3.0

PLANNING_CYCLE = ((1, (), 1), (2, (), 1), (1, ("close",), 1), (3, ("close",), 0),
                  (1, ("flip_lock",), 2), (1, ("flip_lock",), 2), (1, ("flip_lock",), 2),
                  (1, ("close", "flip_lock"), 2), (1, ("close", "flip_lock"), 2),
                  (1, ("close", "flip_lock"), 2),
                  (3, ("flip_lock",), 1))
# (horizon, acting actions, number of sensing actions); the cycle turn and
# position pick the sensing actions and the initial state. 0.08-0.17 s
# cheap, 0.24 s median class, 0.33 s tail class (the full domain at
# horizon 1), 0.7 s top.
PLANNING_ONCE = ((2, ("close", "flip_lock"), 2),)
# The full domain at horizon 2 (1.8 s), whose 64 plans and 600 trajectories
# are checked, goes once per run beside the cycle.
CLOSURE_CYCLE = ((12, "chain", "text"), (12, "graph", "text"), (13, "chain", "text"),
                 (14, "graph", "json"),
                 (14, "chain", "text"), (14, "chain", "text"), (14, "chain", "text"),
                 (16, "chain", "json"), (16, "chain", "json"), (16, "chain", "json"),
                 (18, "graph", "json"))
# (nodes, shape, format); ground rules grow with nodes^3: 0.13-0.21 s cheap,
# 0.25 s median class, 0.4 s tail class, 0.53 s top.
CHAINS_CYCLE = (("neg", 100, 1, "text"), ("loops", 100, 1, "text"), ("neg", 120, 1, "text"),
                ("loops", 120, 1, "json"),
                ("loops", 140, 1, "text"), ("loops", 140, 1, "text"), ("loops", 140, 1, "text"),
                ("neg", 220, 2, "json"), ("neg", 220, 2, "json"), ("neg", 220, 2, "json"),
                ("loops", 240, 1, "json"))
# (family, size, atoms per set, format): 0.08-0.15 s cheap, 0.2 s median
# class (stable loops), 0.5 s tail class (wf chains), 0.58 s top.
CHAINS_ONCE = (("neg", 400, 2, "json"), ("loops", 500, 1, "text"))
# wf negation chains are quadratic (1.9 s at 400); stable loops recurse
# once per loop (2.4 s at 500). The two largest sizes go once per run.
BRANCHING_CYCLE = (("wfpairs", 8, "text"), ("wfpairs", 8, "json"), ("wfpairs", 10, "text"),
                   ("wfpairs", 10, "json"), ("pairs", 10, "text"), ("pairs", 10, "json"),
                   ("overlap", 11, "text"), ("overlap", 11, "json"), ("pairs", 9, "json"),
                   ("overlap", 12, "text"), ("overlap", 12, "json"), ("overlap", 12, "text"),
                   ("pairs", 12, "text"), ("pairs", 12, "json"), ("pairs", 12, "text"),
                   ("overlap", 13, "text"), ("overlap", 13, "json"),
                   ("pairs", 13, "text"), ("pairs", 13, "text"), ("pairs", 13, "text"),
                   ("pairs", 14, "text"))
# (family, pairs, format); answer-set products of 2^8 to 2^14. 0.01-0.03 s
# cheap, 0.05 s median class, 0.1-0.12 s between, 0.2 s tail class,
# 0.45 s top (1.3 MB of text).
BRANCHING_ONCE = (("count", 16, "text"),)
# A library count over 16 pairs (0.9 s) goes once per run beside the target.

ONCE = {"planning": PLANNING_ONCE, "chains": CHAINS_ONCE, "branching": BRANCHING_ONCE}

SMALL_CYCLES = {
    "planning": ((1, ("close",), 0), (1, ("flip_lock",), 1)),
    "closure": ((5, "chain", "text"), (5, "graph", "json")),
    "chains": (("neg", 10, 1, "text"), ("loops", 10, 1, "json")),
    "branching": (("pairs", 4, "text"), ("overlap", 4, "json"), ("wfpairs", 4, "text"),
                  ("count", 6, "text")),
}
SMALL_ONCE = {"planning": ((1, ("close",), 0),),
              "chains": (("neg", 20, 2, "json"), ("loops", 20, 1, "text")),
              "branching": (("count", 6, "text"),)}

# Variants in the traced round after the fixed requests: a fixed prefix of
# the variant sequence, so per-layer counts repeat exactly.
TRACE_VARIANTS = {"planning": 4, "closure": 8, "chains": 8, "branching": 10}


@dataclass
class Request:
    """One benchmark request: a CLI call, or a library `count` call.

    `files` maps a file name in the work directory to its text; `argv`
    names them by that name and `run.py` substitutes the paths.
    """

    name: str
    kind: str  # "cli" or "count"
    files: dict[str, str]
    argv: list[str] = field(default_factory=list)
    expect_rc: int = 0
    check: Callable[[str], None] | None = None  # raises CheckFailed
    expect_count: int | None = None
    layer: str = "cli"  # layer blamed when the check fails
    known_failure: str | None = None  # exception type a known defect raises


def load_expected() -> dict[str, str]:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _tag(rng: random.Random, index: int) -> str:
    return f"v{index}x{rng.getrandbits(24):06x}"


def _atoms(nd_list) -> set[str]:
    return {a for nd in nd_list for a in nd}


# ---------------------------------------------------------------------------
# Checks shared by several families
# ---------------------------------------------------------------------------

def _digest_check(key: str, expected: dict[str, str], tag: str | None, layer: str):
    def check(stdout: str) -> None:
        text = stdout.replace("_" + tag, "") if tag else stdout
        got = report_digest(text)
        want = expected.get(key)
        if want is None:
            raise CheckFailed(layer, f"no recorded output for {key}")
        if got != want:
            raise CheckFailed(layer, f"output differs from the recording for {key}")
    return check


# ---------------------------------------------------------------------------
# Corpus pass: every layer, a few milliseconds
# ---------------------------------------------------------------------------

CORPUS_REQUESTS = (
    ("fred.ndlp", "expand", "least", 0),
    ("connection.ndlp", "solve", "least", 0),
    ("teaching.ndlp", "expand", "stable", 0),
    ("teaching2.ndlp", "expand", "stable", 0),
    ("no_stable.ndlp", "expand", "stable", 1),
    ("wf_chain.ndlp", "expand", "wf", 0),
    ("wf_mutual.ndlp", "expand", "wf", 0),
    ("wf_partial.ndlp", "expand", "wf", 0),
)
SEMANTICS_LAYER = {"least": "positive", "stable": "stable", "wf": "wf"}
FRED_COUNT = 49  # distinct answer sets of fred's least model, as the test suite states


def corpus_key(name: str, command: str, semantics: str) -> str:
    return f"corpus {name} {command} {semantics}"


def corpus_requests(examples: Path, expected: dict[str, str]) -> list[Request]:
    out = []
    for name, command, semantics, rc in CORPUS_REQUESTS:
        text = (examples / name).read_text(encoding="utf-8")
        key = corpus_key(name, command, semantics)
        out.append(Request(
            name=key, kind="cli", files={name: text},
            argv=[command, "--semantics", semantics, name],
            expect_rc=rc, check=_digest_check(key, expected, None, SEMANTICS_LAYER[semantics]),
            layer=SEMANTICS_LAYER[semantics],
        ))
    fred = (examples / "fred.ndlp").read_text(encoding="utf-8")
    out.append(Request(name="corpus fred.ndlp count", kind="count",
                       files={"fred.ndlp": fred},
                       expect_count=FRED_COUNT, layer="answersets"))
    return out


# ---------------------------------------------------------------------------
# planning: the robot domain under expand (stable semantics)
# ---------------------------------------------------------------------------

def robot_variant(base: str, horizon: int, init: tuple[str, str], actions, tag: str | None) -> str:
    """robot.ndlp with another initial state and action subset.

    Comments are dropped; a tag suffixes every predicate name, which keeps
    the output order (no predicate is a prefix of another) and so the
    recorded digest applies after the tag is stripped.
    """
    lines = []
    for line in base.splitlines():
        if line.lstrip().startswith("%"):
            continue
        if line.startswith("#horizon"):
            line = f"#horizon {horizon}."
        elif line == "{holds(opened, 0)}.":
            line = f"{{holds({init[0]}, 0)}}."
        elif line == "{holds(-locked, 0)}.":
            line = f"{{holds({init[1]}, 0)}}."
        elif line.startswith("{action(") and line[8:-3] not in actions:
            continue
        lines.append(line)
    text = "\n".join(lines) + "\n"
    if tag:
        text = ROBOT_PREDICATE_RE.sub(rf"\1_{tag}", text)
    return text


def robot_key(horizon: int, init, actions) -> str:
    return f"robot h={horizon} init={','.join(init)} actions={','.join(actions)}"


def robot_actions(acting, sensing) -> tuple[str, ...]:
    return tuple(sorted(acting + sensing, key=ROBOT_ACTIONS.index))


def robot_combos(cycle):
    """Every (horizon, init, actions) a cycle can draw; record.py covers these."""
    for horizon, acting, s in sorted(set(cycle)):
        for sensing in itertools.combinations(ROBOT_SENSING, s):
            for init in ROBOT_INITS:
                yield horizon, init, robot_actions(acting, sensing)


def _robot_models_check(horizon: int, n_actions: int, full: bool):
    """One plan per action choice at each of the horizon + 1 steps; the
    full domain at horizon 2 has 64 plans and 600 trajectories from any of
    the four initial states."""
    def check(stdout: str) -> None:
        report = parse_report(stdout, "text")
        want = n_actions ** (horizon + 1)
        if len(report["models"]) != want:
            raise CheckFailed("stable", f"{len(report['models'])} models, expected {want}")
        if full and horizon == 2:
            sets = sum(len(per) for per in report["answer_sets"])
            if sets != 600:
                raise CheckFailed("answersets", f"{sets} answer sets, expected 600")
    return check


def _both(*checks):
    def check(stdout: str) -> None:
        for c in checks:
            c(stdout)
    return check


def planning_request(base: str, expected, horizon, init, actions, tag) -> Request:
    key = robot_key(horizon, init, actions)
    text = robot_variant(base, horizon, init, actions, tag)
    checks = [_digest_check(key, expected, tag, "stable")]
    if horizon <= 2:
        checks.append(_robot_models_check(horizon, len(actions), len(actions) == 4))
    return Request(name=f"{key} tag={tag}", kind="cli", files={"robot.ndlp": text},
                   argv=["expand", "robot.ndlp"], check=_both(*checks),
                   layer="stable")


def planning_target(examples: Path, expected, small: bool) -> Request:
    """The unmodified robot.ndlp at horizon 3 (ROADMAP item 3 target)."""
    horizon = 1 if small else 3
    key = robot_key(horizon, ROBOT_INITS[0], ROBOT_ACTIONS)
    text = (examples / "robot.ndlp").read_text(encoding="utf-8")
    return Request(name=f"target robot.ndlp --horizon {horizon}", kind="cli",
                   files={"robot.ndlp": text},
                   argv=["expand", "--horizon", str(horizon), "robot.ndlp"],
                   check=_digest_check(key, expected, None, "stable"),
                   layer="stable")


def planning_variant(rng, shape, index, cls, base, expected) -> Request:
    horizon, acting, s = cls
    actions = robot_actions(acting, tuple(shape.sample(ROBOT_SENSING, s)))
    init = shape.choice(ROBOT_INITS)
    return planning_request(base, expected, horizon, init, actions, _tag(rng, index))


# ---------------------------------------------------------------------------
# closure: transitive closure under solve --semantics least
# ---------------------------------------------------------------------------

def closure_text(edges, tag: str) -> str:
    facts = "".join(f"{{edge{tag}(n{a}, n{b})}}.\n" for a, b in edges)
    return facts + (
        f"{{path{tag}(X, Y)}} :- {{edge{tag}(X, Y)}}.\n"
        f"{{path{tag}(X, Z)}} :- {{edge{tag}(X, Y)}}, {{path{tag}(Y, Z)}}.\n"
    )


def reachability(edges) -> set[tuple[int, int]]:
    succ: dict[int, set[int]] = {}
    for a, b in edges:
        succ.setdefault(a, set()).add(b)
    closure = set()
    for start in succ:
        seen, stack = set(), list(succ[start])
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(succ.get(node, ()))
        closure.update((start, node) for node in seen)
    return closure


def _closure_check(edges, tag: str, fmt: str):
    want = {f"edge{tag}(n{a}, n{b})" for a, b in edges}
    want |= {f"path{tag}(n{a}, n{b})" for a, b in reachability(edges)}

    def check(stdout: str) -> None:
        report = parse_report(stdout, fmt)
        if len(report["models"]) != 1:
            raise CheckFailed("positive", f"{len(report['models'])} models, expected 1")
        got = _atoms(report["models"][0])
        if got != want or any(len(nd) != 1 for nd in report["models"][0]):
            raise CheckFailed("positive", f"least model has {len(got)} atoms, "
                              f"reachability gives {len(want)}")
    return check


def closure_request(name: str, edges, tag: str, fmt: str) -> Request:
    argv = ["solve", "--semantics", "least", "closure.ndlp"]
    if fmt == "json":
        argv[1:1] = ["--format", "json"]
    return Request(name=name, kind="cli", files={"closure.ndlp": closure_text(edges, tag)},
                   argv=argv,
                   check=_closure_check(edges, tag, fmt), layer="positive")


def chain_edges(n_edges: int):
    return [(i, i + 1) for i in range(n_edges)]


def graph_edges(shape: random.Random, nodes: int):
    """Every node has an out-edge, so all of them are grounding constants."""
    edges = set()
    for a in range(nodes):
        b = shape.randrange(nodes - 1)
        edges.add((a, b + (b >= a)))
    for _ in range(nodes // 4):
        a, b = shape.sample(range(nodes), 2)
        edges.add((a, b))
    return sorted(edges)


def relabel(rng: random.Random, edges, nodes: int):
    """The same graph with its nodes renumbered by a seeded permutation."""
    label = list(range(nodes))
    rng.shuffle(label)
    return sorted((label[a], label[b]) for a, b in edges)


def closure_target(small: bool) -> Request:
    """A 30-edge chain (ROADMAP item 4 target)."""
    n = 6 if small else 30
    return closure_request(f"target chain of {n} edges", chain_edges(n), "", "text")


def closure_variant(rng, shape, index, cls) -> Request:
    nodes, family, fmt = cls
    tag = "_" + _tag(rng, index)
    edges = chain_edges(nodes - 1) if family == "chain" else graph_edges(shape, nodes)
    return closure_request(f"closure {family} nodes={nodes} {fmt} tag={tag}",
                           relabel(rng, edges, nodes), tag, fmt)


# ---------------------------------------------------------------------------
# chains: wf negation chains and stable even loops
# ---------------------------------------------------------------------------

def _nd(name: str, i: int, width: int) -> str:
    return "{" + ", ".join(f"{name}{m}_{i}" for m in "xy"[:width]) + "}"


def neg_chain_request(rng, index, n: int, width: int, fmt: str, starts_true: bool) -> Request:
    """x_0 is a fact or has no rule; x_i :- not x_{i-1} then alternates."""
    tag = _tag(rng, index)
    name = f"c{tag}"
    rules = [f"{_nd(name, 0, width)}.\n"] if starts_true else []
    rules += [f"{_nd(name, i, width)} :- not {_nd(name, i - 1, width)}.\n" for i in range(1, n + 1)]
    true_parity = 0 if starts_true else 1
    want = {f"{name}{m}_{i}" for i in range(n + 1) if i % 2 == true_parity for m in "xy"[:width]}

    def check(stdout: str) -> None:
        report = parse_report(stdout, fmt)
        if report["undefined"] or not report["total"]:
            raise CheckFailed("wf", "negation chain left atoms undefined")
        if _atoms(report["models"][0]) != want:
            raise CheckFailed("wf", "negation chain does not alternate true/false")

    argv = ["solve", "--semantics", "wf", "chain.ndlp"]
    if fmt == "json":
        argv[1:1] = ["--format", "json"]
    return Request(name=f"wf negation chain n={n} width={width} {fmt} tag={tag}", kind="cli",
                   files={"chain.ndlp": "".join(rules)}, argv=argv, check=check, layer="wf")


def loops_request(n: int, tag: str, fmt: str, name: str) -> Request:
    """n independent even loops {a_i} :- not {b_i}. {b_i} :- not {a_i}.
    Any single stable model is accepted: ROADMAP leaves open whether
    --max-models returns a prefix of the canonical list or a subset."""
    a, b = f"a{tag}_", f"b{tag}_"
    text = "".join(f"{{{a}{i}}} :- not {{{b}{i}}}.\n{{{b}{i}}} :- not {{{a}{i}}}.\n"
                   for i in range(n))

    def check(stdout: str) -> None:
        report = parse_report(stdout, fmt)
        if len(report["models"]) != 1:
            raise CheckFailed("stable", f"{len(report['models'])} models, expected 1")
        got = _atoms(report["models"][0])
        for i in range(n):
            if (f"{a}{i}" in got) == (f"{b}{i}" in got):
                raise CheckFailed("stable", f"loop {i} does not take exactly one of a/b")
        if len(got) != n:
            raise CheckFailed("stable", "model holds atoms outside the loops")

    argv = ["solve", "--semantics", "stable", "--max-models", "1", "loops.ndlp"]
    if fmt == "json":
        argv[1:1] = ["--format", "json"]
    return Request(name=name, kind="cli", files={"loops.ndlp": text}, argv=argv, check=check,
                   layer="stable")


def chains_target(small: bool) -> Request:
    """1 200 independent even loops with --max-models 1 (ROADMAP item 3
    target). The search recurses once per decision, so this raises
    RecursionError: a known defect, counted in failed_ratio and ok_ratio
    as the one expected failure. Any other outcome is judged as usual."""
    n = 30 if small else 1200
    request = loops_request(n, "", "text", f"target {n} even loops --max-models 1")
    request.known_failure = None if small else "RecursionError"
    return request


def chains_variant(rng, shape, index, cls) -> Request:
    family, n, width, fmt = cls
    if family == "neg":
        return neg_chain_request(rng, index, n, width, fmt, shape.random() < 0.5)
    tag = _tag(rng, index)
    return loops_request(n, tag, fmt, f"stable even loops n={n} {fmt} tag={tag}")


# ---------------------------------------------------------------------------
# branching: answer-set expansion, rendering and counting
# ---------------------------------------------------------------------------

def _pair_lines(pairs) -> str:
    return "".join("{" + ", ".join(p) + "}.\n" for p in pairs)


def _images(pairs) -> tuple[dict[str, int], set[int]]:
    """Distinct images of the choice functions over `pairs`, as bitmasks
    over the atoms, built pair by pair so duplicates collapse early."""
    bit = {atom: 1 << i for i, atom in enumerate(sorted({a for p in pairs for a in p}))}
    images = {0}
    for pair in pairs:
        images = {m | bit[a] for m in images for a in pair}
    return bit, images


def _masks(bit: dict[str, int], answer_sets) -> list[int]:
    masks = []
    for entries in answer_sets:
        mask = 0
        for entry in entries:
            if not entry.startswith("not "):
                mask |= bit.get(entry, -1)
        masks.append(mask)
    return masks


def _answer_set_check(pairs, fmt: str):
    """Answer sets must be exactly the distinct images of the choices."""
    model = {tuple(sorted(p)) for p in pairs}

    def check(stdout: str) -> None:
        report = parse_report(stdout, fmt)
        if len(report["models"]) != 1 or {tuple(sorted(nd)) for nd in report["models"][0]} != model:
            raise CheckFailed("positive", "model is not the set of pair facts")
        bit, want = _images(pairs)
        got = _masks(bit, report["answer_sets"][0])
        if len(got) != len(set(got)) or set(got) != want:
            raise CheckFailed("answersets", f"{len(set(got))} answer sets, expected {len(want)}")
    return check


def pairs_request(rng, shape, index, k: int, fmt: str, overlap: bool) -> Request:
    tag = _tag(rng, index)
    if overlap:
        # pairs over a pool of k atoms, so branches collapse into each other;
        # the shape fixes which pairs overlap, the seed the atoms' labels
        pairs = {tuple(sorted(shape.sample(range(k), 2))) for _ in range(k)}
        while len(pairs) < k:
            pairs.add(tuple(sorted(shape.sample(range(k + 1), 2))))
        label = list(range(k + 1))
        rng.shuffle(label)
        pairs = [(f"p{tag}_{label[a]}", f"p{tag}_{label[b]}") for a, b in sorted(pairs)]
    else:
        pairs = [(f"x{tag}_{i}", f"y{tag}_{i}") for i in range(k)]
    argv = ["expand", "--semantics", "least", "pairs.ndlp"]
    if fmt == "json":
        argv[1:1] = ["--format", "json"]
    kind = "overlapping" if overlap else "disjoint"
    return Request(name=f"{kind} pairs k={k} {fmt} tag={tag}", kind="cli",
                   files={"pairs.ndlp": _pair_lines(pairs)}, argv=argv,
                   check=_answer_set_check(pairs, fmt), layer="answersets")


def wf_pairs_request(rng, shape, index, size: int, fmt: str) -> Request:
    """Pair facts, pairs supported through the negation of an unfounded
    pair, and sometimes an undefined even loop. The answer sets pick one
    atom of every true pair; their signed `not` entries are left unchecked."""
    tag = _tag(rng, index)
    negated = shape.randint(1, size // 3)
    facts = size - 2 * negated
    loop = shape.random() < 0.5
    lines = [f"{{x{tag}_{i}, y{tag}_{i}}}.\n" for i in range(facts)]
    lines += [f"{{r{tag}_{j}, s{tag}_{j}}} :- not {{u{tag}_{j}, v{tag}_{j}}}.\n" for j in range(negated)]
    if loop:
        lines += [f"{{p{tag}}} :- not {{q{tag}}}.\n", f"{{q{tag}}} :- not {{p{tag}}}.\n"]
    true_pairs = [(f"x{tag}_{i}", f"y{tag}_{i}") for i in range(facts)]
    true_pairs += [(f"r{tag}_{j}", f"s{tag}_{j}") for j in range(negated)]
    want_model = {tuple(sorted(p)) for p in true_pairs}
    want_undefined = {f"p{tag}", f"q{tag}"} if loop else set()

    def check(stdout: str) -> None:
        report = parse_report(stdout, fmt)
        if {tuple(sorted(nd)) for nd in report["models"][0]} != want_model:
            raise CheckFailed("wf", "wf true atoms differ from the true pairs")
        if _atoms(report["undefined"]) != want_undefined or report["total"] == loop:
            raise CheckFailed("wf", "wf undefined atoms differ from the even loop")
        bit, want = _images(true_pairs)
        if set(_masks(bit, report["answer_sets"][0])) != want:
            raise CheckFailed("answersets", "answer sets do not pick one atom per true pair")

    argv = ["expand", "--semantics", "wf", "wfpairs.ndlp"]
    if fmt == "json":
        argv[1:1] = ["--format", "json"]
    return Request(name=f"wf pairs size={size} loop={loop} {fmt} tag={tag}", kind="cli",
                   files={"wfpairs.ndlp": "".join(lines)}, argv=argv, check=check,
                   layer="answersets")


def count_request(k: int, tag: str, name: str) -> Request:
    text = "".join(f"{{x{tag}_{i}, y{tag}_{i}}}.\n" for i in range(k))
    return Request(name=name, kind="count", files={"count.ndlp": text},
                   expect_count=2 ** k, layer="answersets")


def branching_target(small: bool) -> Request:
    """ndlp.count over 18 disjoint pairs (ROADMAP item 5 target)."""
    k = 8 if small else 18
    return count_request(k, "", f"target count of {k} disjoint pairs")


def branching_variant(rng, shape, index, cls) -> Request:
    family, k, fmt = cls
    if family == "count":
        tag = _tag(rng, index)
        return count_request(k, tag, f"count of {k} disjoint pairs tag={tag}")
    if family == "wfpairs":
        return wf_pairs_request(rng, shape, index, k, fmt)
    return pairs_request(rng, shape, index, k, fmt, overlap=family == "overlap")


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

class Workload:
    """The request sequence of one workload for one seed."""

    def __init__(self, name: str, seed: int, examples: Path, small: bool = False):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.small = small
        self.examples = examples
        self.expected = load_expected()
        self.cycle = SMALL_CYCLES[name] if small else {
            "planning": PLANNING_CYCLE, "closure": CLOSURE_CYCLE,
            "chains": CHAINS_CYCLE, "branching": BRANCHING_CYCLE}[name]
        self.robot = (examples / "robot.ndlp").read_text(encoding="utf-8")
        seed_bytes = hashlib.sha256(f"{name}:{seed}".encode()).digest()
        self._seed = int.from_bytes(seed_bytes[:8], "big")

    def corpus(self) -> list[Request]:
        return corpus_requests(self.examples, self.expected)

    def target(self) -> Request:
        """The workload's ROADMAP target instance, sent once per run."""
        if self.name == "planning":
            return planning_target(self.examples, self.expected, self.small)
        make = {"closure": closure_target, "chains": chains_target,
                "branching": branching_target}[self.name]
        return make(self.small)

    def once(self) -> list[Request]:
        """Variants sent once per run beside the cycle."""
        rng = random.Random(self._seed * 1_000_003 - 2)
        shape = random.Random(f"{self.name}:once")
        sizes = (SMALL_ONCE if self.small else ONCE).get(self.name, ())
        return [self._make(rng, shape, 1_000_000 + i, cls) for i, cls in enumerate(sizes)]

    def fixed(self) -> list[Request]:
        """The requests every run sends whatever its length."""
        return self.corpus() + self.once() + [self.target()]

    def timed_requests(self, seconds: float) -> int:
        """Variants in a timed run: whole cycles, SECONDS_PER_CYCLE each."""
        cycles = 1 if self.small else max(1, round(seconds / SECONDS_PER_CYCLE))
        return cycles * len(self.cycle)

    def variant(self, index: int) -> Request:
        """Variant `index` of the seeded sequence; index -1 is the warm-up.

        Cycle turn t sends the cycle's classes in a seeded order. The class
        at cycle position p gets its shape from (t, p) alone, so every seed
        sends the same multiset of shapes; `rng`, from the seed, only names
        and labels them.
        """
        rng = random.Random(self._seed * 1_000_003 + index)
        if index < 0:
            cls = SMALL_CYCLES[self.name][0]
            shape = random.Random(f"{self.name}:warm-up")
            return self._make(rng, shape, index % 1_000_000, cls)
        turn, slot = divmod(index, len(self.cycle))
        order = list(range(len(self.cycle)))
        random.Random(f"{self._seed}:order:{turn}").shuffle(order)
        position = order[slot]
        shape = random.Random(f"{self.name}:{turn}:{position}")
        return self._make(rng, shape, turn * len(self.cycle) + position, self.cycle[position])

    def _make(self, rng, shape, index: int, cls) -> Request:
        if self.name == "planning":
            return planning_variant(rng, shape, index, cls, self.robot, self.expected)
        make = {"closure": closure_variant, "chains": chains_variant,
                "branching": branching_variant}[self.name]
        return make(rng, shape, index, cls)

    def trace_round(self) -> list[Request]:
        n = 2 if self.small else TRACE_VARIANTS[self.name]
        return self.fixed() + [self.variant(i) for i in range(n)]
