"""Traced replay of `ndlp.cli` requests, timing each layer from outside.

`TracedRun.cli` calls the layers' public functions in the order
`ndlp.cli._solve` uses and renders through `SolveReport`, so its stdout is
byte-identical to `cli.main`'s; the runner asserts that on every request.
Each layer call is a span (name, start, end, parent span, request id) kept
in memory; a layer's self time is its span's duration minus its children's,
and the request span's self time is `cli.other_s`: argparse, file reads,
sorting and report assembly. Counts are taken at the same boundaries; the
ones that need extra work (live rules, negated atoms, choice products) are
computed after the request's span has closed, off the timed path.
"""

from __future__ import annotations

import io
import math
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

LAYERS = ("parser", "grounder", "positive", "stable", "wf", "answersets", "cli")

# span name -> per-layer metric holding its summed self time
SPAN_METRICS = {
    "parser.parse": "parser.parse_s",
    "grounder.ground": "grounder.ground_s",
    "positive.least": "positive.least_s",
    "stable.search": "stable.search_s",
    "stable.check": "stable.check_s",
    "wf.wf": "wf.wf_s",
    "answersets.expand": "answersets.expand_s",
    "answersets.count": "answersets.count_s",
    "cli.render": "cli.render_s",
    "cli.request": "cli.other_s",
}

# Which end-to-end metric each layer metric should move, and where.
LAYER_MAP = {
    "parser.parse_s, parser.bytes": "latency_p50_s; at most 5% on every workload, no ROADMAP item targets it",
    "grounder.ground_s, grounder.rules, grounder.base_size": "ops_per_s, peak_rss_mb; large on closure, moderate on planning, trivial on chains and branching",
    "grounder.live_rule_ratio": "ops_per_s; useful-to-attempted ratio of ground rules",
    "positive.least_s, positive.model_atoms": "latency_p50_s; large on closure, trivial on branching",
    "stable.search_s, stable.models, stable.negated_atoms": "latency_p50_s on planning, latency_tail_s on chains; corpus share only on closure",
    "stable.check_s": "latency_p50_s on planning; is_stable from outside, traced run only",
    "wf.wf_s, wf.false, wf.undefined": "latency_tail_s on chains; small on branching, corpus share only on planning and closure",
    "answersets.expand_s, answersets.count_s, answersets.sets": "ops_per_s on branching; 3-11% on planning, corpus share only on closure and chains",
    "answersets.distinct_ratio": "ops_per_s on branching; 1 on disjoint pairs, far below 1 on overlapping pairs",
    "cli.render_s, cli.output_bytes": "latency_p50_s on branching; small on closure and chains",
    "cli.other_s": "none; traced request time minus the layer spans",
    "trace.overhead_ratio": "none; traced time without stable.check over untraced time",
}


@dataclass
class Span:
    request: int
    span: int
    parent: int | None
    name: str
    start: float
    end: float


class LayerError(Exception):
    """Wraps an exception raised inside a layer span, naming that layer."""

    def __init__(self, layer: str, error: BaseException):
        super().__init__(f"{type(error).__name__}: {error}")
        self.layer = layer
        self.error = error


class TracedRun:
    """Spans and counts of one traced pass over a workload's requests."""

    def __init__(self, engine):
        self.engine = engine
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()  # exceptions and failed checks per layer
        self._next = 0
        self._request = 0
        self._root: int | None = None

    def _call(self, name: str, fn, *args, **kwargs):
        span_id = self._next
        self._next += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as err:
            layer = name.split(".")[0]
            self.errors[layer] += 1
            raise LayerError(layer, err) from err
        finally:
            self.spans.append(Span(self._request, span_id, self._root, name, start,
                                   time.perf_counter()))

    def _open(self, request: int) -> float:
        self._request = request
        self._root = self._next
        self._next += 1
        return time.perf_counter()

    def _close(self, start: float) -> None:
        self.spans.append(Span(self._request, self._root, None, "cli.request", start,
                               time.perf_counter()))
        self._root = None

    # -- requests --------------------------------------------------------

    def cli(self, request: int, argv: list[str]) -> tuple[int, str]:
        """One `cli.main(argv)` for solve/expand, replayed layer by layer."""
        cli = self.engine.cli
        out, err = io.StringIO(), io.StringIO()
        after: list = []
        start = self._open(request)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                args = cli.build_parser().parse_args(argv)
                want = args.command == "expand" or args.answer_sets
                handled = (self.engine.errors.NdlpError, OSError)
                try:
                    rc = self._solve(args, want, after)
                except LayerError as wrapped:
                    if not isinstance(wrapped.error, handled):
                        raise
                    print(f"ndlp: error: {wrapped.error}", file=sys.stderr)
                    rc = 2
                except handled as error:
                    print(f"ndlp: error: {error}", file=sys.stderr)
                    rc = 2
        finally:
            self._close(start)
            for fn in after:
                fn()
        self.counts["cli.output_bytes"] += len(out.getvalue().encode())
        return rc, out.getvalue()

    def count(self, request: int, path: str) -> tuple[int, bool]:
        """The library path of a `count` request: parse, ground, least, count."""
        e = self.engine
        start = self._open(request)
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
            program = self._call("parser.parse", e.parser.parse_program, text)
            gp = self._call("grounder.ground", e.grounder.ground, program)
            model = self._call("positive.least", e.positive.least_model, gp)
            result = self._call("answersets.count", e.answersets.count, model)
        finally:
            self._close(start)
        self.counts["parser.bytes"] += len(text.encode())
        self._count_ground(gp)
        self.counts["positive.model_atoms"] += len(model)
        self.counts["answersets.sets"] += result[0]
        self.counts["answersets.products"] += _product(model)
        return result

    def _solve(self, args, want_answer_sets: bool, after: list) -> int:
        """`ndlp.cli._solve` with a span around every layer call."""
        e = self.engine
        sort_nd_atoms = e.syntax.sort_nd_atoms
        started = time.perf_counter()
        text = ""
        for path in args.files:
            with open(path, encoding="utf-8") as handle:
                text += handle.read()
        self.counts["parser.bytes"] += len(text.encode())
        program = self._call("parser.parse", e.parser.parse_program, text)
        gp = self._call("grounder.ground", e.grounder.ground, program, horizon=args.horizon)
        after.append(lambda: self._count_ground(gp))
        if args.dump_ground:
            sys.stdout.write(str(gp))

        report = e.cli.SolveReport(semantics=args.semantics, rule_count=len(gp.rules),
                                   base_size=len(gp.base))
        models: list = []
        if args.semantics == "least":
            if not program.is_positive():
                raise LayerError("positive", e.errors.NdlpError(
                    "least-model semantics is defined for negation-free programs; "
                    "use --semantics stable or wf"))
            models = [self._call("positive.least", e.positive.least_model, gp)]
            report.models = [list(sort_nd_atoms(m)) for m in models]
            self.counts["positive.model_atoms"] += len(models[0])
        elif args.semantics == "stable":
            result = self._call("stable.search", e.stable.enumerate_stable, gp,
                                max_models=args.max_models)
            models = list(result.models)
            for model in models:
                if not self._call("stable.check", e.stable.is_stable, gp, model):
                    self.errors["stable"] += 1
                    raise LayerError("stable", AssertionError("returned model is not stable"))
            report.models = [list(sort_nd_atoms(m)) for m in models]
            report.truncated |= result.truncated
            if result.truncated:
                print("model enumeration truncated by --max-models", file=sys.stderr)
            self.counts["stable.models"] += len(models)
            after.append(lambda: self._count_negated(gp))
        else:
            wf_model = self._call("wf.wf", e.wf.well_founded_model, gp)
            models = [wf_model]
            report.models = [list(sort_nd_atoms(wf_model.pos))]
            report.negatives = list(sort_nd_atoms(wf_model.neg))
            report.undefined = list(sort_nd_atoms(gp.base_set - wf_model.pos - wf_model.neg))
            report.total = wf_model.is_total(gp.base)
            self.counts["wf.false"] += len(wf_model.neg)
            self.counts["wf.undefined"] += len(report.undefined)

        if want_answer_sets:
            report.answer_sets = []
            for model in models:
                expansion = self._call("answersets.expand", e.answersets.expand, model,
                                       cap=args.max_answer_sets,
                                       subset_minimal=args.subset_minimal)
                report.answer_sets.append(list(expansion.answer_sets))
                report.truncated |= expansion.truncated
                if expansion.truncated:
                    print("answer-set expansion truncated by --max-answer-sets", file=sys.stderr)
                self.counts["answersets.sets"] += len(expansion)
                after.append(lambda m=model: self._count_product(m))

        report.timing_s = time.perf_counter() - started
        render = report.to_json if args.format == "json" else report.to_text
        sys.stdout.write(self._call("cli.render", render))
        print(f"solved in {report.timing_s:.3f}s", file=sys.stderr)
        return 0 if report.models else 1

    # -- counts computed off the timed path --------------------------------

    def _count_ground(self, gp) -> None:
        self.counts["grounder.rules"] += len(gp.rules)
        self.counts["grounder.base_size"] += len(gp.base)
        self.counts["grounder.live_rules"] += live_rules(gp.rules)

    def _count_negated(self, gp) -> None:
        negated = {lit.atom for rule in gp.rules for lit in rule.body if lit.negated}
        self.counts["stable.negated_atoms"] += len(negated)

    def _count_product(self, model) -> None:
        self.counts["answersets.products"] += _product(model)

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        child_time: Counter = Counter()
        for s in self.spans:
            if s.parent is not None:
                child_time[(s.request, s.parent)] += s.end - s.start
        totals: Counter = Counter()
        for s in self.spans:
            totals[s.name] += (s.end - s.start) - child_time[(s.request, s.span)]
        return dict(totals)

    def request_time(self) -> float:
        return sum(s.end - s.start for s in self.spans if s.parent is None)


def _product(model) -> int:
    """Size of the choice product a model's answer sets are drawn from."""
    atoms = list(getattr(model, "pos", model)) + list(getattr(model, "neg", ()))
    return math.prod(len(nd) for nd in atoms)


def live_rules(rules) -> int:
    """Rules whose positive body lies inside the closure that ignores
    negation: the ones grounding had to produce. Own worklist, sharing no
    code with the engine's fixpoints."""
    rules = list(rules)
    waiting: dict = {}
    missing = []
    derived: set = set()
    ready = []
    for i, rule in enumerate(rules):
        body = {lit.atom for lit in rule.body if not lit.negated}
        missing.append(len(body))
        for atom in body:
            waiting.setdefault(atom, []).append(i)
        if not body:
            ready.append(i)
    live = 0
    while ready:
        i = ready.pop()
        live += 1
        head = rules[i].head
        if head in derived:
            continue
        derived.add(head)
        for j in waiting.get(head, ()):
            missing[j] -= 1
            if missing[j] == 0:
                ready.append(j)
    return live


def layer_metrics(run: TracedRun, untraced_s: float) -> dict[str, float]:
    """Every per-layer metric of a traced pass."""
    selfs = run.self_times()
    c = run.counts
    metrics: dict[str, float] = {}
    for span, metric in SPAN_METRICS.items():
        metrics[metric] = selfs.get(span, 0.0)
    for name in ("parser.bytes", "grounder.rules", "grounder.base_size", "positive.model_atoms",
                 "stable.models", "stable.negated_atoms", "wf.false", "wf.undefined",
                 "answersets.sets", "cli.output_bytes"):
        metrics[name] = c[name]
    metrics["grounder.live_rule_ratio"] = c["grounder.live_rules"] / max(c["grounder.rules"], 1)
    metrics["answersets.distinct_ratio"] = c["answersets.sets"] / max(c["answersets.products"], 1)
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = run.errors[layer]
    traced = run.request_time() - selfs.get("stable.check", 0.0)
    metrics["trace.overhead_ratio"] = traced / untraced_s if untraced_s else 0.0
    return metrics
