"""Command-line front end: load, ground, solve, expand.

Commands:
    ndlp solve  [--semantics least|stable|wf] [options] FILE...
    ndlp ground [--horizon N] FILE...
    ndlp expand [--semantics ...] FILE...      (solve plus answer sets)

Exit codes: 0 with at least one model, 1 with none (unsatisfiable under the
stable semantics), 2 on usage, parse, or grounding errors. Reports are
deterministic for a fixed input and flag set; the JSON form is byte-stable,
with timing kept off it and on stderr.

The argparse parser is built once per process. The ground rules are
spelled out only for `ground` and `--dump-ground`.

From the search to the report a model stays the sorted indices of its
NdAtoms in the compiled program, whose atoms are in key order: the report's
NdAtom lists index them with no sort, and answer sets expand over the
program's one atom table. The report renders each NdAtom of the models once
and lays out its JSON arrays itself.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _encode
from typing import Iterable

from .answersets import AnswerSet, expand_ids
from .errors import NdlpError
from .grounder import GroundProgram, ground
from .parser import parse_files
from .stable import enumerate_stable
from .syntax import NdAtom, Program


class _Rendered(dict):
    """Each NdAtom's rendering, made by `render` on its first lookup."""

    def __init__(self, render):
        super().__init__()
        self.render = render

    def __missing__(self, nd: NdAtom) -> str:
        value = self[nd] = self.render(nd)
        return value


@dataclass
class SolveReport:
    semantics: str
    models: list[list[NdAtom]] = field(default_factory=list)
    negatives: list[NdAtom] | None = None  # wf only
    undefined: list[NdAtom] | None = None  # wf only
    total: bool | None = None  # wf only
    answer_sets: list[list[AnswerSet]] | None = None
    truncated: bool = False
    rule_count: int = 0
    base_size: int = 0
    timing_s: float = 0.0

    def to_json(self) -> str:
        """`json.dumps(payload, indent=2, sort_keys=True)` of the report.

        The arrays of NdAtoms and of answer sets are laid out here and
        spliced around the dumped scalars: each NdAtom of a model is laid out
        once per report, each atom of an answer set once per atom table.
        """
        arrays = _Rendered(lambda nd: _nd_json(nd, 3))
        models = [_json_array(map(arrays.__getitem__, model), 2, item=True)
                  for model in self.models]
        head = [("answer_sets", _answer_sets_json(self.answer_sets or [])),
                ("models", _json_array(models, 1))]
        tail = []
        scalars: dict = {
            "semantics": self.semantics,
            "truncated": self.truncated,
            "stats": {"rules": self.rule_count, "base_size": self.base_size},
        }
        if self.semantics == "wf":
            scalars["total"] = bool(self.total)
            head.append(("negatives", _nd_arrays(self.negatives or [])))
            tail.append(("undefined", _nd_arrays(self.undefined or [])))
        rest = json.dumps(scalars, indent=2, sort_keys=True)
        # keys sort as answer_sets, models, negatives, the scalars, undefined
        parts = ["{"]
        for key, value in head:
            parts += (_NEWLINE[1], f'"{key}": ', value, ",")
        parts.append(rest[1:-2])
        for key, value in tail:
            parts += (",", _NEWLINE[1], f'"{key}": ', value)
        parts.append("\n}\n")
        return "".join(parts)

    def to_text(self) -> str:
        lines = [f"semantics: {self.semantics}"]
        lines.append(f"ground rules: {self.rule_count}, base size: {self.base_size}")
        if not self.models:
            lines.append("no models")
        indented = _Rendered(lambda nd: f"  {nd}")
        for i, model in enumerate(self.models, start=1):
            lines.append(f"model {i}:")
            lines.extend(map(indented.__getitem__, model))
            if self.semantics == "wf":
                for atom in self.negatives or []:
                    lines.append(f"  not {atom}")
                if self.undefined:
                    lines.append("  undefined:")
                    for atom in self.undefined:
                        lines.append(f"    {atom}")
                lines.append(f"  total: {'yes' if self.total else 'no'}")
            if self.answer_sets is not None:
                for j, answer_set in enumerate(self.answer_sets[i - 1], start=1):
                    lines.append(f"  answer set {i}.{j}: {answer_set}")
        if self.truncated:
            lines.append("truncated: yes")
        return "\n".join(lines) + "\n"


# A line break and the indent of `json.dumps(indent=2)` at each depth.
_NEWLINE = tuple("\n" + "  " * depth for depth in range(5))


def _json_array(items: Iterable[str], depth: int, item: bool = False) -> str:
    """`json.dumps(indent=2)`'s layout of an array at `depth` whose items
    are already encoded, each after its own `_NEWLINE[depth + 1]`. As an
    `item` of an enclosing array, it comes after its own line break."""
    lead = _NEWLINE[depth] if item else ""
    body = ",".join(items)
    return f"{lead}[{body}{_NEWLINE[depth]}]" if body else lead + "[]"


def _nd_json(nd: NdAtom, depth: int) -> str:
    """An NdAtom's array of atom texts as an item at `depth`."""
    return _json_array([_NEWLINE[depth + 1] + _encode(a.text) for a in nd.atoms], depth,
                       item=True)


def _nd_arrays(nd_atoms: list[NdAtom]) -> str:
    """An array of NdAtoms at depth 1."""
    return _json_array([_nd_json(nd, 2) for nd in nd_atoms], 1)


def _answer_sets_json(answer_sets: list[list[AnswerSet]]) -> str:
    """The `answer_sets` value of the JSON report, at depth 1. Each atom's
    entries, `a` and `not a`, are encoded once per atom table."""
    encoded: dict = {}
    models = []
    for sets in answer_sets:
        rows = []
        for s in sets:
            if s.table not in encoded:
                encoded[s.table] = [[_NEWLINE[4] + _encode(t) for t in texts]
                                    for texts in (s.table.texts, s.table.nots)]
            texts, nots = encoded[s.table]
            entries = [*map(texts.__getitem__, s.pos), *map(nots.__getitem__, s.neg)]
            rows.append(_json_array(entries, 3, item=True))
        models.append(_json_array(rows, 2, item=True))
    return _json_array(models, 1)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as err:
        raise NdlpError(f"{path}: not valid UTF-8 ({err.reason} at byte {err.start})") from err


def _load(paths: list[str], horizon: int | None) -> tuple[Program, GroundProgram]:
    """Parse the files in order as one program (see `parse_files`)."""
    program = parse_files([(p, _read(p)) for p in paths])
    return program, ground(program, horizon=horizon)


def _solve(args: argparse.Namespace, want_answer_sets: bool) -> int:
    started = time.perf_counter()
    program, gp = _load(args.files, args.horizon)
    if args.dump_ground:
        sys.stdout.write(str(gp))

    # each model as the ids of its positive and negative NdAtoms, which
    # index the compiled program's atoms in key order
    compiled = gp.compiled
    report = SolveReport(
        semantics=args.semantics,
        rule_count=len(compiled.heads),
        base_size=compiled.n,
    )
    atom = compiled.atoms.__getitem__
    models: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    if args.semantics == "least":
        if not program.is_positive():
            raise NdlpError(
                "least-model semantics is defined for negation-free programs; "
                "use --semantics stable or wf"
            )
        models = [(compiled.ids(compiled.least()), ())]
    elif args.semantics == "stable":
        result = enumerate_stable(gp, max_models=args.max_models)
        models = [(ids, ()) for ids in result.ids]
        report.truncated |= result.truncated
        if result.truncated:
            print("model enumeration truncated by --max-models", file=sys.stderr)
    else:  # wf
        true, false = compiled.well_founded()
        models = [(compiled.ids(true), compiled.ids(false))]
        undefined = compiled.ids(not (t or f) for t, f in zip(true, false))
        report.negatives = list(map(atom, models[0][1]))
        report.undefined = list(map(atom, undefined))
        report.total = not undefined
    report.models = [list(map(atom, pos)) for pos, _ in models]

    if want_answer_sets:
        report.answer_sets = []
        truncated = False
        for pos, neg in models:
            expansion = expand_ids(compiled.table, pos, neg, cap=args.max_answer_sets,
                                   subset_minimal=args.subset_minimal)
            report.answer_sets.append(list(expansion.answer_sets))
            truncated |= expansion.truncated
        report.truncated |= truncated
        if truncated:
            print("answer-set expansion truncated by --max-answer-sets", file=sys.stderr)

    report.timing_s = time.perf_counter() - started
    if args.format == "json":
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(report.to_text())
    print(f"solved in {report.timing_s:.3f}s", file=sys.stderr)
    return 0 if report.models else 1


def _ground_cmd(args: argparse.Namespace) -> int:
    _, gp = _load(args.files, args.horizon)
    sys.stdout.write(str(gp))
    return 0


def _cap(text: str) -> int:
    """A --max-* value: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return value


def _add_solve_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("files", nargs="+", metavar="FILE", help="input .ndlp file(s)")
    sub.add_argument(
        "--semantics", choices=("least", "stable", "wf"), default="stable"
    )
    sub.add_argument("--horizon", type=int, default=None, help="override #horizon")
    sub.add_argument("--max-models", type=_cap, default=None)
    sub.add_argument("--max-answer-sets", type=_cap, default=None)
    sub.add_argument("--subset-minimal", action="store_true")
    sub.add_argument("--dump-ground", action="store_true")
    sub.add_argument("--format", choices=("text", "json"), default="text")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's one parser, built on the first call."""
    parser = argparse.ArgumentParser(
        prog="ndlp", description="solver for non-deterministic logic programs"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve", help="compute models under a semantics")
    _add_solve_flags(solve)
    solve.add_argument(
        "--answer-sets", action="store_true", help="also expand each model"
    )

    grounder = commands.add_parser("ground", help="print the ground program")
    grounder.add_argument("files", nargs="+", metavar="FILE")
    grounder.add_argument("--horizon", type=int, default=None)

    expander = commands.add_parser("expand", help="solve and expand answer sets")
    _add_solve_flags(expander)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "dump_ground", False) and args.format == "json":
        parser.error("--dump-ground cannot be combined with --format json")
    try:
        if args.command == "ground":
            return _ground_cmd(args)
        if args.command == "solve":
            return _solve(args, want_answer_sets=args.answer_sets)
        return _solve(args, want_answer_sets=True)
    except (NdlpError, OSError) as err:
        print(f"ndlp: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
