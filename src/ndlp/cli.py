"""Command-line front end: load, ground, solve, expand.

Commands:
    ndlp solve  [--semantics least|stable|wf] [options] FILE...
    ndlp ground [--horizon N] FILE...
    ndlp expand [--semantics ...] FILE...      (solve plus answer sets)

Exit codes: 0 with at least one model, 1 with none (unsatisfiable under the
stable semantics), 2 on usage, parse, or grounding errors. Reports are
deterministic for a fixed input and flag set; the JSON form is byte-stable,
with timing kept off it and on stderr.

The argparse parser is built once per process. `ground` and
`--dump-ground` write the ground rules from the atom table's texts.

From the search to the report a model stays the sorted indices of its
NdAtoms in the ground program, whose base is in key order: `_solve` writes
the models, and the well-founded negatives and undefined NdAtoms, straight
into the report as those indices with no sort, beside the program's one
atom table, and expands each model with the negatives over that table into
int masks. The writer reads member ranks and texts off the table, so the
command line builds no `Atom` after parsing, and none at all for braced
rules that the statement reader takes whole: `_load` builds the ground
program of rules over names from its ids, and grounds rules over flat atoms
from its set-atom patterns. `SolveReport.write` renders both
formats straight to stdout in pieces: the header, each model, and the
answer-set rows `CHUNK_ROWS` at a time, so no `AnswerSet` is built and no
string holds the whole report. Each list of NdAtoms is one comprehension
(`compiled.nd_texts`) over the table's texts, each encoded once for JSON;
over several models each distinct NdAtom is spelled once and each model
joined by lookup. Each row is written from a few lookups of its mask into
tables that hold the text of every sub-mask of a range of the model's
slots (`_tables`), each table's entries encoded once for JSON. A model is
expanded only when the writer reaches its answer sets, so one model's
masks are held at a time; the truncation flag, written after them, is
settled by then.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys
import time
from dataclasses import dataclass, field
from itertools import chain, groupby, repeat
from json.encoder import encode_basestring_ascii as _encode
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Sequence, TextIO

from .answersets import AnswerSet, Expansion, Layout, expand_ids
from .compiled import AtomTable, GroundProgram, nd_texts, table_program
from .errors import NdlpError
from .grounder import ground, ground_patterns
from .parser import reader, written
from .syntax import Atom
from .stable import enumerate_stable


# Answer-set rows rendered per piece the report writes.
CHUNK_ROWS = 4096


@dataclass
class SolveReport:
    semantics: str
    # each NdAtom, here and below, as its id in `table`, or without one as itself
    models: list[Sequence] = field(default_factory=list)
    negatives: Sequence | None = None  # wf only: the NdAtoms false
    undefined: Sequence | None = None  # wf only: those neither true nor false
    total: bool | None = None  # wf only: no NdAtom undefined
    # per model, its `Expansion` or a list of its `AnswerSet`s; an iterator
    # is read once, as the report is written
    answer_sets: Iterable[Expansion | list[AnswerSet]] | None = None
    # a cap cut the models short, or the answer sets of one, which writing
    # an `Expansion` cut short sets as well
    truncated: bool = False
    rule_count: int = 0
    base_size: int = 0
    table: AtomTable | None = None  # the atom table whose NdAtoms the ids index

    def write(self, stream: TextIO, fmt: str = "text") -> None:
        """Write the report to `stream` as text or as JSON, in pieces: the
        header, each model, and the answer-set rows `CHUNK_ROWS` at a time.
        NdAtoms, as library callers pass them, are written through ids over
        texts of their own (`_tabled`); the report's lists are left as they are."""
        lists = self.models, self.negatives or (), self.undefined or ()
        texts, members, *lists = (_tabled(*lists) if self.table is None
                                  else (self.table.texts, self.table.members, *lists))
        if fmt == "json":  # each member text encoded once
            texts = list(map(_encode, texts))
        write = self._json if fmt == "json" else self._text
        stream.writelines(write(functools.partial(nd_texts, texts, members), *lists))

    def to_json(self) -> str:
        """`json.dumps(payload, indent=2, sort_keys=True)` of the report."""
        out = io.StringIO()
        self.write(out, "json")
        return out.getvalue()

    def to_text(self) -> str:
        out = io.StringIO()
        self.write(out)
        return out.getvalue()

    def _text(self, spelled: Callable[..., list[str]], models: list[Sequence[int]],
              negatives: Sequence[int], undefined: Sequence[int]) -> Iterator[str]:
        yield f"semantics: {self.semantics}\n"
        yield f"ground rules: {self.rule_count}, base size: {self.base_size}\n"
        if not models:
            yield "no models\n"
        wf = ""
        if self.semantics == "wf":
            lines = spelled(negatives, "  not {", ", ", "}\n")
            if undefined:
                lines += ["  undefined:\n", *spelled(undefined, "    {", ", ", "}\n")]
            wf = "".join([*lines, f"  total: {'yes' if self.total else 'no'}\n"])
        spell = (attrgetter("entries"), ", ", "")
        expansions = None if self.answer_sets is None else iter(self.answer_sets)
        for i, model in enumerate(_each_model(spelled, models, "  {", ", ", "}\n"), start=1):
            yield "".join([f"model {i}:\n", *model, wf])
            if expansions is not None:
                label = f"  answer set {i}."
                for first, tables, masks in self._chunks(next(expansions), spell):
                    lead, top, a, mid, A, b, mm, low, B, lm, tail = tables
                    yield "".join([f"{label}{j}: {{{lead}{top[m >> a]}{mid[m >= A][m >> b & mm]}"
                                   f"{low[m >= B][m & lm]}{tail}}}\n"
                                   for j, m in enumerate(masks, first)])
        if self.truncated:
            yield "truncated: yes\n"

    def _json(self, spelled: Callable[..., list[str]], models: list[Sequence[int]],
              negatives: Sequence[int], undefined: Sequence[int]) -> Iterator[str]:
        """The pieces of the JSON report. The arrays of NdAtoms and of answer
        sets are laid out here and spliced around the dumped scalars: each
        entry of an answer set is encoded once per atom table."""
        yield '{\n  "answer_sets": '
        encoded = functools.cache(lambda table: [_NEWLINE[4] + _encode(t) for t in table.entries])
        spell = (encoded, ",", _NEWLINE[3])
        # `map` keeps no model's answer sets once their rows are written
        yield from _array(map(_json_rows, map(self._chunks, self.answer_sets or [],
                                              repeat(spell))), 1)
        yield ',\n  "models": '
        yield from _array(([_json_array(arrays, 2, item=True)]
                           for arrays in _each_model(spelled, models, *_JSON_ND[3])), 1)
        yield ","
        scalars: dict = {
            "semantics": self.semantics,
            "truncated": self.truncated,
            "stats": {"rules": self.rule_count, "base_size": self.base_size},
        }
        if self.semantics == "wf":
            scalars["total"] = bool(self.total)
            yield f'{_NEWLINE[1]}"negatives": {_json_array(spelled(negatives, *_JSON_ND[2]), 1)},'
        # keys sort as answer_sets, models, negatives, the scalars, undefined
        yield json.dumps(scalars, indent=2, sort_keys=True)[1:-2]
        if self.semantics == "wf":
            yield f',{_NEWLINE[1]}"undefined": {_json_array(spelled(undefined, *_JSON_ND[2]), 1)}'
        yield "\n}\n"

    def _chunks(self, sets: Expansion | list[AnswerSet], spell: tuple) -> Iterator[tuple]:
        """A model's answer sets as (number of the first, `_tables` of their
        layout and masks by `spell`, masks) chunks of at most `CHUNK_ROWS`
        masks. An `Expansion` holds its masks, and one cut short sets
        `truncated`, which both formats write after the answer sets; a list
        of `AnswerSet`s, as library callers pass, gives a mask per set, each
        stretch of sets on one layout together."""
        if isinstance(sets, Expansion):
            self.truncated |= sets.truncated
            runs = [(sets.layout, sets.masks)]
        else:
            runs = [(layout, [s.mask for s in group])
                    for layout, group in groupby(sets, attrgetter("layout"))]
        entries, sep, close = spell  # entries(table) is a table's entry texts
        first = 1
        for layout, masks in runs:
            tables = _tables(layout, entries(layout.table), masks, sep, close)
            for start in range(0, len(masks), CHUNK_ROWS):
                yield first + start, tables, masks[start:start + CHUNK_ROWS]
            first += len(masks)


# Most slots a text table spans: it holds 2 ** TABLE_SLOTS texts.
TABLE_SLOTS = 14


def _tables(layout: Layout, entries: list[str], masks: list[int], sep: str, close: str) -> tuple:
    """(lead, top, a, middle, A, b, mm, low, B, lm, tail) for `masks` over
    `layout`, entries spelled `entries` and joined by `sep`: a mask's text is
    `lead` (the run before the first slot), `top[mask >> a]`, `middle[mask
    >= A][mask >> b & mm]`, `low[mask >= B][mask & lm]` and `tail` (the last
    run, and `close` if the layout has any entry). A table holds the text of
    every sub-mask of a range of slots, runs included, and spans at most
    `TABLE_SLOTS` slots and no more than the masks ask for; the middle and
    low ones come in two, the first for masks with no entry above, whose
    first entry has no `sep`. A wider top range is a dict of its sub-masks."""
    get = entries.__getitem__
    first, *rest = layout.runs
    lead, cut = sep.join(map(get, first)), 0 if first else len(sep)
    if not rest:  # no slot, a single mask
        return lead, [""], 0, ([""], [""]), 1, 0, 0, ([""], [""]), 1, 0, close if first else ""
    texts = [sep + get(e) for e in layout.slots]
    runs = ["", *[sep.join(["", *map(get, run)]) for run in rest]]
    width, rows, tail = len(texts), len(masks).bit_length(), runs[-1] + close

    def table(start: int, stop: int) -> tuple[list[str], list[str]]:
        spelled = [""]  # the first slot at the highest bit
        for i in range(stop - 1, start - 1, -1):
            spelled = [x + t for x in (runs[i], runs[i] + texts[i]) for t in spelled]
        return (spelled if not cut or any(runs[:start]) else [t[cut:] for t in spelled]), spelled

    if width <= rows + 1 and width <= TABLE_SLOTS:  # one table
        low = table(0, width)[0]
        return lead, [""], width, ([""], [""]), 1 << width, width, 0, (low, low), 1 << width, -1, tail
    span = max(1, min(TABLE_SLOTS, rows, -(-width // 3)))
    b, a = span, min(2 * span, width)
    low, middle = table(width - b, width), table(width - a, width - b)
    if width - a <= span:
        top = table(0, width - a)[0]
    else:
        upper = [(table(max(c - span, 0), c)[1], width - a - c)
                 for c in range((width - a) % span or span, width - a + 1, span)]
        top = {h: "".join([t[h >> s & (1 << span) - 1] for t, s in upper])[cut:]
               for h in {m >> a for m in masks}}
    return lead, top, a, middle, 1 << a, b, (1 << a - b) - 1, low, 1 << b, (1 << b) - 1, tail


# A line break and the indent of `json.dumps(indent=2)` at each depth.
_NEWLINE = tuple("\n" + "  " * depth for depth in range(5))


def _json_array(items: Iterable[str], depth: int, item: bool = False) -> str:
    """`json.dumps(indent=2)`'s layout of an array at `depth` whose items
    are already encoded, each after its own `_NEWLINE[depth + 1]`. As an
    `item` of an enclosing array, it comes after its own line break."""
    lead = _NEWLINE[depth] if item else ""
    body = ",".join(items)
    return f"{lead}[{body}{_NEWLINE[depth]}]" if body else lead + "[]"


def _array(items: Iterable[Iterable[str]], depth: int, item: bool = False) -> Iterator[str]:
    """The pieces of `_json_array`'s layout, for items that arrive in
    pieces: each element of `items` yields the pieces of one or more whole
    items, joined by ","."""
    lead = _NEWLINE[depth] if item else ""
    sep = lead + "["
    for pieces in items:
        yield sep
        yield from pieces
        sep = ","
    yield _NEWLINE[depth] + "]" if sep == "," else lead + "[]"


def _json_rows(model_chunks: Iterator[tuple]) -> Iterator[str]:
    """The pieces of a model's array of answer sets, given as its chunks, at
    depth 2, an item."""
    def chunks():
        line = _NEWLINE[3]
        for _, tables, masks in model_chunks:
            lead, top, a, mid, A, b, mm, low, B, lm, tail = tables
            yield [",".join([f"{line}[{lead}{top[m >> a]}{mid[m >= A][m >> b & mm]}"
                             f"{low[m >= B][m & lm]}{tail}]" for m in masks])]
    return _array(chunks(), 2, item=True)


# `nd_texts`'s layout of an NdAtom as an array item at depth 2 and 3.
_JSON_ND = {depth: (f"{_NEWLINE[depth]}[{_NEWLINE[depth + 1]}", "," + _NEWLINE[depth + 1],
                    _NEWLINE[depth] + "]") for depth in (2, 3)}


def _each_model(spelled: Callable, models: list, *layout: str) -> Iterable[Iterable[str]]:
    """Each model's NdAtoms `spelled` in `layout`: one model in place,
    several by lookup in the spelling of each distinct NdAtom."""
    if len(models) < 2:
        return [spelled(model, *layout) for model in models]
    ids = list(set().union(*models))
    lookup = dict(zip(ids, spelled(ids, *layout))).__getitem__
    return (map(lookup, model) for model in models)


def _tabled(models: list[Sequence], negatives: Sequence, undefined: Sequence) -> tuple:
    """The member texts of the lists' NdAtoms, each one's ranks in them, and the lists as ids."""
    ids: dict = {}  # an NdAtom hashes through Python code: once per occurrence
    *models, negatives, undefined = [[ids.setdefault(nd, len(ids)) for nd in nd_atoms]
                                     for nd_atoms in (*models, negatives, undefined)]
    rank: dict[str, int] = {}
    members = [[rank.setdefault(a.text, len(rank)) for a in nd.atoms] for nd in ids]
    return list(rank), members, models, negatives, undefined


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as err:
        raise NdlpError(f"{path}: not valid UTF-8 ({err.reason} at byte {err.start})") from err


def _load(paths: list[str], horizon: int | None) -> tuple[bool, GroundProgram]:
    """Whether the files, read as one program (see `parser.reader`), negate
    nothing, and their ground program, by one route per reader. For braced
    rules over names, which the statement reader takes whole, it is built
    from the reader's ids, every rule kept, over the names' ranks, which are
    the base's key order as they stand where every set-atom is one name, as
    in braced loops; its rules as written are read again from the text
    alone (`parser.written`), so the reader is freed once this returns. For
    braced rules over flat atoms, which its flat reader takes whole, with
    variables or without, it is grounded from the reader's set-atom
    patterns (`grounder.ground_patterns`). No syntax value is built on
    either route; any other text, which the statement reader refuses whole,
    is parsed by the token parser and grounded as a `Program`."""
    parser = reader([(p, _read(p)) for p in paths])
    if parser.read() and (horizon is None or horizon >= 0):
        keys = list(parser.keys)  # each set-atom's names; an atom's key sorts as its name
        texts = sorted(set(chain.from_iterable(keys)))
        rank = dict(zip(texts, range(len(texts)))).__getitem__
        sizes = set(map(len, keys))  # set-atoms of one size: all ranks, grouped by it
        members = (list(zip(*[map(rank, chain.from_iterable(keys))] * sizes.pop()))
                   if len(sizes) == 1 else list(map(tuple, map(map, repeat(rank), keys))))
        table = AtomTable(texts, members, functools.partial(map, Atom, texts))
        return not any(parser.negated), table_program(
            table, parser.heads, parser.positive, parser.negated,
            functools.partial(written, parser.text, parser.files, parser.at, parser.shape))
    # the reader's tables of texts go before grounding, which allocates the most
    flat = parser.flat()
    if flat is not None:
        del parser
        patterns, rules, own = flat
        return not any(any(negated) for _, _, negated, _ in rules), ground_patterns(
            patterns, rules, own if horizon is None else horizon)
    program = parser.parse()
    del parser
    return program.is_positive(), ground(program, horizon=horizon)


def _solve(args: argparse.Namespace, want_answer_sets: bool) -> int:
    started = time.perf_counter()
    positive, gp = _load(args.files, args.horizon)
    if args.dump_ground:
        sys.stdout.write(str(gp))

    # each model as the ids of its NdAtoms, which index the ground
    # program's base in key order
    report = SolveReport(semantics=args.semantics, rule_count=len(gp.heads), base_size=gp.n,
                         table=gp.table)
    if args.semantics == "least":
        if not positive:
            raise NdlpError(
                "least-model semantics is defined for negation-free programs; "
                "use --semantics stable or wf"
            )
        report.models = [gp.ids(gp.least())]
    elif args.semantics == "stable":
        result = enumerate_stable(gp, max_models=args.max_models)
        report.models = list(result.ids)
        report.truncated = result.truncated
        if result.truncated:
            print("model enumeration truncated by --max-models", file=sys.stderr)
    else:  # wf
        true, false = gp.well_founded()
        report.models = [gp.ids(true)]
        report.negatives = gp.ids(false)
        report.undefined = gp.ids(not (t or f) for t, f in zip(true, false))
        report.total = not report.undefined

    sets_truncated = False
    if want_answer_sets:
        def expand(model: tuple[int, ...]) -> Expansion:
            nonlocal sets_truncated
            expansion = expand_ids(gp.table, model, report.negatives or (),
                                   cap=args.max_answer_sets, subset_minimal=args.subset_minimal)
            sets_truncated |= expansion.truncated
            return expansion

        # each model is expanded when the writer reaches it, so one model's
        # answer sets are held at a time
        report.answer_sets = map(expand, report.models)

    report.write(sys.stdout, args.format)
    if sets_truncated:
        print("answer-set expansion truncated by --max-answer-sets", file=sys.stderr)
    print(f"solved in {time.perf_counter() - started:.3f}s", file=sys.stderr)
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
