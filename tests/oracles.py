"""Independent test oracles, deliberately naive and kept out of the package.

- `product_ground` is the Cartesian-product grounder: every rule is
  instantiated over the full domain of each variable and every instance is
  kept. It builds each instance itself, substituting every literal and
  evaluating every comparison, and shares only the constants with the
  package.
  `live_instances` filters it down to what the join-driven grounder must
  produce.
- `enumerate_models` walks every subset of the restricted base and keeps
  the models, and `intersect_all` meets them into the least model's
  reference; `brute_force_stable` filters every subset of the head atoms
  through the object-level stability check. Both are exponential and refuse
  bases past a cap, overridable through the NDLP_MAX_BASE environment
  variable.
- `propagate_by_rounds` is the stable search's propagation done the plain
  way, both bounds recomputed as whole fixpoints every round, against
  which the trail-based `Propagator` is checked after every decision of a
  random decide/undo walk.
- `scan_characters` is the tokenizer written one character at a time,
  counting lines and columns as it goes, the reference of the
  pattern-driven `ndlp.parser.tokenize` and of the positions worked out
  from its offsets.
- `capped_images` expands a model into its answer sets by walking the
  choice product, the reference of every uncapped `expand` and `count`,
  and of capped ones on models whose NdAtoms share no atom. `part_images`
  is the reference of the capped rule: it finds the atom-disjoint parts by
  counting atom uses and walks the raw product of the shared part.
  `grown_images` grows a model's images NdAtom by NdAtom without splitting
  it, for models whose choice product is too large to walk.
- `sorted_rows` is the expansion as sorted tuples of entry ids, each row
  decoded from its parts and the rows sorted with a key function: the
  reference of the int-mask expansion, its canonical order and the
  product-order prefix under a cap. `text_rows` and `json_rows` render such
  rows one join per row, the reference of the writer's sub-mask tables.
- `report_json` is the JSON report built as one payload and dumped whole,
  every answer-set entry rendered from its atom, the reference of
  `SolveReport.write`, which lays out the JSON report itself and writes it
  in pieces.

The deterministic reference semantics and the singleton embedding sit
beside this file, in `detlp.py`.
"""

from __future__ import annotations

import io
import json
import os
from bisect import bisect_left
from collections import Counter
from itertools import chain, islice, product
from typing import Iterable

from ndlp.compiled import IN, OUT, GroundProgram, make_ground_program
from ndlp.errors import EvaluationError, GroundingError, ParseError
from ndlp.parser import _PUNCT
from ndlp.positive import Interpretation, is_model, lfp
from ndlp.stable import is_stable
from ndlp.wf import PartialInterpretation
from ndlp.syntax import (
    Atom,
    Compound,
    Constant,
    Integer,
    Literal,
    NdAtom,
    Program,
    Rule,
    Sum,
    Term,
    Variable,
    canonicalize,
    is_time_variable,
    sort_nd_atoms,
)

DEFAULT_BASE_CAP = 20


class BaseCapExceeded(EvaluationError):
    """Brute-force enumeration refused: restricted base larger than the cap."""


def base_cap(default: int = DEFAULT_BASE_CAP) -> int:
    """Brute-force cap, overridable through the NDLP_MAX_BASE env var."""
    value = os.environ.get("NDLP_MAX_BASE")
    return int(value) if value else default


# ---------------------------------------------------------------------------
# Grounding
# ---------------------------------------------------------------------------

def program_constants(program: Program) -> tuple[Term, ...]:
    """Constants (symbols and integers) occurring literally in the program."""
    found: set[Term] = set()
    stack = [arg for rule in program.rules for nd in [rule.head, *[lit.atom for lit in rule.body]]
             for atom in nd for arg in atom.args]
    while stack:
        term = stack.pop()
        if isinstance(term, (Constant, Integer)):
            found.add(term)
        elif isinstance(term, Compound):
            stack.extend(term.args)
        elif isinstance(term, Sum):
            stack.append(term.base)
    return tuple(sorted(found, key=lambda t: t.key))


def substitute(term: Term, env: dict[str, Term]) -> Term | None:
    """A term under `env` with its sums evaluated; None when a sum's base is
    not an integer."""
    if isinstance(term, Variable):
        return env[term.name]
    if isinstance(term, Compound):
        args = [substitute(arg, env) for arg in term.args]
        return None if None in args else Compound(term.name, tuple(args))
    if isinstance(term, Sum):
        base = substitute(term.base, env)
        return Integer(base.value + term.offset) if isinstance(base, Integer) else None
    return term


def ground_instance(rule: Rule, env: dict[str, Term]) -> Rule | None:
    """One instance of `rule`, its comparisons evaluated and removed, or
    None when arithmetic fails or a comparison is false."""
    grounded = []
    for nd in [rule.head] + [lit.atom for lit in rule.body]:
        atoms = []
        for atom in nd:
            args = [substitute(arg, env) for arg in atom.args]
            if None in args:
                return None
            atoms.append(Atom(atom.pred, tuple(args)))
        grounded.append(canonicalize(atoms))
    head, *body = grounded
    literals = []
    for lit, nd in zip(rule.body, body):
        test = nd.atoms[0]
        if test.is_builtin():
            if (test.args[0] == test.args[1]) != (test.pred == "=="):
                return None
        else:
            literals.append(Literal(nd, lit.negated))
    return Rule(head=head, body=tuple(literals), origin=rule.origin)


def product_instances(program: Program, horizon: int | None = None) -> list[list[Rule]]:
    """Per source rule, all its ground instances over the product of its
    sorted variables' domains, deduplicated first-wins."""
    if horizon is None:
        horizon = program.horizon
    constants = program_constants(program)
    time_domain: tuple[Term, ...] = ()
    if horizon is not None:
        if horizon < 0:
            raise GroundingError("horizon must be non-negative")
        time_domain = tuple(Integer(t) for t in range(horizon + 1))

    grouped: list[list[Rule]] = []
    for rule in program.rules:
        variables = sorted(rule.variables())
        domains: list[tuple[Term, ...]] = []
        for name in variables:
            if is_time_variable(name):
                if horizon is None:
                    raise GroundingError(f"time variable {name} needs a horizon")
                domains.append(time_domain)
            else:
                if not constants:
                    raise GroundingError(f"variable {name} has no constants to range over")
                domains.append(constants)
        seen: set[Rule] = set()
        kept: list[Rule] = []
        for values in product(*domains):
            instance = ground_instance(rule, dict(zip(variables, values)))
            if instance is not None and instance not in seen:
                seen.add(instance)
                kept.append(instance)
        grouped.append(kept)
    return grouped


def product_ground(program: Program, horizon: int | None = None) -> GroundProgram:
    """Every instance of every rule over the full variable domains."""
    return make_ground_program(r for group in product_instances(program, horizon) for r in group)


def live_instances(program: Program, horizon: int | None = None) -> list[Rule]:
    """The product grounding less the instances, of rules with variables,
    whose positive body lies outside the closure that ignores negation."""
    grouped = product_instances(program, horizon)
    closure = lfp(
        Rule(head=r.head, body=tuple(lit for lit in r.body if not lit.negated))
        for group in grouped
        for r in group
    )
    kept: list[Rule] = []
    for rule, group in zip(program.rules, grouped):
        for instance in group:
            if not rule.variables() or all(nd in closure for nd in instance.positive_body()):
                kept.append(instance)
    return kept


# ---------------------------------------------------------------------------
# Brute-force model enumeration
# ---------------------------------------------------------------------------

def enumerate_models(gp: GroundProgram, max_base: int | None = None) -> list[Interpretation]:
    """All subsets of the restricted base that are models, in subset-vector
    order over the sorted base."""
    cap = max_base if max_base is not None else base_cap()
    atoms = gp.base
    if len(atoms) > cap:
        raise BaseCapExceeded(
            f"restricted base has {len(atoms)} NdAtoms, enumeration cap is {cap}"
        )
    models = []
    for mask in range(1 << len(atoms)):
        subset = frozenset(atoms[i] for i in range(len(atoms)) if mask >> i & 1)
        if is_model(subset, gp):
            models.append(subset)
    return models


def intersect_all(models: Iterable[Interpretation]) -> Interpretation:
    models = list(models)
    if not models:
        return frozenset()
    result = models[0]
    for m in models[1:]:
        result &= m
    return result


def interpretation_key(nd_atoms: Iterable[NdAtom]):
    """Canonical order on interpretations: the sorted tuple of member keys."""
    return tuple(sorted(a.key for a in nd_atoms))


def brute_force_stable(gp: GroundProgram) -> list[Interpretation]:
    """Every subset of the head atoms that passes the stability check."""
    heads = sort_nd_atoms({r.head for r in gp.rules})
    models = []
    for mask in range(1 << len(heads)):
        subset = frozenset(heads[i] for i in range(len(heads)) if mask >> i & 1)
        if is_stable(gp, subset):
            models.append(subset)
    return sorted(models, key=interpretation_key)


# ---------------------------------------------------------------------------
# Propagation
# ---------------------------------------------------------------------------

def propagate_by_rounds(program: GroundProgram, assign: bytearray, trail: list[int]):
    """Force what the bounds of the assignment decide, recomputing both
    bounds every round and recording each forced atom on `trail`; the final
    (lower, upper) bounds, or None on a conflict. The lower bound is the
    reduct model against every atom not assigned out, the upper bound the
    one against the atoms assigned in."""
    while True:
        lower = program.reduct_model(bytes(value != OUT for value in assign))
        upper = program.reduct_model(bytes(value == IN for value in assign))
        forced: list[tuple[int, int]] = []
        for n in program.negated:
            decided = assign[n]
            if decided == OUT:
                if lower[n]:
                    return None  # assumed out, but derived in every completion
            elif decided == IN:
                if not upper[n]:
                    return None  # assumed in, but underivable in every completion
            elif lower[n]:
                forced.append((n, IN))
            elif not upper[n]:
                forced.append((n, OUT))
        if not forced:
            return lower, upper
        for n, value in forced:
            assign[n] = value
            trail.append(n)


# ---------------------------------------------------------------------------
# Answer sets
# ---------------------------------------------------------------------------

def _image_key(image):
    atoms, negatives = image
    return sorted(a.key for a in atoms), sorted(a.key for a in negatives)


def capped_images(model, cap: int | None = None, subset_minimal: bool = False):
    """The answer sets of a total or partial model as (atoms, negatives)
    pairs, sorted, and whether the cap cut any off.

    Choices are walked in product order over the NdAtoms sorted by key,
    positives before negatives; a choice that picks one atom both ways is no
    branch. Without `subset_minimal` the first `cap` distinct images met are
    kept. With it, every distinct image is filtered to the componentwise
    minimal ones, and the first `cap` of those in sorted order are kept.
    """
    if isinstance(model, PartialInterpretation):
        pos, neg = model.pos, model.neg
    else:
        pos, neg = model, frozenset()
    pos = sorted(pos, key=lambda nd: nd.key)
    neg = sorted(neg, key=lambda nd: nd.key)
    images: list = []
    for picks in product(*(nd.atoms for nd in pos), *(nd.atoms for nd in neg)):
        image = (frozenset(picks[: len(pos)]), frozenset(picks[len(pos):]))
        if not image[0] & image[1] and image not in images:
            images.append(image)
    if subset_minimal:
        images = sorted(
            (a for a in images
             if not any(b != a and b[0] <= a[0] and b[1] <= a[1] for b in images)),
            key=_image_key,
        )
    kept = images if cap is None else images[:cap]
    return sorted(kept, key=_image_key), len(kept) < len(images)


def _signed(model):
    """The NdAtoms of a model sorted by key, positives first, each paired
    with whether it is negative."""
    if isinstance(model, PartialInterpretation):
        pos, neg = model.pos, model.neg
    else:
        pos, neg = model, frozenset()
    return ([(nd, False) for nd in sorted(pos, key=lambda nd: nd.key)]
            + [(nd, True) for nd in sorted(neg, key=lambda nd: nd.key)])


def part_images(model, cap: int | None = None, subset_minimal: bool = False):
    """The answer sets of a model under the parts cap rule, as sorted
    (atoms, negatives) pairs, and whether the cap cut any off.

    An NdAtom none of whose members occurs in another NdAtom is a part of
    its own, one image per member. The other NdAtoms form the last part: the
    distinct non-contradictory images of their raw choice product, only the
    minimal ones with `subset_minimal`, sorted. The first `cap` combinations
    of the parts in product order are kept.
    """
    signed = _signed(model)
    uses: dict = {}
    for nd, _ in signed:
        for atom in nd.atoms:
            uses[atom] = uses.get(atom, 0) + 1
    parts, shared = [], []
    for nd, negative in signed:
        if all(uses[atom] == 1 for atom in nd.atoms):
            parts.append([(frozenset(), frozenset([a])) if negative else (frozenset([a]), frozenset())
                          for a in nd.atoms])
        else:
            shared.append((nd, negative))
    signs = [negative for _, negative in shared]
    images: list = []
    for picks in product(*(nd.atoms for nd, _ in shared)):
        image = (frozenset(a for a, n in zip(picks, signs) if not n),
                 frozenset(a for a, n in zip(picks, signs) if n))
        if not image[0] & image[1] and image not in images:
            images.append(image)
    if subset_minimal:
        images = [a for a in images
                  if not any(b != a and b[0] <= a[0] and b[1] <= a[1] for b in images)]
    parts.append(sorted(images, key=_image_key))
    unions = [(frozenset().union(*(p[0] for p in combo)), frozenset().union(*(p[1] for p in combo)))
              for combo in product(*parts)]
    kept = unions if cap is None else unions[:cap]
    return sorted(kept, key=_image_key), len(kept) < len(unions)


def grown_images(model) -> set:
    """Every answer set of a model as an (atoms, negatives) pair, grown
    NdAtom by NdAtom over the whole model, positives first; duplicates and
    picks that take one atom both ways drop out at each step."""
    images = {(frozenset(), frozenset())}
    for nd, negative in _signed(model):
        if negative:
            images = {(atoms, negs | {a}) for atoms, negs in images
                      for a in nd.atoms if a not in atoms}
        else:
            images = {(atoms | {a}, negs) for atoms, negs in images for a in nd.atoms}
    return images


def _signed_order(n: int):
    """The sort key of rows over a table of `n` atoms: positives compared
    first, then negatives, each side as a sorted tuple, so a row comes
    before its own extensions."""
    def key(row):
        i = bisect_left(row, n)
        return row[:i], row[i:]
    return key


def sorted_rows(table, pos, neg=(), cap: int | None = None, subset_minimal: bool = False):
    """The answer sets of the model whose positive and negative NdAtoms are
    `pos` and `neg` in `table` as sorted tuples of entry ids (an atom's
    rank, a negative's rank plus `len(table.texts)`), in canonical order,
    and whether the cap cut any off.

    NdAtoms sharing no member with another are parts of their own; the rest
    form the shared part, last in product order, whose distinct images (the
    minimal ones under `subset_minimal`) are sorted on their own. The first
    `cap` combinations of the parts in product order are kept, then sorted.
    """
    members, n = table.members, len(table.texts)
    uses = Counter(r for i in (*pos, *neg) for r in members[i])
    own, joined = [], [[], []]
    for negative, side in enumerate((pos, neg)):
        for i in side:
            atoms = members[i]
            if any(uses[r] > 1 for r in atoms):
                joined[negative].append(atoms)
            else:
                own.append([(r + n * negative,) for r in atoms])
    images = {(frozenset(), frozenset())}
    for negative, side in enumerate(joined):
        for atoms in side:
            images = {(p | {r}, q) if not negative else (p, q | {r})
                      for p, q in images for r in atoms if not (negative and r in p)}
    if subset_minimal:
        images = {a for a in images if not any(b != a and b[0] <= a[0] and b[1] <= a[1]
                                               for b in images)}
    shared = sorted((tuple(sorted(p)) + tuple(sorted(r + n for r in q)) for p, q in images),
                    key=_signed_order(n))
    picks = product(*own, shared)
    rows = [tuple(sorted(chain.from_iterable(pick))) for pick in islice(picks, cap)]
    truncated = cap is not None and next(picks, None) is not None
    return sorted(rows, key=_signed_order(n)), truncated


def text_rows(entries: list[str], rows, label: str, first: int = 1) -> str:
    """Rows rendered as the text report's answer-set lines."""
    return "".join(f"{label}{j}: {{{', '.join(entries[e] for e in row)}}}\n"
                   for j, row in enumerate(rows, first))


def json_rows(entries: list[str], rows) -> list[list[str]]:
    """Rows as the JSON report's arrays of entry texts."""
    return [[entries[e] for e in row] for row in rows]


def written_once(write, report, fmt: str) -> str:
    """What `write(report, stream, fmt)` writes of a report as `cli._solve`
    builds it, whose answer sets the writer reads once, model by model. The
    answer sets read are then left on the report as a list, so that it can
    be written and read again."""
    out = io.StringIO()
    if report.answer_sets is None:
        write(report, out, fmt)
        return out.getvalue()
    read: list = []

    def keep(sets):
        read.append(sets)
        return sets

    report.answer_sets = map(keep, report.answer_sets)
    write(report, out, fmt)
    report.answer_sets = read
    return out.getvalue()


def report_json(report) -> str:
    """A `SolveReport` as `json.dumps(payload, indent=2, sort_keys=True)`
    of its whole payload; answer-set entries are each atom's `str`, positives
    then `not` negatives, each side sorted by key. A report with a `table`
    holds each NdAtom as its id, whose member ranks index the table's texts."""
    def nd(atom) -> list[str]:
        if report.table is not None:
            return [report.table.texts[r] for r in report.table.members[atom]]
        return [str(a) for a in atom]

    def entries(answer_set) -> list[str]:
        atoms = sorted(answer_set.atoms, key=lambda a: a.key)
        negatives = sorted(answer_set.negatives, key=lambda a: a.key)
        return [str(a) for a in atoms] + [f"not {a}" for a in negatives]

    payload: dict = {
        "semantics": report.semantics,
        "models": [[nd(a) for a in model] for model in report.models],
        "answer_sets": [[entries(s) for s in sets] for sets in (report.answer_sets or [])],
        "truncated": report.truncated,
        "stats": {"rules": report.rule_count, "base_size": report.base_size},
    }
    if report.semantics == "wf":
        payload["total"] = bool(report.total)
        payload["negatives"] = [nd(a) for a in (report.negatives or [])]
        payload["undefined"] = [nd(a) for a in (report.undefined or [])]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Tokenizing
# ---------------------------------------------------------------------------

def scan_characters(text: str) -> list[tuple[str, str, int, int]]:
    """The (kind, value, line, column) of each token of `text`, read one
    character at a time."""
    tokens: list[tuple[str, str, int, int]] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col

        def take(count: int) -> str:
            nonlocal i, col
            lexeme = text[i : i + count]
            i += count
            col += count
            return lexeme

        two = text[i : i + 2]
        if two in (":-", "!=", "=="):
            tokens.append((_PUNCT[two], take(2), start_line, start_col))
            continue
        if ch in _PUNCT:
            tokens.append((_PUNCT[ch], take(1), start_line, start_col))
            continue
        if ch == "#":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            tokens.append(("DIRECTIVE", take(j - i), start_line, start_col))
            if word not in ("#horizon", "#const"):
                raise ParseError(f"unknown directive {word}", start_line, start_col)
            continue
        if ch.isdecimal() or (ch == "-" and i + 1 < n and text[i + 1].isdecimal()):
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("INT", take(j - i), start_line, start_col))
            continue
        if ch.islower() or (ch == "-" and i + 1 < n and text[i + 1].islower()):
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "NOT" if word == "not" else "NAME"
            tokens.append((kind, take(j - i), start_line, start_col))
            continue
        if ch.isupper():
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("VAR", take(j - i), start_line, start_col))
            continue
        raise ParseError(f"unexpected character {ch!r}", start_line, start_col)
    tokens.append(("EOF", "", line, col))
    return tokens
