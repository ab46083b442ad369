"""Mutation harness: does the suite catch each of a table of seeded faults?

Each row of `MUTANTS` names one fault: a file under `src/ndlp`, an exact
old text that occurs there exactly once, the new text that replaces it,
the test files expected to kill it, and the expected result. A mutant is
killed when those tests fail on the patched package; a row expected to
survive says why the suites cannot tell it from the original.

For each row the harness copies `src/ndlp`, `tests` and `pyproject.toml`
into a temporary directory, patches the copy, runs
`python -m pytest -x -q` on the named files there and prints the result
with the time taken. Each pytest child runs under an address-space cap
(`MEMORY_CAP`), so a mutant whose tests run away fails with a
`MemoryError` rather than growing until its time limit. It exits non-zero
when an old text is missing or repeated, or when a result differs from its
expectation. Stdlib only, and not collected by pytest
(`tests/test_mutants_table.py` checks the table's old texts on every
tier-1 run):

    PYTHONPATH=src python tests/mutants.py

Reference: DeMillo, Lipton and Sayward, "Hints on test data selection",
IEEE Computer 1978.
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ndlp"
TIMEOUT_S = 600
# Virtual memory a pytest child may map. A run of any row's tests peaks at
# 74-129 MiB (VmPeak, Python 3.11), so this leaves about eight times that.
MEMORY_CAP = 1 << 30

KILLED, SURVIVES = "killed", "survives"


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/ndlp
    old: str
    new: str
    tests: tuple[str, ...]  # relative to the repository root
    expect: str = KILLED
    reason: str = ""  # why a surviving mutant cannot be told apart


SEARCH = ("tests/test_stable.py", "tests/test_properties.py", "tests/test_wf.py")
MATCHING = ("tests/test_grounder.py", "tests/test_grounding_oracle.py",
            "tests/test_grounder_metamorphic.py")
PARSER = ("tests/test_syntax.py", "tests/test_parse_errors.py", "tests/test_loader.py")
EXPANSION = ("tests/test_answersets.py", "tests/test_report_paths.py", "tests/test_cli.py")
WRITTEN = ("tests/test_cli.py", "tests/test_loader.py", "tests/test_grounding_oracle.py")

MUTANTS: tuple[Mutant, ...] = (
    # search and propagation
    Mutant(
        "pivot-skip", "compiled.py",
        "for position in range(start, len(negated)):",
        "for position in range(start + 1, len(negated)):",
        SEARCH,
    ),
    Mutant(
        "undo-assigned-up-wait", "compiled.py",
        "                    for ridx in neg_occ[atom]:\n"
        "                        up_wait[ridx] -= 1\n",
        "                    for ridx in neg_occ[atom]:\n"
        "                        pass\n",
        SEARCH,
    ),
    Mutant(
        "undo-unfounded-up-wait", "compiled.py",
        "                upper[atom] = 1\n"
        "                for ridx in watchers[atom]:\n"
        "                    up_wait[ridx] -= 1\n",
        "                upper[atom] = 1\n"
        "                for ridx in watchers[atom]:\n"
        "                    pass\n",
        SEARCH,
    ),
    Mutant(
        # an assignment against the atom's value is dropped, so no branch closes
        "conflict-check-skipped", "compiled.py",
        "if assign[atom] != value:",
        "if False:",
        SEARCH,
    ),
    Mutant(
        # only the heads an atom assigned in blocks directly leave the upper
        # bound, not those whose source reads them
        "retraction-cascade-not-followed", "compiled.py",
        "                        up_wait[ridx] += 1\n"
        "                        head = heads[ridx]\n"
        "                        if source[head] == ridx and upper[head]:\n",
        "                        up_wait[ridx] += 1\n"
        "                        head = heads[ridx]\n"
        "                        if False:\n",
        SEARCH,
    ),
    Mutant(
        "unfounded-not-assigned-out", "compiled.py",
        "assigned.append((atom, OUT))",
        "pass",
        SEARCH,
    ),
    Mutant(
        "derived-not-assigned-in", "compiled.py",
        "assigned.append((atom, IN))",
        "pass",
        SEARCH,
    ),
    Mutant(
        "root-leaf-dropped", "stable.py",
        "if all(lower[n] for n in negated if assign[n] == IN):",
        "if stack and all(lower[n] for n in negated if assign[n] == IN):",
        SEARCH,
    ),
    Mutant(
        "reduct-model-no-bodiless", "compiled.py",
        "for ridx in self.bodiless:",
        "for ridx in self.bodiless[:0]:",
        SEARCH,
    ),
    Mutant(
        "leaf-test-true", "stable.py",
        "if all(lower[n] for n in negated if assign[n] == IN):",
        "if True:",
        SEARCH,
        expect=SURVIVES,
        reason="at every leaf the upper bound equals the lower bound and holds "
               "every atom assigned in, so the test never fails "
               "(test_properties.py::test_bounds_meet_at_every_leaf)",
    ),
    Mutant(
        "wf-false-from-lower-bound", "compiled.py",
        "state.upper.translate(_COMPLEMENT)",
        "state.lower.translate(_COMPLEMENT)",
        SEARCH,
    ),
    # matching
    Mutant(
        "bind-sum-time-range-dropped", "grounder.py",
        "                    if not 0 <= value <= self.horizon:\n"
        "                        return False\n"
        "                    slots[slot] = self.term_id(value)\n",
        "                    slots[slot] = self.term_id(value)\n",
        MATCHING,
    ),
    Mutant(
        "bound-slot-compare-dropped", "grounder.py",
        "            if code == SAME:\n"
        "                if slots[slot] != i:\n"
        "                    return False\n",
        "            if code == SAME:\n"
        "                pass\n",
        MATCHING,
    ),
    Mutant(
        "constant-domain-check-skipped", "grounder.py",
        "                if i >= self.nconst:\n"
        "                    return False\n"
        "                slots[slot] = i\n",
        "                slots[slot] = i\n",
        MATCHING,
    ),
    Mutant(
        "probe-stops-one-early", "grounder.py",
        "return [index.get(row[slot], ()) for row in rows]",
        "return [index.get(row[slot], [0])[:-1] for row in rows]",
        MATCHING,
    ),
    Mutant(
        "instance-key-missing-a-slot", "grounder.py",
        "instances[tuple(row[:width])] = instance",
        "instances[tuple(row[1:width])] = instance",
        MATCHING,
    ),
    Mutant(
        "bind-nd-lookup-skips-its-hit", "grounder.py",
        "if k < j:",
        "if k <= j:",
        MATCHING,
    ),
    Mutant(
        # a set-literal looked up by key before its trigger also matches
        # the round's new NdAtoms, so an instance is found by two plans
        "lookup-ignores-older-only-rule", "grounder.py",
        "fresh = self.fresh if step.at < first else ()",
        "fresh = self.fresh if step.at < first and step.lookup is None else ()",
        MATCHING,
    ),
    Mutant(
        # an NdAtom interned as a negated literal or a head, but not yet
        # derived and indexed, is matched by key
        "lookup-admits-unindexed-set-atom", "grounder.py",
        "return (i,) if self.derived.get(i, self.round + 1) <= self.round else ()",
        "return () if i is None else (i,)",
        MATCHING,
    ),
    Mutant(
        "time-slots-ordered-by-id", "grounder.py",
        "rank = None if integers == sorted(integers) else terms[0].__getitem__",
        "rank = None",
        MATCHING,
    ),
    # the key order taken from one sort of the atoms
    Mutant(
        # as many atoms as set-atoms, though one set-atom has two members
        "one-atom-renumbering-taken-with-a-wider-set-atom", "compiled.py",
        "if sum(map(len, ranked)) == len(ranked):",
        "if len(table.texts) == len(ranked):",
        MATCHING,
    ),
    Mutant(
        "created-terms-taken-as-ranked", "grounder.py",
        "if len(self.term_keys) == self.nconst and _one_arity(self.patterns):",
        "if _one_arity(self.patterns):",
        MATCHING,
    ),
    Mutant(
        "arity-dropped-from-the-member-order", "grounder.py",
        "if len(self.term_keys) == self.nconst and _one_arity(self.patterns):",
        "if len(self.term_keys) == self.nconst:",
        MATCHING,
    ),
    Mutant(
        # {q(c), p(c)} written beside {p(c), q(c)} is a set-atom of its own
        "wide-key-interned-unsorted", "grounder.py",
        "canonical = tuple(sorted(set(key)))",
        "canonical = tuple(dict.fromkeys(key))",
        MATCHING,
    ),
    Mutant(
        "fast-path-head-skips-a-false-comparison", "grounder.py",
        "                    if (row[left] == row[right]) != equal:\n",
        "                    if False:\n",
        MATCHING,
    ),
    Mutant(
        "wide-set-atom-indexed-as-one-member", "grounder.py",
        "            if len(key) == 1:\n"
        "                trigger, args = key[0]\n",
        "            if True:\n"
        "                trigger, args = key[0]\n",
        MATCHING,
    ),
    Mutant(
        "sum-pattern-takes-any-term", "grounder.py",
        "                if type(value) is not int:\n"
        "                    return False\n"
        "                value -= offset\n",
        "                value -= offset\n",
        MATCHING,
    ),
    # the bound and rules without variables
    Mutant(
        "bound-off-by-one", "grounder.py",
        "if room < 0:",
        "if room < -1:",
        MATCHING,
    ),
    Mutant(
        "dropped-instance-not-counted", "grounder.py",
        "            instances[tuple(row[:width])] = instance\n",
        "            instances[tuple(row[:width])] = instance\n"
        "            room += instance is None\n",
        MATCHING,
    ),
    # the rounds: each plan runs once per round over its trigger's delta
    Mutant(
        "plan-runs-first-delta-atom-only", "grounder.py",
        "self.advance(plan[0], [source.slots], delta)",
        "self.advance(plan[0], [source.slots], delta[:1])",
        MATCHING,
    ),
    Mutant(
        # the plans of a round see only the NdAtoms of earlier rounds, so
        # partners that arrive together are never joined
        "delta-indexed-after-plans-run", "grounder.py",
        "            for key, ids in self.index(delta).items():\n"
        "                for source, k in triggers.get(key, ()):\n"
        "                    self.join(source, k, ids)\n",
        # the round's index keys are read off scratch indexes, and the real
        # ones take the delta once the plans have run
        "            indexes = self.by_signature, self.probed\n"
        "            self.by_signature, self.probed = {}, {}\n"
        "            arrived = self.index(delta)\n"
        "            self.by_signature, self.probed = indexes\n"
        "            for key, ids in arrived.items():\n"
        "                for source, k in triggers.get(key, ()):\n"
        "                    self.join(source, k, ids)\n"
        "            self.index(delta)\n",
        MATCHING,
    ),
    Mutant(
        # every literal also matches the round's new NdAtoms, so an instance
        # whose body NdAtoms arrive together is found by the plan of each
        "instance-found-by-several-plans", "grounder.py",
        "fresh = self.fresh if step.at < first else ()",
        "fresh = ()",
        MATCHING,
    ),
    Mutant(
        "count-down-never-derives", "grounder.py",
        "if not missing[r]:",
        "if False:",
        MATCHING,
    ),
    Mutant(
        "after-ignored", "grounder.py",
        "            kept += fixed[done:source.after]\n"
        "            done = source.after\n",
        "            kept += fixed[done:]\n"
        "            done = len(fixed)\n",
        MATCHING,
    ),
    Mutant(
        # an equal head written apart, as {b, a} beside {a, b}, gets an id
        # of its own
        "heads-interned-by-identity", "compiled.py",
        "heads.append(intern(rule.head, len(ids)))",
        "heads.append(next((i for nd, i in ids.items() if nd is rule.head), len(ids))\n"
        "                     if rule.head in ids else intern(rule.head, len(ids)))",
        MATCHING,
    ),
    # parsing: the statement reader, its word builder, its refusals, and the
    # token parser
    Mutant(
        "reader-drops-not", "parser.py",
        '":-not": ";"',
        '":-not": ":"',
        PARSER,
    ),
    Mutant(
        "word-builder-takes-upper-case", "parser.py",
        "all(map(str.islower, set(map(itemgetter(0), words))))",
        "all(map(str.isalpha, set(map(itemgetter(0), words))))",
        PARSER,
    ),
    Mutant(
        "origin-line-one-off", "parser.py",
        "firsts = [starts[i] + 2 * i for i, _ in self.statements()]",
        "firsts = [starts[i] + 2 * i - 1 for i, _ in self.statements()]",
        PARSER,
    ),
    Mutant(
        # a text whose braces do not pair off read as the pieces between them
        "reader-ignores-a-gap", "parser.py",
        "if gap:",
        "if False:",
        PARSER,
    ),
    Mutant(
        "reader-reads-comma-not-as-positive", "parser.py",
        '",not": "!"',
        '",not": ","',
        PARSER,
    ),
    Mutant(
        # a comment in a connector read only up to its first "{", so that
        # braces inside it between two statements are read as a set-atom
        "comment-braces-taken-as-set-atom", "parser.py",
        r'_PIECE = re.compile(r"\{([^{}]*)\}([^{%]*(?:%.*[^{%]*)*)")',
        r'_PIECE = re.compile(r"\{([^{}]*)\}([^{%]*(?:%[^{]*[^{%]*)*)")',
        PARSER,
    ),
    Mutant(
        # a "." with more after it than whitespace before the next "{" read
        # as a plain end: the reader takes the text without what follows it
        "reader-offset-past-unclassified-connector", "parser.py",
        '_JOINS.get(kind, ".?")',
        '_JOINS.get(kind, ".")',
        PARSER,
    ),
    # the statement reader's flat reader
    Mutant(
        # a sum's pattern arg read as its variable alone
        "flat-sum-offset-dropped", "parser.py",
        "made = base, int(offset)",
        "made = base",
        PARSER,
    ),
    Mutant(
        # a compound term read as a constant named by its text
        "flat-reader-takes-a-compound", "parser.py",
        r'_ARG = r"-?\w+(?:\s*\+\s*-?\d+)?"',
        r'_ARG = r"-?[\w()]+(?:\s*\+\s*-?\d+)?"',
        PARSER,
    ),
    Mutant(
        # the first rule's origin counted from the start of the text, not
        # after the comments and the #horizon before it
        "origins-miss-the-lead-lines", "parser.py",
        "initial=self.at))",
        "initial=0))",
        PARSER,
    ),
    Mutant(
        "flat-clash-origin-of-the-rule-before", "parser.py",
        'self.origins()[self.shape.count(".", 0, self.texts.index(key))]',
        'self.origins()[self.shape.count(".", 0, self.texts.index(key)) - 1]',
        PARSER,
    ),
    Mutant(
        "flat-arities-not-recorded", "parser.py",
        'if clash and "=" not in key:  # arities as',
        'if False:  # arities as',
        PARSER,
    ),
    Mutant(
        "flat-reader-drops-horizon", "parser.py",
        'self.horizon = "INT", lead[1], lead.start(1)',
        "self.horizon = None",
        PARSER,
    ),
    Mutant(
        "flat-comparison-head-taken", "parser.py",
        'shape[i - 1] in ".;!"',
        'shape[i - 1] in ";!"',
        PARSER,
    ),
    Mutant(
        "flat-comparison-under-not-taken", "parser.py",
        'shape[i - 1] in ".;!"',
        'shape[i - 1] in "."',
        PARSER,
    ),
    Mutant(
        "flat-comparison-and-more-taken", "parser.py",
        "if len(made[texts[i]]) > 1 or shape",
        "if shape",
        PARSER,
    ),
    Mutant(
        # a member followed by more than a separator, as "q x", read as the member alone
        "flat-reader-ignores-a-trailing-gap", "parser.py",
        "if any(parts[::9]):",
        "if any(parts[:-1:9]):",
        PARSER,
    ),
    # the command line's loader of what the statement reader takes whole
    Mutant(
        "names-ordered-other-than-by-key", "cli.py",
        "texts = sorted(set(chain.from_iterable(keys)))",
        "texts = sorted(set(chain.from_iterable(keys)), reverse=True)",
        PARSER,
    ),
    Mutant(
        "repeated-body-id-kept", "compiled.py",
        "else tuple(dict.fromkeys(map(new, body))) for body in lists]",
        "else tuple(map(new, body)) for body in lists]",
        PARSER,
    ),
    Mutant(
        "least-check-blind-to-negation", "cli.py",
        "return not any(parser.negated), table_program(",
        "return True, table_program(",
        PARSER,
    ),
    # the rules as written, which `rules` and `ndlp ground` read: each
    # body's ids in literal order, repeats kept, their signs and origin
    Mutant(
        "written-body-read-one-literal-off", "compiled.py",
        "yield list(map(new, body)), signs, origin",
        "yield list(map(new, [*body[1:], *body[:1]])), signs, origin",
        WRITTEN,
    ),
    Mutant(
        "written-body-without-its-repeats", "compiled.py",
        "zip(written(), pos, neg)",
        "zip(written(), map(dict.fromkeys, pos), map(dict.fromkeys, neg))",
        WRITTEN,
    ),
    Mutant(
        "written-origins-shifted-by-one", "parser.py",
        "return zip(map(signs.__getitem__, shapes), self.origins())",
        "return zip(map(signs.__getitem__, shapes), self.origins()[1:] + [None])",
        PARSER,
    ),
    # the set-atom patterns: the flat reader's, and the grounder's from a
    # `Program`, and their one consumer
    Mutant(
        "pattern-sum-offset-dropped", "parser.py",
        "made = base, int(offset)",
        "made = base, 0",
        PARSER,
    ),
    Mutant(
        # every name read as a variable's, so a rule's constants get slots
        # of their own
        "pattern-ground-argument-taken-as-variable", "parser.py",
        "elif type(arg) is str and arg[0].isupper():",
        "elif type(arg) is str:",
        PARSER,
    ),
    Mutant(
        "pattern-time-variable-flag-lost", "grounder.py",
        "timed = list(map(is_time_variable, names))",
        "timed = [False] * len(names)",
        MATCHING,
    ),
    Mutant(
        "fixed-rule-spelled-with-the-origin-before", "grounder.py",
        "self.fixed = [(negated, origin) for _, _, negated, origin in fixed], heads, pos, neg",
        "self.fixed = [(rule[2], fixed[r - 1][3]) for r, rule in enumerate(fixed)], heads, pos,"
        " neg",
        MATCHING,
    ),
    Mutant(
        "fixed-rule-with-a-false-comparison-kept", "grounder.py",
        "            if not all([_holds(patterns[i][0]) for i, test in zip(body, tests)"
        " if test]):\n"
        "                continue\n",
        "",
        MATCHING,
    ),
    Mutant(
        "least-check-blind-to-negation-in-patterns", "cli.py",
        "return not any(any(negated) for _, _, negated, _ in rules), ground_patterns(",
        "return True, ground_patterns(",
        PARSER,
    ),
    # every text the flat reader takes is grounded from its patterns, and a
    # `Program` with a comparison too; rounds run for rules with variables
    Mutant(
        "flat-texts-without-variables-parsed", "parser.py",
        "if self.flat_texts is None:",
        "if self.flat_texts is None or not any(names.values()):",
        PARSER,
    ),
    Mutant(
        "rounds-skipped-with-rules-with-variables", "grounder.py",
        "if sources:",
        "if not sources:",
        MATCHING,
    ),
    Mutant(
        "comparison-programs-compiled-as-written", "grounder.py",
        'if "=" in text or not text.islower():',
        "if not text.islower():",
        MATCHING,
    ),
    Mutant(
        "not-on-comparison-accepted", "parser.py",
        "elif builtin:",
        "elif False:",
        PARSER,
    ),
    Mutant(
        "token-parser-rebuilds-repeated-set-atom", "parser.py",
        "made = self.set_atoms.get(self.text[starts[first] : starts[end] + 1])",
        "made = None",
        PARSER,
    ),
    # answer-set expansion and the report writer
    Mutant(
        "rows-sorted-without-signed-order", "answersets.py",
        "masks = _canonical(masks, layout)",
        "masks = sorted(masks, reverse=True)",
        EXPANSION,
    ),
    Mutant(
        "order-key-size-rule-reversed", "answersets.py",
        "<< size | width - p.bit_count()",
        "<< size | p.bit_count()",
        EXPANSION,
    ),
    Mutant(
        "wf-expansion-drops-negatives", "cli.py",
        "report.negatives or ()",
        "()",
        EXPANSION,
    ),
    Mutant(
        "write-chunk-drops-a-row", "cli.py",
        "masks[start:start + CHUNK_ROWS]",
        "masks[start:start + CHUNK_ROWS - 1]",
        EXPANSION,
    ),
    Mutant(
        "write-drops-the-last-run", "cli.py",
        "tail = len(texts), len(masks).bit_length(), runs[-1] + close",
        "tail = len(texts), len(masks).bit_length(), close",
        EXPANSION,
    ),
    Mutant(
        "middle-table-split-one-slot-off", "cli.py",
        "table(width - a, width - b)",
        "table(width - a, width - b - 1)",
        EXPANSION,
    ),
    Mutant(
        "subset-minimal-keeps-supersets", "answersets.py",
        "if all(t & s != t for t in kept):",
        "if all(t != s for t in kept):",
        EXPANSION,
    ),
    Mutant(
        "shared-image-decoded-one-bit-off", "answersets.py",
        "bits = [1 << b for b in range(len(self.slots) - 1, -1, -1)]",
        "bits = [1 << b for b in range(len(self.slots), 0, -1)]",
        EXPANSION,
    ),
    Mutant(
        "shared-mask-shifted-by-one", "answersets.py",
        "bit = {e: 1 << len(slots) - i for i, e in enumerate(slots, 1)}",
        "bit = {e: 1 << len(slots) - i for i, e in enumerate(slots)}",
        EXPANSION,
    ),
    # answer sets as the product of the components of NdAtoms sharing an atom
    Mutant(
        "components-never-united", "answersets.py",
        "            parent[root(r)] = root(nd[0])\n",
        "            root(r)\n",
        EXPANSION,
    ),
    Mutant(
        "negative-left-out-of-its-component", "answersets.py",
        "atoms = [*chain.from_iterable(sides[0]), *chain.from_iterable(sides[1])]",
        "atoms = [*chain.from_iterable(sides[0])]",
        EXPANSION,
    ),
    Mutant(
        "count-skips-a-factor", "answersets.py",
        "total = prod(map(len, own)) * prod(map(len, grown))",
        "total = prod(map(len, own)) * prod(map(len, grown[1:]))",
        EXPANSION,
    ),
    Mutant(
        "one-sided-key-size-rule-reversed", "answersets.py",
        "<< size | width - m.bit_count()",
        "<< size | m.bit_count()",
        EXPANSION,
    ),
    Mutant(
        "one-sided-key-with-signed-slots", "answersets.py",
        "    if not signed:  # the key's positive half alone\n",
        "    if True:\n",
        EXPANSION,
    ),
    # the writer's set-atoms, spelled off the atom table one comprehension
    # per list, and the ids and texts that NdAtoms from library callers get
    Mutant(
        "json-member-texts-unescaped", "cli.py",
        "texts = list(map(_encode, texts))",
        "texts = [f'\"{t}\"' for t in texts]",
        EXPANSION,
    ),
    Mutant(
        "two-member-separator-dropped", "compiled.py",
        'f"{lead}{texts[m[0]]}{sep}{texts[m[1]]}{close}" if len(m) == 2',
        'f"{lead}{texts[m[0]]}{texts[m[1]]}{close}" if len(m) == 2',
        EXPANSION,
    ),
    Mutant(
        "wide-separator-dropped", "compiled.py",
        'else f"{lead}{sep.join([texts[r] for r in m])}{close}"',
        'else f"{lead}{\'\'.join([texts[r] for r in m])}{close}"',
        EXPANSION,
    ),
    Mutant(
        "undefined-written-with-the-not-lead", "cli.py",
        '*spelled(undefined, "    {", ", ", "}\\n")',
        '*spelled(undefined, "  not {", ", ", "}\\n")',
        EXPANSION,
    ),
    Mutant(
        "several-models-spelled-from-the-first", "cli.py",
        "ids = list(set().union(*models))",
        "ids = list(models[0])",
        EXPANSION,
    ),
    Mutant(
        "library-undefined-tabled-as-negatives", "cli.py",
        "return list(rank), members, models, negatives, undefined",
        "return list(rank), members, models, negatives, negatives",
        EXPANSION,
    ),
)


def problems(mutant: Mutant) -> list[str]:
    """What keeps the mutant from applying cleanly: a missing or repeated
    old text, or a test file that does not exist."""
    found = []
    count = (PACKAGE / mutant.file).read_text().count(mutant.old)
    if count != 1:
        found.append(f"{mutant.name}: old text occurs {count} times in {mutant.file}")
    found += [f"{mutant.name}: no test file {test}"
              for test in mutant.tests if not (ROOT / test).is_file()]
    return found


def _capped() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run(mutant: Mutant) -> tuple[str, float]:
    """Patch a scratch copy of the package and run the mutant's tests."""
    with tempfile.TemporaryDirectory(prefix="ndlp-mutant-") as scratch:
        work = Path(scratch)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        shutil.copytree(PACKAGE, work / "src" / "ndlp", ignore=ignore)
        shutil.copytree(ROOT / "tests", work / "tests", ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", work)
        target = work / "src" / "ndlp" / mutant.file
        target.write_text(target.read_text().replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                   *mutant.tests]
        start = time.perf_counter()
        try:
            code = subprocess.run(command, cwd=work, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL, timeout=TIMEOUT_S,
                                  preexec_fn=_capped).returncode
        except subprocess.TimeoutExpired:
            return f"{KILLED} (timeout)", time.perf_counter() - start
        elapsed = time.perf_counter() - start
    if code == 1:
        return KILLED, elapsed
    if code == 0:
        return SURVIVES, elapsed
    return f"error (pytest exit {code})", elapsed


def main() -> int:
    broken = [line for m in MUTANTS for line in problems(m)]
    for line in broken:
        print(line)
    if broken:
        return 1
    width = max(len(m.name) for m in MUTANTS)
    unexpected = 0
    for mutant in MUTANTS:
        result, elapsed = run(mutant)
        ok = result.split()[0] == mutant.expect
        unexpected += not ok
        note = f"  ({mutant.reason})" if mutant.reason and ok else ""
        flag = "" if ok else f"  UNEXPECTED, expected {mutant.expect}"
        print(f"{mutant.name:<{width}}  {result:<9} {elapsed:6.1f} s{flag}{note}", flush=True)
    print(f"{len(MUTANTS)} mutants, {unexpected} unexpected")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
