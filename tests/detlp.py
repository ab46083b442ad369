"""Reference semantics for deterministic (plain-atom) logic programs.

Ordinary ground logic programs over string atoms: least model, stable
models via reduct guess-and-check, and the well-founded model via the
alternating fixpoint. Together with `embed`, which wraps every atom in a
singleton NdAtom, these are the independent oracles for checking that the
set-based engine collapses to the classical semantics on singleton
programs. Nothing here shares evaluation code with the NdAtom engine, and
nothing is tuned beyond the dozen-atom scale the tests use.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable

from ndlp.syntax import Atom, Literal, Program, Rule, canonicalize


@dataclass(frozen=True)
class DetRule:
    """head :- pos..., not neg... over plain string atoms."""

    head: str
    pos: tuple[str, ...] = ()
    neg: tuple[str, ...] = ()


def det_atoms(rules: Iterable[DetRule]) -> tuple[str, ...]:
    atoms: set[str] = set()
    for rule in rules:
        atoms.add(rule.head)
        atoms.update(rule.pos)
        atoms.update(rule.neg)
    return tuple(sorted(atoms))


def det_least_model(rules: Iterable[DetRule]) -> frozenset[str]:
    """Least Herbrand model of a negation-free rule set."""
    rules = tuple(rules)
    if any(rule.neg for rule in rules):
        raise ValueError("least model is defined for negation-free programs")
    return _lfp(rules)


def _lfp(rules: tuple[DetRule, ...]) -> frozenset[str]:
    derived: set[str] = set()
    changed = True
    while changed:
        changed = False
        for rule in rules:
            if rule.head not in derived and all(b in derived for b in rule.pos):
                derived.add(rule.head)
                changed = True
    return frozenset(derived)


def _reduct(rules: tuple[DetRule, ...], interp: frozenset[str]) -> tuple[DetRule, ...]:
    return tuple(
        DetRule(head=r.head, pos=r.pos)
        for r in rules
        if not any(b in interp for b in r.neg)
    )


def det_stable(rules: Iterable[DetRule]) -> list[frozenset[str]]:
    """All stable models, by guessing over the atoms that occur negated."""
    rules = tuple(rules)
    negated = sorted({a for r in rules for a in r.neg})
    models: set[frozenset[str]] = set()
    for bits in product((False, True), repeat=len(negated)):
        assumed_in = frozenset(a for a, bit in zip(negated, bits) if bit)
        candidate = _lfp(_reduct(rules, assumed_in))
        if frozenset(negated) & candidate != assumed_in:
            continue
        if _lfp(_reduct(rules, candidate)) == candidate:
            models.add(candidate)
    return sorted(models, key=sorted)


def det_wf(rules: Iterable[DetRule]) -> tuple[frozenset[str], frozenset[str]]:
    """Well-founded model by the alternating fixpoint.

    Underestimates and overestimates of the true atoms are refined against
    each other until the underestimate stabilizes; whatever the final
    overestimate misses is well-founded false.
    """
    rules = tuple(rules)
    atoms = frozenset(det_atoms(rules))

    def against(assumed_true: frozenset[str]) -> frozenset[str]:
        kept = tuple(
            DetRule(head=r.head, pos=r.pos)
            for r in rules
            if not any(b in assumed_true for b in r.neg)
        )
        return _lfp(kept)

    under: frozenset[str] = frozenset()
    while True:
        over = against(under)
        refined = against(over)
        if refined == under:
            return under, frozenset(atoms - over)
        under = refined


def embed(rules: Iterable[DetRule]) -> Program:
    """Represent a deterministic program with singleton NdAtoms."""
    nd_rules = []
    for rule in rules:
        head = canonicalize([Atom(pred=rule.head)])
        body = [Literal(canonicalize([Atom(pred=b)])) for b in rule.pos]
        body += [Literal(canonicalize([Atom(pred=b)]), negated=True) for b in rule.neg]
        nd_rules.append(Rule(head=head, body=tuple(body)))
    return Program(rules=tuple(nd_rules))


def desingletonize(nd_atoms: Iterable) -> frozenset[str]:
    """Map a set of singleton NdAtoms back to plain atom names."""
    names = set()
    for nd in nd_atoms:
        if len(nd) != 1:
            raise ValueError(f"not a singleton NdAtom: {nd}")
        names.add(nd.atoms[0].pred)
    return frozenset(names)
