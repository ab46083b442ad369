"""Solver engine for non-deterministic logic programs.

Atoms here are sets of ordinary atoms treated as single units of truth.
The package parses and grounds such programs and evaluates them under the
least-model, stable-model, and well-founded semantics, with answer-set
expansion of any model into the branches of its solution tree.
"""

from .answersets import AnswerSet, Expansion, count, expand
from .errors import (
    EvaluationError,
    GroundingError,
    InconsistencyError,
    NdlpError,
    ParseError,
    ProgramError,
)
from .compiled import GroundProgram, make_ground_program, restricted_base
from .grounder import ground
from .parser import parse_program, parse_rule
from .positive import (
    is_model,
    least_model,
    satisfies_rule,
    tp_step,
)
from .stable import (
    StableModels,
    enumerate_stable,
    is_stable,
    reduct,
    tprime_step,
)
from .syntax import (
    Atom,
    Compound,
    Constant,
    Integer,
    Literal,
    NdAtom,
    Program,
    Rule,
    Sum,
    Variable,
    canonicalize,
)
from .wf import (
    PartialInterpretation,
    Truth,
    greatest_unfounded,
    well_founded_model,
    wf_tp_step,
    wf_truth,
    wp_step,
)

__all__ = [
    "AnswerSet",
    "Atom",
    "Compound",
    "Constant",
    "EvaluationError",
    "Expansion",
    "GroundProgram",
    "GroundingError",
    "InconsistencyError",
    "Integer",
    "Literal",
    "NdAtom",
    "NdlpError",
    "ParseError",
    "PartialInterpretation",
    "Program",
    "ProgramError",
    "Rule",
    "StableModels",
    "Sum",
    "Truth",
    "Variable",
    "canonicalize",
    "count",
    "enumerate_stable",
    "expand",
    "greatest_unfounded",
    "ground",
    "is_model",
    "is_stable",
    "least_model",
    "make_ground_program",
    "parse_program",
    "parse_rule",
    "reduct",
    "restricted_base",
    "satisfies_rule",
    "tp_step",
    "tprime_step",
    "well_founded_model",
    "wf_tp_step",
    "wf_truth",
    "wp_step",
]
