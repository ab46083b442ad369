"""Reading ndlp reports back, independently of the engine's own code.

`parse_report` turns the text or JSON report into plain lists of strings;
`report_digest` hashes the parts of a text report that must not change
under the ROADMAP's planned rewrites. It drops the "ground rules ..., base
size ..." line and, for wf reports, the negative atoms and the answer sets
(whose signed `not` entries follow the base).
"""

from __future__ import annotations

import hashlib
import json


class CheckFailed(Exception):
    """A request's output is wrong; `layer` names the layer blamed."""

    def __init__(self, layer: str, message: str):
        super().__init__(message)
        self.layer = layer


def split_set(text: str) -> list[str]:
    """'{a(x, y), b}' -> ['a(x, y)', 'b'], splitting at top-level commas."""
    inner = text.strip()
    if not (inner.startswith("{") and inner.endswith("}")):
        raise CheckFailed("cli", f"not a set: {text!r}")
    inner = inner[1:-1]
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(inner):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(inner[start:i].strip())
            start = i + 1
    if inner.strip():
        parts.append(inner[start:].strip())
    return parts


def parse_report(stdout: str, fmt: str) -> dict:
    """Models, negatives, undefined atoms, totality and answer sets.

    NdAtoms come back as lists of atom strings, answer sets as lists of
    entry strings (`not a` for signed entries).
    """
    if fmt == "json":
        try:
            data = json.loads(stdout)
        except ValueError as err:
            raise CheckFailed("cli", f"unreadable JSON report: {err}") from None
        return {
            "models": data["models"],
            "negatives": data.get("negatives", []),
            "undefined": data.get("undefined", []),
            "total": data.get("total", True),
            "answer_sets": data["answer_sets"],
        }
    report = {"models": [], "negatives": [], "undefined": [], "total": True, "answer_sets": []}
    in_undefined = False
    for line in stdout.splitlines()[2:]:
        if line.startswith("model "):
            report["models"].append([])
            report["answer_sets"].append([])
            in_undefined = False
        elif line.startswith("    ") and in_undefined:
            report["undefined"].append(split_set(line))
        elif line.startswith("  not "):
            report["negatives"].append(split_set(line[6:]))
        elif line == "  undefined:":
            in_undefined = True
        elif line.startswith("  total: "):
            report["total"] = line.endswith("yes")
        elif line.startswith("  answer set "):
            report["answer_sets"][-1].append(split_set(line.split(": ", 1)[1]))
        elif line.startswith("  {"):
            report["models"][-1].append(split_set(line))
        elif line not in ("no models", "truncated: yes"):
            raise CheckFailed("cli", f"unexpected report line {line!r}")
    return report


def report_digest(stdout: str) -> str:
    """sha256 over the text report minus what ROADMAP item 4 may change."""
    lines = stdout.splitlines()
    wf = bool(lines) and lines[0] == "semantics: wf"
    digest = hashlib.sha256()
    for i, line in enumerate(lines):
        if i == 1 and line.startswith("ground rules: "):
            continue
        if wf and (line.startswith("  not ") or line.startswith("  answer set ")):
            continue
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()
