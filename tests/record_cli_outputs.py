"""Record the CLI's outputs on the corpus into `cli_outputs.json`.

Each call is run in process through `ndlp.cli.main` and stored as its
arguments (the corpus program is appended as the last one), its exit code,
and sha256 digests of its stdout and of its stderr without the `solved in`
timing line. `test_cli.py::TestPinnedOutputs` replays the calls and
requires the same three values, so a refactor that changes what the CLI
prints fails tier-1. Rerun this only when an output change is intended:

    PYTHONPATH=src python tests/record_cli_outputs.py
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from ndlp.cli import main
from ndlp.corpus import CORPUS_NAMES, corpus_path

PINS = Path(__file__).with_name("cli_outputs.json")


def calls() -> list[tuple[str, list[str]]]:
    """(corpus program, arguments before it) for every pinned call."""
    matrix = []
    for name in CORPUS_NAMES:
        for command in (["solve"], ["expand", "--max-answer-sets", "40"]):
            for semantics in ("least", "stable", "wf"):
                for fmt in ("text", "json"):
                    matrix.append((name, [*command, "--semantics", semantics, "--format", fmt]))
        matrix.append((name, ["ground"]))
    for k in ("1", "3", "5"):
        matrix.append(("robot.ndlp", ["solve", "--semantics", "stable", "--max-models", k]))
    return matrix


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def untimed(stderr: str) -> str:
    """Stderr without the `solved in` line, whose figure varies by run."""
    return "".join(line for line in stderr.splitlines(keepends=True)
                   if not line.startswith("solved in "))


def run(name: str, args: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([*args, str(corpus_path(name))])
    return {"program": name, "args": args, "exit": code,
            "stdout_sha256": sha256(out.getvalue()),
            "stderr_sha256": sha256(untimed(err.getvalue()))}


if __name__ == "__main__":
    records = [run(name, args) for name, args in calls()]
    PINS.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"{len(records)} calls written to {PINS}")
