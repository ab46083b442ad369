"""Record the reference outputs that `expected.json` holds.

    python3 perfbench/record.py

Runs every corpus request and every robot variant the planning cycles can
draw through `ndlp.cli.main` and stores the normalized digest of each text
report (see `outputs.report_digest`). Run it only on an engine whose
outputs are trusted; the benchmark then checks later engines against it.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(SRC))

from outputs import report_digest  # noqa: E402
from workloads import (  # noqa: E402
    CORPUS_REQUESTS, EXPECTED_PATH, PLANNING_CYCLE, PLANNING_ONCE, ROBOT_ACTIONS, ROBOT_INITS,
    SMALL_CYCLES, SMALL_ONCE, corpus_key, robot_combos, robot_key, robot_variant,
)


def report(cli, argv: list[str]) -> str:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        cli.main(argv)
    return out.getvalue()


def main() -> int:
    from ndlp import cli

    examples = SRC / "ndlp" / "examples"
    expected = {}
    for name, command, semantics, _ in CORPUS_REQUESTS:
        stdout = report(cli, [command, "--semantics", semantics, str(examples / name)])
        expected[corpus_key(name, command, semantics)] = report_digest(stdout)
    base = (examples / "robot.ndlp").read_text(encoding="utf-8")
    combos = set(robot_combos(PLANNING_CYCLE + PLANNING_ONCE + SMALL_CYCLES["planning"]
                              + SMALL_ONCE["planning"]))
    combos.add((3, ROBOT_INITS[0], ROBOT_ACTIONS))
    scratch = BENCH / "_work"
    scratch.mkdir(exist_ok=True)
    path = scratch / "record.ndlp"
    for horizon, init, actions in sorted(combos):
        path.write_text(robot_variant(base, horizon, init, actions, None), encoding="utf-8")
        expected[robot_key(horizon, init, actions)] = report_digest(report(cli, ["expand", str(path)]))
        print(robot_key(horizon, init, actions), flush=True)
    path.unlink()
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
