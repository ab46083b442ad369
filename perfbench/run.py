"""ndlp benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload planning --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout; the engine is imported from its `src/`.
One client sends requests in a closed loop: each request is one in-process
call to `ndlp.cli.main(argv)` (or, for `count` requests, the library path
parse -> ground -> least_model -> count) on a generated file, with stdout
and stderr captured, and the next request starts when it returns. One
process, one thread. `--workload all` runs each workload in its own fresh
process, one after another.

`--trace 0` sends the corpus pass, whole cycles of seeded variants (one
per 3 s of `--seconds`; see `workloads.SECONDS_PER_CYCLE`), the variants
sent once per run and the workload's target, and reports the end-to-end
metrics over the cycled variants, each request's wall time scaled to a
nominal machine speed by the probe in `speed.py`.
`--trace 1` replays a fixed round of the same seeded requests (corpus,
target, a fixed prefix of the variants) untraced and then traced, and
reports the per-layer metrics; its counts repeat exactly for a seed. Every request's output is checked. The last stdout line is a JSON
object with `correct`, `attempted`, `failed` and `metrics`; a fuller
results record (metadata, failures, spans) goes under `perfbench/results/`.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXAMPLES = SRC / "ndlp" / "examples"

sys.path.insert(0, str(BENCH))

import speed  # noqa: E402
from outputs import CheckFailed  # noqa: E402
from tracing import LAYER_MAP, LayerError, TracedRun, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SETUP_REPEATS = 5
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
ENGINE_MODULES = ("cli", "errors", "parser", "grounder", "positive", "stable", "wf",
                  "answersets", "syntax")


class Engine:
    """The ndlp modules, freshly imported from this checkout's src/."""

    def __init__(self):
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        for name in [m for m in sys.modules if m == "ndlp" or m.startswith("ndlp.")]:
            del sys.modules[name]
        package = importlib.import_module("ndlp")
        if Path(package.__file__).resolve().parent != (SRC / "ndlp").resolve():
            raise RuntimeError(f"imported ndlp from {package.__file__}, not from {SRC}")
        for name in ENGINE_MODULES:
            setattr(self, name, importlib.import_module(f"ndlp.{name}"))


@dataclass
class Outcome:
    seconds: float
    rc: int | None = None
    stdout: str = ""
    value: tuple | None = None  # result of a count request
    error: str | None = None
    error_layer: str | None = None

    def digest(self) -> str:
        """Hash of the result; for a failure only the exception type, since
        where the recursion limit hits differs between traced and untraced."""
        if self.error:
            body = self.error.split(":")[0]
        elif self.value is not None:
            body = repr(self.value)
        else:
            body = f"{self.rc}\n{self.stdout}"
        return hashlib.sha256(body.encode()).hexdigest()


@dataclass
class Tally:
    """Requests attempted and failed. A failure that a request declares as
    its known defect (an exception type) counts in `failed_ratio` and
    ok_ratio but not in `failed`, the count of unexpected failures."""

    attempted: int = 0
    failed: int = 0
    expected: int = 0
    wrong: int = 0
    failures: list = field(default_factory=list)

    def add(self, name: str, problem: tuple[str, str, bool] | None,
            known_failure: str | None = None) -> bool:
        self.attempted += 1
        if problem is None:
            return True
        layer, reason, wrong = problem
        expected = known_failure is not None and not wrong \
            and reason.startswith(known_failure + ":")
        self.expected += expected
        self.failed += not expected
        self.wrong += wrong
        self.failures.append({"request": name, "layer": layer, "reason": reason,
                              "wrong_output": wrong, "expected": expected})
        return False

    @property
    def failed_ratio(self) -> float:
        return (self.failed + self.expected) / self.attempted


def _layer_of(tb) -> str:
    """The innermost ndlp module on a traceback, as a layer name."""
    layer = "cli"
    for frame in traceback.extract_tb(tb):
        path = Path(frame.filename)
        if path.parent.name == "ndlp" and path.stem in ENGINE_MODULES:
            layer = path.stem if path.stem not in ("syntax", "errors") else "parser"
    return layer


def write_files(request, work: Path) -> list[str]:
    for name, text in request.files.items():
        (work / name).write_text(text, encoding="utf-8")
    return [str(work / a) if a in request.files else a for a in request.argv]


def execute(engine: Engine, request, work: Path) -> Outcome:
    """One untraced request; only the engine call is inside the timer."""
    argv = write_files(request, work)
    path = str(work / next(iter(request.files)))
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    start = time.perf_counter()
    try:
        if request.kind == "count":
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
            gp = engine.grounder.ground(engine.parser.parse_program(text))
            value = engine.answersets.count(engine.positive.least_model(gp))
            return Outcome(time.perf_counter() - start, value=value)
        with redirect_stdout(out), redirect_stderr(err):
            rc = engine.cli.main(argv)
        return Outcome(time.perf_counter() - start, rc=rc, stdout=out.getvalue())
    except SystemExit as stop:
        return Outcome(time.perf_counter() - start, rc=stop.code, stdout=out.getvalue())
    except Exception as error:
        seconds = time.perf_counter() - start
        return Outcome(seconds, error=f"{type(error).__name__}: {error}",
                       error_layer=_layer_of(error.__traceback__))


def judge(request, outcome: Outcome) -> tuple[str, str, bool] | None:
    """None when the output is right, else (layer, reason, wrong_output)."""
    if outcome.error:
        return outcome.error_layer or request.layer, outcome.error, False
    if request.kind == "count":
        if outcome.value != (request.expect_count, True):
            return request.layer, f"count {outcome.value}, expected {request.expect_count}", True
        return None
    if outcome.rc != request.expect_rc:
        return request.layer, f"exit code {outcome.rc}, expected {request.expect_rc}", True
    if request.check is not None:
        try:
            request.check(outcome.stdout)
        except CheckFailed as failed:
            return failed.layer, str(failed), True
        except (KeyError, IndexError, TypeError, ValueError) as broken:
            return request.layer, f"malformed report: {broken!r}", True
    return None


def setup(workload: str, seed: int, small: bool, work: Path, repeats: int):
    """Import ndlp, generate the fixed files, one untimed warm-up request.

    Repeated `repeats` times (dropping ndlp from sys.modules in between);
    the first repetition is timed from process start. Returns the engine,
    the workload, and the median set-up time scaled to the probe's nominal
    speed and unscaled.
    """
    times, probes = [], []
    for rep in range(repeats):
        start = STARTED if rep == 0 else time.perf_counter()
        engine = Engine()
        load = Workload(workload, seed, EXAMPLES, small=small)
        for request in load.fixed():
            write_files(request, work)
        warm = load.variant(-1)
        problem = judge(warm, execute(engine, warm, work))
        times.append(time.perf_counter() - start)
        if problem is not None:
            raise RuntimeError(f"warm-up request {warm.name} failed: {problem[1]}")
        probes.append(speed.sample())
    scaled = speed.scale(times, probes[:1] + probes)
    return engine, load, statistics.median(scaled), statistics.median(times)


def tail(durations: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it; in
    runs too short to have one, the median."""
    ordered = sorted(durations)
    index = max(len(ordered) // 2, len(ordered) - TAIL_BEYOND - 1)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def run_timed(engine, load, work: Path, seconds: float, tally: Tally, digests: dict):
    """The closed loop: the corpus, whole cycles of variants, the target.

    The target is timed on its own (`target_s` in the record; a single
    request is too noisy for an end-to-end metric) and goes last, so the heap
    it leaves behind does not slow the variants; ops_per_s and the
    latencies are over the variants, whose mix the cycle fixes. Every
    request's wall time is scaled by the speed probe timed just before and
    just after it (see speed.py); the unscaled figures go in the record.
    """
    names, wall, in_loop, ok = [], [], [], 0
    target = load.target()
    count = load.timed_requests(seconds)
    requests = itertools.chain(((r, False) for r in load.corpus()),
                               ((load.variant(i), True) for i in range(count)),
                               ((r, False) for r in load.once() + [target]))
    probes = [speed.sample()]
    for request, looped in requests:
        outcome = execute(engine, request, work)
        probes.append(speed.sample())
        passed = tally.add(request.name, judge(request, outcome), request.known_failure)
        digests[request.name] = outcome.digest()
        names.append(request.name)
        wall.append(outcome.seconds)
        in_loop.append(looped)
        ok += passed and looped
    scaled = speed.scale(wall, probes)

    def figures(times):
        durations = [t for t, looped in zip(times, in_loop) if looped]
        p_tail, percentile = tail(durations)
        return {"ops_per_s": ok / sum(durations),
                "latency_p50_s": statistics.median(durations),
                "latency_tail_s": p_tail}, percentile, len(durations)

    metrics, percentile, samples = figures(scaled)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["ok_ratio"] = 1.0 - tally.failed_ratio
    extra = {"tail_percentile": percentile, "samples": samples,
             "unscaled": figures(wall)[0], "failed_ratio": tally.failed_ratio,
             "target_s": scaled[-1], "target_wall_s": wall[-1], "target": target.name,
             "probe_s": {"median": statistics.median(probes), "min": min(probes),
                         "max": max(probes)},
             "requests": [list(r) for r in zip(names, wall, scaled)]}
    return metrics, extra


def run_traced(engine, load, work: Path, tally: Tally, digests: dict):
    """The fixed round untraced, then traced; outputs must match byte for byte."""
    round_ = load.trace_round()
    untraced = [execute(engine, request, work) for request in round_]
    traced_run = TracedRun(engine)
    for rid, (request, plain) in enumerate(zip(round_, untraced)):
        argv = write_files(request, work)
        gc.collect()
        try:
            if request.kind == "count":
                value = traced_run.count(rid, str(work / next(iter(request.files))))
                traced = Outcome(0.0, value=value)
            else:
                rc, stdout = traced_run.cli(rid, argv)
                traced = Outcome(0.0, rc=rc, stdout=stdout)
        except LayerError as wrapped:
            traced = Outcome(0.0, error=str(wrapped), error_layer=wrapped.layer)
        problem = judge(request, traced)
        if problem is None and traced.digest() != plain.digest():
            problem = ("cli", "traced output differs from cli.main output", True)
        if problem is not None and traced.error is None:
            traced_run.errors[problem[0]] += 1  # exceptions were counted by their span
        tally.add(request.name, problem, request.known_failure)
        digests[request.name] = traced.digest()
    untraced_s = sum(o.seconds for o in untraced)
    metrics = layer_metrics(traced_run, untraced_s)
    extra = {"untraced_s": untraced_s, "traced_s": traced_run.request_time()}
    return metrics, extra, traced_run


def source_digest(paths) -> str:
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def check_determinism(key: str, src: str, digests: dict, counts: dict | None, tally: Tally) -> None:
    """Runs of the same code and seed must give the same outputs and counts."""
    state_dir = BENCH / "_state"
    state_dir.mkdir(exist_ok=True)
    path = state_dir / f"{key}.json"
    state = {"src": src, "outputs": {}, "counts": None}
    if path.exists():
        previous = json.loads(path.read_text())
        if previous.get("src") == src:
            state = previous
    for name, digest in digests.items():
        if state["outputs"].setdefault(name, digest) != digest:
            tally.add(f"determinism: {name}", ("cli", "output differs from an earlier run", True))
    if counts is not None:
        if state["counts"] is not None and state["counts"] != counts:
            tally.add("determinism: per-layer counts",
                      ("cli", "per-layer counts differ from an earlier run", True))
        state["counts"] = counts
    path.write_text(json.dumps(state, indent=1, sort_keys=True))


def benchmark_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """One workload in this process; returns the results record."""
    work = BENCH / "_work" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tally, digests = Tally(), {}
    try:
        engine, load, setup_s, setup_wall_s = setup(workload, seed, small, work,
                                                    1 if trace else SETUP_REPEATS)
        if trace:
            metrics, extra, traced_run = run_traced(engine, load, work, tally, digests)
            counts = {k: v for k, v in metrics.items() if not k.endswith(("_s", "_ratio"))}
        else:
            metrics, extra = run_timed(engine, load, work, seconds, tally, digests)
            metrics = {"setup_s": setup_s, **metrics}
            extra["unscaled"]["setup_s"] = setup_wall_s
            counts, traced_run = None, None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    src = source_digest((SRC / "ndlp").rglob("*.py"))
    bench = source_digest(list(BENCH.glob("*.py")) + list(BENCH.glob("*.json")))
    key = f"{workload}-seed{seed}" + ("-small" if small else "")
    check_determinism(key, src + bench, digests, counts, tally)

    spec = benchmark_spec()
    units = {m["name"]: m["unit"] for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "small": small, "nproc": os.cpu_count(), "python": platform.python_version(),
        "commit": commit(), "source_sha256": src,
        "workloads": spec.get("workloads", []),
        "metric_units": units, "layer_map": LAYER_MAP,
        "correct": tally.wrong == 0, "attempted": tally.attempted, "failed": tally.failed,
        "expected_failures": tally.expected,
        "failures": tally.failures, "metrics": metrics, "extra": extra,
    }
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    stem = results / f"{key}-trace{int(trace)}-{os.getpid()}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if traced_run is not None:
        with open(stem.with_suffix(".spans.jsonl"), "w", encoding="utf-8") as handle:
            for s in traced_run.spans:
                handle.write(json.dumps(s.__dict__) + "\n")
    return record


def result_line(record: dict) -> dict:
    units = record["metric_units"]
    return {
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units.get(name, "")}
                    for name, value in record["metrics"].items() if name in units},
    }


def print_report(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"nproc {record['nproc']}  python {record['python']}  commit {record['commit'][:12]}  "
          f"source {record['source_sha256'][:12]}")
    units = record["metric_units"]
    for name, value in record["metrics"].items():
        print(f"  {name:28s} {value:14.6g} {units.get(name, '')}")
    extra = record["extra"]
    if "failed_ratio" in extra:
        print(f"  {'failed_ratio':28s} {extra['failed_ratio']:14.6g} 1  "
              f"({record['failed']} unexpected, {record['expected_failures']} expected, "
              f"of {record['attempted']})")
        print(f"  latency_tail_s is p{extra['tail_percentile']:.1f} of {extra['samples']} samples")
    if "target_s" in extra:
        print(f"  {'target_s':28s} {extra['target_s']:14.6g} s  ({extra['target']}; "
              f"{extra['target_wall_s']:.6g} s unscaled)")
    for name, value in extra.get("unscaled", {}).items():
        print(f"  {'unscaled ' + name:28s} {value:14.6g} {units.get(name, '')}")
    for failure in record["failures"]:
        known = " (expected: known defect)" if failure["expected"] else ""
        print(f"  failed{known}: {failure['request']} [{failure['layer']}] {failure['reason']}")


def run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    combined = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {workload} exited with {proc.returncode}", file=sys.stderr)
            return 1
        combined[workload] = json.loads(lines[-1])
    print(json.dumps(combined, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ndlp" / "__init__.py").is_file():
        print(f"error: no ndlp sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(record)
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
