#!/usr/bin/env python3
"""Build and run the wall-clock train+serve benchmark for one workload.

    python3 wallbench/run.py --workload exact-deep --seed 1 --seconds 25 --trace 0
    python3 wallbench/run.py --validate saved-output.txt

Run from the root of a checkout. The first run configures and builds
wallbench/ (the library sources under src/ plus wallbench.cpp) into
.bench_build/wallbench; later runs only check that the build is current.
Inputs and checkpoints go to a per-run directory under .bench_build that is
removed when the run ends.

The last line of stdout is the result object {correct, attempted, failed,
metrics}. Before printing it, the output is validated against
BENCHMARK.json: every end-to-end metric (--trace 0) or per-layer metric
(--trace 1) must be present, finite and carry its declared unit, and a traced
run's phase totals plus its time outside any span must add up to its
train_s. The exit code is 0 only when the run and its validation both pass.
--validate FILE applies the same checks to the last line of a saved output.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "wallbench"
WORKLOADS = ("exact-deep", "hist-deep", "recover")
# A run must finish within 180 s once built.
RUN_TIMEOUT_S = 170

# Critical-path shares of a traced fit's phases; with trace.outside_span_s
# they tile trace.train_s.
PHASE_TOTALS = (
    "sort.presort_s",
    "exact.findsplit_i_s",
    "exact.findsplit_ii_s",
    "exact.performsplit_i_s",
    "exact.performsplit_ii_s",
    "hist.findsplit_i_s",
    "hist.findsplit_ii_s",
    "hist.performsplit_s",
    "checkpoint.write_s",
    "checkpoint.restore_s",
    "elastic.restore_s",
    "trace.other_span_s",
    "trace.outside_span_s",
)
# The shares are sums of many small intervals; allow for rounding only.
TILING_TOLERANCE = 1e-6


def log(message):
    print(f"wallbench: {message}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no library sources (src/CMakeLists.txt) in {ROOT}; "
            "run from a full checkout")
        sys.exit(2)
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "wallbench",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return BUILD / "wallbench"


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def validate(result, trace):
    """Returns a list of problems with one result object (empty when valid)."""
    problems = []
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return ["result must have exactly correct, attempted, failed, metrics"]
    attempted, failed = result["attempted"], result["failed"]
    if not (isinstance(attempted, int) and isinstance(failed, int)
            and attempted >= 1 and 0 <= failed <= attempted):
        problems.append(f"bad counts attempted={attempted} failed={failed}")
    if result["correct"] is not (failed == 0):
        problems.append("correct must be true exactly when failed == 0")
    metrics = result["metrics"]
    declared = declared_metrics(trace)
    for name in sorted(set(metrics) - set(declared)):
        problems.append(f"undeclared metric {name}")
    for name, unit in declared.items():
        metric = metrics.get(name)
        if metric is None:
            problems.append(f"missing metric {name}")
            continue
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
        if metric.get("unit") != unit:
            problems.append(f"{name}: unit {metric.get('unit')!r}, want {unit!r}")
    if problems:
        return problems
    value = {name: metrics[name]["value"] for name in metrics}
    if trace:
        tiled = sum(value[name] for name in PHASE_TOTALS)
        train = value["trace.train_s"]
        if abs(tiled - train) > TILING_TOLERANCE * train:
            problems.append(f"phase totals plus outside-span time {tiled:.4f} s "
                            f"do not add up to trace.train_s {train:.4f} s")
    else:
        share = (attempted - failed) / attempted
        if abs(value["ok_share"] - share) > 1e-12:
            problems.append(f"ok_share {value['ok_share']} != {share}")
    return problems


def result_mode(result):
    """True for a traced result, judged by which metric set it carries."""
    return "trace.train_s" in result.get("metrics", {})


def validate_file(path):
    lines = [line for line in Path(path).read_text().splitlines() if line.strip()]
    if not lines:
        log(f"{path}: empty")
        return 1
    result = json.loads(lines[-1])
    problems = validate(result, result_mode(result))
    for problem in problems:
        log(f"{path}: {problem}")
    if not problems:
        log(f"{path}: valid ({'per-layer' if result_mode(result) else 'end-to-end'})")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--validate", metavar="FILE",
                        help="validate the last line of a saved output and exit")
    args = parser.parse_args()
    if args.validate:
        return validate_file(args.validate)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    try:
        binary = build()
    except subprocess.CalledProcessError as error:
        log(f"build failed: {error}")
        return 2
    work = ROOT / ".bench_build" / f"work-{os.getpid()}"
    try:
        proc = subprocess.run(
            [str(binary), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work", str(work)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s; no result")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if not lines:
        log(f"benchmark exited with {proc.returncode} and printed no result")
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log(f"benchmark exited with {proc.returncode}; last line is not a result")
        return 1
    problems = validate(result, args.trace == 1)
    for problem in problems:
        log(f"invalid result: {problem}")
    print(json.dumps(result))
    return 1 if problems or proc.returncode != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
