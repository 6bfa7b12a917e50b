#!/usr/bin/env python3
"""Build the wirebench package and run one workload of the benchmark.

Run from the root of a checkout:

    python3 wirebench/run.py --workload averaging_random --seed 1 \
        --seconds 10 --trace 0

The first call configures and builds wirebench/ (which compiles the mmlp
library from src/) into .bench_build/wirebench as a Release build; later
calls only re-run the incremental build. Then `wirebench gen` writes the
workload's instance text for the seed, in a process of its own, and
`wirebench run` measures the workload in another. run.py prints the
binary's lines, every metric by name with its value and unit, and last
one JSON result line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. BENCHMARK.json is the one list of
their names and units: the binary reports bare values by name, and the
run fails unless they are exactly the names listed there. The traced run
also writes a Chrome trace to
.bench_build/wirebench/trace-<workload>-<seed>.json. The exit code is
non-zero when the build fails, an output check fails, or the reported
names do not match.

--workload all runs every workload of BENCHMARK.json in turn and exits
non-zero if any of them does.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "wirebench"
BUILD = ROOT / ".bench_build" / "wirebench"
INPUTS = BUILD / "inputs"
GEN_TIMEOUT_S = 20
RUN_TIMEOUT_S = 150


def fail(message):
    print(f"wirebench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("the mmlp sources (src/) are missing; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(PACKAGE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "wirebench"])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def source_id():
    """The git commit when the checkout is a repository, plus a digest of
    the code under test (src/ and wirebench/) that identifies it either
    way."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", PACKAGE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    commit = "none"
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and \
                pathlib.Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return f"git:{commit} src:{digest.hexdigest()[:16]}"


def generate(workload, seed):
    """Write the workload's instance text for `seed`; return its path."""
    INPUTS.mkdir(parents=True, exist_ok=True)
    step = [str(BUILD / "wirebench"), "gen", "--workload", workload,
            "--seed", str(seed), "--out", str(INPUTS), "--requests", "0"]
    try:
        gen = subprocess.run(step, stdout=sys.stderr, timeout=GEN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: input generation exceeded {GEN_TIMEOUT_S} s")
    if gen.returncode != 0:
        fail(f"{workload}: input generation failed")
    return INPUTS / f"{workload}-{seed}.instance"


def run_workload(workload, seed, seconds, trace, units, commit):
    """Run one workload; print its output; return its exit code."""
    instance = generate(workload, seed)
    command = [str(BUILD / "wirebench"), "run",
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", trace,
               "--instance", str(instance), "--commit", commit]
    if trace == "1":
        command += ["--trace-out",
                    str(BUILD / f"trace-{workload}-{seed}.json")]
    try:
        run = subprocess.run(command, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: run exceeded {RUN_TIMEOUT_S} s")
    finally:
        instance.unlink(missing_ok=True)
    sys.stderr.write(run.stderr)
    *lines, last = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        sys.stderr.write(run.stdout)
        fail(f"{workload}: no result line (exit code {run.returncode})")
    if not isinstance(result, dict) or \
            set(result) != {"correct", "attempted", "failed", "values"}:
        fail(f"{workload}: result line has the wrong keys")
    values = result["values"]
    if set(values) != set(units):
        fail(f"{workload}: reported metrics differ from BENCHMARK.json: "
             + ", ".join(sorted(set(values) ^ set(units))))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    for line in lines:
        print(line)
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}),
          flush=True)
    return run.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace == "1" else "end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]] \
        if args.workload == "all" else [args.workload]
    build()
    commit = source_id()
    codes = [run_workload(w, args.seed, args.seconds, args.trace, units,
                          commit) for w in workloads]
    sys.exit(1 if any(codes) else 0)


if __name__ == "__main__":
    main()
