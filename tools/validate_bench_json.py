#!/usr/bin/env python3
"""Validate a BENCH_*.json report against the mmlp-bench-v1 schema.

Usage: validate_bench_json.py REPORT.json [REPORT2.json ...]

Exits non-zero (printing every violation) when any report is invalid.
The schema contract is documented in docs/BENCHMARKS.md and kept in
lockstep with src/mmlp/util/bench_report.cpp.
"""

import json
import math
import re
import sys

SCHEMA_ID = "mmlp-bench-v1"
SCALES = {"smoke", "small", "full"}


def check(condition, errors, message):
    if not condition:
        errors.append(message)


def is_finite_number(value):
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def validate_case(index, case, errors):
    where = f"cases[{index}]"
    check(isinstance(case, dict), errors, f"{where}: not an object")
    if not isinstance(case, dict):
        return
    scenario = case.get("scenario")
    check(
        isinstance(scenario, str) and scenario,
        errors,
        f"{where}.scenario: non-empty string required",
    )
    agents = case.get("agents")
    check(
        isinstance(agents, int) and not isinstance(agents, bool) and agents > 0,
        errors,
        f"{where}.agents: positive integer required, got {agents!r}",
    )
    repetitions = case.get("repetitions")
    check(
        isinstance(repetitions, int)
        and not isinstance(repetitions, bool)
        and repetitions >= 1,
        errors,
        f"{where}.repetitions: integer >= 1 required, got {repetitions!r}",
    )
    wall_ms = case.get("wall_ms")
    check(
        is_finite_number(wall_ms) and wall_ms >= 0,
        errors,
        f"{where}.wall_ms: finite number >= 0 required, got {wall_ms!r}",
    )
    ns_per_agent = case.get("ns_per_agent")
    check(
        is_finite_number(ns_per_agent) and ns_per_agent >= 0,
        errors,
        f"{where}.ns_per_agent: finite number >= 0 required, got {ns_per_agent!r}",
    )
    if (
        is_finite_number(wall_ms)
        and is_finite_number(ns_per_agent)
        and isinstance(agents, int)
        and not isinstance(agents, bool)
        and agents > 0
    ):
        expected = wall_ms * 1e6 / agents
        tolerance = 1e-6 * max(1.0, abs(expected))
        check(
            abs(ns_per_agent - expected) <= tolerance,
            errors,
            f"{where}.ns_per_agent: {ns_per_agent} != wall_ms*1e6/agents ({expected})",
        )
    counters = case.get("counters")
    check(isinstance(counters, dict), errors, f"{where}.counters: object required")
    if isinstance(counters, dict):
        for key, value in counters.items():
            check(
                isinstance(key, str) and key,
                errors,
                f"{where}.counters: non-empty string key required, got {key!r}",
            )
            check(
                is_finite_number(value),
                errors,
                f"{where}.counters[{key!r}]: finite number required, got {value!r}",
            )
        validate_histogram_counters(where, counters, errors)
        validate_scaling_counters(where, counters, errors)


# Latency-distribution cases carry obs::Histogram percentiles as
# counters; when any of these appears, all of them must, each must be a
# finite number >= 0, and the quantiles must be ordered.
HISTOGRAM_KEYS = ("latency_p50_ms", "latency_p90_ms", "latency_p99_ms")


def validate_histogram_counters(where, counters, errors):
    present = [key for key in HISTOGRAM_KEYS if key in counters]
    if not present:
        return
    check(
        len(present) == len(HISTOGRAM_KEYS),
        errors,
        f"{where}.counters: histogram percentiles must appear together, "
        f"got only {present}",
    )
    values = []
    for key in present:
        value = counters[key]
        check(
            is_finite_number(value) and value >= 0,
            errors,
            f"{where}.counters[{key!r}]: finite number >= 0 required, got {value!r}",
        )
        if is_finite_number(value):
            values.append((key, value))
    for (lo_key, lo), (hi_key, hi) in zip(values, values[1:]):
        check(
            lo <= hi,
            errors,
            f"{where}.counters: {lo_key}={lo} > {hi_key}={hi} "
            f"(percentiles must be non-decreasing)",
        )


# Thread-sweep cases carry the scaling triplet: threads (the sweep
# axis), speedup_vs_t1 (T=1 wall over this wall) and parallel_efficiency
# (min(1, speedup/threads)). When either derived counter appears, the
# whole triplet must, efficiency must lie in (0, 1], and the triplet
# must cohere: efficiency == min(1, speedup/threads) up to timing
# rounding.
SCALING_KEYS = ("speedup_vs_t1", "parallel_efficiency")


def validate_scaling_counters(where, counters, errors):
    if not any(key in counters for key in SCALING_KEYS):
        return
    for key in SCALING_KEYS + ("threads",):
        check(
            key in counters,
            errors,
            f"{where}.counters: scaling counters must appear together "
            f"(threads, speedup_vs_t1, parallel_efficiency); missing {key!r}",
        )
    threads = counters.get("threads")
    speedup = counters.get("speedup_vs_t1")
    efficiency = counters.get("parallel_efficiency")
    if is_finite_number(threads):
        check(
            threads >= 1 and float(threads).is_integer(),
            errors,
            f"{where}.counters['threads']: integer >= 1 required, got {threads!r}",
        )
    if is_finite_number(speedup):
        check(
            speedup >= 0,
            errors,
            f"{where}.counters['speedup_vs_t1']: >= 0 required, got {speedup!r}",
        )
    if is_finite_number(efficiency):
        check(
            0 < efficiency <= 1 + 1e-9,
            errors,
            f"{where}.counters['parallel_efficiency']: value in (0, 1] "
            f"required, got {efficiency!r}",
        )
    if (
        is_finite_number(threads)
        and is_finite_number(speedup)
        and is_finite_number(efficiency)
        and threads >= 1
    ):
        expected = min(1.0, speedup / threads)
        tolerance = 1e-6 * max(1.0, abs(expected))
        check(
            abs(efficiency - expected) <= tolerance,
            errors,
            f"{where}.counters: parallel_efficiency={efficiency} != "
            f"min(1, speedup_vs_t1/threads) ({expected})",
        )


# Thread-sweep cases are named <stem>_T<n>. Every T must do the same
# work — only the worker count may vary — so the cases of one stem must
# agree on lp_solves (or all omit it).
THREAD_CASE = re.compile(r"^(?P<stem>.+)_T(?P<threads>[0-9]+)$")


def validate_thread_sweep_work(cases, errors):
    by_stem = {}
    for case in cases:
        if not isinstance(case, dict) or not isinstance(case.get("scenario"), str):
            continue
        match = THREAD_CASE.match(case["scenario"])
        if match is None:
            continue
        counters = case.get("counters")
        lp_solves = counters.get("lp_solves") if isinstance(counters, dict) else None
        by_stem.setdefault(match.group("stem"), []).append(
            (case["scenario"], lp_solves)
        )
    for stem, members in by_stem.items():
        check(
            len({lp_solves for _, lp_solves in members}) == 1,
            errors,
            f"thread sweep {stem!r}: _T<n> cases disagree on lp_solves "
            f"({', '.join(f'{name}={value!r}' for name, value in members)}); "
            f"every T must do the same work",
        )


def validate_report(path):
    errors = []
    try:
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        return [f"cannot parse: {error}"]

    check(isinstance(report, dict), errors, "top level: object required")
    if not isinstance(report, dict):
        return errors
    check(
        report.get("schema") == SCHEMA_ID,
        errors,
        f"schema: expected {SCHEMA_ID!r}, got {report.get('schema')!r}",
    )
    check(
        isinstance(report.get("name"), str) and report.get("name"),
        errors,
        f"name: non-empty string required, got {report.get('name')!r}",
    )
    check(
        report.get("scale") in SCALES,
        errors,
        f"scale: one of {sorted(SCALES)} required, got {report.get('scale')!r}",
    )
    if "threads" in report:
        threads = report.get("threads")
        check(
            isinstance(threads, int)
            and not isinstance(threads, bool)
            and threads >= 1,
            errors,
            f"threads: integer >= 1 required when present, got {threads!r}",
        )
    cases = report.get("cases")
    check(
        isinstance(cases, list) and cases,
        errors,
        "cases: non-empty array required",
    )
    if isinstance(cases, list):
        for index, case in enumerate(cases):
            validate_case(index, case, errors)
        validate_thread_sweep_work(cases, errors)
    return errors


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failed = False
    for path in argv[1:]:
        errors = validate_report(path)
        if errors:
            failed = True
            print(f"{path}: INVALID")
            for error in errors:
                print(f"  - {error}")
        else:
            print(f"{path}: OK")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
