#!/usr/bin/env python3
"""Diff two BENCH_*.json reports and flag wall-time regressions.

Usage: compare_bench.py BASELINE.json CURRENT.json [--threshold 0.15]
                        [--scaling-threshold 0.5] [--strict]

The top-level `threads` of both reports is printed first, with a
warning when they differ. Cases are matched by (scenario, agents). For every matched case the
wall_ms ratio current/baseline is printed; a case is flagged as a
regression when it is more than --threshold (default 15%) slower than
the baseline. Cases present on only one side are reported as
added/removed (informational — schema growth is expected as the bench
suite expands).

Work counters (cache_misses, lp_solves, dedup_ratio, simplex_pivots and
the latency percentiles) are diffed too when both sides carry them:
unlike wall time they are deterministic, so a change is a real
behavioural difference, not noise. Counter-only changes are printed but
never flagged as regressions — interpreting the direction (fewer
lp_solves: better; lower dedup_ratio: worse) is the reviewer's job.

Thread-sweep cases additionally gate on parallel_efficiency: when both
sides carry the counter and the current efficiency has dropped by more
than --scaling-threshold (relative, default 0.5 — i.e. halved), the
case is flagged as a scaling regression. The tolerance is deliberately
loose: efficiency is a *ratio* of two noisy walls, and the baseline may
have been recorded on a machine with fewer cores than the current run
(where efficiency at T>cores is pinned near 1/T). A real scheduler
serialization shows up as efficiency collapsing toward 1/T at every T,
which a 50% relative drop catches on matched hardware.

Exit status: 0 unless --strict is given and at least one regression,
scaling regression, or removed case was found. CI runs this without
--strict first — timing on shared runners is noisy, so the report is
informational until a baseline refresh policy exists
(docs/BENCHMARKS.md).
"""

import argparse
import json
import sys

# Deterministic work counters worth diffing case by case. Timing-derived
# counters (cache_build_ms, speedup_*, cold_over_warm) are deliberately
# absent — they are as noisy as wall_ms itself.
TRACKED_COUNTERS = (
    "cache_misses",
    "cache_hits",
    "lp_solves",
    "dedup_ratio",
    "simplex_pivots",
    "dirty_agents",
    "resolved_agents",
    "latency_p50_ms",
    "latency_p90_ms",
    "latency_p99_ms",
    "threads",
    # Fault-recovery cases: stabilization rounds and fault volume are
    # functions of (instance, plan seed), and a correct build never
    # takes an unplanned integrity fallback — any drift is behavioural.
    "rounds_to_legitimate",
    "faults_injected",
    "fallback_full_solves",
)


def counter_diffs(base_case, cur_case):
    """Yield (name, base, cur) for tracked counters that changed."""
    base_counters = base_case.get("counters", {})
    cur_counters = cur_case.get("counters", {})
    for name in TRACKED_COUNTERS:
        if name not in base_counters or name not in cur_counters:
            continue
        base_value = base_counters[name]
        cur_value = cur_counters[name]
        tolerance = 1e-9 * max(1.0, abs(base_value))
        if abs(cur_value - base_value) > tolerance:
            yield name, base_value, cur_value


def load_cases(path):
    with open(path) as handle:
        report = json.load(handle)
    cases = {}
    for case in report.get("cases", []):
        key = (case["scenario"], case["agents"])
        # Duplicate (scenario, agents) keys keep the last entry; the
        # bench binaries emit unique names per configuration.
        cases[key] = case
    return report, cases


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.15,
        help="relative slowdown that counts as a regression (default 0.15)",
    )
    parser.add_argument(
        "--scaling-threshold",
        type=float,
        default=0.5,
        help="relative parallel_efficiency drop that counts as a scaling "
        "regression (default 0.5)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero when regressions (or removed cases) are found",
    )
    args = parser.parse_args()

    baseline_report, baseline = load_cases(args.baseline)
    current_report, current = load_cases(args.current)

    if baseline_report.get("name") != current_report.get("name"):
        print(
            f"note: comparing different benchmarks "
            f"({baseline_report.get('name')!r} vs {current_report.get('name')!r})"
        )
    if baseline_report.get("scale") != current_report.get("scale"):
        print(
            f"note: different scales "
            f"({baseline_report.get('scale')!r} vs {current_report.get('scale')!r}) "
            f"— ratios are not meaningful across scales"
        )

    # Wall times only compare on equal worker counts; a report without
    # the key ran on the bench default (MMLP_THREADS, else hardware).
    base_threads = baseline_report.get("threads", "default")
    cur_threads = current_report.get("threads", "default")
    print(f"threads: baseline {base_threads}, current {cur_threads}")
    if base_threads != cur_threads:
        print(
            f"warning: thread counts differ ({base_threads} vs {cur_threads}) "
            f"— wall-time ratios mix scheduling with code changes"
        )

    regressions = []
    improvements = []
    scaling_regressions = []
    counter_changes = 0
    width = max(
        [len(f"{scenario} n={agents}") for scenario, agents in baseline] + [8]
    )
    print(f"{'case':<{width}}  {'base ms':>10}  {'cur ms':>10}  {'ratio':>7}")
    for key in sorted(baseline):
        scenario, agents = key
        label = f"{scenario} n={agents}"
        if key not in current:
            print(f"{label:<{width}}  {'—':>10}  {'—':>10}  removed")
            regressions.append((key, None))
            continue
        base_ms = baseline[key]["wall_ms"]
        cur_ms = current[key]["wall_ms"]
        ratio = cur_ms / base_ms if base_ms > 0 else float("inf")
        flag = ""
        if ratio > 1.0 + args.threshold:
            flag = "  << REGRESSION"
            regressions.append((key, ratio))
        elif ratio < 1.0 - args.threshold:
            flag = "  (faster)"
            improvements.append((key, ratio))
        print(
            f"{label:<{width}}  {base_ms:>10.3f}  {cur_ms:>10.3f}  {ratio:>7.2f}{flag}"
        )
        for name, base_value, cur_value in counter_diffs(
            baseline[key], current[key]
        ):
            counter_changes += 1
            print(
                f"{'':<{width}}    counter {name}: "
                f"{base_value:g} -> {cur_value:g}"
            )
        base_eff = baseline[key].get("counters", {}).get("parallel_efficiency")
        cur_eff = current[key].get("counters", {}).get("parallel_efficiency")
        if base_eff is not None and cur_eff is not None and base_eff > 0:
            if cur_eff < base_eff * (1.0 - args.scaling_threshold):
                scaling_regressions.append((key, base_eff, cur_eff))
                print(
                    f"{'':<{width}}    parallel_efficiency "
                    f"{base_eff:.3f} -> {cur_eff:.3f}"
                    f"  << SCALING REGRESSION"
                )
    added = sorted(set(current) - set(baseline))
    for scenario, agents in added:
        print(f"{scenario} n={agents}: new case (no baseline)")

    print(
        f"\n{len(regressions)} regression(s) over {args.threshold:.0%}, "
        f"{len(scaling_regressions)} scaling regression(s) over "
        f"{args.scaling_threshold:.0%}, "
        f"{len(improvements)} improvement(s), {len(added)} new case(s), "
        f"{counter_changes} counter change(s)."
    )
    if (regressions or scaling_regressions) and args.strict:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
