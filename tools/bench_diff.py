#!/usr/bin/env python3
"""Compare freshly produced BENCH_*.json files against committed baselines.

The bench binaries write flat JSON: a "bench" name, a hardware_concurrency
stamp, and metric: value pairs. This tool diffs a fresh run against the
baselines committed at the repo root and FAILS (exit 1) when a gated
lower-is-better metric regressed by more than the threshold.

Hardware honesty: timing baselines are only comparable on the machine
shape that produced them, so a fresh file whose hardware_concurrency stamp
differs from the baseline's is reported but never failed — the numbers
measure different machines, not a regression.

Quarantine: baselines known to be untrustworthy live in bench/quarantine/
(see its README). A fresh artifact whose only "baseline" is quarantined is
reported as such and never compared — a quarantined file must not gate
anything, and silently treating it as "no baseline" would hide why.

Gated metrics default to the binding bench's hot-path costs: the cast
walk's ns/node and the tokenizer's ns/byte. Everything else that looks
like a latency (*_ns, *_ns_per_node, *_ns_per_byte, *_us) is reported
informationally.

Usage:
  tools/bench_diff.py --fresh-dir build/bench [--baseline-dir .]
                      [--threshold 0.10] [--fail-keys k1,k2]
"""

import argparse
import glob
import json
import os
import sys

DEFAULT_FAIL_KEYS = ("bound_ns_per_node", "unbound_ns_per_node",
                     "tokenize_ns_per_byte")


def is_latency_key(key: str) -> bool:
    return key.endswith("_ns") or key.endswith("_us") or "_ns_" in key \
        or key.endswith("_ns_per_node")


def load(path):
    with open(path) as f:
        return json.load(f)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline-dir", default=".",
                        help="directory holding committed BENCH_*.json")
    parser.add_argument("--fresh-dir", required=True,
                        help="directory holding freshly produced BENCH_*.json")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="max allowed relative regression (default 0.10)")
    parser.add_argument("--fail-keys", default=",".join(DEFAULT_FAIL_KEYS),
                        help="comma-separated metric keys that gate the run")
    args = parser.parse_args()

    fail_keys = {k for k in args.fail_keys.split(",") if k}
    fresh_files = sorted(glob.glob(os.path.join(args.fresh_dir,
                                                "BENCH_*.json")))
    if not fresh_files:
        print(f"error: no BENCH_*.json under {args.fresh_dir}",
              file=sys.stderr)
        return 1

    failures = []
    compared = 0
    for fresh_path in fresh_files:
        name = os.path.basename(fresh_path)
        baseline_path = os.path.join(args.baseline_dir, name)
        quarantine_path = os.path.join(args.baseline_dir, "bench",
                                       "quarantine", name)
        if not os.path.exists(baseline_path):
            if os.path.exists(quarantine_path):
                print(f"{name}: baseline is QUARANTINED "
                      f"({quarantine_path}) — see bench/quarantine/"
                      "README.md; not compared, not gated")
            else:
                print(f"{name}: no committed baseline — skipped")
            continue
        fresh = load(fresh_path)
        baseline = load(baseline_path)

        fresh_hw = fresh.get("hardware_concurrency")
        base_hw = baseline.get("hardware_concurrency")
        comparable = fresh_hw == base_hw
        if not comparable:
            print(f"{name}: hardware_concurrency {base_hw} (baseline) vs "
                  f"{fresh_hw} (fresh) — different machine shape, "
                  "regressions reported but NOT gated")

        # A parallel-scaling artifact produced on a single-core runner has
        # no parallelism to measure: every "speedup" it reports is noise
        # around 1.0. Call it out loudly so nobody reads it as a baseline,
        # and never gate on it.
        parallel_bench = "parallel" in name.lower()
        for side, hw in (("baseline", base_hw), ("fresh", fresh_hw)):
            if parallel_bench and isinstance(hw, (int, float)) and hw <= 1:
                print(f"{name}: WARNING {side} artifact was produced with "
                      f"hardware_concurrency={hw:g} — parallel numbers from "
                      "a single-core machine are NOT comparable; regenerate "
                      "on a multicore runner (CI's perf job does this)")
                comparable = False

        for key, base_value in sorted(baseline.items()):
            if not isinstance(base_value, (int, float)) or base_value <= 0:
                continue
            if not is_latency_key(key):
                continue
            fresh_value = fresh.get(key)
            if not isinstance(fresh_value, (int, float)):
                print(f"{name}: {key} missing from fresh run")
                continue
            delta = fresh_value / base_value - 1.0
            gated = comparable and key in fail_keys
            marker = "GATE" if gated else "info"
            verdict = ""
            if delta > args.threshold:
                verdict = (" REGRESSION" if gated else " (regressed, ungated)")
                if gated:
                    failures.append(
                        f"{name}: {key} {base_value:g} -> {fresh_value:g} "
                        f"({delta:+.1%} > {args.threshold:.0%})")
            print(f"{name}: [{marker}] {key}: {base_value:g} -> "
                  f"{fresh_value:g} ({delta:+.1%}){verdict}")
            compared += 1

    if failures:
        print("\nFAIL: gated bench regressions:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\nok: {compared} metrics compared, no gated regression "
          f"beyond {args.threshold:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
