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

Gated metrics default to the binding bench's hot-path costs: the cast
walk's ns/node, the tokenizer's ns/byte, the skip scanner's ns/byte and
Document::Bind's ns/node.
Everything else that looks like a latency (*_ns, *_ns_per_node,
*_ns_per_byte, *_us) is reported informationally.

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
                     "tokenize_ns_per_byte", "skip_ns_per_byte",
                     "bind_ns_per_node")


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
        if not os.path.exists(baseline_path):
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
