"""Check that the benchmark's counts and results repeat exactly.

Runs every workload twice, traced, at one seed and for a fixed number
of operations, and requires each operation's layer counts (calls,
integrand evaluations, series terms, Bessel calls) and each result to be
identical between the two runs.  Counts are what a later change can be
held to exactly; wall times are only recorded.  Run from the repository
root:

    python3 perfbench/check_determinism.py [--seed N]
"""

from __future__ import annotations

import argparse
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

OPS = {"recoil_scan": 4, "selection_tables": 12, "pointwise_mix": 40}


def traced(root, name, seed):
    _, records, _, info = run.run(root, name, seed, math.inf, True, max_ops=OPS[name])
    return info["trace"].op_counts(), [rec["result"] for rec in records]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    ok = True
    for name in OPS:
        counts_a, results_a = traced(root, name, args.seed)
        counts_b, results_b = traced(root, name, args.seed)
        same = counts_a == counts_b and results_a == results_b
        ok &= same and len(counts_a) == OPS[name]
        keys = sorted({k for c in counts_a for k in c})
        print(f"{'PASS' if same else 'FAIL'} {name}: {len(counts_a)} ops, "
              f"{len(keys)} counters, results and counts "
              f"{'identical' if same else 'DIFFER'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
