"""Run the benchmark over several seeds and report each end-to-end
metric's median and quartile spread against its bound.

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--out FILE]

Runs are sequential, one process at a time.  The spread of a metric is
(Q3 - Q1) / median of its per-run values, with the quartiles of
``statistics.quantiles(values, n=4)``.  With --out, every run's result
line and the summary are written as JSON (see baseline.json).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]
    report = {"seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for name in names:
        runs = []
        for seed in args.seeds:
            res = one_run(name, seed, seconds)
            runs.append(dict(res, seed=seed))
            print(f"{name} seed={seed} correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()),
                  flush=True)
        summary = {}
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            s = summary[m["name"]] = summarize(values) if len(values) > 1 else {}
            if s:
                bound = m["bound"]
                flag = ("ok" if s["spread"] <= bound / 3 else
                        "WITHIN BOUND" if s["spread"] <= bound else "OVER BOUND")
                print(f"  {name} {m['name']}: median={s['median']:.5g} {m['unit']} "
                      f"spread={s['spread']:.3%} bound={bound} {flag}")
        report["workloads"][name] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
