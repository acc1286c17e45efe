"""twistkit benchmark: one seeded, single-thread, closed-loop workload run.

Run from the repository root:

    python3 perfbench/run.py --workload recoil_scan --seed 1 --seconds 30 --trace 0

One client sends the next operation only when the previous one has
finished.  The untraced run (--trace 0) reports the end-to-end metrics;
the traced run (--trace 1) wraps the package's layer functions and
reports per-layer counts and self times, and repeats each operation
untraced to measure the tracing overhead.  Every result is
checked against an independent reference after the timed loop.  The
last line of standard output is the JSON result.  Run records (the
generated inputs, and the spans of a traced run) go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Set-up runs in this many fresh interpreters, half before the timed loop
# and half after it, so that the median spans two moments of the host.
SETUP_REPEATS = 10
SETUP_TIMEOUT_S = 60.0
CALIBRATION_INTERVAL_S = 0.1

# Set-up as a user pays it: a fresh interpreter imports the package (and
# numpy with it) and performs one operation.  The two parts are timed
# apart, because each is scaled by its own yardstick.
_SETUP_CHILD = r"""
import sys, time
t0 = time.perf_counter()
root, here, name, workdir = sys.argv[1:5]
sys.path.insert(0, here)
import workloads
w = workloads.WORKLOADS[name](workloads.load_twistkit(root), workdir)
t1 = time.perf_counter()
w.execute(w.warmup_input())
print(repr(t1 - t0), repr(time.perf_counter() - t1))
"""

# The yardstick for the import part: a fresh interpreter importing numpy,
# the package's one dependency.
_IMPORT_REFERENCE_CHILD = r"""
import time
t0 = time.perf_counter()
import numpy
print(repr(time.perf_counter() - t0))
"""

SetupSample = collections.namedtuple("SetupSample", "imports warmup numpy_import")
# An operation's start and duration; in a traced run also the duration of
# its untraced repeat.
Timing = collections.namedtuple("Timing", "start seconds untraced", defaults=(None,))


def _child_seconds(root, code, *args):
    out = subprocess.run([sys.executable, "-c", code, *args], cwd=root,
                         capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                         check=True)
    return [float(v) for v in out.stdout.strip().splitlines()[-1].split()]


def measure_setup(root, name, workdir, repeats):
    """``repeats`` set-up samples in wall seconds, each a fresh
    interpreter's set-up followed by a fresh numpy import."""
    samples = []
    for _ in range(repeats):
        imports, warmup = _child_seconds(root, _SETUP_CHILD, root, HERE, name, workdir)
        numpy_import, = _child_seconds(root, _IMPORT_REFERENCE_CHILD)
        samples.append(SetupSample(imports, warmup, numpy_import))
    return samples


def scaled_setup(samples, calibrations):
    """Set-up in reference seconds.  The import part is scaled by the numpy
    import measured alongside it: imports are file reads, unmarshalling
    and loading extension modules, whose speed on a shared host drifts
    apart from that of computation.  The warm-up operation is scaled by
    the timed loop's calibration, like the operations themselves."""
    imports = statistics.median(s.imports for s in samples)
    numpy_import = statistics.median(s.numpy_import for s in samples)
    warmup = statistics.median(s.warmup for s in samples)
    return (imports * speed.IMPORT_REFERENCE_S / numpy_import
            + warmup * speed.run_factor(calibrations))


def timed_loop(workload, inputs, seconds, log, trace=None, max_ops=None,
               calibrations=None):
    """Closed loop: run operations until ``seconds`` have passed (at least
    one) or ``max_ops`` are done.  Each operation's input, result and error
    go to ``log`` as a JSON line, so the process does not grow with the
    run.  With a ``calibrations`` list, a speed calibration runs between
    operations every CALIBRATION_INTERVAL_S and its time is left out of
    the wall time.  With a ``trace``, each operation runs traced and then
    at once untraced: the pair sees the same host speed, so it measures
    the tracing overhead, and the two results must be equal.  Returns
    (timings, wall seconds)."""
    timings = []
    start = time.perf_counter()
    deadline = start + seconds
    last_calibration = -math.inf
    calibration_s = 0.0
    for i, inp in enumerate(inputs):
        if (calibrations is not None
                and time.perf_counter() - last_calibration >= CALIBRATION_INTERVAL_S):
            at, duration = speed.measure()
            calibrations.append((at, duration))
            calibration_s += duration
            last_calibration = at + duration
        if trace is not None:
            trace.install()
            trace.begin_op(i)
        t0 = time.perf_counter()
        try:
            result, error = workload.execute(inp), None
        except Exception as exc:  # a failed operation is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        untraced = None
        if trace is not None:
            trace.end_op()
            trace.uninstall()
            u0 = time.perf_counter()
            try:
                again = workload.execute(inp)
            except Exception:  # the traced run has logged this failure
                again = None
            untraced = time.perf_counter() - u0
            if again != result:
                raise RuntimeError(f"traced and untraced results differ for {inp}")
        log.write(json.dumps({"inp": inp, "result": result, "error": error}) + "\n")
        timings.append(Timing(t0, t1 - t0, untraced))
        if t1 >= deadline + calibration_s or (max_ops is not None and len(timings) >= max_ops):
            break
    return timings, time.perf_counter() - start - calibration_s


def read_log(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def check_ops(workload, records):
    """(failed operations, worst |error| / tolerance over all checks,
    operations that missed their stated bound but not their tolerance).
    When more operations than the workload's ``stated_miss_share`` of the
    run miss their stated bound, each of them counts as failed."""
    failed = 0
    worst = 0.0
    beyond_stated = 0
    for rec in records:
        if rec["error"] is not None:
            failed += 1
            print(f"failed op {rec['inp']}: {rec['error']}", file=sys.stderr)
            continue
        checks = workload.check(rec["inp"], rec["result"])
        ratio = max((err / tol if tol > 0.0 else math.inf
                     for err, tol, _ in checks), default=0.0)
        if not ratio <= 1.0:
            failed += 1
            print(f"wrong answer {rec['inp']}: error/tolerance = {ratio:.3g}",
                  file=sys.stderr)
        elif any(err > stated for err, _, stated in checks):
            beyond_stated += 1
        worst = max(worst, ratio)
    if beyond_stated > workload.stated_miss_share * len(records):
        print(f"{beyond_stated} ops missed their stated bound, more than "
              f"{workload.stated_miss_share:.0%} of the run", file=sys.stderr)
        failed += beyond_stated
    return failed, worst, beyond_stated


def quantile(values, q):
    """Linear-interpolation quantile of a non-empty list."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def scaled_seconds(timings, calibrations):
    """A loop's wall time in reference seconds, and each operation's scale
    factor.  The loop is cut at operation starts into cycles (the client's
    own work between operations included, calibrations not), each scaled
    by the speed measured around its operation."""
    factors = [speed.local_factor(calibrations, t.start) for t in timings]
    ends = [t.start for t in timings[1:]] + [timings[-1].start + timings[-1].seconds]
    cycles = [end - t.start - sum(d for at, d in calibrations if t.start <= at < end)
              for t, end in zip(timings, ends)]
    return sum(c * f for c, f in zip(cycles, factors)), factors


def inputs_digest(records):
    text = json.dumps([rec["inp"] for rec in records], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def layer_metrics(trace, factors, overhead_s):
    """Per-operation layer metrics; times in reference seconds, each
    operation's spans scaled by that operation's speed factor."""
    totals = trace.layer_totals(factors)
    n_ops = len(factors)

    def get(layer, key):
        return totals.get(layer, {}).get(key, 0)

    metrics = {}
    for mod_name, attr in tracer.LAYERS:
        layer = f"{mod_name}.{attr}"
        metrics[layer + ".calls"] = (get(layer, "calls") / n_ops, "count/op")
        metrics[layer + ".self_s"] = (get(layer, "self_s") / n_ops, "ref_s/op")
    for layer in ("quadrature.integrate_bessel_semiinfinite",
                  "quadrature.integrate_finite"):
        metrics[layer + ".evals"] = (get(layer, "evals") / n_ops, "count/op")
    metrics["expansion.psi_shifted.terms"] = (
        get("expansion.psi_shifted", "terms") / n_ops, "count/op")
    calls = get(tracer.BESSEL, "calls")
    metrics[tracer.BESSEL + ".x_ge_8_share"] = (
        get(tracer.BESSEL, "x_ge_8") / calls if calls else 0.0, "ratio")
    layer = "quadrature.integrate_bessel_semiinfinite"
    evals = get(layer, "evals")
    metrics[layer + ".cache_hit_ratio"] = (
        1.0 - get(layer, "f_calls") / evals if evals else 0.0, "ratio")
    metrics["trace.overhead_s"] = (overhead_s, "ref_s/op")
    return metrics


def selected(metrics, names):
    missing = [n for n in names if n not in metrics]
    if missing:
        raise KeyError(f"metrics not produced: {missing}")
    return {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names}


def run(root, name, seed, seconds, trace_on, max_ops=None):
    """One benchmark run.  Returns (workload, records, metrics, info):
    records are the logged operations, metrics map name -> (value, unit)."""
    tk = workloads.load_twistkit(root)
    workdir = os.path.join(root, ".perfbench_work")
    outdir = os.path.join(root, ".perfbench_out")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(outdir, exist_ok=True)
    stem = os.path.join(outdir, f"{name}-seed{seed}-trace{int(trace_on)}")
    workload = workloads.WORKLOADS[name](tk, workdir)
    info = {"stem": stem}
    metrics = {}
    if not trace_on:
        setup = measure_setup(root, name, workdir, SETUP_REPEATS // 2)
    workload.execute(workload.warmup_input())
    log_path = stem + ".ops.jsonl"
    calibrations = []
    if trace_on:
        trace = tracer.Tracer(vars(tk))
        try:
            with open(log_path, "w") as log:
                timings, wall = timed_loop(workload, workload.inputs(seed), seconds,
                                           log, trace=trace, max_ops=max_ops,
                                           calibrations=calibrations)
        finally:
            trace.uninstall()
        hit = {s.name for s in trace.spans}
        if any(s.bessel_calls for s in trace.spans):
            hit.add(tracer.BESSEL)
        never = [layer for layer in workload.layers if layer not in hit]
        if never:
            raise RuntimeError(f"{name}: wrapped layers never hit: {never}")
        records = read_log(log_path)
        factors = [speed.local_factor(calibrations, t.start) for t in timings]
        overhead = [(t.seconds - t.untraced) * f for t, f in zip(timings, factors)]
        metrics.update(layer_metrics(trace, factors, statistics.fmean(overhead)))
        info["trace"] = trace
        info["untraced_s"] = sum(t.untraced for t in timings)
    else:
        with open(log_path, "w") as log:
            timings, wall = timed_loop(workload, workload.inputs(seed), seconds, log,
                                       max_ops=max_ops, calibrations=calibrations)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        setup += measure_setup(root, name, workdir, SETUP_REPEATS - SETUP_REPEATS // 2)
        info["setup"] = setup
        metrics["setup_s"] = (scaled_setup(setup, calibrations), "s")
        records = read_log(log_path)
        level = workload.tail_level
        raw = [t.seconds * 1e3 for t in timings]
        ref_s, factors = scaled_seconds(timings, calibrations)
        scaled = [ms * f for ms, f in zip(raw, factors)]
        info["raw"] = {"ops_per_s": len(timings) / wall,
                       "op_p50_ms": statistics.median(raw),
                       "op_p90_ms": quantile(raw, level)}
        metrics["ops_per_ref_s"] = (len(timings) / ref_s, "1/ref_s")
        metrics["op_p50_ref_ms"] = (statistics.median(scaled), "ref_ms")
        tail = quantile(scaled, level)
        info["tail_beyond"] = sum(ms > tail for ms in scaled)
        metrics["op_p90_ref_ms"] = (tail, "ref_ms")
    shutil.rmtree(workdir, ignore_errors=True)
    info["calibrations"] = calibrations
    info["wall_s"] = wall
    info["timings"] = timings
    return workload, records, metrics, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        workload, records, metrics, info = run(root, args.workload, args.seed,
                                               args.seconds, bool(args.trace))
    except (workloads.MissingSource, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed, worst, beyond_stated = check_ops(workload, records)
    digest = inputs_digest(records)
    timings = info["timings"]
    with open(info["stem"] + ".record.json", "w") as fh:
        json.dump({"inputs_sha256": digest,
                   "op_start_s": [t.start for t in timings],
                   "op_seconds": [t.seconds for t in timings],
                   "calibrations": info.get("calibrations"),
                   "raw": info.get("raw"),
                   "setup": [s._asdict() for s in info.get("setup", [])]}, fh)
    if args.trace:
        info["trace"].write(info["stem"] + ".spans.jsonl")

    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops={len(records)} wall_s={info['wall_s']:.3f} inputs_sha256={digest}")
    if args.trace:
        print(f"each op also ran untraced right after: {info['untraced_s']:.3f} s unscaled "
              f"in all; trace.overhead_s is the mean traced minus untraced time")
    else:
        raw = info["raw"]
        print(f"unscaled: ops_per_s={raw['ops_per_s']:.6g} "
              f"op_p50_ms={raw['op_p50_ms']:.6g} op_p90_ms={raw['op_p90_ms']:.6g} "
              f"setup_s={statistics.median(s.imports + s.warmup for s in info['setup']):.6g} "
              f"(numpy import {statistics.median(s.numpy_import for s in info['setup']):.4g}); "
              f"reference speed factor "
              f"{speed.run_factor(info['calibrations']):.4g}")
        print(f"op_p90 is the p{100 * workload.tail_level:.0f} latency (fixed for "
              f"this workload) over {len(records)} ops, {info['tail_beyond']} beyond it")
    for n in names:
        value, unit = metrics[n]
        print(f"  {n} = {value:.6g} {unit}")
    print(f"  max_err_ratio = {worst:.3g} (worst |error| / tolerance, must be <= 1)")
    print(f"  failed_frac = {failed / len(records):.3g} ({failed} of {len(records)} ops)")
    if workload.stated_miss_share:
        print(f"  {beyond_stated} ops missed the stated bound but stayed within the "
              f"tolerance (at most {workload.stated_miss_share:.0%} of the ops may)")
    print(json.dumps({"correct": failed == 0 and worst <= 1.0,
                      "attempted": len(records), "failed": failed,
                      "metrics": selected(metrics, names)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
