#!/usr/bin/env python3
"""Repository benchmark: build perfbench from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --list

Run from the root of a checkout. Every call configures and builds the
`perfbench` binary under $CARGO_TARGET_DIR (default .bench_build) relative
to the checkout; after the first, that is only an up-to-date check.

--trace 0 runs the workload once in its own process with tracing off and
reports every end-to-end metric. --trace 1 runs the same untraced leg and
then one traced call of the same seed, each in its own process, checks that
the traced run's deterministic counts equal the untraced run's, writes the
traced run's spans as a chrome trace next to the build, and reports every
per-layer metric plus trace.overhead.

Each metric is printed as "name value unit"; the last line of standard
output is one JSON object {"correct", "attempted", "failed", "metrics"}.
The exit status is 0 only when every correctness check passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LEG_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure and build the perfbench binary; return its path."""
    bdir = build_dir()
    cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(bdir, "perfbench")


def declared_metrics():
    """The metric names BENCHMARK.json declares, or None without the file."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def run_leg(binary, args):
    """Run one perfbench process; return (exit code, parsed result or None)."""
    try:
        p = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                           timeout=LEG_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench %s: timed out after %d s" % (" ".join(args), LEG_TIMEOUT_S))
        return 1, None
    lines = p.stdout.strip().splitlines()
    if not lines:
        return p.returncode or 1, None
    try:
        return p.returncode, json.loads(lines[-1])
    except json.JSONDecodeError:
        return p.returncode or 1, None


def run_workload(binary, workload, seed, seconds, trace):
    """Run one workload; return (result dict, list of gate errors)."""
    errors = []
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if not trace:
        code, leg = run_leg(binary, common)
        if leg is None:
            return None, ["untraced leg produced no result (exit %d)" % code]
        errors += leg["errors"]
        if code != 0 and not errors:
            errors.append("untraced leg exited %d" % code)
        metrics = leg["metrics"]
        attempted, failed = leg["attempted"], leg["failed"]
    else:
        trace_dir = os.path.join(build_dir(), "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_file = os.path.join(trace_dir, "%s-seed%s.json" % (workload, seed))
        code_u, base = run_leg(binary, common)
        code_t, traced = run_leg(binary, common + ["--traced", "--trace-out", trace_file])
        if base is None or traced is None:
            return None, ["a leg produced no result (exit %s/%s)" % (code_u, code_t)]
        errors += base["errors"] + traced["errors"]
        if (code_u or code_t) and not errors:
            errors.append("a leg exited non-zero (%d/%d)" % (code_u, code_t))
        if base["counts"] != traced["counts"]:
            errors.append("tracing changed the run: deterministic counts differ")
        metrics = traced["layers"]
        if base["call_wall_s"] > 0:
            overhead = traced["call_wall_s"] / base["call_wall_s"] - 1.0
        else:
            overhead = 0.0
            errors.append("untraced leg measured no wall time")
        metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
        attempted = base["attempted"] + traced["attempted"]
        failed = base["failed"] + traced["failed"]
        log("trace written to %s" % trace_file)

    declared = declared_metrics()
    if declared is not None:
        want = set(declared[1] if trace else declared[0])
        if set(metrics) != want:
            errors.append("metrics differ from BENCHMARK.json: missing %s, extra %s" %
                          (sorted(want - set(metrics)), sorted(set(metrics) - want)))
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--list", action="store_true")
    args = ap.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log("perfbench: build failed: %s" % e)
        return 1

    listing = subprocess.run([binary, "--list"], stdout=subprocess.PIPE, text=True,
                             check=True).stdout
    names = [line.split("\t")[0] for line in listing.splitlines() if line]
    if args.list:
        sys.stdout.write(listing)
        return 0
    if args.workload not in names + ["all"]:
        log("perfbench: unknown workload %r (known: %s)" % (args.workload, ", ".join(names)))
        return 2

    ok = True
    for workload in names if args.workload == "all" else [args.workload]:
        result, errors = run_workload(binary, workload, args.seed, args.seconds, args.trace)
        for e in errors:
            log("perfbench %s: CHECK FAILED: %s" % (workload, e))
        if result is None:
            return 1
        print("# %s seed=%d trace=%d attempted=%d failed=%d" %
              (workload, args.seed, args.trace, result["attempted"], result["failed"]))
        for name, m in result["metrics"].items():
            print("%-34s %16.6g %s" % (name, m["value"], m["unit"]))
        print(json.dumps(result), flush=True)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
