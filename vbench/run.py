#!/usr/bin/env python3
"""The repository benchmark's entry point.

    python3 vbench/run.py --workload capture|ingest|history \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds vbench/ (CMake, into
$CARGO_TARGET_DIR or .bench_build), runs one workload in its own process,
prints the workload's report and a host fingerprint, stores the result
record under .vbench_results/, and prints as its last line one JSON object
{"correct", "attempted", "failed", "metrics"}: every end_to_end metric of
BENCHMARK.json with --trace 0, every per_layer metric with --trace 1.

Exit status: 0 when every correctness check passed, 1 when a check failed
(the result line is still printed), 2 when the benchmark could not build or
run (no result line).
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("capture", "ingest", "history")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def die(msg):
    print("vbench: " + msg, file=sys.stderr)
    sys.exit(2)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(build_dir):
    """Configures once, then builds the vbench target (a no-op when fresh)."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            die("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "vbench", "-j", str(nproc())]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        die("build failed")
    return os.path.join(build_dir, "vbench")


def cmake_cache(build_dir, key):
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def revision():
    """git HEAD when the checkout is a repository, else a digest of the
    sources the benchmark builds (src/ and vbench/)."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "vbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def fingerprint(build_dir, seed):
    compiler = cmake_cache(build_dir, "CMAKE_CXX_COMPILER")
    version = ""
    if compiler:
        out = subprocess.run([compiler, "--version"], capture_output=True, text=True)
        version = out.stdout.splitlines()[0] if out.stdout else compiler
    return {
        "nproc": nproc(),
        "cpu": cpu_model(),
        "compiler": version,
        "build_type": cmake_cache(build_dir, "CMAKE_BUILD_TYPE"),
        "revision": revision(),
        "seed": seed,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read %s: %s" % (spec_path, e))

    build_dir = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    binary = build(build_dir)

    out_dir = os.path.join(ROOT, ".vbench_results")
    trace_dir = os.path.join(out_dir, "traces", args.workload)
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", trace_dir, "--nproc", str(nproc())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("workload %s exceeded %d s" % (args.workload, RUN_TIMEOUT_S))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        die("workload %s failed with status %d" % (args.workload, proc.returncode))
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        die("workload %s printed no result" % args.workload)

    if args.trace:
        wanted, source = spec["per_layer"], raw["layer"]
    else:
        wanted, source = spec["end_to_end"], raw["e2e"]
    metrics = {}
    idle = []
    for m in wanted:
        got = source.get(m["name"])
        if got is None:
            if not args.trace:
                die("workload %s did not measure %s" % (args.workload, m["name"]))
            # A layer this workload does not exercise did no work here.
            got = {"value": 0.0, "unit": m["unit"]}
            idle.append(m["name"])
        if got["unit"] != m["unit"]:
            die("%s: unit %s, BENCHMARK.json says %s" % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    fp = fingerprint(build_dir, args.seed)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "fingerprint": fp,
        "correct": raw["correct"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "e2e": raw["e2e"],
        "unscaled": raw["unscaled"],
        "layer": raw["layer"],
    }
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    for line in lines[:-1]:
        print(line)
    print("fingerprint: " + json.dumps(fp, sort_keys=True))
    for key, m in sorted(metrics.items()):
        if key not in idle:
            print("%-40s %16.6g %s" % (key, m["value"], m["unit"]))
    if idle:
        print("%d per-layer metrics of layers %s does not run are reported as 0"
              % (len(idle), args.workload))
    print(json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0 if raw["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
