#!/usr/bin/env python3
"""Compares two sets of benchmark result records (vbench/run.py writes one
per run under .vbench_results/).

    python3 vbench/compare.py BEFORE AFTER
    python3 vbench/compare.py --tracing-overhead UNTRACED TRACED

BEFORE and AFTER are result files or directories of them. Records are
grouped by workload; for each end-to-end metric the medians and quartiles of
both sides are printed with the change against the metric's bound in
BENCHMARK.json:
  worse   - the median got worse by more than the bound
  ok      - within the bound
  unresolved - the before side's own spread is wider than the bound
With --tracing-overhead, BEFORE holds untraced runs and AFTER traced runs of
the same code; the per-metric difference is the cost of the benchmark's own
tracing.

Refuses (exit 2) when the records come from different hosts: nproc, CPU
model, compiler and build type must match on both sides. Revisions and seeds
are printed, not compared. Exit 1 when any metric is worse beyond its bound.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
HOST_KEYS = ("nproc", "cpu", "compiler", "build_type")


def load(path):
    files = []
    if os.path.isdir(path):
        files = [os.path.join(path, n) for n in sorted(os.listdir(path)) if n.endswith(".json")]
    else:
        files = [path]
    records = []
    for name in files:
        with open(name) as f:
            rec = json.load(f)
        if "fingerprint" in rec and "e2e" in rec:
            records.append(rec)
    return records


def host(rec):
    return tuple(rec["fingerprint"].get(k) for k in HOST_KEYS)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--tracing-overhead", action="store_true")
    ap.add_argument("before")
    ap.add_argument("after")
    args = ap.parse_args()

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    before, after = load(args.before), load(args.after)
    if not before or not after:
        print("compare: no result records found", file=sys.stderr)
        return 2
    hosts = {host(r) for r in before + after}
    if len(hosts) != 1:
        print("compare: refusing, the records come from different hosts:", file=sys.stderr)
        for h in sorted(hosts, key=str):
            print("  " + json.dumps(dict(zip(HOST_KEYS, h))), file=sys.stderr)
        return 2
    if args.tracing_overhead:
        if any(r["trace"] for r in before) or not all(r["trace"] for r in after):
            print("compare: --tracing-overhead wants untraced BEFORE and traced AFTER",
                  file=sys.stderr)
            return 2
    print("host: " + json.dumps(dict(zip(HOST_KEYS, next(iter(hosts))))))
    for side, recs in (("before", before), ("after", after)):
        revs = sorted({r["fingerprint"]["revision"] for r in recs})
        seeds = sorted({r["fingerprint"]["seed"] for r in recs})
        print("%s: %d runs, revisions %s, seeds %s" % (side, len(recs), revs, seeds))

    worse = False
    workloads = sorted({r["workload"] for r in before} & {r["workload"] for r in after})
    for w in workloads:
        print("\n[%s]" % w)
        print("%-14s %12s %12s %9s %7s  %s" % ("metric", "before p50", "after p50",
                                              "change", "bound", "verdict"))
        for m in spec["end_to_end"]:
            name = m["name"]
            b = [r["e2e"][name]["value"] for r in before if r["workload"] == w and name in r["e2e"]]
            a = [r["e2e"][name]["value"] for r in after if r["workload"] == w and name in r["e2e"]]
            if not b or not a:
                continue
            b_lo, b_med, b_hi = quartiles(b)
            _, a_med, _ = quartiles(a)
            change = (a_med - b_med) / b_med
            worsening = change if m["better"] == "lower" else -change
            if args.tracing_overhead:
                verdict = "tracing costs %+.1f%%" % (100 * worsening)
            elif (b_hi - b_lo) / b_med > m["bound"]:
                verdict = "unresolved"
            elif worsening > m["bound"]:
                verdict = "worse"
                worse = True
            else:
                verdict = "ok"
            print("%-14s %12.5g %12.5g %+8.1f%% %6.0f%%  %s" % (
                name, b_med, a_med, 100 * change, 100 * m["bound"], verdict))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
