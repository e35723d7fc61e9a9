#!/usr/bin/env python3
"""Compares two result sets of the benchmark, per workload and metric.

    python3 perfbench/compare.py A.jsonl [B.jsonl] [--bench BENCHMARK.json]

Each file holds sweep.py lines. For every workload and end-to-end metric it
prints the median and the first and third quartiles of each set
(statistics.quantiles(values, n=4)), the spread (Q3 - Q1) / median, and,
with two sets, the change of the median against the metric's bound and
direction from BENCHMARK.json. It also compares the share of failed
operations. Exit status 1 when a spread exceeds its bound (setup_s is
exempt), a median got worse by more than its bound, or the failed shares
differ; 0 otherwise. Standard library only.
"""
import argparse
import collections
import json
import statistics
import sys


def load(path):
    runs = collections.defaultdict(list)
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                runs[rec["workload"]].append(rec["result"])
    return runs


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a")
    ap.add_argument("b", nargs="?")
    ap.add_argument("--bench", default="BENCHMARK.json")
    args = ap.parse_args()
    with open(args.bench) as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    sets = [load(args.a)] + ([load(args.b)] if args.b else [])
    bad = 0
    for wl in sorted(set().union(*[s.keys() for s in sets])):
        print(f"== {wl}")
        shares = []
        for s in sets:
            rs = s.get(wl, [])
            att = sum(r["attempted"] for r in rs)
            fl = sum(r["failed"] for r in rs)
            shares.append((fl, att))
            print(f"   runs={len(rs)} attempted={att} failed={fl}")
        if len(shares) == 2 and shares[0][0] * shares[1][1] != shares[1][0] * shares[0][1]:
            print("   FAILED SHARE DIFFERS")
            bad += 1
        for name, m in metrics.items():
            bound = m["bound"]
            cols = []
            meds = []
            for s in sets:
                vals = [r["metrics"][name]["value"] for r in s.get(wl, [])
                        if name in r["metrics"]]
                if len(vals) < 2:
                    cols.append("n/a")
                    meds.append(None)
                    continue
                med, q1, q3, spread = summary(vals)
                meds.append(med)
                flag = ""
                if name != "setup_s" and spread > bound:
                    flag = " SPREAD>BOUND"
                    bad += 1
                elif name != "setup_s" and spread > bound / 3:
                    flag = " (spread>bound/3)"
                cols.append(f"med={med:.6g} q1={q1:.6g} q3={q3:.6g} "
                            f"spread={spread:.3f}{flag}")
            line = f"   {name:<22} bound={bound:<5} " + " | ".join(cols)
            if len(meds) == 2 and None not in meds:
                change = (meds[1] - meds[0]) / meds[0]
                worse = change if m["better"] == "lower" else -change
                ok = worse <= bound
                line += f" | change={change:+.3f} {'ok' if ok else 'WORSE>BOUND'}"
                bad += 0 if ok else 1
            print(line)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
