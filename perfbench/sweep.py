#!/usr/bin/env python3
"""Runs the benchmark over several seeds and appends each result to a JSONL file.

    python3 perfbench/sweep.py --out A.jsonl [--workloads cg-tasks,qp-service]
                               [--seeds 1-10] [--seconds S] [--trace 0|1]

Run it from the root of a checkout. Each line of the output is
{"workload": ..., "seed": ..., "trace": ..., "result": <run.py's last line>}.
compare.py reads two such files. --seconds defaults to BENCHMARK.json's
run_seconds when that file is present.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the workload list lives there)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", default=",".join(run.WORKLOADS))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    seconds = args.seconds
    if seconds is None:
        with open("BENCHMARK.json") as f:
            seconds = json.load(f)["run_seconds"]
    status = 0
    for wl in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            p = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True)
            lines = [ln for ln in p.stdout.splitlines() if ln.strip()]
            if p.returncode not in (0, 1) or not lines:
                print(f"{wl} seed {seed}: no result (exit {p.returncode})",
                      file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            if p.returncode != 0:
                status = 1
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": wl, "seed": seed,
                                    "trace": args.trace, "result": result}) + "\n")
            print(f"{wl} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  file=sys.stderr)
    sys.exit(status)


if __name__ == "__main__":
    main()
