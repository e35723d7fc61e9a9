#!/usr/bin/env python3
"""Repository benchmark: builds the driver from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The first call configures and builds
perfbench/CMakeLists.txt (the glto library straight from src/ plus the
driver) under $CARGO_TARGET_DIR (default .bench_build); later calls only
re-check the build. The driver visits the abt, qth and mth backends in
turn, checks every output, and prints its metrics; this script keeps the
end-to-end set (--trace 0) or the per-layer set (--trace 1) and prints it
as the last line of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Exit status: 0 when every check passed, 1 when a check failed (the result
line is still printed), 3 when the build or the driver could not run (no
result line).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cg-tasks", "nested-regions", "bqp-dag", "qp-service")
BACKENDS = ("abt", "qth", "mth")


def per_backend(*names):
    return [f"{n}.{b}" for n in names for b in BACKENDS]


# name -> unit. Every workload prints every end-to-end metric; README.md
# says what each family means on each workload.
END_TO_END = {"setup_s": "s"}
END_TO_END.update({n: "s" for n in per_backend("wall_s")})
END_TO_END.update({n: "us" for n in per_backend("p50_us")})
END_TO_END.update({n: "1/s" for n in per_backend("throughput")})

PER_LAYER = {
    "fctx.switch_ns": "ns",
    "fctx.stack_ns": "ns",
    "sched.deque_push_pop_ns": "ns",
    "sched.deque_steal_ns": "ns",
    "sched.trace_emit_ns": "ns",
    "sched.hist_record_ns": "ns",
    "bqp.solve_us": "us",
    "bqp.iters": "count",
    "bqp.seq_solve_ms": "ms",
    "cg.spmv_us": "us",
    "cg.iterations": "count",
    "trace.overhead_ratio": "ratio",
    "proc.steal_share": "ratio",
}
PER_LAYER.update({n: "count" for n in per_backend(
    "sched.steals_per_op", "sched.failed_steals_per_op",
    "sched.wakes_spurious_per_op", "sched.parks_per_op",
    "sched.suspensions_per_op", "glt.ults_per_op")})
PER_LAYER.update({n: "us" for n in per_backend(
    "sched.queue_delay_p50_us", "sched.queue_delay_p95_us")})
PER_LAYER.update({n: "ratio" for n in per_backend(
    "taskdep.deferred_per_task", "qp.busiest_thread_share",
    "qp.light_span_ratio")})
PER_LAYER.update({n: "cores" for n in per_backend("proc.cores_busy")})
PER_LAYER.update({n: "ns" for n in per_backend(
    "glt.ult_create_join_ns", "omp.task_ns", "omp.region_ns",
    "omp.nested_region_ns", "omp.barrier_ns", "taskdep.dep_task_ns")})
PER_LAYER.update({n: "us" for n in per_backend(
    "sync.ult_wake_us", "sync.main_wake_us", "sync.foreign_wake_us",
    "sync.timed_wake_us", "qp.feed_late_p50_us", "qp.feed_late_p99_us",
    "qp.queue_wait_p50_us", "qp.solve_p50_us", "qp.light_p50_us",
    "qp.heavy_p99_us")})
PER_LAYER.update({n: "1/s" for n in per_backend(
    "qp.capacity_rps", "qpserver.closed_rps", "qpserver.untimed_closed_rps")})

DRIVER_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(3)


def build(build_dir):
    """Configures once, then lets the build tool decide what is stale."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if cfg.returncode != 0:
            sys.stderr.write(cfg.stderr)
            fail("configure failed")
    b = subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                       text=True)
    if b.returncode != 0:
        sys.stderr.write(b.stderr)
        fail("build failed")
    exe = os.path.join(build_dir, "perfbench_driver")
    if not os.access(exe, os.X_OK):
        fail("driver missing after build")
    return exe


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    out_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(out_root, "perfbench")
    exe = build(build_dir)

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        # The traced run keeps its per-request spans in memory and writes
        # them out at exit.
        spans_dir = os.path.join(out_root, "perfbench-spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans = os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.csv")
        with open(spans, "w") as f:
            f.write("backend,phase,request,problem,due_ns,sent_ns,recv_ns,"
                    "start_ns,end_ns,glt_thread\n")
        cmd += ["--spans", spans]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    lines = [ln for ln in p.stdout.splitlines() if ln.strip()]
    if not lines:
        fail(f"driver printed nothing (exit {p.returncode})")
    try:
        raw = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("driver's last line is not JSON")

    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for name, unit in wanted.items():
        m = raw["metrics"].get(name)
        if m is None or m["unit"] != unit:
            fail(f"driver did not report {name} [{unit}]")
        metrics[name] = {"value": m["value"], "unit": unit}
    correct = bool(raw["correct"]) and p.returncode == 0
    print(json.dumps({"correct": correct, "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]), "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
