#!/usr/bin/env python3
"""End-to-end benchmark of the secure KV service, crash reopen and the
Figure-5 simulator.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (which compiles the
library from src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs one measurement. Gated workloads,
metrics and bounds are declared in BENCHMARK.json; kv-a-durable and
reopen-crashed run the same way but are not gated. Why each workload and
metric exists, and which end-to-end metric each per-layer metric should
move, is in perfbench/rationale.json.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics (the end_to_end metrics with --trace 0,
the per_layer metrics with --trace 1); a failed output check reports
correct false. A build failure, a crashed run or a metric BENCHMARK.json
declares but the run did not report exit non-zero without printing a
result. Traced
runs leave their spans in $CARGO_TARGET_DIR/perfbench-spans/.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kv-a-mem", "kv-a-durable", "reopen-crashed", "fig5-sim")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures and builds the perfbench binary; serialized by a lock file."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(os.path.join(build_dir, ".lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j4",
                      "--target", "perfbench"])
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                fail("build timed out; see " + log_path)
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed; see " + log_path)
    return os.path.join(build_dir, "perfbench")


def declared_metrics(trace):
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds within 1..60")

    declared = declared_metrics(args.trace == 1)
    out_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                 ".bench_build"))
    exe = build(os.path.join(out_root, "perfbench"))

    # Image files and span dumps stay inside the checkout; durable
    # workloads need a disk-backed directory (tmpfs makes msync free).
    work_dir = os.path.join(out_root, "perfbench-run",
                            "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        # Keep the latest span dump of each workload; drop image leftovers.
        spans_dir = os.path.join(out_root, "perfbench-spans")
        for name in os.listdir(work_dir):
            path = os.path.join(work_dir, name)
            if name.startswith("spans-"):
                os.makedirs(spans_dir, exist_ok=True)
                os.replace(path, os.path.join(spans_dir,
                                              args.workload + ".csv"))
            else:
                os.remove(path)
        os.rmdir(work_dir)

    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail("perfbench exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    missing = sorted(n for n in declared if got.get(n) != declared[n])
    if missing:
        sys.stderr.write(proc.stdout)
        fail("metrics missing or with another unit than in BENCHMARK.json: %s"
             % missing)
    # The binary also prints metrics of workloads BENCHMARK.json does not
    # gate (see perfbench/rationale.json); they stay in the detail lines.
    result["metrics"] = {n: result["metrics"][n] for n in declared}
    # A failed output check still prints its result, with correct false.
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
