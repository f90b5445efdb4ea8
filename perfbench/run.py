#!/usr/bin/env python3
"""Build and run one workload of the SteppingNet benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload ladder_lenet --seed 1 --seconds 15 --trace 0

Workloads: ladder_lenet, serve_mixed (see BENCHMARK.json and
perfbench/README.md). The first run configures and builds the library and
the benchmark program under .bench_build/perfbench (Release); every run
re-runs the configure step, so the git sha the program records is the
checkout's, and rebuilds only what changed. The program's report is passed
through, and its last line, one JSON object, is checked against the metric
names BENCHMARK.json lists before it is printed as this script's last
line. Any failure exits non-zero without printing a result.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "out")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def run_timeout_s(seconds, trace):
    """Wall-clock allowance of one run. A traced run times the workload's
    phase up to twice and then probes every layer; set-ups and probes take
    about a minute on a 4-core host, more when its cores are contended."""
    return 2 * seconds + 100 if trace else 1.5 * seconds + 60


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no SteppingNet sources under %s/src; run from the repository root" % ROOT)
    # Configuring is incremental; it re-reads the git sha, which only
    # rebuilds build_info.cc when the sha changed.
    steps = [["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", "4"]]
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the report.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}, [w["name"] for w in spec["workloads"]]


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("last line of the program's output is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are %s" % sorted(result))
    want, _ = expected_metrics(trace)
    got = result["metrics"]
    if set(got) != set(want):
        fail("metrics missing: %s; not listed: %s"
             % (sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for name, m in got.items():
        if m.get("unit") != want[name]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (name, m.get("unit"), want[name]))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("nothing attempted")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    _, workloads = expected_metrics(args.trace)
    if args.workload not in workloads:
        fail("unknown workload %s (have %s)" % (args.workload, ", ".join(workloads)))
    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    # The workloads pin every setting they depend on; drop the program's
    # environment knobs so the caller's environment cannot change them.
    env = {k: v for k, v in os.environ.items() if not k.startswith("STEPPING_")}
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR]
    timeout = run_timeout_s(args.seconds, args.trace)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %.0f s" % timeout)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0:
        print(lines[-1])
        fail("workload exited with code %d" % proc.returncode)
    check_result(lines[-1], args.trace)
    print(lines[-1])
    sys.stdout.flush()


if __name__ == "__main__":
    main()
