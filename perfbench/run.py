#!/usr/bin/env python3
"""Builds and runs the pimtc benchmark (see NOTES.md).

From the root of a checkout:

  python3 perfbench/run.py --workload static-file --seed 1 --seconds 30 \
      --trace 0
  python3 perfbench/run.py --self-test

A run builds the library and the perfbench binary under .bench_build/,
runs one workload, checks that the binary emitted exactly the metrics
perfbench/metrics.json declares for that workload, and prints the result as
the last line of stdout: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list (0 for a layer the workload does not use).

Exit status: 0 when every correctness check passed; 1 when one failed (the
result still prints, with "correct": false); any other status means no
result: a failed build, a binary error or a metric declaration mismatch.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_BUILD = os.path.join(BUILD, "cmake")
WORK = os.path.join(BUILD, "work")
RUN_TIMEOUT_S = 170


class DeclarationError(Exception):
    pass


def load_declarations():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "metrics.json")) as f:
        decl = json.load(f)
    return bench, decl


def check_declarations(bench, decl):
    """BENCHMARK.json and metrics.json describe the same metrics."""
    workloads = [w["name"] for w in bench["workloads"]]
    e2e = [m["name"] for m in bench["end_to_end"]]
    layer = [m["name"] for m in bench["per_layer"]]
    if sorted(e2e) != sorted(decl["end_to_end"]):
        raise DeclarationError("end_to_end names differ between "
                               "BENCHMARK.json and metrics.json")
    if sorted(layer) != sorted(decl["per_layer"]):
        raise DeclarationError("per_layer names differ between "
                               "BENCHMARK.json and metrics.json")
    for name, per_workload in decl["end_to_end"].items():
        if sorted(per_workload) != sorted(workloads):
            raise DeclarationError(name + " must be defined on every workload")
    known = set(e2e) | set(layer)
    for name, d in decl["per_layer"].items():
        for w in d["workloads"]:
            if w not in workloads:
                raise DeclarationError(name + ": unknown workload " + w)
        for moved, on in d["moves"].items():
            if moved not in known:
                raise DeclarationError(name + " moves unknown metric " + moved)
            for w in on:
                if w not in workloads:
                    raise DeclarationError(name + ": unknown workload " + w)


def expected_metrics(bench, decl, workload, trace):
    """(name -> unit) the binary must emit, and (name -> unit) to zero-fill."""
    if not trace:
        return {m["name"]: m["unit"] for m in bench["end_to_end"]}, {}
    emitted, idle = {}, {}
    for m in bench["per_layer"]:
        on = workload in decl["per_layer"][m["name"]]["workloads"]
        (emitted if on else idle)[m["name"]] = m["unit"]
    return emitted, idle


def check_emitted(result, emitted):
    got = result["metrics"]
    missing = sorted(set(emitted) - set(got))
    extra = sorted(set(got) - set(emitted))
    if missing or extra:
        raise DeclarationError("declared but not emitted: %s; emitted but "
                               "not declared: %s" % (missing, extra))
    for name, unit in emitted.items():
        if got[name]["unit"] != unit:
            raise DeclarationError("%s: unit %s, declared %s" %
                                   (name, got[name]["unit"], unit))


def build(targets):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(CMAKE_BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", CMAKE_BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", CMAKE_BUILD, "-j", jobs, "--target"] +
                   targets, check=True, stdout=sys.stderr)


def self_test():
    py = subprocess.run([sys.executable, os.path.join(HERE, "test_run.py")])
    build(["perfbench_test"])
    cc = subprocess.run([os.path.join(CMAKE_BUILD, "perfbench_test")],
                        cwd=BUILD)
    return py.returncode or cc.returncode


def run(args, bench, decl):
    check_declarations(bench, decl)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        raise DeclarationError("unknown workload " + args.workload)
    build(["perfbench"])
    os.makedirs(WORK, exist_ok=True)
    proc = subprocess.run(
        [os.path.join(CMAKE_BUILD, "perfbench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--work-dir", WORK],
        stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write("perfbench exited with %d\n" % proc.returncode)
        return proc.returncode or 2
    result = json.loads(lines[-1])
    emitted, idle = expected_metrics(bench, decl, args.workload, args.trace)
    check_emitted(result, emitted)
    for name, unit in idle.items():
        result["metrics"][name] = {"value": 0, "unit": unit}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="check the metric declarations and run the "
                        "benchmark's own tests")
    args = p.parse_args()
    try:
        if args.self_test:
            return self_test()
        bench, decl = load_declarations()
        if not args.workload:
            p.error("--workload is required")
        return run(args, bench, decl)
    except (OSError, ValueError, KeyError, DeclarationError,
            subprocess.SubprocessError) as e:
        sys.stderr.write("run.py: %s\n" % e)
        return 3


if __name__ == "__main__":
    sys.exit(main())
