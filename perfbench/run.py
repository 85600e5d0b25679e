#!/usr/bin/env python3
"""Runs one workload of the MBI benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the library and perfbench/mbi_perfbench.cc from source into
.bench_build/ (CMake, Release), runs the workload, and prints the host facts
(with timings of fixed compute and memory loops before and after the run,
which show a slow phase of a shared host), the work-counter fingerprint and, as the last
line, the result object
{"correct", "attempted", "failed", "metrics"}. Exits non-zero without a
result line when the build or the run fails.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("tknn-angular", "ingest-l2", "sharded-l2")
RUN_TIMEOUT_S = 170


def build():
    cmds = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "mbi_perfbench", "-j",
         str(min(4, os.cpu_count() or 1))],
    ]
    for cmd in cmds:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return None
    return os.path.join(BUILD, "mbi_perfbench")


def host_facts():
    facts = {"nproc": os.cpu_count()}
    try:
        with open("/proc/cpuinfo") as f:
            cpuinfo = f.read()
        model = re.search(r"^model name\s*:\s*(.*)$", cpuinfo, re.M)
        flags = re.search(r"^flags\s*:\s*(.*)$", cpuinfo, re.M)
        facts["cpu_model"] = model.group(1) if model else "unknown"
        flag_set = set(flags.group(1).split()) if flags else set()
        facts["avx2"] = "avx2" in flag_set
        facts["avx512f"] = "avx512f" in flag_set
    except OSError:
        facts["cpu_model"] = "unknown"
    cache = {}
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                m = re.match(r"^(CMAKE_CXX_COMPILER|CMAKE_BUILD_TYPE):\w+=(.*)$",
                             line.strip())
                if m:
                    cache[m.group(1)] = m.group(2)
    except OSError:
        pass
    facts["build_type"] = cache.get("CMAKE_BUILD_TYPE", "unknown")
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    facts["compiler"] = "unknown"
    if compiler:
        version = subprocess.run([compiler, "--version"],
                                 stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True)
        if version.returncode == 0 and version.stdout:
            facts["compiler"] = version.stdout.splitlines()[0]
    return facts


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    binary = build()
    if binary is None:
        return 1
    work_dir = os.path.join(ROOT, ".bench_build",
                            "work-%s-%d" % (args.workload, os.getpid()))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if done.returncode != 0:
        sys.stderr.write("perfbench: %s exited with %d\n" %
                         (os.path.basename(binary), done.returncode))
        return 1

    lines = done.stdout.splitlines()
    probe = [l for l in lines if l.startswith("host_probe ")]
    fingerprint = [l for l in lines if l.startswith("fingerprint ")]
    results = [l for l in lines if l.startswith("result ")]
    if len(probe) != 1 or len(fingerprint) != 1 or len(results) != 1:
        sys.stderr.write("perfbench: malformed output\n" + done.stdout)
        return 1
    facts = host_facts()
    facts["probes"] = json.loads(probe[0][len("host_probe "):])
    counters = json.loads(fingerprint[0][len("fingerprint "):])
    result = json.loads(results[0][len("result "):])
    print("host " + json.dumps(facts, sort_keys=True))
    print("fingerprint " + json.dumps(counters, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
