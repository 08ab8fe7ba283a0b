#!/usr/bin/env python3
"""The repo benchmark: builds perfbench against the repo's own apq library
(into .bench_build/) and runs one workload, or one of its modes.

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
      One run. The last line of standard output is the result:
      {"correct", "attempted", "failed", "metrics"}; end-to-end metrics with
      --trace 0 (one or two fresh processes sharing the S seconds, combined
      by median), per-layer metrics with --trace 1 (one process, rounds of
      the same layer probes on every workload, over a catalog of its size). A record of
      each process (host facts, checks, span totals) goes to .bench_out/.
  python3 perfbench/run.py --selftest
      Shows that every correctness check rejects a corrupted result.
  python3 perfbench/run.py --ledger [--seed N] [--seconds S]
      Regenerates the layer ledger (select and fetch-join through every
      layer) and the per-layer metrics of each workload's traced run, into
      .bench_out/ledger.md and .bench_out/layers.md.

Workloads: tpch_embedded, adaptive_converge, served_mix (see README.md).
"""
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["tpch_embedded", "adaptive_converge", "served_mix"]
# A whole run must end well inside the 180 s the benchmark allows itself.
RUN_TIMEOUT_S = 170
# An untraced run is this many fresh processes, each measuring for an equal
# share of --seconds; each metric is the median over them. A process's
# first seconds after its set-up run slower and vary more (fresh pages of a
# freshly started process), so few long processes beat many short ones.
# tpch_embedded's set-up (4M rows) is the dearest, so it gets one.
PROCESSES = {"tpch_embedded": 1, "adaptive_converge": 2, "served_mix": 2}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
            os.path.join(ROOT, "src")):
        fail("no apq source tree next to perfbench/ (CMakeLists.txt, src/); "
             "nothing to build")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def run_binary(args, capture=False, timeout=RUN_TIMEOUT_S):
    try:
        r = subprocess.run([BINARY] + args + ["--out-dir", OUT],
                           stdout=subprocess.PIPE if capture else None,
                           timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s: %s" % (timeout, " ".join(args)))
    return r


def measured_run(argv):
    """One untraced run: PROCESSES[workload] fresh processes, combined."""
    workload = option(argv, "--workload", "")
    seed = option(argv, "--seed", "1")
    seconds = int(option(argv, "--seconds", "10"))
    if workload not in PROCESSES:
        fail("unknown workload '%s'" % workload)
    processes = PROCESSES[workload]
    each = str(max(1, round(seconds / processes)))
    results = []
    budget = RUN_TIMEOUT_S
    for i in range(processes):
        start = time.monotonic()
        r = run_binary(["--workload", workload, "--seed", seed, "--seconds", each,
                        "--trace", "0", "--process", str(i)], capture=True,
                       timeout=max(1, budget))
        budget -= time.monotonic() - start
        lines = r.stdout.strip().splitlines()
        if r.returncode != 0 or not lines:
            fail("process %d of the run failed" % i)
        results.append(json.loads(lines[-1]))
    metrics = {}
    for name, m in results[0]["metrics"].items():
        value = statistics.median(res["metrics"][name]["value"] for res in results)
        metrics[name] = {"value": value, "unit": m["unit"]}
    combined = {"correct": all(res["correct"] for res in results),
                "attempted": sum(res["attempted"] for res in results),
                "failed": sum(res["failed"] for res in results),
                "metrics": metrics}
    print(json.dumps(combined))
    return 0


def option(argv, name, default):
    return argv[argv.index(name) + 1] if name in argv and argv.index(name) + 1 < len(
        argv) else default


def ledger(argv):
    seed = option(argv, "--seed", "1")
    seconds = option(argv, "--seconds", "10")
    if run_binary(["--ledger", "--seed", seed]).returncode != 0:
        fail("ledger checks failed")
    lines = ["Per-layer metrics of each workload's traced run "
             "(seed %s, --seconds %s).\n" % (seed, seconds)]
    for w in WORKLOADS:
        r = run_binary(["--workload", w, "--seed", seed, "--seconds", seconds,
                        "--trace", "1"], capture=True)
        if r.returncode != 0:
            fail("traced run of %s failed" % w)
        result = json.loads(r.stdout.strip().splitlines()[-1])
        record_path = os.path.join(OUT, "%s-seed%s-trace1-p0.json" % (w, seed))
        with open(record_path) as f:
            record = json.load(f)
        lines.append("\n## %s (correct: %s, attempted %d, failed %d)\n" % (
            w, result["correct"], result["attempted"], result["failed"]))
        lines.append("| metric | value | unit |\n|---|---|---|")
        for name, m in sorted(result["metrics"].items()):
            lines.append("| %s | %.6g | %s |" % (name, m["value"], m["unit"]))
        lines.append("\n| span | count | total ms | self ms |\n|---|---|---|---|")
        for name, t in sorted(record["span_totals_ms"].items()):
            lines.append("| %s | %d | %.1f | %.1f |" % (
                name, t["count"], t["total_ms"], t["self_ms"]))
    text = "\n".join(lines) + "\n"
    with open(os.path.join(OUT, "layers.md"), "w") as f:
        f.write(text)
    print(text)


def main():
    argv = sys.argv[1:]
    build()
    if "--ledger" in argv:
        ledger(argv)
        return 0
    if "--workload" in argv and option(argv, "--trace", "0") == "0":
        return measured_run(argv)
    return run_binary(argv).returncode


if __name__ == "__main__":
    sys.exit(main())
