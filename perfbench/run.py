#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload paper_flow --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. Configures and builds the library, the
daemons and the benchmark binary in Release under .bench_build/ (the first
run builds; later runs only check the build is current), then runs one
workload in that binary and passes its output through: a {"detail": ...}
line, then the result line {"correct", "attempted", "failed", "metrics"}.
Build output goes to stderr. Scratch files live in .bench_build/tmp and are
removed by the binary; traced runs write their per-layer JSON and Chrome
trace to .bench_build/out. See perfbench/README.md.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "perfbench")
WORKLOADS = ["paper_flow", "circuit_transient", "farm_store", "exec_batch"]
RUN_TIMEOUT_S = 170
# The self-test accepts layer self times covering the traced unit wall to
# within this share; a layer left out of the accounting falls below it.
COVERAGE_SLACK = 0.1


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the repository sources are missing next to perfbench/")
    build_dir = os.path.join(BUILD, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run_binary(args):
    """Run the benchmark binary; returns (exit code, stdout lines)."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    proc = subprocess.Popen([BINARY, "--out", os.path.join(BUILD, "out")] + args,
                            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)

    def forward(signum, _frame):
        proc.send_signal(signum)

    previous = {s: signal.signal(s, forward) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("benchmark binary timed out", 1)
    finally:
        for s, handler in previous.items():
            signal.signal(s, handler)
    return proc.returncode, out.splitlines()


def check_result(line, names):
    """The result line's shape and metric names; returns the parsed object."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys " + str(sorted(result)))
    if set(result["metrics"]) != set(names):
        missing = set(names) ^ set(result["metrics"])
        raise ValueError("metric names differ from BENCHMARK.json: " + str(sorted(missing)))
    return result


def measure(opts):
    build()
    bench = spec()
    kind = "per_layer" if opts.trace else "end_to_end"
    code, lines = run_binary(["--workload", opts.workload, "--seed", str(opts.seed),
                              "--seconds", str(opts.seconds), "--trace", str(opts.trace)])
    for line in lines:
        print(line)
    sys.stdout.flush()
    if not lines:
        fail("benchmark binary printed no result", 1)
    try:
        check_result(lines[-1], [m["name"] for m in bench[kind]])
    except ValueError as e:
        fail(str(e), 1)
    return code


def selftest():
    """Every workload at a tiny size, untraced and traced: every check
    passes, the metric names match BENCHMARK.json, the traced self times
    cover the traced wall, scratch files are gone and no ledger changed."""
    build()
    bench = spec()
    ledger_dir = os.path.join(ROOT, "bench", "history")

    def ledgers():
        if not os.path.isdir(ledger_dir):
            return {}
        return {n: os.stat(os.path.join(ledger_dir, n)).st_mtime_ns for n in os.listdir(ledger_dir)}

    before = ledgers()
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            kind = "per_layer" if trace else "end_to_end"
            code, lines = run_binary(["--workload", workload, "--seed", "7", "--seconds", "1",
                                      "--trace", str(trace), "--tiny"])
            tag = "%s trace=%d" % (workload, trace)
            try:
                result = check_result(lines[-1], [m["name"] for m in bench[kind]])
                detail = json.loads(lines[-2])["detail"]
            except (ValueError, IndexError) as e:
                problems.append("%s: bad output: %s" % (tag, e))
                continue
            if code != 0 or not result["correct"] or result["failed"] != 0:
                problems.append("%s: checks failed: %s" % (tag, detail["first_failure"]))
            if detail["host"]["build_type"] != "Release":
                problems.append("%s: not a Release build" % tag)
            if trace:
                coverage = detail["self_coverage"]
                if not 1.0 - COVERAGE_SLACK <= coverage <= 1.0 + COVERAGE_SLACK / 5:
                    problems.append("%s: layer self times cover %.3f of the traced wall"
                                    % (tag, coverage))
                stem = os.path.join(BUILD, "out", "%s-7" % workload)
                with open(stem + ".trace.json") as f:
                    if "traceEvents" not in json.load(f):
                        problems.append("%s: Chrome trace has no events" % tag)
                with open(stem + ".layers.json") as f:
                    if len(json.load(f)["metrics"]) != len(bench["per_layer"]):
                        problems.append("%s: per-layer JSON incomplete" % tag)
            print("selftest: %-24s ok=%s units=%d coverage=%s" % (
                tag, result["correct"], result["attempted"], detail.get("self_coverage")))
    leftovers = os.listdir(os.path.join(BUILD, "tmp"))
    if leftovers:
        problems.append("scratch files left behind: " + ", ".join(sorted(leftovers)))
    if ledgers() != before:
        problems.append("a bench/history ledger changed")
    for p in problems:
        print("selftest: FAIL " + p)
    print("selftest: " + ("FAILED" if problems else "OK"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    opts = parser.parse_args()
    if opts.selftest:
        return selftest()
    if not opts.workload:
        parser.error("--workload is required")
    return measure(opts)


if __name__ == "__main__":
    sys.exit(main())
