#!/usr/bin/env python3
"""Builds the engine and the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload cold_tpch --seed 1 --seconds 15 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR, or to
.bench_build when that is unset. The last line of stdout is the JSON result
({"correct", "attempted", "failed", "metrics"}); the lines before it are
the host and workload fingerprint and a readable report. The exit code is 0
only when every query result matched its reference.

    python3 perfbench/run.py --self-test

builds and runs the benchmark's own tests, then a tiny-SF smoke pass of
every workload in both modes.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold_tpch", "cold_wide", "warm_serve")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def log(message):
    print("[run.py] " + message, file=sys.stderr, flush=True)


def build(targets):
    """Configures (once) and builds `targets`; the build log goes to stderr."""
    out = build_dir()
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        log("no CMakeLists.txt at the repository root: nothing to build")
        return False
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
                  "--target"] + targets)
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build step failed: " + " ".join(step))
            return False
    return True


def source_digest():
    """SHA-256 over the engine sources and build files: identifies the code
    measured when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    with open(os.path.join(ROOT, "CMakeLists.txt"), "rb") as f:
        digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit():
    try:
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def run_workload(workload, seed, seconds, trace, sf=None):
    """Runs the benchmark binary; returns (exit code, parsed result or None)."""
    binary = os.path.join(build_dir(), "aqe_perfbench")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--git-commit", git_commit(), "--source-digest", source_digest()]
    if sf is not None:
        cmd += ["--sf", str(sf)]
    if trace:
        spans_dir = os.path.join(build_dir(), "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans_dir, "%s-seed%s.jsonl" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("%s timed out after %ds" % (workload, RUN_TIMEOUT_S))
        return 1, None
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write(proc.stdout)
        log("no result line from %s (exit %d)" % (workload, proc.returncode))
        return proc.returncode or 1, None
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    return proc.returncode, result


def self_test():
    if not build(["aqe_perfbench", "perfbench_test"]):
        return 2
    test_binary = os.path.join(build_dir(), "perfbench_test")
    if subprocess.run([test_binary], stdout=sys.stderr).returncode:
        log("perfbench_test failed")
        return 1
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = run_workload(workload, 7, 1, trace, sf=0.005)
            ok = code == 0 and result is not None and result["correct"]
            log("smoke %s trace=%d: %s" % (workload, trace, "ok" if ok else "FAILED"))
            failures += not ok
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sf", type=float, help="override the scale factor")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if not build(["aqe_perfbench"]):
        return 2
    code, result = run_workload(args.workload, args.seed, args.seconds,
                                args.trace, args.sf)
    if result is None:
        return code or 1
    print(json.dumps(result))
    return code if code else (0 if result["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())
