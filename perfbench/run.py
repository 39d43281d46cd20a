#!/usr/bin/env python3
"""Build and run the DESAlign pipeline benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fbdb_exact --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which compiles ../src)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset; later calls only relink what changed. Build output goes to stderr so
that the last line of stdout is the benchmark's result object. That object
carries exactly the metrics BENCHMARK.json lists for the run's mode
(end_to_end without tracing, per_layer with it); a run that measured fewer
fails. Spans and the detailed report are written under .bench_out/.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import subprocess
import sys

WORKLOADS = ("fbdb_exact", "dbp_ivf")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "perfbench")


def build(target):
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("src/ is missing: run from the root of a full checkout")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", "perfbench", "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    cmd = ["cmake", "--build", out, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out, target)


def source_digest():
    """sha256 over every file the benchmark builds from (src/, perfbench/)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_state():
    """(sha, dirty) when the checkout itself is a git work tree."""
    if not os.path.isdir(".git"):
        return "unknown", "unknown"
    env = dict(os.environ, GIT_DIR=".git", GIT_WORK_TREE=".")
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, check=True)
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"], env=env,
            capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown", "unknown"
    return sha.stdout.strip(), "1" if status.stdout.strip() else "0"


def manifest_metrics(trace):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    return bench["per_layer" if trace else "end_to_end"]


def result_line(line, trace):
    """The binary's result object cut down to the manifest's metrics."""
    try:
        result = json.loads(line)
    except ValueError:
        fail("the benchmark printed no result object")
    if not result.get("correct"):
        return line
    measured = result["metrics"]
    metrics = {}
    for want in manifest_metrics(trace):
        name = want["name"]
        got = measured.get(name)
        if got is None:
            fail("metric %s was not measured" % name)
        value = got["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail("metric %s is not a finite number: %r" % (name, value))
        if got["unit"] != want["unit"]:
            fail("metric %s is in %s, not %s" % (name, got["unit"],
                                                 want["unit"]))
        metrics[name] = got
    result["metrics"] = metrics
    return json.dumps(result, separators=(",", ":"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.selftest:
        binary = build("perfbench_test")
        sys.exit(subprocess.run([binary]).returncode)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    binary = build("perfbench")
    sha, dirty = git_state()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", sha, "--git-dirty", dirty,
           "--source-digest", source_digest()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)

    def stop(signum, _frame):
        # Never leave the benchmark running behind us.
        proc.terminate()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode == 0:
        lines[-1] = result_line(lines[-1], args.trace)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
