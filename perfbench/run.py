#!/usr/bin/env python3
"""Build the tsf benchmark from source and run one workload.

Run from the root of a tsf checkout:

    python3 perfbench/run.py --workload uni_stream|storm_quad|paper_grid \
        --seed N --seconds S --trace 0|1 [--print-pins]

Every run configures (once per checkout) and builds perfbench/, which
builds the runtime's libraries from ../src, in a directory of its own under
$CARGO_TARGET_DIR (.bench_build when that is unset), runs the front-end
round-trip self-test, then starts the perfbench binary, whose last stdout
line is the JSON result. Generated spec files and the traced run's span
JSON go to .bench_out/. See perfbench/README.md for the workloads and
metrics.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("uni_stream", "storm_quad", "paper_grid")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log):
    """Runs a build step with its output appended to `log`; True on success."""
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        return subprocess.run(cmd, cwd=ROOT, stdout=out,
                              stderr=subprocess.STDOUT).returncode == 0


def configured_source(build_dir):
    """The source directory build_dir's CMake cache was configured from;
    None without a cache."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.isfile(cache):
        return None
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return line.split("=", 1)[1].strip()
    return ""


def build(target_dir):
    """Configures, builds and self-tests; returns the perfbench binary."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no tsf sources next to perfbench/ (expected CMakeLists.txt and "
             "src/ in %s)" % ROOT)
    # One build directory per source tree, so checkouts sharing a target
    # directory never build or run each other's sources.
    key = hashlib.sha1(os.path.realpath(HERE).encode()).hexdigest()[:12]
    build_dir = os.path.join(target_dir, "perfbench-" + key)
    os.makedirs(build_dir, exist_ok=True)
    log = os.path.join(build_dir, "perfbench-build.log")
    source = configured_source(build_dir)
    if source is not None and (
            not source or os.path.realpath(source) != os.path.realpath(HERE)):
        os.remove(os.path.join(build_dir, "CMakeCache.txt"))
        source = None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if source is None and not run_logged(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"], log):
        fail("configure failed; see " + log)
    if not run_logged(["cmake", "--build", build_dir, "--target", "perfbench",
                       "perfbench_roundtrip_test", "-j", jobs], log):
        fail("build failed; see " + log)
    if not run_logged([os.path.join(build_dir, "perfbench_roundtrip_test")],
                      log):
        fail("front-end round-trip self-test failed; see " + log)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--print-pins", action="store_true",
                        help="print the first iteration's outputs in "
                             "pins.txt format before the result")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be a non-negative integer")

    binary = build(os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(ROOT, ".bench_out"),
           "--pins", os.path.join(HERE, "pins.txt")]
    if args.print_pins:
        cmd.append("--print-pins")
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
