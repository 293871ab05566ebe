#!/usr/bin/env python3
"""Build and run the natle-sim benchmark.

    python3 perfbench/run.py --workload {avl-2s,mesh-1024,service-mix} \
        --seed N --seconds S --trace {0,1}

Run from the repository root. The first call configures and builds the
simulator and the benchmark binary from source into .bench_build/perfbench
(later calls only re-check the build). --trace 0 prints the end-to-end
metrics, --trace 1 the per-layer metrics and writes the span file
.bench_build/perfbench/spans/<workload>-seed<N>.json. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. The exit code is nonzero when the build fails, the run fails a
correctness check, or the run exceeds its time limit.

Seeds: tune on any seed, then re-check a claimed gain on the held-out seed
named in perfbench/NOTES.md.
"""
import argparse
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# The run may take this long beyond --seconds: set-up, the minimum of two
# repetitions (one mesh-1024 repetition takes about 25 s), the paper
# reference points and the probes.
RUN_MARGIN_S = 150


def build():
    # Compiler and LTO temporaries stay inside the build tree too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"], check=True,
                   stdout=sys.stderr, env=env)


def no_aslr():
    """Returns the command prefix that runs a program with address-space
    layout randomisation off, or [] where that is not possible.

    The simulator's heap footprint depends on where its aligned chunks land,
    so with randomisation on, peak memory varies by up to 60% between runs of
    one seed; with it off, a seed's layout and footprint repeat.
    """
    setarch = shutil.which("setarch")
    if setarch is None:
        return []
    prefix = [setarch, platform.machine(), "-R"]
    probe = subprocess.run(prefix + ["true"], stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL)
    return prefix if probe.returncode == 0 else []


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["avl-2s", "mesh-1024", "service-mix"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = no_aslr() + [
        os.path.join(BUILD, "perfbench"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace)]
    if args.trace == 1:
        spans_dir = os.path.join(BUILD, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    timeout = args.seconds + RUN_MARGIN_S
    try:
        return subprocess.run(cmd, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {timeout} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
