#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and compiles the
longdp library and the perfbench binary into .bench_build/perfbench (Release);
later calls only check that the build is current. The binary's standard output
is passed through unchanged, so its last line is the JSON result. Extra flags
(--lanes L, --tiny) are forwarded to the binary.

Exits 2 without a result when the checkout has no longdp sources or the build
fails; otherwise exits with the binary's status (1 when a correctness gate
failed).
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORK_DIR = os.path.join(BUILD_ROOT, "work")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def source_rev():
    """The git revision when the checkout is a repository, else a digest of
    the sources the benchmark compiles."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        try:
            out = subprocess.run(
                ["git", "-C", ROOT, "describe", "--always", "--dirty"],
                capture_output=True, text=True, timeout=30, check=True)
            return "git:" + out.stdout.strip()
        except (subprocess.SubprocessError, OSError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def checkout_env():
    """The environment for child processes: temporary files stay inside the
    checkout's build tree."""
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = tmp
    return env


def run_checked(cmd):
    """Runs a build step with its output on stderr; exits 2 on failure."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=checkout_env())
    if proc.returncode != 0:
        log("build step failed: " + " ".join(cmd))
        sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no longdp sources at " + os.path.join(ROOT, "src"))
        sys.exit(2)
    if shutil.which("cmake") is None:
        log("cmake not found")
        sys.exit(2)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_checked(cmd)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_checked(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                 "-j", jobs])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args, extra = parser.parse_known_args()

    build()
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--workdir", WORK_DIR, "--source-rev", source_rev()] + extra
    child = subprocess.Popen(cmd, cwd=ROOT, env=checkout_env())

    def forward(signum, _frame):
        child.send_signal(signum)

    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, forward)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())
