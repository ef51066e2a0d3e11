#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload reduce-sparse --seed 1 --seconds 10 --trace 0

Run it from the repository root. The first run configures and builds the
benchmark binary (Release) under $CARGO_TARGET_DIR, or .bench_build when that
is unset; later runs only rebuild what changed. The last line of standard
output is the result object; everything the build prints goes to standard
error.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("reduce-sparse", "lowspace-lists", "serve-mixed")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_id():
    """The commit when the tree is a git checkout, else a hash of the sources."""
    # The ceiling keeps git from searching the directories above the tree.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=env)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    with open(os.path.join(ROOT, "CMakeLists.txt"), "rb") as f:
        h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def build(build_root, work_dir):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the repository sources (CMakeLists.txt, src/) are missing; "
             "nothing to build")
    cmake_dir = os.path.join(build_root, "perfbench-cmake")
    binary = os.path.join(cmake_dir, "detcol_perfbench")
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "--target",
                  "detcol_perfbench", "-j", "4"])
    before = os.path.getmtime(binary) if os.path.exists(binary) else None
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if rc != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    if before != os.path.getmtime(binary):
        # Exact counts recorded by an older binary do not bind this one.
        shutil.rmtree(os.path.join(work_dir, "counts"), ignore_errors=True)
    return binary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: small instances, for the self-test")
    args = ap.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(ROOT, build_root)
    # Compiler and run scratch files stay inside the build directory.
    tmp = os.path.join(build_root, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    # Relative to ROOT, so the serve socket path stays short.
    work_dir = os.path.relpath(os.path.join(build_root, "perfbench-work"),
                               ROOT)
    binary = build(build_root, os.path.join(ROOT, work_dir))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--work-dir", work_dir,
           "--source-id", source_id()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        sys.exit(1)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
