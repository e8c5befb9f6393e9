#!/usr/bin/env python3
"""Builds the HALO benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload suite-exec|serve-small \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It configures and builds
perfbench/CMakeLists.txt (the repository's halo_core plus the benchmark
program, halo_perfbench, in Release) into $CARGO_TARGET_DIR, or .bench_build
when that is unset, then runs it. Its output is passed through; its last
line is one JSON object with the keys correct, attempted, failed and
metrics. Build output goes to standard error. A traced run (--trace 1) also writes
Chrome trace-event JSON into the build directory.

Exit status: halo_perfbench's, or 1 when the build fails or halo_perfbench
does not finish in time. Nothing is written outside the checkout: compiler
temporaries go to the build directory too.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

WORKLOADS = ("suite-exec", "serve-small")
# A run must end well inside 180 s; no workload needs this long.
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880


def checkout_root():
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build_dir(root):
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(root, d)


def build(root, out):
    """Configures (once) and builds halo_perfbench. Returns its path or None."""
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", out,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")) and \
            shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(os.cpu_count() or 1)
    for cmd in (configure,
                ["cmake", "--build", out, "--target", "halo_perfbench",
                 "-j", jobs]):
        try:
            r = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr,
                               stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: {cmd[0]} failed: {e}", file=sys.stderr)
            return None
        if r.returncode != 0:
            print(f"perfbench: '{' '.join(cmd)}' exited {r.returncode}",
                  file=sys.stderr)
            return None
    exe = os.path.join(out, "halo_perfbench")
    return exe if os.path.isfile(exe) else None


def source_id(root):
    """The commit, or a digest of the sources when the checkout has no git."""
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                               capture_output=True, text=True, timeout=30)
            if r.returncode == 0:
                return r.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(
                os.path.join(root, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()

    root = checkout_root()
    out = build_dir(root)
    exe = build(root, out)
    if exe is None:
        return 1
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", str(a.trace),
           "--commit", source_id(root)]
    if a.trace:
        cmd += ["--trace-out",
                os.path.join(out, f"trace-{a.workload}-{a.seed}.json")]
    sys.stdout.flush()
    try:
        r = subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {a.workload} did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
