#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench).

    python3 perfbench/run.py --workload fig6-grid --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the benchmark (Release: the conopt
library plus perfbench/*.cc) into .bench_build/perfbench, then runs it
with the given arguments from the repository root. Its standard output,
whose last line is the JSON result, passes through unchanged; the build
log goes to .bench_build/perfbench-build.log. The exit status is the
benchmark's: 0 when every job matched its reference, 1 when one did not
(or the benchmark crashed), 2 on a usage, build or set-up error.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
LOG = os.path.join(ROOT, ".bench_build", "perfbench-build.log")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no conopt sources in {ROOT}: run from a full checkout")
    os.makedirs(os.path.dirname(BUILD), exist_ok=True)
    # The library's Release build trips a -Wrestrict false positive under
    # -Werror, so warnings stay warnings here.
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release", "-DCONOPT_WERROR=OFF"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    compile_ = ["cmake", "--build", BUILD, "--target", "perfbench",
                "-j", str(min(4, os.cpu_count() or 1))]
    with open(LOG, "w") as log:
        for _ in range(2):
            steps = [compile_]
            if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
                steps.insert(0, configure)
            if all(subprocess.run(step, cwd=ROOT, stdout=log,
                                  stderr=subprocess.STDOUT).returncode == 0
                   for step in steps):
                return
            # A tree configured for another source path or generator
            # cannot be reused: start over once.
            shutil.rmtree(BUILD, ignore_errors=True)
    with open(LOG) as log:
        sys.stderr.writelines(log.readlines()[-30:])
    fail(f"build failed; see {LOG}")


def main():
    build()
    sys.stdout.flush()
    proc = subprocess.run([os.path.join(BUILD, "perfbench")] + sys.argv[1:],
                          cwd=ROOT)
    # A negative code is a signal (a simulator panic aborts): report 1.
    sys.exit(proc.returncode if proc.returncode >= 0 else 1)


if __name__ == "__main__":
    main()
