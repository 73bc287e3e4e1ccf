#!/usr/bin/env python3
"""Run one HOPE benchmark workload and print its metrics.

    python3 hopebench/run.py --workload email-art --seed 1 --seconds 8 --trace 0

Run it from the root of the repository. The first run builds the program and
the benchmark from source with sbt (hopebench/build.sbt compiles the
repository's own build one directory up) and caches the classpath under
hopebench/target; later runs rebuild only when a source file changed. Each
run is one fresh JVM, so JIT profiles never carry over between workloads.

The JVM prints human-readable lines starting with '#', then one JSON line
with the keys correct, attempted, failed and metrics. This script passes them
through and exits with the JVM's exit code: 0 when every answer matched its
oracle, 1 when some did not, 2 for bad arguments or a missing program.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
TARGET = os.path.join(BENCH_DIR, "target")
LAUNCH = os.path.join(TARGET, "bench-launch.txt")
STAMP = os.path.join(TARGET, "bench-stamp.txt")
WORK = os.path.join(TARGET, "run")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# A fixed heap and the throughput collector: G1's concurrent work and its
# resizing made the latency percentiles of repeated runs spread more.
HEAP = "2g"

# Everything the build reads: a change to any of these triggers a rebuild.
SOURCES = [
    os.path.join(ROOT, "build.sbt"),
    os.path.join(ROOT, "project", "build.properties"),
    os.path.join(ROOT, "src", "main"),
    os.path.join(ROOT, "jobs"),
    os.path.join(BENCH_DIR, "build.sbt"),
    os.path.join(BENCH_DIR, "project", "build.properties"),
    os.path.join(BENCH_DIR, "src", "main"),
]


def fail(code, msg):
    print(f"hopebench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    h = hashlib.sha256()
    for top in SOURCES:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode() + b"\0")
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def build(digest):
    """Compile with sbt unless the cached classpath matches `digest`."""
    if os.path.exists(LAUNCH) and os.path.exists(STAMP):
        with open(STAMP) as f:
            if f.read().strip() == digest:
                return
    if shutil.which("sbt") is None:
        fail(2, "sbt is not on PATH")
    print("hopebench: building with sbt", file=sys.stderr)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "writeClasspath"]
    try:
        r = subprocess.run(cmd, cwd=BENCH_DIR, stdout=sys.stderr, stderr=sys.stderr,
                           stdin=subprocess.DEVNULL, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(3, f"build took longer than {BUILD_TIMEOUT_S} s")
    if r.returncode != 0 or not os.path.exists(LAUNCH):
        fail(3, f"build failed (sbt exit code {r.returncode})")
    with open(STAMP, "w") as f:
        f.write(digest + "\n")


def git_commit():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    for p in ("build.sbt", os.path.join("src", "main", "scala")):
        if not os.path.exists(os.path.join(ROOT, p)):
            fail(2, f"the program under test is missing: no {p} next to {os.path.basename(BENCH_DIR)}/")

    digest = source_digest()
    build(digest)
    with open(LAUNCH) as f:
        launch = f.read().splitlines()
    classpath, jvm_opens = launch[0], [l for l in launch[1:] if l]

    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    # No hsperfdata file under the system temp directory: the run writes only
    # inside the checkout.
    cmd = [java, *jvm_opens, f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseParallelGC", "-XX:-UsePerfData",
           f"-Djava.io.tmpdir={tmp}",
           f"-Dhopebench.workdir={WORK}",
           f"-Dhopebench.commit={git_commit()}",
           f"-Dhopebench.source={digest}",
           "-cp", classpath, "hopebench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(WORK, "spark-local"))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                            text=True, bufsize=1)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(4, f"run took longer than {RUN_TIMEOUT_S} s")
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
