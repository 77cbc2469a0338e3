#!/usr/bin/env python3
"""Repository benchmark: builds the `perfbench` package and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. It builds `perfbench/` (a package of
its own that depends on the repository's crates by path) into
`$CARGO_TARGET_DIR`, or `perfbench/target` when that is unset, then runs
the workload. The last line of standard output is the summary
`{"correct", "attempted", "failed", "metrics"}`; the line before it is the
full result with provenance, timing details and correctness gates, which
is also written to `.bench_out/`. Traced runs write their spans there too.
The exit code is non-zero when the build fails, the run fails or any
correctness gate fails. See `perfbench/README.md`.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["hybrid-live", "replay-q15", "occluded-solve", "serve-fleet"]
# A run must end within 180 s; leave room to report a timeout.
RUN_TIMEOUT_S = 170
# What the benchmark builds from. Without these there is nothing to run.
REQUIRED = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench/Cargo.toml"]
# Sources whose digest identifies the measured code in the provenance block.
DIGESTED = ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench/Cargo.toml",
            "perfbench/Cargo.lock", "perfbench/src"]
SUMMARY_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the measured sources, path-sorted, so a result can be
    tied to its code even where there is no git history."""
    digest = hashlib.sha256()
    paths = []
    for entry in DIGESTED:
        full = os.path.join(ROOT, entry)
        if os.path.isfile(full):
            paths.append(entry)
        for base, dirs, files in os.walk(full):
            dirs[:] = sorted(d for d in dirs if d != "target")
            for name in files:
                paths.append(os.path.relpath(os.path.join(base, name), ROOT))
    for rel in sorted(paths):
        digest.update(rel.encode())
        with open(os.path.join(ROOT, rel), "rb") as f:
            digest.update(hashlib.sha256(f.read()).digest())
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", default=0, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative", 2)

    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        fail(f"not a checkout of the repository (missing {', '.join(missing)})", 2)

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        fail("build failed", 1)

    env["PERFBENCH_RUSTC"] = command_output(["rustc", "--version"]) or "unknown"
    env["PERFBENCH_COMMIT"] = command_output(["git", "rev-parse", "HEAD"]) or "none"
    env["PERFBENCH_SOURCE_SHA256"] = source_digest()
    cmd = [os.path.join(target, "release", "perfbench"), "run",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", ".bench_out"]
    # Own process group, so a timeout also stops the set-up children.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)

    lines = stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        fail(f"run failed with exit code {proc.returncode}", 1)
    try:
        summary = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("run printed no summary", 1)
    if set(summary) != SUMMARY_KEYS or not summary["correct"]:
        fail("summary is malformed or a correctness gate failed", 1)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
