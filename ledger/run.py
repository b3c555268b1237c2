#!/usr/bin/env python3
"""End-to-end ledger for mhprof: build, run one workload, print metrics.

    python3 ledger/run.py --workload scored_1m --seed 1 --seconds 25 --trace 0

Run from the repository root. The first run configures and builds the
profiler and the ledger driver (Release) under .bench_build/; later
runs rebuild incrementally. The system under test is started with every
MHP_* override removed from its environment. The last stdout line is
the result object {"correct", "attempted", "failed", "metrics"}; the
line before it is the run's provenance (build type, ISA tier, nproc,
clock source, governor, commit, steal and I/O wait, output digests).
See ledger/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("scored_1m", "sweep_10k", "service_wal")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "ledger")
TARGETS = ["ledger_driver", "mhprof_run", "mhprof_trace", "mhprofd"]


def fail(message):
    print(f"ledger: {message}", file=sys.stderr)
    sys.exit(2)


def clean_env():
    """The caller's environment minus every MHP_* override."""
    return {k: v for k, v in os.environ.items() if not k.startswith("MHP_")}


def source_digest():
    """Commit id, or a digest of the sources when not in a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "ledger"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def build(env):
    """Configure (once) and build ledger_driver and the tools."""
    for need in ("src/CMakeLists.txt", "tools/CMakeLists.txt",
                 "bench/common.cc"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail(f"missing {need}: run from an mhprof checkout")
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log, "w") as out:
            if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
                generator = ["-G", "Ninja"] if _has("ninja") else []
                rc = subprocess.run(
                    ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator,
                    stdout=out, stderr=subprocess.STDOUT, env=env,
                    timeout=600).returncode
                if rc != 0:
                    fail(f"cmake configure failed (see {log})")
            jobs = str(max(1, min(4, os.cpu_count() or 1)))
            rc = subprocess.run(
                ["cmake", "--build", BUILD, "-j", jobs, "--target"] + TARGETS,
                stdout=out, stderr=subprocess.STDOUT, env=env,
                timeout=840).returncode
            if rc != 0:
                fail(f"build failed (see {log})")
    return os.path.abspath(os.path.join(BUILD, "mhprof", "tools")), BUILD


def cpu_jiffies():
    """All-CPU jiffies from /proc/stat: (iowait, steal, total), or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    if len(fields) < 8:
        return None
    return fields[4], fields[7], sum(fields)


def stop_group(pgid):
    """Kill whatever is left of a process group and wait until it is gone."""
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _has(program):
    return any(os.access(os.path.join(d, program), os.X_OK)
               for d in os.environ.get("PATH", "").split(os.pathsep))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be >= 1 and --seed >= 0")

    os.chdir(ROOT)
    env = clean_env()
    tools, bindir = build(env)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work = os.path.join(".bench_build", "work", tag)
    spans = os.path.join(".bench_build", "spans", tag + ".json")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    cmd = [os.path.join(bindir, "ledger_driver"),
           f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--tools={tools}", f"--work={work}"]
    if args.trace:
        cmd.append(f"--spans={spans}")
    # ledger_driver and everything it spawns (tools, mhprofd) share one
    # process group, so nothing outlives this script.
    jiffies = cpu_jiffies()
    driver = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, env=env,
                              start_new_session=True)
    try:
        stdout, stderr = driver.communicate(timeout=args.seconds + 150)
    except subprocess.TimeoutExpired:
        os.killpg(driver.pid, signal.SIGKILL)
        driver.communicate()
        stop_group(driver.pid)
        shutil.rmtree(work, ignore_errors=True)
        fail("driver timed out")
    stop_group(driver.pid)
    shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(stderr)
    lines = stdout.strip().splitlines()
    if driver.returncode != 0 or len(lines) < 2:
        fail(f"driver exited {driver.returncode}")
    info = json.loads(lines[-2])
    result = json.loads(lines[-1])

    # Contract checks on the result object itself.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    names = {m["name"]: m["unit"] for m in wanted}
    metrics = result["metrics"]
    if set(metrics) != set(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        fail(f"metric set mismatch: missing {missing}, extra {extra}")
    for name, metric in metrics.items():
        if metric["unit"] != names[name] or not math.isfinite(
                metric["value"]):
            fail(f"bad metric {name}: {metric}")

    # Hypervisor steal and I/O wait during the run: the host's other
    # tenants taking this VM's CPUs and disk, the main sources of
    # run-to-run drift.
    after = cpu_jiffies()
    if jiffies and after and after[2] > jiffies[2]:
        total = after[2] - jiffies[2]
        info["iowait_pct"] = round(100.0 * (after[0] - jiffies[0]) / total, 2)
        info["steal_pct"] = round(100.0 * (after[1] - jiffies[1]) / total, 2)
    info["commit"] = source_digest()
    info["build_dir"] = bindir
    if args.trace:
        info["spans_file"] = spans
    print(json.dumps({"ledger": info}, sort_keys=True))
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
