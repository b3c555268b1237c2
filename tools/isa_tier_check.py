#!/usr/bin/env python3
"""ISA tier check: avx512 must never be slower than the scalar tier.

    python3 tools/isa_tier_check.py <build-tools-dir>

Runs PAIRS pairs of a scored single-threaded mhprof_run over the
scored_1m input (16M gcc events), one --isa=avx512 and one
--isa=scalar, alternating which runs first. Exits 1 if a pair's .mhp
files differ or avx512's median child CPU time (user+sys, os.wait4)
exceeds scalar's: wall time swings ~10% between identical runs on a
shared machine, CPU time does not. Exits 0 with a skip line on a CPU
without avx512.
"""

import filecmp
import os
import statistics
import subprocess
import sys
import tempfile

PAIRS = 20
EVENTS = 16000000
ORDERS = (("avx512", "scalar"), ("scalar", "avx512"))


def cpu_seconds(argv, env):
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.exit("isa_tier_check: %s exited %d" % (argv[0], proc.returncode))
    return usage.ru_utime + usage.ru_stime


def check(tools, tmp):
    # MHP_FORCE_ISA and the other MHP_* knobs must not steer the runs.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MHP_")}
    run = os.path.join(tools, "mhprof_run")
    if subprocess.run([run, "--isa=avx512", "--benchmark=gcc",
                       "--intervals=0", "--out=%s/probe.mhp" % tmp],
                      env=env, capture_output=True).returncode == 2:
        print("skip: avx512 unsupported on this CPU")
        return 0
    trace = tmp + "/gcc.mht"
    cpu_seconds([os.path.join(tools, "mhprof_trace"), "--benchmark=gcc",
                 "--events=%d" % EVENTS, "--out=" + trace], env)

    def scored(isa):
        return cpu_seconds([run, "--trace=" + trace, "--isa=" + isa,
                            "--interval-length=1000000", "--threshold=0.1",
                            "--intervals=%d" % (EVENTS // 1000000),
                            "--threads=1", "--out=%s/%s.mhp" % (tmp, isa)],
                           env)

    scored("scalar")  # untimed: the first mapping of a fresh trace
    times = {"avx512": [], "scalar": []}
    wins = [0, 0]  # avx512 wins in pairs where it ran first, second
    for i in range(PAIRS):
        order = ORDERS[i % 2]
        for isa in order:
            times[isa].append(scored(isa))
        a, s = times["avx512"][-1], times["scalar"][-1]
        same = filecmp.cmp(tmp + "/avx512.mhp", tmp + "/scalar.mhp", False)
        print("pair %2d (%s first): avx512 %.3f s  scalar %.3f s  .mhp %s"
              % (i + 1, order[0], a, s, "identical" if same else "DIFFER"))
        if not same:
            print("FAIL: the two tiers wrote different .mhp files")
            return 1
        wins[i % 2] += a < s
    med_a, med_s = (statistics.median(times[t]) for t in ("avx512", "scalar"))
    print("avx512 won %d of %d pairs: %d/%d running first, %d/%d second"
          % (sum(wins), PAIRS, wins[0], (PAIRS + 1) // 2, wins[1], PAIRS // 2))
    print("median CPU s: avx512 %.3f  scalar %.3f  scalar/avx512 %.3f"
          % (med_a, med_s, med_s / med_a))
    if med_a > med_s:
        print("FAIL: avx512's median CPU time exceeds scalar's")
        return 1
    print("isa tier ok")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory(prefix="isa_tier_check.") as tmp:
        sys.exit(check(sys.argv[1], tmp))
