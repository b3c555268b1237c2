#!/usr/bin/env python3
"""Compare google-benchmark JSON dumps from bench/perf_throughput.

Two modes:

  compare — diff a baseline against a current run and fail on
  regression beyond a threshold:

      bench_check.py compare BASELINE.json CURRENT.json \
          [--threshold 0.15] [--filter REGEX] [--report-only] \
          [--allow-invalid]

  speedup — assert one series is at least a given multiple of another
  within a single dump (the SIMD-vs-scalar gate):

      bench_check.py speedup BENCH.json \
          --base 'BM_IsaBatchedIngest/mh4/scalar' \
          --test 'BM_IsaBatchedIngest/mh4/avx512' \
          [--min-speedup 2.5] [--allow-invalid]

  --test is repeatable: the gate passes when any series that is present
  meets the bar, and auto-skips when none are registered (the host CPU
  supports no SIMD tier).

All modes read `items_per_second` (falling back to inverse cpu_time)
and prefer `_median` aggregate rows when the run used repetitions, so
one noisy repetition cannot flip a verdict. Dumps whose context says
`mhp_build_type != "release"` or `invalid: true` are rejected unless
--allow-invalid is given: debug-build numbers are not baselines (see
docs/PERF.md). A context whose `invalid` flag is a *string* (the
pre-boolean emitter) is rejected outright — regenerate the dump with
the current perf_throughput, which writes a real JSON bool.

Exit codes: 0 pass (or skip), 1 perf verdict failed, 2 usage/input
error.
"""

import argparse
import json
import re
import sys


def fail(msg):
    print("bench_check: error: %s" % msg, file=sys.stderr)
    sys.exit(2)


def load(path, allow_invalid):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))
    ctx = doc.get("context", {})
    build = str(ctx.get("mhp_build_type", "unknown"))
    raw_invalid = ctx.get("invalid", False)
    if isinstance(raw_invalid, str):
        # The stringly-typed emitter ("invalid": "false") predates the
        # boolean one, and the string "false" is truthy to a naive
        # consumer. Never trust such a dump, whatever it says.
        fail(
            '%s carries a stringly-typed "invalid" flag (%r); '
            "regenerate it with the current perf_throughput, which "
            "emits a real JSON bool" % (path, raw_invalid)
        )
    invalid = bool(raw_invalid)
    if (build != "release" or invalid) and not allow_invalid:
        fail(
            "%s is not a valid baseline (mhp_build_type=%s, invalid=%s);"
            " regenerate from a Release build or pass --allow-invalid"
            % (path, build, invalid)
        )
    return doc


def series(doc):
    """name -> items_per_second, preferring median aggregates.

    A repeated run emits per-repetition rows plus `_mean`/`_median`/
    `_stddev`/`_cv` aggregates. When a `<name>_median` row exists it
    wins; otherwise the mean of the plain rows is used.
    """
    plain = {}
    medians = {}
    for row in doc.get("benchmarks", []):
        name = row.get("name", "")
        if row.get("run_type") == "aggregate":
            if row.get("aggregate_name") != "median":
                continue
            base = name[: -len("_median")] if name.endswith("_median") else name
            medians[base] = throughput(row)
            continue
        plain.setdefault(name, []).append(throughput(row))
    out = {n: v for n, v in medians.items() if v is not None}
    for name, vals in plain.items():
        vals = [v for v in vals if v is not None]
        if name not in out and vals:
            out[name] = sum(vals) / len(vals)
    return out


def throughput(row):
    v = row.get("items_per_second")
    if v is not None:
        return float(v)
    cpu = row.get("cpu_time")
    if cpu:
        return 1e9 / float(cpu)  # cpu_time is in ns by default
    return None


def cmd_compare(args):
    base = series(load(args.baseline, args.allow_invalid))
    cur = series(load(args.current, args.allow_invalid))
    pat = re.compile(args.filter) if args.filter else None
    names = sorted(n for n in base if n in cur and (not pat or pat.search(n)))
    if not names:
        fail("no common series between %s and %s" % (args.baseline, args.current))

    regressions = []
    print("%-48s %12s %12s  %s" % ("series", "baseline", "current", "delta"))
    for name in names:
        b, c = base[name], cur[name]
        delta = (c - b) / b if b else 0.0
        mark = ""
        if delta < -args.threshold:
            regressions.append((name, delta))
            mark = "  << REGRESSION"
        print("%-48s %12.4g %12.4g %+6.1f%%%s" % (name, b, c, delta * 100, mark))

    skipped = sorted(set(base) - set(cur))
    if skipped:
        print("not in current run (skipped): %s" % ", ".join(skipped))

    if regressions:
        print(
            "bench_check: %d series regressed more than %.0f%%"
            % (len(regressions), args.threshold * 100),
            file=sys.stderr,
        )
        if args.report_only:
            print("bench_check: --report-only: not failing", file=sys.stderr)
            return 0
        return 1
    print("bench_check: no regression beyond %.0f%%" % (args.threshold * 100))
    return 0


def cmd_speedup(args):
    data = series(load(args.bench, args.allow_invalid))
    if args.base not in data:
        fail("base series %r not found in %s" % (args.base, args.bench))
    present = [t for t in args.test if t in data]
    absent = [t for t in args.test if t not in data]
    for t in absent:
        # A SIMD tier is registered only where the CPU supports it; its
        # absence means "unsupported here", not a failure.
        print("bench_check: test series %r absent (ISA unsupported on"
              " this host)" % t)
    if not present:
        print("bench_check: no test series present — skipping speedup"
              " gate")
        return 0
    best = 0.0
    for t in present:
        ratio = data[t] / data[args.base]
        best = max(best, ratio)
        print(
            "bench_check: %s = %.4g items/s, %s = %.4g items/s,"
            " speedup %.3fx"
            % (args.base, data[args.base], t, data[t], ratio)
        )
    verdict = "PASS" if best >= args.min_speedup else "FAIL"
    print(
        "bench_check: best speedup %.3fx (required >= %.2fx on at least"
        " one tier): %s" % (best, args.min_speedup, verdict)
    )
    return 0 if verdict == "PASS" else 1


def main(argv):
    ap = argparse.ArgumentParser(prog="bench_check.py", description=__doc__)
    sub = ap.add_subparsers(dest="mode", required=True)

    c = sub.add_parser("compare", help="diff two dumps, fail on regression")
    c.add_argument("baseline")
    c.add_argument("current")
    c.add_argument("--threshold", type=float, default=0.15,
                   help="max tolerated fractional drop (default 0.15)")
    c.add_argument("--filter", help="only check series matching this regex")
    c.add_argument("--report-only", action="store_true",
                   help="print the diff but always exit 0")
    c.add_argument("--allow-invalid", action="store_true",
                   help="accept non-release / invalid-tagged dumps")
    c.set_defaults(func=cmd_compare)

    s = sub.add_parser("speedup", help="assert test >= min-speedup x base")
    s.add_argument("bench")
    s.add_argument("--base", required=True)
    s.add_argument("--test", required=True, action="append",
                   help="candidate series; repeatable — the gate passes"
                        " if any present series meets --min-speedup")
    s.add_argument("--min-speedup", type=float, default=2.5)
    s.add_argument("--allow-invalid", action="store_true")
    s.set_defaults(func=cmd_speedup)

    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
