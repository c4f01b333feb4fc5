#!/usr/bin/env python3
"""Steadiness tool for htapbench.

Runs every workload N times with the command from BENCHMARK.json,
alternating the workloads, and prints per metric the median, the
quartiles and the spread (q3 - q1) / median next to the metric's bound.
It also checks what a single run cannot:

* every run exits 0 and reports ``correct: true``;
* the share of failed operations is the same in every run of a workload;
* ``htap_hetero`` and ``htap_homo`` print the same data digest for the
  same seed (the processing mode must not change a serial stream's data).

With ``--sets 2`` it makes two independent sets of runs (the second on
the next N seeds) and reports, for every workload and end-to-end metric,
by how much the second set's median is worse than the first's, next to
the bound.

With ``--trace`` each workload additionally runs traced on the same
seeds: the tool reports the tracing overhead (traced / untraced median of
the end-to-end metrics) and, with ``--same-seed``, which per-layer counts
differ between runs of one seed.

Run from the repository root:

    python3 htapbench/steady.py --runs 10 --sets 2
    python3 htapbench/steady.py --runs 3 --trace --same-seed

Exit code 0 when every check holds, every end-to-end spread is within its
bound, and no set's median is worse than the first set's by more than the
bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(int(trace))]
    t0 = time.monotonic()
    p = subprocess.run(argv, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = p.stdout.strip().splitlines()
    out = {"exit": p.returncode, "wall": wall, "digest": [], "e2e": {},
           "result": None, "stderr": p.stderr[-2000:]}
    for line in lines:
        if line.startswith("digest "):
            out["digest"].append(line)
        elif line.startswith("end_to_end "):
            out["e2e"] = {k: v["value"] for k, v in json.loads(line[11:]).items()}
    if lines:
        try:
            out["result"] = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return out


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: BENCHMARK.json's run_seconds)")
    ap.add_argument("--workloads", default=None,
                    help="comma-separated subset (default: all)")
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--same-seed", action="store_true",
                    help="use --seed-base for every run")
    ap.add_argument("--sets", type=int, default=1,
                    help="independent sets of --runs runs, compared by median")
    ap.add_argument("--trace", action="store_true",
                    help="also run traced, report overhead and count repeats")
    a = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    seconds = a.seconds or bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if a.workloads:
        names = [n for n in a.workloads.split(",") if n]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}

    ok = True
    runs = {(w, t): [] for w in names for t in ([False, True] if a.trace else [False])}
    for k in range(a.sets):
        for i in range(a.runs):
            seed = a.seed_base if a.same_seed else a.seed_base + k * a.runs + i
            for trace in ([False, True] if a.trace else [False]):
                for w in names:
                    r = run_once(command, w, seed, seconds, trace)
                    r["seed"], r["set"] = seed, k
                    runs[(w, trace)].append(r)
                    res = r["result"]
                    status = "ok"
                    if r["exit"] != 0 or not res or not res.get("correct"):
                        status = "FAILED (exit %d)" % r["exit"]
                        ok = False
                        sys.stderr.write(r["stderr"])
                    else:
                        want = set(layer_units if trace else units)
                        if set(res["metrics"]) != want:
                            status = "WRONG METRIC SET"
                            ok = False
                    print("set %d run %2d seed %2d %-13s trace=%d %6.1fs %s"
                          % (k, i, seed, w, trace, r["wall"], status), flush=True)

    for w in names:
        done = [r for r in runs[(w, False)] if r["result"]]
        if not done:
            continue
        shares = {(r["result"]["failed"], r["result"]["attempted"]) for r in done}
        print("\n%s: attempted/failed %s" % (w, sorted(shares)))
        if len({f / at for f, at in shares}) > 1:
            print("  FAILED-SHARE DIFFERS between runs")
            ok = False
        medians = []
        for k in range(a.sets):
            rs = [r for r in done if r["set"] == k]
            if not rs:
                continue
            print("  set %d: %d runs, wall per run median %.1fs"
                  % (k, len(rs), statistics.median(r["wall"] for r in rs)))
            print("  %-14s %12s %12s %12s %8s %6s" %
                  ("metric", "q1", "median", "q3", "spread", "bound"))
            medians.append({})
            for m in units:
                vals = [r["result"]["metrics"][m]["value"] for r in rs]
                q1, med, q3 = quartiles(vals)
                medians[-1][m] = med
                spread = (q3 - q1) / med if med else float("inf")
                flag = ""
                if spread > bounds[m]:
                    flag = "  OVER BOUND"
                    ok = False
                elif spread > bounds[m] / 3:
                    flag = "  over bound/3"
                if med == 0:
                    flag += "  ZERO"
                    ok = False
                print("  %-14s %12.4f %12.4f %12.4f %8.4f %6.2f%s"
                      % (m, q1, med, q3, spread, bounds[m], flag))
        # How much worse each later set's median is than the first's.
        for k, later in enumerate(medians[1:], start=1):
            print("  set %d vs set 0: median worse by (share of set 0's median)" % k)
            for m in units:
                m0, mk = medians[0][m], later[m]
                worse = (mk - m0) / m0 if better[m] == "lower" else (m0 - mk) / m0
                flag = ""
                if worse > bounds[m]:
                    flag = "  OVER BOUND"
                    ok = False
                print("  %-14s %12.4f %12.4f %+8.4f %6.2f%s"
                      % (m, m0, mk, worse, bounds[m], flag))

    # Same seed, two processing modes: the data must agree.
    if "htap_hetero" in names and "htap_homo" in names:
        by_seed = {}
        for w in ("htap_hetero", "htap_homo"):
            for r in runs[(w, False)]:
                by_seed.setdefault(r["seed"], {})[w] = r["digest"]
        for seed, d in sorted(by_seed.items()):
            if len(d) == 2:
                same = d["htap_hetero"] == d["htap_homo"] and d["htap_hetero"]
                print("digest seed %d: %s" % (seed, "hetero == homo" if same else "DIFFER"))
                ok = ok and bool(same)

    if a.trace:
        print("\ntracing overhead (traced median / untraced median - 1):")
        for w in names:
            plain = [r for r in runs[(w, False)] if r["e2e"]]
            traced = [r for r in runs[(w, True)] if r["e2e"]]
            if not plain or not traced:
                continue
            parts = []
            for m in ("txn_per_s", "oltp_p50_us", "oltp_p99_us", "olap_q1_ms", "olap_scan_ms"):
                p = statistics.median(r["e2e"][m] for r in plain)
                t = statistics.median(r["e2e"][m] for r in traced)
                parts.append("%s %+.1f%%" % (m, 100 * (t / p - 1)))
            print("  %-13s %s" % (w, ", ".join(parts)))
        if a.same_seed:
            print("\nper-layer counts across runs of seed %d:" % a.seed_base)
            for w in names:
                rs = [r for r in runs[(w, True)] if r["result"]]
                counts = [m for m, u in layer_units.items() if u == "count"]
                differ = [m for m in counts
                          if len({r["result"]["metrics"][m]["value"] for r in rs}) > 1]
                print("  %-13s %d counts, differing: %s"
                      % (w, len(counts), ", ".join(differ) or "none"))

    print("\nsteady: %s" % ("OK" if ok else "NOT OK"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
