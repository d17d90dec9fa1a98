#!/usr/bin/env python3
"""Solve benchmark: resident LSQR, streamed LSQR and coalesced adjoints.

Run from the repository root:

  python3 perfbench/run.py --workload lsqr-resident --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --steadiness --runs 10 --sets 2  # spread vs bounds

One run builds perfbench (CMake, into .bench_build/cmake), prepares the
seed-independent survey inputs once per build of the program
(.bench_build/data, keyed on a hash of the perfbench binary, which links
the whole library), runs the workload's measured process and prints, as
the last stdout line, one JSON object with keys
correct/attempted/failed/metrics. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of the traced run
(plus the host STREAM-triad bound, measured in the same run). See
perfbench/NOTES.md for what each workload and metric is for.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BUILD_DIR = os.path.join(".bench_build", "cmake")
DATA_DIR = os.path.join(".bench_build", "data")
WORK_DIR = os.path.join(".bench_build", "run")
BINARY = os.path.join(BUILD_DIR, "perfbench")
HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ["lsqr-resident", "lsqr-streamed", "adjoint-cluster"]
THREADS = 4  # compute threads of every workload, all processes together

END_TO_END = [
    ("solves_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("nmse_vs_truth", "ratio"),
]
PER_LAYER = [
    ("io.load_s", "s"), ("io.load_bytes", "bytes"), ("io.load_gbps", "GB/s"),
    ("oocache.acquire_wait_s", "s"), ("oocache.shard_loads", "count"),
    ("oocache.hit_ratio", "ratio"), ("oocache.bytes_per_sweep", "bytes"),
    ("tlr.mvm_calls", "count"), ("tlr.mvm_busy_s", "s"),
    ("tlr.mvm_bytes", "bytes"),
    ("mdc.applies", "count"), ("mdc.apply_s", "s"), ("mdc.apply_self_s", "s"),
    ("mdc.apply_gbps", "GB/s"), ("mdc.apply_pct_triad", "%"),
    ("mdd.iterations", "count"), ("mdd.lsqr_self_s", "s"),
    ("serve.queue_wait_s", "s"), ("serve.solve_s", "s"),
    ("serve.overhead_s", "s"), ("serve.batch_size", "count"),
    ("serve.cache_hit_ratio", "ratio"), ("serve.rejected", "count"),
    ("cluster.rpc_calls", "count"), ("cluster.rpc_s", "s"),
    ("cluster.wire_bytes", "bytes"), ("cluster.wire_gbps", "GB/s"),
    ("cluster.frontend_self_s", "s"), ("cluster.rhs_per_sweep", "count"),
    ("cluster.retries", "count"),
    ("host.triad_gbps", "GB/s"),
    ("trace.solves_per_s", "1/s"), ("trace.untraced_solves_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_child(cmd, timeout, capture=False):
    """Runs a child to completion (killed on timeout); returns (code, out)."""
    proc = subprocess.Popen(cmd, text=True,
                            stdout=subprocess.PIPE if capture else sys.stderr,
                            stderr=sys.stderr)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("%s timed out after %d s" % (" ".join(cmd[:2]), timeout))
    return proc.returncode, out


def run_checked(cmd, timeout, capture=False):
    code, out = run_child(cmd, timeout, capture)
    if code != 0:
        raise RuntimeError("%s exited with %d" % (" ".join(cmd[:2]), code))
    return out


def build():
    src = os.path.relpath(HERE)
    if not os.path.isdir(os.path.join(src, "..", "src")):
        raise RuntimeError("library sources (src/) not found beside " + src)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_checked(["cmake", "-S", src, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    run_checked(["cmake", "--build", BUILD_DIR, "-j", str(THREADS)], timeout=840)


def prepare():
    """Writes the survey inputs and references once per build: the key file
    holds the hash of the binary that wrote them, so any change to the
    program (compression, precision, arithmetic order, archive format)
    prepares them again."""
    h = hashlib.sha256()
    with open(BINARY, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    key = h.hexdigest()
    key_path = os.path.join(DATA_DIR, "key.txt")
    if os.path.exists(key_path):
        with open(key_path) as f:
            if f.read() == key:
                return
    shutil.rmtree(DATA_DIR, ignore_errors=True)
    run_checked([BINARY, "prep", "--dir", DATA_DIR], timeout=600)
    with open(key_path, "w") as f:
        f.write(key)


def triad():
    out = run_checked([BINARY, "triad", "--threads", str(THREADS)],
                      timeout=120, capture=True)
    t = json.loads(out.strip().splitlines()[-1])
    log("host: STREAM triad %.2f GB/s on %d threads, arrays %.0f MiB each "
        "(%.0f MiB total) vs LLC %.0f MiB%s" % (
            t["triad_gbps"], t["threads"], t["array_mib"], t["total_mib"],
            t["llc_mib"], "" if t["at_least_4x_llc"] else
            " (capped below 4x LLC)"))
    return t["triad_gbps"]


def run_workload(workload, seed, seconds, trace):
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [BINARY, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--dir", DATA_DIR, "--work-dir", WORK_DIR]
    code, out = run_child(cmd, timeout=170, capture=True)
    lines = (out or "").strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError("%s run exited with %d and no result" % (workload, code))
    return json.loads(lines[-1])


def report(workload, seed, seconds, trace):
    build()
    prepare()
    host = triad() if trace else None
    res = run_workload(workload, seed, seconds, trace)
    info, raw = res["info"], res["metrics"]
    if trace:
        raw["host.triad_gbps"] = host
        raw["mdc.apply_pct_triad"] = 100.0 * raw["mdc.apply_gbps"] / host
    names = PER_LAYER if trace else END_TO_END
    log("%s seed %d (%s run): sent %d, ok %d, failed %d (rejected %d, errors %d, "
        "bitwise mismatches %d)" % (
            workload, seed, "traced" if trace else "untraced", info["sent"],
            info["ok"], res["failed"], info["rejected"], info["errors"],
            info["mismatches"]))
    if not trace:
        log("  latency samples %d, set-up samples %d, timed phase %.2f s" % (
            info["latency_samples"], info["setup_samples"], info["timed_wall_s"]))
    else:
        log("  trace written to %s" % info["trace_json"])
    for name, unit in names:
        log("  %-28s %14.6g %s" % (name, raw[name], unit))
    result = {
        "correct": bool(res["correct"]) and info["mismatches"] == 0,
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {n: {"value": raw[n], "unit": u} for n, u in names},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] and result["failed"] == 0 else 2


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def steadiness(runs, sets, first_seed, seconds, workloads):
    """Repeats each workload over `sets` sets of `runs` seeds each. Prints,
    per end-to-end metric and set, median, quartiles and (q3 - q1) / median
    beside the bound, and how much worse each later set's median is than
    the first's, as a share of the first."""
    bench = os.path.join(HERE, "..", "BENCHMARK.json")
    with open(bench) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = seconds or spec["run_seconds"]
    worst = {}  # metric -> largest (spread or drift) / bound
    for wl in workloads:
        medians = []
        for st in range(sets):
            values = {n: [] for n, _ in END_TO_END}
            for i in range(runs):
                seed = first_seed + st * runs + i
                t0 = time.time()
                res = run_workload(wl, seed, seconds, 0)
                if not res["correct"] or res["failed"]:
                    raise RuntimeError("%s seed %d failed" % (wl, seed))
                for n in values:
                    values[n].append(res["metrics"][n])
                log("%s seed %d: %s (%.1f s)" % (wl, seed, " ".join(
                    "%s=%.5g" % (n, res["metrics"][n]) for n in values),
                    time.time() - t0))
            print("%s set %d (%d runs, seeds %d-%d)" % (
                wl, st + 1, runs, first_seed + st * runs,
                first_seed + st * runs + runs - 1))
            meds = {}
            for n, unit in END_TO_END:
                q1, med, q3, spread = quartiles(values[n])
                meds[n] = med
                r = spread / bounds[n]
                worst[n] = max(worst.get(n, 0.0), r)
                print("  %-14s median %12.6g %-5s q1 %12.6g q3 %12.6g "
                      "spread %6.2f%% bound %5.1f%% %s" % (
                          n, med, unit, q1, q3, 100 * spread, 100 * bounds[n],
                          "ok" if r < 1 / 3 else "WITHIN" if r <= 1 else
                          "OVER" + (" (not bounded)" if n == "setup_s" else "")),
                      flush=True)
            medians.append(meds)
        for st in range(1, sets):
            print("%s set %d vs set 1: median worse by" % (wl, st + 1))
            for n, _ in END_TO_END:
                a, b = medians[0][n], medians[st][n]
                worse = (a - b if better[n] == "higher" else b - a) / a
                r = worse / bounds[n]
                worst[n] = max(worst.get(n, 0.0), r)
                print("  %-14s %+7.2f%% (bound %5.1f%%) %s" % (
                    n, 100 * worse, 100 * bounds[n],
                    "ok" if r <= 1 else "OVER"), flush=True)
    print("worst of spread / bound and median drift / bound, per metric "
          "(spread of setup_s is not bounded):")
    for n, _ in END_TO_END:
        print("  %-14s %.2f" % (n, worst[n]))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steadiness", action="store_true")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    args = ap.parse_args()
    try:
        if args.steadiness:
            build()
            prepare()
            return steadiness(args.runs, args.sets, args.seed, args.seconds,
                              args.workloads.split(","))
        if args.workload is None:
            ap.error("--workload is required")
        return report(args.workload, args.seed, args.seconds or 20, args.trace)
    except (RuntimeError, OSError, ValueError, KeyError) as e:
        log("run.py: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
