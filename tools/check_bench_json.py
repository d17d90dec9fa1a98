#!/usr/bin/env python3
"""Schema checker for the JSON-lines output of the tlrwse benchmarks.

Each bench prints one JSON object per line: a header line carrying a
"bench" key that names the schema, followed by one or more data lines.
CI pipes the saved output of bench_mdc_throughput, bench_serve_throughput,
and bench_obs_overhead through this script so a silently reshaped or
NaN-poisoned result fails the job instead of landing in an artifact.

Usage: check_bench_json.py FILE [FILE...]
Exit status: 0 when every file validates, 1 otherwise (details on stderr).
Stdlib only.
"""

import json
import math
import sys

# bench name -> (required header keys, required data-line keys)
SCHEMAS = {
    "mdc_throughput": (
        {"bench", "nt", "num_freq", "ns", "nr", "kernel"},
        {"threads", "sec_per_apply_pair", "applies_per_sec", "speedup_vs_1"},
    ),
    "serve_throughput": (
        {"bench"},
        {
            "clients",
            "completed",
            "rejected",
            "wall_s",
            "requests_per_sec",
            "batches",
            "coalesced_requests",
            "cache_hit_rate",
            "latency_p50_s",
            "latency_p95_s",
            "latency_p99_s",
            "latency_mean_s",
            "queue_wait_p95_s",
        },
    ),
    "cluster_throughput": (
        {"bench", "nt", "num_freq", "ns", "nr", "clients", "mode"},
        {
            "workers",
            "completed",
            "failed",
            "wall_s",
            "requests_per_sec",
            "speedup_vs_1",
        },
    ),
    "obs_overhead": (
        {"bench", "nt", "num_freq", "ns", "nr", "reps", "trials"},
        {
            "min_baseline_s",
            "min_traced_s",
            "overhead_pct",
            "detail_overhead_pct",
            "events_recorded",
            "pass_lt_2pct",
            "min_sim_baseline_s",
            "min_sim_recorded_s",
            "sim_overhead_pct",
            "sim_chunks",
            "sim_pass_lt_2pct",
            "costmodel_overhead_pct",
            "min_request_s",
            "request_overhead_pct",
            "request_pass_lt_2pct",
        },
    ),
    "kernels": (
        {"bench", "simd_level", "peak_gflops"},
        {
            "row",
            "m",
            "n",
            "nrhs",
            "gflops",
            "pct_of_peak",
            "speedup",
            "speedup_8rhs",
        },
    ),
    "ablation_precision": (
        {"bench", "nt", "num_freq", "ns", "nr", "nb", "acc"},
        {
            "row",
            "saving",
            "stored_mb",
            "fp32_mb",
            "tiles_fp32",
            "tiles_fp16",
            "tiles_bf16",
            "nmse",
        },
    ),
    "table3_bandwidth": (
        {"bench"},
        {
            "row",
            "nb",
            "acc",
            "stack_width",
            "systems",
            "relative_pbs",
            "absolute_pbs",
            "pflops",
        },
    ),
    "oocache": (
        {"bench", "nt", "num_freq", "ns", "nr", "payload_mb", "pairs", "nrhs"},
        {
            "budget",
            "budget_mb",
            "shards",
            "window_mb",
            "applies_per_sec",
            "no_prefetch_applies_per_sec",
            "pct_of_resident",
            "prefetch_speedup",
            "hits",
            "misses",
            "loads",
            "evictions",
            "bytes_streamed_mb",
            "stall_s",
            "bitwise",
        },
    ),
    "shared_basis": (
        {"bench", "simd_level", "m", "n", "nb", "num_freq", "acc"},
        {
            "row",
            "band_width",
            "shared_mb",
            "per_freq_mb",
            "storage_ratio",
            "max_rel_err",
            "per_freq_rel_err",
            "shared_apply_s",
            "per_freq_apply_s",
            "throughput_ratio",
        },
    ),
}

# Extra keys required on specific rows (matched by their "row" value).
ROW_EXTRA_KEYS = {
    ("table3_bandwidth", "headline48"): {
        "rel_err_pct",
        "abs_err_pct",
        "within_1pct",
    },
}


def check_meta(path, lineno, header):
    """Validates the v2 header metadata when schema_version is present."""
    ok = True
    version = header.get("schema_version")
    if version is None:
        return ok  # v1 headers carry no metadata
    if not isinstance(version, int) or isinstance(version, bool):
        return fail(path, lineno, f"schema_version must be an int, got {version!r}")
    if version < 2:
        return fail(path, lineno, f"schema_version must be >= 2, got {version}")
    meta = header.get("meta")
    if not isinstance(meta, dict):
        return fail(path, lineno, "schema_version 2 header requires a 'meta' object")
    for key, want in (("git_sha", str), ("compiler", str), ("threads", int)):
        value = meta.get(key)
        if not isinstance(value, want) or isinstance(value, bool):
            ok = fail(
                path,
                lineno,
                f"meta.{key} must be {want.__name__}, got {value!r}",
            )
    return ok


def fail(path, lineno, msg):
    print(f"{path}:{lineno}: {msg}", file=sys.stderr)
    return False


def check_numbers_finite(path, lineno, obj):
    ok = True
    for key, value in obj.items():
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)) and not math.isfinite(value):
            ok = fail(path, lineno, f"non-finite value for {key!r}: {value}")
    return ok


def check_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh]
    except OSError as exc:
        return fail(path, 0, f"cannot read: {exc}")
    lines = [(i + 1, ln) for i, ln in enumerate(lines) if ln]
    if not lines:
        return fail(path, 0, "empty file")

    objs = []
    ok = True
    for lineno, line in lines:
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            ok = fail(path, lineno, f"invalid JSON: {exc}")
            continue
        if not isinstance(obj, dict):
            ok = fail(path, lineno, "line is not a JSON object")
            continue
        objs.append((lineno, obj))
    if not ok or not objs:
        return False

    head_line, header = objs[0]
    bench = header.get("bench")
    if bench not in SCHEMAS:
        return fail(
            path,
            head_line,
            f"header line must carry a known 'bench' key, got {bench!r} "
            f"(known: {sorted(SCHEMAS)})",
        )
    header_keys, data_keys = SCHEMAS[bench]

    missing = header_keys - header.keys()
    if missing:
        ok = fail(path, head_line, f"header missing keys: {sorted(missing)}")
    ok = check_numbers_finite(path, head_line, header) and ok
    ok = check_meta(path, head_line, header) and ok

    data = objs[1:]
    if not data:
        ok = fail(path, head_line, "no data lines after the header")
    for lineno, obj in data:
        missing = data_keys - obj.keys()
        extra = ROW_EXTRA_KEYS.get((bench, obj.get("row")))
        if extra:
            missing |= extra - obj.keys()
        if missing:
            ok = fail(path, lineno, f"data line missing keys: {sorted(missing)}")
        ok = check_numbers_finite(path, lineno, obj) and ok

    if ok:
        print(f"{path}: ok ({bench}, {len(data)} data line(s))")
    return ok


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    ok = True
    for path in argv[1:]:
        ok = check_file(path) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
