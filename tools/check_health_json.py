#!/usr/bin/env python3
"""Validate a fleet-health file from `tlrwse_cli cluster --health-out`.

Checks what ClusterService::fleet_health_json promises after a run on a
healthy two-worker fleet:

  * live_workers equals --workers (default 2);
  * every worker is alive, owns at least one shard and reports
    resident_bytes > 0;
  * no worker carries the retired stall_s / streamed_bytes fields.

Exit code 0 when every check passes, 1 with a message per failure.

Usage: check_health_json.py HEALTH.json [--workers 2]
"""

import argparse
import json
import sys

RETIRED_KEYS = ("stall_s", "streamed_bytes")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("health", help="fleet health JSON file")
    ap.add_argument("--workers", type=int, default=2,
                    help="live workers expected (default 2)")
    args = ap.parse_args()

    with open(args.health, "r", encoding="utf-8") as fh:
        doc = json.load(fh)

    failures = []

    def check(ok, message):
        if not ok:
            failures.append(message)

    check(doc.get("live_workers") == args.workers,
          f"live_workers {doc.get('live_workers')!r} != {args.workers}")
    workers = doc.get("workers", [])
    check(len(workers) == args.workers,
          f"{len(workers)} workers listed, expected {args.workers}")
    for w in workers:
        name = w.get("name", "?")
        check(w.get("alive") is True, f"worker {name} is not alive")
        check(len(w.get("shards", [])) >= 1, f"worker {name} owns no shard")
        check(w.get("resident_bytes", 0) > 0,
              f"worker {name} resident_bytes {w.get('resident_bytes')!r}")
        for key in RETIRED_KEYS:
            check(key not in w, f"worker {name} still reports {key!r}")

    for f in failures:
        print(f"check_health_json: FAIL: {f}")
    if failures:
        return 1
    print(f"check_health_json: OK ({len(workers)} live workers)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
