#!/usr/bin/env python3
"""Diff a gate JSON's metrics and invariants against a committed baseline.

Usage: diff_baseline.py LABEL CURRENT.json BASELINE.json

Only metric keys present in the baseline are compared — that is the contract
that lets nondeterministic metrics (wall-clock latency, pps) ride in the
same JSON as the deterministic counters: baselines simply omit them.
New metrics absent from the baseline are noted, never failed, so adding
instrumentation does not break CI. Exit 1 on any drift in a baselined
metric.

Invariants: every record in the baseline's `invariants` array must be in
the current run with the same `expected`, `actual` and `pass`, so a
change that silently drops or weakens a gate fails here. The live
baselines commit `"invariants": []` (their records carry wall-clock
text) and are compared on metrics alone. Every drifted metric and every
drifted invariant record is printed before the exit.

Shared by the scenario matrix and the live-smoke job in
.github/workflows/ci.yml; edit the comparison logic here, in one place.
"""

import json
import sys


def main() -> int:
    if len(sys.argv) != 4:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    label, cur_path, base_path = sys.argv[1:4]
    with open(cur_path) as f:
        cur = json.load(f)
    with open(base_path) as f:
        base = json.load(f)
    bad = []
    for k, v in base["metrics"].items():
        got = cur["metrics"].get(k)
        if got != v:
            bad.append(f"{k}: baseline {v} -> current {got}")
    missing = [k for k in cur["metrics"] if k not in base["metrics"]]
    if missing:
        print("note: new metrics not in baseline:", ", ".join(missing))
    if bad:
        print(f"{label}: metric regressions vs {base_path}:")
        print("\n".join("  " + b for b in bad))
    # A name may repeat (one record per relay): match k-th to k-th.
    current = {}
    for inv in cur.get("invariants", []):
        current.setdefault(inv["name"], []).append(inv)
    drifted = []
    for want in base.get("invariants", []):
        same_name = current.get(want["name"], [])
        got = same_name.pop(0) if same_name else None
        if got != want:
            drifted.append((want, got))
    if drifted:
        print(f"{label}: {len(drifted)} invariant record(s) drifted vs {base_path}:")
        for want, got in drifted:
            print(f"  baseline: {json.dumps(want)}")
            print(f"  current:  {json.dumps(got) if got else 'missing'}")
    if bad or drifted:
        return 1
    print(
        f"{label}: {len(base['metrics'])} metrics and "
        f"{len(base.get('invariants', []))} invariants match the baseline"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
