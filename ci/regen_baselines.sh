#!/usr/bin/env bash
# Regenerates committed scenario baselines after an *intended* change to
# the seeded event history:
#
#   ci/regen_baselines.sh                  every scenario
#   ci/regen_baselines.sh chain ddns       only the named ones
#
# For each scenario: runs `exp_scenario <s> --smoke --check` from the repo
# root, prints every metric and invariant record that moved as
# `scenario key old → new`, copies results/ci_<s>.json over
# results/ci_baseline_<s>.json and `git add -f`s it (results/ is
# gitignored). A scenario whose gate fails is left alone and the script
# exits 1: a baseline records a passing run, never a verdict that moved.
#
# The `*_delivery_digest` metrics hash every payload the scenario's worlds
# delivered, so a moved node seed shows up here like any other metric.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

cargo build --quiet --release -p moqdns-bench --bin exp_scenario
bin="${CARGO_TARGET_DIR:-$root/target}/release/exp_scenario"

if [ $# -gt 0 ]; then
    scenarios=("$@")
else
    # The binary's own usage line is the list (it exits 2 printing it).
    read -r -a scenarios < <("$bin" 2>&1 | sed -n 's/^scenarios: //p')
fi

status=0
for s in "${scenarios[@]}"; do
    cur="results/ci_$s.json"
    base="results/ci_baseline_$s.json"
    if ! "$bin" "$s" --smoke --check >/dev/null; then
        echo "$s: gate failed — baseline left as committed" >&2
        status=1
        continue
    fi
    python3 - "$s" "$cur" "$base" <<'PY'
import json, os, sys

s, cur_path, base_path = sys.argv[1:4]
cur = json.load(open(cur_path))
base = json.load(open(base_path)) if os.path.exists(base_path) else {}


def rows(doc):
    out = dict(doc.get("metrics", {}))
    seen = {}
    for inv in doc.get("invariants", []):
        # A name may repeat (one record per relay): k-th matches k-th.
        k = seen[inv["name"]] = seen.get(inv["name"], 0) + 1
        key = inv["name"] if k == 1 else f"{inv['name']}#{k}"
        out[f"invariant {key}"] = (inv["expected"], inv["actual"], inv["pass"])
    out["pass"] = doc.get("pass")
    return out


old, new = rows(base), rows(cur)
moved = [k for k in list(old) + [k for k in new if k not in old] if old.get(k) != new.get(k)]
for k in moved:
    print(f"{s} {k} {old.get(k)} → {new.get(k)}")
if not moved:
    print(f"{s} unchanged")
PY
    cp "$cur" "$base"
    git add -f "$base"
done

exit $status
