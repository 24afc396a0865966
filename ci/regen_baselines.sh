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
# gitignored). `metro` and `planet` are also held at full scale in CI, so
# for them the full-scale run (`metro_full`, `planet_full`) replaces
# results/full_baseline_<s>.json the same way; planet's takes about a
# minute. A scenario whose gate fails is left alone and the script exits
# 1: a baseline records a passing run, never a verdict that moved.
#
# The `*_delivery_digest` metrics hash every payload the scenario's worlds
# delivered, so a moved node seed shows up here like any other metric.
#
# The five examples' stdout is seeded too, and CI diffs it against
# `ci/examples/<name>.txt`. This script does not rewrite those; after an
# intended change to what an example prints, from the repo root:
#
#   for e in quickstart mixed_deployment cdn_load_balancing deep_space ddns_home_server; do
#     cargo run --quiet --release --example "$e" > "ci/examples/$e.txt"
#   done
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

# regen LABEL BASELINE ARGS…: runs `exp_scenario ARGS --check`, prints what
# moved against BASELINE, then replaces and adds it.
regen() {
    local label="$1" base="$2"
    shift 2
    local cur="results/ci_$label.json"
    if ! "$bin" "$@" --check --json "$cur" >/dev/null; then
        echo "$label: gate failed — baseline left as committed" >&2
        status=1
        return
    fi
    python3 - "$label" "$cur" "$base" <<'PY'
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
}

for s in "${scenarios[@]}"; do
    regen "$s" "results/ci_baseline_$s.json" "$s" --smoke
    case "$s" in
    metro | planet) regen "${s}_full" "results/full_baseline_$s.json" "$s" ;;
    esac
done

exit $status
