#!/usr/bin/env bash
# Regenerates committed scenario baselines after an *intended* change to
# the seeded event history:
#
#   ci/regen_baselines.sh                  all ten scenarios
#   ci/regen_baselines.sh chain ddns       only the named ones
#
# For each scenario: runs `exp_scenario <s> --smoke --check` from the repo
# root, prints every metric and invariant record that moved as
# `scenario key old → new`, copies results/ci_<s>.json over
# results/ci_baseline_<s>.json and `git add -f`s it (results/ is
# gitignored). A scenario whose gate fails is left alone and the script
# exits 1: a baseline records a passing run, never a verdict that moved.
#
# The gate JSON is counts only, so the seeded event history is pinned a
# second time by the delivery digests in
# crates/bench/tests/baselines_replay.rs. Last, the script runs that test
# and prints the seven digests as the `pinned` array to paste over the
# one in the test (and says whether they moved).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

all=(tree mesh ddns federation chain relay_fanout metro adversarial planet chaos)
if [ $# -gt 0 ]; then
    scenarios=("$@")
else
    scenarios=("${all[@]}")
fi

cargo build --quiet --release -p moqdns-bench --bin exp_scenario
bin="${CARGO_TARGET_DIR:-$root/target}/release/exp_scenario"

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

echo
if out="$(cargo test --quiet --release -p moqdns-bench --test baselines_replay \
    seeded_event_histories_are_pinned -- --nocapture 2>&1)"; then
    echo "delivery digests unchanged"
else
    echo "delivery digests moved — paste over \`pinned\` in crates/bench/tests/baselines_replay.rs:"
    # No block means the test died before computing them: show why.
    grep -q 'let pinned' <<<"$out" || { echo "$out" >&2; status=1; }
fi
sed -n '/let pinned/,/];/p' <<<"$out"
exit $status
