#!/usr/bin/env python3
"""Fail if a baseline the CI workflow diffs against is not committed.

Usage: preflight_baselines.py  (run from the repository root)

`results/` is gitignored, so a baseline exists in the tree only if it
was force-added; one that was generated locally and never added makes
`diff_baseline.py` die with FileNotFoundError an hour into the run.
This reads `.github/workflows/ci.yml`, collects every
`results/ci_baseline_*.json` it names — the scenario matrix's templated
name is expanded with each `scenario:` value — and checks each against
`git ls-files`. Exit 1 listing the missing ones.
"""

import re
import subprocess
import sys

WORKFLOW = ".github/workflows/ci.yml"


def main() -> int:
    with open(WORKFLOW) as f:
        text = f.read()
    scenarios = re.findall(r"^\s*- scenario:\s*(\S+)", text, flags=re.M)
    named = set()
    for name in re.findall(r"results/ci_baseline_(.+?)\.json", text):
        if "matrix.scenario" in name:
            named.update(scenarios)
        else:
            named.add(name)
    tracked = set(
        subprocess.run(
            ["git", "ls-files", "results"], check=True, capture_output=True, text=True
        ).stdout.split()
    )
    missing = sorted(
        f"results/ci_baseline_{n}.json"
        for n in named
        if f"results/ci_baseline_{n}.json" not in tracked
    )
    if missing:
        print(f"{WORKFLOW} diffs against baselines that are not committed:")
        print("\n".join("  " + m for m in missing))
        print("generate them, then `git add -f` (results/ is gitignored)")
        return 1
    print(f"all {len(named)} baselines named by {WORKFLOW} are committed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
