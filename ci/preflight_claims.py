#!/usr/bin/env python3
"""Fail if a record a claim file names is missing from every committed baseline.

Usage: preflight_claims.py  (run from the repository root)

Each `docs/claims/*.md` names the gate records its claim rests on, as
backticked names in its `## Gate` section. A record is a metric key or an
invariant name of a committed `results/*.json` baseline; a renamed or
dropped record would leave the claim pointing at nothing. Backticked text
that is not a plain record name — a path, a scenario name, a call — is
skipped. Exit 1 listing each missing record with its file.
"""

import glob
import json
import re
import subprocess
import sys

NAME = re.compile(r"^[a-z][a-z0-9_]*$")


def gate_names(path):
    with open(path) as f:
        text = f.read()
    section = re.search(r"^## Gate\n(.*?)(?=^## |\Z)", text, flags=re.M | re.S)
    if not section:
        return None
    return [n for n in re.findall(r"`([^`]+)`", section.group(1)) if NAME.match(n)]


def committed_baselines():
    """The committed files under results/: what `git ls-files` lists, or,
    with no repository to ask (an export of a commit, `git archive`),
    every file there, since such a tree holds exactly the committed ones."""
    try:
        ls = subprocess.run(["git", "ls-files", "results"], capture_output=True, text=True)
    except OSError:
        ls = None
    if ls is not None and ls.returncode == 0:
        return ls.stdout.split()
    return sorted(glob.glob("results/*"))


def main() -> int:
    tracked = committed_baselines()
    records, scenarios = set(), set()
    for path in tracked:
        if not path.endswith(".json"):
            continue
        with open(path) as f:
            baseline = json.load(f)
        scenarios.add(baseline.get("scenario", ""))
        records.update(baseline.get("metrics", {}))
        records.update(i["name"] for i in baseline.get("invariants", []))
    failed = False
    claims = sorted(glob.glob("docs/claims/*.md"))
    for path in claims:
        names = gate_names(path)
        if names is None:
            print(f"{path}: no `## Gate` section")
            failed = True
            continue
        for name in names:
            if name not in records and name not in scenarios:
                print(f"{path}: `{name}` is in no committed baseline")
                failed = True
    if failed:
        return 1
    print(f"every record the {len(claims)} claim files name is in a committed baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
