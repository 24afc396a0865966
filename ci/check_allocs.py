#!/usr/bin/env python3
"""Hold the allocation-count line: fail when a count row reads higher.

Usage: check_allocs.py RESULT.json BASELINE.json [--write]

RESULT.json is the last stdout line of one traced benchmark run,

    benchmark/run.sh --workload live_fetch --quick --trace 1 | tail -n 1

BASELINE.json (ci/allocs_baseline.json) maps row name -> value for the
rows that count instead of time: every `_allocs` row and the
`quic.uni_streams_per_*` rows. They come from fixed rigs, not from the
workload, and all but one repeat exactly from run to run (benchmark/aa.py
checks that), so they can be held on a shared runner where no timing can.

The exception is `moqt.session_fetch_rt_allocs`: one tree reads 42.01 or
42.0125, one allocation in the 400 fetches of the counted chunk. A rig's
count is that of its first chunk, and the rigs run on the thread the live
workload has just run on, so the first chunk draws on thread-local pools
that the workload left in a state its timing decides. Run on a fresh
thread, the row reads 42.025 on every run. The baseline holds the higher
of the two readings; a run that reads the lower one passes, and that
lower reading alone is no reason to --write.

A row higher than the baseline fails. A row lower is printed and passes:
commit the new figure with --write, which rewrites BASELINE.json from
RESULT.json. A baseline row missing from the run fails; a count row the
baseline does not know is noted.
"""

import json
import sys


def counted(name):
    return name.endswith("_allocs") or "_allocs_" in name or name.startswith("quic.uni_streams")


def main() -> int:
    args = [a for a in sys.argv[1:] if a != "--write"]
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    result_path, base_path = args
    with open(result_path) as f:
        metrics = json.load(f)["metrics"]
    current = {k: v["value"] for k, v in metrics.items() if counted(k)}
    if not current:
        print(f"{result_path}: no count rows — was the run traced (--trace 1)?")
        return 1
    return hold(current, base_path, "--write" in sys.argv[1:], "count")


def hold(current, base_path, write, what):
    """Holds `current` (row name -> value) at or below the baseline at
    `base_path`, or rewrites the baseline from it when `write` is set.
    Returns the exit code; `what` names the rows in what it prints."""
    if write:
        with open(base_path, "w") as f:
            json.dump(current, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {len(current)} rows to {base_path}")
        return 0
    with open(base_path) as f:
        base = json.load(f)
    higher = []
    for name, want in sorted(base.items()):
        got = current.get(name)
        if got is None:
            higher.append(f"{name}: baseline {want} -> missing from the run")
        elif got > want:
            higher.append(f"{name}: baseline {want} -> {got}")
        elif got < want:
            print(f"lower: {name}: baseline {want} -> {got} (commit it with --write)")
    unknown = sorted(k for k in current if k not in base)
    if unknown:
        print(f"note: {what} rows not in the baseline:", ", ".join(unknown))
    if higher:
        print(f"{what} rows above {base_path}:")
        print("\n".join("  " + h for h in higher))
        return 1
    print(f"{len(base)} {what} rows at or below {base_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
