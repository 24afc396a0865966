#!/usr/bin/env python3
"""Hold the deterministic wire counts exactly: fail when one moves.

Usage: check_wire.py RESULTS.json BASELINE.json [--write]

RESULTS.json is what `benchmark/run.sh --quick` writes for all four
workloads (benchmark/out/results.json). BASELINE.json (ci/wire_baseline.json)
maps `<workload>.<metric>` -> value for the end-to-end wire metrics that
repeat exactly from run to run of one commit: `sim_metro`'s
`wire_bytes_per_op` and `wire_dgrams_per_op`. Its worlds are seeded and
have no sockets, so nothing a runner does moves them; the live workloads'
figures depend on timing and are not held.

Unlike ci/check_allocs.py, a row lower than the baseline fails as well as
a higher one: bytes do not come off the modelled wire by accident
(ROADMAP, rule 3). A change that means to move them re-records the
baseline with --write, which rewrites BASELINE.json from RESULTS.json. A
baseline row missing from the run fails.
"""

import json
import sys

sys.dont_write_bytecode = True  # importing check_allocs leaves nothing in ci/
from check_allocs import hold  # noqa: E402

HELD = {"sim_metro": ["wire_bytes_per_op", "wire_dgrams_per_op"]}


def main() -> int:
    args = [a for a in sys.argv[1:] if a != "--write"]
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    result_path, base_path = args
    with open(result_path) as f:
        workloads = json.load(f)["workloads"]
    current = {}
    for workload, names in HELD.items():
        metrics = (workloads.get(workload) or {}).get("metrics", {})
        for name in names:
            if name in metrics:
                current[f"{workload}.{name}"] = metrics[name]["value"]
    return hold(current, base_path, "--write" in sys.argv[1:], "wire", exact=True)


if __name__ == "__main__":
    sys.exit(main())
