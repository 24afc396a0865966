#!/usr/bin/env python3
"""A/A check: two run sets of the same commit against the benchmark's own bounds.

    benchmark/aa.py            (no arguments; about 25 minutes)

Each set runs every workload RUNS times through benchmark/run.sh, each time
with another seed, for the declared `run_seconds`. For every end-to-end
metric x workload it reports

  spread   = (Q3 - Q1) / median over the set's runs   (statistics.quantiles, n=4)
  drift    = how much worse the second set's median is than the first's

and checks both against the metric's bound in BENCHMARK.json. One traced run
per workload per set checks that every allocation and count row is *equal*
between the sets. A metric that fails cannot be gated on this box: it
belongs in the reported list under `obs.`, not among the bounded metrics
(bounds are not widened to fit). `setup_s`, which the driver's contract
obliges the benchmark to bound, is then named as unresolved. Result:
benchmark/out/aa.json, exit 1 on any failure.
"""
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10  # runs per workload per set, seeds 1..RUNS in every set
SETS = 2


def run(checkout, workload, seed, seconds, trace):
    """One run of `checkout`'s benchmark. Returns (the result line's metrics,
    every `name value unit` row the run printed), both as name -> value."""
    cmd = ["bash", "benchmark/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{checkout}: {' '.join(cmd)}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{checkout}: {workload} seed {seed}: "
                 f"correct={result['correct']} failed={result['failed']}")
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and not line.startswith("#"):
            printed[parts[0]] = float(parts[1])
    return {k: v["value"] for k, v in result["metrics"].items()}, printed


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first, second, better):
    """Share of `first` by which `second` is worse (negative: better)."""
    delta = second - first if better == "lower" else first - second
    return delta / first


def main():
    if len(sys.argv) > 1:
        sys.exit(__doc__)
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = manifest["run_seconds"]
    workloads = [w["name"] for w in manifest["workloads"]]
    exact = [m["name"] for m in manifest["per_layer"]
             if m["name"].endswith("_allocs") or "_allocs_" in m["name"]
             or m["name"].startswith("quic.uni_streams")
             or m["name"] == "core.relay_state_bytes_per_sub"]

    started = time.monotonic()
    longest = 0.0
    sets = []
    for s in range(SETS):
        this = {}
        for w in workloads:
            runs = []
            for seed in range(1, RUNS + 1):
                t0 = time.monotonic()
                runs.append(run(ROOT, w, seed, seconds, 0)[0])
                longest = max(longest, time.monotonic() - t0)
                print(f"set {s + 1} {w} seed {seed}: " +
                      " ".join(f"{k}={v:.4g}" for k, v in runs[-1].items()), flush=True)
            this[w] = {"runs": runs, "traced": run(ROOT, w, 1, seconds, 1)[0]}
        sets.append(this)

    rows, failing = [], []
    for w in workloads:
        for m in manifest["end_to_end"]:
            name, bound = m["name"], m["bound"]
            per_set = [[r[name] for r in s[w]["runs"]] for s in sets]
            medians = [statistics.median(v) for v in per_set]
            spreads = [spread(v) for v in per_set]
            drift = worse_by(medians[0], medians[1], m["better"])
            why = []
            if max(spreads) > bound:
                why.append(f"spread {max(spreads):.3f} > bound {bound}")
            if drift > bound:
                why.append(f"second median worse by {drift:.3f} > bound {bound}")
            rows.append({"workload": w, "metric": name, "bound": bound, "medians": medians,
                         "spreads": spreads, "drift": drift, "ok": not why})
            if why:
                verdict = "UNRESOLVED (bounded by contract)" if name == "setup_s" \
                    else "DEMOTE to obs."
                failing.append(f"{verdict}: {name} on {w}: " + "; ".join(why))
            print(f"{w:<12} {name:<20} median {medians[0]:>14.4f} spread "
                  + "/".join(f"{x:.3f}" for x in spreads)
                  + f" drift {drift:+.3f} bound {bound} {'ok' if not why else 'FAIL'}")

    unequal = []
    for w in workloads:
        for name in exact:
            values = [s[w]["traced"][name] for s in sets]
            if len(set(values)) > 1:
                unequal.append(f"{name} on {w}: {values}")

    wall = time.monotonic() - started
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "aa.json").write_text(json.dumps(
        {"runs": RUNS, "sets": SETS, "seconds": seconds, "wall_s_total": wall,
         "wall_s_longest_run": longest, "rows": rows, "failing": failing,
         "unequal_exact_rows": unequal}, indent=1) + "\n")
    for f in failing:
        print(f)
    for u in unequal:
        print("NOT EQUAL across sets:", u)
    print(f"{SETS * len(workloads) * (RUNS + 1)} runs, {wall:.0f} s in all, "
          f"longest untraced run {longest:.1f} s")
    print(f"wrote {out / 'aa.json'}")
    sys.exit(1 if failing or unequal else 0)


if __name__ == "__main__":
    main()
