#!/usr/bin/env python3
"""Paired runs of two checkouts: the procedure for any claim about speed.

    benchmark/pairs.py <parent checkout> <change checkout>     (about 25 minutes)

Speed is not bounded in BENCHMARK.json because this box's mood moves it by
1.4x between minutes (README "Steadiness"); the two runs of a pair share the
mood. For every workload this makes PAIRS pairs of untraced runs, one run of
each checkout per pair on the pair's seed, alternating which side goes first,
for the declared `run_seconds`. The two `benchmark/` directories must be the
same: a change that claims a gain may not edit the benchmark.

For every row a run prints (the end-to-end metrics, the `obs.` speed rows,
the in-situ `sut.`/`gen.` rows) it reports each side's median and quartiles,
the pairs the change won and lost (ties count for neither), and a verdict:

  gain / loss  the change won (lost) at least nine tenths of all pairs and the
               medians differ by more than the parent's own interquartile range
  REGRESSION   end-to-end metrics only: the change's median is worse than the
               parent's by more than the metric's bound
  unresolved   end-to-end metrics only: the parent's spread is wider than the
               bound, and not every run of the change beat every parent run
  -            none of these; no change shown

Result: benchmark/out/pairs.json (every run made is in it), exit 1 on a
REGRESSION.
"""
import filecmp
import json
import pathlib
import statistics
import sys

sys.dont_write_bytecode = True  # importing aa must leave nothing in benchmark/
from aa import run, spread, worse_by  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
PAIRS = 10  # seeds 1..PAIRS
BUILT = ["out", "target"]  # what running leaves in benchmark/


def same_tree(a, b):
    d = filecmp.dircmp(a, b, ignore=BUILT)
    if d.left_only or d.right_only or d.funny_files:
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, d.common_files, shallow=False)
    return not mismatch and not errors and all(
        same_tree(a / sub, b / sub) for sub in d.common_dirs)


def beats(a, b, better):
    return a < b if better == "lower" else a > b


def verdict(m, parent, change, wins, losses):
    q1, _, q3 = statistics.quantiles(parent, n=4)
    apart = abs(statistics.median(change) - statistics.median(parent)) > q3 - q1
    if "bound" in m:
        worse = worse_by(statistics.median(parent), statistics.median(change), m["better"])
        if worse > m["bound"]:
            return "REGRESSION"
        beats_all = all(beats(c, p, m["better"]) for c in change for p in parent)
        if spread(parent) > m["bound"] and not beats_all:
            return "unresolved"
    if apart and wins >= 0.9 * PAIRS:
        return "gain"
    if apart and losses >= 0.9 * PAIRS:
        return "loss"
    return "-"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sides = {"parent": pathlib.Path(sys.argv[1]).resolve(),
             "change": pathlib.Path(sys.argv[2]).resolve()}
    if not same_tree(sides["parent"] / "benchmark", sides["change"] / "benchmark"):
        sys.exit("the two benchmark/ directories differ: a change that claims a gain "
                 "may not edit the benchmark")
    manifest = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    seconds = manifest["run_seconds"]
    declared = {m["name"]: m for m in manifest["end_to_end"] + manifest["per_layer"]}

    rows, regressions = [], 0
    for w in [w["name"] for w in manifest["workloads"]]:
        for checkout in sides.values():  # build, and warm the page cache
            run(checkout, w, 1, 1, 0)
        runs = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                runs[side].append(run(sides[side], w, 1 + i, seconds, 0)[1])
            print(f"{w} pair {i + 1}/{PAIRS} ({order[0]} first)", flush=True)
        for name in runs["parent"][0]:
            m = declared[name]
            parent = [r[name] for r in runs["parent"]]
            change = [r[name] for r in runs["change"]]
            wins = sum(beats(c, p, m["better"]) for p, c in zip(parent, change))
            losses = sum(beats(p, c, m["better"]) for p, c in zip(parent, change))
            v = verdict(m, parent, change, wins, losses)
            regressions += v == "REGRESSION"
            rows.append({"workload": w, "metric": name, "unit": m["unit"],
                         "better": m["better"], "bound": m.get("bound"),
                         "parent": parent, "change": change,
                         "parent_quartiles": statistics.quantiles(parent, n=4),
                         "change_quartiles": statistics.quantiles(change, n=4),
                         "wins": wins, "losses": losses, "verdict": v})
            pq, cq = rows[-1]["parent_quartiles"], rows[-1]["change_quartiles"]
            print(f"{w:<12} {name:<32} parent {pq[1]:>12.4f} [{pq[0]:.4f}, {pq[2]:.4f}]  "
                  f"change {cq[1]:>12.4f} [{cq[0]:.4f}, {cq[2]:.4f}]  "
                  f"won {wins} lost {losses} of {PAIRS}  {v}")

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "pairs.json").write_text(json.dumps(
        {"pairs": PAIRS, "seconds": seconds, "parent": str(sides["parent"]),
         "change": str(sides["change"]), "rows": rows}, indent=1) + "\n")
    print(f"wrote {out / 'pairs.json'}")
    sys.exit(1 if regressions else 0)


if __name__ == "__main__":
    main()
