"""Compare two result files of ``collect.py``, workload by workload.

    python3 perfbench/compare.py BEFORE.json AFTER.json

For each end-to-end metric of each workload present in both files it prints
the median and quartiles of both sides, the change of the median, the
pairwise wins of AFTER (run i of one file against run i of the other; ties
count for neither) and a verdict:

* ``regression``: AFTER's median is worse than BEFORE's by more than the
  metric's bound in ``BENCHMARK.json``;
* ``improved``: AFTER wins at least nine tenths of the pairs and the medians
  differ by more than BEFORE's quartile distance;
* ``unresolved``: BEFORE's own spread is wider than the bound and AFTER does
  not beat every BEFORE run;
* ``same`` otherwise.

Times are scaled to a reference machine speed (see ``run.py``); the
medians as measured follow each row, so that a change that
shows only after scaling can be seen.  The two files must come from the
same ``BENCHMARK.json`` and run length; the command refuses them otherwise,
with code 2.  It exits with code 1 if any verdict is a regression.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from collect import quartiles


def values(data: dict, workload: str, metric: str) -> list:
    return [r["result"]["metrics"][metric]["value"]
            for r in data["workloads"].get(workload, {}).get("runs", [])
            if r.get("result") and metric in r["result"]["metrics"]]


def as_measured(data: dict, workload: str, metric: str) -> list:
    return [r["as_measured"][metric]
            for r in data["workloads"].get(workload, {}).get("runs", [])
            if metric in r.get("as_measured", {})]


def verdict(before: list, after: list, metric: dict) -> tuple:
    sign = 1.0 if metric["better"] == "higher" else -1.0
    b1, bm, b3 = quartiles(before)
    _, am, _ = quartiles(after)
    change = sign * (am - bm) / abs(bm)          # positive is better
    pairs = list(zip(before, after))
    wins = sum(sign * (a - b) > 0 for b, a in pairs)
    losses = sum(sign * (a - b) < 0 for b, a in pairs)
    bound = metric["bound"]
    if change < -bound:
        label = "regression"
    elif pairs and wins >= 0.9 * len(pairs) and abs(am - bm) > (b3 - b1):
        label = "improved"
    elif (b3 - b1) / abs(bm) > bound and not all(sign * (a - b) > 0 for b in before
                                                  for a in after):
        label = "unresolved"
    else:
        label = "same"
    return change, wins, losses, len(pairs), label


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("before")
    p.add_argument("after")
    args = p.parse_args(argv)
    before = json.loads(Path(args.before).read_text())
    after = json.loads(Path(args.after).read_text())
    for key, a, b in (("BENCHMARK.json", before["benchmark"], after["benchmark"]),
                      ("run length", before["meta"].get("seconds"),
                       after["meta"].get("seconds"))):
        if a != b:
            print(f"compare.py: the two files differ in {key}; not comparable", file=sys.stderr)
            return 2
    metrics = after["benchmark"]["end_to_end"]
    print(f"before: {args.before} (commit {before['meta'].get('commit', '?')})")
    print(f"after:  {args.after} (commit {after['meta'].get('commit', '?')})")
    regressions = 0
    for workload in after["workloads"]:
        if workload not in before["workloads"]:
            print(f"{workload}: only in {args.after}")
            continue
        print(workload)
        for m in metrics:
            b, a = values(before, workload, m["name"]), values(after, workload, m["name"])
            if not b or not a:
                print(f"  {m['name']:<16} missing on one side")
                continue
            change, wins, losses, n, label = verdict(b, a, m)
            regressions += label == "regression"
            (b1, bm, b3), (a1, am, a3) = quartiles(b), quartiles(a)
            print(f"  {m['name']:<16} {m['unit']:<4} before {bm:<10.5g} [{b1:.5g}, {b3:.5g}]"
                  f"  after {am:<10.5g} [{a1:.5g}, {a3:.5g}]  better by {100 * change:+.1f}%"
                  f"  wins {wins}/{n} losses {losses}/{n}  bound {m['bound']:.0%}  {label}")
            bm_raw, am_raw = (as_measured(before, workload, m["name"]),
                              as_measured(after, workload, m["name"]))
            if bm_raw and am_raw:
                b_raw, a_raw = quartiles(bm_raw)[1], quartiles(am_raw)[1]
                sign = 1.0 if m["better"] == "higher" else -1.0
                print(f"  {'':<16} {'':<4} as measured: before {b_raw:<10.5g} after "
                      f"{a_raw:<10.5g} better by {100 * sign * (a_raw - b_raw) / abs(b_raw):+.1f}%")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
