"""Run every workload several times, print every metric and save a result file.

    python3 perfbench/collect.py --runs 10 --out BENCH_label.json
    python3 perfbench/collect.py --runs 3 --workloads monte_carlo,cli_cold --out quick.json

Every run lasts ``run_seconds`` of ``BENCHMARK.json``.  The untraced runs of
a workload use seeds 1, 2, ...; one traced run with seed 1 follows.  The
table gives, per workload and metric, the unit, the median and quartiles
over the runs and the spread (quartile distance over median).  Every run's
outputs must be correct: the command exits with code 1 if any run failed a
check, printed no result, or missed a metric named in ``BENCHMARK.json``.
The result file keeps every run's metadata, failures, checks, known-defect
probes and metrics; ``compare.py`` reads two of them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    record = {"seed": seed, "trace": trace, "exit": proc.returncode}
    lines = [line for line in proc.stdout.splitlines() if line.startswith("{")]
    for line in lines[:-1]:
        record.update(json.loads(line))
    if proc.returncode != 0 or not lines:
        record["stderr"] = proc.stderr[-2000:]
        return record
    record["result"] = json.loads(lines[-1])
    return record


def problems(record: dict, wanted: list) -> list:
    result = record.get("result")
    if result is None:
        return [f"seed {record['seed']}: no result (exit {record['exit']})"]
    out = [f"seed {record['seed']}: {f['job']}: {f['error']}" for f in record.get("failures", [])]
    out += [f"seed {record['seed']}: check failed: {c}" for c in record.get("checks", [])]
    if not result["correct"] and not out:
        out.append(f"seed {record['seed']}: marked incorrect")
    missing = {m["name"] for m in wanted} - set(result["metrics"])
    if missing:
        out.append(f"seed {record['seed']}: missing metrics {sorted(missing)}")
    return out


def table(records: list, wanted: list) -> list:
    lines = []
    for m in wanted:
        values = [r["result"]["metrics"][m["name"]]["value"] for r in records
                  if r.get("result") and m["name"] in r["result"]["metrics"]]
        if not values:
            continue
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = m.get("bound")
        flag = "" if bound is None or spread < bound / 3 else "  (spread above a third of the bound)"
        lines.append(f"  {m['name']:<40} {m['unit']:<13} median {med:<12.6g} "
                     f"q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.3f}{flag}")
    return lines


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    seconds = spec["run_seconds"]
    results, bad = {}, []
    for workload in args.workloads.split(","):
        if workload not in names:
            p.error(f"unknown workload {workload!r}")
        runs = [run_once(workload, 1 + i, seconds, 0) for i in range(args.runs)]
        traced = [run_once(workload, 1, seconds, 1)]
        results[workload] = {"runs": runs, "traced": traced}
        found = [x for r in runs for x in problems(r, spec["end_to_end"])]
        found += [x for r in traced for x in problems(r, spec["per_layer"])]
        bad += [f"{workload}: {x}" for x in found]

        print(f"{workload}  ({len(runs)} runs of {seconds} s, 1 traced)")
        print("\n".join(table([r for r in runs if r.get("result")], spec["end_to_end"])))
        print("  traced:")
        print("\n".join(table([r for r in traced if r.get("result")], spec["per_layer"])))
        defects = {d["job"]: d for r in runs + traced for d in r.get("known_defects", [])}
        for d in defects.values():
            print(f"  known defect {d['job']}: {d['status']}"
                  + (f" ({d['error']})" if d["error"] else ""))
        for problem in found:
            print(f"  FAILED {problem}")
        sys.stdout.flush()

    meta = next((r["meta"] for w in results.values() for r in w["runs"] if "meta" in r), {})
    Path(args.out).write_text(json.dumps(
        {"benchmark": spec, "meta": meta, "workloads": results}, indent=1) + "\n")
    print(f"wrote {args.out}")
    if bad:
        print(f"{len(bad)} problem(s): outputs not all correct", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
