"""Self-test of the benchmark at reduced size.

    python3 perfbench/selftest.py

Checks, printing PASS or FAIL for each and exiting with code 1 on a failure:

1. every workload emits every metric named in ``BENCHMARK.json``, with its
   unit, untraced and traced (``run.py`` at one second);
2. a wrong oracle value, a job that raises and a job that passes its
   deadline each count as one failed job;
3. traced and untraced runs of the same jobs give bit-identical outputs;
4. after a traced run every name in the ``mahler`` modules is bound to its
   original object again.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _report(results: list, name: str, ok: bool, detail: str = "") -> None:
    results.append(ok)
    print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f": {detail}" if detail and not ok else ""))
    sys.stdout.flush()


def check_metrics(results: list, spec: dict) -> None:
    for w in spec["workloads"]:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w["name"], "--seed", "7",
                 "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT, timeout=300)
            detail = proc.stderr[-500:]
            ok = proc.returncode == 0
            if ok:
                result = json.loads(proc.stdout.splitlines()[-1])
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                want = {m["name"]: m["unit"] for m in wanted}
                ok = got == want and result["correct"] and result["attempted"] >= 1
                detail = f"metrics differ: {sorted(set(got.items()) ^ set(want.items()))}" \
                    if got != want else f"result {result['correct']}, {result['failed']} failed"
            _report(results, f"{w['name']} trace={trace} emits every named metric", ok, detail)


def _snapshot() -> dict:
    return {(name, attr): value for name, mod in list(sys.modules.items())
            if mod is not None and (name == "mahler" or name.startswith("mahler."))
            for attr, value in vars(mod).items()}


def check_in_process(results: list) -> None:
    sys.path.insert(0, str(SRC))
    import numpy as np

    import run
    import spans
    import workloads
    from mahler import kernel

    workdir = ROOT / ".perfbench_work"
    workdir.mkdir(exist_ok=True)
    ctx = workloads.Context(root=ROOT, workdir=workdir)
    run.signal.signal(run.signal.SIGALRM, run._alarm)

    # 2. failure accounting
    jobs = workloads.WORKLOADS["finite_kernel"].make_pass(np.random.default_rng(0))
    count = next(j for j in jobs if j.name == "count_inside/N=8")
    exact = kernel.expected_in_exact(8, 9.0)

    def spin(ctx):
        end = time.perf_counter() + 5.0
        while time.perf_counter() < end:
            pass

    def boom(ctx):
        raise ValueError("deliberate")

    bad = workloads.Workload("selftest", lambda: None, lambda rng: [
        count, replace(count, name="raises", run=boom),
        replace(count, name="spins", run=spin, deadline_s=0.2)])
    with mock.patch.object(workloads.kernel, "expected_in_exact", lambda N, s: exact + 1e-3):
        res = run.run_workload(bad, 0, 0.0, ctx)
    failed = {f["job"]: f["error"] for f in res["failures"]}
    _report(results, "a wrong oracle value fails the job",
            "count_inside/N=8" in failed, str(failed))
    _report(results, "a job that raises fails", "raises" in failed, str(failed))
    _report(results, "a job past its deadline fails",
            "deadline" in failed.get("spins", "") and max(res["latencies"]) < 1.0, str(failed))
    ok_run = run.run_workload(replace(bad, make_pass=lambda rng: [count]), 0, 0.0, ctx)
    _report(results, "the right oracle value passes", not ok_run["failures"],
            str(ok_run["failures"]))

    # 3 and 4. traced runs: identical outputs, originals restored
    for name, wl in workloads.WORKLOADS.items():
        before = _snapshot()
        recorder = spans.Recorder()
        recorder.install()
        try:
            res = run.run_workload(wl, 3, 0.0, ctx, recorder)
        finally:
            recorder.restore()
        differ = [f for f in res["failures"] if "traced output" in f["error"]]
        spans_seen = len(recorder.span_name) + len(ctx.child_spans)
        _report(results, f"{name}: traced and untraced outputs are bit-identical",
                not differ and not res["failures"] and spans_seen > 0,
                str(res["failures"][:3]) + f", {spans_seen} spans")
        after = _snapshot()
        changed = [key for key, value in before.items() if after.get(key) is not value]
        _report(results, f"{name}: every wrapped name is the original again",
                not changed, str(changed[:5]))
    for path in workdir.iterdir():
        path.unlink()
    workdir.rmdir()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results: list = []
    check_in_process(results)
    check_metrics(results, spec)
    print(f"{sum(results)}/{len(results)} checks passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
