"""Benchmark of the mahler library, one workload per run.

    python3 perfbench/run.py --workload finite_kernel --seed 1 --seconds 15 --trace 0

The load is a closed loop: one process runs one job at a time, and the
``cli_cold`` workload runs one child process at a time.  Jobs are drawn pass
by pass from the seed (see ``workloads.py``); a run keeps starting passes
until the next one would end after ``--seconds``, and always runs at least
the workload's minimum number of passes.  Every job is checked against its
oracle; a job fails if it raises, misses its oracle or passes its deadline.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics named in ``BENCHMARK.json``:

* ``jobs_per_s``: jobs finished per second of job time;
* ``latency_p50_ms``, ``latency_p90_ms``: nearest-rank percentiles of job
  latency;
* ``setup_s``: median over fresh interpreters, spread over the run, of the
  time to import ``mahler`` and its CLI module and warm the workload's
  caches;
* ``peak_rss_mb``: peak resident memory of the benchmark process, or of the
  largest ``mahler`` child for ``cli_cold``, each counted from its own
  ``exec`` (see ``cli_child.peak_rss_kb``).

Times are given at a reference machine speed: a job run in this process is
scaled by how long a fixed calibration loop took just before it (see
``calibrate``), and a child process (``cli_cold`` jobs, set-up probes) by
the median time of a fixed matrix product over the run (see
``child_reference``).  The same figures as measured precede the result
as ``{"as_measured": ...}``.

With ``--trace 1`` every job runs once untraced and once under the span
recorder of ``spans.py``, in alternating order; the last line carries the
per-layer metrics and ``trace.overhead_frac``, and the run fails if any
traced output differs from the untraced one.  Counts (``.calls``,
``.points``, ``.large_arg_calls``) are those of the first pass, which the
seed fixes; times and shares cover every traced pass.

Earlier lines of standard output are JSON objects with the run metadata,
the failed jobs, the end-of-run checks and the known-defect probes, each
listed by job.  The run exits with code 2, printing no result, when the
``mahler`` sources are missing next to this directory.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from cli_child import peak_rss_kb

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
OVERRUN_S = 40.0
# The calibration loop takes this long at the reference speed; see calibrate()
CAL_REF_S = 2.0e-3
# So does the matrix product of child_reference()
CHILD_REF_S = 5.0e-3
REFS_PER_PROBE = 4
MODULES = ("specfun", "polys", "volume", "kernel", "limits", "mc", "quadrature", "cli")


def _parse(argv, spec):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="import and warm once, print the seconds taken, and exit")
    return p.parse_args(argv)


def _import_mahler() -> float:
    t0 = time.perf_counter()
    import mahler.cli
    elapsed = time.perf_counter() - t0
    if Path(mahler.__file__).resolve().parent != SRC / "mahler":
        raise SystemExit(f"run.py: imported mahler from {mahler.__file__}, not {SRC}")
    return elapsed


def _setup_probe(workload: str) -> float:
    import_s = _import_mahler()
    import workloads
    t0 = time.perf_counter()
    workloads.WORKLOADS[workload].warm()
    return import_s + time.perf_counter() - t0


class SetupProbes:
    """Set-up times of fresh interpreters, sampled across the run.

    A probe imports ``mahler`` and its CLI module and warms the workload in
    a new process.  The machine's speed drifts over tens of seconds, so the
    ``SETUP_REPEATS`` probes are spread evenly over the run rather than taken
    together, and ``setup_s`` is their median.  Before each probe the speed
    of the machine is sampled with ``child_reference``.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.times: list = []
        self.refs: list = []

    def due(self, fraction: float) -> None:
        """Take the probes scheduled up to ``fraction`` of the run."""
        while len(self.times) < SETUP_REPEATS and fraction >= len(self.times) / SETUP_REPEATS:
            self.refs += [child_reference() for _ in range(REFS_PER_PROBE)]
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", self.workload,
                 "--setup-probe"], capture_output=True, text=True, timeout=30, cwd=ROOT)
            if proc.returncode != 0:
                raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
            self.times.append(float(proc.stdout.strip().splitlines()[-1]))

    def median(self) -> float:
        self.due(1.0)
        return statistics.median(self.times)


def child_reference() -> float:
    """Seconds taken by a fixed matrix product in this process.

    A child process (a ``cli_cold`` job, a set-up probe) is not scaled by
    ``calibrate``: on a shared 2-core x86_64 machine the speed of
    ``cli_cold`` jobs drifted by up to a quarter over a few minutes, in CPU
    time as much as in wall time, and over groups of 32 jobs the median of
    the loop moved with an elasticity of only 0.35 against them, so scaling
    by it made the figures noisier.  The median time of this product, which
    runs on the default BLAS threads as the children do, moved with an
    elasticity of 0.9 to 1.0 and halved the coefficient of variation of the
    groups' mean latency (0.088 to 0.046).  So the times of child processes
    are multiplied by ``CHILD_REF_S`` over the median of the run's products,
    one before each ``cli_cold`` job and ``REFS_PER_PROBE`` before each
    set-up probe.  A product runs only after the child before it has been
    reaped, and uses nothing of ``mahler``, so the program cannot change the
    factor.
    """
    import numpy as np
    a = np.linspace(-1.0, 1.0, 384 * 384).reshape(384, 384)
    t0 = time.perf_counter()
    for _ in range(4):
        a @ a
    return time.perf_counter() - t0


def calibrate() -> float:
    """Seconds taken by a fixed loop of small NumPy operations.

    On a shared machine the speed of a CPU may change by a factor of two
    from one second to the next, as other tenants come and go.  A job run in
    this process is therefore reported at a reference speed: its time is
    multiplied by ``CAL_REF_S`` over this loop's time just before it.  The
    loop runs before the job only, so that nothing the job leaves behind
    (busy BLAS threads, a polluted cache) can change its own factor.  The
    loop mixes interpreter work and NumPy calls on short arrays, as the
    library does, and both slow down together.

    Child processes (``cli_cold`` jobs, set-up probes) are scaled with
    ``child_reference`` instead.
    """
    import numpy as np
    x = np.linspace(0.0, 1.0, 64)
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(300):
        acc += float(np.sum(np.sin(x * k) * x))
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# metadata
# ---------------------------------------------------------------------------


def _commit() -> str:
    """The checked-out commit, read from ``.git`` without leaving the root."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas() -> dict:
    import numpy as np
    info = {"threads_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError, ValueError):
        pass
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    info["threads"] = None
    return info


def _metadata(args) -> dict:
    import mpmath
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": _commit(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "mpmath": mpmath.__version__,
        "machine": platform.machine(), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "blas": _blas(),
        "MAHLER_QUAD_ORDER": "unset", "load": "closed loop, one job at a time",
    }


# ---------------------------------------------------------------------------
# running jobs
# ---------------------------------------------------------------------------


class Deadline(BaseException):
    """Raised by the alarm handler when a job passes its deadline.

    It derives from BaseException so that no ``except Exception`` inside the
    library can swallow it.
    """


def _alarm(signum, frame):
    raise Deadline()


def timed(job, ctx):
    """Run one job under its deadline; returns (output, seconds, error).

    The deadline is a real-time interval timer whose signal interrupts the
    job in this process; no thread watches it.
    """
    signal.setitimer(signal.ITIMER_REAL, job.deadline_s)
    t0 = time.perf_counter()
    try:
        out = job.run(ctx)
        return out, time.perf_counter() - t0, None
    except Deadline:
        return None, time.perf_counter() - t0, f"deadline of {job.deadline_s:g} s passed"
    except Exception as exc:  # a failing job is counted, not fatal
        return None, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _checked(job, out, error):
    if error is not None:
        return error
    try:
        return job.check(out)
    except Exception as exc:  # an output the oracle cannot read is wrong
        return f"oracle raised {type(exc).__name__}: {exc}"


def fingerprint(obj) -> bytes:
    """Exact byte form of a job output, for bit-for-bit comparison."""
    import numpy as np
    if isinstance(obj, np.ndarray):
        return obj.dtype.str.encode() + repr(obj.shape).encode() + obj.tobytes()
    if isinstance(obj, dict):
        return b"{" + b",".join(fingerprint(k) + b":" + fingerprint(v)
                                for k, v in sorted(obj.items())) + b"}"
    if isinstance(obj, (list, tuple)):
        return b"[" + b",".join(fingerprint(x) for x in obj) + b"]"
    if isinstance(obj, (np.generic, float, complex, int)):
        return fingerprint(np.asarray(obj))
    return repr(obj).encode()


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile: a value that was measured, never a blend."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def run_workload(wl, seed: int, seconds: float, ctx, recorder=None, setup=None) -> dict:
    """Run passes of ``wl`` and check every job.

    With a recorder, each job runs untraced and traced (alternating which
    goes first), and the traced output must equal the untraced one.  With
    ``setup`` (a ``SetupProbes``), the probes due are taken between passes,
    and their time is left out of the run's clock.
    """
    import numpy as np
    import spans
    latencies, scaled, refs, failures, done, names = [], [], [], [], [], []
    traced_s = untraced_s = 0.0
    first_pass = None
    t_start = time.perf_counter()
    p = 0
    while True:
        if setup is not None:
            t_probe = time.perf_counter()
            setup.due((t_probe - t_start) / seconds if seconds > 0 else 1.0)
            t_start += time.perf_counter() - t_probe
        elapsed = time.perf_counter() - t_start
        if p >= wl.min_passes and elapsed * (p + 1) / p > seconds \
                or elapsed > seconds + OVERRUN_S:
            break
        for i, job in enumerate(wl.make_pass(np.random.default_rng([seed, p]))):
            if time.perf_counter() - t_start > seconds + OVERRUN_S:
                # a program that has become very slow still ends the run in
                # time; the jobs it did not reach count as refused
                failures.append({"job": job.name, "pass": p,
                                 "error": f"refused: run past {seconds + OVERRUN_S:g} s"})
                continue
            if recorder is None:
                if wl.in_process:
                    cal = calibrate()
                else:
                    refs.append(child_reference())
                out, dt, error = timed(job, ctx)
                if wl.in_process:
                    scaled.append(dt * CAL_REF_S / cal)
            else:
                runs = {}
                for traced in ((False, True) if i % 2 == 0 else (True, False)):
                    ctx.traced = recorder.active = traced
                    runs[traced] = timed(job, ctx)
                    ctx.traced = recorder.active = False
                (out, dt, error), (t_out, t_dt, t_error) = runs[False], runs[True]
                traced_s += t_dt
                untraced_s += dt
                if error is None and t_error is None and fingerprint(out) != fingerprint(t_out):
                    t_error = "traced output differs from untraced output"
                error = error or t_error
            error = _checked(job, out, error)
            latencies.append(dt)
            names.append(job.name)
            if error:
                failures.append({"job": job.name, "pass": p, "error": error})
            elif wl.finish is not None:
                done.append((job, out))
        if recorder is not None and p == 0:
            first_pass = recorder.summary()
            spans.merge(first_pass, ctx.child_spans)
        p += 1
    if not wl.in_process or recorder is not None:
        scaled = latencies
    return {"latencies": latencies, "scaled": scaled, "names": names, "refs": refs,
            "failures": failures, "done": done,
            "passes": p, "traced_s": traced_s, "untraced_s": untraced_s,
            "first_pass": first_pass}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(latencies, setup_s, peak_kb) -> dict:
    lat = sorted(latencies)
    return {
        "jobs_per_s": len(lat) / sum(lat),
        "latency_p50_ms": 1e3 * percentile(lat, 0.5),
        "latency_p90_ms": 1e3 * percentile(lat, 0.9),
        "setup_s": setup_s,
        "peak_rss_mb": peak_kb / 1024.0,
    }


def per_layer(res, summary, ctx, extras, defects_failing) -> dict:
    first = res["first_pass"]

    def row(name):
        return summary.get(name, {})

    def per(name, key, scale):
        r = row(name)
        return scale * r.get("total_s", 0.0) / r[key] if r.get(key) else 0.0

    def calls(name):
        return first.get(name, {}).get("calls", 0)

    v = {}
    for kind in ("rr", "rc", "cc"):
        v[f"kernel.matrix_kernel.{kind}_ms"] = per(f"kernel.matrix_kernel.{kind}", "calls", 1e3)
    for kind in ("real", "complex"):
        v[f"kernel.intensity_{kind}.us_per_point"] = per(f"kernel.intensity_{kind}", "points", 1e6)
    for region in ("inside", "outside", "complex"):
        name = f"kernel.expected_counts.{region}"
        v[f"{name}_ms"] = per(name, "calls", 1e3)
    v["polys.eps_pi.calls"] = calls("polys.eps_pi")
    v["polys.pi_even_core.calls"] = calls("polys.pi_even_core")
    v["polys.pi_odd_core.calls"] = calls("polys.pi_odd_core")
    v["quadrature.adaptive.calls"] = calls("quadrature.adaptive")
    v["quadrature.fixed_panel.calls"] = calls("quadrature.fixed_panel")
    big_m = first.get("specfun.big_m_pair", {})
    v["specfun.big_m_pair.calls"] = big_m.get("calls", 0)
    v["specfun.big_m_pair.points"] = big_m.get("points", 0)
    v["specfun.big_m_pair.large_arg_calls"] = big_m.get("large_arg_calls", 0)
    v["specfun.big_m_pair.us_per_point"] = per("specfun.big_m_pair", "points", 1e6)
    for name in ("kernel.correlation", "kernel.pfaffian", "polys.eps_pi", "quadrature.adaptive",
                 "volume.gram_pf", "volume.bilinear", "limits.a_xi", "limits.kappa_xi",
                 "limits.a_disk", "limits.dad_disk", "limits.a_outside", "limits.b_outside",
                 "limits.k_zeta"):
        v[f"{name}.ms_per_call"] = per(name, "calls", 1e3)
    v["limits.convergence_report.ms_per_row"] = per("limits.convergence_report", "rows", 1e3)
    pf = row("kernel.pfaffian")
    v["kernel.pfaffian.dim"] = pf["dim"] / pf["calls"] if pf.get("calls") else 0.0
    v["mc.sample.us_per_step"] = per("mc.sample", "steps", 1e6)
    v["mc.sample.acceptance_rate"] = extras.get("mc.sample.acceptance_rate", 0.0)
    v["mc.sample.ess_per_1k_steps"] = extras.get("mc.sample.ess_per_1k_steps", 0.0)
    v["mc.roots_classify.us_per_call"] = per("mc.roots_classify", "calls", 1e6)

    v["cli.import_s"] = statistics.median(ctx.child_import_s) if ctx.child_import_s else 0.0
    by_job: dict = {}
    for name, dt in zip(res["names"], res["latencies"]):
        by_job.setdefault(name, []).append(dt)
    for sub in ("volume", "kernel-grid", "intensity", "intensity-circle_real", "convergence",
                "expected-roots", "sample", "validate"):
        times = by_job.get(f"cli/{sub}")
        v[f"cli.{sub}.wall_s"] = statistics.median(times) if times else 0.0

    self_s = {m: 0.0 for m in MODULES}
    for name, r in summary.items():
        module = name.split(".")[0]
        if module in self_s:
            self_s[module] += r.get("self_s", 0.0)
    for module, seconds in self_s.items():
        v[f"{module}.self_share"] = seconds / res["traced_s"]
    v["trace.overhead_frac"] = res["traced_s"] / res["untraced_s"] - 1.0
    v["known_defects.failing"] = defects_failing
    return v


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = _parse(argv, spec)
    if not (SRC / "mahler" / "__init__.py").is_file():
        print(f"run.py: the mahler sources are not at {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("MAHLER_QUAD_ORDER", None)
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(repr(_setup_probe(args.workload)))
        return 0

    _import_mahler()
    import spans
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    wl.warm()
    print(json.dumps({"meta": _metadata(args)}), flush=True)
    setup = None if args.trace else SetupProbes(args.workload)

    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir()
    signal.signal(signal.SIGALRM, _alarm)
    ctx = workloads.Context(root=ROOT, workdir=WORKDIR)
    recorder = spans.Recorder() if args.trace else None
    try:
        if recorder is not None:
            recorder.install()
        try:
            res = run_workload(wl, args.seed, args.seconds, ctx, recorder, setup)
        finally:
            if recorder is not None:
                recorder.restore()
        peak_kb = peak_rss_kb() if wl.in_process else ctx.child_peak_kb
        checks, extras = wl.finish(res["done"]) if wl.finish is not None else ([], {})
        probes = workloads.run_probes(wl.probes(), ctx, timed)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    print(json.dumps({"failures": res["failures"]}))
    print(json.dumps({"checks": checks}))
    print(json.dumps({"known_defects": probes}))
    if args.trace:
        summary = recorder.summary()
        spans.merge(summary, ctx.child_spans)
        failing = sum(p["status"] == "fail" for p in probes)
        values, wanted = per_layer(res, summary, ctx, extras, failing), spec["per_layer"]
    else:
        setup_s = setup.median()
        print(json.dumps({"as_measured": end_to_end(res["latencies"], setup_s, peak_kb)}))
        child_scale = CHILD_REF_S / statistics.median(res["refs"] + setup.refs)
        scaled = res["scaled"] if wl.in_process else [dt * child_scale for dt in res["latencies"]]
        values = end_to_end(scaled, setup_s * child_scale, peak_kb)
        wanted = spec["end_to_end"]
    result = {
        "correct": not res["failures"] and not checks,
        "attempted": len(res["latencies"]) + sum(f["error"].startswith("refused")
                                                 for f in res["failures"]),
        "failed": len(res["failures"]),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
