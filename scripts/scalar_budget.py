"""Micro-timings of scalar library calls, to compare source trees side by side.

For each ``--src`` directory (repeatable; default: this checkout's ``src``)
runs ``--rounds`` child processes with ``OPENBLAS_NUM_THREADS=1``,
reversing the order of the trees every other round, so that a drift of the
machine's speed reaches all trees alike. A child makes one warm-up call per
case, then times ``--repeats`` runs of ``--calls`` calls each; a case that
draws from a sampler chain starts a fresh chain for every run. The table has
one row per case and one column per tree: the 10th percentile of the
microseconds per call over every timed run of every round.

Usage: python3 scripts/scalar_budget.py [--src DIR ...] [--rounds 3]
       [--repeats 30] [--calls 20]
"""

import argparse
import json
import os
import subprocess
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cases():
    """``(name, start)`` for every timed case, imported from the tree in use:
    ``start()`` returns the call to time, anew for each timed run."""
    from mahler import limits, polys, volume
    from mahler.kernel import EnsembleParams, assemble_matrix, matrix_kernel
    from mahler.mc import SamplerConfig, roots_classify, sample
    from mahler.polys import PolyCoeffs

    out = []
    for N in (8, 64):
        P = EnsembleParams(N, N + 1.0)
        for label, u, v in (("rr", 0.3, -0.7), ("rc", 0.3, 0.2 + 0.5j),
                            ("cc", 0.4 + 0.3j, -0.2 + 0.9j)):
            out.append((f"matrix_kernel {label} N={N}",
                        lambda P=P, u=u, v=v: matrix_kernel(P, u, v)))
    zeta = complex(np.exp(0.7j))
    out += [("gram_matrix(64, 65)", lambda: volume.gram_matrix(64, 65.0)),
            ("pi_pair(1, 9)", lambda: polys.pi_pair(1, 9.0)),
            ("pi_pair(1024, 2049) held", lambda: polys.pi_pair(1024, 2049.0)),
            ("xi_handle mixed block", lambda: assemble_matrix(
                limits.xi_handle(1.0, 1.0), [0.5, -0.3 + 0.4j], [0.2 + 0.3j, -0.4])),
            ("k_zeta", lambda: limits.k_zeta(1.0, zeta, 0.3 - 0.2j, -0.4 + 0.5j)),
            ("b_outside", lambda: limits.b_outside(2.5, 1.7, -2.2))]
    rng = np.random.default_rng(0)
    for N in (2, 4, 20):
        p = PolyCoeffs((*rng.uniform(-1.0, 1.0, N).tolist(), 1.0))
        p.roots     # solved once, as the sampler hands it over
        out.append((f"roots_classify N={N}", lambda p=p: roots_classify(p)))
    starts = [(name, lambda call=call: call) for name, call in out]

    def sampler_step():
        """One ball-walk step at N = 4, s = 8 (its warm-up step, which builds
        the chain, is not timed); the chain cannot run dry in a timed run."""
        chain = sample(SamplerConfig(N=4, s=8.0, step_length=0.5, steps=10**9, burn_in=0))
        next(chain)
        return lambda: next(chain)
    return starts + [("sample step N=4 s=8", sampler_step)]


def child(repeats: int, calls: int) -> None:
    """Print ``{case: [us per call of each run]}`` as JSON."""
    result = {}
    for name, start in cases():
        start()()
        runs = []
        for _ in range(repeats):
            call = start()
            t0 = time.perf_counter()
            for _ in range(calls):
                call()
            runs.append((time.perf_counter() - t0) / calls * 1e6)
        result[name] = runs
    print(json.dumps(result))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--src", action="append", help="a source tree holding mahler/")
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--repeats", type=int, default=30)
    ap.add_argument("--calls", type=int, default=20)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        child(args.repeats, args.calls)
        return

    srcs = [os.path.abspath(s) for s in args.src or [os.path.join(ROOT, "src")]]
    runs = [{} for _ in srcs]
    for r in range(args.rounds):
        order = range(len(srcs)) if r % 2 == 0 else reversed(range(len(srcs)))
        for i in order:
            env = dict(os.environ, PYTHONPATH=srcs[i], OPENBLAS_NUM_THREADS="1")
            res = subprocess.run([sys.executable, os.path.abspath(__file__), "--child",
                                  "--repeats", str(args.repeats), "--calls", str(args.calls)],
                                 env=env, capture_output=True, text=True, check=True)
            for name, times in json.loads(res.stdout).items():
                runs[i].setdefault(name, []).extend(times)

    for i, src in enumerate(srcs):
        print(f"[{i}] {src}")
    names = list(runs[0])
    print(f"us per call, 10th percentile of {len(runs[0][names[0]])} runs per tree")
    width = max(len(name) for name in names)
    print(f"{'case':<{width}}" + "".join(f"{f'[{i}]':>10}" for i in range(len(srcs))))
    for name in names:
        print(f"{name:<{width}}" + "".join(f"{np.percentile(r[name], 10):>10.1f}" for r in runs))


if __name__ == "__main__":
    main()
