"""Monte-Carlo root histogram against the one-point kernel intensity.

Runs the Metropolis sampler for the measure-weighted coefficient density,
bins the real roots of the sampled polynomials, and prints each bin next to
the quadrature of the exact real one-point intensity, with the empirical
standard error.

Usage: python3 scripts/sampler_vs_kernel.py [--N 4] [--s 8] [--samples 5000]
"""

import argparse
import math

import numpy as np

from mahler.kernel import EnsembleParams, intensity_real
from mahler.mc import SamplerConfig, roots_classify, sample
from mahler.quadrature import adaptive


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--N", type=int, default=4)
    ap.add_argument("--s", type=float, default=8.0)
    ap.add_argument("--samples", type=int, default=5000)
    ap.add_argument("--thin", type=int, default=25)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--bins", type=int, default=12)
    ap.add_argument("--x-max", type=float, default=2.5)
    args = ap.parse_args()

    burn = 5_000
    cfg = SamplerConfig(N=args.N, s=args.s, step_length=0.5,
                        steps=burn + args.samples * args.thin,
                        burn_in=burn, thin=args.thin, seed=args.seed)
    edges = np.linspace(-args.x_max, args.x_max, args.bins + 1)
    rows = []
    mean_real = 0.0
    for p in sample(cfg):
        rs = roots_classify(p)
        mean_real += len(rs.reals)
        row, _ = np.histogram(rs.reals, bins=edges)
        rows.append(row)
    rows = np.asarray(rows, dtype=float)
    n = rows.shape[0]
    mean_real /= n

    P = EnsembleParams(args.N, args.s)
    print(f"N={args.N} s={args.s:g}  samples={n}  "
          f"mean real-root count {mean_real:.4f}")
    print(f"{'bin':>16} {'observed':>10} {'expected':>10} {'stderr':>9}")
    for j in range(edges.size - 1):
        expect, _ = adaptive(lambda x: intensity_real(P, x),
                             float(edges[j]), float(edges[j + 1]), tol=1e-9)
        obs = rows[:, j].mean()
        se = rows[:, j].std(ddof=1) / math.sqrt(n)
        print(f"[{edges[j]:+6.2f},{edges[j + 1]:+6.2f}] {obs:>10.5f} "
              f"{expect:>10.5f} {se:>9.5f}")


if __name__ == "__main__":
    main()
