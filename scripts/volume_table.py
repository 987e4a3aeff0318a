"""Tabulate the star-body volume identity over a grid of (N, s).

For each degree N and weight exponent s, prints the closed rational
product F(N, s), the Pfaffian of the skew-moment Gram matrix, and their
relative difference, plus the monic limit s -> infinity. At odd N the Gram
matrix is bordered by the line masses of the weight.

Usage: python3 scripts/volume_table.py [--max-N 8]
"""

import argparse
import math

from mahler.volume import chern_vaaler_f, gram_pf


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-N", type=int, default=8)
    args = ap.parse_args()

    print(f"{'N':>3} {'s':>8} {'F(N,s)':>18} {'Pf(U)':>18} {'rel diff':>10}")
    for N in range(1, args.max_N + 1):
        for s in (N + 1.0, N + 2.0, 2.0 * N, 4.0 * N, math.inf):
            f = chern_vaaler_f(N, s)
            _, pf = gram_pf(N, s)
            rel = abs(pf - f) / abs(f)
            s_label = "inf" if math.isinf(s) else f"{s:g}"
            print(f"{N:>3} {s_label:>8} {f:>18.12g} {pf:>18.12g} {rel:>10.2e}")


if __name__ == "__main__":
    main()
