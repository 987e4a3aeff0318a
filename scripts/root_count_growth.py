"""Growth of the expected real-root counts with the degree.

Evaluates the exact expected number of real roots inside [-1, 1] and
outside (``kernel.expected_counts``, any degree), at the critical weight
s = N + 1, and compares against the (1/pi) log N law with a least-squares
slope fit.

Usage: python3 scripts/root_count_growth.py [--degrees 50,100,200,400,800]
"""

import argparse
import math

import numpy as np

from mahler.kernel import EnsembleParams, expected_counts


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--degrees", type=str, default="50,100,200,400,800")
    args = ap.parse_args()
    degrees = [int(x) for x in args.degrees.split(",")]

    print(f"{'N':>6} {'E_in':>12} {'E_out':>12} {'(1/pi)logN':>12}")
    e_in = []
    for N in degrees:
        P = EnsembleParams(N, N + 1.0)
        ei, eo = expected_counts(P, "inside"), expected_counts(P, "outside")
        e_in.append(ei)
        print(f"{N:>6} {ei:>12.6f} {eo:>12.6f} "
              f"{math.log(N) / math.pi:>12.6f}")
    slope = np.polyfit(np.log(degrees), e_in, 1)[0]
    print(f"\nfitted slope of E_in vs log N: {slope:.6f}"
          f"  (1/pi = {1.0 / math.pi:.6f})")


if __name__ == "__main__":
    main()
